//! Distributed worker models for the simulator — the paper's §4/§6
//! future-work direction, realized: "the same autonomic loop over a
//! distributed set of workers, adding or removing workers like adding or
//! removing threads in a centralised manner".
//!
//! A [`Cluster`] is an ordered set of [`NodeSpec`]s, each contributing a
//! block of worker slots to the simulator. Slots come online in node
//! order as the controller raises the LP (the simulator always fills the
//! lowest free slot), so placing local nodes first means remote capacity
//! is only recruited once local capacity is exhausted — and every task
//! chain run on a remote node pays that node's communication round-trip
//! in virtual time, which the controller observes through the ordinary
//! event stream and compensates for by provisioning more workers.
//!
//! In the crate layering (see `docs/ARCHITECTURE.md`), this sits above
//! the simulator and above `askel-adapt`: a [`Cluster`] is an `askel_sim`
//! worker model, driven by the same centralised event → analyze → plan →
//! resize loop that scales the threaded engine's work-stealing pool — the
//! paper's "adding or removing workers like adding or removing threads".
//! The self-configuration that only a cluster gives meaning to lives here
//! too, as two rules the one safe-point loop evaluates, arbitrates, logs
//! and announces like any other: the [`Offload`] rule re-places a subtree
//! onto an underloaded node, and the [`ProvisioningPolicy`] brings whole
//! node blocks online or retires them by setting a `capacity` knob over
//! the simulator's LP target. [`sim_session`] builds the adaptive session
//! over the simulator ([`AdaptiveSimSession`]) whose placements and
//! capacity the cluster honours. Nothing on the serving path depends on
//! this crate.
//!
//! ```
//! use std::sync::Arc;
//! use askel_dist::{Cluster, NodeSpec};
//! use askel_sim::{cost::TableCost, SimEngine};
//! use askel_skeletons::{map, seq, TimeNs};
//!
//! let cluster = Cluster::new(vec![
//!     NodeSpec::local("master", 2),
//!     NodeSpec::remote("worker-node", 4, TimeNs::from_millis(250)),
//! ])
//! .with_capacity(2); // start on the master only
//!
//! let program = map(
//!     |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
//!     seq(|v: Vec<i64>| v[0]),
//!     |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
//! );
//! let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
//! let mut sim = SimEngine::with_workers(Box::new(cluster), cost);
//! let out = sim.run(&program, vec![1, 2, 3]).unwrap();
//! assert_eq!(out.result, 6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod offload;

pub use offload::{sim_session, AdaptiveSimSession, Offload};

use std::sync::Arc;

use parking_lot::Mutex;

use askel_adapt::{Concern, Governed, Knob, Reads, RewriteAction, Rule, RuleCtx, RuleFire};
use askel_sim::workers::WorkerModel;
use askel_skeletons::TimeNs;

/// One node of a cluster: a named block of worker slots with a per-task
/// communication round-trip (zero for local nodes) and a relative
/// execution speed (1.0 = baseline).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpec {
    name: String,
    slots: usize,
    round_trip: TimeNs,
    speed: f64,
}

impl NodeSpec {
    /// A local node: `slots` workers with no communication overhead
    /// (threads of the controller's own process).
    pub fn local(name: impl Into<String>, slots: usize) -> Self {
        NodeSpec {
            name: name.into(),
            slots,
            round_trip: TimeNs::ZERO,
            speed: 1.0,
        }
    }

    /// A remote node: `slots` workers, each executed task chain paying
    /// `round_trip` of virtual time for dispatch plus result return.
    pub fn remote(name: impl Into<String>, slots: usize, round_trip: TimeNs) -> Self {
        NodeSpec {
            name: name.into(),
            slots,
            round_trip,
            speed: 1.0,
        }
    }

    /// Sets the node's relative execution speed: 1.0 is the baseline,
    /// 2.0 runs muscles twice as fast (durations halved), 0.5 at half
    /// speed (durations doubled). Non-positive or non-finite values are
    /// treated as the baseline.
    pub fn with_speed(mut self, speed: f64) -> Self {
        self.speed = if speed.is_finite() && speed > 0.0 {
            speed
        } else {
            1.0
        };
        self
    }

    /// The cost multiplier the simulator applies to durations on this
    /// node (`1 / speed`).
    pub fn cost_factor(&self) -> f64 {
        1.0 / self.speed
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Provisioned worker slots on this node.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Communication round-trip charged per task chain (zero ⇒ local).
    pub fn round_trip(&self) -> TimeNs {
        self.round_trip
    }
}

#[derive(Debug)]
struct TelemetryInner {
    /// Node names, in slot order (fixed at cluster construction).
    names: Vec<String>,
    /// Provisioned slots per node (fixed).
    slots: Vec<usize>,
    /// Currently-enabled slots per node (tracks `Cluster::set_capacity`).
    enabled: Vec<usize>,
    /// Accumulated busy virtual time per node.
    busy: Vec<TimeNs>,
}

/// Shared handle onto a cluster's live state: per-node busy-time
/// accounting plus the currently-enabled slot counts.
///
/// The cluster is moved into the simulator
/// ([`askel_sim::SimEngine::with_workers`] takes it by value), so its
/// state is surfaced through this handle: keep a clone
/// ([`Cluster::telemetry`]) before handing the cluster over, and read
/// per-node busy time while or after the simulation runs. The
/// [`Offload`] rule and [`ProvisioningPolicy`] decide from exactly this
/// view.
#[derive(Clone, Debug)]
pub struct ClusterTelemetry {
    inner: Arc<Mutex<TelemetryInner>>,
}

impl ClusterTelemetry {
    fn for_nodes(nodes: &[NodeSpec]) -> Self {
        ClusterTelemetry {
            inner: Arc::new(Mutex::new(TelemetryInner {
                names: nodes.iter().map(|n| n.name().to_string()).collect(),
                slots: nodes.iter().map(NodeSpec::slots).collect(),
                enabled: nodes.iter().map(NodeSpec::slots).collect(),
                busy: vec![TimeNs::ZERO; nodes.len()],
            })),
        }
    }

    fn add(&self, node: usize, busy: TimeNs) {
        let mut inner = self.inner.lock();
        if let Some(t) = inner.busy.get_mut(node) {
            *t += busy;
        }
    }

    fn set_enabled(&self, enabled: Vec<usize>) {
        self.inner.lock().enabled = enabled;
    }

    /// Node names, in slot order.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().names.clone()
    }

    /// Index (in node order) of the node called `name`.
    pub(crate) fn node_index(&self, name: &str) -> Option<usize> {
        self.inner.lock().names.iter().position(|n| n == name)
    }

    /// Provisioned slots per node.
    pub(crate) fn slots_per_node(&self) -> Vec<usize> {
        self.inner.lock().slots.clone()
    }

    /// Currently-enabled slots per node (live: follows every capacity
    /// change, including mid-run LP requests).
    pub(crate) fn enabled_per_node(&self) -> Vec<usize> {
        self.inner.lock().enabled.clone()
    }

    /// Total enabled slots — the cluster's current capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().enabled.iter().sum()
    }

    /// Accumulated busy virtual time per node, in node order (scaled
    /// muscle durations plus communication round-trips).
    pub fn busy_per_node(&self) -> Vec<TimeNs> {
        self.inner.lock().busy.clone()
    }

    /// Each node's share of the total accumulated busy time, in node
    /// order (`0.0` everywhere while nothing has run). Shares sum to 1
    /// once any work has been accounted; they are what the [`Offload`]
    /// high/low-water-mark comparisons and the [`ProvisioningPolicy`]
    /// read — a wall-clock-free skew measure that replays
    /// deterministically on the simulator.
    pub(crate) fn busy_share(&self) -> Vec<f64> {
        let inner = self.inner.lock();
        let total: f64 = inner.busy.iter().map(|b| b.as_secs_f64()).sum();
        if total <= 0.0 {
            return vec![0.0; inner.busy.len()];
        }
        inner.busy.iter().map(|b| b.as_secs_f64() / total).collect()
    }
}

/// A heterogeneous set of worker nodes behind one centralised controller.
///
/// Implements [`WorkerModel`], so it plugs directly into
/// [`askel_sim::SimEngine::with_workers`]. The controller keeps talking
/// in plain LP numbers; the cluster translates "LP = n" into "the first
/// `n` provisioned slots, in node order", charges each slot its owning
/// node's round-trip, scales durations by the node's speed, and accounts
/// busy time per node (see [`ClusterTelemetry`]). Clones share the
/// telemetry accumulator.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Vec<NodeSpec>,
    /// Slot index where each node's block starts; `starts[i] +
    /// nodes[i].slots()` is the block's end.
    starts: Vec<usize>,
    provisioned: usize,
    capacity: usize,
    telemetry: ClusterTelemetry,
}

impl Cluster {
    /// A cluster over `nodes` (slot blocks in the given order), initially
    /// enabled at full provisioned capacity.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        let mut starts = Vec::with_capacity(nodes.len());
        let mut total = 0usize;
        for n in &nodes {
            starts.push(total);
            total += n.slots();
        }
        let telemetry = ClusterTelemetry::for_nodes(&nodes);
        Cluster {
            nodes,
            starts,
            provisioned: total,
            capacity: total,
            telemetry,
        }
    }

    /// A shared handle onto this cluster's per-node busy-time accounting;
    /// keep a clone before moving the cluster into the simulator.
    pub fn telemetry(&self) -> ClusterTelemetry {
        self.telemetry.clone()
    }

    /// Sets the initially-enabled capacity (clamped to the provisioned
    /// total) — typically the controller's `initial_lp`.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.min(self.provisioned);
        self.sync_telemetry();
        self
    }

    /// Pushes the current enabled-per-node split into the shared
    /// telemetry handle.
    fn sync_telemetry(&self) {
        let enabled = self
            .enabled_per_node()
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        self.telemetry.set_enabled(enabled);
    }

    /// The nodes, in slot order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// The node owning `slot`, if the slot is provisioned.
    pub(crate) fn node_of_slot(&self, slot: usize) -> Option<&NodeSpec> {
        self.node_index_of_slot(slot).map(|i| &self.nodes[i])
    }

    /// Index (in node order) of the node owning `slot`.
    fn node_index_of_slot(&self, slot: usize) -> Option<usize> {
        if slot >= self.provisioned {
            return None;
        }
        // Last node whose block starts at or before `slot`.
        let idx = match self.starts.binary_search(&slot) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        // Blocks of empty nodes share a start; walk to the owning one.
        self.nodes[idx..]
            .iter()
            .zip(&self.starts[idx..])
            .position(|(n, &s)| slot >= s && slot < s + n.slots())
            .map(|offset| idx + offset)
    }

    /// How many of each node's slots are enabled at the current capacity,
    /// as `(node, enabled)` pairs in slot order.
    pub(crate) fn enabled_per_node(&self) -> Vec<(&NodeSpec, usize)> {
        self.nodes
            .iter()
            .zip(&self.starts)
            .map(|(n, &start)| {
                let enabled = self.capacity.saturating_sub(start).min(n.slots());
                (n, enabled)
            })
            .collect()
    }

    /// `enabled/provisioned` per node, e.g. `master:2/2 worker:5/12`, as
    /// the cluster's `Display` ends.
    fn utilization(&self) -> String {
        self.enabled_per_node()
            .iter()
            .map(|(n, e)| format!("{}:{}/{}", n.name(), e, n.slots()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl WorkerModel for Cluster {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn set_capacity(&mut self, n: usize) {
        self.capacity = n.min(self.provisioned);
        self.sync_telemetry();
    }

    fn chain_overhead(&self, slot: usize) -> TimeNs {
        self.node_of_slot(slot)
            .map(NodeSpec::round_trip)
            .unwrap_or(TimeNs::ZERO)
    }

    fn cost_factor(&self, slot: usize) -> f64 {
        self.node_of_slot(slot)
            .map(NodeSpec::cost_factor)
            .unwrap_or(1.0)
    }

    fn note_busy(&mut self, slot: usize, busy: TimeNs) {
        if let Some(node) = self.node_index_of_slot(slot) {
            self.telemetry.add(node, busy);
        }
    }

    fn slot_matches(&self, slot: usize, placement: &str) -> bool {
        self.node_of_slot(slot)
            .map(|n| n.name() == placement)
            .unwrap_or(false)
    }

    fn placement_enabled(&self, placement: &str) -> bool {
        self.enabled_per_node()
            .iter()
            .any(|(n, enabled)| *enabled > 0 && n.name() == placement)
    }

    fn slot_range(&self, placement: &str) -> Option<(usize, usize)> {
        // Node blocks are contiguous by construction, so the scheduler
        // can place onto a named node in O(log free) instead of probing
        // every free slot. Node names are unique per cluster.
        self.nodes
            .iter()
            .zip(&self.starts)
            .find(|(n, _)| n.name() == placement)
            .map(|(n, &start)| (start, start + n.slots()))
    }
}

/// Dynamic node provisioning from per-node utilization, as a rule: the
/// [`Offload`] rule moves a subtree's *placement* onto an underloaded
/// node, this rule decides which nodes are *online* at all.
///
/// Capacity is prefix-based (slots come online in node order), so the
/// policy adds and retires whole node blocks at the **tail**: when the
/// busiest enabled node's busy share crosses the high-water mark and a
/// later node is still (partly) offline, that block is brought online;
/// when the *last* enabled node's share sits under the low-water mark,
/// its block is retired. The first node never is. Shares are **windowed
/// to the last proposal** — the busy time accrued since — so a fresh,
/// saturated node is not diluted by the lifetime it spent offline, and a
/// retired node's stale history cannot mask a hot one.
///
/// A [`Concern::Cost`] [`Rule`] named `provisioning`: its decision is a
/// [`RewriteAction::SetKnob`] on the `capacity` knob (typically
/// `Knob::from_shared("capacity", lp.cell())`, the simulator's LP
/// target), arbitrated, applied, logged and announced like every fire.
/// A cooldown (`Governed::cooldown`) keeps oscillating load from
/// flapping nodes; like every fire, a suppressed one still restarts the
/// window and the cooldown (see `Governed`).
pub struct ProvisioningPolicy {
    telemetry: ClusterTelemetry,
    capacity: Knob,
    high_water: f64,
    low_water: f64,
    /// Per-node busy totals at the last proposal (`None` until one).
    window: Option<Vec<TimeNs>>,
}

impl ProvisioningPolicy {
    /// A policy over `telemetry`'s cluster, setting `capacity`, with the
    /// given busy-share water marks (clamped to `[0, 1]`, `low ≤ high`)
    /// and no cooldown.
    pub fn new(
        telemetry: ClusterTelemetry,
        capacity: Knob,
        high_water: f64,
        low_water: f64,
    ) -> Governed<Self> {
        let high_water = high_water.clamp(0.0, 1.0);
        let rule = ProvisioningPolicy {
            telemetry,
            capacity,
            high_water,
            low_water: low_water.clamp(0.0, high_water),
            window: None,
        };
        Governed::new("provisioning", Concern::Cost, rule)
    }

    /// The capacity `shares` (windowed busy shares, in node order) call
    /// for, and why — `None` to hold.
    fn decide(&self, shares: &[f64]) -> Option<(usize, String)> {
        let enabled = self.telemetry.enabled_per_node();
        let slots = self.telemetry.slots_per_node();
        let names = self.telemetry.names();

        // Add: the busiest enabled node is over the high-water mark and a
        // later block still has offline slots.
        let hottest = shares
            .iter()
            .zip(&enabled)
            .filter(|(_, &e)| e > 0)
            .map(|(s, _)| *s)
            .fold(0.0f64, f64::max);
        if hottest >= self.high_water {
            if let Some(i) = (0..slots.len()).find(|&i| enabled[i] < slots[i]) {
                let why = format!(
                    "hottest enabled node at {:.0}% of windowed busy time >= {:.0}% \
                     high water; bringing `{}` online ({} slots)",
                    hottest * 100.0,
                    self.high_water * 100.0,
                    names[i],
                    slots[i]
                );
                return Some((slots[..=i].iter().sum(), why));
            }
            // Everything is already online: fall through — the idle
            // tail node may still deserve retirement.
        }

        // Retire: the last enabled node sits under the low-water mark.
        let last = (0..enabled.len()).rev().find(|&i| enabled[i] > 0)?;
        if last == 0 {
            return None; // never retire the first node
        }
        let new_capacity: usize = slots[..last].iter().sum();
        if shares[last] <= self.low_water && new_capacity >= 1 {
            let why = format!(
                "`{}` at {:.0}% of windowed busy time <= {:.0}% low water; \
                 retiring its {} slot(s)",
                names[last],
                shares[last] * 100.0,
                self.low_water * 100.0,
                slots[last]
            );
            return Some((new_capacity, why));
        }
        None
    }
}

impl Rule for ProvisioningPolicy {
    /// Busy shares come from the cluster's telemetry, not from events.
    fn reads(&self) -> Reads {
        Reads::NOTHING
    }

    /// Decides from the cluster's live busy shares whether to bring the
    /// next offline node online or retire the last online one.
    /// Deterministic: same telemetry, same decision.
    fn evaluate(&mut self, _ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        // The busy time accrued since the last proposal (before the
        // first, since construction).
        let busy = self.telemetry.busy_per_node();
        let start = |i: usize| self.window.as_ref().map_or(TimeNs::ZERO, |w| w[i]);
        let delta: Vec<f64> = (0..busy.len())
            .map(|i| busy[i].saturating_sub(start(i)).as_secs_f64())
            .collect();
        let total: f64 = delta.iter().sum();
        if total <= 0.0 {
            return None; // nothing observed in this window yet
        }
        let shares: Vec<f64> = delta.iter().map(|d| d / total).collect();
        let (capacity, why) = self.decide(&shares)?;
        self.window = Some(busy);
        let action = RewriteAction::SetKnob {
            knob: self.capacity.clone(),
            value: capacity,
        };
        Some(RuleFire::new(action, why))
    }
}

impl std::fmt::Display for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster[{} nodes, {}/{} slots enabled: {}]",
            self.nodes.len(),
            self.capacity,
            self.provisioned,
            self.utilization()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_adapt::{ConflictPolicy, TriggerEngine, DECISION_LOG_CAPACITY};

    fn two_node() -> Cluster {
        Cluster::new(vec![
            NodeSpec::local("master", 2),
            NodeSpec::remote("worker", 12, TimeNs::from_millis(300)),
        ])
    }

    #[test]
    fn slots_map_to_nodes_in_order() {
        let c = two_node();
        assert_eq!(c.provisioned, 14);
        assert_eq!(c.node_of_slot(0).unwrap().name(), "master");
        assert_eq!(c.node_of_slot(1).unwrap().name(), "master");
        assert_eq!(c.node_of_slot(2).unwrap().name(), "worker");
        assert_eq!(c.node_of_slot(13).unwrap().name(), "worker");
        assert!(c.node_of_slot(14).is_none());
    }

    #[test]
    fn local_slots_are_free_remote_slots_pay_the_round_trip() {
        let c = two_node();
        assert_eq!(c.chain_overhead(0), TimeNs::ZERO);
        assert_eq!(c.chain_overhead(1), TimeNs::ZERO);
        assert_eq!(c.chain_overhead(2), TimeNs::from_millis(300));
        assert_eq!(c.chain_overhead(13), TimeNs::from_millis(300));
        assert_eq!(c.chain_overhead(99), TimeNs::ZERO);
    }

    #[test]
    fn capacity_clamps_to_provisioned_slots() {
        let mut c = two_node().with_capacity(1);
        assert_eq!(c.capacity(), 1);
        c.set_capacity(9);
        assert_eq!(c.capacity(), 9);
        c.set_capacity(10_000);
        assert_eq!(c.capacity(), 14, "a cluster cannot exceed provisioning");
        c.set_capacity(0);
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn enabled_per_node_splits_capacity_across_blocks() {
        let mut c = two_node();
        c.set_capacity(5);
        let enabled: Vec<(String, usize)> = c
            .enabled_per_node()
            .into_iter()
            .map(|(n, e)| (n.name().to_string(), e))
            .collect();
        assert_eq!(enabled, vec![("master".into(), 2), ("worker".into(), 3)]);
        assert_eq!(c.utilization(), "master:2/2 worker:3/12");
    }

    #[test]
    fn empty_and_zero_slot_nodes_are_harmless() {
        let c = Cluster::new(vec![
            NodeSpec::local("idle", 0),
            NodeSpec::remote("r", 3, TimeNs::from_millis(10)),
        ]);
        assert_eq!(c.provisioned, 3);
        assert_eq!(c.node_of_slot(0).unwrap().name(), "r");
        let empty = Cluster::new(vec![]);
        assert_eq!(empty.provisioned, 0);
        assert!(empty.node_of_slot(0).is_none());
    }

    #[test]
    fn speeds_scale_cost_factors_per_slot() {
        let c = Cluster::new(vec![
            NodeSpec::local("fast", 1).with_speed(2.0),
            NodeSpec::remote("slow", 1, TimeNs::from_millis(10)).with_speed(0.5),
            NodeSpec::local("base", 1),
        ]);
        assert_eq!(c.cost_factor(0), 0.5, "2× speed halves durations");
        assert_eq!(c.cost_factor(1), 2.0, "half speed doubles durations");
        assert_eq!(c.cost_factor(2), 1.0);
        assert_eq!(c.cost_factor(99), 1.0, "unprovisioned slots are neutral");
        // Degenerate speeds fall back to baseline.
        assert_eq!(NodeSpec::local("x", 1).with_speed(0.0).speed, 1.0);
        assert_eq!(NodeSpec::local("x", 1).with_speed(f64::NAN).speed, 1.0);
    }

    #[test]
    fn telemetry_accumulates_busy_time_per_node() {
        let mut c = two_node();
        let telemetry = c.telemetry();
        c.note_busy(0, TimeNs::from_millis(5)); // master
        c.note_busy(1, TimeNs::from_millis(7)); // master
        c.note_busy(2, TimeNs::from_millis(11)); // worker
        c.note_busy(999, TimeNs::from_millis(100)); // unprovisioned: dropped
        assert_eq!(
            telemetry.busy_per_node(),
            vec![TimeNs::from_millis(12), TimeNs::from_millis(11)]
        );
    }

    #[test]
    fn slow_node_runs_simulated_muscles_slower() {
        use askel_sim::cost::TableCost;
        use askel_sim::SimEngine;
        use askel_skeletons::seq;

        let program = seq(|x: i64| x + 1);
        let cost = std::sync::Arc::new(TableCost::new(TimeNs::from_secs(1)));
        // One half-speed slot: a 1s muscle takes 2s of virtual time.
        let cluster = Cluster::new(vec![NodeSpec::local("slow", 1).with_speed(0.5)]);
        let telemetry = cluster.telemetry();
        let mut sim = SimEngine::with_workers(Box::new(cluster), cost);
        let out = sim.run(&program, 1).unwrap();
        assert_eq!(out.result, 2);
        assert_eq!(out.wct, TimeNs::from_secs(2));
        assert_eq!(telemetry.busy_per_node(), vec![TimeNs::from_secs(2)]);
    }

    #[test]
    fn display_summarizes_the_cluster() {
        let c = two_node().with_capacity(3);
        let s = format!("{c}");
        assert!(s.contains("master:2/2"), "{s}");
        assert!(s.contains("worker:1/12"), "{s}");
    }

    #[test]
    fn telemetry_tracks_enabled_slots_and_shares() {
        let mut c = two_node().with_capacity(3);
        let t = c.telemetry();
        assert_eq!(t.names(), vec!["master".to_string(), "worker".into()]);
        assert_eq!(t.node_index("worker"), Some(1));
        assert_eq!(t.node_index("nope"), None);
        assert_eq!(t.slots_per_node(), vec![2, 12]);
        assert_eq!(t.enabled_per_node(), vec![2, 1]);
        assert_eq!(t.capacity(), 3);
        c.set_capacity(14);
        assert_eq!(t.enabled_per_node(), vec![2, 12], "live view");
        assert_eq!(t.busy_share(), vec![0.0, 0.0], "nothing observed yet");
        c.note_busy(0, TimeNs::from_millis(30)); // master
        c.note_busy(2, TimeNs::from_millis(10)); // worker
        let shares = t.busy_share();
        assert!((shares[0] - 0.75).abs() < 1e-9, "{shares:?}");
        assert!((shares[1] - 0.25).abs() < 1e-9, "{shares:?}");
    }

    #[test]
    fn placement_maps_to_named_slots() {
        let mut c = two_node().with_capacity(2);
        assert!(c.slot_matches(0, "master"));
        assert!(!c.slot_matches(0, "worker"));
        assert!(c.slot_matches(5, "worker"));
        assert!(!c.slot_matches(99, "worker"), "unprovisioned slot");
        // Enabled = capacity prefix: the worker block is offline at 2.
        assert!(c.placement_enabled("master"));
        assert!(!c.placement_enabled("worker"));
        c.set_capacity(3);
        assert!(c.placement_enabled("worker"));
        assert!(!c.placement_enabled("unknown-node"));
    }

    #[test]
    fn placed_subtree_runs_on_its_node_in_the_sim() {
        use askel_sim::cost::TableCost;
        use askel_sim::SimEngine;
        use askel_skeletons::{map, seq};

        let program: askel_skeletons::Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0] * 2),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let run = |placed: bool| {
            let cluster = Cluster::new(vec![
                NodeSpec::local("edge", 1),
                NodeSpec::remote("hub", 2, TimeNs::ZERO),
            ]);
            let telemetry = cluster.telemetry();
            let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
            let mut sim = SimEngine::with_workers(Box::new(cluster), cost);
            let skel = if placed {
                program.placed_at(program.id(), "hub").unwrap()
            } else {
                program.clone()
            };
            let out = sim.run(&skel, vec![1, 2, 3]).unwrap();
            (out.result, telemetry.busy_per_node())
        };
        let (unplaced_result, unplaced_busy) = run(false);
        let (placed_result, placed_busy) = run(true);
        assert_eq!(unplaced_result, 12);
        assert_eq!(placed_result, 12, "placement never changes results");
        assert!(
            unplaced_busy[0] > TimeNs::ZERO,
            "unplaced work uses the lowest slot (edge): {unplaced_busy:?}"
        );
        assert_eq!(
            placed_busy[0],
            TimeNs::ZERO,
            "placed work avoids the edge node entirely: {placed_busy:?}"
        );
        assert!(placed_busy[1] > TimeNs::ZERO);
    }

    #[test]
    fn placement_falls_back_when_its_node_is_offline() {
        use askel_sim::cost::TableCost;
        use askel_sim::SimEngine;
        use askel_skeletons::seq;

        let program = seq(|x: i64| x + 1).labeled("leaf");
        let placed = program.placed_at(program.id(), "hub").unwrap();
        // Capacity 1 = only the edge slot: "hub" names no enabled slot,
        // so the placed task must run on the edge instead of stalling.
        let cluster = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 2, TimeNs::ZERO),
        ])
        .with_capacity(1);
        let telemetry = cluster.telemetry();
        let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
        let mut sim = SimEngine::with_workers(Box::new(cluster), cost);
        let out = sim.run(&placed, 41).unwrap();
        assert_eq!(out.result, 42);
        assert!(telemetry.busy_per_node()[0] > TimeNs::ZERO);
        assert_eq!(telemetry.busy_per_node()[1], TimeNs::ZERO);
    }

    /// Every constructor's governance, before any setter: name, concern,
    /// fire-once and priority 0.
    #[test]
    fn every_rule_constructor_starts_from_its_default_governance() {
        use askel_adapt::{
            CostGuard, FallbackSwap, NodeHoursMeter, Promote, RetuneGrain, RetuneWidth,
        };
        use askel_skeletons::{seq, MuscleId, MuscleRole};
        let leaf = seq(|x: i64| x);
        let knob = || Knob::new("k", 1);
        let muscle = MuscleId::new(leaf.id(), MuscleRole::Execute);
        let t = Cluster::new(vec![NodeSpec::local("edge", 1)]).telemetry();
        let rows = [
            (
                format!("{:?}", Promote::new(&leaf, &leaf)),
                "promote (performance, priority 0, once)",
            ),
            (
                format!("{:?}", FallbackSwap::new(&leaf, &leaf, 2)),
                "fallback-swap (reliability, priority 0, once)",
            ),
            (
                format!("{:?}", RetuneWidth::new(knob(), 2)),
                "width-retune (performance, priority 0)",
            ),
            (
                format!("{:?}", RetuneGrain::new(knob(), muscle, TimeNs::ZERO)),
                "grain-retune (performance, priority 0)",
            ),
            (
                format!(
                    "{:?}",
                    CostGuard::knob(NodeHoursMeter::new(), TimeNs::ZERO, knob(), 1)
                ),
                "cost-guard (cost, priority 0)",
            ),
            (
                format!("{:?}", Offload::new(&leaf, "edge", t.clone(), 0.7, 0.2)),
                "offload (performance, priority 0)",
            ),
            (
                format!("{:?}", ProvisioningPolicy::new(t, knob(), 0.8, 0.0)),
                "provisioning (cost, priority 0)",
            ),
        ];
        for (governance, expected) in rows {
            assert_eq!(governance, expected);
        }
    }

    /// A trigger engine holding `policy` alone.
    fn host(policy: Governed<ProvisioningPolicy>) -> Arc<TriggerEngine> {
        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(policy);
        trigger
    }

    /// One safe point of `trigger`: the capacity its fire asks for, and
    /// why (`None` = hold).
    fn review(trigger: &TriggerEngine) -> Option<(usize, String)> {
        let root = Arc::clone(askel_skeletons::seq(|x: i64| x).node());
        let mut plans = trigger.plan(&root, 1);
        assert!(plans.len() <= 1, "one rule, one fire");
        let plan = plans.pop()?;
        assert_eq!(
            (plan.rule.as_str(), plan.concern),
            ("provisioning", Concern::Cost)
        );
        match plan.action {
            RewriteAction::SetKnob { knob, value } => {
                assert_eq!(knob.name(), "capacity");
                Some((value, plan.why))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn provisioning_adds_and_retires_tail_nodes_with_cooldown() {
        let c = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 3, TimeNs::from_millis(10)),
        ])
        .with_capacity(1);
        let t = c.telemetry();
        let trigger = host(
            ProvisioningPolicy::new(t.clone(), Knob::new("capacity", 1), 0.8, 0.1).cooldown(3),
        );

        // Nothing observed: hold.
        assert_eq!(review(&trigger), None);

        // All busy time on the edge: over the high-water mark → add hub.
        t.add(0, TimeNs::from_secs(10));
        let (cap, why) = review(&trigger).expect("add");
        assert_eq!(cap, 4, "edge block (1) + hub block (3)");
        assert!(why.contains("bringing `hub` online"), "{why}");
        t.set_enabled(vec![1, 3]); // the knob's LP request was applied

        // Still skewed, but everything is online → hold; and the next
        // safe point is inside the cooldown anyway.
        assert_eq!(review(&trigger), None);

        // Load continues on the edge while the hub stays idle: once the
        // cooldown elapses the hub is retired (windowed shares — the
        // post-add window must see traffic to judge).
        t.add(0, TimeNs::from_secs(5));
        assert_eq!(review(&trigger), None, "cooldown");
        let (cap, why) = review(&trigger).expect("retire");
        assert_eq!(cap, 1, "hub retired, back to the edge block");
        assert!(why.contains("`hub`") && why.contains("retiring"), "{why}");
    }

    #[test]
    fn provisioning_judges_a_fresh_node_on_its_window_not_its_lifetime() {
        // The flap scenario: the edge accumulated a huge lifetime busy
        // total before the hub came online. Post-add, the hub does all
        // the work — its *lifetime* share is tiny, but its *windowed*
        // share is ~100%, so it must NOT be retired; and the idle edge's
        // stale history must not mask the hub from the high-water check.
        let c = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 3, TimeNs::ZERO),
        ])
        .with_capacity(1);
        let t = c.telemetry();
        let trigger = host(
            ProvisioningPolicy::new(t.clone(), Knob::new("capacity", 1), 0.8, 0.1).cooldown(1),
        );
        t.add(0, TimeNs::from_secs(100)); // long edge-only history
        assert_eq!(review(&trigger).map(|(cap, _)| cap), Some(4), "add hub");
        t.set_enabled(vec![1, 3]);
        // The hub now runs saturated; the edge is idle. In-window share:
        // hub 8s / 8s = 100%, edge 0% — lifetime share would be ~7%.
        t.add(1, TimeNs::from_secs(8));
        assert_eq!(
            review(&trigger),
            None,
            "a saturated fresh node is not retired (no add possible either)"
        );
    }

    #[test]
    fn provisioning_never_retires_the_first_node_or_goes_below_min() {
        let c = Cluster::new(vec![NodeSpec::local("only", 2)]);
        let t = c.telemetry();
        let trigger = host(ProvisioningPolicy::new(
            t.clone(),
            Knob::new("capacity", 2),
            0.9,
            0.5,
        ));
        t.add(0, TimeNs::from_millis(1));
        // Share of "only" is 1.0 ≥ high water but there is nothing to
        // add; and it is the first node, so it can never be retired.
        assert_eq!(review(&trigger), None);
    }

    /// `policy`'s trigger engine over a one-muscle program, holding the
    /// tree and version a stream's safe points would.
    struct SafePoints {
        trigger: Arc<TriggerEngine>,
        skel: askel_skeletons::Skel<i64, i64>,
        version: u64,
    }

    fn safe_points(policy: Governed<ProvisioningPolicy>) -> SafePoints {
        SafePoints {
            trigger: host(policy),
            skel: askel_skeletons::seq(|x: i64| x),
            version: 0,
        }
    }

    impl SafePoints {
        /// One safe point at time zero and LP 1, announcing through
        /// `registry`: how many rewrites it applied.
        fn apply(&mut self, registry: &askel_events::ListenerRegistry) -> u64 {
            let before = self.version;
            let policy = ConflictPolicy::default();
            let rewritten = self.trigger.safe_point(
                &self.skel,
                &mut self.version,
                &policy,
                registry,
                TimeNs::ZERO,
                1,
            );
            if let Some(skel) = rewritten {
                self.skel = skel;
            }
            self.version - before
        }
    }

    #[test]
    fn a_tail_block_flapping_at_every_review_leaves_a_bounded_log() {
        let c = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 1, TimeNs::ZERO),
        ])
        .with_capacity(1);
        let t = c.telemetry();
        let knob = Knob::new("capacity", 1);
        // No cooldown, and all load on the edge: the hub is added, then
        // retired at the next safe point (idle in its window), and so on.
        let policy = ProvisioningPolicy::new(t.clone(), knob.clone(), 0.5, 0.0);
        let mut points = safe_points(policy);
        let registry = askel_events::ListenerRegistry::new();
        let n = DECISION_LOG_CAPACITY;
        for point in 1..=3 * n {
            t.add(0, TimeNs::from_secs(1));
            assert_eq!(points.apply(&registry), 1, "flaps at every safe point");
            let cap = knob.get();
            assert_eq!(cap, if point % 2 == 1 { 2 } else { 1 }, "add, retire, …");
            t.set_enabled(vec![1, cap - 1]);
        }
        assert_eq!(points.version, 3 * n as u64);
        assert_eq!(
            points.trigger.decision_log().len(),
            n,
            "one decision log, bounded"
        );
    }

    #[test]
    fn slot_range_agrees_with_slot_matches() {
        let c = Cluster::new(vec![
            NodeSpec::local("idle", 0),
            NodeSpec::local("master", 2),
            NodeSpec::remote("worker", 12, TimeNs::from_millis(300)),
        ]);
        assert_eq!(c.slot_range("master"), Some((0, 2)));
        assert_eq!(c.slot_range("worker"), Some((2, 14)));
        assert_eq!(c.slot_range("idle"), Some((0, 0)), "empty block");
        assert_eq!(c.slot_range("nope"), None);
        for slot in 0..c.provisioned {
            for name in ["master", "worker", "idle"] {
                let (lo, hi) = c.slot_range(name).unwrap();
                assert_eq!(
                    c.slot_matches(slot, name),
                    slot >= lo && slot < hi,
                    "slot {slot} vs {name}"
                );
            }
        }
    }

    #[test]
    fn provisioning_announces_reconfigured_events() {
        use askel_events::{Event, FnListener, Payload, Where};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let registry = askel_events::ListenerRegistry::new();
        let seen = Arc::new(AtomicUsize::new(0));
        let sink = Arc::clone(&seen);
        registry.add_listener(Arc::new(FnListener(
            move |_: &mut Payload<'_>, e: &Event| {
                if e.wher == Where::Reconfigured {
                    assert_eq!(e.info.reconfigured_version(), Some(1));
                    sink.fetch_add(1, Ordering::SeqCst);
                }
            },
        )));
        let c = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 1, TimeNs::ZERO),
        ])
        .with_capacity(1);
        let t = c.telemetry();
        let knob = Knob::new("capacity", 1);
        let policy = ProvisioningPolicy::new(t.clone(), knob.clone(), 0.5, 0.0);
        let mut points = safe_points(policy);
        t.add(0, TimeNs::from_secs(1));
        assert_eq!(points.apply(&registry), 1);
        assert_eq!(knob.get(), 2, "the hub's slot requested");
        assert_eq!(seen.load(Ordering::SeqCst), 1, "one (After, Reconfigured)");
        let log = points.trigger.decision_log();
        assert_eq!(log.len(), 1);
        assert_eq!((log[0].rule.as_str(), log[0].version), ("provisioning", 1));
        assert_eq!(log[0].action, "set knob `capacity` 1 -> 2");
    }

    #[test]
    fn a_clamped_lp_request_records_no_phantom_target_step() {
        use askel_sim::cost::TableCost;
        use askel_sim::SimEngine;
        use askel_skeletons::seq;
        use askel_skeletons::TimelinePoint;

        // Two slots provisioned; asking for four clamps to the two the
        // cluster already has, which is no step of the target timeline.
        let cluster = Cluster::new(vec![NodeSpec::local("only", 2)]);
        let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
        let mut sim = SimEngine::with_workers(Box::new(cluster), cost);
        let program = seq(|x: i64| x + 1);
        let lp = sim.lp_control();
        lp.request(4);
        sim.run(&program, 1).unwrap();
        lp.request(4);
        sim.run(&program, 2).unwrap();
        let point = |secs, active| TimelinePoint {
            at: TimeNs::from_secs(secs),
            active,
        };
        // One sample per run's start, and nothing else.
        assert_eq!(
            sim.telemetry().target_timeline(),
            vec![point(0, 2), point(1, 2)]
        );
        assert_eq!(sim.lp(), 2);
    }
}
