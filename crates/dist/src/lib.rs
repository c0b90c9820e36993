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
//! too: the [`Offload`] rule re-places a subtree onto an underloaded node,
//! and [`sim_session`] builds the adaptive session over the simulator
//! ([`AdaptiveSimSession`]) whose placements the cluster honours. Nothing
//! on the serving path depends on this crate.
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

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use askel_events::{Event, Payload};
use askel_sim::components::{Command, Component};
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

    fn lock(&self) -> std::sync::MutexGuard<'_, TelemetryInner> {
        self.inner.lock().expect("cluster telemetry poisoned")
    }

    fn add(&self, node: usize, busy: TimeNs) {
        let mut inner = self.lock();
        if let Some(t) = inner.busy.get_mut(node) {
            *t += busy;
        }
    }

    fn set_enabled(&self, enabled: Vec<usize>) {
        self.lock().enabled = enabled;
    }

    /// Node names, in slot order.
    pub fn names(&self) -> Vec<String> {
        self.lock().names.clone()
    }

    /// Index (in node order) of the node called `name`.
    pub(crate) fn node_index(&self, name: &str) -> Option<usize> {
        self.lock().names.iter().position(|n| n == name)
    }

    /// Provisioned slots per node.
    pub(crate) fn slots_per_node(&self) -> Vec<usize> {
        self.lock().slots.clone()
    }

    /// Currently-enabled slots per node (live: follows every capacity
    /// change, including mid-run LP requests).
    pub(crate) fn enabled_per_node(&self) -> Vec<usize> {
        self.lock().enabled.clone()
    }

    /// Total enabled slots — the cluster's current capacity.
    pub fn capacity(&self) -> usize {
        self.lock().enabled.iter().sum()
    }

    /// Accumulated busy virtual time per node, in node order (scaled
    /// muscle durations plus communication round-trips).
    pub fn busy_per_node(&self) -> Vec<TimeNs> {
        self.lock().busy.clone()
    }

    /// Each node's share of the total accumulated busy time, in node
    /// order (`0.0` everywhere while nothing has run). Shares sum to 1
    /// once any work has been accounted; they are what the [`Offload`]
    /// high/low-water-mark comparisons and the [`ProvisioningPolicy`]
    /// read — a wall-clock-free skew measure that replays
    /// deterministically on the simulator.
    pub(crate) fn busy_share(&self) -> Vec<f64> {
        let inner = self.lock();
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

/// What a provisioning decision did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProvisionAction {
    /// A node's slot block was brought online.
    Add,
    /// A node's slot block was taken offline.
    Retire,
}

/// One audited provisioning decision — the cluster-level counterpart of
/// `askel-adapt`'s `AdaptRecord`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvisionRecord {
    /// When the decision was taken (virtual or engine time).
    pub at: TimeNs,
    /// The policy's version counter after this change (1, 2, …).
    pub version: u64,
    /// The node that was added or retired.
    pub node: String,
    /// What was done.
    pub action: ProvisionAction,
    /// Enabled capacity (total slots) after the change.
    pub capacity: usize,
    /// The busy-share observations that justified it.
    pub why: String,
}

/// Dynamic node provisioning from per-node utilization — the ROADMAP's
/// "use the new utilization figures in decisions", and the actuation half
/// of the [`Offload`] story: the [`Offload`] rule moves a
/// subtree's *placement* onto an underloaded node, this policy decides
/// which nodes are *online* at all.
///
/// Capacity is prefix-based (slots come online in node order), so the
/// policy adds and retires whole node blocks at the **tail** of the slot
/// order: when the busiest enabled node's busy share crosses the
/// high-water mark and a later node is still (partly) offline, that
/// node's block is brought fully online; when the *last* enabled node's
/// share sits under the low-water mark, its block is retired. A cooldown
/// (in review points) keeps oscillating load from flapping nodes on and
/// off, exactly like the knob `Hysteresis` policy in `askel-adapt`.
///
/// Shares are **windowed to the last capacity change**: the policy
/// snapshots the per-node busy totals whenever it applies a change and
/// judges each review on the busy time accrued *since* — a freshly
/// added, saturated node is seen at its in-window share (not diluted by
/// the lifetime it spent offline), and a long-retired node's stale
/// history cannot mask a hot node below the high-water mark. (The
/// [`Offload`] rule reads the raw cumulative shares.)
///
/// The policy is driven at explicit review points (typically the same
/// stream safe points that drive a `Reconfigurator`) and never touches
/// the cluster itself: [`review`](ProvisioningPolicy::review) returns the
/// new capacity for the caller to apply through its engine's LP channel
/// (`SimLpControl::request`) — symmetric to how the
/// WCT controller actuates. Every change is logged as a
/// [`ProvisionRecord`] (the most recent 1 024 are kept) and, when wired via
/// [`announce_via`](ProvisioningPolicy::announce_via), announced as an
/// `(After, Reconfigured)` event — the same vocabulary as the tree
/// rewrites.
pub struct ProvisioningPolicy {
    high_water: f64,
    low_water: f64,
    cooldown_points: usize,
    review_points: usize,
    last_change: Option<usize>,
    /// Per-node busy totals at the last applied change (`None` until
    /// one): the start of the current observation window.
    window_start: Option<Vec<TimeNs>>,
    version: u64,
    /// The last [`PROVISION_LOG_CAPACITY`] records, oldest first.
    log: VecDeque<ProvisionRecord>,
    announce: Option<ProvisionAnnounce>,
}

/// How many [`ProvisionRecord`]s a policy keeps: the most recent this
/// many. A review component keeps reviewing for as long as work is in
/// flight, and a load that flaps the tail block adds a record per review.
const PROVISION_LOG_CAPACITY: usize = 1 << 10;

struct ProvisionAnnounce {
    registry: Arc<askel_events::ListenerRegistry>,
    subject: askel_skeletons::NodeId,
    kind: askel_skeletons::KindTag,
}

impl ProvisioningPolicy {
    /// A policy with the given busy-share water marks (clamped to
    /// `[0, 1]`, `low ≤ high`) and no cooldown.
    pub fn new(high_water: f64, low_water: f64) -> Self {
        let high_water = high_water.clamp(0.0, 1.0);
        ProvisioningPolicy {
            high_water,
            low_water: low_water.clamp(0.0, high_water),
            cooldown_points: 0,
            review_points: 0,
            last_change: None,
            window_start: None,
            version: 0,
            log: VecDeque::new(),
            announce: None,
        }
    }

    /// Minimum review points between two capacity changes.
    pub fn cooldown(mut self, points: usize) -> Self {
        self.cooldown_points = points;
        self
    }

    /// Announces every applied change as an `(After, Reconfigured)` event
    /// through `registry`, attributed to the skeleton node `subject` of
    /// kind `kind` (typically the supervised program's root) — symmetric
    /// to the `Reconfigurator`'s tree-rewrite events.
    pub fn announce_via(
        mut self,
        registry: Arc<askel_events::ListenerRegistry>,
        subject: askel_skeletons::NodeId,
        kind: askel_skeletons::KindTag,
    ) -> Self {
        self.announce = Some(ProvisionAnnounce {
            registry,
            subject,
            kind,
        });
        self
    }

    /// The most recent 1 024 applied provisioning changes, oldest first.
    pub fn log(&self) -> Vec<ProvisionRecord> {
        self.log.iter().cloned().collect()
    }

    /// Number of applied changes so far (the log may hold fewer).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// One review point: decides from the cluster's live busy shares
    /// whether to bring the next offline node online or retire the last
    /// online one. Returns the new total capacity for the caller to apply
    /// (`None` = hold). Deterministic: same telemetry, same decision.
    pub fn review(&mut self, telemetry: &ClusterTelemetry, now: TimeNs) -> Option<usize> {
        self.review_points += 1;
        if let Some(last) = self.last_change {
            if self.review_points.saturating_sub(last) < self.cooldown_points {
                return None;
            }
        }
        // Window the shares to the busy time accrued since the last
        // applied change (before the first change, since construction).
        let busy = telemetry.busy_per_node();
        let delta: Vec<f64> = match &self.window_start {
            Some(start) => busy
                .iter()
                .zip(start)
                .map(|(b, s)| b.saturating_sub(*s).as_secs_f64())
                .collect(),
            None => busy.iter().map(|b| b.as_secs_f64()).collect(),
        };
        let total: f64 = delta.iter().sum();
        if total <= 0.0 {
            return None; // nothing observed in this window yet
        }
        let shares: Vec<f64> = delta.iter().map(|d| d / total).collect();
        let enabled = telemetry.enabled_per_node();
        let slots = telemetry.slots_per_node();
        let names = telemetry.names();

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
                let new_capacity: usize = slots[..=i].iter().sum();
                self.apply(
                    now,
                    names[i].clone(),
                    ProvisionAction::Add,
                    new_capacity,
                    format!(
                        "hottest enabled node at {:.0}% of windowed busy time >= {:.0}% \
                         high water; bringing `{}` online ({} slots)",
                        hottest * 100.0,
                        self.high_water * 100.0,
                        names[i],
                        slots[i]
                    ),
                    busy,
                );
                return Some(new_capacity);
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
            self.apply(
                now,
                names[last].clone(),
                ProvisionAction::Retire,
                new_capacity,
                format!(
                    "`{}` at {:.0}% of windowed busy time <= {:.0}% low water; \
                     retiring its {} slot(s)",
                    names[last],
                    shares[last] * 100.0,
                    self.low_water * 100.0,
                    slots[last]
                ),
                busy,
            );
            return Some(new_capacity);
        }
        None
    }

    fn apply(
        &mut self,
        now: TimeNs,
        node: String,
        action: ProvisionAction,
        capacity: usize,
        why: String,
        busy_now: Vec<TimeNs>,
    ) {
        self.version += 1;
        self.last_change = Some(self.review_points);
        // Start a fresh observation window at every applied change.
        self.window_start = Some(busy_now);
        if let Some(announce) = &self.announce {
            let event = Event::reconfigured(announce.subject, announce.kind, self.version, now);
            announce.registry.emit(&mut Payload::None, &event);
        }
        if self.log.len() == PROVISION_LOG_CAPACITY {
            self.log.pop_front();
        }
        self.log.push_back(ProvisionRecord {
            at: now,
            version: self.version,
            node,
            action,
            capacity,
            why,
        });
    }
}

/// A [`ProvisioningPolicy`] mounted as a discrete-event scheduler
/// [`Component`]: review points fire on **virtual time** instead of being
/// hand-called between stream items, and an accepted decision actuates
/// through the scheduler's LP channel ([`Command::RequestLp`]) — the same
/// path an external controller uses. Review ticks only occur while the
/// simulated machine has work in flight, so an idle cluster is never
/// reviewed (and costs nothing to simulate).
///
/// The policy lives behind a shared handle ([`policy`]) so tests and
/// callers can read its [`ProvisioningPolicy::log`] after (or during) the
/// run.
///
/// [`policy`]: ProvisioningReview::policy
pub struct ProvisioningReview {
    policy: Arc<Mutex<ProvisioningPolicy>>,
    telemetry: ClusterTelemetry,
    every: TimeNs,
    next: Option<TimeNs>,
}

impl ProvisioningReview {
    /// Reviews `policy` against `telemetry` every `every` of virtual
    /// time, starting one interval after the simulation first needs a
    /// tick time.
    pub fn new(policy: ProvisioningPolicy, telemetry: ClusterTelemetry, every: TimeNs) -> Self {
        ProvisioningReview {
            policy: Arc::new(Mutex::new(policy)),
            telemetry,
            every,
            next: None,
        }
    }

    /// Shared handle onto the wrapped policy (decision log, version).
    pub fn policy(&self) -> Arc<Mutex<ProvisioningPolicy>> {
        Arc::clone(&self.policy)
    }
}

impl Component for ProvisioningReview {
    fn next_tick(&self, now: TimeNs) -> Option<TimeNs> {
        Some(self.next.unwrap_or(TimeNs(now.0 + self.every.0.max(1))))
    }

    fn tick(&mut self, now: TimeNs) -> Vec<Command> {
        self.next = Some(TimeNs(now.0 + self.every.0.max(1)));
        let mut policy = self.policy.lock().expect("provisioning policy poisoned");
        policy
            .review(&self.telemetry, now)
            .map(Command::RequestLp)
            .into_iter()
            .collect()
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

    #[test]
    fn provisioning_adds_and_retires_tail_nodes_with_cooldown() {
        let c = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 3, TimeNs::from_millis(10)),
        ])
        .with_capacity(1);
        let t = c.telemetry();
        let mut policy = ProvisioningPolicy::new(0.8, 0.1).cooldown(3);

        // Nothing observed: hold.
        assert_eq!(policy.review(&t, TimeNs::from_secs(1)), None);

        // All busy time on the edge: over the high-water mark → add hub.
        t.add(0, TimeNs::from_secs(10));
        let cap = policy.review(&t, TimeNs::from_secs(2));
        assert_eq!(cap, Some(4), "edge block (1) + hub block (3)");
        t.set_enabled(vec![1, 3]); // the caller applied it (via its LP request)

        // Still skewed, but everything is online → hold; and the next
        // review is inside the cooldown anyway.
        assert_eq!(policy.review(&t, TimeNs::from_secs(3)), None);

        // Load continues on the edge while the hub stays idle: once the
        // cooldown elapses the hub is retired (windowed shares — the
        // post-add window must see traffic to judge).
        t.add(0, TimeNs::from_secs(5));
        assert_eq!(policy.review(&t, TimeNs::from_secs(4)), None, "cooldown");
        let cap = policy.review(&t, TimeNs::from_secs(5));
        assert_eq!(cap, Some(1), "hub retired, back to the edge block");

        let log = policy.log();
        assert_eq!(log.len(), 2);
        assert_eq!(
            (log[0].action, log[0].node.as_str()),
            (ProvisionAction::Add, "hub")
        );
        assert_eq!(log[0].capacity, 4);
        assert_eq!(
            (log[1].action, log[1].node.as_str()),
            (ProvisionAction::Retire, "hub")
        );
        assert_eq!(log[1].capacity, 1);
        assert_eq!(policy.version(), 2);
        assert!(log.iter().all(|r| !r.why.is_empty()));
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
        let mut policy = ProvisioningPolicy::new(0.8, 0.1).cooldown(1);
        t.add(0, TimeNs::from_secs(100)); // long edge-only history
        assert_eq!(policy.review(&t, TimeNs::from_secs(1)), Some(4), "add hub");
        t.set_enabled(vec![1, 3]);
        // The hub now runs saturated; the edge is idle. In-window share:
        // hub 8s / 8s = 100%, edge 0% — lifetime share would be ~7%.
        t.add(1, TimeNs::from_secs(8));
        assert_eq!(
            policy.review(&t, TimeNs::from_secs(2)),
            None,
            "a saturated fresh node is not retired (no add possible either)"
        );
        assert_eq!(policy.log().len(), 1, "no flap: {:?}", policy.log());
    }

    #[test]
    fn provisioning_never_retires_the_first_node_or_goes_below_min() {
        let c = Cluster::new(vec![NodeSpec::local("only", 2)]);
        let t = c.telemetry();
        let mut policy = ProvisioningPolicy::new(0.9, 0.5);
        t.add(0, TimeNs::from_millis(1));
        // Share of "only" is 1.0 ≥ high water but there is nothing to
        // add; and it is the first node, so it can never be retired.
        assert_eq!(policy.review(&t, TimeNs::ZERO), None);
        assert!(policy.log().is_empty());
    }

    #[test]
    fn a_tail_block_flapping_at_every_review_leaves_a_bounded_log() {
        let c = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 1, TimeNs::ZERO),
        ])
        .with_capacity(1);
        let t = c.telemetry();
        // No cooldown, and all load on the edge: the hub is added, then
        // retired at the next review (idle in its window), and so on.
        let mut policy = ProvisioningPolicy::new(0.5, 0.0);
        let n = PROVISION_LOG_CAPACITY as u64;
        for s in 1..=3 * n {
            t.add(0, TimeNs::from_secs(1));
            let cap = policy.review(&t, TimeNs::from_secs(s)).expect("flaps");
            t.set_enabled(vec![1, cap - 1]);
        }
        assert_eq!(policy.version(), 3 * n);
        let log = policy.log();
        assert_eq!(log.len(), PROVISION_LOG_CAPACITY);
        assert_eq!(log[0].version, 2 * n + 1, "the oldest records went");
        assert!(log.windows(2).all(|w| w[0].version + 1 == w[1].version));
        assert_eq!(log.last().unwrap().at, TimeNs::from_secs(3 * n));
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
    fn provisioning_review_ticks_one_interval_after_now() {
        let t = two_node().telemetry();
        let mut review = ProvisioningReview::new(ProvisioningPolicy::new(0.8, 0.1), t, TimeNs(10));
        let mut now = TimeNs::ZERO;
        let mut ticks = Vec::new();
        for _ in 0..3 {
            let at = review.next_tick(now).unwrap();
            assert!(at > now, "tick must be strictly in the future");
            now = at;
            review.tick(now);
            ticks.push(now);
        }
        assert_eq!(ticks, vec![TimeNs(10), TimeNs(20), TimeNs(30)]);
    }

    #[test]
    fn a_zero_review_interval_still_terminates() {
        let t = two_node().telemetry();
        let mut review =
            ProvisioningReview::new(ProvisioningPolicy::new(0.8, 0.1), t, TimeNs::ZERO);
        let at = review.next_tick(TimeNs(5)).unwrap();
        assert!(at > TimeNs(5));
        review.tick(at);
        assert!(review.next_tick(at).unwrap() > at);
    }

    #[test]
    fn provisioning_review_component_grows_the_cluster_mid_stream() {
        use askel_sim::cost::TableCost;
        use askel_sim::SimEngine;
        use askel_skeletons::seq;

        // One hot edge slot, a hub that can come online: the component
        // reviews every virtual second while items stream and must add
        // the hub without any hand-called review points.
        let cluster = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 3, TimeNs::ZERO),
        ])
        .with_capacity(1);
        let telemetry = cluster.telemetry();
        let policy = ProvisioningPolicy::new(0.5, 0.0);
        let review = ProvisioningReview::new(policy, telemetry.clone(), TimeNs::from_secs(1));
        let handle = review.policy();
        let mut components: Vec<Box<dyn Component>> = vec![Box::new(review)];

        let program = seq(|x: i64| x + 1);
        let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
        let mut sim = SimEngine::with_workers(Box::new(cluster), cost);
        let mut results = Vec::new();
        let report = sim.run_stream(
            4,
            |i| (i < 12).then(|| (program.clone(), i as i64)),
            |_i, r| results.push(r.unwrap()),
            &mut components,
        );
        assert_eq!(results.len(), 12);
        assert_eq!(report.items, 12);
        assert!(report.events > 0);
        let log = handle.lock().unwrap();
        assert!(
            log.log()
                .iter()
                .any(|r| r.action == ProvisionAction::Add && r.node == "hub"),
            "the review component must bring the hub online: {:?}",
            log.log()
        );
        assert_eq!(telemetry.capacity(), 4, "capacity actuated via RequestLp");
    }

    #[test]
    fn provisioning_announces_reconfigured_events() {
        use askel_events::{Event, FnListener, Payload, Where};
        use askel_skeletons::KindTag;
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
        let subject = askel_skeletons::NodeId(7);
        let mut policy = ProvisioningPolicy::new(0.5, 0.0).announce_via(
            Arc::clone(&registry),
            subject,
            KindTag::Map,
        );
        t.add(0, TimeNs::from_secs(1));
        assert_eq!(policy.review(&t, TimeNs::from_secs(1)), Some(2));
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }
}
