//! The cluster's side of self-configuration: the [`Offload`] rule, which
//! decides from the same [`ClusterTelemetry`] as the
//! [`ProvisioningPolicy`](crate::ProvisioningPolicy) rule, and the
//! adaptive session over the simulator that honours their decisions.

use std::sync::Arc;

use parking_lot::Mutex;

use askel_adapt::{Adaptive, RewriteAction, Rule, RuleCtx, RuleFire, TriggerEngine};
use askel_sim::{SimEngine, SimStream};
use askel_skeletons::{Node, NodeId, Skel};

use crate::ClusterTelemetry;

/// Moves a subtree's **placement** onto an underloaded worker node — the
/// cluster-aware rule: when the busiest *other* node's share of the
/// cluster's busy time crosses the high-water mark while the destination
/// node sits at or under the low-water mark, the subtree (typically a
/// map/d&C fan-out) is re-placed onto the destination
/// ([`RewriteAction::Place`] → `Skel::placed_at`, a deep placement
/// annotation flowing through `SimEngine::with_workers`). Placement
/// never changes results (property-tested), and only the simulator
/// honours it: the threaded engine runs a placed subtree anywhere.
///
/// The rule is **self-gating rather than once-firing**: while its
/// subtree already sits on the destination it stays quiet, and when a
/// later rewrite undoes the placement (e.g. a `FallbackSwap` replacing
/// the placed subtree with an unplaced fallback) it re-arms
/// automatically — the rule follows its subtree through applied
/// replacements ([`Rule::on_replaced`] retargets it at the
/// replacement), so an offload-back does not leave the cluster
/// permanently unbalanced with a dead rule.
///
/// Reads the same [`ClusterTelemetry`] view that drives
/// [`ProvisioningPolicy`](crate::ProvisioningPolicy), so offloading and
/// node provisioning decide from one picture of the cluster. The
/// destination need not be enabled yet: a placement naming an offline
/// node falls back to running anywhere until provisioning brings the
/// node online.
pub struct Offload {
    /// Interior-mutable: retargeted by [`Rule::on_replaced`] when an
    /// applied rewrite replaces the watched subtree.
    target: Mutex<NodeId>,
    to_node: String,
    telemetry: ClusterTelemetry,
    high_water: f64,
    low_water: f64,
}

impl Offload {
    /// An offload of the subtree `target` onto the cluster node
    /// `to_node`, judged from `telemetry`'s busy shares, with default
    /// water marks `high = 0.75`, `low = 0.25`.
    pub fn new<P, R>(
        target: &Skel<P, R>,
        to_node: impl Into<String>,
        telemetry: ClusterTelemetry,
    ) -> Self
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        Offload {
            target: Mutex::new(target.id()),
            to_node: to_node.into(),
            telemetry,
            high_water: 0.75,
            low_water: 0.25,
        }
    }

    /// Sets the busy-share water marks (clamped to `[0, 1]`,
    /// `low ≤ high`).
    pub fn water_marks(mut self, high: f64, low: f64) -> Self {
        self.high_water = high.clamp(0.0, 1.0);
        self.low_water = low.clamp(0.0, self.high_water);
        self
    }
}

impl Rule for Offload {
    fn name(&self) -> &str {
        "offload"
    }

    fn on_replaced(&self, target: NodeId, replacement: &Arc<Node>) {
        let mut t = self.target.lock();
        if *t == target {
            // Follow the subtree: the offload concern is positional, so
            // whatever now stands where the watched subtree stood
            // inherits the watch. If the replacement arrives unplaced
            // (a fallback undoing the offload), the placement gate
            // re-opens and the rule is live again.
            *t = replacement.id;
        }
    }

    fn evaluate(&self, ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        let target = *self.target.lock();
        // The target may have been rewritten away — or already placed.
        let subtree = ctx.root.find(target)?;
        if subtree.placement.as_deref() == Some(self.to_node.as_str()) {
            return None;
        }
        let dest = self.telemetry.node_index(&self.to_node)?;
        let shares = self.telemetry.busy_share();
        let dest_share = *shares.get(dest)?;
        let (hot, hot_share) = shares
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| *i != dest)
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        if hot_share < self.high_water || dest_share > self.low_water {
            return None;
        }
        let names = self.telemetry.names();
        let why = format!(
            "`{}` at {:.0}% of cluster busy time >= {:.0}% high water, `{}` at {:.0}% <= {:.0}% low water",
            names[hot],
            hot_share * 100.0,
            self.high_water * 100.0,
            self.to_node,
            dest_share * 100.0,
            self.low_water * 100.0,
        );
        Some(RuleFire::new(
            RewriteAction::Place {
                target,
                node: self.to_node.clone(),
            },
            why,
        ))
    }
}

/// `askel_adapt`'s [`Adaptive`] session over the discrete-event simulator
/// (an `askel_sim` [`SimStream`]): virtual time, so every decision —
/// timestamps included — replays deterministically, and under
/// `OrderingPolicy::SeededRandom` the fuzz suite runs the `feed` that
/// ships. Built by [`sim_session`].
pub type AdaptiveSimSession<P, R> = Adaptive<SimStream<P, R>>;

/// A session streaming `skel` through `sim`, adapted by `trigger`'s rules.
/// Lock-step: one item in flight at a time, so every safe point sees the
/// outcome of every item before it — the strongest safe-point guarantee.
/// Safe points read the simulator's registry, virtual clock and LP
/// ([`SimEngine::lp`]: the worker model's current capacity), so a width
/// rule scales to the machine it runs on. Registering the trigger as a
/// listener on `sim.registry()` stays the caller's choice, exactly as
/// with the threaded `AdaptiveSession`.
pub fn sim_session<P, R>(
    sim: SimEngine,
    skel: &Skel<P, R>,
    trigger: Arc<TriggerEngine>,
) -> AdaptiveSimSession<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    Adaptive::over(SimStream::new(sim, skel), trigger).max_in_flight(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, NodeSpec};
    use askel_adapt::ErrorStats;
    use askel_core::EstimatorTable;
    use askel_skeletons::{seq, TimeNs};

    fn ctx_with<'a>(
        estimates: &'a EstimatorTable,
        errors: &'a ErrorStats,
        root: &'a Arc<Node>,
        lp: usize,
        input_size: Option<f64>,
    ) -> RuleCtx<'a> {
        RuleCtx {
            estimates,
            errors,
            input_size,
            root,
            version: 0,
            lp,
            safe_point: 1,
        }
    }

    #[test]
    fn offload_fires_on_skew_and_respects_placement() {
        let target: Skel<Vec<i64>, Vec<i64>> = seq(|v: Vec<i64>| v);
        let cluster = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 4, TimeNs::ZERO),
        ]);
        let telemetry = cluster.telemetry();
        let rule = Offload::new(&target, "hub", telemetry.clone()).water_marks(0.8, 0.2);
        let est = EstimatorTable::new(0.5);
        let errors = ErrorStats::default();
        let root = Arc::clone(target.node());

        // Balanced (nothing observed): quiet.
        assert!(rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .is_none());
        // Skewed: everything on the edge → fires.
        let mut c = cluster;
        use askel_sim::workers::WorkerModel;
        c.note_busy(0, TimeNs::from_secs(9));
        let fire = rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .expect("skew crossed the water marks");
        match &fire.action {
            RewriteAction::Place { target: t, node } => {
                assert_eq!(*t, target.id());
                assert_eq!(node, "hub");
            }
            other => panic!("{other:?}"),
        }
        assert!(fire.why.contains("high water"), "{}", fire.why);
        assert!(!rule.once(), "offload self-gates instead of retiring");
        // Already placed on the destination: quiet even under skew.
        let placed = target.placed_at(target.id(), "hub").unwrap();
        let placed_root = Arc::clone(placed.node());
        assert!(rule
            .evaluate(&ctx_with(&est, &errors, &placed_root, 2, None))
            .is_none());
        // Unknown destination node: quiet.
        let unknown = Offload::new(&target, "nope", telemetry).water_marks(0.8, 0.2);
        assert!(unknown
            .evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .is_none());
    }

    /// Nothing tells the session the machine's width: its safe points
    /// read it from the simulator, so a width rule scales to 3 workers.
    #[test]
    fn a_sim_sessions_rules_read_the_simulators_lp() {
        use askel_adapt::{Knob, RetuneWidth};
        use askel_sim::cost::ZeroCost;

        let width = Knob::new("width", 1);
        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(RetuneWidth::new(width.clone(), 2).bounds(1, 64));
        let sim = SimEngine::new(3, Arc::new(ZeroCost));
        let mut session = sim_session(sim, &seq(|x: i64| x + 1), trigger);
        session.feed(1);
        assert_eq!(width.get(), 6, "3 workers × 2 tasks per worker");
        assert_eq!(session.next_result().unwrap().unwrap(), 2);
    }
}
