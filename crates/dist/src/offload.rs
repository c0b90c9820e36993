//! The cluster's side of self-configuration: the [`Offload`] rule, which
//! decides from the same [`ClusterTelemetry`] as the
//! [`ProvisioningPolicy`](crate::ProvisioningPolicy) rule, and the
//! adaptive session over the simulator that honours their decisions.

use std::sync::Arc;

use askel_adapt::{
    Adaptive, Concern, Governed, Reads, RewriteAction, Rule, RuleCtx, RuleFire, TriggerEngine,
};
use askel_sim::{SimEngine, SimStream};
use askel_skeletons::{Node, NodeId, Skel};

use crate::ClusterTelemetry;

/// Moves a subtree's **placement** onto an underloaded worker node: when
/// the busiest *other* node's share of the cluster's busy time crosses
/// the high-water mark while the destination sits at or under the
/// low-water mark, the subtree is re-placed onto the destination
/// ([`RewriteAction::Place`] → `Skel::placed_at`). Placement never
/// changes results (property-tested), and only the simulator honours it.
///
/// **Self-gating rather than once-firing**: quiet while its subtree sits
/// on the destination, and it follows that subtree through applied
/// replacements ([`Rule::on_replaced`]), so a `FallbackSwap` that undoes
/// the placement re-arms it instead of leaving a dead rule. It reads the
/// same [`ClusterTelemetry`] as
/// [`ProvisioningPolicy`](crate::ProvisioningPolicy); a destination not
/// yet online runs the subtree anywhere until provisioning brings it up.
pub struct Offload {
    /// Retargeted by [`Rule::on_replaced`] when an applied rewrite
    /// replaces the watched subtree.
    target: NodeId,
    to_node: String,
    telemetry: ClusterTelemetry,
    high_water: f64,
    low_water: f64,
}

impl Offload {
    /// An offload of the subtree `target` onto the cluster node
    /// `to_node`, judged from `telemetry`'s busy shares against the
    /// water marks `high` and `low` (clamped to `[0, 1]`, `low ≤ high`).
    pub fn new<P, R>(
        target: &Skel<P, R>,
        to_node: impl Into<String>,
        telemetry: ClusterTelemetry,
        high: f64,
        low: f64,
    ) -> Governed<Self>
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        let high_water = high.clamp(0.0, 1.0);
        let rule = Offload {
            target: target.id(),
            to_node: to_node.into(),
            telemetry,
            high_water,
            low_water: low.clamp(0.0, high_water),
        };
        Governed::new("offload", Concern::Performance, rule)
    }
}

impl Rule for Offload {
    /// Busy shares come from the cluster's telemetry, not from events.
    fn reads(&self) -> Reads {
        Reads::NOTHING
    }

    fn on_replaced(&mut self, target: NodeId, replacement: &Arc<Node>) {
        if self.target == target {
            // Follow the subtree: the offload concern is positional, so
            // whatever now stands where the watched subtree stood
            // inherits the watch. If the replacement arrives unplaced
            // (a fallback undoing the offload), the placement gate
            // re-opens and the rule is live again.
            self.target = replacement.id;
        }
    }

    fn evaluate(&mut self, ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        let target = self.target;
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
    use askel_skeletons::{seq, TimeNs};

    #[test]
    fn offload_fires_on_skew_and_respects_placement() {
        let target: Skel<Vec<i64>, Vec<i64>> = seq(|v: Vec<i64>| v);
        let cluster = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 4, TimeNs::ZERO),
        ]);
        let telemetry = cluster.telemetry();
        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(Offload::new(&target, "hub", telemetry.clone(), 0.8, 0.2));
        let root = Arc::clone(target.node());

        // Balanced (nothing observed): quiet.
        assert!(trigger.plan(&root, 2).is_empty());
        // Skewed: everything on the edge → fires.
        let mut c = cluster;
        use askel_sim::workers::WorkerModel;
        c.note_busy(0, TimeNs::from_secs(9));
        let fire = trigger
            .plan(&root, 2)
            .pop()
            .expect("skew crossed the water marks");
        match &fire.action {
            RewriteAction::Place { target: t, node } => {
                assert_eq!(*t, target.id());
                assert_eq!(node, "hub");
            }
            other => panic!("{other:?}"),
        }
        assert!(fire.why.contains("high water"), "{}", fire.why);
        assert_eq!(
            trigger.plan(&root, 2).len(),
            1,
            "offload self-gates instead of retiring"
        );
        // Already placed on the destination: quiet even under skew.
        let placed = target.placed_at(target.id(), "hub").unwrap();
        let placed_root = Arc::clone(placed.node());
        assert!(trigger.plan(&placed_root, 2).is_empty());
        // Unknown destination node: quiet.
        let unknown = TriggerEngine::new(0.5);
        unknown.add_rule(Offload::new(&target, "nope", telemetry, 0.8, 0.2));
        assert!(unknown.plan(&root, 2).is_empty());
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
