//! The skewed-cluster acceptance scenario: an oscillating load on a
//! one-slot `edge` node while a faster four-slot `hub` sits dark, with a
//! hysteresis-damped [`RetuneGrain`], an [`Offload`] and a
//! [`ProvisioningPolicy`] watching the same telemetry — three rules of
//! one trigger engine, arbitrated and logged together. Built here once
//! for `tests/adaptive.rs` (acceptance + replay), `tests/fuzz_ordering.rs`
//! (the same under every ordering seed), `tests/arbitration.rs` (a
//! `CostGuard` holding the hub dark) and `examples/offload_cluster.rs`
//! (the narrated run); each keeps only its own assertions and printing.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use askel_adapt::{
    AdaptRecord, ConflictPolicy, CostGuard, Hysteresis, Knob, NodeHoursMeter, RetuneGrain,
    TriggerEngine,
};
use askel_dist::{sim_session, Cluster, ClusterTelemetry, NodeSpec, Offload, ProvisioningPolicy};
use askel_sim::cost::{LinearCost, PerMuscleCost, TableCost};
use askel_sim::{OrderingPolicy, SimEngine};
use askel_skeletons::{MuscleId, MuscleRole, TimeNs};
use askel_workloads::{GrainedSquareSum, OscillatingLoad};

/// The grain knob's starting value.
const INITIAL_GRAIN: usize = 32;

/// Safe points the grain rule's hysteresis holds a direction for.
const COOLDOWN: usize = 4;

/// What one run of the scenario leaves behind.
pub struct SkewedRun {
    /// The 18 oscillating items fed, in order.
    pub inputs: Vec<Vec<i64>>,
    /// Their results, in order.
    pub outputs: Vec<i64>,
    /// `(item index, grain after its safe point)` for every item whose
    /// safe point moved the grain knob.
    pub grain_trace: Vec<(usize, usize)>,
    /// `(item index, capacity after its safe point)` for every item
    /// whose safe point moved the capacity knob.
    pub capacity_trace: Vec<(usize, usize)>,
    /// The trigger engine's decision log: grain retunes, the offload and
    /// provisioning alike.
    pub decisions: Vec<AdaptRecord>,
    /// The cluster's telemetry handle (per-node busy time, names).
    pub telemetry: ClusterTelemetry,
}

/// Runs the scenario in lock-step — one item in flight, so each safe
/// point sees every result before it — with same-instant scheduler ties
/// ordered by `ordering`.
pub fn run_skewed_cluster(ordering: OrderingPolicy) -> SkewedRun {
    run(ordering, None)
}

/// The same scenario with a [`CostGuard`] over the capacity knob
/// (economy 1 slot, `budget` of node-time; its meter is never fed, so
/// only a zero budget counts as spent), every safe point's fires
/// resolved under `conflict`.
pub fn run_skewed_cluster_guarded(
    ordering: OrderingPolicy,
    conflict: ConflictPolicy,
    budget: TimeNs,
) -> SkewedRun {
    run(ordering, Some((conflict, budget)))
}

fn run(ordering: OrderingPolicy, guard: Option<(ConflictPolicy, TimeNs)>) -> SkewedRun {
    let scenario = GrainedSquareSum::new(INITIAL_GRAIN);
    let inputs = OscillatingLoad::new(4, 160, 3).inputs(18);

    // Leaf cost ∝ chunk length (1 ms per element); everything else 1 ms.
    let leaf = MuscleId::new(
        scenario.program.node().children()[0].id,
        MuscleRole::Execute,
    );
    let cost = PerMuscleCost::new(Arc::new(TableCost::new(TimeNs::from_millis(1)))).route(
        leaf,
        Arc::new(
            LinearCost::new(TimeNs::ZERO, TimeNs::from_millis(1))
                .with_probe(|p| p.downcast_ref::<Vec<i64>>().map(Vec::len)),
        ),
    );
    let cluster = Cluster::new(vec![
        NodeSpec::local("edge", 1),
        NodeSpec::remote("hub", 4, TimeNs::from_millis(2)).with_speed(2.0),
    ])
    .with_capacity(1);
    let telemetry = cluster.telemetry();
    let sim = SimEngine::with_workers(Box::new(cluster), Arc::new(cost)).ordering(ordering);
    let capacity = Knob::from_shared("capacity", sim.lp_control().cell());

    let trigger = TriggerEngine::new(0.5);
    sim.registry().add_listener(trigger.clone());
    trigger.add_rule(
        RetuneGrain::new(
            Knob::from_shared("grain", Arc::clone(&scenario.grain)),
            leaf,
            TimeNs::from_millis(10),
        )
        .bounds(4, 256)
        .hysteresis(Hysteresis::new(COOLDOWN, 0.2)),
    );
    trigger.add_rule(Offload::new(
        &scenario.program,
        "hub",
        telemetry.clone(),
        0.7,
        0.2,
    ));
    trigger.add_rule(
        ProvisioningPolicy::new(telemetry.clone(), capacity.clone(), 0.8, 0.0).cooldown(3),
    );
    let mut conflict = ConflictPolicy::default();
    if let Some((policy, budget)) = guard {
        conflict = policy;
        trigger.add_rule(CostGuard::knob(
            NodeHoursMeter::new(),
            budget,
            capacity.clone(),
            1,
        ));
    }
    let mut session =
        sim_session(sim, &scenario.program, trigger.clone()).conflict_policy(conflict);

    // Lock-step: the safe point runs inside `feed`, before the
    // submission, so a knob it moves holds from this item on.
    let mut outputs = Vec::new();
    let mut grain_trace = Vec::new();
    let mut capacity_trace = Vec::new();
    for (k, input) in inputs.iter().enumerate() {
        let grain = scenario.grain.load(Ordering::SeqCst);
        let slots = capacity.get();
        session.feed(input.clone());
        let (grain_now, slots_now) = (scenario.grain.load(Ordering::SeqCst), capacity.get());
        if grain_now != grain {
            grain_trace.push((k, grain_now));
        }
        if slots_now != slots {
            capacity_trace.push((k, slots_now));
        }
        let out = session.next_result().expect("one item in flight");
        outputs.push(out.expect("sim run"));
    }
    SkewedRun {
        inputs,
        outputs,
        grain_trace,
        capacity_trace,
        decisions: trigger.decision_log(),
        telemetry,
    }
}

impl SkewedRun {
    /// `(at, version, rule)` per decision: what a replay must reproduce.
    /// Action strings stay out because they embed process-global fresh
    /// `NodeId`s.
    pub fn decision_keys(&self) -> Vec<(TimeNs, u64, String)> {
        self.decisions
            .iter()
            .map(|d| (d.at, d.version, d.rule.clone()))
            .collect()
    }

    /// The invariants no schedule may break: every result equals the
    /// sequential reference, and the damped grain knob never reverses
    /// direction inside its cooldown window (safe points = items here).
    /// `context` ends each failure message.
    pub fn check_invariants(&self, context: &str) {
        for (k, input) in self.inputs.iter().enumerate() {
            assert_eq!(
                self.outputs[k],
                GrainedSquareSum::reference(input),
                "item {k} diverged{context}"
            );
        }
        let mut prev: Option<(usize, i64)> = None; // (item, direction)
        let mut grain = INITIAL_GRAIN as i64;
        for &(item, value) in &self.grain_trace {
            let dir = (value as i64 - grain).signum();
            if let Some((last_item, last_dir)) = prev {
                assert!(
                    dir == last_dir || item - last_item >= COOLDOWN,
                    "grain reversed after {} items (cooldown {COOLDOWN}): {:?}{context}",
                    item - last_item,
                    self.grain_trace,
                );
            }
            prev = Some((item, dir));
            grain = value as i64;
        }
    }
}
