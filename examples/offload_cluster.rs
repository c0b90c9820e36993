//! Predictive, cluster-aware adaptation end to end: an oscillating load
//! on a skewed two-node cluster.
//!
//! The stream's item sizes flip between a low and a high phase (the
//! adversarial input for knob rules), and the cluster is skewed: a
//! one-slot `edge` node does all the work while a faster four-slot `hub`
//! sits dark. Three autonomic mechanisms fire, all audited:
//!
//! 1. **provisioning** — `ProvisioningPolicy` sees the edge's busy share
//!    cross its high-water mark and brings the hub's slot block online
//!    (announced as an `(After, Reconfigured)` event, applied through the
//!    simulator's LP channel — the paper's "adding workers like adding
//!    threads");
//! 2. **offload** — the `Offload` rule sees the same skew in
//!    `ClusterTelemetry` and re-places the map subtree onto the hub
//!    (`Skel::placed_at`, a deep placement annotation the simulator's
//!    scheduler honours);
//! 3. **grain retune, damped** — the oscillating load swings the leaf
//!    duration EWMA across the `RetuneGrain` band; its `Hysteresis`
//!    (cooldown + dead band) keeps the knob from flapping A→B→A.
//!
//! Run with: `cargo run --example offload_cluster`

use std::sync::Arc;

use autonomic_skeletons::prelude::*;
use autonomic_skeletons::skeletons::KindTag;
use autonomic_skeletons::workloads::{GrainedSquareSum, OscillatingLoad};

fn main() {
    let scenario = GrainedSquareSum::new(32);
    let load = OscillatingLoad::new(4, 160, 3);
    let items = load.inputs(18);

    // Leaf cost ∝ chunk length (1ms/element); everything else 1ms.
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

    // The skewed cluster: 1 edge slot online, a faster 4-slot hub dark.
    let cluster = Cluster::new(vec![
        NodeSpec::local("edge", 1),
        NodeSpec::remote("hub", 4, TimeNs::from_millis(2)).with_speed(2.0),
    ])
    .with_capacity(1);
    let telemetry = cluster.telemetry();
    let sim = SimEngine::with_workers(Box::new(cluster), Arc::new(cost));

    // Self-configuration: grain retune (damped) + offload.
    let trigger = TriggerEngine::new(0.5);
    sim.registry().add_listener(trigger.clone());
    trigger.add_rule(
        RetuneGrain::new(
            Knob::from_shared("grain", Arc::clone(&scenario.grain)),
            leaf,
            TimeNs::from_millis(10),
        )
        .bounds(4, 256)
        .hysteresis(Hysteresis::new(4, 0.2)),
    );
    trigger
        .add_rule(Offload::new(&scenario.program, "hub", telemetry.clone()).water_marks(0.7, 0.2));
    // Dynamic node provisioning from the same telemetry.
    let mut policy = ProvisioningPolicy::new(0.8, 0.0).cooldown(3).announce_via(
        Arc::clone(sim.registry()),
        scenario.program.id(),
        KindTag::Map,
    );

    // The adaptive session over the simulator — the same `feed` the
    // threaded `AdaptiveSession` runs, in virtual time.
    let clock = sim.clock().clone();
    let lp_view = telemetry.clone();
    let mut session = AdaptiveSimSession::new(sim, &scenario.program, trigger.clone())
        .lp_source(move || lp_view.capacity().max(1));
    println!(
        "feeding {} oscillating items through the cluster:",
        items.len()
    );
    // Lock-step, so the provisioning review sits between items.
    for (k, input) in items.iter().enumerate() {
        session.feed(input.clone());
        let out = session.next_result().expect("one item in flight");
        assert_eq!(
            out.expect("sim run"),
            GrainedSquareSum::reference(input),
            "item {k} diverged from the sequential reference"
        );
        if let Some(capacity) = policy.review(&telemetry, clock.now()) {
            session.sim_mut().set_lp(capacity);
        }
    }

    println!("provisioning log:");
    for r in policy.log() {
        println!(
            "  t={:>6.3}s  {:?} `{}` -> capacity {} — {}",
            r.at.as_secs_f64(),
            r.action,
            r.node,
            r.capacity,
            r.why
        );
    }
    println!("adaptation decision log:");
    for d in trigger.decision_log() {
        println!(
            "  t={:>6.3}s  v{} by `{}`: {} — {}",
            d.at.as_secs_f64(),
            d.version,
            d.rule,
            d.action,
            d.why
        );
    }
    let busy = telemetry.busy_per_node();
    for (name, busy) in telemetry.names().iter().zip(&busy) {
        println!("  {name:<6} {:.3}s busy", busy.as_secs_f64());
    }

    let log = trigger.decision_log();
    let offloads = log.iter().filter(|d| d.rule == "offload").count();
    assert_eq!(offloads, 1, "exactly one audited offload: {log:?}");
    assert!(
        policy
            .log()
            .iter()
            .any(|r| r.action == ProvisionAction::Add && r.node == "hub"),
        "provisioning brought the hub online"
    );
    assert!(busy[1] > TimeNs::ZERO, "offloaded work ran on the hub");
    assert!(
        log.iter().any(|d| d.rule == "grain-retune"),
        "the grain knob moved at least once"
    );
    println!("offloaded, provisioned, damped — results identical to the reference");
}
