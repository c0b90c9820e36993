//! The paper's future work, realized: the same centralised autonomic
//! controller scaling a *distributed* set of workers — a local master node
//! plus a remote node whose tasks pay a communication round-trip and run
//! on slower hardware (asymmetric node speeds). Per-node utilization is
//! surfaced through the cluster's telemetry handle.
//!
//! Run with: `cargo run --example distributed_cluster`

use std::sync::Arc;

use autonomic_skeletons::dist::{Cluster, NodeSpec};
use autonomic_skeletons::prelude::*;

fn main() {
    // 16 chunks of heavy work (2s each in virtual time).
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] * v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let muscles = program.node().collect_muscles();
    let mut cost = TableCost::new(TimeNs::from_millis(20));
    for m in &muscles {
        if m.id.role == MuscleRole::Execute {
            cost.set(m.id, TimeNs::from_secs(2));
        }
    }

    // A cluster: 2 local slots, plus 12 remote slots at 300ms round-trip
    // running at 80% of the master's speed (asymmetric hardware).
    let cluster = Cluster::new(vec![
        NodeSpec::local("master", 2),
        NodeSpec::remote("worker-node", 12, TimeNs::from_millis(300)).with_speed(0.8),
    ])
    .with_capacity(1);
    let node_names: Vec<String> = cluster.nodes().iter().map(|n| n.name().into()).collect();
    let telemetry = cluster.telemetry();

    let mut sim = SimEngine::with_workers(Box::new(cluster), Arc::new(cost));
    let lp = sim.lp_control();
    let controller = autonomic_skeletons::core::AutonomicController::new(
        program.node().clone(),
        ControllerConfig::new(TimeNs::from_secs(9), 14).initial_lp(1),
        Arc::new(autonomic_skeletons::core::FnActuator(move |n| {
            lp.request(n)
        })),
    );
    controller.knowledge().with_estimates(|est| {
        for m in &muscles {
            let d = if m.id.role == MuscleRole::Execute {
                TimeNs::from_secs(2)
            } else {
                TimeNs::from_millis(20)
            };
            est.init_duration(m.id, d);
            if m.id.role == MuscleRole::Split {
                est.init_cardinality(m.id, 16.0);
            }
        }
    });
    sim.registry().add_listener(controller.clone());

    let out = sim.run(&program, (1..=16).collect()).expect("run failed");
    println!(
        "result {} in {:.2}s (goal 9s; sequential ≈ 32s; remote node at 0.8× speed)",
        out.result,
        out.wct.as_secs_f64()
    );
    println!("controller decisions (workers added/removed centrally):");
    for d in controller.decisions() {
        println!(
            "  t={:>5.2}s  workers {:>2} -> {:<2} ({:?})",
            d.at.as_secs_f64(),
            d.from_lp,
            d.to_lp,
            d.reason
        );
    }
    println!("per-node busy time (scaled durations + round-trips):");
    let busy = telemetry.busy_per_node();
    for (name, busy) in node_names.iter().zip(&busy) {
        println!("  {name:<12} {:.2}s busy", busy.as_secs_f64());
    }
    assert!(out.wct <= TimeNs::from_secs(9));
    assert!(
        busy.iter().all(|b| *b > TimeNs::ZERO),
        "both nodes must have been recruited"
    );
}
