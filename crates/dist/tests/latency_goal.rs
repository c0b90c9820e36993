//! The same centralised controller holds one WCT goal on a two-node
//! cluster whatever the remote round-trip costs: the slower the link, the
//! more remote workers it allocates.

use std::sync::Arc;

use askel_core::{AutonomicController, ControllerConfig, FnActuator};
use askel_dist::{Cluster, NodeSpec};
use askel_sim::cost::TableCost;
use askel_sim::SimEngine;
use askel_skeletons::{map, seq, MuscleRole, Skel, TimeNs};

const CHILDREN: usize = 24;
const EXECUTE: TimeNs = TimeNs::from_secs(2);
const OTHER: TimeNs = TimeNs::from_millis(20);
const GOAL: TimeNs = TimeNs::from_secs(10);

/// WCT and peak LP of 24 × 2 s tasks over 2 local + 22 remote slots,
/// started at LP 1 with initialised estimates.
fn run_at(round_trip: TimeNs) -> (TimeNs, usize) {
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0]),
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    let muscles = program.node().collect_muscles();
    let duration = |role| match role {
        MuscleRole::Execute => EXECUTE,
        _ => OTHER,
    };
    let mut cost = TableCost::new(OTHER);
    for m in &muscles {
        cost.set(m.id, duration(m.id.role));
    }
    let cluster = Cluster::new(vec![
        NodeSpec::local("master", 2),
        NodeSpec::remote("remote", 22, round_trip),
    ])
    .with_capacity(1);
    let mut sim = SimEngine::with_workers(Box::new(cluster), Arc::new(cost));
    let lp = sim.lp_control();
    let controller = AutonomicController::new(
        program.node().clone(),
        ControllerConfig::new(GOAL, 24).initial_lp(1),
        Arc::new(FnActuator(move |n| lp.request(n))),
    );
    controller.knowledge().with_estimates(|est| {
        for m in &muscles {
            est.init_duration(m.id, duration(m.id.role));
            if m.id.role == MuscleRole::Split {
                est.init_cardinality(m.id, CHILDREN as f64);
            }
        }
    });
    sim.registry().add_listener(controller.clone());
    let out = sim
        .run(&program, (1..=CHILDREN as i64).collect())
        .expect("dist run failed");
    assert_eq!(out.result, (1..=CHILDREN as i64).sum::<i64>());
    let peak = controller.decisions().iter().map(|d| d.to_lp).max();
    (out.wct, peak.unwrap_or(1))
}

#[test]
fn the_goal_holds_at_every_round_trip_latency() {
    let mut peaks = Vec::new();
    for rt_ms in [0, 200, 500, 1_000] {
        let (wct, peak) = run_at(TimeNs::from_millis(rt_ms));
        assert!(wct <= GOAL, "goal missed at round-trip {rt_ms}ms: {wct}");
        peaks.push(peak);
    }
    assert!(
        peaks.windows(2).all(|w| w[0] <= w[1]) && peaks[0] < peaks[3],
        "a slower link should cost more workers, got peaks {peaks:?}"
    );
}
