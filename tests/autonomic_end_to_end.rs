//! End-to-end autonomic behaviour — on the *threaded* engine with real
//! sleeping muscles (coarse assertions: this host may have a single core),
//! and on the simulator for the extension kinds (if / fork / d&C) the
//! paper left as future work.

use std::sync::Arc;
use std::time::Duration;

use autonomic_skeletons::prelude::*;
use autonomic_skeletons::{AutonomicEngine, AutonomicSim};

fn sleepy_map(children: usize, per_child: Duration) -> Skel<Vec<i64>, i64> {
    let _ = children;
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(move |v: Vec<i64>| {
            std::thread::sleep(per_child);
            v[0]
        }),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

#[test]
fn threaded_controller_raises_lp_with_real_threads() {
    // 12 children × 30ms = 360ms sequential; goal 150ms forces a raise.
    let program = sleepy_map(12, Duration::from_millis(30));
    let muscles = program.node().collect_muscles();
    let config = ControllerConfig::new(TimeNs::from_millis(150), 8).initial_lp(1);
    let auto = AutonomicEngine::new(program, config);
    auto.controller().knowledge().with_estimates(|est| {
        for d in &muscles {
            let dur = match d.id.role {
                MuscleRole::Execute => TimeNs::from_millis(30),
                _ => TimeNs::from_millis(1),
            };
            est.init_duration(d.id, dur);
            if d.id.role == MuscleRole::Split {
                est.init_cardinality(d.id, 12.0);
            }
        }
    });
    let result = auto.submit((1..=12).collect()).get().unwrap();
    assert_eq!(result, 78);
    let decisions = auto.controller().decisions();
    let peak = decisions.iter().map(|d| d.to_lp).max().unwrap_or(1);
    assert!(
        peak > 1,
        "controller should have raised the LP: {decisions:?}"
    );
    assert!(auto.engine().pool().telemetry().peak_active() > 1);
    auto.shutdown();
}

#[test]
fn consecutive_submissions_reuse_learned_estimates() {
    // First run learns; the second can adapt from its very first events.
    let program = sleepy_map(6, Duration::from_millis(20));
    let config = ControllerConfig::new(TimeNs::from_millis(100), 8).initial_lp(1);
    let auto = AutonomicEngine::new(program, config);
    let first = auto.submit((1..=6).collect()).get().unwrap();
    assert_eq!(first, 21);
    let decisions_after_first = auto.controller().decisions().len();
    let second = auto.submit((1..=6).collect()).get().unwrap();
    assert_eq!(second, 21);
    let decisions_after_second = auto.controller().decisions().len();
    assert!(
        decisions_after_second > decisions_after_first || decisions_after_first > 0,
        "the second run should benefit from learned estimates"
    );
    auto.shutdown();
}

#[test]
fn dac_workload_is_supervised() {
    // d&C estimation: recursion depth |fc| and fan-out |fs| are learned
    // and predicted (the paper's d&C state machine).
    let program: Skel<i64, i64> = dac(
        |x: &i64| *x >= 4,
        |x: i64| vec![x / 2, x - x / 2],
        seq(|x: i64| x),
        |parts: Vec<i64>| parts.into_iter().sum(),
    );
    let cost = Arc::new(TableCost::new(TimeNs::from_millis(100)));
    let config = ControllerConfig::new(TimeNs::from_millis(900), 8).initial_lp(1);
    let mut auto = AutonomicSim::new(program, config, cost);
    // Cold first run to learn depth/fan-out…
    let first = auto.run(16).unwrap();
    assert_eq!(first.result, 16);
    // …then a supervised run that can adapt early.
    let second = auto.run(16).unwrap();
    assert_eq!(second.result, 16);
    assert!(
        !auto.controller().decisions().is_empty(),
        "controller should adapt the d&C run"
    );
}

#[test]
fn if_and_fork_extension_kinds_are_tracked() {
    // The paper leaves if/fork unsupported; we track them. The controller
    // must build sensible ADGs and adapt a fork of uneven branches.
    let program: Skel<Vec<i64>, i64> = fork(
        |v: Vec<i64>| {
            let mid = v.len() / 2;
            vec![v[..mid].to_vec(), v[mid..].to_vec()]
        },
        vec![
            map(
                |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
                seq(|v: Vec<i64>| v[0]),
                |p: Vec<i64>| p.into_iter().sum::<i64>(),
            ),
            seq(|v: Vec<i64>| v.into_iter().sum::<i64>()),
        ],
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let cost = Arc::new(TableCost::new(TimeNs::from_millis(50)));
    let config = ControllerConfig::new(TimeNs::from_millis(400), 8).initial_lp(1);
    let mut auto = AutonomicSim::new(program, config, cost);
    let first = auto.run((1..=8).collect()).unwrap();
    assert_eq!(first.result, 36);
    let second = auto.run((1..=8).collect()).unwrap();
    assert_eq!(second.result, 36);
    assert!(
        second.wct <= first.wct,
        "supervised second run must not be slower: {} vs {}",
        second.wct,
        first.wct
    );
}

#[test]
fn estimates_transfer_between_engine_kinds() {
    // Learn on the simulator, deploy on the threaded engine: the snapshot
    // speaks MuscleIds, which both engines share.
    let program = sleepy_map(4, Duration::from_millis(5));
    let cost = Arc::new(TableCost::new(TimeNs::from_millis(5)));
    let sim_config = ControllerConfig::new(TimeNs::from_millis(50), 8).initial_lp(1);
    let mut sim_auto = AutonomicSim::new(program.clone(), sim_config, cost);
    sim_auto.run((1..=4).collect()).unwrap();
    let snapshot = sim_auto.controller().snapshot();
    assert!(!snapshot.durations.is_empty());

    let config = ControllerConfig::new(TimeNs::from_millis(50), 8).initial_lp(2);
    let auto = AutonomicEngine::new(program, config);
    auto.init_estimates(&snapshot);
    let result = auto.submit((1..=4).collect()).get().unwrap();
    assert_eq!(result, 10);
    auto.shutdown();
}
