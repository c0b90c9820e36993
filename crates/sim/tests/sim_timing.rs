//! Virtual-time semantics of the simulator: makespans, LIFO order,
//! mid-run LP changes, determinism, and failure handling.

use std::sync::Arc;

use askel_events::util::EventCollector;
use askel_events::{EventFilter, FnListener, When, Where};
use askel_sim::cost::{TableCost, ZeroCost};
use askel_sim::{SimEngine, SimError, SimOutcome};
use askel_skeletons::{
    dac, fork, map, pipe, seq, sfor, sif, swhile, MuscleId, MuscleRole, Skel, TimeNs,
};

fn secs(s: u64) -> TimeNs {
    TimeNs::from_secs(s)
}

/// map(fs, seq(fe), fm) over n items with per-muscle costs.
fn flat_map(n: i64) -> Skel<Vec<i64>, i64> {
    let _ = n;
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

#[test]
fn sequential_wct_is_total_work() {
    // LP 1: split + 6×fe + merge, all serialized.
    let program = flat_map(6);
    let ids = program.node().collect_muscles();
    let mut cost = TableCost::new(secs(0));
    for m in &ids {
        let d = match m.id.role {
            MuscleRole::Split => secs(10),
            MuscleRole::Execute => secs(15),
            MuscleRole::Merge => secs(5),
            MuscleRole::Condition => secs(0),
        };
        cost.set(m.id, d);
    }
    let mut sim = SimEngine::new(1, Arc::new(cost));
    let out = sim.run(&program, (1..=6).collect()).unwrap();
    assert_eq!(out.result, 21);
    assert_eq!(out.wct, secs(10 + 6 * 15 + 5));
}

#[test]
fn infinite_lp_gives_critical_path() {
    let program = flat_map(6);
    let ids = program.node().collect_muscles();
    let mut cost = TableCost::new(secs(0));
    for m in &ids {
        let d = match m.id.role {
            MuscleRole::Split => secs(10),
            MuscleRole::Execute => secs(15),
            MuscleRole::Merge => secs(5),
            MuscleRole::Condition => secs(0),
        };
        cost.set(m.id, d);
    }
    let mut sim = SimEngine::new(1000, Arc::new(cost));
    let out = sim.run(&program, (1..=6).collect()).unwrap();
    assert_eq!(out.wct, secs(10 + 15 + 5));
    assert_eq!(sim.telemetry().peak_active(), 6);
}

/// The simulator is the figures' instrument: unlike a threaded pool it
/// records its timeline unasked, from the run's initial LP target on.
#[test]
fn a_fresh_simulator_records_its_timeline_from_the_initial_target() {
    use askel_pool::TelemetrySample;

    let mut sim = SimEngine::new(3, Arc::new(TableCost::new(secs(1))));
    assert!(sim.telemetry().is_recording());
    sim.run(&flat_map(2), vec![1, 2]).unwrap();
    let samples = sim.telemetry().samples();
    assert_eq!(
        samples[0],
        TelemetrySample::TargetChange {
            at: TimeNs::ZERO,
            target: 3
        }
    );
    // split, two executes, merge: a start and an end each.
    assert_eq!(samples.len(), 1 + 2 * 4);
    assert_eq!(sim.telemetry().target_timeline().len(), 1);
}

#[test]
fn limited_lp_paces_the_fan_out() {
    // 6 executes of 15s over 2 workers: 3 waves of 15s.
    let program = flat_map(6);
    let ids = program.node().collect_muscles();
    let mut cost = TableCost::new(secs(0));
    for m in &ids {
        if m.id.role == MuscleRole::Execute {
            cost.set(m.id, secs(15));
        }
    }
    let mut sim = SimEngine::new(2, Arc::new(cost));
    let out = sim.run(&program, (1..=6).collect()).unwrap();
    assert_eq!(out.wct, secs(45));
}

#[test]
fn every_kind_matches_the_reference_interpreter() {
    let program: Skel<i64, i64> = pipe(
        sif(
            |x: &i64| x % 2 == 0,
            sfor(3, seq(|x: i64| x + 1)),
            swhile(|x: &i64| *x < 40, seq(|x: i64| x * 2)),
        ),
        fork(
            |x: i64| vec![x, x, x],
            vec![
                seq(|x: i64| x),
                seq(|x: i64| -x),
                dac(
                    |x: &i64| *x > 4,
                    |x: i64| vec![x / 2, x - x / 2],
                    seq(|x: i64| x * 10),
                    |v: Vec<i64>| v.into_iter().sum(),
                ),
            ],
            |v: Vec<i64>| v.into_iter().sum::<i64>(),
        ),
    );
    let mut sim = SimEngine::new(3, Arc::new(ZeroCost));
    for input in [0, 1, 2, 7, 39, 40, 41, 100] {
        let out = sim.run(&program, input).unwrap();
        assert_eq!(out.result, program.apply(input), "input {input}");
    }
}

#[test]
fn lifo_order_matches_the_papers_observed_schedule() {
    // Nested map, LP 1, costs like §5: the engine must finish one inner
    // branch (split, all its executes, its merge) before touching the next
    // sibling split.
    let inner = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.chunks(2).map(|c| c.to_vec()).collect::<Vec<_>>(),
        inner.clone(),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let collector = EventCollector::new();
    let mut sim = SimEngine::new(1, Arc::new(ZeroCost));
    sim.registry().add_listener(collector.clone());
    let out = sim.run(&program, vec![1, 2, 3, 4]).unwrap();
    assert_eq!(out.result, 10);

    let inner_node = inner.id();
    let phases: Vec<(Where, When)> = collector
        .snapshot()
        .into_iter()
        .filter(|e| e.node == inner_node)
        .map(|e| (e.wher, e.when))
        .collect();
    // Two inner instances; each must run contiguously under LP 1:
    // skeleton-b, split pair, nested pairs, merge pair, skeleton-a — twice.
    let one_instance = [
        (Where::Skeleton, When::Before),
        (Where::Split, When::Before),
        (Where::Split, When::After),
        (Where::NestedSkeleton, When::Before),
        (Where::NestedSkeleton, When::Before),
        (Where::NestedSkeleton, When::After),
        (Where::NestedSkeleton, When::After),
        (Where::Merge, When::Before),
        (Where::Merge, When::After),
        (Where::Skeleton, When::After),
    ];
    assert_eq!(phases.len(), 2 * one_instance.len());
    assert_eq!(&phases[..one_instance.len()], &one_instance[..]);
    assert_eq!(&phases[one_instance.len()..], &one_instance[..]);
}

#[test]
fn lp_raise_mid_run_takes_effect() {
    // 8 executes of 10s. LP starts at 1; a listener raises it to 4 when the
    // split finishes. 8 tasks over 4 workers = 2 waves.
    let program = flat_map(8);
    let ids = program.node().collect_muscles();
    let mut cost = TableCost::new(secs(0));
    for m in &ids {
        if m.id.role == MuscleRole::Execute {
            cost.set(m.id, secs(10));
        }
    }
    let mut sim = SimEngine::new(1, Arc::new(cost));
    let lp = sim.lp_control();
    sim.registry().add_filtered(
        EventFilter::all().wher(Where::Split).when(When::After),
        Arc::new(FnListener(
            move |_: &mut askel_events::Payload<'_>, _: &askel_events::Event| {
                lp.request(4);
            },
        )),
    );
    let out = sim.run(&program, (1..=8).collect()).unwrap();
    assert_eq!(out.wct, secs(20));
    assert_eq!(sim.telemetry().peak_active(), 4);
    assert_eq!(sim.lp(), 4, "LP persists after the run");
}

#[test]
fn lp_shrink_never_preempts() {
    // 4 executes of 10s, LP 4; a listener shrinks to 1 right after the
    // split. All four children are already started… no wait: children start
    // after the split completes. Shrink happens at split-after, so only one
    // child may start per wave → 40s.
    let program = flat_map(4);
    let ids = program.node().collect_muscles();
    let mut cost = TableCost::new(secs(0));
    for m in &ids {
        if m.id.role == MuscleRole::Execute {
            cost.set(m.id, secs(10));
        }
    }
    let mut sim = SimEngine::new(4, Arc::new(cost));
    let lp = sim.lp_control();
    sim.registry().add_filtered(
        EventFilter::all().wher(Where::Split).when(When::After),
        Arc::new(FnListener(
            move |_: &mut askel_events::Payload<'_>, _: &askel_events::Event| {
                lp.request(1);
            },
        )),
    );
    let out = sim.run(&program, (1..=4).collect()).unwrap();
    assert_eq!(out.wct, secs(40));
    assert_eq!(sim.telemetry().peak_active(), 1);
}

#[test]
fn runs_are_deterministic() {
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.chunks(3).map(|c| c.to_vec()).collect::<Vec<_>>(),
        flat_map(3),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let run = || -> SimOutcome<i64> {
        let mut sim = SimEngine::new(3, Arc::new(TableCost::new(TimeNs::from_millis(7))));
        sim.run(&program, (1..=9).collect()).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn panic_poisons_the_run() {
    let program: Skel<i64, i64> = seq(|_: i64| -> i64 { panic!("sim muscle failure") });
    let mut sim = SimEngine::new(1, Arc::new(ZeroCost));
    match sim.run(&program, 1) {
        Err(SimError::MusclePanic(m)) => assert!(m.contains("sim muscle failure")),
        other => panic!("unexpected {other:?}"),
    }
    // The engine object survives and can run again.
    let ok: Skel<i64, i64> = seq(|x: i64| x + 1);
    assert_eq!(sim.run(&ok, 1).unwrap().result, 2);
}

#[test]
fn zero_lp_stalls_cleanly() {
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut sim = SimEngine::new(0, Arc::new(ZeroCost));
    match sim.run(&program, 1) {
        Err(SimError::Stalled { ready, .. }) => assert_eq!(ready, 1),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn condition_and_split_chain_holds_the_worker() {
    // d&C: cond (2s) then split (3s) happen back-to-back on one worker;
    // with LP 1 and two leaves of 5s each plus leaf conds (2s) and a merge
    // (4s): 2+3 + (2+5) + (2+5) + 4 = 23.
    let program: Skel<i64, i64> = dac(
        |x: &i64| *x >= 2,
        |x: i64| vec![x / 2, x - x / 2],
        seq(|x: i64| x),
        |v: Vec<i64>| v.into_iter().sum(),
    );
    let node = program.node();
    let cond = MuscleId::new(node.id, MuscleRole::Condition);
    let split = MuscleId::new(node.id, MuscleRole::Split);
    let merge = MuscleId::new(node.id, MuscleRole::Merge);
    let fe = MuscleId::new(node.children()[0].id, MuscleRole::Execute);
    let cost = TableCost::new(secs(0))
        .with(cond, secs(2))
        .with(split, secs(3))
        .with(merge, secs(4))
        .with(fe, secs(5));
    let mut sim = SimEngine::new(1, Arc::new(cost));
    let out = sim.run(&program, 2).unwrap();
    assert_eq!(out.result, 2);
    assert_eq!(out.wct, secs(23));
}

#[test]
fn clock_continues_across_runs() {
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut sim = SimEngine::new(1, Arc::new(TableCost::new(secs(3))));
    let a = sim.run(&program, 1).unwrap();
    let b = sim.run(&program, 1).unwrap();
    assert_eq!(a.finished_at, secs(3));
    assert_eq!(b.started_at, secs(3));
    assert_eq!(b.finished_at, secs(6));
    assert_eq!(b.wct, secs(3));
}

#[test]
fn sim_stream_advances_time_only_while_waiting() {
    use askel_events::StreamRuntime;
    use askel_sim::SimStream;
    use askel_skeletons::Clock;

    let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
    let program = seq(|x: i64| x + 1);
    let mut stream = SimStream::new(SimEngine::new(2, cost), &program);
    stream.feed(1);
    stream.feed(2);
    assert_eq!(stream.poll_ready(), 0, "feeding takes no virtual time");
    assert_eq!(stream.next_result(), Some(Ok(2)));
    assert_eq!(stream.poll_ready(), 1, "two workers: both finished at 1s");
    assert_eq!(stream.next_result(), Some(Ok(3)));
    assert_eq!(stream.next_result(), None);
    assert_eq!(stream.sim().clock().now(), TimeNs::from_secs(1));
}
