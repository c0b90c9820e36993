//! Failure injection across the stack: panicking muscles, structural
//! errors, pathological listeners, and resource floor/ceiling abuse.

use std::sync::Arc;
use std::time::Duration;

use autonomic_skeletons::prelude::*;
use autonomic_skeletons::AutonomicSim;

#[test]
fn panic_in_nested_child_poisons_only_that_submission() {
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| {
            if v[0] == 13 {
                panic!("unlucky child");
            }
            v[0]
        }),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let engine = Engine::new(2);
    let poisoned = engine.submit(&program, vec![1, 13, 3]);
    let healthy = engine.submit(&program, vec![1, 2, 3]);
    assert!(matches!(
        poisoned.get_timeout(Duration::from_secs(30)).unwrap(),
        Err(EngineError::MusclePanic(_))
    ));
    assert_eq!(
        healthy
            .get_timeout(Duration::from_secs(30))
            .unwrap()
            .unwrap(),
        6
    );
    engine.shutdown();
}

#[test]
fn panicking_listener_poisons_like_a_muscle() {
    use std::sync::atomic::{AtomicBool, Ordering};
    // Panics in the listener on the first item only, at the closing
    // event — inside the continuation that follows the muscle.
    fn listener(armed: &Arc<AtomicBool>) -> Arc<dyn Listener> {
        let armed = Arc::clone(armed);
        Arc::new(FnListener(
            move |_: &mut Payload<'_>, e: &autonomic_skeletons::events::Event| {
                if e.when == When::After && armed.swap(false, Ordering::SeqCst) {
                    panic!("listener bug");
                }
            },
        ))
    }
    let program: Skel<i64, i64> = seq(|x: i64| x + 1);

    let armed = Arc::new(AtomicBool::new(true));
    let engine = Engine::new(1);
    engine.registry().add_listener(listener(&armed));
    let err = engine
        .submit(&program, 1)
        .get_timeout(Duration::from_secs(30))
        .unwrap()
        .unwrap_err();
    assert!(matches!(err, EngineError::MusclePanic(m) if m.contains("listener bug")));
    let again = engine
        .submit(&program, 1)
        .get_timeout(Duration::from_secs(30));
    assert_eq!(again.unwrap().unwrap(), 2);
    engine.shutdown();

    armed.store(true, Ordering::SeqCst);
    let mut sim = SimEngine::new(1, Arc::new(ZeroCost));
    sim.registry().add_listener(listener(&armed));
    let err = sim.run(&program, 1).unwrap_err();
    assert!(matches!(
        err,
        autonomic_skeletons::sim::SimError::MusclePanic(m) if m.contains("listener bug")
    ));
    // The worker model came back: the engine still runs.
    assert_eq!(sim.run(&program, 1).unwrap().result, 2);

    // A stream reports the poisoned item through its sink and carries on.
    armed.store(true, Ordering::SeqCst);
    let mut outcomes = Vec::new();
    sim.run_stream(
        1,
        |i| (i < 2).then(|| (program.clone(), 1)),
        |i, r| outcomes.push((i, r.map_err(|e| e.to_string()))),
        &mut [],
    );
    assert!(matches!(&outcomes[0], (0, Err(m)) if m.contains("listener bug")));
    assert_eq!(outcomes[1], (1, Ok(2)));
}

#[test]
fn controller_survives_a_poisoned_run_and_supervises_the_next() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let explode = Arc::new(AtomicBool::new(true));
    let e2 = Arc::clone(&explode);
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(move |v: Vec<i64>| {
            if e2.load(Ordering::SeqCst) && v[0] == 2 {
                panic!("first run explodes");
            }
            v[0]
        }),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let cost = Arc::new(TableCost::new(TimeNs::from_millis(10)));
    let config = ControllerConfig::new(TimeNs::from_millis(100), 4).initial_lp(1);
    let mut auto = AutonomicSim::new(program, config, cost);
    assert!(auto.run(vec![1, 2, 3]).is_err());
    explode.store(false, std::sync::atomic::Ordering::SeqCst);
    let ok = auto.run(vec![1, 2, 3]).unwrap();
    assert_eq!(ok.result, 6);
}

#[test]
fn fork_arity_mismatch_reported_by_both_engines() {
    let program: Skel<i64, i64> = fork(
        |x: i64| vec![x; 5],
        vec![seq(|x: i64| x), seq(|x: i64| x)],
        |parts: Vec<i64>| parts.into_iter().sum(),
    );
    let engine = Engine::new(1);
    let threaded = engine
        .submit(&program, 1)
        .get_timeout(Duration::from_secs(30))
        .unwrap();
    engine.shutdown();
    assert!(matches!(threaded, Err(EngineError::Eval(_))));

    let mut sim = SimEngine::new(1, Arc::new(ZeroCost));
    assert!(matches!(
        sim.run(&program, 1),
        Err(autonomic_skeletons::sim::SimError::Eval(_))
    ));
}

#[test]
fn min_lp_floor_keeps_the_engine_alive() {
    // A controller that would love to shrink to zero cannot go below
    // min_lp = 1, so the run always completes.
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let muscles = program.node().collect_muscles();
    let cost = Arc::new(TableCost::new(TimeNs::from_millis(1)));
    // Goal so loose any LP meets it: maximal decrease pressure.
    let config = ControllerConfig::new(TimeNs::from_secs(3_600), 8)
        .initial_lp(4)
        .decrease(DecreasePolicy::ToMinimal);
    let mut auto = AutonomicSim::new(program, config, cost);
    auto.controller().knowledge().with_estimates(|est| {
        for d in &muscles {
            est.init_duration(d.id, TimeNs::from_millis(1));
            if d.id.role == MuscleRole::Split {
                est.init_cardinality(d.id, 16.0);
            }
        }
    });
    let out = auto.run((1..=16).collect()).unwrap();
    assert_eq!(out.result, 136);
    assert!(auto.controller().current_lp() >= 1);
}

#[test]
fn zero_cardinality_splits_flow_through_the_autonomic_stack() {
    let program: Skel<Vec<i64>, i64> = map(
        |_: Vec<i64>| Vec::<Vec<i64>>::new(),
        seq(|v: Vec<i64>| v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let cost = Arc::new(TableCost::new(TimeNs::from_millis(1)));
    let config = ControllerConfig::new(TimeNs::from_millis(100), 4).initial_lp(1);
    let mut auto = AutonomicSim::new(program, config, cost);
    let first = auto.run(vec![]).unwrap();
    assert_eq!(first.result, 0);
    // Second run predicts with |fs| ≈ 0 — must not panic or stall.
    let second = auto.run(vec![]).unwrap();
    assert_eq!(second.result, 0);
}

/// A remote node that starts erroring mid-stream: the `Offload` rule has
/// moved the map onto the hub, then the hub's execution starts panicking;
/// two consecutive item errors trigger a `FallbackSwap` whose fallback is
/// an **unplaced** (local) implementation — the offload-back. The swap
/// re-arms the offload concern (`Rule::on_replaced` retargets it at the
/// fallback subtree), so once the edge re-skews the rule offloads the
/// *robust* map back onto the hub. No item is lost or duplicated, and
/// the sim decision log replays deterministically.
#[test]
fn remote_errors_trigger_fallback_swap_offload_back() {
    use autonomic_skeletons::dist::{Cluster, NodeSpec};

    const POISON: i64 = -999;

    fn build_map(robust: bool) -> Skel<Vec<i64>, i64> {
        map(
            |v: Vec<i64>| {
                let mid = (v.len() / 2).max(1).min(v.len());
                let (a, b) = v.split_at(mid);
                vec![a.to_vec(), b.to_vec()]
            },
            seq(move |chunk: Vec<i64>| {
                if !robust && chunk.contains(&POISON) {
                    panic!("remote node rejected a poisoned chunk");
                }
                chunk.iter().filter(|x| **x != POISON).sum::<i64>()
            }),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        )
    }

    struct Run {
        outcomes: Vec<Result<i64, String>>,
        decisions: Vec<(TimeNs, u64, String)>,
        edge_busy_before_swap: TimeNs,
        hub_got_work: bool,
        hub_busy_at_swap: TimeNs,
        hub_busy_final: TimeNs,
        final_version: u64,
    }

    fn run_once() -> Run {
        let fragile = build_map(false);
        let robust = build_map(true);
        // Two edge slots first, so the unplaced two-chunk fan-out runs
        // entirely on the edge and the skew recruits the hub.
        let cluster = Cluster::new(vec![
            NodeSpec::local("edge", 2),
            NodeSpec::remote("hub", 2, TimeNs::from_millis(5)),
        ]);
        let telemetry = cluster.telemetry();
        let cost = Arc::new(TableCost::new(TimeNs::from_millis(10)));
        let sim = SimEngine::with_workers(Box::new(cluster), cost);

        let trigger = autonomic_skeletons::adapt::TriggerEngine::new(0.5);
        sim.registry().add_listener(trigger.clone());
        trigger.add_rule(autonomic_skeletons::dist::Offload::new(
            &fragile,
            "hub",
            telemetry.clone(),
            0.7,
            0.2,
        ));
        trigger.add_rule(FallbackSwap::new(&fragile, &robust, 2).named("offload-back"));
        let mut session = sim_session(sim, &fragile, trigger.clone());

        // Items 3 and 4 are poisoned: the hub (where the offload moved
        // the map) starts erroring mid-stream. The long healthy tail
        // after the swap lets the edge's cumulative busy share re-skew
        // past the high water mark, so the re-armed offload fires again.
        let items: Vec<Vec<i64>> = (0..28)
            .map(|k| {
                if k == 3 || k == 4 {
                    vec![k, POISON, k + 1, k + 2]
                } else {
                    vec![k, k + 1, k + 2, k + 3]
                }
            })
            .collect();
        let fed = items.len();
        let mut outcomes = Vec::new();
        let mut edge_busy_before_swap = TimeNs::ZERO;
        let mut hub_got_work = false;
        let mut hub_busy_at_swap = None;
        // Lock-step: each `feed` runs the safe point (outcome of the item
        // before already recorded), then submits.
        for input in &items {
            if session.version() < 2 {
                edge_busy_before_swap = telemetry.busy_per_node()[0];
            }
            session.feed(input.clone());
            hub_got_work |= telemetry.busy_per_node()[1] > TimeNs::ZERO;
            if session.version() >= 2 && hub_busy_at_swap.is_none() {
                hub_busy_at_swap = Some(telemetry.busy_per_node()[1]);
            }
            let result = session.next_result().expect("one item in flight");
            outcomes.push(result.map_err(|e| e.to_string()));
        }
        assert_eq!(outcomes.len(), fed, "one outcome per fed item");
        Run {
            outcomes,
            decisions: trigger
                .decision_log()
                .into_iter()
                .map(|d| (d.at, d.version, d.rule))
                .collect(),
            edge_busy_before_swap,
            hub_got_work,
            hub_busy_at_swap: hub_busy_at_swap.expect("the swap happened"),
            hub_busy_final: telemetry.busy_per_node()[1],
            final_version: session.version(),
        }
    }

    let a = run_once();
    // No item lost or duplicated: exactly the two streak items failed,
    // every other item computed the reference sum.
    let errors: Vec<usize> = a
        .outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_err().then_some(i))
        .collect();
    assert_eq!(errors, vec![3, 4], "{:?}", a.outcomes);
    for (k, outcome) in a.outcomes.iter().enumerate() {
        if let Ok(sum) = outcome {
            let expected: i64 = (k as i64..k as i64 + 4).sum();
            assert_eq!(*sum, expected, "item {k}");
        }
    }
    // The interplay: offload to the hub first, then the error streak
    // swaps in the local (unplaced) fallback — offload-back — and once
    // the edge re-skews, the re-armed offload places the robust map
    // back onto the hub. Before the `on_replaced` retargeting hook the
    // offload's once-latch stayed spent after the swap and the third
    // decision never happened.
    let rules: Vec<&str> = a.decisions.iter().map(|d| d.2.as_str()).collect();
    assert_eq!(
        rules,
        vec!["offload", "offload-back", "offload"],
        "{:?}",
        a.decisions
    );
    assert_eq!(a.final_version, 3);
    assert!(a.edge_busy_before_swap > TimeNs::ZERO);
    assert!(a.hub_got_work, "the offload really moved work to the hub");
    assert!(
        a.hub_busy_final > a.hub_busy_at_swap,
        "the re-offload moved work back to the hub: {:?} vs {:?}",
        a.hub_busy_final,
        a.hub_busy_at_swap
    );
    // Pinned: the decision log (virtual timestamps included) replays.
    let b = run_once();
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.outcomes, b.outcomes);
}

#[test]
fn overdue_activities_do_not_break_estimation() {
    // A muscle that takes far longer than its estimate: the past-clamp
    // (tf = now) applies and the controller keeps functioning.
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let muscles = program.node().collect_muscles();
    let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
    let config = ControllerConfig::new(TimeNs::from_secs(2), 8).initial_lp(1);
    let mut auto = AutonomicSim::new(program, config, cost);
    auto.controller().knowledge().with_estimates(|est| {
        for d in &muscles {
            // Wildly optimistic: everything "should" take 1ms.
            est.init_duration(d.id, TimeNs::from_millis(1));
            if d.id.role == MuscleRole::Split {
                est.init_cardinality(d.id, 4.0);
            }
        }
    });
    let out = auto.run((1..=4).collect()).unwrap();
    assert_eq!(out.result, 10);
}
