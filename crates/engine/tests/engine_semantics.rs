//! Functional semantics of the threaded engine: every skeleton kind must
//! agree with the sequential reference interpreter, failures must poison
//! futures without killing workers, and LP changes must be safe mid-run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use askel_engine::{Engine, EngineError};
use askel_skeletons::{dac, farm, fork, map, pipe, seq, sfor, sif, swhile, EvalError, Skel};

fn get<R: Send + 'static>(engine: &Engine, skel: &Skel<i64, R>, input: i64) -> R {
    engine
        .submit(skel, input)
        .get_timeout(Duration::from_secs(30))
        .expect("skeleton timed out")
        .expect("skeleton failed")
}

#[test]
fn seq_runs_on_pool() {
    let engine = Engine::new(2);
    let s = seq(|x: i64| x * 2);
    assert_eq!(get(&engine, &s, 21), 42);
    engine.shutdown();
}

#[test]
fn nested_map_matches_reference() {
    let engine = Engine::new(3);
    let inner = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] * v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.chunks(3).map(|c| c.to_vec()).collect::<Vec<_>>(),
        inner,
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let input: Vec<i64> = (1..=20).collect();
    let expected = program.apply(input.clone());
    let got = engine
        .submit(&program, input)
        .get_timeout(Duration::from_secs(30))
        .unwrap()
        .unwrap();
    assert_eq!(got, expected);
    assert_eq!(got, (1..=20).map(|x| x * x).sum::<i64>());
    engine.shutdown();
}

#[test]
fn while_if_for_pipe_farm_agree_with_reference() {
    let engine = Engine::new(2);
    let program: Skel<i64, i64> = pipe(
        swhile(|x: &i64| *x < 100, seq(|x: i64| x + 13)),
        pipe(
            sif(
                |x: &i64| x % 2 == 0,
                seq(|x: i64| x / 2),
                seq(|x: i64| 3 * x + 1),
            ),
            farm(sfor(3, seq(|x: i64| x + 7))),
        ),
    );
    for input in [-5, 0, 1, 7, 50, 99, 100, 12345] {
        assert_eq!(get(&engine, &program, input), program.apply(input));
    }
    engine.shutdown();
}

#[test]
fn fork_applies_distinct_branches() {
    let engine = Engine::new(2);
    let program: Skel<i64, (i64, i64)> = fork(
        |x: i64| vec![x, x],
        vec![seq(|x: i64| x + 1), seq(|x: i64| x * 10)],
        |parts: Vec<i64>| (parts[0], parts[1]),
    );
    assert_eq!(get(&engine, &program, 4), (5, 40));
    engine.shutdown();
}

#[test]
fn dac_mergesort_parallel() {
    let engine = Engine::new(4);
    let sort: Skel<Vec<i64>, Vec<i64>> = dac(
        |v: &Vec<i64>| v.len() > 8,
        |v: Vec<i64>| {
            let mid = v.len() / 2;
            let (a, b) = v.split_at(mid);
            vec![a.to_vec(), b.to_vec()]
        },
        seq(|mut v: Vec<i64>| {
            v.sort_unstable();
            v
        }),
        |parts: Vec<Vec<i64>>| {
            let mut out: Vec<i64> = parts.into_iter().flatten().collect();
            out.sort_unstable();
            out
        },
    );
    let input: Vec<i64> = (0..200).map(|i| (i * 7919) % 1000).collect();
    let mut expected = input.clone();
    expected.sort_unstable();
    let got = engine
        .submit(&sort, input)
        .get_timeout(Duration::from_secs(30))
        .unwrap()
        .unwrap();
    assert_eq!(got, expected);
    engine.shutdown();
}

#[test]
fn map_children_actually_run_concurrently() {
    // With 4 workers, 4 children that all wait for each other can only
    // finish if they run at the same time.
    let engine = Engine::new(4);
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq({
            let barrier = Arc::clone(&barrier);
            move |v: Vec<i64>| {
                barrier.wait();
                v[0]
            }
        }),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let got = engine
        .submit(&program, vec![1, 2, 3, 4])
        .get_timeout(Duration::from_secs(30))
        .expect("children deadlocked: no concurrency")
        .unwrap();
    assert_eq!(got, 10);
    assert!(engine.pool().telemetry().peak_active() >= 4);
    engine.shutdown();
}

#[test]
fn muscle_panic_poisons_future_not_engine() {
    let engine = Engine::new(2);
    let bad: Skel<i64, i64> = seq(|_: i64| -> i64 { panic!("intentional muscle failure") });
    let err = engine
        .submit(&bad, 1)
        .get_timeout(Duration::from_secs(30))
        .unwrap()
        .unwrap_err();
    match err {
        EngineError::MusclePanic(msg) => assert!(msg.contains("intentional")),
        other => panic!("unexpected error {other:?}"),
    }
    // The engine still works afterwards.
    let ok = seq(|x: i64| x + 1);
    assert_eq!(get(&engine, &ok, 1), 2);
    engine.shutdown();
}

/// A `farm`/`pipe`/`for` root raises its opening events on the thread
/// that calls `submit`. A listener panicking there must poison that one
/// submission — not unwind out of `Engine::submit` into the caller.
#[test]
fn listener_panic_on_a_structural_root_poisons_the_submission_not_the_caller() {
    use askel_events::{Event, FnListener, Payload, When, Where};
    use askel_skeletons::KindTag;
    use std::sync::atomic::AtomicBool;

    let leaf = || seq(|x: i64| x + 1);
    let roots: [(KindTag, Skel<i64, i64>); 3] = [
        (KindTag::Farm, farm(leaf())),
        (KindTag::Pipe, pipe(leaf(), leaf())),
        (KindTag::For, sfor(2, leaf())),
    ];
    for (kind, program) in roots {
        let engine = Engine::new(1);
        let armed = Arc::new(AtomicBool::new(true));
        let fuse = Arc::clone(&armed);
        engine.registry().add_listener(Arc::new(FnListener(
            move |_: &mut Payload<'_>, e: &Event| {
                if e.is(kind, When::Before, Where::Skeleton) && fuse.swap(false, Ordering::SeqCst) {
                    panic!("listener bug on the root");
                }
            },
        )));
        // Returning at all is the point: the panic stayed inside.
        let poisoned = engine.submit(&program, 1);
        match poisoned.get_timeout(Duration::from_secs(30)) {
            Ok(Err(EngineError::MusclePanic(m))) => {
                assert!(m.contains("listener bug on the root"), "{kind:?}: {m}")
            }
            Ok(other) => panic!("{kind:?}: expected MusclePanic, got {other:?}"),
            Err(_) => panic!("{kind:?}: the poisoned future never resolved"),
        }
        assert!(!armed.load(Ordering::SeqCst), "{kind:?}: the listener ran");
        let expected = program.apply(1);
        assert_eq!(
            get(&engine, &program, 1),
            expected,
            "{kind:?}: next one runs"
        );
        engine.shutdown();
    }
}

#[test]
fn panic_in_one_map_child_poisons_the_submission() {
    let engine = Engine::new(2);
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| {
            if v[0] == 3 {
                panic!("child 3 exploded")
            }
            v[0]
        }),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let err = engine
        .submit(&program, vec![1, 2, 3, 4, 5])
        .get_timeout(Duration::from_secs(30))
        .unwrap()
        .unwrap_err();
    assert!(matches!(err, EngineError::MusclePanic(_)));
    engine.shutdown();
}

#[test]
fn panic_in_one_dac_child_while_sibling_completes_poisons_cleanly() {
    // One d&C half panics while the other (often the inline-run last
    // child on the same worker) completes into the shared join. The
    // submission must resolve to an error — never a worker-thread panic
    // from the join bookkeeping — and the engine must stay usable.
    for _ in 0..50 {
        let engine = Engine::new(2);
        let program: Skel<Vec<i64>, Vec<i64>> = dac(
            |v: &Vec<i64>| v.len() > 2,
            |v: Vec<i64>| {
                let mid = v.len() / 2;
                let (a, b) = v.split_at(mid);
                vec![a.to_vec(), b.to_vec()]
            },
            seq(|v: Vec<i64>| {
                if v.contains(&13) {
                    panic!("unlucky leaf")
                }
                v
            }),
            |parts: Vec<Vec<i64>>| parts.into_iter().flatten().collect(),
        );
        let err = engine
            .submit(&program, (0..32).collect())
            .get_timeout(Duration::from_secs(30))
            .expect("poisoned submission must still resolve")
            .unwrap_err();
        assert!(
            matches!(err, EngineError::MusclePanic(_)),
            "unexpected error {err:?}"
        );
        // The sibling's completion path must not have corrupted the
        // engine: a fresh submission still works.
        let ok = seq(|x: i64| x + 1);
        assert_eq!(get(&engine, &ok, 1), 2);
        engine.shutdown();
    }
}

#[test]
fn deep_unbalanced_dac_does_not_blow_the_stack() {
    // A degenerate split peels one element off per level, driving the
    // inline last-child recursion as deep as the input is long; past
    // MAX_INLINE_DEPTH the engine must fall back to pool submission
    // instead of growing the worker's stack without bound.
    let engine = Engine::new(2);
    let program: Skel<Vec<i64>, Vec<i64>> = dac(
        |v: &Vec<i64>| v.len() > 1,
        |v: Vec<i64>| {
            let (head, tail) = v.split_at(1);
            vec![head.to_vec(), tail.to_vec()]
        },
        seq(|v: Vec<i64>| v),
        |parts: Vec<Vec<i64>>| parts.into_iter().flatten().collect(),
    );
    let input: Vec<i64> = (0..2000).collect();
    let got = engine
        .submit(&program, input.clone())
        .get_timeout(Duration::from_secs(60))
        .unwrap()
        .unwrap();
    assert_eq!(got, input);
    engine.shutdown();
}

#[test]
fn fork_arity_mismatch_is_a_structural_error() {
    let engine = Engine::new(2);
    let program: Skel<i64, i64> = fork(
        |x: i64| vec![x; 3],
        vec![seq(|x: i64| x), seq(|x: i64| x)],
        |parts: Vec<i64>| parts.into_iter().sum(),
    );
    let err = engine
        .submit(&program, 1)
        .get_timeout(Duration::from_secs(30))
        .unwrap()
        .unwrap_err();
    match err {
        EngineError::Eval(EvalError::ForkArityMismatch {
            branches, produced, ..
        }) => {
            assert_eq!((branches, produced), (2, 3));
        }
        other => panic!("unexpected error {other:?}"),
    }
    engine.shutdown();
}

#[test]
fn empty_dac_split_is_a_structural_error() {
    let engine = Engine::new(2);
    let program: Skel<i64, i64> = dac(
        |_: &i64| true,
        |_: i64| Vec::<i64>::new(),
        seq(|x: i64| x),
        |parts: Vec<i64>| parts.into_iter().sum(),
    );
    let err = engine
        .submit(&program, 1)
        .get_timeout(Duration::from_secs(30))
        .unwrap()
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Eval(EvalError::EmptySplit { .. })
    ));
    engine.shutdown();
}

#[test]
fn empty_map_split_merges_nothing() {
    let engine = Engine::new(2);
    let program: Skel<Vec<i64>, i64> = map(
        |_: Vec<i64>| Vec::<Vec<i64>>::new(),
        seq(|v: Vec<i64>| v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let got = engine
        .submit(&program, vec![])
        .get_timeout(Duration::from_secs(30))
        .unwrap()
        .unwrap();
    assert_eq!(got, 0);
    engine.shutdown();
}

#[test]
fn lp_can_change_mid_run() {
    let engine = Engine::new(1);
    let counter = Arc::new(AtomicUsize::new(0));
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq({
            let counter = Arc::clone(&counter);
            move |v: Vec<i64>| {
                counter.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
                v[0]
            }
        }),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let fut = engine.submit(&program, (1..=64).collect());
    // Grow, then shrink, while children run.
    engine.set_lp(6);
    std::thread::sleep(Duration::from_millis(10));
    engine.set_lp(2);
    let got = fut.get_timeout(Duration::from_secs(60)).unwrap().unwrap();
    assert_eq!(got, (1..=64).sum::<i64>());
    assert_eq!(counter.load(Ordering::Relaxed), 64);
    engine.shutdown();
}

#[test]
fn concurrent_submissions_share_the_pool() {
    let engine = Engine::new(3);
    let program: Skel<i64, i64> = seq(|x: i64| {
        std::thread::sleep(Duration::from_millis(1));
        x * 2
    });
    let futures: Vec<_> = (0..32).map(|i| engine.submit(&program, i)).collect();
    for (i, f) in futures.into_iter().enumerate() {
        assert_eq!(
            f.get_timeout(Duration::from_secs(30)).unwrap().unwrap(),
            i as i64 * 2
        );
    }
    engine.shutdown();
}

#[test]
fn deep_while_loop_does_not_blow_the_stack() {
    let engine = Engine::new(1);
    let program = swhile(|x: &i64| *x < 20_000, seq(|x: i64| x + 1));
    assert_eq!(get(&engine, &program, 0), 20_000);
    engine.shutdown();
}

/// Nobody asked for the pool timeline, so a default engine keeps none:
/// no sample per task, while the counters the pool's accounting stands on
/// run regardless. Asking brings the samples and the timeline back.
#[test]
fn a_default_engine_retains_no_timeline_until_asked() {
    let engine = Engine::new(2);
    let telemetry = engine.pool().telemetry();
    let program = map(
        |x: i64| vec![x, x + 1],
        seq(|x: i64| x * 2),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let run = |items: i64| {
        let futures: Vec<_> = (0..items).map(|i| engine.submit(&program, i)).collect();
        for (i, f) in futures.into_iter().enumerate() {
            let got = f.get_timeout(Duration::from_secs(30)).unwrap().unwrap();
            assert_eq!(got, 4 * i as i64 + 2);
        }
        engine.pool().wait_idle();
    };

    run(1_000);
    assert!(telemetry.samples().is_empty(), "nobody switched it on");
    assert_eq!(telemetry.active_timeline().len(), 1, "the origin only");
    let finished = telemetry.tasks_finished();
    assert!(finished >= 1_000, "every item ran at least one task");
    assert_eq!(telemetry.tasks_started(), finished);
    assert!((1..=2).contains(&telemetry.peak_active()));

    telemetry.set_recording(true);
    run(10);
    // Joins the workers: a task's end sample follows its counter.
    engine.shutdown();
    let tasks = telemetry.tasks_finished() - finished;
    assert_eq!(telemetry.samples().len(), 2 * tasks, "a start and an end");
    let timeline = telemetry.active_timeline();
    assert!(timeline.len() > 1 && timeline.iter().all(|p| p.active <= 2));
}
