//! An unobserved subtree with no fan-out runs on threads as one step, the
//! sequential reference's, and changes nothing anyone can see but its
//! cost: results equal [`Skel::apply`] exactly once and in order at 1–4
//! workers, with no listener and under one reading a single muscle (the
//! collapsed subtrees then sit under an observed root), where each item
//! raises what the simulator, which stays stepwise, raises for the same
//! read set, and the event after a collapsed subtree reads the clock
//! afresh. A collapsed step is guarded as a whole: a panic inside it
//! fails its item once, and a sibling's poison is seen when it ends. The
//! task counts pin the granularity: an unobserved loop is one task, an
//! observed one as many as its steps take.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use askel_engine::{Engine, EngineError, StreamSession};
use askel_events::util::CountingListener;
use askel_events::{Event, Reads, When, Where};
use askel_sim::cost::ZeroCost;
use askel_sim::SimEngine;
use askel_skeletons::{fork, pipe, seq, sfor, KindTag, MuscleId, MuscleRole};

mod programs;
use programs::{counted, program_strategy, streams_like_the_reference, Heard};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn collapsed_subtrees_leave_results_and_events_as_they_were(
        program in program_strategy(),
        inputs in proptest::collection::vec(-100i64..100, 1..6),
        pick in any::<usize>(),
    ) {
        let muscles: Vec<MuscleId> = program
            .skel
            .node()
            .collect_muscles()
            .into_iter()
            .map(|m| m.id)
            .collect();
        let read = muscles[pick % muscles.len()];

        // The simulator meters every muscle, so it runs every program
        // stepwise: its per-item events are the reference.
        let mut sim = SimEngine::new(2, Arc::new(ZeroCost));
        let listener = Heard::new(Reads::muscle(read));
        sim.registry().add_listener(listener.clone());
        let simulated: Vec<usize> = inputs
            .iter()
            .map(|&x| {
                sim.run(&program.skel, x).expect("sim failed");
                listener.take().len()
            })
            .collect();

        for workers in 1..=4 {
            let engine = Engine::new(workers);
            streams_like_the_reference(&engine, &program.skel, &inputs)?;

            let listener = Heard::new(Reads::muscle(read));
            engine.registry().add_listener(listener.clone());
            streams_like_the_reference(&engine, &program.skel, &inputs)?;
            listener.take();
            let heard: Vec<usize> = inputs
                .iter()
                .map(|&x| {
                    let got = engine.submit(&program.skel, x).get().expect("item failed");
                    assert_eq!(got, program.skel.apply(x));
                    listener.take().len()
                })
                .collect();
            engine.shutdown();
            prop_assert_eq!(&heard, &simulated, "{} workers", workers);
        }
    }
}

/// A collapsed subtree's muscles are metered as one: the event after it
/// reads the clock afresh instead of repeating the one before it.
#[test]
fn the_event_after_a_collapsed_subtree_reads_the_clock_afresh() {
    let first = seq(|x: i64| x + 1);
    let slow = seq(|x: i64| {
        std::thread::sleep(Duration::from_millis(1));
        x + 1
    });
    let program = pipe(first.clone(), sfor(4, slow));
    let engine = Engine::new(1);
    let listener = Heard::new(Reads::muscle(MuscleId::new(
        first.id(),
        MuscleRole::Execute,
    )));
    engine.registry().add_listener(listener.clone());
    assert_eq!(engine.submit(&program, 0).get(), Ok(5));
    engine.shutdown();
    let events = listener.take();
    let ended = |kind| {
        let end = |e: &&Event| e.kind == kind && e.when == When::After && e.wher == Where::Skeleton;
        events.iter().find(end).expect("a bracket").timestamp
    };
    let (first_ended, program_ended) = (ended(KindTag::Seq), ended(KindTag::Pipe));
    assert!(
        program_ended.0 >= first_ended.0 + 4_000_000,
        "the loop took 4 ms: {first_ended:?} → {program_ended:?}"
    );
}

/// Polls `done` until it holds or `patience` runs out; whether it held.
fn wait_for(done: impl Fn() -> bool, patience: Duration) -> bool {
    let until = Instant::now() + patience;
    while !done() && Instant::now() < until {
        std::thread::yield_now();
    }
    done()
}

#[test]
fn a_panic_inside_a_collapsed_subtree_fails_its_item_once() {
    let program = sfor(
        8,
        seq(|x: i64| {
            assert!(x != 3, "the body rejects 3");
            x + 1
        }),
    );
    let engine = Engine::new(2);
    let tasks = engine.pool().telemetry();
    let mut session = StreamSession::new(&engine, &program);
    for x in [10, 0, 20] {
        session.feed(x);
    }
    let got: Vec<_> = session.drain().collect();
    assert_eq!(got.len(), 3);
    assert_eq!(got[0], Ok(18));
    assert!(
        matches!(&got[1], Err(EngineError::MusclePanic(m)) if m.contains("rejects 3")),
        "{:?}",
        got[1]
    );
    assert_eq!(got[2], Ok(28));
    engine.pool().wait_idle();
    assert_eq!(tasks.tasks_started(), 3, "one task per item");
    // The engine serves the next item.
    assert_eq!(engine.submit(&program, 100).get(), Ok(108));
    engine.shutdown();
}

#[test]
fn a_panicking_sibling_of_a_collapsed_loop_fails_the_item_once() {
    const ITERATIONS: usize = 16;
    let started = Arc::new(AtomicBool::new(false));
    let panicked = Arc::new(AtomicBool::new(false));
    let overlapped = Arc::new(AtomicBool::new(false));
    let iterations = Arc::new(AtomicUsize::new(0));
    let merges = Arc::new(AtomicUsize::new(0));
    let patience = Duration::from_secs(10);

    // The loop's first iteration and its sibling wait for each other, so
    // the poison is set while the collapsed loop runs.
    let body = {
        let (started, panicked, overlapped, iterations) = (
            started.clone(),
            panicked.clone(),
            overlapped.clone(),
            iterations.clone(),
        );
        seq(move |x: i64| {
            if iterations.fetch_add(1, Ordering::SeqCst) == 0 {
                started.store(true, Ordering::SeqCst);
                let seen = wait_for(|| panicked.load(Ordering::SeqCst), patience);
                overlapped.store(seen, Ordering::SeqCst);
            }
            x + 1
        })
    };
    let sibling = {
        let (started, panicked) = (started.clone(), panicked.clone());
        seq(move |_: i64| -> i64 {
            wait_for(|| started.load(Ordering::SeqCst), patience);
            panicked.store(true, Ordering::SeqCst);
            panic!("the sibling fails")
        })
    };
    let counted_merges = merges.clone();
    let program = fork(
        |x: i64| vec![x, x],
        vec![sfor(ITERATIONS, body), sibling],
        move |parts: Vec<i64>| {
            counted_merges.fetch_add(1, Ordering::SeqCst);
            parts.into_iter().sum::<i64>()
        },
    );

    let engine = Engine::new(2);
    let got = engine.submit(&program, 0).get();
    assert!(
        matches!(&got, Err(EngineError::MusclePanic(m)) if m.contains("sibling fails")),
        "{got:?}"
    );
    engine.pool().wait_idle();
    // Both children are unobserved and fan-less, so the fork's two
    // claimers run them, one on each worker. A claimer is guarded as a
    // whole: the loop, begun before the poison, runs to its end, then
    // completes into a join that never closes.
    assert!(
        overlapped.load(Ordering::SeqCst),
        "the loop ran beside its sibling"
    );
    assert_eq!(iterations.load(Ordering::SeqCst), ITERATIONS);
    assert_eq!(merges.load(Ordering::SeqCst), 0, "the item never resolves");

    let (healthy, _) = counted(&sfor(4, seq(|x: i64| x * 2)));
    assert_eq!(engine.submit(&healthy, 1).get(), Ok(16));
    engine.shutdown();
}

/// Pool tasks one `sfor(10_000, seq)` item starts on `engine`.
fn tasks_per_long_loop(engine: &Engine) -> usize {
    let program = sfor(10_000, seq(|x: i64| x + 1));
    let tasks = engine.pool().telemetry();
    let before = tasks.tasks_started();
    assert_eq!(engine.submit(&program, 0).get(), Ok(10_000));
    engine.pool().wait_idle();
    tasks.tasks_started() - before
}

#[test]
fn an_unobserved_loop_is_one_task_and_an_observed_one_is_stepwise() {
    let engine = Engine::new(2);
    assert_eq!(tasks_per_long_loop(&engine), 1);
    // Observed, each iteration is a step: a task runs its own and 64
    // more inline, up to the depth cap, then hands the chain on.
    engine.registry().add_listener(CountingListener::new());
    assert_eq!(tasks_per_long_loop(&engine), 10_000usize.div_ceil(65));
    engine.shutdown();
}
