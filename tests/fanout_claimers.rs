//! A `map` or `fork` whose children are all unobserved and fan-less runs
//! them on threads through at most LP claimers over one shared cursor,
//! instead of one step each, and changes nothing anyone can see but its
//! cost: results equal [`Skel::apply`] exactly once and in order at 1–4
//! workers, with no listener and under one reading a single muscle, where
//! each item raises what the stepwise simulator raises for the same read
//! set. Claims are one child each, so skewed children spread over the
//! claimers; a panicking child fails its item once; the fan-out starts at
//! most LP pool tasks beside its root's; and each child is metered as one
//! muscle, so the parent's markers read the clock afresh. A structural
//! sibling of a fan-out gets a step of its own rather than running inline
//! before its siblings are out.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use askel_engine::{Engine, EngineError, StreamSession};
use askel_events::{EventFilter, EventInfo, Reads, When, Where};
use askel_sim::cost::ZeroCost;
use askel_sim::SimEngine;
use askel_skeletons::{fork, map, pipe, seq, sfor, KindTag, MuscleId, MuscleRole, Skel};

mod programs;
use programs::{program_strategy, streams_like_the_reference, Heard, Program};

fn sum(parts: Vec<i64>) -> i64 {
    parts.iter().fold(0i64, |s, v| s.wrapping_add(*v))
}

/// A fan-out over generated children: a `map` of `c` parts over `a`, or
/// a `fork` of `a` and `b`, alone, after a stage, or twice in a loop.
fn fanned_strategy() -> impl Strategy<Value = Program> {
    (program_strategy(), program_strategy(), 1usize..40, 0u8..6).prop_map(|(a, b, c, shape)| {
        let (fanned, desc) = if shape % 2 == 0 {
            let split = move |x: i64| (0..c as i64).map(|k| x.wrapping_add(k)).collect();
            let skel = map(split, a.skel, sum);
            (skel, format!("map({c}, {})", a.desc))
        } else {
            let split = |x: i64| vec![x, x.wrapping_add(1)];
            let skel = fork(split, vec![a.skel, b.skel], sum);
            (skel, format!("fork({}, {})", a.desc, b.desc))
        };
        match shape / 2 {
            0 => Program { skel: fanned, desc },
            1 => Program {
                skel: pipe(seq(|x: i64| x.wrapping_mul(5)), fanned),
                desc: format!("pipe(*5, {desc})"),
            },
            _ => Program {
                skel: sfor(2, fanned),
                desc: format!("for(2, {desc})"),
            },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn claimed_children_leave_results_and_events_as_they_were(
        program in fanned_strategy(),
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
        let read = Reads::muscle(muscles[pick % muscles.len()]);

        // The simulator meters every muscle, so it runs every fan-out
        // stepwise: its per-item events are the reference.
        let mut sim = SimEngine::new(2, Arc::new(ZeroCost));
        let listener = Heard::new(read.clone());
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

            let listener = Heard::new(read.clone());
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

/// `map` over 32 parts, the first 16 of which sleep 1 ms.
fn skewed_map() -> (Skel<i64, i64>, MuscleId) {
    let body = seq(|k: i64| {
        if k < 16 {
            std::thread::sleep(Duration::from_millis(1));
        }
        k
    });
    let read = MuscleId::new(body.id(), MuscleRole::Execute);
    let skel = map(|_: i64| (0..32).collect::<Vec<i64>>(), body, sum);
    (skel, read)
}

/// The fastest of three runs of one `skewed_map` item on `engine`.
fn fastest_skewed_item(engine: &Engine, program: &Skel<i64, i64>) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(engine.submit(program, 0).get(), Ok((0..32).sum()));
            start.elapsed()
        })
        .min()
        .expect("three runs")
}

#[test]
fn skewed_children_spread_over_the_claimers() {
    let (program, body) = skewed_map();
    let engine = Engine::new(2);
    let claimed = fastest_skewed_item(&engine, &program);
    // A listener reading the body traces every child: one step each.
    engine
        .registry()
        .add_listener(Heard::new(Reads::muscle(body)));
    let stepwise = fastest_skewed_item(&engine, &program);
    engine.shutdown();
    // One claim is one child, so the 16 slow ones split between the two
    // claimers (≈ 8 ms) rather than landing in one block (≈ 16 ms).
    assert!(
        claimed.as_secs_f64() <= 1.25 * stepwise.as_secs_f64(),
        "claimed {claimed:?}, stepwise {stepwise:?}"
    );
}

#[test]
fn a_panicking_claimed_child_fails_its_item_once() {
    let merges = Arc::new(AtomicUsize::new(0));
    let counted_merges = Arc::clone(&merges);
    let program = map(
        |x: i64| (x..x + 8).collect::<Vec<i64>>(),
        seq(|x: i64| {
            assert!(x != 3, "the body rejects 3");
            x * 2
        }),
        move |parts: Vec<i64>| {
            counted_merges.fetch_add(1, Ordering::SeqCst);
            parts.into_iter().sum::<i64>()
        },
    );
    let engine = Engine::new(2);
    let mut session = StreamSession::new(&engine, &program);
    for x in [10, 0, 20] {
        session.feed(x);
    }
    let got: Vec<_> = session.drain().collect();
    assert_eq!(got.len(), 3);
    assert_eq!(got[0], Ok((10..18).sum::<i64>() * 2));
    assert!(
        matches!(&got[1], Err(EngineError::MusclePanic(m)) if m.contains("rejects 3")),
        "{:?}",
        got[1]
    );
    assert_eq!(got[2], Ok((20..28).sum::<i64>() * 2));
    engine.pool().wait_idle();
    assert_eq!(
        merges.load(Ordering::SeqCst),
        2,
        "the failed item never merges"
    );
    // The engine serves the next item.
    assert_eq!(
        engine.submit(&program, 100).get(),
        Ok((100..108).sum::<i64>() * 2)
    );
    engine.shutdown();
}

#[test]
fn an_unobserved_map_starts_at_most_lp_claimer_tasks() {
    let program = map(
        |x: i64| (x..x + 32).collect::<Vec<i64>>(),
        seq(|x: i64| x + 1),
        sum,
    );
    for lp in 1..=4 {
        let engine = Engine::new(lp);
        assert_eq!(engine.submit(&program, 0).get(), Ok((1..33).sum()));
        engine.pool().wait_idle();
        let tasks = engine.pool().telemetry().tasks_started();
        // The root's task, and all claimers but the one in its tail.
        assert!(tasks <= lp + 1, "{tasks} tasks at LP {lp}");
        engine.shutdown();
    }
}

#[test]
fn each_claimed_child_reads_the_clock_afresh() {
    let program = map(
        |x: i64| vec![x; 4],
        seq(|x: i64| {
            std::thread::sleep(Duration::from_millis(1));
            x
        }),
        sum,
    );
    // One claimer runs the four children in turn; a listener on the map
    // alone leaves them untraced.
    let engine = Engine::new(1);
    let listener = Heard::new(Reads::All);
    let on_the_map = EventFilter::all().kind(KindTag::Map);
    engine.registry().add_filtered(on_the_map, listener.clone());
    assert_eq!(engine.submit(&program, 1).get(), Ok(4));
    engine.shutdown();
    let ended: Vec<(EventInfo, u64)> = listener
        .take()
        .into_iter()
        .filter(|e| e.when == When::After && e.wher == Where::NestedSkeleton)
        .map(|e| (e.info, e.timestamp.0))
        .collect();
    let children: Vec<EventInfo> = ended.iter().map(|&(info, _)| info).collect();
    assert_eq!(
        children,
        (0..4).map(EventInfo::ChildIndex).collect::<Vec<_>>()
    );
    for pair in ended.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1 + 1_000_000,
            "each child took 1 ms: {ended:?}"
        );
    }
}

#[test]
fn a_structural_sibling_starts_while_the_loop_beside_it_runs() {
    const ITERATIONS: usize = 8;
    let iterations = Arc::new(AtomicUsize::new(0));
    let beside = Arc::new(AtomicBool::new(false));
    let body = {
        let iterations = Arc::clone(&iterations);
        seq(move |x: i64| {
            std::thread::sleep(Duration::from_millis(2));
            iterations.fetch_add(1, Ordering::SeqCst);
            x + 1
        })
    };
    let read = MuscleId::new(body.id(), MuscleRole::Execute);
    let sibling = {
        let (iterations, beside) = (Arc::clone(&iterations), Arc::clone(&beside));
        seq(move |x: i64| {
            beside.store(
                iterations.load(Ordering::SeqCst) < ITERATIONS,
                Ordering::SeqCst,
            );
            x
        })
    };
    let program = fork(
        |x: i64| vec![x, x],
        vec![sfor(ITERATIONS, body), sibling],
        sum,
    );
    // Read, the loop runs stepwise: it would run inline, up to 64
    // iterations, if its hint were ignored.
    let engine = Engine::new(2);
    engine
        .registry()
        .add_listener(Heard::new(Reads::muscle(read)));
    assert_eq!(engine.submit(&program, 0).get(), Ok(ITERATIONS as i64));
    engine.shutdown();
    assert!(
        beside.load(Ordering::SeqCst),
        "the sibling waited for the whole loop"
    );
}
