//! A knowledge no controller analyses logs a finished `seq` instance as
//! one span record when one thread logged its two events back to back.
//! What a rule reads of that knowledge — the estimator table and the
//! ended roots' spans — must be what the two records would have left.
//!
//! Each recorded stream (`streams/mod.rs`: `for`, `map`, `d&C`, `while`
//! and the other kinds, at one and at two simulated workers) is dealt
//! over threads by instance, as a pool's workers would raise it, and each
//! thread hands every event to two lone knowledges: through `on_event`,
//! which closes spans, and as a plain record pushed to the same thread's
//! shard, which does not. Both are folded at the same points.

use std::sync::{mpsc, OnceLock};

use askel_core::Knowledge;
use askel_events::{Event, EventRecord, Listener, Payload};
use askel_skeletons::seq;

mod streams;

/// Every program of `streams`, and a lone `seq` whose every span is a
/// root's, at one and at two workers, whole and with events lost.
fn recorded() -> &'static [(String, usize, Vec<Event>)] {
    static STREAMS: OnceLock<Vec<(String, usize, Vec<Event>)>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        let mut out = Vec::new();
        let root_seq = ("seq", seq(|x: i64| x * 2), vec![1, 2, 3, 4]);
        for (name, program, inputs) in streams::programs().into_iter().chain([root_seq]) {
            for lp in [1, 2] {
                let events = streams::record(&program, &inputs, lp, 3);
                let lossy = streams::with_losses(&events, 5);
                out.push((format!("{name} at {lp} workers"), lp, events));
                out.push((format!("{name} at {lp} workers, lossy"), lp, lossy));
            }
        }
        out
    })
}

/// Takes both knowledges' logs, checks that they differ by the spans
/// alone, puts each back as it was drained and folds both. Returns how
/// many spans there were.
fn fold_both(spanning: &Knowledge, plain: &Knowledge, context: &str) -> usize {
    let (mut with, mut without) = (Vec::new(), Vec::new());
    spanning.log().drain_into(&mut with);
    plain.log().drain_into(&mut without);
    let spans = with.iter().filter(|r| r.span_start().is_some()).count();
    assert_eq!(with.len() + spans, without.len(), "{context}");
    for (knowledge, records) in [(spanning, with), (plain, without)] {
        // One shard replays in the order given.
        for record in records {
            assert!(knowledge.log().try_push_to(0, record), "{context}");
        }
    }
    let ended = |k: &Knowledge| k.with_tracker(|t| t.take_finished_roots().collect::<Vec<_>>());
    assert_eq!(ended(spanning), ended(plain), "{context}");
    spans
}

/// Deals `events` over `lanes` threads — instance `i`'s events to lane
/// `deal[i % deal.len()]` — one event at a time, folding both knowledges
/// after every `period` events; returns how many spans formed.
fn feed_both(
    events: &[Event],
    lanes: usize,
    deal: &[usize],
    period: usize,
    context: &str,
) -> usize {
    let spanning = Knowledge::new(0.5);
    let plain = Knowledge::new(0.5);
    let mut spans = 0;
    std::thread::scope(|scope| {
        let (done, finished) = mpsc::channel();
        let lanes: Vec<mpsc::Sender<&Event>> = (0..lanes)
            .map(|_| {
                let (give, take) = mpsc::channel::<&Event>();
                let (done, spanning, plain) = (done.clone(), &spanning, &plain);
                scope.spawn(move || {
                    for event in take {
                        spanning.on_event(&mut Payload::None, event);
                        if plain.interest().contains(event.when, event.wher) {
                            assert!(plain.log().try_push(EventRecord::from(event)));
                        }
                        done.send(()).unwrap();
                    }
                });
                give
            })
            .collect();
        for (i, event) in events.iter().enumerate() {
            let lane = deal[event.index.0 as usize % deal.len()] % lanes.len();
            lanes[lane].send(event).unwrap();
            finished.recv().unwrap();
            if (i + 1) % period == 0 || i + 1 == events.len() {
                spans += fold_both(&spanning, &plain, context);
            }
        }
    });
    let table = |k: &Knowledge| k.read_estimates(|e| e.snapshot());
    assert_eq!(table(&spanning), table(&plain), "{context}");
    assert!(!table(&plain).durations.is_empty(), "{context}");
    spans
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig {
        cases: 96,
        ..Default::default()
    })]

    /// Spans, however the threads and the folds fall, leave the table and
    /// the ended roots exactly as the records they stand for.
    #[test]
    fn spans_leave_what_their_two_records_would(
        stream in 0usize..1000,
        lanes in 1usize..=4,
        deal in proptest::collection::vec(0usize..4, 1..16),
        // At least two events between folds: one cannot split every pair.
        period in 2usize..200,
    ) {
        let (name, lp, events) = &recorded()[stream % recorded().len()];
        let context = format!("{name}, {lanes} lanes, deal {deal:?}, folds every {period}");
        let spans = feed_both(events, lanes, &deal, period, &context);
        // One worker runs a `seq`'s muscle with nothing else in between.
        if *lp == 1 {
            proptest::prop_assert!(spans > 0, "{}", context);
        }
    }
}
