//! A submission whose listeners all accept spans raises each `seq`
//! instance as one event: no `(Before, Skeleton)`, and an `(After,
//! Skeleton)` carrying the start. What a rule reads of a knowledge fed
//! that form — the estimator table, and the ended roots' spans, which
//! are all a trigger's forecast audits read — must be what the same run's
//! two events per `seq` would have left.
//!
//! Each program of `streams/mod.rs` (`for`, `map`, `d&C`, `while` and the
//! other kinds, plus a lone `seq` whose every span is a root's) is run on
//! the simulator under `SeededRandom` at 1–4 workers twice, with the same
//! seed: heard by a listener that accepts spans and by one that does not.
//! The two runs must differ by the spans alone. Both streams are then
//! dealt over threads by instance, as a pool's workers would raise them,
//! each to its own lone knowledge, and both knowledges are folded at the
//! same points.

use std::sync::{mpsc, OnceLock};

use askel_core::Knowledge;
use askel_events::{Event, EventInfo, Listener, Payload, When, Where};
use askel_skeletons::{seq, KindTag};

mod streams;

/// One event of the two-event form and what the span form raised in its
/// place: the same event, the span (for a `seq`'s `After`) or nothing
/// (for a `seq`'s `Before`).
type Aligned = (Event, Option<Event>);

fn is_seq_begin(e: &Event) -> bool {
    e.is(KindTag::Seq, When::Before, Where::Skeleton)
}

/// What an event is, but for the instance ids a run draws afresh.
fn shape(e: &Event) -> (u64, KindTag, When, Where, EventInfo, u64, usize) {
    let (node, ts) = (e.node.0, e.timestamp.0);
    (node, e.kind, e.when, e.wher, e.info, ts, e.trace.depth())
}

/// Pairs each event of `pairs` with its counterpart in `spans`, checking
/// that the span form is the two-event form with each `seq`'s `Before`
/// dropped and its timestamp carried by the `After`.
fn align(pairs: Vec<Event>, spans: Vec<Event>, context: &str) -> Vec<Aligned> {
    let mut spans = spans.into_iter();
    let mut begun = std::collections::HashMap::new();
    let aligned: Vec<Aligned> = pairs
        .into_iter()
        .map(|e| {
            if is_seq_begin(&e) {
                begun.insert(e.index, e.timestamp);
                return (e, None);
            }
            let mut expected = shape(&e);
            if e.is(KindTag::Seq, When::After, Where::Skeleton) {
                expected.4 = EventInfo::Started(begun[&e.index]);
            }
            let span = spans
                .next()
                .unwrap_or_else(|| panic!("{context}: ran short"));
            assert_eq!(shape(&span), expected, "{context}");
            (e, Some(span))
        })
        .collect();
    assert!(spans.next().is_none(), "{context}: spans left over");
    aligned
}

/// Every program of `streams` at 1–4 workers, both forms aligned, whole
/// and with events lost.
fn recorded() -> &'static [(String, usize, Vec<Aligned>)] {
    static STREAMS: OnceLock<Vec<(String, usize, Vec<Aligned>)>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        let mut out = Vec::new();
        let root_seq = ("seq", seq(|x: i64| x * 2), vec![1, 2, 3, 4]);
        for (name, program, inputs) in streams::programs().into_iter().chain([root_seq]) {
            for lp in 1..=4 {
                let context = format!("{name} at {lp} workers");
                let pairs = streams::record(&program, &inputs, lp, 3);
                let spans = streams::record_as(&program, &inputs, lp, 3, true);
                let aligned = align(pairs, spans, &context);
                let lossy = with_losses(&aligned);
                out.push((context.clone(), lp, aligned));
                out.push((format!("{context}, lossy"), lp, lossy));
            }
        }
        out
    })
}

/// `streams::with_losses` of the two-event form, and the span form's
/// counterparts of the events it kept: a `seq` that never ends is no span.
fn with_losses(aligned: &[Aligned]) -> Vec<Aligned> {
    let pairs: Vec<Event> = aligned.iter().map(|(e, _)| e.clone()).collect();
    let mut kept = streams::with_losses(&pairs, 5).into_iter().peekable();
    let same = |a: &Event, b: &Event| a.index == b.index && shape(a) == shape(b);
    aligned
        .iter()
        .filter(|(e, _)| kept.next_if(|k| same(k, e)).is_some())
        .cloned()
        .collect()
}

/// Takes both knowledges' logs, checks that they differ by the `seq`
/// beginnings alone, puts each back as it was drained and folds both.
/// Returns how many spans there were.
fn fold_both(spanning: &Knowledge, plain: &Knowledge, context: &str) -> usize {
    let (mut with, mut without) = (Vec::new(), Vec::new());
    spanning.log().drain_into(&mut with);
    plain.log().drain_into(&mut without);
    let spans = with.iter().filter(|r| r.span_start().is_some()).count();
    let begins = without
        .iter()
        .filter(|r| (r.kind, r.when, r.wher) == (KindTag::Seq, When::Before, Where::Skeleton))
        .count();
    assert!(
        without.iter().all(|r| r.span_start().is_none()),
        "{context}"
    );
    assert_eq!(with.len() + begins, without.len(), "{context}");
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

/// Deals `aligned` over `lanes` threads — instance `i`'s events to lane
/// `deal[i % deal.len()]` — one event at a time, the two-event form to
/// one lone knowledge and the span form to another, folding both after
/// every `period` events; returns how many spans formed.
fn feed_both(
    aligned: &[Aligned],
    lanes: usize,
    deal: &[usize],
    period: usize,
    context: &str,
) -> usize {
    let spanning = Knowledge::new(0.5);
    let plain = Knowledge::new(0.5);
    assert!(spanning.accepts_spans());
    let mut spans = 0;
    std::thread::scope(|scope| {
        let (done, finished) = mpsc::channel();
        let lanes: Vec<mpsc::Sender<&Aligned>> = (0..lanes)
            .map(|_| {
                let (give, take) = mpsc::channel::<&Aligned>();
                let (done, spanning, plain) = (done.clone(), &spanning, &plain);
                scope.spawn(move || {
                    for (event, span) in take {
                        plain.on_event(&mut Payload::None, event);
                        if let Some(span) = span {
                            spanning.on_event(&mut Payload::None, span);
                        }
                        done.send(()).unwrap();
                    }
                });
                give
            })
            .collect();
        for (i, pair) in aligned.iter().enumerate() {
            let lane = deal[pair.0.index.0 as usize % deal.len()] % lanes.len();
            lanes[lane].send(pair).unwrap();
            finished.recv().unwrap();
            if (i + 1) % period == 0 || i + 1 == aligned.len() {
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
    /// the ended roots exactly as the two events they stand for.
    #[test]
    fn spans_leave_what_their_two_records_would(
        stream in 0usize..1000,
        lanes in 1usize..=4,
        deal in proptest::collection::vec(0usize..4, 1..16),
        period in 1usize..200,
    ) {
        let (name, _, aligned) = &recorded()[stream % recorded().len()];
        let context = format!("{name}, {lanes} lanes, deal {deal:?}, folds every {period}");
        let spans = feed_both(aligned, lanes, &deal, period, &context);
        // Every `seq` that ended is a span, wherever it ran.
        let ended = aligned
            .iter()
            .filter(|(e, _)| e.is(KindTag::Seq, When::After, Where::Skeleton))
            .count();
        proptest::prop_assert_eq!(spans, ended, "{}", context);
    }
}

/// The simulator forms a span for every `seq` at every width: a listener
/// that accepts spans hears no `seq` begin.
#[test]
fn every_recorded_seq_is_one_event() {
    for (name, _, aligned) in recorded() {
        let spans = aligned.iter().filter_map(|(_, span)| span.as_ref());
        assert!(spans.clone().all(|e| !is_seq_begin(e)), "{name}");
        let started = spans.filter(|e| matches!(e.info, EventInfo::Started(_)));
        assert!(started.count() > 0, "{name}");
    }
}
