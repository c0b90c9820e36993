//! Cross-crate guarantees of the event layer, checked on both engines:
//! pairing, ordering, the thread guarantee, and payload transformation.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;
use std::thread::ThreadId;

use askel_engine::Engine;
use askel_events::util::EventCollector;
use askel_events::{EventFilter, EventRecord, FnListener, When, Where};
use askel_sim::cost::ZeroCost;
use askel_sim::SimEngine;
use askel_skeletons::{map, seq, swhile, InstanceId, Skel};

fn nested_map() -> Skel<Vec<i64>, i64> {
    let inner = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] + 1),
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    map(
        |v: Vec<i64>| v.chunks(2).map(|c| c.to_vec()).collect::<Vec<_>>(),
        inner,
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    )
}

/// Every Before event must have exactly one matching After event with the
/// same (node, index, wher), and Before must come first.
fn assert_paired(events: &[EventRecord]) {
    let mut open: HashMap<(u64, u64, Where), usize> = HashMap::new();
    for e in events {
        let key = (e.node.0, e.index.0, e.wher);
        match e.when {
            When::Before => *open.entry(key).or_insert(0) += 1,
            When::After => {
                let c = open.get_mut(&key).unwrap_or_else(|| {
                    panic!("After without Before: {e:?}");
                });
                assert!(*c > 0, "After without open Before: {e:?}");
                *c -= 1;
            }
        }
    }
    // While/for raise several nested/condition pairs per instance; all
    // must be closed at the end.
    for (key, count) in open {
        assert_eq!(count, 0, "unclosed Before for {key:?}");
    }
}

#[test]
fn sim_events_are_paired_and_deterministic() {
    let program = nested_map();
    let run = || {
        let collector = EventCollector::new();
        let mut sim = SimEngine::new(2, Arc::new(ZeroCost));
        sim.registry().add_listener(collector.clone());
        sim.run(&program, (1..=6).collect()).unwrap();
        collector.snapshot()
    };
    let a = run();
    assert_paired(&a);
    let b = run();
    // Same structure run-to-run (instance ids differ; shapes must match).
    let shape = |evs: &[EventRecord]| {
        evs.iter()
            .map(|e| (e.node, e.when, e.wher))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&a), shape(&b));
}

#[test]
fn threaded_events_are_paired() {
    let program = nested_map();
    let collector = EventCollector::new();
    let engine = Engine::new(3);
    engine.registry().add_listener(collector.clone());
    engine.submit(&program, (1..=6).collect()).get().unwrap();
    engine.shutdown();
    let events = collector.snapshot();
    assert_paired(&events);
    // 1 outer map + 3 inner maps + 6 seqs... exact counts: outer: b/a,
    // bs/as, bm/am, 3×(bn/an) = 12; inner ×3: 12+... keep it structural:
    let seq_events = events
        .iter()
        .filter(|e| e.kind == askel_skeletons::KindTag::Seq)
        .count();
    assert_eq!(seq_events, 12, "6 seq instances × (before + after)");
}

#[test]
fn seq_before_and_after_fire_on_the_muscles_thread() {
    // The paper's guarantee: the handler runs on the same thread as the
    // related muscle. For seq, Before/After bracket fe directly; we record
    // the thread ids seen by the listener and by the muscle itself.
    let muscle_threads: Arc<Mutex<Vec<ThreadId>>> = Arc::new(Mutex::new(Vec::new()));
    let event_threads: Arc<Mutex<Vec<(When, ThreadId)>>> = Arc::new(Mutex::new(Vec::new()));

    let mt = Arc::clone(&muscle_threads);
    let program: Skel<i64, i64> = seq(move |x: i64| {
        mt.lock().unwrap().push(std::thread::current().id());
        x * 2
    });

    let engine = Engine::new(2);
    let et = Arc::clone(&event_threads);
    engine.registry().add_filtered(
        EventFilter::all().kind(askel_skeletons::KindTag::Seq),
        Arc::new(FnListener(
            move |_: &mut askel_events::Payload<'_>, e: &askel_events::Event| {
                et.lock()
                    .unwrap()
                    .push((e.when, std::thread::current().id()));
            },
        )),
    );
    engine.submit(&program, 21).get().unwrap();
    engine.shutdown();

    let muscle_thread = muscle_threads.lock().unwrap()[0];
    let events = event_threads.lock().unwrap();
    assert_eq!(events.len(), 2);
    for (when, tid) in events.iter() {
        assert_eq!(
            *tid, muscle_thread,
            "{when} event must run on the muscle's thread"
        );
    }
}

#[test]
fn split_cardinality_is_reported() {
    let program = nested_map();
    let collector = EventCollector::new();
    let mut sim = SimEngine::new(1, Arc::new(ZeroCost));
    sim.registry().add_listener(collector.clone());
    sim.run(&program, (1..=6).collect()).unwrap();
    let outer_card: Vec<usize> = collector
        .snapshot()
        .iter()
        .filter(|e| e.node == program.id() && e.wher == Where::Split && e.when == When::After)
        .filter_map(|e| e.info().split_cardinality())
        .collect();
    assert_eq!(
        outer_card,
        vec![3],
        "6 items / chunks of 2 = 3 sub-problems"
    );
}

#[test]
fn transforming_listener_changes_the_result_on_both_engines() {
    let program: Skel<i64, i64> = seq(|x: i64| x + 1);
    let make_listener = || {
        Arc::new(FnListener(
            |p: &mut askel_events::Payload<'_>, e: &askel_events::Event| {
                if e.when == When::After {
                    if let Some(x) = p.downcast_mut::<i64>() {
                        *x *= 10;
                    }
                }
            },
        ))
    };

    let engine = Engine::new(1);
    engine.registry().add_listener(make_listener());
    let threaded = engine.submit(&program, 4).get().unwrap();
    engine.shutdown();

    let mut sim = SimEngine::new(1, Arc::new(ZeroCost));
    sim.registry().add_listener(make_listener());
    let simulated = sim.run(&program, 4).unwrap().result;

    assert_eq!(threaded, 50);
    assert_eq!(simulated, 50);
}

#[test]
fn while_condition_results_are_observable() {
    let program = swhile(|x: &i64| *x < 3, seq(|x: i64| x + 1));
    let collector = EventCollector::new();
    let mut sim = SimEngine::new(1, Arc::new(ZeroCost));
    sim.registry().add_listener(collector.clone());
    let out = sim.run(&program, 0).unwrap();
    assert_eq!(out.result, 3);
    let verdicts: Vec<bool> = collector
        .snapshot()
        .iter()
        .filter(|e| e.wher == Where::Condition && e.when == When::After)
        .filter_map(|e| e.info().condition_result())
        .collect();
    assert_eq!(verdicts, vec![true, true, true, false]);
}

#[test]
fn instance_indices_correlate_before_and_after() {
    let program = nested_map();
    let collector = EventCollector::new();
    let mut sim = SimEngine::new(2, Arc::new(ZeroCost));
    sim.registry().add_listener(collector.clone());
    sim.run(&program, (1..=6).collect()).unwrap();
    // For every instance index, the set of events forms the full
    // per-instance protocol (skeleton b/a at least).
    let mut per_instance: HashMap<InstanceId, Vec<(When, Where)>> = HashMap::new();
    for e in collector.snapshot() {
        per_instance
            .entry(e.index)
            .or_default()
            .push((e.when, e.wher));
    }
    for (inst, evs) in per_instance {
        assert!(
            evs.contains(&(When::Before, Where::Skeleton)),
            "{inst}: missing skeleton-begin"
        );
        assert!(
            evs.contains(&(When::After, Where::Skeleton)),
            "{inst}: missing skeleton-end"
        );
    }
}
