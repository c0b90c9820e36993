//! Micro-bench for the autonomic analysis pipeline: ADG construction, both
//! scheduling strategies, and one analysis's layouts as the controller
//! computes them, at growing problem sizes. Substantiates the paper's
//! claim that runtime estimation (no pre-calculated estimates) is
//! affordable.
//!
//! A purely predictive graph never touches an instance record, so each
//! size is also built from a *half-finished* run — finished inner maps,
//! live ones, and ones not started yet — both into a fresh workspace
//! (every record matched, every finished block derived) and into the one
//! the controller keeps (finished blocks copied).

use std::sync::{Arc, Mutex};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use askel_core::{
    best_effort, limited_lp, ActState, Adg, AdgWorkspace, EstimatorTable, Scheduler, SmTracker,
};
use askel_events::{Event, EventRecord, FnListener, Payload};
use askel_sim::cost::{JitterCost, TableCost};
use askel_sim::SimEngine;
use askel_skeletons::{map, seq, MuscleRole, Skel, TimeNs};

/// `card` sub-problems at each of two levels: ≈ `card²` activities.
fn nested_map(card: usize) -> Skel<Vec<i64>, i64> {
    let chunks = move |v: Vec<i64>| -> Vec<Vec<i64>> {
        let size = v.len().div_ceil(card);
        v.chunks(size).map(<[i64]>::to_vec).collect()
    };
    let sum = |p: Vec<i64>| p.into_iter().sum::<i64>();
    map(chunks, map(chunks, seq(sum), sum), sum)
}

/// Nested map whose predicted ADG has ≈ `card²` activities.
fn tracker_for(card: usize) -> (SmTracker, Skel<Vec<i64>, i64>) {
    let skel = nested_map(card);
    let mut tracker = SmTracker::new(0.5);
    let est = tracker.estimates_mut();
    for m in skel.node().collect_muscles() {
        est.init_duration(m.id, TimeNs::from_millis(10));
        if m.id.role == MuscleRole::Split {
            est.init_cardinality(m.id, card as f64);
        }
    }
    (tracker, skel)
}

/// The same program half-way through a simulated run at LP 4: the tracker
/// has seen the first half of the run's events and holds the whole run's
/// estimates. Returns the time of the last event seen.
fn live_tracker_for(card: usize) -> (SmTracker, Skel<Vec<i64>, i64>, TimeNs) {
    let skel = nested_map(card);
    let cost = JitterCost::new(TableCost::new(TimeNs::from_millis(10)), 0.5, 7);
    let mut sim = SimEngine::new(4, Arc::new(cost));
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    sim.registry().add_listener(Arc::new(FnListener(
        move |_: &mut Payload<'_>, e: &Event| {
            sink.lock().unwrap().push(EventRecord::from(e));
        },
    )));
    sim.run(&skel, (0..(card * card) as i64).collect())
        .expect("the simulated run completes");
    let events = events.lock().unwrap();

    let mut whole = SmTracker::new(0.5);
    for event in events.iter() {
        whole.observe(*event);
    }
    let estimates = EstimatorTable::from_snapshot(&whole.estimates().snapshot());
    let mut tracker = SmTracker::new(0.5);
    *tracker.estimates_mut() = estimates;
    let seen = &events[..events.len() / 2];
    for event in seen {
        tracker.observe(*event);
    }
    let now = seen.last().expect("a run has events").timestamp;
    (tracker, skel, now)
}

fn bench_adg_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("adg_build_predictive");
    group.sample_size(30);
    for card in [4usize, 16, 32] {
        let (tracker, skel) = tracker_for(card);
        group.bench_with_input(BenchmarkId::new("card", card), &card, |b, _| {
            b.iter(|| {
                AdgWorkspace::new(skel.node())
                    .build_predictive(tracker.estimates())
                    .len()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("adg_build_live");
    group.sample_size(30);
    for card in [4usize, 16, 32] {
        let (tracker, skel, _) = live_tracker_for(card);
        group.bench_with_input(BenchmarkId::new("fresh", card), &card, |b, _| {
            b.iter(|| AdgWorkspace::new(skel.node()).build(&tracker).len())
        });
        let mut workspace = AdgWorkspace::new(skel.node());
        group.bench_with_input(BenchmarkId::new("kept", card), &card, |b, _| {
            b.iter(|| workspace.build(&tracker).len())
        });
    }
    group.finish();
}

/// The LP the controller rows analyse at.
const LP: usize = 8;

/// One analysis's layouts as the controller computes them: the finish at
/// the current LP, best effort, and the decrease probe at half the LP
/// against a goal of that finish — a probe the controller skips when
/// `max(best effort, now + pending work ÷ lp)` already misses the goal.
/// (That bound is private to the scheduler; `pending_work` is summed in
/// the same pass that prepares the layouts, so it is summed once here.)
fn controller_layouts(scheduler: &mut Scheduler, adg: &Adg, now: TimeNs, pending_work: u64) {
    let mut layouts = scheduler.on(adg, now);
    let goal = layouts.limited_lp(LP);
    let bound = layouts
        .best_effort()
        .max(now + TimeNs(pending_work / (LP / 2) as u64));
    if bound <= goal {
        layouts.limited_lp(LP / 2);
    }
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("strategies");
    group.sample_size(30);
    for card in [4usize, 16, 32] {
        let (tracker, skel) = tracker_for(card);
        let predicted = (
            AdgWorkspace::new(skel.node())
                .build_predictive(tracker.estimates())
                .clone(),
            TimeNs::ZERO,
        );
        let (tracker, skel, now) = live_tracker_for(card);
        let live = (AdgWorkspace::new(skel.node()).build(&tracker).clone(), now);
        for (graph, (adg, now)) in [("predicted", &predicted), ("live", &live)] {
            let pending_work = adg
                .activities
                .iter()
                .filter(|a| matches!(a.state, ActState::Pending))
                .map(|a| a.est.0)
                .sum();
            let mut scheduler = Scheduler::default();
            group.bench_with_input(
                BenchmarkId::new(format!("controller/{graph}"), adg.len()),
                adg,
                |b, adg| b.iter(|| controller_layouts(&mut scheduler, adg, *now, pending_work)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("best_effort/{graph}"), adg.len()),
                adg,
                |b, adg| b.iter(|| best_effort(adg, *now)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("limited_lp_8/{graph}"), adg.len()),
                adg,
                |b, adg| b.iter(|| limited_lp(adg, *now, LP)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_adg_build, bench_strategies);
criterion_main!(benches);
