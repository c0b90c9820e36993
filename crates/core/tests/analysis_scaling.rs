//! What one controller analysis may cost: nothing from the allocator once
//! its buffers have grown, and — in release builds, where timing means
//! something — time that grows like `n log n` in the graph's size, not
//! like `n²`. A coarse gate with a wide band: it compares two sizes in
//! one process, so the host's speed cancels out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use askel_core::{
    AutonomicController, ControllerConfig, DecreasePolicy, FnActuator, ANALYSIS_LOG_CAPACITY,
};
use askel_events::{Event, EventInfo, FnListener, Listener, Payload, Trace, When, Where};
use askel_sim::cost::{JitterCost, TableCost};
use askel_sim::SimEngine;
use askel_skeletons::{map, seq, InstanceId, KindTag, MuscleId, MuscleRole, Skel, TimeNs};

/// Counts this thread's heap allocations (the other test's thread shares
/// the process).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // Plain data with no destructor: always accessible, never allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `outer × inner` leaves under two levels of `map`:
/// `2 + outer × (inner + 2)` activities.
fn nested_map(outer: usize, inner: usize) -> Skel<Vec<i64>, i64> {
    let chunks = |parts: usize| {
        move |v: Vec<i64>| -> Vec<Vec<i64>> {
            let size = v.len().div_ceil(parts);
            v.chunks(size).map(<[i64]>::to_vec).collect()
        }
    };
    let sum = |p: Vec<i64>| p.into_iter().sum::<i64>();
    map(chunks(outer), map(chunks(inner), seq(sum), sum), sum)
}

/// A controller half-way through a run of `nested_map(outer, inner)` at
/// LP 8 — finished inner maps, live ones, ones not begun — that analyses
/// only when forced and never decides anything (a far goal, no decrease):
/// each forced analysis is one build, one preparation pass over the graph
/// (best effort is computed in it, not laid out apart) and one limited-LP
/// layout. Returns it with the time of the last event it saw.
fn live_controller(outer: usize, inner: usize) -> (Arc<AutonomicController>, TimeNs) {
    let program = nested_map(outer, inner);
    let config = ControllerConfig::new(TimeNs::from_secs(1_000_000), 64)
        .initial_lp(8)
        .decrease(DecreasePolicy::Never)
        .manual_analysis(true);
    let controller = |config: ControllerConfig| {
        AutonomicController::new(program.node().clone(), config, Arc::new(FnActuator(|_| {})))
    };

    // A whole run: its events, and the estimates it ends with.
    let whole = controller(config.clone());
    let cost = JitterCost::new(TableCost::new(TimeNs::from_millis(10)), 0.5, 11);
    let mut sim = SimEngine::new(8, Arc::new(cost));
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    sim.registry().add_listener(whole.clone());
    sim.registry().add_listener(Arc::new(FnListener(
        move |_: &mut Payload<'_>, e: &Event| {
            sink.lock().unwrap().push(e.clone());
        },
    )));
    sim.run(&program, (0..(outer * inner) as i64).collect())
        .expect("the simulated run completes");
    let events = events.lock().unwrap();

    let live = controller(config);
    live.init_estimates(&whole.snapshot());
    let seen = &events[..events.len() / 2];
    for event in seen {
        live.on_event(&mut Payload::None, event);
    }
    (live, seen.last().expect("a run has events").timestamp)
}

#[test]
fn a_steady_state_analysis_allocates_nothing() {
    let (controller, now) = live_controller(12, 12);
    // Grow every buffer, and the analysis log past a doubling: 130
    // records sit in 256 slots, so the next 100 fit.
    for _ in 0..130 {
        controller.force_analyze(now);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..100 {
        controller.force_analyze(now);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(controller.analyses(), 230, "every forced analysis ran");
    assert_eq!(allocations, 0);
}

#[test]
fn the_analysis_log_keeps_the_latest_records_and_then_stops_growing() {
    // One running `seq` with a known duration: a one-activity graph.
    let program = seq(|x: i64| x);
    let node = program.node();
    let config = ControllerConfig::new(TimeNs::from_secs(1_000_000), 4).manual_analysis(true);
    let controller = AutonomicController::new(node.clone(), config, Arc::new(FnActuator(|_| {})));
    let fe = MuscleId::new(node.id, MuscleRole::Execute);
    controller
        .knowledge()
        .with_estimates(|table| table.init_duration(fe, TimeNs::from_secs(1)));
    controller.on_event(
        &mut Payload::None,
        &Event {
            node: node.id,
            kind: KindTag::Seq,
            when: When::Before,
            wher: Where::Skeleton,
            index: InstanceId(1),
            trace: Trace::root(node.id, InstanceId(1), KindTag::Seq),
            timestamp: TimeNs(0),
            info: EventInfo::None,
        },
    );
    let n = ANALYSIS_LOG_CAPACITY as u64;
    for now in 0..3 * n {
        controller.force_analyze(TimeNs(now));
    }
    assert_eq!(controller.analyses() as u64, 3 * n);
    let log = controller.analysis_log();
    assert!(
        log.iter().map(|r| r.at.0).eq(2 * n..3 * n),
        "the last {n} analyses, oldest first"
    );
    // Full, the log is a ring: nothing more from the allocator, ever.
    let before = ALLOCATIONS.with(Cell::get);
    for now in 3 * n..3 * n + 1_000 {
        controller.force_analyze(TimeNs(now));
    }
    assert_eq!(ALLOCATIONS.with(Cell::get) - before, 0);
    let log = controller.analysis_log();
    assert_eq!(log.len() as u64, n);
    assert_eq!(log.last().map(|r| r.at.0), Some(3 * n + 999));
}

/// Median over five samples of the wall time of 50 analyses, in ns.
fn analysis_time(controller: &AutonomicController, now: TimeNs) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..50 {
                controller.force_analyze(now);
            }
            started.elapsed().as_nanos() as f64 / 50.0
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing ratio: release builds only")]
fn analysis_time_grows_like_n_log_n() {
    let (small, small_now) = live_controller(16, 16);
    let (large, large_now) = live_controller(32, 34);
    for (controller, now) in [(&small, small_now), (&large, large_now)] {
        for _ in 0..20 {
            controller.force_analyze(now); // grow the buffers
        }
    }
    let (n, four_n) = (2 + 16 * 18, 2 + 32 * 36);
    assert_eq!(four_n, 4 * n - 6);
    let small_ns = analysis_time(&small, small_now);
    let large_ns = analysis_time(&large, large_now);
    let ratio = large_ns / small_ns;
    println!("{n} activities: {small_ns:.0} ns; {four_n}: {large_ns:.0} ns; ratio {ratio:.2}");
    // 4 × log₂(4n)/log₂(n) ≈ 4.6; the pre-rewrite layout, which scanned
    // its ready list for every start, reads 16 here.
    assert!(
        ratio <= 8.0,
        "analysis time grew {ratio:.1}× for 4× the graph"
    );
}
