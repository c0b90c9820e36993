//! The controller replays an analysis only when it would compute the
//! same one again. Two halves:
//!
//! * over whole recorded streams (`streams/mod.rs`: all nine kinds,
//!   whole and lossy), a controller left to itself and one that analyses
//!   only through `force_analyze` — which never replays — at the same
//!   instants decide the same things and log the same records;
//! * one hand-built case per thing an analysis reads, showing that
//!   changing it between two same-instant events stops the replay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use askel_core::{
    AutonomicController, ControllerConfig, FnActuator, LpActuator, RaisePolicy, Snapshot,
};
use askel_events::{Event, EventInfo, Listener, Payload, Trace, When, Where};
use askel_skeletons::{map, seq, InstanceId, KindTag, MuscleId, MuscleRole, Skel, TimeNs};

mod streams;

use streams::{programs, record, with_losses};

fn no_actuator() -> Arc<dyn LpActuator> {
    Arc::new(FnActuator(|_| {}))
}

/// Feeds `events` to a controller that analyses by itself and to one that
/// is forced to at every analysis point; returns how many analyses,
/// replays and decisions there were.
fn replay_both_ways(program: &Skel<i64, i64>, events: &[Event], context: &str) -> [usize; 3] {
    // Tight enough that the longer submissions raise, loose enough that
    // the shorter ones halve again.
    let config = ControllerConfig::new(TimeNs::from_millis(120), 8);
    let auto = AutonomicController::new(program.node().clone(), config.clone(), no_actuator());
    let forced = AutonomicController::new(
        program.node().clone(),
        config.manual_analysis(true),
        no_actuator(),
    );
    for event in events {
        auto.on_event(&mut Payload::None, event);
        forced.on_event(&mut Payload::None, event);
        if event.when == When::After
            && AutonomicController::INTEREST.contains(event.when, event.wher)
        {
            forced.force_analyze(event.timestamp);
        }
    }
    assert_eq!(forced.replayed(), 0, "{context}");
    assert_eq!(auto.analyses(), forced.analyses(), "{context}");
    assert_eq!(auto.decisions(), forced.decisions(), "{context}");
    assert_eq!(auto.analysis_log(), forced.analysis_log(), "{context}");
    assert_eq!(auto.snapshot(), forced.snapshot(), "{context}");
    [auto.analyses(), auto.replayed(), auto.decisions().len()]
}

#[test]
fn replaying_equals_recomputing_over_every_recorded_stream() {
    let mut totals = [0; 3];
    for (name, program, inputs) in programs() {
        for (lp, seed) in [(1, 1), (2, 2), (3, 3), (4, 4), (8, 5)] {
            let events = record(&program, &inputs, lp, seed);
            let context = format!("{name}, lp {lp}, seed {seed}");
            let whole = replay_both_ways(&program, &events, &context);
            let context = format!("{context}, lossy");
            let holed = replay_both_ways(&program, &with_losses(&events, seed), &context);
            for (total, n) in totals.iter_mut().zip(whole.iter().zip(holed)) {
                *total += n.0 + n.1;
            }
        }
    }
    let [analyses, replayed, decisions] = totals;
    println!("{analyses} analyses, {replayed} replayed, {decisions} decisions");
    assert!(analyses > 2_000, "only {analyses} analyses compared");
    assert!(
        replayed * 4 > analyses,
        "only {replayed} of {analyses} analyses were replays"
    );
    assert!(decisions > 100, "only {decisions} decisions compared");
}

/// A `map` over `seq` half-way through one submission, driven by
/// hand-made events: the first child has just ended at `T` and the
/// analysis that followed decided nothing, so the parent's `(After,
/// NestedSkeleton)` marker at `T` is a replay — unless a test changes
/// something first.
struct Live {
    program: Skel<Vec<i64>, i64>,
    controller: Arc<AutonomicController>,
    lp_requests: Arc<AtomicUsize>,
}

const ROOT: InstanceId = InstanceId(1);
const T: TimeNs = TimeNs(30);

impl Live {
    /// `goal` from the submission's start at 0; the split makes `card`
    /// children of 20 ns each, the merge is given as 5 ns.
    fn new(goal: TimeNs, card: usize, max_lp: usize) -> Self {
        let program = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let lp_requests = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&lp_requests);
        let controller = AutonomicController::new(
            program.node().clone(),
            ControllerConfig::new(goal, max_lp).raise(RaisePolicy::Doubling),
            Arc::new(FnActuator(move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            })),
        );
        let live = Live {
            program,
            controller,
            lp_requests,
        };
        let merge = MuscleId::new(live.program.node().id, MuscleRole::Merge);
        live.controller
            .knowledge()
            .with_estimates(|table| table.init_duration(merge, TimeNs(5)));
        live.root(When::Before, Where::Skeleton, 0, EventInfo::None);
        live.root(When::Before, Where::Split, 0, EventInfo::None);
        let cards = EventInfo::SplitCardinality(card);
        live.root(When::After, Where::Split, 10, cards);
        live.child(When::Before, 10);
        live.child(When::After, T.0);
        live
    }

    fn send(&self, event: Event) {
        self.controller.on_event(&mut Payload::None, &event);
    }

    /// An event of the root `map` instance.
    fn root(&self, when: When, wher: Where, at: u64, info: EventInfo) {
        let node = self.program.node();
        self.send(Event {
            node: node.id,
            kind: KindTag::Map,
            when,
            wher,
            index: ROOT,
            trace: Trace::root(node.id, ROOT, KindTag::Map),
            timestamp: TimeNs(at),
            info,
        });
    }

    /// A skeleton event of the first child, instance 2.
    fn child(&self, when: When, at: u64) {
        let node = self.program.node();
        let inner = node.children()[0].id;
        self.send(Event {
            node: inner,
            kind: KindTag::Seq,
            when,
            wher: Where::Skeleton,
            index: InstanceId(2),
            trace: Trace::root(node.id, ROOT, KindTag::Map).child(
                inner,
                InstanceId(2),
                KindTag::Seq,
            ),
            timestamp: TimeNs(at),
            info: EventInfo::None,
        });
    }

    /// The parent's marker for the first child's end, at `T`.
    fn nesting_marker(&self) {
        let info = EventInfo::ChildIndex(0);
        self.root(When::After, Where::NestedSkeleton, T.0, info);
    }

    fn counts(&self) -> (usize, usize) {
        (self.controller.analyses(), self.controller.replayed())
    }
}

const FAR: TimeNs = TimeNs(1_000_000);

#[test]
fn an_unchanged_instant_is_replayed() {
    let live = Live::new(FAR, 2, 8);
    assert_eq!(live.counts(), (1, 0), "the child's end opened the gate");
    live.nesting_marker();
    assert_eq!(live.counts(), (2, 1));
    let log = live.controller.analysis_log();
    assert_eq!(log[0], log[1]);
    assert_eq!(log[1].at, T);
    // A forced analysis never is, whatever stands.
    live.controller.force_analyze(T);
    assert_eq!(live.counts(), (3, 1));
    assert_eq!(live.controller.analysis_log()[2], log[1]);
    // A later instant is a different analysis.
    live.root(When::After, Where::NestedSkeleton, T.0 + 1, EventInfo::None);
    assert_eq!(live.counts(), (4, 1));
}

#[test]
fn initialising_the_estimates_stops_the_replay() {
    let live = Live::new(FAR, 2, 8);
    let mut snapshot: Snapshot = live.controller.snapshot();
    for entry in &mut snapshot.durations {
        entry.value *= 3.0;
    }
    live.controller.init_estimates(&snapshot);
    live.nesting_marker();
    assert_eq!(live.counts(), (2, 0));
    let log = live.controller.analysis_log();
    assert!(log[1].predicted_finish > log[0].predicted_finish);
}

#[test]
fn aliasing_an_estimate_stops_the_replay() {
    let live = Live::new(FAR, 2, 8);
    let node = live.program.node();
    let execute = MuscleId::new(node.children()[0].id, MuscleRole::Execute);
    let merge = MuscleId::new(node.id, MuscleRole::Merge);
    // The table was open for writing: that is all the controller knows.
    // (An alias is a fallback for a muscle without history, so this one
    // changes no estimate — and the recomputed record shows it.)
    live.controller
        .knowledge()
        .with_estimates(|table| table.set_alias(execute, merge));
    live.nesting_marker();
    assert_eq!(live.counts(), (2, 0));
    let log = live.controller.analysis_log();
    assert_eq!(log[1], log[0]);
}

#[test]
fn invalidating_an_estimate_stops_the_replay() {
    let live = Live::new(FAR, 2, 8);
    let inner = live.program.node().children()[0].id;
    assert_eq!(
        live.controller
            .knowledge()
            .invalidate_estimates_for(&[inner], live.program.node()),
        1
    );
    live.nesting_marker();
    // Not replayed, and not computed either: the gate is shut again.
    assert_eq!(live.counts(), (1, 0));
}

#[test]
fn a_decision_is_never_replayed_and_the_ramp_takes_its_second_step() {
    // Nine children of 20 ns at LP 1 miss a 60-ns goal by far: the
    // analysis after the first child raises 1 → 3, the marker at the
    // same instant must analyse again at LP 3 and raises 3 → 7.
    let live = Live::new(TimeNs(60), 9, 16);
    let steps = |c: &AutonomicController| {
        c.decisions()
            .iter()
            .map(|d| (d.at, d.from_lp, d.to_lp))
            .collect::<Vec<_>>()
    };
    assert_eq!(steps(&live.controller).last(), Some(&(T, 1, 3)));
    let before = live.counts();
    live.nesting_marker();
    assert_eq!(live.counts(), (before.0 + 1, 0));
    assert_eq!(steps(&live.controller).last(), Some(&(T, 3, 7)));
    assert_eq!(
        live.lp_requests.load(Ordering::SeqCst),
        steps(&live.controller).len()
    );
}

#[test]
fn another_root_stops_the_replay() {
    let live = Live::new(FAR, 2, 8);
    // A submission of some other skeleton begins at the same instant:
    // no new deadline, but the tracker's current root has changed.
    let other = seq(|x: i64| x);
    live.send(Event {
        node: other.node().id,
        kind: KindTag::Seq,
        when: When::Before,
        wher: Where::Skeleton,
        index: InstanceId(9),
        trace: Trace::root(other.node().id, InstanceId(9), KindTag::Seq),
        timestamp: T,
        info: EventInfo::None,
    });
    live.nesting_marker();
    assert_eq!(live.counts().1, 0);
}

#[test]
fn a_new_deadline_stops_the_replay() {
    let live = Live::new(FAR, 2, 8);
    // Our own skeleton is submitted again at `T`: the deadline moves from
    // `0 + goal` to `T + goal`.
    let node = live.program.node();
    live.send(Event {
        node: node.id,
        kind: KindTag::Map,
        when: When::Before,
        wher: Where::Skeleton,
        index: InstanceId(9),
        trace: Trace::root(node.id, InstanceId(9), KindTag::Map),
        timestamp: T,
        info: EventInfo::None,
    });
    let before = live.counts();
    live.nesting_marker();
    // The new root has no split yet, so there is a graph to lay out.
    assert_eq!(live.counts(), (before.0 + 1, 0));
}
