//! Exact reproduction of the paper's worked example (Figs. 1 and 2).
//!
//! Setup (§4): skeleton `map(fs, map(fs, seq(fe), fm), fm)` with estimates
//! `t(fs) = 10, t(fe) = 15, t(fm) = 5, |fs| = 3`; an actual execution with
//! LP 2 is snapshotted at WCT 70, at which point:
//!
//! * the root split ran [0,10] producing 3 sub-problems;
//! * two inner maps (A, B) split at [10,20] and ran their six `fe`s
//!   two-at-a-time over [20,65];
//! * A's merge ran [65,70]; the third inner split (C) started at 65 and is
//!   still running (estimated to finish at 75);
//! * B's merge is ready but waiting for a thread.
//!
//! Expected (quoted in the paper):
//!
//! * best effort: B.merge [70,75], C's `fe`s [75,90], C.merge [90,95],
//!   root merge [95,100] → **WCT 100**, peak concurrency **3** during
//!   [75,90) → **optimal LP 3**;
//! * limited LP(2): third `fe` delayed to [90,105], C.merge [105,110],
//!   root merge [110,115] → **WCT 115**;
//! * with a WCT goal of 100, the controller raises LP **2 → 3**.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use askel_core::{
    best_effort, limited_lp, optimal_lp, AdgWorkspace, AutonomicController, ControllerConfig,
    FnActuator, SmTracker, TimelinePoint,
};
use askel_events::{Event, EventInfo, Trace, When, Where};
use askel_skeletons::{map, seq, InstanceId, KindTag, MuscleRole, NodeId, Skel, TimeNs};

const SEC: u64 = 1_000_000_000;

fn t(units: u64) -> TimeNs {
    TimeNs(units * SEC)
}

struct Fixture {
    skel: Skel<Vec<i64>, i64>,
    outer: NodeId,
    inner: NodeId,
    leaf: NodeId,
}

fn fixture() -> Fixture {
    let inner = map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0]),
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    let inner_id = inner.id();
    let leaf_id = inner.node().children()[0].id;
    let skel = map(
        |v: Vec<i64>| vec![v.clone(), v.clone(), v],
        inner,
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    let outer_id = skel.id();
    Fixture {
        skel,
        outer: outer_id,
        inner: inner_id,
        leaf: leaf_id,
    }
}

fn init_estimates(tracker: &mut SmTracker, f: &Fixture) {
    let est = tracker.estimates_mut();
    for node in [f.outer, f.inner] {
        est.init_duration(
            askel_skeletons::MuscleId::new(node, MuscleRole::Split),
            t(10),
        );
        est.init_duration(
            askel_skeletons::MuscleId::new(node, MuscleRole::Merge),
            t(5),
        );
        est.init_cardinality(askel_skeletons::MuscleId::new(node, MuscleRole::Split), 3.0);
    }
    est.init_duration(
        askel_skeletons::MuscleId::new(f.leaf, MuscleRole::Execute),
        t(15),
    );
}

struct EventFeeder<'a> {
    f: &'a Fixture,
}

impl<'a> EventFeeder<'a> {
    fn root_trace(&self, inst: u64) -> Trace {
        Trace::root(self.f.outer, InstanceId(inst), KindTag::Map)
    }

    fn inner_trace(&self, root: u64, inst: u64) -> Trace {
        self.root_trace(root)
            .child(self.f.inner, InstanceId(inst), KindTag::Map)
    }

    fn leaf_trace(&self, root: u64, inner: u64, inst: u64) -> Trace {
        self.inner_trace(root, inner)
            .child(self.f.leaf, InstanceId(inst), KindTag::Seq)
    }

    #[allow(clippy::too_many_arguments)]
    fn ev(
        &self,
        node: NodeId,
        kind: KindTag,
        when: When,
        wher: Where,
        inst: u64,
        trace: Trace,
        at: TimeNs,
        info: EventInfo,
    ) -> Event {
        Event {
            node,
            kind,
            when,
            wher,
            index: InstanceId(inst),
            trace,
            timestamp: at,
            info,
        }
    }

    /// The full event history up to WCT 70, delivered to `sink`.
    fn feed(&self, mut sink: impl FnMut(Event)) {
        let f = self.f;
        const O: u64 = 100; // root map instance
        const A: u64 = 101; // inner maps
        const B: u64 = 102;
        const C: u64 = 103;
        // Root map: begin + split [0, 10], card 3.
        sink(self.ev(
            f.outer,
            KindTag::Map,
            When::Before,
            Where::Skeleton,
            O,
            self.root_trace(O),
            t(0),
            EventInfo::None,
        ));
        sink(self.ev(
            f.outer,
            KindTag::Map,
            When::Before,
            Where::Split,
            O,
            self.root_trace(O),
            t(0),
            EventInfo::None,
        ));
        sink(self.ev(
            f.outer,
            KindTag::Map,
            When::After,
            Where::Split,
            O,
            self.root_trace(O),
            t(10),
            EventInfo::SplitCardinality(3),
        ));
        // Inner maps A and B: begin + split [10, 20], card 3 each.
        for inst in [A, B] {
            sink(self.ev(
                f.inner,
                KindTag::Map,
                When::Before,
                Where::Skeleton,
                inst,
                self.inner_trace(O, inst),
                t(10),
                EventInfo::None,
            ));
            sink(self.ev(
                f.inner,
                KindTag::Map,
                When::Before,
                Where::Split,
                inst,
                self.inner_trace(O, inst),
                t(10),
                EventInfo::None,
            ));
            sink(self.ev(
                f.inner,
                KindTag::Map,
                When::After,
                Where::Split,
                inst,
                self.inner_trace(O, inst),
                t(20),
                EventInfo::SplitCardinality(3),
            ));
        }
        // Six fe's, two at a time: waves [20,35], [35,50], [50,65].
        // Wave k runs A's k-th and B's k-th leaf.
        for (k, (start, end)) in [(20u64, 35u64), (35, 50), (50, 65)].iter().enumerate() {
            for (parent, leaf_inst) in [(A, 110 + k as u64), (B, 120 + k as u64)] {
                let tr = self.leaf_trace(O, parent, leaf_inst);
                sink(self.ev(
                    f.leaf,
                    KindTag::Seq,
                    When::Before,
                    Where::Skeleton,
                    leaf_inst,
                    tr.clone(),
                    t(*start),
                    EventInfo::None,
                ));
                sink(self.ev(
                    f.leaf,
                    KindTag::Seq,
                    When::After,
                    Where::Skeleton,
                    leaf_inst,
                    tr,
                    t(*end),
                    EventInfo::None,
                ));
            }
        }
        // A's merge [65, 70]; A completes at 70.
        sink(self.ev(
            f.inner,
            KindTag::Map,
            When::Before,
            Where::Merge,
            A,
            self.inner_trace(O, A),
            t(65),
            EventInfo::None,
        ));
        sink(self.ev(
            f.inner,
            KindTag::Map,
            When::After,
            Where::Merge,
            A,
            self.inner_trace(O, A),
            t(70),
            EventInfo::None,
        ));
        sink(self.ev(
            f.inner,
            KindTag::Map,
            When::After,
            Where::Skeleton,
            A,
            self.inner_trace(O, A),
            t(70),
            EventInfo::None,
        ));
        // C begins at 65; its split is still running at the snapshot.
        sink(self.ev(
            f.inner,
            KindTag::Map,
            When::Before,
            Where::Skeleton,
            C,
            self.inner_trace(O, C),
            t(65),
            EventInfo::None,
        ));
        sink(self.ev(
            f.inner,
            KindTag::Map,
            When::Before,
            Where::Split,
            C,
            self.inner_trace(O, C),
            t(65),
            EventInfo::None,
        ));
    }
}

fn tracker_at_70(f: &Fixture) -> SmTracker {
    let mut tracker = SmTracker::new(0.5);
    init_estimates(&mut tracker, f);
    let feeder = EventFeeder { f };
    feeder.feed(|e| tracker.observe(&e));
    tracker
}

#[test]
fn adg_snapshot_has_the_papers_activities() {
    let f = fixture();
    let tracker = tracker_at_70(&f);
    let adg = AdgWorkspace::new(f.skel.node()).build(&tracker).clone();
    // 1 root split + 3×(split + 3 fe + merge) + 1 root merge = 17.
    assert_eq!(adg.len(), 17);
    let (done, running, pending) = adg.state_counts();
    assert_eq!(done, 10, "root split, 2 inner splits, 6 fe, merge A");
    assert_eq!(running, 1, "split C");
    assert_eq!(pending, 6, "merge B, 3 fe C, merge C, root merge");
}

#[test]
fn best_effort_wct_is_100_and_optimal_lp_is_3() {
    let f = fixture();
    let tracker = tracker_at_70(&f);
    let adg = AdgWorkspace::new(f.skel.node()).build(&tracker).clone();
    let now = t(70);
    let be = best_effort(&adg, now);
    assert_eq!(be.finish, t(100), "paper: best-effort WCT 100");
    assert_eq!(optimal_lp(&adg, now), 3, "paper: optimal LP 3");
    assert_eq!(be.max_concurrency_from(now), 3);

    // The paper's interval structure: three fe's at [75,90), peak 3.
    let tl = be.timeline();
    assert_eq!(
        tl,
        vec![
            TimelinePoint {
                at: t(0),
                active: 1
            },
            TimelinePoint {
                at: t(10),
                active: 2
            },
            TimelinePoint {
                at: t(75),
                active: 3
            },
            TimelinePoint {
                at: t(90),
                active: 1
            },
            TimelinePoint {
                at: t(100),
                active: 0
            },
        ],
        "Fig. 2 best-effort series"
    );
}

#[test]
fn limited_lp_2_finishes_at_115() {
    let f = fixture();
    let tracker = tracker_at_70(&f);
    let adg = AdgWorkspace::new(f.skel.node()).build(&tracker).clone();
    let now = t(70);
    let ll = limited_lp(&adg, now, 2);
    assert_eq!(ll.finish, t(115), "paper: limited-LP(2) WCT 115");
    // Fig. 2's limited series: plateau at 2 until 90, then 1 until 115.
    let tl = ll.timeline();
    assert_eq!(
        tl,
        vec![
            TimelinePoint {
                at: t(0),
                active: 1
            },
            TimelinePoint {
                at: t(10),
                active: 2
            },
            TimelinePoint {
                at: t(90),
                active: 1
            },
            TimelinePoint {
                at: t(115),
                active: 0
            },
        ],
        "Fig. 2 limited-LP(2) series"
    );
}

#[test]
fn limited_lp_3_meets_the_100_goal() {
    let f = fixture();
    let tracker = tracker_at_70(&f);
    let adg = AdgWorkspace::new(f.skel.node()).build(&tracker).clone();
    let ll = limited_lp(&adg, t(70), 3);
    assert_eq!(ll.finish, t(100), "LP 3 recovers the best-effort WCT");
}

#[test]
fn activity_intervals_match_figure_1() {
    let f = fixture();
    let tracker = tracker_at_70(&f);
    let adg = AdgWorkspace::new(f.skel.node()).build(&tracker).clone();
    let now = t(70);
    let be = best_effort(&adg, now);
    let ll = limited_lp(&adg, now, 2);

    // Pair each activity's muscle/state with its spans in both strategies.
    let mut be_pending: Vec<(MuscleRole, (TimeNs, TimeNs))> = Vec::new();
    let mut ll_pending: Vec<(MuscleRole, (TimeNs, TimeNs))> = Vec::new();
    for (i, a) in adg.activities.iter().enumerate() {
        if matches!(a.state, askel_core::ActState::Pending) {
            be_pending.push((a.muscle.role, be.spans[i]));
            ll_pending.push((a.muscle.role, ll.spans[i]));
        }
    }
    be_pending.sort_by_key(|&(_, (s, e))| (s, e));
    ll_pending.sort_by_key(|&(_, (s, e))| (s, e));
    assert_eq!(
        be_pending,
        vec![
            (MuscleRole::Merge, (t(70), t(75))),   // merge B
            (MuscleRole::Execute, (t(75), t(90))), // fe C ×3
            (MuscleRole::Execute, (t(75), t(90))),
            (MuscleRole::Execute, (t(75), t(90))),
            (MuscleRole::Merge, (t(90), t(95))),  // merge C
            (MuscleRole::Merge, (t(95), t(100))), // root merge
        ],
        "Fig. 1 best-effort intervals"
    );
    assert_eq!(
        ll_pending,
        vec![
            (MuscleRole::Merge, (t(70), t(75))),
            (MuscleRole::Execute, (t(75), t(90))),
            (MuscleRole::Execute, (t(75), t(90))),
            (MuscleRole::Execute, (t(90), t(105))), // delayed third fe
            (MuscleRole::Merge, (t(105), t(110))),
            (MuscleRole::Merge, (t(110), t(115))),
        ],
        "Fig. 1 limited-LP(2) intervals"
    );
    // The running split C is estimated to end at 75 in both strategies.
    let split_c = adg
        .activities
        .iter()
        .position(|a| matches!(a.state, askel_core::ActState::Running { .. }))
        .unwrap();
    assert_eq!(be.spans[split_c], (t(65), t(75)));
    assert_eq!(ll.spans[split_c], (t(65), t(75)));
}

#[test]
fn controller_raises_lp_2_to_3_for_goal_100() {
    let f = fixture();
    let requested = Arc::new(AtomicUsize::new(0));
    let r2 = Arc::clone(&requested);
    // The paper evaluates the decision *once*, at the WCT-70 snapshot, so
    // intermediate analyses are disabled (the live-loop behaviour is
    // covered by the end-to-end scenario tests).
    let config = ControllerConfig::new(t(100), 24)
        .initial_lp(2)
        .manual_analysis(true);
    let controller = AutonomicController::new(
        f.skel.node().clone(),
        config,
        Arc::new(FnActuator(move |lp| r2.store(lp, Ordering::SeqCst))),
    );
    controller.knowledge().with_estimates(|est| {
        for node in [f.outer, f.inner] {
            est.init_duration(
                askel_skeletons::MuscleId::new(node, MuscleRole::Split),
                t(10),
            );
            est.init_duration(
                askel_skeletons::MuscleId::new(node, MuscleRole::Merge),
                t(5),
            );
            est.init_cardinality(askel_skeletons::MuscleId::new(node, MuscleRole::Split), 3.0);
        }
        est.init_duration(
            askel_skeletons::MuscleId::new(f.leaf, MuscleRole::Execute),
            t(15),
        );
    });
    let feeder = EventFeeder { f: &f };
    use askel_events::{Listener, Payload};
    feeder.feed(|e| controller.on_event(&mut Payload::None, &e));
    controller.force_analyze(t(70));

    let decisions = controller.decisions();
    assert_eq!(
        controller.current_lp(),
        3,
        "paper: LP raised to 3; decisions: {decisions:#?}"
    );
    assert_eq!(requested.load(Ordering::SeqCst), 3);
    assert_eq!(decisions.len(), 1, "exactly one decision, at the snapshot");
    let last = decisions.last().unwrap();
    assert_eq!(last.at, t(70));
    assert_eq!(last.to_lp, 3);
    assert_eq!(last.reason, askel_core::DecisionReason::RaiseToMeetGoal);
    assert_eq!(last.predicted_wct, t(100));
}

#[test]
fn controller_with_loose_goal_keeps_lp_2() {
    // With a goal of 120 the limited-LP(2) estimate (115) already fits;
    // halving to 1 would give 10+45+5-style serialization way past 120,
    // so the controller must leave LP alone at the WCT-70 analysis.
    let f = fixture();
    let requested = Arc::new(AtomicUsize::new(2));
    let r2 = Arc::clone(&requested);
    let config = ControllerConfig::new(t(120), 24).initial_lp(2);
    let controller = AutonomicController::new(
        f.skel.node().clone(),
        config,
        Arc::new(FnActuator(move |lp| r2.store(lp, Ordering::SeqCst))),
    );
    controller.knowledge().with_estimates(|est| {
        for node in [f.outer, f.inner] {
            est.init_duration(
                askel_skeletons::MuscleId::new(node, MuscleRole::Split),
                t(10),
            );
            est.init_duration(
                askel_skeletons::MuscleId::new(node, MuscleRole::Merge),
                t(5),
            );
            est.init_cardinality(askel_skeletons::MuscleId::new(node, MuscleRole::Split), 3.0);
        }
        est.init_duration(
            askel_skeletons::MuscleId::new(f.leaf, MuscleRole::Execute),
            t(15),
        );
    });
    let feeder = EventFeeder { f: &f };
    use askel_events::{Listener, Payload};
    feeder.feed(|e| controller.on_event(&mut Payload::None, &e));
    controller.force_analyze(t(70));
    assert_eq!(controller.current_lp(), 2, "goal already met at LP 2");
}
