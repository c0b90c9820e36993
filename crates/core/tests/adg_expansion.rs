//! ADG expansion for partially-executed loops and recursions: the
//! predictive part must splice correctly onto live instance records.

use askel_core::{best_effort, ActState, AdgWorkspace, SmTracker};
use askel_events::{Event, EventInfo, Trace, When, Where};
use askel_skeletons::{
    dac, seq, sfor, swhile, InstanceId, KindTag, MuscleId, MuscleRole, NodeId, Skel, TimeNs,
};

fn sec(s: u64) -> TimeNs {
    TimeNs::from_secs(s)
}

#[allow(clippy::too_many_arguments)]
fn ev(
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

/// A while loop that has completed 2 of an estimated 5 iterations: the ADG
/// must contain the 2 actual (cond+body) pairs, the remaining 3 predicted
/// pairs, and the final (false) cond.
#[test]
fn while_mid_loop_predicts_remaining_iterations() {
    let body = seq(|x: i64| x + 1);
    let body_id = body.id();
    let program: Skel<i64, i64> = swhile(|x: &i64| *x < 100, body);
    let w = program.id();

    let mut tracker = SmTracker::new(0.5);
    {
        let est = tracker.estimates_mut();
        est.init_duration(MuscleId::new(w, MuscleRole::Condition), sec(1));
        est.init_cardinality(MuscleId::new(w, MuscleRole::Condition), 5.0);
        est.init_duration(MuscleId::new(body_id, MuscleRole::Execute), sec(3));
    }

    const WI: u64 = 8_100_000;
    let wt = Trace::root(w, InstanceId(WI), KindTag::While);
    let mut t = 0u64;
    tracker.observe(&ev(
        w,
        KindTag::While,
        When::Before,
        Where::Skeleton,
        WI,
        wt.clone(),
        sec(0),
        EventInfo::None,
    ));
    for k in 0..2u64 {
        tracker.observe(&ev(
            w,
            KindTag::While,
            When::Before,
            Where::Condition,
            WI,
            wt.clone(),
            sec(t),
            EventInfo::None,
        ));
        tracker.observe(&ev(
            w,
            KindTag::While,
            When::After,
            Where::Condition,
            WI,
            wt.clone(),
            sec(t + 1),
            EventInfo::ConditionResult(true),
        ));
        let b = WI + 10 + k;
        let bt = wt.child(body_id, InstanceId(b), KindTag::Seq);
        tracker.observe(&ev(
            body_id,
            KindTag::Seq,
            When::Before,
            Where::Skeleton,
            b,
            bt.clone(),
            sec(t + 1),
            EventInfo::None,
        ));
        tracker.observe(&ev(
            body_id,
            KindTag::Seq,
            When::After,
            Where::Skeleton,
            b,
            bt,
            sec(t + 4),
            EventInfo::None,
        ));
        t += 4;
    }
    // Now at t = 8s, between iterations.
    let adg = AdgWorkspace::new(program.node()).build(&tracker).clone();
    // 2 actual conds + 2 actual bodies + 3 predicted (cond+body) + final cond.
    assert_eq!(adg.len(), 2 + 2 + 3 * 2 + 1);
    let (done, running, pending) = adg.state_counts();
    assert_eq!(done, 4);
    assert_eq!(running, 0);
    assert_eq!(pending, 7);
    // Sequential structure: best-effort finish = 8 + 3×(1+3) + 1 = 21.
    let be = best_effort(&adg, sec(8));
    assert_eq!(be.finish, sec(21));
    assert_eq!(be.max_concurrency(), 1, "a while loop is sequential");
}

/// A for(4) loop with 1 completed iteration: 3 predicted bodies remain.
#[test]
fn for_mid_loop_predicts_remaining_iterations() {
    let body = seq(|x: i64| x * 2);
    let body_id = body.id();
    let program: Skel<i64, i64> = sfor(4, body);
    let f = program.id();

    let mut tracker = SmTracker::new(0.5);
    tracker
        .estimates_mut()
        .init_duration(MuscleId::new(body_id, MuscleRole::Execute), sec(2));

    const FI: u64 = 8_200_000;
    let ft = Trace::root(f, InstanceId(FI), KindTag::For);
    tracker.observe(&ev(
        f,
        KindTag::For,
        When::Before,
        Where::Skeleton,
        FI,
        ft.clone(),
        sec(0),
        EventInfo::None,
    ));
    let b = FI + 1;
    let bt = ft.child(body_id, InstanceId(b), KindTag::Seq);
    tracker.observe(&ev(
        body_id,
        KindTag::Seq,
        When::Before,
        Where::Skeleton,
        b,
        bt.clone(),
        sec(0),
        EventInfo::None,
    ));
    tracker.observe(&ev(
        body_id,
        KindTag::Seq,
        When::After,
        Where::Skeleton,
        b,
        bt,
        sec(2),
        EventInfo::None,
    ));

    let adg = AdgWorkspace::new(program.node()).build(&tracker).clone();
    assert_eq!(adg.len(), 4, "1 actual + 3 predicted bodies");
    let (done, _, pending) = adg.state_counts();
    assert_eq!((done, pending), (1, 3));
    let be = best_effort(&adg, sec(2));
    assert_eq!(be.finish, sec(2 + 3 * 2));
}

/// A d&C whose root divided (split done, 2 children running/unstarted):
/// unstarted children expand as predicted subtrees at the remaining depth.
#[test]
fn dac_mid_recursion_predicts_missing_subtrees() {
    let base = seq(|x: i64| x);
    let base_id = base.id();
    let program: Skel<i64, i64> = dac(
        |x: &i64| *x > 8,
        |x: i64| vec![x / 2, x - x / 2],
        base,
        |v: Vec<i64>| v.into_iter().sum(),
    );
    let d = program.id();

    let mut tracker = SmTracker::new(0.5);
    {
        let est = tracker.estimates_mut();
        est.init_duration(MuscleId::new(d, MuscleRole::Condition), sec(1));
        est.init_cardinality(MuscleId::new(d, MuscleRole::Condition), 2.0); // depth 2
        est.init_duration(MuscleId::new(d, MuscleRole::Split), sec(2));
        est.init_cardinality(MuscleId::new(d, MuscleRole::Split), 2.0);
        est.init_duration(MuscleId::new(d, MuscleRole::Merge), sec(1));
        est.init_duration(MuscleId::new(base_id, MuscleRole::Execute), sec(4));
    }

    const DI: u64 = 8_300_000;
    let dt = Trace::root(d, InstanceId(DI), KindTag::DivideConquer);
    tracker.observe(&ev(
        d,
        KindTag::DivideConquer,
        When::Before,
        Where::Skeleton,
        DI,
        dt.clone(),
        sec(0),
        EventInfo::None,
    ));
    tracker.observe(&ev(
        d,
        KindTag::DivideConquer,
        When::Before,
        Where::Condition,
        DI,
        dt.clone(),
        sec(0),
        EventInfo::None,
    ));
    tracker.observe(&ev(
        d,
        KindTag::DivideConquer,
        When::After,
        Where::Condition,
        DI,
        dt.clone(),
        sec(1),
        EventInfo::ConditionResult(true),
    ));
    tracker.observe(&ev(
        d,
        KindTag::DivideConquer,
        When::Before,
        Where::Split,
        DI,
        dt.clone(),
        sec(1),
        EventInfo::None,
    ));
    tracker.observe(&ev(
        d,
        KindTag::DivideConquer,
        When::After,
        Where::Split,
        DI,
        dt.clone(),
        sec(3),
        EventInfo::SplitCardinality(2),
    ));

    // Neither child has begun. Now = 3s.
    let adg = AdgWorkspace::new(program.node()).build(&tracker).clone();
    // Root: cond + split + merge = 3 activities; each child predicted at
    // depth 2 (leaf level): cond + base = 2 activities each.
    assert_eq!(adg.len(), 3 + 2 * 2);
    let done = adg
        .activities
        .iter()
        .filter(|a| matches!(a.state, ActState::Done { .. }))
        .count();
    assert_eq!(done, 2, "cond + split are done");
    // Children run in parallel: 3 + (1 + 4) + merge 1 = 9.
    let be = best_effort(&adg, sec(3));
    assert_eq!(be.finish, sec(9));
    assert_eq!(be.max_concurrency_from(sec(3)), 2);
}

/// A d&C whose root condition said *false*: the ADG is just cond + base.
#[test]
fn dac_base_case_has_no_recursion() {
    let base = seq(|x: i64| x);
    let base_id = base.id();
    let program: Skel<i64, i64> = dac(
        |x: &i64| *x > 8,
        |x: i64| vec![x / 2, x - x / 2],
        base,
        |v: Vec<i64>| v.into_iter().sum(),
    );
    let d = program.id();
    let mut tracker = SmTracker::new(0.5);
    {
        let est = tracker.estimates_mut();
        est.init_duration(MuscleId::new(d, MuscleRole::Condition), sec(1));
        est.init_cardinality(MuscleId::new(d, MuscleRole::Condition), 2.0);
        est.init_duration(MuscleId::new(d, MuscleRole::Split), sec(2));
        est.init_cardinality(MuscleId::new(d, MuscleRole::Split), 2.0);
        est.init_duration(MuscleId::new(d, MuscleRole::Merge), sec(1));
        est.init_duration(MuscleId::new(base_id, MuscleRole::Execute), sec(4));
    }
    const DI: u64 = 8_400_000;
    let dt = Trace::root(d, InstanceId(DI), KindTag::DivideConquer);
    tracker.observe(&ev(
        d,
        KindTag::DivideConquer,
        When::Before,
        Where::Skeleton,
        DI,
        dt.clone(),
        sec(0),
        EventInfo::None,
    ));
    tracker.observe(&ev(
        d,
        KindTag::DivideConquer,
        When::Before,
        Where::Condition,
        DI,
        dt.clone(),
        sec(0),
        EventInfo::None,
    ));
    tracker.observe(&ev(
        d,
        KindTag::DivideConquer,
        When::After,
        Where::Condition,
        DI,
        dt,
        sec(1),
        EventInfo::ConditionResult(false),
    ));

    let adg = AdgWorkspace::new(program.node()).build(&tracker).clone();
    assert_eq!(adg.len(), 2, "cond + predicted base only");
    let be = best_effort(&adg, sec(1));
    assert_eq!(be.finish, sec(5));
}
