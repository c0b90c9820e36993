//! Acceptance tests for the multi-concern arbitration layer: conflicting
//! rule fires on one knob resolve to exactly one applied action per
//! [`ConflictPolicy`], losers land in the decision log as suppressed
//! records, and applied rewrites invalidate the estimator history of the
//! replaced subtree in the trigger engine *and* a synced WCT controller.

use std::sync::Arc;

use autonomic_skeletons::core::FnActuator;
use autonomic_skeletons::prelude::*;

/// Infrastructure for a rule-only safe point: no items need to run, the
/// reconfigurator just plans/arbitrates/applies against the sim's
/// registry and virtual clock.
fn harness(trigger: &Arc<TriggerEngine>) -> (SimEngine, Reconfigurator) {
    let sim = SimEngine::new(1, Arc::new(ZeroCost));
    let reconf = Reconfigurator::new(
        Arc::clone(sim.registry()),
        sim.clock().clone(),
        Arc::clone(trigger),
    )
    .lp_source(|| 4);
    (sim, reconf)
}

#[test]
fn same_knob_cost_beats_performance_at_equal_priority() {
    // A performance retune (wants width lp×2 = 8) and a cost guard
    // (over budget, wants the economy width 2) fire on the *same* knob
    // at one safe point. Under priority-wins with equal priorities the
    // concern rank breaks the tie — cost outranks performance — so
    // exactly one action applies and the loser is suppress-audited.
    let width = Knob::new("width", 4);
    let meter = NodeHoursMeter::new();
    let trigger = TriggerEngine::new(0.5);
    trigger.add_rule(RetuneWidth::new(width.clone(), 2).named("grow-width"));
    trigger.add_rule(CostGuard::knob(meter, TimeNs::ZERO, width.clone(), 2).named("cost-guard"));
    let (_sim, reconf) = harness(&trigger);
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = VersionedSkel::new(&program);

    assert_eq!(reconf.apply(&mut vskel), 1, "exactly one action applied");
    assert_eq!(width.get(), 2, "the cost guard's economy width won");
    assert_eq!(vskel.version(), 1, "one version bump, not two");
    let log = trigger.decision_log();
    assert_eq!(log.len(), 2, "{log:?}");
    assert_eq!(log[0].rule, "cost-guard");
    assert!(
        log[0].action.contains("set knob `width` 4 -> 2"),
        "{:?}",
        log[0]
    );
    assert_eq!(log[1].rule, "grow-width");
    assert!(
        log[1].action.contains("suppressed by `cost-guard`"),
        "{:?}",
        log[1]
    );
    assert_eq!(log[1].version, 1, "suppressions do not bump the version");
}

#[test]
fn same_knob_priority_overrides_the_concern_rank() {
    // Same conflict, but the performance rule is explicitly prioritized:
    // priority compares before concern, so the grow wins and the cost
    // guard is the suppressed one.
    let width = Knob::new("width", 4);
    let meter = NodeHoursMeter::new();
    let trigger = TriggerEngine::new(0.5);
    trigger.add_rule(
        RetuneWidth::new(width.clone(), 2)
            .named("grow-width")
            .priority(5),
    );
    trigger.add_rule(CostGuard::knob(meter, TimeNs::ZERO, width.clone(), 2).named("cost-guard"));
    let (_sim, reconf) = harness(&trigger);
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = VersionedSkel::new(&program);

    assert_eq!(reconf.apply(&mut vskel), 1);
    assert_eq!(width.get(), 8, "the prioritized performance grow won");
    let log = trigger.decision_log();
    assert_eq!(log.len(), 2, "{log:?}");
    assert_eq!(log[0].rule, "grow-width");
    assert_eq!(log[1].rule, "cost-guard");
    assert!(
        log[1].action.contains("suppressed by `grow-width`"),
        "{:?}",
        log[1]
    );
}

#[test]
fn veto_policy_blocks_the_knob_regardless_of_priority() {
    // The knob already sits at the economy width, so the cost guard
    // fires a *veto* (hold the knob) instead of an action. Under the
    // veto policy the contested knob moves not at all — even though the
    // performance rule outprioritizes the guard — and the blocked fire
    // is suppress-audited while the idle veto itself stays out of the
    // log.
    let width = Knob::new("width", 2);
    let meter = NodeHoursMeter::new();
    let trigger = TriggerEngine::new(0.5);
    trigger.add_rule(
        RetuneWidth::new(width.clone(), 2)
            .named("grow-width")
            .priority(5),
    );
    trigger.add_rule(CostGuard::knob(meter, TimeNs::ZERO, width.clone(), 2).named("cost-guard"));
    let (_sim, reconf) = harness(&trigger);
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = VersionedSkel::new(&program);
    let reconf = reconf.conflict_policy(ConflictPolicy::Veto);

    assert_eq!(reconf.apply(&mut vskel), 0, "the veto blocked everything");
    assert_eq!(width.get(), 2, "the knob did not move");
    assert_eq!(vskel.version(), 0);
    let log = trigger.decision_log();
    assert_eq!(log.len(), 1, "{log:?}");
    assert_eq!(log[0].rule, "grow-width");
    assert!(
        log[0].action.contains("suppressed by `cost-guard`"),
        "{:?}",
        log[0]
    );
}

#[test]
fn a_standing_veto_leaves_the_decision_log_a_ring_that_still_audits() {
    // The veto scenario above, held for a whole stream: one `suppressed
    // by` record per safe point. The log keeps the newest
    // DECISION_LOG_CAPACITY of them, and a forecast-gated rewrite that
    // lands inside that window is still found by the item that closes
    // its audit.
    const N: u64 = autonomic_skeletons::adapt::DECISION_LOG_CAPACITY as u64;
    let width = Knob::new("width", 2);
    let trigger = TriggerEngine::new(0.5);
    trigger.add_rule(
        RetuneWidth::new(width.clone(), 2)
            .named("grow-width")
            .priority(5),
    );
    trigger.add_rule(CostGuard::knob(
        NodeHoursMeter::new(),
        TimeNs::ZERO,
        width.clone(),
        2,
    ));
    let (mut sim, reconf) = harness(&trigger);
    let reconf = reconf.conflict_policy(ConflictPolicy::Veto);
    sim.registry().add_listener(trigger.clone());
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = VersionedSkel::new(&program);

    let gated_at = 3 * N - 8;
    for point in 1..=3 * N {
        sim.clock().advance_to(TimeNs(point));
        assert_eq!(reconf.apply(&mut vskel), 0, "the veto stands");
        if point == gated_at {
            trigger.record(AdaptRecord {
                at: TimeNs(point),
                version: 1,
                rule: "promote".into(),
                target: None,
                action: "replace".into(),
                why: "gated".into(),
                forecast: Some(Forecast {
                    predicted: TimeNs(40),
                    baseline: TimeNs(100),
                    realized: None,
                }),
            });
            assert_eq!(sim.run(&program, 7).expect("sim run").result, 7);
        }
    }

    let log = trigger.decision_log();
    assert_eq!(log.len() as u64, N, "3N + 1 records were logged");
    // Oldest first: the gated record sits among the last N - 1 vetoes.
    assert_eq!(log[0].at, TimeNs(2 * N + 2));
    assert_eq!(log.last().unwrap().at, TimeNs(3 * N));
    assert!(log.windows(2).all(|w| w[0].at <= w[1].at));
    let gated: Vec<_> = log.iter().filter(|r| r.rule == "promote").collect();
    assert_eq!(gated.len(), 1);
    let audit = gated[0].forecast.expect("recorded with a forecast");
    assert!(audit.realized.is_some(), "the item run under it closed it");
    assert!(log
        .iter()
        .filter(|r| r.rule != "promote")
        .all(|r| r.action.contains("suppressed by `cost-guard`")));
}

#[test]
fn uncontested_veto_is_dropped_silently() {
    // A veto with nothing to block is administrative noise: no record,
    // no version bump, and the vetoing rule re-arms for the next safe
    // point.
    let width = Knob::new("width", 2);
    let meter = NodeHoursMeter::new();
    let trigger = TriggerEngine::new(0.5);
    trigger.add_rule(CostGuard::knob(meter, TimeNs::ZERO, width.clone(), 2).named("cost-guard"));
    let (_sim, reconf) = harness(&trigger);
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = VersionedSkel::new(&program);

    assert_eq!(reconf.apply(&mut vskel), 0);
    assert_eq!(
        reconf.apply(&mut vskel),
        0,
        "still quiet at the next safe point"
    );
    assert_eq!(width.get(), 2);
    assert_eq!(vskel.version(), 0);
    assert!(trigger.decision_log().is_empty());
}

#[test]
fn applied_rewrite_invalidates_estimates_in_trigger_and_synced_controller() {
    // The stale-forecast regression: a promoted-away subtree must not
    // leave estimator history behind, or the next forecast prices a
    // tree that no longer exists. Both tables are checked — the trigger
    // engine's own, and a synced WCT controller's.
    let inner = seq(|x: i64| x + 1);
    let outer = pipe(inner.clone(), seq(|x: i64| x * 2));
    let replacement = seq(|x: i64| x + 100);
    let inner_muscles = inner.node().collect_muscles();
    let outer_muscles = outer.node().collect_muscles();

    let trigger = TriggerEngine::new(0.5);
    trigger.add_rule(
        Promote::new(&inner, &replacement)
            .named("promote-inner")
            .when(Trigger::InputSizeAtLeast(1.0)),
    );
    let config = ControllerConfig::new(TimeNs::from_secs(1), 4).initial_lp(1);
    let controller =
        AutonomicController::new(outer.node().clone(), config, Arc::new(FnActuator(|_lp| {})));
    // Seed both tables with history for every muscle in the tree.
    let seed = |est: &mut autonomic_skeletons::core::EstimatorTable| {
        for d in &outer_muscles {
            est.init_duration(d.id, TimeNs::from_millis(3));
        }
    };
    trigger.with_estimates(seed);
    controller.with_estimates(seed);
    assert!(
        trigger.read_estimates(|est| est.covers(&inner_muscles)),
        "the gate is open before the rewrite"
    );

    let (_sim, reconf) = harness(&trigger);
    let reconf = reconf.sync_controller(Arc::clone(&controller));
    let mut vskel = VersionedSkel::new(&outer);
    trigger.observe_input_size(5);
    assert_eq!(reconf.apply(&mut vskel), 1);
    assert_eq!(vskel.version(), 1);

    let log = trigger.decision_log();
    assert_eq!(log.len(), 1, "{log:?}");
    assert!(
        log[0].action.contains("stale estimator entries"),
        "the record audits the invalidation: {:?}",
        log[0]
    );
    // The replaced subtree's history is gone from both tables; the
    // surviving stages keep theirs.
    for d in &inner_muscles {
        assert!(
            trigger.read_estimates(|est| est.duration(d.id)).is_none(),
            "stale trigger estimate for {:?}",
            d.id
        );
        controller.with_estimates(|est| {
            assert!(est.duration(d.id).is_none(), "stale controller estimate");
        });
    }
    let survivors = outer_muscles
        .iter()
        .filter(|d| d.id.node != inner.id())
        .count();
    assert!(survivors > 0);
    for d in outer_muscles.iter().filter(|d| d.id.node != inner.id()) {
        assert!(
            trigger.read_estimates(|est| est.duration(d.id)).is_some(),
            "surviving estimate dropped for {:?}",
            d.id
        );
    }
    // The forecast gate over the removed subtree's muscles is closed
    // again: a re-inserted copy would have to re-earn its estimates.
    assert!(!trigger.read_estimates(|est| est.covers(&inner_muscles)));
}
