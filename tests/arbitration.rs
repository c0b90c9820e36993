//! Acceptance tests for the multi-concern arbitration layer: conflicting
//! rule fires on one knob resolve to exactly one applied action per
//! [`ConflictPolicy`], losers land in the decision log as suppressed
//! records, and applied rewrites invalidate the estimator history of the
//! replaced subtree in the knowledge a trigger engine shares with a WCT
//! controller.

use std::sync::Arc;

use autonomic_skeletons::core::FnActuator;
use autonomic_skeletons::prelude::*;

/// Infrastructure for a rule-only safe point: no items need to run, the
/// trigger engine just plans/arbitrates/applies against a 4-worker sim's
/// registry, virtual clock and LP.
struct Harness {
    sim: SimEngine,
    trigger: Arc<TriggerEngine>,
    policy: ConflictPolicy,
}

fn harness(trigger: &Arc<TriggerEngine>) -> Harness {
    Harness {
        sim: SimEngine::new(4, Arc::new(ZeroCost)),
        trigger: Arc::clone(trigger),
        policy: ConflictPolicy::default(),
    }
}

/// The tree a safe point rewrites and its version, as a stream holds them.
struct Versioned {
    skel: Skel<i64, i64>,
    version: u64,
}

impl Versioned {
    fn new(skel: &Skel<i64, i64>) -> Self {
        Versioned {
            skel: skel.clone(),
            version: 0,
        }
    }

    fn skel(&self) -> &Skel<i64, i64> {
        &self.skel
    }

    fn version(&self) -> u64 {
        self.version
    }
}

impl Harness {
    /// One safe point on `vskel`: how many rewrites it applied.
    fn apply(&self, vskel: &mut Versioned) -> usize {
        let sim = &self.sim;
        let before = vskel.version;
        let rewritten = self.trigger.safe_point(
            &vskel.skel,
            &mut vskel.version,
            &self.policy,
            sim.registry(),
            sim.clock().now(),
            sim.lp(),
        );
        if let Some(skel) = rewritten {
            vskel.skel = skel;
        }
        (vskel.version - before) as usize
    }
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
    let h = harness(&trigger);
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = Versioned::new(&program);

    assert_eq!(h.apply(&mut vskel), 1, "exactly one action applied");
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
    let h = harness(&trigger);
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = Versioned::new(&program);

    assert_eq!(h.apply(&mut vskel), 1);
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
    let mut h = harness(&trigger);
    h.policy = ConflictPolicy::Veto;
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = Versioned::new(&program);

    assert_eq!(h.apply(&mut vskel), 0, "the veto blocked everything");
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
    let mut h = harness(&trigger);
    h.policy = ConflictPolicy::Veto;
    h.sim.registry().add_listener(trigger.clone());
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = Versioned::new(&program);

    let gated_at = 3 * N - 8;
    for point in 1..=3 * N {
        h.sim.clock().advance_to(TimeNs(point));
        assert_eq!(h.apply(&mut vskel), 0, "the veto stands");
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
            assert_eq!(h.sim.run(&program, 7).expect("sim run").result, 7);
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
    let h = harness(&trigger);
    let program: Skel<i64, i64> = seq(|x: i64| x);
    let mut vskel = Versioned::new(&program);

    assert_eq!(h.apply(&mut vskel), 0);
    assert_eq!(h.apply(&mut vskel), 0, "still quiet at the next safe point");
    assert_eq!(width.get(), 2);
    assert_eq!(vskel.version(), 0);
    assert!(trigger.decision_log().is_empty());
}

#[test]
fn applied_rewrite_invalidates_estimates_in_trigger_and_synced_controller() {
    // The stale-forecast regression: a promoted-away subtree must not
    // leave estimator history behind, or the next forecast prices a
    // tree that no longer exists. The trigger engine decides from the
    // WCT controller's knowledge, so one invalidation clears the one
    // table both read — and the controller analyses the new tree.
    let inner = seq(|x: i64| x + 1);
    let outer = pipe(inner.clone(), seq(|x: i64| x * 2));
    let replacement = seq(|x: i64| x + 100);
    let inner_muscles = inner.node().collect_muscles();
    let outer_muscles = outer.node().collect_muscles();

    let config = ControllerConfig::new(TimeNs::from_secs(1), 4).initial_lp(1);
    let controller =
        AutonomicController::new(outer.node().clone(), config, Arc::new(FnActuator(|_lp| {})));
    let trigger = TriggerEngine::for_controller(&controller);
    trigger.add_rule(
        Promote::new(&inner, &replacement)
            .named("promote-inner")
            .when(Trigger::InputSizeAtLeast(1.0)),
    );
    // Seed the shared table with history for every muscle in the tree.
    let knowledge = trigger.knowledge();
    knowledge.with_estimates(|est| {
        for d in &outer_muscles {
            est.init_duration(d.id, TimeNs::from_millis(3));
        }
    });
    assert!(
        knowledge.read_estimates(|est| est.covers(&inner_muscles)),
        "the gate is open before the rewrite"
    );

    let h = harness(&trigger);
    let mut vskel = Versioned::new(&outer);
    trigger.observe_input_size(5);
    assert_eq!(h.apply(&mut vskel), 1);
    assert_eq!(vskel.version(), 1);

    let log = trigger.decision_log();
    assert_eq!(log.len(), 1, "{log:?}");
    assert!(
        log[0].action.contains("stale estimator entries"),
        "the record audits the invalidation: {:?}",
        log[0]
    );
    // The replaced subtree's history is gone; the surviving stages keep
    // theirs.
    for d in &inner_muscles {
        assert!(
            knowledge.read_estimates(|est| est.duration(d.id)).is_none(),
            "stale estimate for {:?}",
            d.id
        );
    }
    let survivors: Vec<_> = outer_muscles
        .iter()
        .filter(|d| d.id.node != inner.id())
        .collect();
    assert!(!survivors.is_empty());
    for d in survivors {
        assert!(
            knowledge.read_estimates(|est| est.duration(d.id)).is_some(),
            "surviving estimate dropped for {:?}",
            d.id
        );
    }
    // The forecast gate over the removed subtree's muscles is closed
    // again: a re-inserted copy would have to re-earn its estimates.
    assert!(!knowledge.read_estimates(|est| est.covers(&inner_muscles)));
    // The controller prices the rewritten tree: its forecast needs the
    // replacement's estimate, and has it once the replacement has run.
    assert_eq!(controller.forecast_wct(vskel.skel().node(), 1), None);
    knowledge.with_estimates(|est| {
        est.init_duration(
            replacement.node().collect_muscles()[0].id,
            TimeNs::from_millis(3),
        )
    });
    assert!(controller.forecast_wct(vskel.skel().node(), 1).is_some());
}

/// Provisioning is a `Concern::Cost` rule on the `capacity` knob, so a
/// `CostGuard` on the same knob arbitrates against it. In the skewed
/// cluster with the budget spent (zero), the guard vetoes growth at every
/// safe point provisioning asks for the hub: both are cost rules at equal
/// priority, and `cost-guard` ranks before `provisioning` by name, so
/// under priority-wins and veto alike the hub stays dark. With the budget
/// unspent the guard is silent and the hub comes online as in the
/// acceptance run.
#[test]
fn a_cost_guard_on_the_capacity_knob_holds_the_hub_dark() {
    use askel_bench::run_skewed_cluster_guarded;

    for conflict in [ConflictPolicy::PriorityWins, ConflictPolicy::Veto] {
        let run =
            run_skewed_cluster_guarded(OrderingPolicy::from_env(), conflict.clone(), TimeNs::ZERO);
        run.check_invariants(&format!(" under {conflict:?}"));
        assert!(run.capacity_trace.is_empty(), "{:?}", run.capacity_trace);
        assert_eq!(run.telemetry.capacity(), 1, "the hub stayed dark");
        assert_eq!(run.telemetry.busy_per_node()[1], TimeNs::ZERO);
        let provisions: Vec<_> = run
            .decisions
            .iter()
            .filter(|d| d.rule == "provisioning")
            .collect();
        assert!(!provisions.is_empty(), "provisioning asked for the hub");
        for d in provisions {
            assert!(
                d.action
                    .starts_with("suppressed by `cost-guard`: set knob `capacity` 1 -> 5"),
                "{d:?} under {conflict:?}"
            );
        }
        assert!(
            run.decisions.iter().all(|d| d.rule != "cost-guard"),
            "a standing veto is no decision"
        );
        // Under the default ordering, this sequence literally.
        let pinned =
            run_skewed_cluster_guarded(OrderingPolicy::Deterministic, conflict, TimeNs::ZERO);
        assert_eq!(
            pinned.decision_keys(),
            decision_keys(&[
                (6, 1, "grain-retune"),
                (6, 2, "offload"),
                (6, 2, "provisioning"),
                (12, 3, "grain-retune"),
                (18, 4, "grain-retune"),
                (180, 4, "provisioning"),
                (510, 5, "grain-retune"),
                (510, 5, "provisioning"),
                (516, 6, "grain-retune"),
                (522, 7, "grain-retune"),
                (684, 8, "grain-retune"),
                (684, 8, "provisioning"),
                (1014, 8, "provisioning"),
                (1188, 8, "provisioning"),
            ])
        );
        assert!(pinned.capacity_trace.is_empty());
        assert_eq!(
            pinned.grain_trace,
            vec![
                (1, 64),
                (2, 128),
                (3, 256),
                (7, 128),
                (8, 64),
                (9, 32),
                (10, 16)
            ]
        );
    }

    let run = run_skewed_cluster_guarded(
        OrderingPolicy::from_env(),
        ConflictPolicy::PriorityWins,
        TimeNs::from_secs(1),
    );
    run.check_invariants(" with the budget unspent");
    assert_eq!(run.capacity_trace, vec![(1, 5)]);
    assert!(run.telemetry.busy_per_node()[1] > TimeNs::ZERO);
    // Unspent, the guard changes nothing: the acceptance run's sequence.
    let pinned = run_skewed_cluster_guarded(
        OrderingPolicy::Deterministic,
        ConflictPolicy::PriorityWins,
        TimeNs::from_secs(1),
    );
    assert_eq!(
        pinned.decision_keys(),
        decision_keys(&[
            (6, 1, "grain-retune"),
            (6, 2, "offload"),
            (6, 3, "provisioning"),
            (15, 4, "grain-retune"),
            (24, 5, "grain-retune"),
            (294, 6, "grain-retune"),
            (303, 7, "grain-retune"),
            (351, 8, "grain-retune"),
        ])
    );
    assert_eq!(pinned.capacity_trace, vec![(1, 5)]);
    assert_eq!(
        pinned.grain_trace,
        vec![(1, 64), (2, 128), (3, 256), (7, 128), (8, 64), (10, 32)]
    );
}

/// `(virtual ms, version, rule)` rows as `SkewedRun::decision_keys`
/// reports them.
fn decision_keys(rows: &[(u64, u64, &str)]) -> Vec<(TimeNs, u64, String)> {
    rows.iter()
        .map(|&(ms, version, rule)| (TimeNs::from_millis(ms), version, rule.to_string()))
        .collect()
}
