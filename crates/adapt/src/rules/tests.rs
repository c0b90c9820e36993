use super::*;
use askel_skeletons::{seq, MuscleRole, Skel};

fn ctx_with<'a>(
    estimates: &'a EstimatorTable,
    errors: &'a ErrorStats,
    root: &'a Arc<Node>,
    lp: usize,
    input_size: Option<f64>,
) -> RuleCtx<'a> {
    ctx_at(estimates, errors, root, lp, input_size, 1)
}

fn ctx_at<'a>(
    estimates: &'a EstimatorTable,
    errors: &'a ErrorStats,
    root: &'a Arc<Node>,
    lp: usize,
    input_size: Option<f64>,
    safe_point: usize,
) -> RuleCtx<'a> {
    RuleCtx {
        estimates,
        errors,
        input_size,
        root,
        lp,
        safe_point,
    }
}

#[test]
fn knob_clones_share_value() {
    let k = Knob::new("width", 4);
    let k2 = k.clone();
    k.set(9);
    assert_eq!(k2.get(), 9);
    assert_eq!(k2.name(), "width");
}

#[test]
fn promote_requires_all_triggers() {
    let target = seq(|x: i64| x);
    let replacement = seq(|x: i64| x);
    let mut rule = Promote::new(&target, &replacement)
        .when(Trigger::InputSizeAtLeast(100.0))
        .when(Trigger::ErrorStreakAtLeast(0));
    let est = EstimatorTable::new(0.5);
    let errors = ErrorStats::default();
    let root = Arc::clone(target.node());
    assert!(rule
        .evaluate(&ctx_with(&est, &errors, &root, 2, Some(50.0)))
        .is_none());
    let (fire, forecast) = rule
        .evaluate(&ctx_with(&est, &errors, &root, 2, Some(150.0)))
        .expect("both triggers hold");
    match &fire.action {
        RewriteAction::Replace {
            target: t,
            replacement: r,
        } => {
            assert_eq!(*t, target.id());
            assert_eq!(r.id, replacement.id());
        }
        other => panic!("unexpected action {other:?}"),
    }
    assert!(fire.why.contains("input~150.0"), "{}", fire.why);
    assert!(forecast.is_none(), "ungated rules carry no forecast");
}

#[test]
fn promotion_without_triggers_never_fires() {
    let target = seq(|x: i64| x);
    let mut rule = Promote::new(&target, &target);
    let est = EstimatorTable::new(0.5);
    let errors = ErrorStats::default();
    let root = Arc::clone(target.node());
    assert!(rule
        .evaluate(&ctx_with(&est, &errors, &root, 2, Some(1e12)))
        .is_none());
}

#[test]
fn fallback_fires_on_streak() {
    let target = seq(|x: i64| x);
    let fallback = seq(|x: i64| x);
    let mut rule = FallbackSwap::new(&target, &fallback, 2);
    let est = EstimatorTable::new(0.5);
    let root = Arc::clone(target.node());
    let one = ErrorStats {
        items: 3,
        total: 1,
        consecutive: 1,
    };
    assert!(rule
        .evaluate(&ctx_with(&est, &one, &root, 1, None))
        .is_none());
    let two = ErrorStats {
        items: 4,
        total: 2,
        consecutive: 2,
    };
    let (fire, _) = rule
        .evaluate(&ctx_with(&est, &two, &root, 1, None))
        .expect("streak reached");
    assert!(fire.why.contains("error-streak 2 >= 2"), "{}", fire.why);
}

#[test]
fn width_tracks_lp_and_respects_gates() {
    let knob = Knob::new("width", 4);
    let probe = seq(|x: i64| x);
    let split = MuscleId::new(probe.id(), MuscleRole::Split);
    let mut rule = RetuneWidth::new(knob.clone(), 3)
        .bounds(2, 64)
        .when(Trigger::CardinalityAtLeast(split, 1.0));
    let mut est = EstimatorTable::new(0.5);
    let errors = ErrorStats::default();
    let root = Arc::clone(probe.node());
    // Gate closed: no cardinality estimate yet.
    assert!(rule
        .evaluate(&ctx_with(&est, &errors, &root, 2, None))
        .is_none());
    est.observe_cardinality(split, 4.0);
    let (fire, _) = rule
        .evaluate(&ctx_with(&est, &errors, &root, 2, None))
        .expect("gate open, 2×3=6 != 4");
    match fire.action {
        RewriteAction::SetKnob { value, .. } => assert_eq!(value, 6),
        other => panic!("unexpected action {other:?}"),
    }
    knob.set(6);
    assert!(
        rule.evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .is_none(),
        "already at the wanted width"
    );
}

#[test]
fn grain_halves_doubles_and_clamps() {
    let probe = seq(|x: i64| x);
    let leaf = MuscleId::new(probe.id(), MuscleRole::Execute);
    let root = Arc::clone(probe.node());
    let errors = ErrorStats::default();
    let knob = Knob::new("grain", 64);
    let mut rule = RetuneGrain::new(knob.clone(), leaf, TimeNs::from_millis(10)).bounds(16, 256);

    let mut est = EstimatorTable::new(0.5);
    assert!(
        rule.evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .is_none(),
        "no estimate, no decision"
    );
    // Way above the band: halve.
    est.init_duration(leaf, TimeNs::from_millis(50));
    match rule
        .evaluate(&ctx_with(&est, &errors, &root, 2, None))
        .map(|(f, _)| f.action)
    {
        Some(RewriteAction::SetKnob { value, .. }) => assert_eq!(value, 32),
        other => panic!("expected halve, got {other:?}"),
    }
    // Inside the band: quiet.
    est.init_duration(leaf, TimeNs::from_millis(10));
    assert!(rule
        .evaluate(&ctx_with(&est, &errors, &root, 2, None))
        .is_none());
    // Below the band: double; clamp at max.
    est.init_duration(leaf, TimeNs::from_millis(1));
    knob.set(256);
    assert!(
        rule.evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .is_none(),
        "clamped at max"
    );
    knob.set(128);
    match rule
        .evaluate(&ctx_with(&est, &errors, &root, 2, None))
        .map(|(f, _)| f.action)
    {
        Some(RewriteAction::SetKnob { value, .. }) => assert_eq!(value, 256),
        other => panic!("expected double, got {other:?}"),
    }
}

#[test]
fn hysteresis_blocks_reversals_until_cooldown_and_dead_band() {
    let probe = seq(|x: i64| x);
    let leaf = MuscleId::new(probe.id(), MuscleRole::Execute);
    let root = Arc::clone(probe.node());
    let errors = ErrorStats::default();
    let knob = Knob::new("grain", 64);
    let mut rule = RetuneGrain::new(knob.clone(), leaf, TimeNs::from_millis(10))
        .bounds(1, 1024)
        .hysteresis(Hysteresis::new(4, 0.1));
    let mut est = EstimatorTable::new(0.5);

    // Safe point 1: leaf far too slow → halve fires (first move).
    est.init_duration(leaf, TimeNs::from_millis(50));
    let (fire, _) = rule
        .evaluate(&ctx_at(&est, &errors, &root, 2, None, 1))
        .expect("first move is unrestricted");
    match fire.action {
        RewriteAction::SetKnob { value, .. } => {
            assert_eq!(value, 32);
            knob.set(value);
        }
        other => panic!("{other:?}"),
    }

    // Safe point 2: load flipped → doubling is a reversal inside the
    // cooldown: suppressed.
    est.init_duration(leaf, TimeNs::from_millis(1));
    assert!(rule
        .evaluate(&ctx_at(&est, &errors, &root, 2, None, 2))
        .is_none());
    // Still suppressed at safe point 4 (cooldown is 4: 4-1 < 4).
    assert!(rule
        .evaluate(&ctx_at(&est, &errors, &root, 2, None, 4))
        .is_none());
    // Safe point 5: cooldown elapsed, and 64 vs 32 clears the 10%
    // dead band → the reversal may fire.
    let (fire, _) = rule
        .evaluate(&ctx_at(&est, &errors, &root, 2, None, 5))
        .expect("cooldown elapsed");
    match fire.action {
        RewriteAction::SetKnob { value, .. } => assert_eq!(value, 64),
        other => panic!("{other:?}"),
    }

    // Same direction is never restricted: another double right away.
    knob.set(64);
    assert!(
        rule.evaluate(&ctx_at(&est, &errors, &root, 2, None, 6))
            .is_some(),
        "same-direction moves ride free"
    );
}

#[test]
fn hysteresis_dead_band_suppresses_small_reversals() {
    let knob = Knob::new("width", 10);
    let probe = seq(|x: i64| x);
    let root = Arc::clone(probe.node());
    let errors = ErrorStats::default();
    let est = EstimatorTable::new(0.5);
    // tasks_per_worker 1, so want = lp. Dead band 50%, no cooldown.
    let mut rule = RetuneWidth::new(knob.clone(), 1)
        .bounds(1, 1024)
        .hysteresis(Hysteresis::new(0, 0.5));
    // First move: shrink 10 → 8.
    assert!(rule
        .evaluate(&ctx_at(&est, &errors, &root, 8, None, 1))
        .is_some());
    knob.set(8);
    // Reversal to 11: |11-8| = 3 <= 0.5×8 → inside the dead band.
    assert!(rule
        .evaluate(&ctx_at(&est, &errors, &root, 11, None, 2))
        .is_none());
    // Reversal to 16: |16-8| = 8 > 4 → clears the band.
    assert!(rule
        .evaluate(&ctx_at(&est, &errors, &root, 16, None, 3))
        .is_some());
}

#[test]
fn forecast_gate_blocks_unprofitable_promotions() {
    use askel_skeletons::map;
    // Current: a seq leaf. Candidate: a map fanning out over 4
    // chunks. Forecasts are seeded so the promotion wins at lp 4 and
    // loses at lp 1.
    let leaf: Skel<Vec<i64>, i64> = seq(|v: Vec<i64>| v.iter().sum::<i64>());
    let promoted: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.chunks(4).map(|c| c.to_vec()).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    let mut est = EstimatorTable::new(0.5);
    est.init_duration(
        MuscleId::new(leaf.id(), MuscleRole::Execute),
        TimeNs::from_millis(400),
    );
    for m in promoted.node().collect_muscles() {
        let d = match m.id.role {
            MuscleRole::Execute => TimeNs::from_millis(100),
            _ => TimeNs::from_millis(1),
        };
        est.init_duration(m.id, d);
        if m.id.role == MuscleRole::Split {
            est.init_cardinality(m.id, 4.0);
        }
    }
    let errors = ErrorStats::default();
    let root = Arc::clone(leaf.node());
    let mut rule = Promote::new(&leaf, &promoted)
        .when(Trigger::InputSizeAtLeast(1.0))
        .forecast_gated(0.2);
    // lp 1: the fan-out buys nothing (402ms vs 400ms) → gate closed.
    assert!(rule
        .evaluate(&ctx_with(&est, &errors, &root, 1, Some(10.0)))
        .is_none());
    // lp 4: 100ms×4 runs in parallel → forecast wins by > 20%.
    let (fire, forecast) = rule
        .evaluate(&ctx_with(&est, &errors, &root, 4, Some(10.0)))
        .expect("forecast improvement at lp 4");
    let forecast = forecast.expect("gated fire carries its forecast");
    assert!(forecast.predicted < forecast.baseline);
    assert_eq!(forecast.realized, None);
    assert!(fire.why.contains("forecast"), "{}", fire.why);
    // Without estimates the gate never opens.
    let empty = EstimatorTable::new(0.5);
    assert!(rule
        .evaluate(&ctx_with(&empty, &errors, &root, 4, Some(10.0)))
        .is_none());
}

#[test]
fn forecast_gate_on_width_retune_models_constant_work() {
    use askel_skeletons::map;
    let knob = Knob::new("width", 1);
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| vec![v],
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    let split = MuscleId::new(program.id(), MuscleRole::Split);
    let leaf = MuscleId::new(program.node().children()[0].id, MuscleRole::Execute);
    let mut est = EstimatorTable::new(0.5);
    for m in program.node().collect_muscles() {
        est.init_duration(
            m.id,
            if m.id == leaf {
                TimeNs::from_millis(800)
            } else {
                TimeNs::from_millis(1)
            },
        );
    }
    est.init_cardinality(split, 1.0);
    let errors = ErrorStats::default();
    let root = Arc::clone(program.node());
    let mut rule = RetuneWidth::new(knob.clone(), 1)
        .bounds(1, 64)
        .constant_work(split, leaf)
        .forecast_gated(0.2);
    // lp 4 wants width 4; splitting 800ms of work 4 ways at lp 4
    // forecasts ~200ms vs 800ms → fires, with the forecast attached.
    let (_, forecast) = rule
        .evaluate(&ctx_with(&est, &errors, &root, 4, None))
        .expect("profitable widening");
    let f = forecast.unwrap();
    assert!(
        f.predicted.as_secs_f64() < f.baseline.as_secs_f64() * 0.5,
        "{f:?}"
    );
    // lp 1: want == current == 1 → quiet regardless of the gate.
    assert!(rule
        .evaluate(&ctx_with(&est, &errors, &root, 1, None))
        .is_none());
}

#[test]
fn the_meter_charges_each_interval_once_at_the_capacity_before_it() {
    let secs = TimeNs::from_secs;
    let meter = NodeHoursMeter::new();
    meter.observe(secs(10), 4);
    assert_eq!(
        meter.node_time(),
        TimeNs::ZERO,
        "the first observation anchors"
    );
    // 10 s at the 4 slots enabled before it; the new 1 is not charged yet.
    meter.observe(secs(20), 1);
    assert_eq!(meter.node_time(), secs(40));
    meter.observe(secs(23), 4);
    assert_eq!(
        meter.node_time(),
        secs(43),
        "3 s at the 1 slot enabled before"
    );
    assert!((meter.clone().node_hours() - 43.0 / 3600.0).abs() < 1e-12);

    // An out-of-order observation charges nothing and moves no anchor:
    // 15 s of wall time at 4 slots is 60 slot-s, not 80.
    let meter = NodeHoursMeter::new();
    for (at, slots) in [(10, 4), (20, 4), (15, 4), (25, 4)] {
        meter.observe(secs(at), slots);
    }
    assert_eq!(meter.node_time(), secs(60));
}
