//! End-to-end self-configuration: the adaptive word count reshapes itself
//! mid-stream (promotion, width retune, fallback-swap), every rewrite is
//! announced through `Reconfigured` events and audited in the decision
//! log, results match the unadapted reference — and on the simulator the
//! whole decision sequence replays deterministically, virtual timestamps
//! included.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use autonomic_skeletons::prelude::*;
use autonomic_skeletons::skeletons::MuscleId;
use autonomic_skeletons::workloads::adaptive::{AdaptiveWordCount, POISON};
use autonomic_skeletons::workloads::{generate_corpus, TweetGenConfig};

fn corpus(tweets: usize) -> Vec<String> {
    generate_corpus(&TweetGenConfig::with_tweets(tweets))
}

fn poisoned(tweets: usize) -> Vec<String> {
    let mut c = corpus(tweets);
    c.push(format!("linea rota {POISON} @usuario2"));
    c
}

/// The acceptance scenario: two structural rewrites (a promotion and a
/// fallback-swap) plus a knob retune happen mid-stream on the threaded
/// engine, visible in the emitted `Reconfigured` events and the decision
/// log, with results identical to the unadapted (robust) reference.
#[test]
fn adaptive_wordcount_reshapes_mid_stream() {
    let wc = AdaptiveWordCount::new(4);
    let engine = Engine::new(2);

    // Collect every Reconfigured event.
    let reconfigured = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&reconfigured);
    engine.registry().add_filtered(
        EventFilter::all().wher(Where::Reconfigured),
        Arc::new(FnListener(
            move |_: &mut Payload<'_>, e: &autonomic_skeletons::events::Event| {
                sink.lock().unwrap().push((e.paper_notation(), e.node));
            },
        )),
    );

    let trigger = TriggerEngine::new(0.5);
    engine.registry().add_listener(trigger.clone());
    trigger.add_rule(
        Promote::new(&wc.count, &wc.parallel)
            .named("promote-count")
            .when(Trigger::InputSizeAtLeast(200.0)),
    );
    let par_split = MuscleId::new(wc.parallel.id(), MuscleRole::Split);
    trigger.add_rule(
        RetuneWidth::new(Knob::from_shared("count-width", Arc::clone(&wc.width)), 3)
            .bounds(2, 64)
            .when(Trigger::CardinalityAtLeast(par_split, 1.0)),
    );
    trigger.add_rule(FallbackSwap::new(&wc.filter, &wc.robust, 2).named("swap-filter"));

    let mut stream = AdaptiveSession::new(&engine, &wc.program, trigger.clone())
        .input_size(|c: &Vec<String>| c.len());

    let mut items: Vec<Vec<String>> = Vec::new();
    items.extend((0..3).map(|_| corpus(40)));
    items.extend((0..3).map(|_| corpus(600)));
    items.extend((0..3).map(|_| poisoned(400)));
    items.push(corpus(200));

    let mut results = Vec::new();
    for item in &items {
        stream.feed(item.clone());
        results.push(stream.next_result().expect("lock-step"));
    }
    assert_eq!(stream.version(), 3);
    engine.shutdown();

    // Exactly the two streak items fail; every success equals the
    // unadapted reference result.
    let errors: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_err().then_some(i))
        .collect();
    assert_eq!(errors, vec![6, 7], "the first two corrupt items fail");
    for (i, (item, result)) in items.iter().zip(&results).enumerate() {
        if let Ok(counts) = result {
            assert_eq!(counts, &wc.reference(item), "item {i} diverged");
        }
    }

    // The rewrites are visible through both channels.
    let events = reconfigured.lock().unwrap().clone();
    assert_eq!(events.len(), 3, "{events:?}");
    assert!(events[0].0.contains("@rc(i1, v=1)"), "{events:?}");
    assert!(events[2].0.contains("v=3"), "{events:?}");
    let log = trigger.decision_log();
    let rules: Vec<&str> = log.iter().map(|d| d.rule.as_str()).collect();
    assert_eq!(rules, vec!["promote-count", "width-retune", "swap-filter"]);
    assert_eq!(log[0].target, Some(wc.count.id()));
    assert_eq!(log[2].target, Some(wc.filter.id()));
    assert_eq!(wc.width.load(Ordering::SeqCst), 6, "lp 2 × 3 per worker");
    assert!(log.iter().all(|d| !d.why.is_empty()));
}

/// The same session over the discrete-event simulator: rewrite decisions
/// (virtual timestamps included) replay identically across runs.
#[test]
fn sim_rewrite_decisions_are_deterministic() {
    fn run_once() -> (Vec<(TimeNs, u64, String)>, Vec<i64>) {
        let v1: Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let v2: Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| vec![v],
            seq(|v: Vec<i64>| v.into_iter().sum::<i64>()),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        // Every muscle costs 1s of virtual time.
        let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
        let sim = SimEngine::new(2, cost);
        let trigger = TriggerEngine::new(0.5);
        sim.registry().add_listener(trigger.clone());
        let fe = MuscleId::new(v1.node().children()[0].id, MuscleRole::Execute);
        trigger.add_rule(
            Promote::new(&v1, &v2)
                .named("collapse-fan")
                .when(Trigger::DurationAtLeast(fe, TimeNs::from_millis(500))),
        );
        let mut session = sim_session(sim, &v1, trigger.clone());
        let items = (0..4).map(|round| (0..=round).collect::<Vec<i64>>());
        let outputs = session
            .run_stream(items)
            .into_iter()
            .map(|r| r.expect("sim run"))
            .collect();
        assert_eq!(session.version(), 1, "the promotion fired exactly once");
        let log: Vec<(TimeNs, u64, String)> = trigger
            .decision_log()
            .into_iter()
            .map(|d| (d.at, d.version, d.rule))
            .collect();
        (log, outputs)
    }

    let (log_a, out_a) = run_once();
    let (log_b, out_b) = run_once();
    assert_eq!(out_a, out_b);
    assert_eq!(out_a, vec![0, 1, 3, 6]);
    assert_eq!(log_a.len(), 1);
    assert_eq!(
        log_a, log_b,
        "decision log (virtual timestamps included) must replay identically"
    );
}

/// The PR 5 acceptance scenario: oscillating load on a skewed two-node
/// cluster. Exactly one audited `Offload` fires, provisioning brings the
/// hub online, the hysteresis-damped grain knob never reverses direction
/// within its cooldown window, stream results are identical to the
/// sequential reference — and the whole decision sequence (virtual
/// timestamps included) replays deterministically.
#[test]
fn skewed_cluster_offload_acceptance() {
    use askel_bench::run_skewed_cluster;

    let a = run_skewed_cluster(OrderingPolicy::from_env());
    // Results identical to the sequential reference; the grain knob
    // never reversed direction within the cooldown window.
    a.check_invariants("");
    // Exactly one audited Offload fired, onto the hub.
    let offloads: Vec<_> = a.decisions.iter().filter(|d| d.rule == "offload").collect();
    assert_eq!(offloads.len(), 1, "{:?}", a.decisions);
    assert!(offloads[0].action.contains("`hub`"), "{:?}", offloads[0]);
    // Provisioning brought the hub online — one audited decision in the
    // same log, at item 1's safe point — and offloaded work ran there.
    let provisions: Vec<_> = a
        .decisions
        .iter()
        .filter(|d| d.rule == "provisioning")
        .collect();
    assert_eq!(provisions.len(), 1, "{:?}", a.decisions);
    assert!(provisions[0].why.contains("`hub`"), "{:?}", provisions[0]);
    assert_eq!(a.capacity_trace, vec![(1, 5)], "edge slot + 4 hub slots");
    assert!(a.telemetry.busy_per_node()[1] > TimeNs::ZERO);
    assert!(!a.grain_trace.is_empty(), "the grain knob moved");
    // Deterministic: the whole decision sequence replays identically.
    let b = run_skewed_cluster(OrderingPolicy::from_env());
    assert_eq!(
        a.decision_keys(),
        b.decision_keys(),
        "virtual timestamps included"
    );
    assert_eq!(a.capacity_trace, b.capacity_trace);
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.grain_trace, b.grain_trace);
    // And under the default ordering it is this sequence, literally.
    let pinned = run_skewed_cluster(OrderingPolicy::Deterministic);
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

/// LP-coupled promotion: the forecast gate (reading the knowledge the
/// trigger engine shares with a controller) blocks an unprofitable
/// promotion at LP 1, opens at LP 4, and the decision log audits the
/// predicted WCT against the realized WCT of the first item under the new
/// version.
#[test]
fn forecast_gated_promotion_audits_predicted_vs_realized() {
    use autonomic_skeletons::core::{AutonomicController, ControllerConfig, FnActuator};

    let v1: Skel<Vec<i64>, i64> = seq(|v: Vec<i64>| v.iter().sum::<i64>());
    let v2: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.chunks(4).map(|c| c.to_vec()).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
        |p: Vec<i64>| p.into_iter().sum::<i64>(),
    );
    let v1_fe = MuscleId::new(v1.id(), MuscleRole::Execute);
    let v2_fe = MuscleId::new(v2.node().children()[0].id, MuscleRole::Execute);
    let v2_fs = MuscleId::new(v2.id(), MuscleRole::Split);
    let v2_fm = MuscleId::new(v2.id(), MuscleRole::Merge);

    // The controller owns the estimates; the trigger decides from the
    // same knowledge — the two autonomic layers share one view of the
    // world.
    let controller = || {
        let controller = AutonomicController::new(
            v1.node().clone(),
            ControllerConfig::new(TimeNs::from_secs(1), 4),
            Arc::new(FnActuator(|_| {})),
        );
        controller.knowledge().with_estimates(|est| {
            est.init_duration(v1_fe, TimeNs::from_millis(800));
            est.init_duration(v2_fe, TimeNs::from_millis(200));
            est.init_duration(v2_fs, TimeNs::from_millis(1));
            est.init_duration(v2_fm, TimeNs::from_millis(1));
            est.init_cardinality(v2_fs, 4.0);
        });
        controller
    };
    // The controller's own read path agrees with what the gate will see.
    let controller_alone = controller();
    let at1 = controller_alone.forecast_wct(v2.node(), 1).unwrap();
    let at4 = controller_alone.forecast_wct(v2.node(), 4).unwrap();
    assert!(at4 < at1);

    let run = |lp: usize| {
        let cost = Arc::new(
            TableCost::new(TimeNs::from_millis(1))
                .with(v1_fe, TimeNs::from_millis(800))
                .with(v2_fe, TimeNs::from_millis(200)),
        );
        let sim = SimEngine::new(lp, cost);
        let trigger = TriggerEngine::for_controller(&controller());
        sim.registry().add_listener(trigger.clone());
        trigger.add_rule(
            Promote::new(&v1, &v2)
                .named("gated-promote")
                .when(Trigger::InputSizeAtLeast(1.0))
                .forecast_gated(0.2),
        );
        let clock = sim.clock().clone();
        let mut session = sim_session(sim, &v1, trigger.clone());
        let mut realized_wcts = Vec::new();
        for round in 0..3 {
            // The size hint is recorded after the item rather than through
            // `input_size`, so round 0's safe point sees no input-size
            // EWMA yet and the earliest possible fire is round 1's — item
            // 0 always runs on v1, giving the audit a pre-rewrite item to
            // skip.
            let started = clock.now();
            session.feed((0..16).collect());
            let out = session.next_result().expect("one item in flight");
            assert_eq!(out.expect("sim run"), 120, "round {round}");
            trigger.observe_input_size(16);
            realized_wcts.push(clock.now().saturating_sub(started));
        }
        (session.version(), trigger.decision_log(), realized_wcts)
    };

    // LP 1: the fan-out buys nothing — the gate stays closed.
    let (version, log, _) = run(1);
    assert_eq!(version, 0, "unprofitable promotion blocked: {log:?}");
    assert!(log.is_empty());

    // LP 4: the forecast improves by far more than the 20% margin.
    let (version, log, wcts) = run(4);
    assert_eq!(version, 1);
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].rule, "gated-promote");
    let forecast = log[0].forecast.expect("gated fire carries its forecast");
    assert!(
        forecast.predicted < forecast.baseline,
        "gate only opens on improvement: {forecast:?}"
    );
    assert!(log[0].why.contains("forecast"), "{}", log[0].why);
    // The realized WCT of the first item under the new version closed
    // the audit — and the promotion really was faster.
    let realized = forecast.realized.expect("first post-rewrite item audited");
    assert_eq!(realized, wcts[1], "the audit records the item's WCT");
    assert!(realized < wcts[0], "promotion paid off: {wcts:?}");
}

/// Sharing the estimator view: a trigger engine made for the
/// self-optimization controller reads the controller's live table — not a
/// copy — and a trigger engine of its own does not.
#[test]
fn trigger_seeds_from_controller_estimates() {
    use autonomic_skeletons::core::{AutonomicController, ControllerConfig, FnActuator};

    let program: Skel<i64, i64> = seq(|x: i64| x + 1);
    let fe = MuscleId::new(program.id(), MuscleRole::Execute);
    let controller = AutonomicController::new(
        program.node().clone(),
        ControllerConfig::new(TimeNs::from_secs(1), 4),
        Arc::new(FnActuator(|_| {})),
    );
    controller
        .knowledge()
        .with_estimates(|est| est.init_duration(fe, TimeNs::from_millis(7)));

    let own = TriggerEngine::new(0.5);
    assert_eq!(own.knowledge().read_estimates(|t| t.duration(fe)), None);
    let shared = TriggerEngine::for_controller(&controller);
    let seen = || shared.knowledge().read_estimates(|t| t.duration(fe));
    assert_eq!(seen(), Some(TimeNs::from_millis(7)));
    controller
        .knowledge()
        .with_estimates(|est| est.init_duration(fe, TimeNs::from_millis(9)));
    assert_eq!(
        seen(),
        Some(TimeNs::from_millis(9)),
        "the trigger reads the controller's live estimates"
    );
}

/// One knowledge for both autonomic properties, across rewrites: a
/// controller and a trigger engine made for it share one simulated stream
/// through a nested promotion and then a root replacement. Every item
/// equals the sequential reference of the version it ran on; the
/// controller keeps analysing after each rewrite (its gate reopens once
/// the new muscles have run, instead of staying shut over a tree that no
/// longer exists); and it decides again on the replacement tree.
#[test]
fn controller_and_trigger_share_one_stream_across_rewrites() {
    use autonomic_skeletons::core::FnActuator;

    let sum = |v: Vec<i64>| v.iter().sum::<i64>();
    let chunks = |n: usize| move |v: Vec<i64>| v.chunks(n).map(<[i64]>::to_vec).collect::<Vec<_>>();
    let merge = |parts: Vec<i64>| parts.into_iter().sum::<i64>();
    let leaf: Skel<Vec<i64>, i64> = seq(sum);
    let v1 = map(chunks(4), farm(leaf.clone()), merge);
    // Nested: the farmed leaf becomes a map over singletons (the root
    // keeps its id). Root: a map over pairs, a tree with a new root.
    let promoted_leaf = map(chunks(1), seq(sum), merge);
    let replacement = map(chunks(2), seq(sum), merge);

    // Every muscle takes 10 ms; the goal is 100 ms per item.
    let sim = SimEngine::new(8, Arc::new(TableCost::new(TimeNs::from_millis(10))));
    let lp = sim.lp_control();
    let config = ControllerConfig::new(TimeNs::from_millis(100), 8).initial_lp(8);
    let actuator = Arc::new(FnActuator(move |to: usize| lp.request(to)));
    let controller = AutonomicController::new(v1.node().clone(), config, actuator);
    sim.registry().add_listener(controller.clone());
    let trigger = TriggerEngine::for_controller(&controller);
    trigger.add_rule(
        Promote::new(&leaf, &promoted_leaf)
            .named("nested")
            .when(Trigger::InputSizeAtLeast(12.0)),
    );
    trigger.add_rule(
        Promote::new(&v1, &replacement)
            .named("root")
            .when(Trigger::InputSizeAtLeast(24.0)),
    );
    let mut session = sim_session(sim, &v1, trigger.clone()).input_size(|v: &Vec<i64>| v.len());

    // Sizes 8, then 16 (the nested promotion fires at the first), then
    // 32 (the root replacement at the second).
    let sizes = [8, 8, 8, 16, 16, 16, 16, 16, 32, 32, 32, 32, 32];
    let mut ran = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let input: Vec<i64> = (0..size).map(|x| x * 3 + i as i64).collect();
        session.feed(input.clone());
        let reference = session.skeleton().apply(input);
        let out = session.next_result().expect("lock-step");
        assert_eq!(
            out.ok(),
            Some(reference),
            "item {i} on v{}",
            session.version()
        );
        ran.push((session.version(), controller.analyses()));
    }
    let versions: Vec<u64> = ran.iter().map(|r| r.0).collect();
    assert_eq!(versions, [0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2]);
    let log = trigger.decision_log();
    assert_eq!(
        log.iter().map(|r| r.rule.as_str()).collect::<Vec<_>>(),
        ["nested", "root"]
    );

    // The analyses keep growing under every version, the last items of
    // each included.
    let analyses: Vec<usize> = ran.iter().map(|r| r.1).collect();
    for (first, last) in [(0, 2), (3, 8), (9, 12)] {
        assert!(
            analyses[last] > analyses[last - 1] && analyses[last - 1] > analyses[first],
            "v{}: {analyses:?}",
            versions[last]
        );
    }
    // And the controller decides on each tree: it lowers the LP on v1,
    // raises it for v2's nested fan-out, and decides again on the
    // replacement once the replacement's muscles have run.
    let decisions = controller.decisions();
    let on = |from: TimeNs, to: TimeNs| decisions.iter().filter(move |d| d.at > from && d.at < to);
    let lowered: Vec<_> = on(TimeNs::ZERO, log[0].at).map(|d| d.reason).collect();
    assert!(!lowered.is_empty() && lowered.iter().all(|r| *r == DecisionReason::Decrease));
    assert!(
        on(log[0].at, log[1].at).any(|d| d.to_lp > d.from_lp),
        "{decisions:?}"
    );
    assert!(on(log[1].at, TimeNs(u64::MAX)).count() > 0, "{decisions:?}");
    // One estimator table: the trigger sees what the controller learnt.
    let fe = MuscleId::new(replacement.node().children()[0].id, MuscleRole::Execute);
    assert!(trigger
        .knowledge()
        .read_estimates(|t| t.duration(fe))
        .is_some());
    assert_eq!(
        controller.forecast_wct(replacement.node(), 4),
        trigger
            .knowledge()
            .read_estimates(|t| autonomic_skeletons::core::predictive_wct(
                t,
                replacement.node(),
                4
            ))
    );
}

/// A trigger engine made for a controller needs no listener of its own:
/// the controller's registration feeds both, through one event log.
#[test]
fn a_shared_knowledge_is_one_listener() {
    use autonomic_skeletons::core::FnActuator;

    let engine = Engine::new(2);
    let program: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| v.chunks(2).map(<[i64]>::to_vec).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let config = ControllerConfig::new(TimeNs::from_secs(3600), 2).initial_lp(2);
    let controller =
        AutonomicController::new(program.node().clone(), config, Arc::new(FnActuator(|_| {})));
    engine.registry().add_listener(controller.clone());
    let trigger = TriggerEngine::for_controller(&controller);
    let mut session = AdaptiveSession::new(&engine, &program, trigger.clone()).max_in_flight(4);
    for x in 0..16 {
        session.feed(vec![x, x + 1, x + 2, x + 3]);
    }
    let out: Vec<i64> = session.drain().map(|r| r.unwrap()).collect();
    assert_eq!(out, (0..16).map(|x| 4 * x + 6).collect::<Vec<_>>());
    assert_eq!(engine.registry().len(), 1);
    assert!(controller.analyses() > 0);
    let fe = MuscleId::new(program.node().children()[0].id, MuscleRole::Execute);
    assert!(trigger
        .knowledge()
        .read_estimates(|t| t.duration(fe))
        .is_some());
    assert_eq!(trigger.safe_points(), 16);
    engine.shutdown();
}

/// The engine-facing suppressed-panic noise check: a fragile muscle panic
/// inside a stream never tears the session, and the error streak is what
/// drives the swap (already covered above); here we pin the version
/// counter's visibility through the facade prelude.
#[test]
fn facade_exports_adaptive_surface() {
    let engine = Engine::new(1);
    let program: Skel<i64, i64> = seq(|x: i64| x * 2);
    let trigger = TriggerEngine::new(0.5);
    let mut stream = AdaptiveSession::new(&engine, &program, trigger);
    stream.feed(21);
    let out: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
    assert_eq!(out, vec![42]);
    engine.shutdown();
    // Re-exported rule/record types are nameable through the prelude.
    let _ = |r: AdaptRecord| r.version;
    let _ = RetuneGrain::new;
}
