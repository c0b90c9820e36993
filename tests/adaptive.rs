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
        let mut session = AdaptiveSimSession::new(sim, &v1, trigger.clone()).lp_source(|| 2);
        let items = (0..4).map(|round| (0..=round).collect::<Vec<i64>>());
        let outputs = session
            .run_stream(items, &mut [])
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
    // Provisioning brought the hub online and offloaded work ran there.
    let additions = a.additions();
    assert_eq!(additions.len(), 1, "{additions:?}");
    assert_eq!(additions[0].1, "hub");
    assert_eq!(additions[0].2, 5, "edge slot + 4 hub slots");
    assert!(a.telemetry.busy_per_node()[1] > TimeNs::ZERO);
    assert!(!a.grain_trace.is_empty(), "the grain knob moved");
    // Deterministic: the whole decision sequence replays identically.
    let b = run_skewed_cluster(OrderingPolicy::from_env());
    assert_eq!(
        a.decision_keys(),
        b.decision_keys(),
        "virtual timestamps included"
    );
    assert_eq!(additions, b.additions());
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.grain_trace, b.grain_trace);
}

/// LP-coupled promotion: the forecast gate (fed through the controller's
/// `read_estimates`/`seed_from` path) blocks an unprofitable promotion at
/// LP 1, opens at LP 4, and the decision log audits the predicted WCT
/// against the realized WCT of the first item under the new version.
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

    // The controller owns the estimates; the trigger seeds from it — the
    // two autonomic layers decide from one shared view of the world.
    let controller = AutonomicController::new(
        v1.node().clone(),
        ControllerConfig::new(TimeNs::from_secs(1), 4),
        Arc::new(FnActuator(|_| {})),
    );
    controller.with_estimates(|est| {
        est.init_duration(v1_fe, TimeNs::from_millis(800));
        est.init_duration(v2_fe, TimeNs::from_millis(200));
        est.init_duration(v2_fs, TimeNs::from_millis(1));
        est.init_duration(v2_fm, TimeNs::from_millis(1));
        est.init_cardinality(v2_fs, 4.0);
    });
    // The controller's own read path agrees with what the gate will see.
    let at1 = controller.forecast_wct(v2.node(), 1).unwrap();
    let at4 = controller.forecast_wct(v2.node(), 4).unwrap();
    assert!(at4 < at1);

    let run = |lp: usize| {
        let cost = Arc::new(
            TableCost::new(TimeNs::from_millis(1))
                .with(v1_fe, TimeNs::from_millis(800))
                .with(v2_fe, TimeNs::from_millis(200)),
        );
        let sim = SimEngine::new(lp, cost);
        let trigger = TriggerEngine::new(0.5);
        trigger.seed_from(&controller);
        sim.registry().add_listener(trigger.clone());
        trigger.add_rule(
            Promote::new(&v1, &v2)
                .named("gated-promote")
                .when(Trigger::InputSizeAtLeast(1.0))
                .forecast_gated(0.2),
        );
        let clock = sim.clock().clone();
        let mut session = AdaptiveSimSession::new(sim, &v1, trigger.clone()).lp_source(move || lp);
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

/// Sharing the estimator view: the self-configuration layer can seed its
/// trigger statistics from the self-optimization controller's live table.
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
    controller.with_estimates(|est| est.init_duration(fe, TimeNs::from_millis(7)));

    let trigger = TriggerEngine::new(0.5);
    assert_eq!(trigger.read_estimates(|t| t.duration(fe)), None);
    trigger.seed_from(&controller);
    assert_eq!(
        trigger.read_estimates(|t| t.duration(fe)),
        Some(TimeNs::from_millis(7)),
        "trigger adopted the controller's live estimates"
    );
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
    let _ = |v: VersionedSkel<i64, i64>| v.version();
    let _ = autonomic_skeletons::adapt::Reconfigurator::new;
    let _ = RetuneGrain::new;
}
