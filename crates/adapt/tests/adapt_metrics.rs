//! Self-configuration metrics: rule-fire counters and the
//! predicted-vs-realized forecast-error histogram, plus the decision-log
//! Chrome-trace adapter.

use std::sync::Arc;

use askel_adapt::{decision_log_to_chrome, AdaptRecord, FallbackSwap, Forecast, TriggerEngine};
use askel_core::json::Json;
use askel_events::{Event, EventInfo, Listener, Payload, Trace, When, Where};
use askel_obs::{ChromeTrace, MetricsHub};
use askel_skeletons::{seq, InstanceId, KindTag, NodeId, TimeNs};

fn root_event(node: NodeId, when: When, inst: u64, at_ms: u64) -> Event {
    Event {
        node,
        kind: KindTag::Seq,
        when,
        wher: Where::Skeleton,
        index: InstanceId(inst),
        trace: Trace::root(node, InstanceId(inst), KindTag::Seq),
        timestamp: TimeNs::from_millis(at_ms),
        info: EventInfo::None,
    }
}

#[test]
fn rule_fires_are_counted_per_rule_when_enabled() {
    let hub = MetricsHub::new();
    hub.set_enabled(true);
    let target = seq(|x: i64| x);
    let fallback = seq(|x: i64| x);
    let t = TriggerEngine::new(0.5);
    t.attach_metrics(&hub);
    t.add_rule(FallbackSwap::new(&target, &fallback, 1));
    t.record_outcome(false);
    let root = Arc::clone(target.node());
    assert_eq!(t.plan(&root, 0, 1, TimeNs::ZERO).len(), 1);
    let snap = hub.snapshot();
    assert_eq!(snap.counter("adapt_rule_fires_total"), Some(1));
    assert_eq!(
        snap.counter("adapt_rule_fires_total{rule=\"fallback-swap\"}"),
        Some(1)
    );
}

#[test]
fn closed_forecast_audits_record_their_error() {
    let hub = MetricsHub::new();
    hub.set_enabled(true);
    let t = TriggerEngine::new(0.5);
    t.attach_metrics(&hub);
    let node = NodeId(11);
    t.record(AdaptRecord {
        at: TimeNs::from_millis(10),
        version: 1,
        rule: "promote".into(),
        target: None,
        action: "replace".into(),
        why: "gated".into(),
        forecast: Some(Forecast {
            predicted: TimeNs::from_millis(40),
            baseline: TimeNs::from_millis(100),
            realized: None,
        }),
    });
    // An item submitted after the rewrite runs 45 ms: |45 - 40| = 5 ms.
    t.on_event(&mut Payload::None, &root_event(node, When::Before, 2, 25));
    t.on_event(&mut Payload::None, &root_event(node, When::After, 2, 70));
    // The audit closes when the trigger's state is next read.
    assert_eq!(t.decision_log().len(), 1);
    let h = hub.snapshot();
    let err = h.histogram("adapt_forecast_error_ns").unwrap().clone();
    assert_eq!(err.count(), 1);
    let five_ms = TimeNs::from_millis(5).0;
    assert!(err.min() >= five_ms && err.max() <= five_ms + five_ms / 32);
}

#[test]
fn disabled_hub_counts_nothing() {
    let hub = MetricsHub::new();
    let target = seq(|x: i64| x);
    let t = TriggerEngine::new(0.5);
    t.attach_metrics(&hub);
    t.add_rule(FallbackSwap::new(&target, &target, 1));
    t.record_outcome(false);
    let root = Arc::clone(target.node());
    assert_eq!(t.plan(&root, 0, 1, TimeNs::ZERO).len(), 1);
    assert_eq!(hub.snapshot().counter("adapt_rule_fires_total"), Some(0));
}

#[test]
fn decision_log_renders_as_chrome_instants() {
    let log = vec![
        AdaptRecord {
            at: TimeNs::from_millis(20),
            version: 2,
            rule: "retune-width".into(),
            target: None,
            action: "set knob `w` 2 -> 4".into(),
            why: "lp grew".into(),
            forecast: None,
        },
        AdaptRecord {
            at: TimeNs::from_millis(10),
            version: 1,
            rule: "promote".into(),
            target: Some(NodeId(3)),
            action: "replace n3 with n9".into(),
            why: "input~500".into(),
            forecast: Some(Forecast {
                predicted: TimeNs::from_millis(40),
                baseline: TimeNs::from_millis(100),
                realized: Some(TimeNs::from_millis(45)),
            }),
        },
    ];
    let mut trace = ChromeTrace::new();
    decision_log_to_chrome(&log, &mut trace);
    assert_eq!(trace.len(), 2);
    let json = Json::parse(&trace.render()).unwrap();
    let events = json.get("traceEvents").unwrap().as_array().unwrap();
    // Sorted by timestamp: the promote record (10 ms) renders first,
    // with its forecast audit in the args.
    assert_eq!(
        events[0].get("name").unwrap().as_str(),
        Some("promote: replace n3 with n9")
    );
    assert_eq!(events[0].get("ph").unwrap().as_str(), Some("i"));
    let args = events[0].get("args").unwrap();
    assert_eq!(
        args.get("realized_ns").unwrap().as_f64(),
        Some(TimeNs::from_millis(45).0 as f64)
    );
    assert_eq!(
        events[1].get("name").unwrap().as_str(),
        Some("retune-width: set knob `w` 2 -> 4")
    );
}
