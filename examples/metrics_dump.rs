//! Observe a full run: one hub, three exporters.
//!
//! Enables the engine's [`MetricsHub`], serves a burst of multi-tenant
//! traffic (one tenant adaptive, so the trigger engine contributes rule
//! and forecast metrics), and then exports everything the stack
//! recorded:
//!
//! * **Prometheus text** to stdout — pool scheduling counters, engine
//!   span histograms, serve admission outcomes, and per-tenant sojourn
//!   quantiles, ready for a scrape endpoint.
//! * A **Chrome trace** to `target/metrics_dump.trace.json` — the
//!   pool's active-task timeline plus the adapt layer's decisions as
//!   instant events. Open it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>.
//!
//! Run with: `cargo run --example metrics_dump`

use autonomic_skeletons::adapt::decision_log_to_chrome;
use autonomic_skeletons::pool::telemetry_to_chrome;
use autonomic_skeletons::prelude::*;

/// The tenant program: square every element in parallel, then sum.
fn program() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] * v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

fn main() {
    let engine = Engine::new(4);
    // One switch turns on recording across pool, engine, serve and
    // adapt — everything shares this hub.
    engine.metrics_hub().set_enabled(true);
    // The pool's active-task timeline (exporter 2) is opt-in as well.
    engine.pool().telemetry().set_recording(true);

    let mut registry: ServeRegistry<Vec<i64>, i64> = ServeRegistry::new(&engine)
        .with_policy(AdmissionPolicy::default().max_in_flight(4).max_backlog(64));

    // Three plain tenants plus one adaptive tenant whose trigger engine
    // observes the run and logs decisions.
    let tenants: Vec<TenantId> = (0..3).map(|_| registry.register(&program())).collect();
    let trigger = TriggerEngine::new(0.5);
    let adaptive = registry.register_adaptive(&program(), trigger.clone());

    for round in 0..8 {
        for &t in &tenants {
            registry.feed(t, (0..=round as i64).collect());
        }
        registry.feed(adaptive, (0..=round as i64 + 2).collect());
    }
    registry.quiesce();
    registry.drain_cycle();
    let served: usize = tenants
        .iter()
        .chain(std::iter::once(&adaptive))
        .map(|&t| registry.take_ready(t).len())
        .sum();
    assert_eq!(served, 32, "every admitted item completed");

    // --- Exporter 1: Prometheus text ---------------------------------
    // `export_snapshot` is the hub snapshot plus the registry's
    // per-tenant sojourn series.
    let snap = registry.export_snapshot();
    println!("{}", snap.to_prometheus());

    // --- Exporter 2: Chrome trace timeline ---------------------------
    let mut trace = ChromeTrace::new();
    telemetry_to_chrome(&engine.pool().telemetry().samples(), &mut trace);
    decision_log_to_chrome(&trigger.decision_log(), &mut trace);
    let path = "target/metrics_dump.trace.json";
    trace.save(path).expect("trace written");
    println!(
        "# chrome trace: {} events -> {path} (load in chrome://tracing)",
        trace.len(),
    );
    engine.shutdown();
}
