//! What the benchmark measures, by name: the workloads, the end-to-end
//! metrics every workload reports, and the per-layer metrics of the
//! layer pass. `BENCHMARK.json` at the root of the repository declares
//! the same names; a unit test keeps the two from drifting.

/// Workers in every engine (the LP), shard drivers in every
/// `ShardedServe`, and the stream workloads' in-flight window.
pub const LP: usize = 2;
pub const SHARDS: usize = 2;
pub const WINDOW_FINE: usize = 16;
pub const WINDOW_COARSE: usize = 4;
/// `serve_open`: the gated rate, the layer pass's sweep, and the p90
/// limit that defines `serve.max_rate_ok`.
pub const OPEN_RATE: f64 = 40_000.0;
pub const OPEN_SWEEP: [f64; 4] = [10_000.0, 20_000.0, 40_000.0, 80_000.0];
pub const OPEN_LIMIT_US: f64 = 1_000.0;
pub const OPEN_LATE_LIMIT_US: f64 = 200.0;
/// Default `--seconds`, equal to `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "stream_fine",
        why: "closed loop, window 16: 70ns-2us muscles, so pool dispatch, interpreter, events and adapt do the work",
    },
    Workload {
        name: "stream_coarse",
        why: "closed loop, window 4: 0.8ms compute-bound items; the bypass workload where layers should cost under 3%",
    },
    Workload {
        name: "serve_open",
        why: "open loop, Poisson 40k items/s over 1000 Zipf tenants: driver wake, shard lock and admission own latency",
    },
    Workload {
        name: "serve_burst",
        why: "closed bulk rounds, 10000 tenants x 4-item batches then a barrier: the same layer used the opposite way",
    },
    Workload {
        name: "sim_goal",
        why: "single thread, virtual time: paper goal scenario plus 1000-node stream; core, sim and dist do all the work",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported by every workload in the e2e pass (spans and hub off).
pub const END_TO_END: [Metric; 3] = [
    m("items_per_s", "items/s", "higher"),
    m("rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Reported by the layer pass (spans and hub on). A workload that does
/// not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [Metric; 73] = [
    // skeletons: the sequential reference every `*_over_seq_x` divides by.
    m("skeletons.seq_ref_ns_map_512", "ns", "lower"),
    m("skeletons.seq_ref_ns_dac_sort_512", "ns", "lower"),
    m("skeletons.seq_ref_ns_for_64", "ns", "lower"),
    // pool
    m("pool.dispatch_ns_per_task", "ns", "lower"),
    m("pool.roundtrip_ns_p50", "ns", "lower"),
    m("pool.resize_cycle_ns", "ns", "lower"),
    m("pool.wake_latency_ns_p50", "ns", "lower"),
    m("pool.parks_per_item", "count", "lower"),
    m("pool.steals_per_item", "count", "lower"),
    m("pool.spin_rounds_per_item", "count", "lower"),
    // engine
    m("engine.items_per_s_plain", "items/s", "higher"),
    m("engine.submit_ns_per_item", "ns", "lower"),
    m("engine.stream_ns_per_item", "ns", "lower"),
    m("engine.over_seq_x_map_512", "x", "lower"),
    m("engine.over_seq_x_dac_sort_512", "x", "lower"),
    m("engine.over_seq_x_for_64", "x", "lower"),
    m("engine.feed_call_ns_p50", "ns", "lower"),
    m("engine.wait_ns_p50", "ns", "lower"),
    m("engine.lp2_over_lp1_x", "x", "higher"),
    m("engine.queue_delay_ns_p50", "ns", "lower"),
    m("engine.service_ns_p50", "ns", "lower"),
    m("engine.span_ns_p50", "ns", "lower"),
    // events
    m("events.monitor_overhead_x", "x", "lower"),
    m("events.noop_listener_delta_ns", "ns", "lower"),
    m("events.emitted_per_item", "count", "lower"),
    // core
    m("core.controller_delta_ns", "ns", "lower"),
    m("core.analyses_per_item", "count", "lower"),
    m("core.scenario_decisions", "count", "lower"),
    m("core.scenario_virtual_wct_s", "s", "lower"),
    m("core.scenario_analyses", "count", "lower"),
    // adapt
    m("adapt.trigger_delta_ns", "ns", "lower"),
    m("adapt.session_delta_ns", "ns", "lower"),
    m("adapt.safe_points_per_item", "count", "lower"),
    m("adapt.evaluations_per_item", "count", "lower"),
    // serve: the ladder rungs
    m("serve.registry_delta_ns", "ns", "lower"),
    m("serve.sharded_delta_ns", "ns", "lower"),
    m("serve.adaptive_tenant_delta_ns", "ns", "lower"),
    // serve: serve_open
    m("serve.max_rate_ok", "items/s", "higher"),
    m("serve.feed_call_ns_p50", "ns", "lower"),
    m("serve.feed_call_ns_p99", "ns", "lower"),
    m("serve.take_ready_call_ns_p50", "ns", "lower"),
    m("serve.wait_us_p50", "us", "lower"),
    m("serve.service_us_p50", "us", "lower"),
    m("serve.harvest_us_p50", "us", "lower"),
    m("serve.gen_late_us_p90", "us", "lower"),
    m("serve.sojourn_us_p99", "us", "lower"),
    m("serve.sojourn_us_p50_at_10k", "us", "lower"),
    m("serve.sojourn_us_p50_at_20k", "us", "lower"),
    m("serve.sojourn_us_p50_at_40k", "us", "lower"),
    m("serve.sojourn_us_p50_at_80k", "us", "lower"),
    m("serve.backlog_end", "count", "lower"),
    m("serve.queued_ratio", "ratio", "lower"),
    m("serve.rejected_ratio", "ratio", "lower"),
    // serve: serve_burst
    m("serve.round_ms_p50", "ms", "lower"),
    m("serve.feed_batch_call_us_p50", "us", "lower"),
    m("serve.quiesce_ms_p50", "ms", "lower"),
    m("serve.take_all_ms_p50", "ms", "lower"),
    m("serve.registry_items_per_s", "items/s", "higher"),
    m("serve.sharded_over_registry_x", "x", "lower"),
    m("serve.hub_sojourn_ns_p50", "ns", "lower"),
    // obs and the benchmark's own tracing
    m("obs.hub_on_overhead_x", "x", "lower"),
    m("obs.snapshot_ms", "ms", "lower"),
    m("obs.trace_spans", "count", "lower"),
    m("obs.threads_max", "count", "lower"),
    m("trace.overhead_x", "x", "lower"),
    // Each workload's per-item latency. On the recording host the open
    // loop's does not repeat within any bound (and no tail does), so
    // latency is reported here and not gated.
    m("latency.item_us_p50", "us", "lower"),
    m("latency.item_us_p90", "us", "lower"),
    // The host's core clock over nominal, as probed during the pass.
    m("host.clock_x", "x", "higher"),
    // sim and dist
    m("sim.scenario_ms_p50", "ms", "lower"),
    m("sim.events_per_s", "1/s", "higher"),
    m("sim.stream_items_per_s", "items/s", "higher"),
    m("sim.stream_1m_wall_s", "s", "lower"),
    m("dist.nodes", "count", "lower"),
];

/// What `--list` prints: a `workload <name>: <why>` line per workload
/// and a `<kind> <name> <unit> <better>` line per metric.
pub fn list_lines() -> Vec<String> {
    let metric = |kind: &str, m: &Metric| format!("{kind} {} {} {}", m.name, m.unit, m.better);
    let mut out: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("workload {}: {}", w.name, w.why))
        .collect();
    out.extend(END_TO_END.iter().map(|m| metric("end_to_end", m)));
    out.extend(PER_LAYER.iter().map(|m| metric("per_layer", m)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_obs::Json;

    fn declared(doc: &Json, key: &str, fields: &[&str]) -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| {
                        entry
                            .get(f)
                            .and_then(|v| v.as_str())
                            .unwrap_or_else(|| panic!("`{key}` entry lacks `{f}`"))
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }

    /// The names `--list` prints are exactly the names the root
    /// `BENCHMARK.json` declares, in the same order, with the same units
    /// and directions.
    #[test]
    fn list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("root BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let mut want: Vec<String> = declared(&doc, "workloads", &["name", "why"])
            .into_iter()
            .map(|n| format!("workload {}", n.replacen(' ', ": ", 1)))
            .collect();
        for kind in ["end_to_end", "per_layer"] {
            want.extend(
                declared(&doc, kind, &["name", "unit", "better"])
                    .into_iter()
                    .map(|n| format!("{kind} {n}")),
            );
        }
        assert_eq!(list_lines(), want);
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "bad name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
