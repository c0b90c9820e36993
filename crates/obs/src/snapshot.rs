//! Point-in-time metric snapshots and the text exporters.
//!
//! A [`MetricsSnapshot`] is plain data — counters, gauges, and
//! [`HistogramSnapshot`](crate::HistogramSnapshot)s in registration
//! order. [`MetricsHub::snapshot`](crate::MetricsHub::snapshot)
//! produces one; layers with single-writer histograms outside the hub
//! (the serve registry's per-tenant sojourns) append theirs before
//! exporting. Two formats:
//!
//! * **Prometheus text exposition** ([`to_prometheus`]): counters and
//!   gauges as plain samples, histograms as summaries with
//!   `quantile="0.5|0.95|0.99"` series plus `_sum`/`_count`/`_min`/
//!   `_max`. Labelled names (`a_ns{tenant="7"}`) splice the quantile
//!   label into the existing set. [`scrape`] reads one series back out
//!   of the text — the round-trip check benches and tests use.
//! * **JSON** ([`to_json`]/[`from_json`]): a lossless dump through
//!   [`crate::json`] including raw histogram buckets, so a
//!   snapshot can be persisted and re-queried (`from_json ∘ to_json`
//!   is the identity, which the integration tests pin down).
//!
//! [`to_prometheus`]: MetricsSnapshot::to_prometheus
//! [`to_json`]: MetricsSnapshot::to_json
//! [`from_json`]: MetricsSnapshot::from_json
//! [`scrape`]: MetricsSnapshot::scrape

use crate::json::Json;

use crate::hist::HistogramSnapshot;
use crate::hub::{sanitize_base, split_labels};

/// The quantiles the Prometheus exporter emits for each histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// A point-in-time copy of every metric (see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)` per counter, in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, last value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Appends a single-writer histogram kept outside the hub (e.g. one
    /// serve tenant's sojourn series) under `name`.
    pub fn push_histogram(&mut self, name: impl Into<String>, h: HistogramSnapshot) {
        self.histograms.push((name.into(), h));
    }

    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<(String, String)> = None;
        let mut type_line = |out: &mut String, base: &str, kind: &str| {
            let key = (base.to_string(), kind.to_string());
            if last_type.as_ref() != Some(&key) {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_type = Some(key);
            }
        };
        for (name, v) in &self.counters {
            let (base, labels) = split_labels(name);
            let base = sanitize_base(base);
            type_line(&mut out, &base, "counter");
            out.push_str(&render_sample(&base, labels, None, &v.to_string()));
        }
        for (name, v) in &self.gauges {
            let (base, labels) = split_labels(name);
            let base = sanitize_base(base);
            type_line(&mut out, &base, "gauge");
            out.push_str(&render_sample(&base, labels, None, &v.to_string()));
        }
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            let base = sanitize_base(base);
            type_line(&mut out, &base, "summary");
            for (q, qs) in QUANTILES {
                let v = h.percentile(q);
                out.push_str(&render_sample(
                    &base,
                    labels,
                    Some(("quantile", qs)),
                    &v.to_string(),
                ));
            }
            out.push_str(&render_sample(
                &format!("{base}_sum"),
                labels,
                None,
                &h.sum().to_string(),
            ));
            out.push_str(&render_sample(
                &format!("{base}_count"),
                labels,
                None,
                &h.count().to_string(),
            ));
            out.push_str(&render_sample(
                &format!("{base}_min"),
                labels,
                None,
                &h.min().to_string(),
            ));
            out.push_str(&render_sample(
                &format!("{base}_max"),
                labels,
                None,
                &h.max().to_string(),
            ));
        }
        out
    }

    /// Reads one sample back out of a Prometheus text export: the value
    /// of the line whose series (everything before the space) is
    /// exactly `series`. This is the exporter's round-trip check.
    pub fn scrape(text: &str, series: &str) -> Option<f64> {
        text.lines().find_map(|line| {
            let (s, v) = line.rsplit_once(' ')?;
            if s == series {
                v.parse().ok()
            } else {
                None
            }
        })
    }

    /// A lossless JSON dump (see the module docs).
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let (base, buckets) = h.raw();
                (
                    n.clone(),
                    Json::Obj(vec![
                        ("base".to_string(), Json::Num(base as f64)),
                        (
                            "buckets".to_string(),
                            Json::Arr(buckets.iter().map(|&c| Json::Num(c as f64)).collect()),
                        ),
                        ("sum".to_string(), Json::Num(h.sum() as f64)),
                        ("min".to_string(), Json::Num(h.min() as f64)),
                        ("max".to_string(), Json::Num(h.max() as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(histograms)),
        ])
    }

    /// Rebuilds a snapshot from [`to_json`](MetricsSnapshot::to_json)
    /// output; `None` if the shape doesn't match.
    pub fn from_json(json: &Json) -> Option<MetricsSnapshot> {
        let obj = |j: &Json| match j {
            Json::Obj(pairs) => Some(pairs.clone()),
            _ => None,
        };
        let mut snap = MetricsSnapshot::default();
        for (n, v) in obj(json.get("counters")?)? {
            snap.counters.push((n, v.as_f64()? as u64));
        }
        for (n, v) in obj(json.get("gauges")?)? {
            snap.gauges.push((n, v.as_f64()? as i64));
        }
        for (n, h) in obj(json.get("histograms")?)? {
            let base = h.get("base")?.as_f64()? as usize;
            let buckets = h
                .get("buckets")?
                .as_array()?
                .iter()
                .map(|c| c.as_f64().map(|f| f as u64))
                .collect::<Option<Vec<u64>>>()?;
            let sum = h.get("sum")?.as_f64()? as u128;
            let min = h.get("min")?.as_f64()? as u64;
            let max = h.get("max")?.as_f64()? as u64;
            snap.histograms.push((
                n,
                HistogramSnapshot::from_raw(base, buckets, sum, min, max)?,
            ));
        }
        Some(snap)
    }
}

/// One exposition line: `base{labels,extra} value\n`.
fn render_sample(
    base: &str,
    labels: Option<&str>,
    extra: Option<(&str, &str)>,
    value: &str,
) -> String {
    let mut label_set = String::new();
    if let Some(l) = labels {
        label_set.push_str(l);
    }
    if let Some((k, v)) = extra {
        if !label_set.is_empty() {
            label_set.push(',');
        }
        label_set.push_str(&format!("{k}=\"{v}\""));
    }
    if label_set.is_empty() {
        format!("{base} {value}\n")
    } else {
        format!("{base}{{{label_set}}} {value}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsHub;

    fn sample_snapshot() -> MetricsSnapshot {
        let hub = MetricsHub::new();
        hub.set_enabled(true);
        hub.counter("pool_steals_total").add(3);
        hub.gauge("pool_queue_depth").set(17);
        let h = hub.histogram("engine_span_ns");
        for v in [100u64, 200, 300, 90_000] {
            h.record(v);
        }
        let mut snap = hub.snapshot();
        let mut tenant = HistogramSnapshot::new();
        tenant.record(5_000);
        tenant.record(7_000);
        snap.push_histogram("serve_sojourn_ns{tenant=\"7\"}", tenant);
        snap
    }

    #[test]
    fn prometheus_text_has_all_series() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE pool_steals_total counter\n"));
        assert_eq!(
            MetricsSnapshot::scrape(&text, "pool_steals_total"),
            Some(3.0)
        );
        assert_eq!(
            MetricsSnapshot::scrape(&text, "pool_queue_depth"),
            Some(17.0)
        );
        assert_eq!(
            MetricsSnapshot::scrape(&text, "engine_span_ns_count"),
            Some(4.0)
        );
        // The labelled tenant series carries its label plus the quantile.
        let p99 =
            MetricsSnapshot::scrape(&text, "serve_sojourn_ns{tenant=\"7\",quantile=\"0.99\"}")
                .unwrap();
        let expect = snap
            .histogram("serve_sojourn_ns{tenant=\"7\"}")
            .unwrap()
            .percentile(0.99);
        assert_eq!(p99, expect as f64);
    }

    #[test]
    fn prometheus_quantiles_match_snapshot() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        let h = snap.histogram("engine_span_ns").unwrap();
        for (q, qs) in QUANTILES {
            let series = format!("engine_span_ns{{quantile=\"{qs}\"}}");
            assert_eq!(
                MetricsSnapshot::scrape(&text, &series),
                Some(h.percentile(q) as f64)
            );
        }
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let snap = sample_snapshot();
        let rendered = snap.to_json().render();
        let parsed = Json::parse(&rendered).expect("exporter emits valid JSON");
        let back = MetricsSnapshot::from_json(&parsed).expect("shape preserved");
        assert_eq!(back, snap);
        // Percentiles survive the trip exactly.
        assert_eq!(
            back.histogram("engine_span_ns").unwrap().percentile(0.99),
            snap.histogram("engine_span_ns").unwrap().percentile(0.99)
        );
    }
}
