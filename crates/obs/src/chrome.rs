//! Chrome trace-event timeline writer (`chrome://tracing` / Perfetto).
//!
//! [`ChromeTrace`] collects counter, instant, and complete events and
//! renders them as a JSON object-format trace (`{"traceEvents": [...]}`)
//! through [`crate::json`]. Events may be pushed in any order;
//! [`render`](ChromeTrace::render) sorts by timestamp, so the emitted
//! file always has monotonic `ts` fields — what the viewers expect.
//!
//! Feeding it is the caller's job, because the sample sources live
//! upstream: the pool converts its
//! `TelemetrySample` stream into `active`/`target` counter tracks, and
//! the adapt layer turns its decision log into instant events, so a
//! whole run — thread activity, LP retargets, rule fires — lands on one
//! zoomable timeline.

use crate::json::Json;
use askel_skeletons::TimeNs;

/// One trace event in the Chrome trace-event object format.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event name (the label shown on the timeline).
    pub name: String,
    /// Comma-free category string (viewers group and filter by it).
    pub cat: String,
    /// Phase: `C` counter, `i` instant, `X` complete.
    pub ph: char,
    /// Timestamp.
    pub ts: TimeNs,
    /// Duration, for complete (`X`) events.
    pub dur: Option<u64>,
    /// Process id (one trace can interleave several components).
    pub pid: u64,
    /// Thread id (lane within the process).
    pub tid: u64,
    /// Event arguments: counter series values, rule details, ...
    pub args: Vec<(String, Json)>,
}

/// A growable trace; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Events collected so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a raw event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Adds a counter sample: the series `name` had `value` at `at`.
    /// Counter tracks render as stacked area charts in the viewer.
    pub fn counter(&mut self, at: TimeNs, name: &str, value: f64) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: "counter".to_string(),
            ph: 'C',
            ts: at,
            dur: None,
            pid: 1,
            tid: 0,
            args: vec![("value".to_string(), Json::Num(value))],
        });
    }

    /// Adds an instant event (a vertical marker on the timeline).
    pub fn instant(&mut self, at: TimeNs, name: &str, cat: &str) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'i',
            ts: at,
            dur: None,
            pid: 1,
            tid: 0,
            args: Vec::new(),
        });
    }

    /// Adds a complete event: a bar from `at` for `dur_ns` on lane
    /// `tid`.
    pub fn complete(&mut self, at: TimeNs, dur_ns: u64, name: &str, cat: &str, tid: u64) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            ts: at,
            dur: Some(dur_ns),
            pid: 1,
            tid,
            args: Vec::new(),
        });
    }

    /// Renders the object-format trace JSON, events sorted by timestamp
    /// (stable, so same-instant events keep insertion order).
    pub fn render(&self) -> String {
        let mut sorted: Vec<&TraceEvent> = self.events.iter().collect();
        sorted.sort_by_key(|e| e.ts);
        let events = sorted
            .into_iter()
            .map(|e| {
                let mut obj = vec![
                    ("name".to_string(), Json::Str(e.name.clone())),
                    ("cat".to_string(), Json::Str(e.cat.clone())),
                    ("ph".to_string(), Json::Str(e.ph.to_string())),
                    // Trace-event timestamps are microseconds; keep ns
                    // resolution via the fractional part.
                    ("ts".to_string(), Json::Num(e.ts.0 as f64 / 1_000.0)),
                    ("pid".to_string(), Json::Num(e.pid as f64)),
                    ("tid".to_string(), Json::Num(e.tid as f64)),
                ];
                if let Some(d) = e.dur {
                    obj.push(("dur".to_string(), Json::Num(d as f64 / 1_000.0)));
                }
                if e.ph == 'i' {
                    // Instant scope: thread-local marker.
                    obj.push(("s".to_string(), Json::Str("t".to_string())));
                }
                if !e.args.is_empty() {
                    obj.push(("args".to_string(), Json::Obj(e.args.clone())));
                }
                Json::Obj(obj)
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        ])
        .render()
    }

    /// Renders and writes the trace to `path` (open the file via
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_sorts_timestamps_monotonically() {
        let mut t = ChromeTrace::new();
        t.counter(TimeNs(3_000), "active", 2.0);
        t.instant(TimeNs(1_000), "rule fired", "adapt");
        t.complete(TimeNs(2_000), 500, "span", "engine", 1);
        let text = t.render();
        let json = Json::parse(&text).expect("trace is valid JSON");
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let ts: Vec<f64> = events
            .iter()
            .map(|e| e.get("ts").unwrap().as_f64().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts must be monotonic");
        assert_eq!(ts, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn counter_events_carry_their_value() {
        let mut t = ChromeTrace::new();
        t.counter(TimeNs(500), "target_workers", 4.0);
        let json = Json::parse(&t.render()).unwrap();
        let e = &json.get("traceEvents").unwrap().as_array().unwrap()[0];
        assert_eq!(e.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            e.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(4.0)
        );
    }
}
