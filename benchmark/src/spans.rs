//! The benchmark's own spans: one per public call it makes into a layer
//! (plus the start/end stamps its muscles bring back), kept in memory
//! and written out as a Chrome trace when the layer pass ends.
//!
//! Only the layer pass records; the e2e pass never builds a `Spans`.

use std::collections::BTreeMap;

use askel_obs::ChromeTrace;
use askel_skeletons::TimeNs;

/// Index of a span inside its [`Spans`]; `NO_PARENT` for roots.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Spans of one item share its id.
    pub item: u64,
}

/// A bounded in-memory span log. Past `cap` spans it stops recording
/// (and says so through [`Spans::dropped`]) instead of growing without
/// bound at 80k items/s.
pub struct Spans {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    pub fn new(cap: usize) -> Self {
        Spans {
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
            dropped: 0,
        }
    }

    /// Records a finished span; returns its id, or `NO_PARENT` once the
    /// log is full (children of a dropped span become roots).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        item: u64,
    ) -> SpanId {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            item,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose end is not known yet; [`Spans::close`] sets it.
    pub fn open(&mut self, name: &'static str, start_ns: u64, parent: SpanId, item: u64) -> SpanId {
        self.push(name, start_ns, start_ns, parent, item)
    }

    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns.max(s.start_ns);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| crate::util::ns32(s.end_ns - s.start_ns))
            .collect()
    }

    /// Per span name: `(count, total duration, total self time)` in ns.
    /// A span's self time is its duration minus the part of its own
    /// interval that its child spans cover (children are clipped to the
    /// parent and overlapping children are counted once).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(list) = children.get_mut(s.parent as usize) {
                list.push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let dur = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += dur;
            entry.2 += dur - covered(kids, s.start_ns, s.end_ns);
        }
        out
    }

    /// The trace as Chrome trace-event JSON. Items rotate over 16 lanes
    /// so the items of one window sit side by side; spans without an
    /// item (sweeps, barriers) share lane 99.
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        for s in &self.spans {
            let lane = if s.item == u64::MAX { 99 } else { s.item % 16 };
            let cat = s.name.split('.').next().unwrap_or("bench");
            trace.complete(TimeNs(s.start_ns), s.end_ns - s.start_ns, s.name, cat, lane);
        }
        trace
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_clipped_union_of_children() {
        let mut s = Spans::new(16);
        let root = s.open("item", 100, NO_PARENT, 1);
        s.push("feed", 100, 130, root, 1);
        // Overlaps `feed` by 10 and runs 50 past the parent's end.
        s.push("muscle", 120, 250, root, 1);
        s.close(root, 200);
        let grand = s.push("inner", 125, 128, 1, 1);
        assert_eq!(grand, 3);
        let t = s.self_times();
        // Children cover [100,200] entirely once clipped and merged.
        assert_eq!(t["item"], (1, 100, 0));
        // `feed` [100,130] has child `inner` [125,128].
        assert_eq!(t["feed"], (1, 30, 27));
        assert_eq!(t["muscle"], (1, 130, 130));
        assert_eq!(t["inner"], (1, 3, 3));
    }

    #[test]
    fn gaps_between_children_stay_with_the_parent() {
        let mut s = Spans::new(16);
        let root = s.push("item", 0, 100, NO_PARENT, 0);
        s.push("a", 10, 20, root, 0);
        s.push("b", 40, 70, root, 0);
        assert_eq!(s.self_times()["item"], (1, 100, 60));
        assert_eq!(s.durations("b"), vec![30]);
    }

    #[test]
    fn a_full_log_drops_and_counts() {
        let mut s = Spans::new(2);
        assert_eq!(s.push("a", 0, 1, NO_PARENT, 0), 0);
        assert_eq!(s.push("a", 1, 2, NO_PARENT, 1), 1);
        assert_eq!(s.push("a", 2, 3, NO_PARENT, 2), NO_PARENT);
        assert_eq!((s.len(), s.dropped()), (2, 1));
        // Closing a dropped span is a no-op, not a panic.
        s.close(NO_PARENT, 9);
    }

    #[test]
    fn chrome_export_loads_with_one_event_per_span() {
        let mut s = Spans::new(8);
        let root = s.push("gen.item", 1_000, 9_000, NO_PARENT, 3);
        s.push("serve.feed", 1_000, 2_000, root, 3);
        s.push("serve.take_ready", 500, 700, NO_PARENT, u64::MAX);
        let json = askel_obs::Json::parse(&s.to_chrome().render()).expect("trace is json");
        let events = json
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents");
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("serve.take_ready")
        );
    }
}
