//! Ready-made listeners: the paper's logger (Listing 2), plus collectors
//! used throughout the test suites and benches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{Event, EventRecord};
use crate::listener::{Listener, Payload};

/// A line-oriented logger listener, equivalent to the paper's Listing 2:
/// logs the current skeleton, when/where, the index `i`, and the partial
/// solution's presence — on the muscle's thread.
///
/// The sink is any `Fn(String)`, so tests can capture lines and
/// applications can forward to their logging framework.
pub struct LoggerListener<S> {
    sink: S,
}

impl<S> LoggerListener<S>
where
    S: Fn(String) + Send + Sync,
{
    /// Creates a logger writing lines through `sink`.
    pub fn new(sink: S) -> Self {
        LoggerListener { sink }
    }
}

impl<S> Listener for LoggerListener<S>
where
    S: Fn(String) + Send + Sync,
{
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        let line = format!(
            "CURRSKEL: {} | WHEN/WHERE: {}/{} | INDEX: {} | TRACE: {} | PAYLOAD: {} item(s) | T: {}",
            event.kind,
            event.when,
            event.wher,
            event.index,
            event.trace,
            payload.len(),
            event.timestamp,
        );
        (self.sink)(line);
    }
}

/// Records every event it sees, as compact [`EventRecord`]s; the
/// workhorse of the integration tests.
#[derive(Default)]
pub struct EventCollector {
    events: Mutex<Vec<EventRecord>>,
}

impl EventCollector {
    /// An empty collector.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of everything recorded so far (in arrival order per
    /// thread; total order is the engine's emission order under the sim,
    /// or an interleaving under the threaded engine).
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.events.lock().clear();
    }
}

impl Listener for EventCollector {
    fn on_event(&self, _payload: &mut Payload<'_>, event: &Event) {
        self.events.lock().push(EventRecord::from(event));
    }
}

/// Counts events without storing them (for overhead benches).
#[derive(Default)]
pub struct CountingListener {
    count: AtomicUsize,
}

impl CountingListener {
    /// A zeroed counter.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Events seen so far.
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

impl Listener for CountingListener {
    fn on_event(&self, _payload: &mut Payload<'_>, _event: &Event) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventInfo, When, Where};
    use crate::trace::Trace;
    use askel_skeletons::{InstanceId, KindTag, NodeId, TimeNs};

    fn ev(when: When, wher: Where) -> Event {
        Event {
            node: NodeId(1),
            kind: KindTag::Map,
            when,
            wher,
            index: InstanceId(7),
            trace: Trace::root(NodeId(9), InstanceId(3), KindTag::Map).child(
                NodeId(1),
                InstanceId(7),
                KindTag::Map,
            ),
            timestamp: TimeNs::from_millis(1),
            info: EventInfo::SplitCardinality(3),
        }
    }

    #[test]
    fn logger_emits_one_line_per_event() {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = Arc::clone(&lines);
        let logger = LoggerListener::new(move |l| sink_lines.lock().push(l));
        logger.on_event(&mut Payload::None, &ev(When::After, Where::Split));
        let lines = lines.lock();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("WHEN/WHERE: after/split"));
        assert!(lines[0].contains("INDEX: i7"));
    }

    #[test]
    fn collector_records_parent_from_trace() {
        let c = EventCollector::new();
        c.on_event(&mut Payload::None, &ev(When::Before, Where::Skeleton));
        let snap = c.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].parent(), Some(InstanceId(3)));
        assert_eq!(snap[0].info().split_cardinality(), Some(3));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn counting_listener_counts() {
        let c = CountingListener::new();
        for _ in 0..5 {
            c.on_event(&mut Payload::None, &ev(When::Before, Where::Skeleton));
        }
        assert_eq!(c.count(), 5);
    }
}
