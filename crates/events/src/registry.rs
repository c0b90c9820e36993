//! The listener registry: where engines publish events and non-functional
//! concerns subscribe.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::event::Event;
use crate::listener::{EventFilter, Interest, Listener, Payload};

#[derive(Clone)]
struct Entry {
    filter: EventFilter,
    /// `filter.interest() ∩ listener.interest()`, read at registration.
    interest: Interest,
    listener: Arc<dyn Listener>,
}

impl Entry {
    fn new(filter: EventFilter, listener: Arc<dyn Listener>) -> Self {
        Entry {
            filter,
            interest: filter.interest().intersect(listener.interest()),
            listener,
        }
    }
}

/// An immutable view of a registry's listeners, taken with
/// [`ListenerRegistry::snapshot`].
///
/// An engine takes one per submission and dispatches through it without
/// touching the registry again, as long as
/// [`ListenerRegistry::generation`] still equals
/// [`generation`](ListenerSnapshot::generation).
pub struct ListenerSnapshot {
    generation: u64,
    /// Union of the entries' interests.
    interest: Interest,
    /// Whether every entry accepts spans.
    spans: bool,
    entries: Box<[Entry]>,
}

impl ListenerSnapshot {
    fn new(generation: u64, entries: Vec<Entry>) -> Arc<Self> {
        Arc::new(ListenerSnapshot {
            generation,
            interest: entries
                .iter()
                .fold(Interest::NONE, |acc, e| acc.union(e.interest)),
            spans: entries.iter().all(|e| e.listener.accepts_spans()),
            entries: entries.into(),
        })
    }

    /// The registry generation this view was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The positions at least one listener wants: an event elsewhere
    /// need not be built at all.
    pub fn interest(&self) -> Interest {
        self.interest
    }

    /// `true` when every listener in the view
    /// [accepts spans](Listener::accepts_spans).
    pub fn accepts_spans(&self) -> bool {
        self.spans
    }

    /// Dispatches an event to every matching listener, synchronously on
    /// the calling thread, in registration order. Takes no lock and
    /// allocates nothing.
    pub fn dispatch(&self, payload: &mut Payload<'_>, event: &Event) {
        for e in self.entries.iter() {
            if e.interest.contains(event.when, event.wher) && e.filter.matches(event) {
                e.listener.on_event(payload, event);
            }
        }
    }
}

/// A set of listeners with their registration filters.
///
/// Engines call [`emit`](ListenerRegistry::emit) around every muscle; the
/// registry dispatches synchronously, in registration order, on the calling
/// thread. Registration is cheap and may happen while skeletons run: the
/// listener list is copy-on-write, so dispatch walks an immutable
/// [`ListenerSnapshot`] with no lock held — handlers may themselves
/// register listeners.
pub struct ListenerRegistry {
    current: RwLock<Arc<ListenerSnapshot>>,
    /// Bumped (under the write lock) by every change; equals
    /// `current.generation`. Emitters holding a snapshot compare it to
    /// this with one `Acquire` load per event — a line nobody writes in
    /// the steady state.
    generation: AtomicU64,
    // Cached count so engines can skip event construction entirely when
    // nobody listens (the base of the ladder's
    // `events.noop_listener_delta_ns`).
    count: AtomicUsize,
}

impl Default for ListenerRegistry {
    fn default() -> Self {
        ListenerRegistry {
            current: RwLock::new(ListenerSnapshot::new(0, Vec::new())),
            generation: AtomicU64::new(0),
            count: AtomicUsize::new(0),
        }
    }
}

impl ListenerRegistry {
    /// An empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers a *generic* listener (sees every event).
    pub fn add_listener(&self, listener: Arc<dyn Listener>) {
        self.add_filtered(EventFilter::all(), listener);
    }

    /// Registers a listener restricted by `filter`.
    pub fn add_filtered(&self, filter: EventFilter, listener: Arc<dyn Listener>) {
        self.replace(|entries| {
            entries.push(Entry::new(filter, listener));
        });
    }

    /// Removes every registration of a listener (pointer identity).
    /// Returns how many registrations were removed. An event emitted
    /// after this returns never reaches the listener.
    pub fn remove_listener(&self, listener: &Arc<dyn Listener>) -> usize {
        self.replace(|entries| {
            let before = entries.len();
            entries.retain(|e| !Arc::ptr_eq(&e.listener, listener));
            before - entries.len()
        })
    }

    /// Publishes an edited copy of the entries as the next generation.
    fn replace<T>(&self, edit: impl FnOnce(&mut Vec<Entry>) -> T) -> T {
        let mut current = self.current.write();
        let mut entries = current.entries.to_vec();
        let out = edit(&mut entries);
        let generation = current.generation + 1;
        self.count.store(entries.len(), Ordering::Release);
        *current = ListenerSnapshot::new(generation, entries);
        // Release: pairs with the Acquire load in `generation()`. Stored
        // before the write lock is released, so a reader that sees the
        // old generation after this call returned does not exist.
        self.generation.store(generation, Ordering::Release);
        out
    }

    /// Number of registrations.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// `true` when no listener is registered — engines use this to skip
    /// event construction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current listeners, or `None` when there are none (one atomic
    /// load — a submission nobody listens to pays nothing else).
    pub fn snapshot(&self) -> Option<Arc<ListenerSnapshot>> {
        if self.is_empty() {
            return None;
        }
        Some(Arc::clone(&self.current.read()))
    }

    /// Moves whenever a listener is added or removed.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Dispatches an event to every matching listener, synchronously on
    /// the calling thread, in registration order. Allocates nothing.
    pub fn emit(&self, payload: &mut Payload<'_>, event: &Event) {
        if let Some(snapshot) = self.snapshot() {
            snapshot.dispatch(payload, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventInfo, When, Where};
    use crate::listener::FnListener;
    use crate::trace::Trace;
    use askel_skeletons::{Data, InstanceId, KindTag, NodeId, TimeNs};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    fn ev(node: u64, when: When, wher: Where) -> Event {
        Event {
            node: NodeId(node),
            kind: KindTag::Seq,
            when,
            wher,
            index: InstanceId(1),
            trace: Trace::root(NodeId(node), InstanceId(1), KindTag::Seq),
            timestamp: TimeNs::ZERO,
            info: EventInfo::None,
        }
    }

    #[test]
    fn empty_registry_is_a_noop() {
        let reg = ListenerRegistry::new();
        assert!(reg.is_empty());
        reg.emit(&mut Payload::None, &ev(1, When::Before, Where::Skeleton));
    }

    #[test]
    fn listeners_run_in_registration_order() {
        let reg = ListenerRegistry::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for tag in ["first", "second", "third"] {
            let order = Arc::clone(&order);
            reg.add_listener(Arc::new(FnListener(
                move |_: &mut Payload<'_>, _: &Event| {
                    order.lock().unwrap().push(tag);
                },
            )));
        }
        reg.emit(&mut Payload::None, &ev(1, When::Before, Where::Skeleton));
        assert_eq!(*order.lock().unwrap(), vec!["first", "second", "third"]);
    }

    #[test]
    fn filters_narrow_dispatch() {
        let reg = ListenerRegistry::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        reg.add_filtered(
            EventFilter::all().when(When::After),
            Arc::new(FnListener(move |_: &mut Payload<'_>, _: &Event| {
                h.fetch_add(1, Ordering::Relaxed);
            })),
        );
        reg.emit(&mut Payload::None, &ev(1, When::Before, Where::Skeleton));
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        reg.emit(&mut Payload::None, &ev(1, When::After, Where::Skeleton));
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn listeners_can_transform_payload() {
        let reg = ListenerRegistry::new();
        reg.add_listener(Arc::new(FnListener(|p: &mut Payload<'_>, _: &Event| {
            if let Some(x) = p.downcast_mut::<i64>() {
                *x *= 2;
            }
        })));
        let mut d: Data = Box::new(21i64);
        reg.emit(
            &mut Payload::Single(&mut d),
            &ev(1, When::After, Where::Skeleton),
        );
        assert_eq!(*d.downcast::<i64>().unwrap(), 42);
    }

    #[test]
    fn remove_listener_by_identity() {
        let reg = ListenerRegistry::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let l: Arc<dyn Listener> = Arc::new(FnListener(move |_: &mut Payload<'_>, _: &Event| {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        reg.add_listener(Arc::clone(&l));
        reg.add_filtered(EventFilter::all().when(When::After), Arc::clone(&l));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.remove_listener(&l), 2);
        assert!(reg.is_empty());
        reg.emit(&mut Payload::None, &ev(1, When::After, Where::Skeleton));
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn handlers_may_register_more_listeners() {
        let reg = ListenerRegistry::new();
        let reg2 = Arc::clone(&reg);
        reg.add_listener(Arc::new(FnListener(
            move |_: &mut Payload<'_>, _: &Event| {
                reg2.add_listener(Arc::new(FnListener(|_: &mut Payload<'_>, _: &Event| {})));
            },
        )));
        reg.emit(&mut Payload::None, &ev(1, When::Before, Where::Skeleton));
        assert_eq!(reg.len(), 2);
    }
}
