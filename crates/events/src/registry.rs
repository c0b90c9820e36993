//! The listener registry: where engines publish events and non-functional
//! concerns subscribe.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use askel_skeletons::Plan;

use crate::event::{Event, When, Where};
use crate::listener::{EventFilter, Interest, Listener, Payload};

#[derive(Clone)]
struct Entry {
    filter: EventFilter,
    listener: Arc<dyn Listener>,
}

impl Entry {
    /// The positions both the filter and the listener want.
    fn interest(&self) -> Interest {
        self.filter.interest().intersect(self.listener.interest())
    }
}

/// How many programs' masks a snapshot keeps: a stream runs one program
/// at a time, or two across a rewrite.
const COMPILED_PLANS: usize = 8;

/// An immutable view of a registry's listeners, taken with
/// [`ListenerRegistry::snapshot`].
///
/// An engine compiles one against each submission's program
/// ([`view`](ListenerSnapshot::view)) and dispatches through that without
/// touching the registry again, as long as
/// [`ListenerRegistry::generation`] still equals
/// [`PlanView::generation`].
pub struct ListenerSnapshot {
    generation: u64,
    /// Whether every entry accepts spans.
    spans: bool,
    entries: Box<[Entry]>,
    /// The masks compiled against the programs submitted lately.
    compiled: Mutex<Vec<Arc<Compiled>>>,
}

impl ListenerSnapshot {
    fn new(generation: u64, entries: Vec<Entry>) -> Arc<Self> {
        Arc::new(ListenerSnapshot {
            generation,
            spans: entries.iter().all(|e| e.listener.accepts_spans()),
            entries: entries.into(),
            compiled: Mutex::new(Vec::new()),
        })
    }

    /// `true` when every listener in the view
    /// [accepts spans](Listener::accepts_spans).
    pub fn accepts_spans(&self) -> bool {
        self.spans
    }

    /// Dispatches an event no program raised (a rewrite's announcement)
    /// to every matching listener, synchronously on the calling thread,
    /// in registration order. Takes no lock and allocates nothing.
    fn dispatch(&self, payload: &mut Payload<'_>, event: &Event) {
        for e in self.entries.iter() {
            if e.interest().contains(event.when, event.wher) && e.filter.matches(event) {
                e.listener.on_event(payload, event);
            }
        }
    }

    /// This view compiled against `plan`: what each listener reads at
    /// each entry. Compiled once per program and per
    /// [`reads_version`](Listener::reads_version) of every listener; a
    /// submission that finds it compiled allocates nothing.
    pub fn view(self: &Arc<Self>, plan: &Arc<Plan>) -> PlanView {
        let current = |c: &Compiled| {
            let versions = self.entries.iter().map(|e| e.listener.reads_version());
            versions.eq(c.versions.iter().copied())
        };
        let found = self
            .compiled
            .lock()
            .iter()
            .find(|c| c.is_for(plan) && current(c))
            .cloned();
        let compiled = found.unwrap_or_else(|| {
            // Compiled unlocked: a listener answers `reads` under its own
            // locks.
            let fresh = Arc::new(Compiled::new(&self.entries, plan));
            let mut cache = self.compiled.lock();
            cache.retain(|c| c.plan.strong_count() > 0 && !c.is_for(plan));
            if cache.len() == COMPILED_PLANS {
                cache.remove(0);
            }
            cache.push(Arc::clone(&fresh));
            fresh
        });
        PlanView {
            listeners: Arc::clone(self),
            compiled,
        }
    }
}

/// A [`ListenerSnapshot`]'s masks for one program.
struct Compiled {
    /// The program, by identity.
    plan: Weak<Plan>,
    /// Each listener's [`reads_version`](Listener::reads_version) when
    /// compiled.
    versions: Box<[u64]>,
    /// Per plan entry, the union of the listeners' masks, then each
    /// listener's.
    masks: Box<[Interest]>,
    /// Per plan entry, whether some entry of its subtree raises anything.
    traced: Box<[bool]>,
}

impl Compiled {
    fn new(entries: &[Entry], plan: &Arc<Plan>) -> Compiled {
        // Asked before `reads`: a change in between compiles again.
        let versions = entries.iter().map(|e| e.listener.reads_version()).collect();
        let (n, stride) = (plan.entries(), entries.len() + 1);
        let mut masks = vec![Interest::NONE; n * stride];
        for (i, e) in entries.iter().enumerate() {
            let reads = e.listener.reads().compile(plan);
            for (at, read) in reads.into_iter().enumerate() {
                let node = plan.node(at);
                let filtered = e.filter.node.is_some_and(|id| id != node.id)
                    || e.filter.kind.is_some_and(|kind| kind != node.tag());
                if !filtered {
                    let mask = read.intersect(e.interest());
                    masks[at * stride + 1 + i] = mask;
                    masks[at * stride] = masks[at * stride].union(mask);
                }
            }
        }
        let mut traced = vec![false; n];
        for at in (0..n).rev() {
            traced[at] = !masks[at * stride].is_empty() || plan.kids(at).any(|kid| traced[kid]);
        }
        Compiled {
            plan: Arc::downgrade(plan),
            versions,
            masks: masks.into(),
            traced: traced.into(),
        }
    }

    /// Compiled against `plan`? A weak reference keeps the allocation,
    /// so no other plan can have its address meanwhile.
    fn is_for(&self, plan: &Arc<Plan>) -> bool {
        std::ptr::eq(self.plan.as_ptr(), Arc::as_ptr(plan))
    }
}

/// A [`ListenerSnapshot`] compiled against one program: what a
/// submission dispatches through. Per event it costs one mask lookup.
#[derive(Clone)]
pub struct PlanView {
    listeners: Arc<ListenerSnapshot>,
    compiled: Arc<Compiled>,
}

impl PlanView {
    /// The registry generation the listeners were taken at.
    pub fn generation(&self) -> u64 {
        self.listeners.generation
    }

    /// `true` when every listener [accepts spans](Listener::accepts_spans).
    pub fn accepts_spans(&self) -> bool {
        self.listeners.spans
    }

    /// Whether an instance at plan entry `at` needs a trace: something in
    /// its subtree is read.
    pub fn traced(&self, at: usize) -> bool {
        self.compiled.traced[at]
    }

    fn stride(&self) -> usize {
        self.listeners.entries.len() + 1
    }

    /// Does some listener read the position `(when, wher)` at plan entry
    /// `at`? An event nobody reads need not be built at all.
    pub fn wants(&self, at: usize, when: When, wher: Where) -> bool {
        self.compiled.masks[at * self.stride()].contains(when, wher)
    }

    /// Dispatches an event raised at plan entry `at` to every listener
    /// that reads it, synchronously on the calling thread, in
    /// registration order. Takes no lock and allocates nothing.
    pub fn dispatch(&self, at: usize, payload: &mut Payload<'_>, event: &Event) {
        let row = &self.compiled.masks[at * self.stride() + 1..][..self.listeners.entries.len()];
        for (e, mask) in self.listeners.entries.iter().zip(row) {
            if mask.contains(event.when, event.wher) {
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
            entries.push(Entry { filter, listener });
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

    /// The current listeners compiled against `plan`
    /// ([`ListenerSnapshot::view`]), or `None` when there are none.
    pub fn view(&self, plan: &Arc<Plan>) -> Option<PlanView> {
        self.snapshot().map(|listeners| listeners.view(plan))
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

    /// Reads what it is told, and says when that changes.
    struct Reader {
        reads: Mutex<crate::Reads>,
        version: AtomicU64,
        heard: AtomicUsize,
    }

    impl Reader {
        fn new(reads: crate::Reads) -> Arc<Reader> {
            Arc::new(Reader {
                reads: Mutex::new(reads),
                version: AtomicU64::new(0),
                heard: AtomicUsize::new(0),
            })
        }

        fn read(&self, reads: crate::Reads) {
            *self.reads.lock().unwrap() = reads;
            self.version.fetch_add(1, Ordering::Release);
        }
    }

    impl Listener for Reader {
        fn on_event(&self, _: &mut Payload<'_>, _: &Event) {
            self.heard.fetch_add(1, Ordering::Relaxed);
        }

        fn reads(&self) -> crate::Reads {
            self.reads.lock().unwrap().clone()
        }

        fn reads_version(&self) -> u64 {
            self.version.load(Ordering::Acquire)
        }
    }

    #[test]
    fn a_view_hands_each_listener_what_it_reads_and_follows_its_reads() {
        use askel_skeletons::{map, seq, MuscleId, MuscleRole};
        let leaf = seq(|x: i64| x);
        let program = map(|x: i64| vec![x], leaf.clone(), |p: Vec<i64>| p[0]);
        let plan = program.plan();
        let (root, kid) = (Plan::ROOT, plan.kid(Plan::ROOT, 0));
        let fs = MuscleId::new(program.id(), MuscleRole::Split);
        let reg = ListenerRegistry::new();
        let narrow = Reader::new(crate::Reads::muscle(fs));
        let everything = Reader::new(crate::Reads::All);
        reg.add_listener(narrow.clone());
        // Filtered to the leaf's node: compiled, not tested per event.
        reg.add_filtered(EventFilter::all().node(leaf.id()), everything.clone());
        let view = reg.view(plan).unwrap();
        assert!(view.traced(root) && view.traced(kid));
        assert!(view.wants(root, When::After, Where::Split));
        assert!(!view.wants(root, When::After, Where::Merge));
        assert!(view.wants(kid, When::Before, Where::Skeleton));
        let raise = |at, when, wher| {
            let e = ev(plan.node(at).id.0, when, wher);
            view.dispatch(at, &mut Payload::None, &e);
            let heard = |r: &Reader| r.heard.swap(0, Ordering::Relaxed);
            (heard(&narrow), heard(&everything))
        };
        assert_eq!(raise(root, When::After, Where::Split), (1, 0));
        assert_eq!(raise(root, When::After, Where::Merge), (0, 0));
        assert_eq!(raise(kid, When::After, Where::Skeleton), (0, 1));
        // Compiled once per program and reads version.
        let again = reg.view(plan).unwrap();
        assert!(Arc::ptr_eq(&view.compiled, &again.compiled));
        narrow.read(crate::Reads::NOTHING);
        let narrower = reg.view(plan).unwrap();
        assert!(!Arc::ptr_eq(&view.compiled, &narrower.compiled));
        assert!(!narrower.wants(root, When::After, Where::Split));
        // Still traced: the filtered listener reads the leaf.
        assert!(narrower.traced(root));
        assert!(reg.remove_listener(&(everything as Arc<dyn Listener>)) == 1);
        assert!(!reg.view(plan).unwrap().traced(root), "nothing read");
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
