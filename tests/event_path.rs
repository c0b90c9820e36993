//! The per-event path: what it may not cost, and what listener
//! registration still means now that a submission dispatches through a
//! view of the registry taken when it started. And the per-step path: a
//! step writes nothing of the shared skeleton tree and allocates nothing
//! beyond its muscle's output.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};

use askel_adapt::{
    Concern, FallbackSwap, Governed, Knob, Promote, RetuneGrain, RetuneWidth, Rule, RuleCtx,
    RuleFire, Trigger, TriggerEngine,
};
use askel_engine::Engine;
use askel_events::util::CountingListener;
use askel_events::{
    Event, EventInfo, FnListener, Listener, ListenerRegistry, Payload, Trace, When, Where,
};
use askel_skeletons::{
    map, pipe, seq, sfor, InstanceId, KindTag, MuscleId, MuscleRole, NodeId, Skel, TimeNs,
};

/// Counts heap allocations twice: this thread's (other tests' threads
/// share the process, so a global count would be theirs too), and every
/// thread's, which only means something while [`whole_process`] keeps the
/// other tests of this file out.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static ALL_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note_allocation() {
    // Plain data with no destructor: always accessible, never allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    ALL_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Every test of this file holds this while it runs, so that what
/// [`ALL_ALLOCATIONS`] counts meanwhile is one test's.
fn whole_process() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn seq_event(when: When, inst: u64, at: u64) -> Event {
    Event {
        node: NodeId(1),
        kind: KindTag::Seq,
        when,
        wher: Where::Skeleton,
        index: InstanceId(inst),
        trace: Trace::root(NodeId(1), InstanceId(inst), KindTag::Seq),
        timestamp: TimeNs(at),
        info: EventInfo::None,
    }
}

#[test]
fn emitting_through_a_registered_listener_allocates_nothing() {
    let _one = whole_process();
    let registry = ListenerRegistry::new();
    let listener = CountingListener::new();
    registry.add_listener(listener.clone());
    let event = seq_event(When::Before, 1, 0);
    let allocations = allocations_during(|| {
        for _ in 0..10_000 {
            registry.emit(&mut Payload::None, &event);
        }
    });
    assert_eq!(listener.count(), 10_000);
    assert_eq!(allocations, 0);
}

#[test]
fn a_trigger_engine_logs_an_event_without_allocating() {
    let _one = whole_process();
    let trigger = TriggerEngine::new(0.5);
    // The thread's first event allocates its part of the log, once.
    trigger.on_event(&mut Payload::None, &seq_event(When::Before, 1, 0));
    let events: Vec<Event> = (1..100)
        .map(|i| {
            seq_event(
                if i % 2 == 0 {
                    When::Before
                } else {
                    When::After
                },
                1 + i / 2,
                i,
            )
        })
        .collect();
    let allocations = allocations_during(|| {
        for event in &events {
            trigger.on_event(&mut Payload::None, event);
        }
    });
    assert_eq!(allocations, 0);
    // And none of them was lost on the way to the state machines.
    let fe = askel_skeletons::MuscleId::new(NodeId(1), askel_skeletons::MuscleRole::Execute);
    assert!(trigger
        .knowledge()
        .read_estimates(|e| e.duration(fe))
        .is_some());
}

/// `first` then `second`, each a `seq`; `first`'s muscle runs `mid_item`.
fn two_stage(mid_item: impl Fn() + Send + Sync + 'static) -> (Skel<i64, i64>, NodeId) {
    let first = seq(move |x: i64| {
        mid_item();
        x + 1
    });
    let second = seq(|x: i64| x * 2);
    let second_id = second.id();
    (pipe(first, second), second_id)
}

#[test]
fn an_event_emitted_after_remove_listener_returns_never_reaches_it() {
    let _one = whole_process();
    let engine = Engine::new(2);
    let removed = CountingListener::new();
    let as_listener: Arc<dyn Listener> = removed.clone();
    let kept = CountingListener::new();
    engine.registry().add_listener(Arc::clone(&as_listener));
    engine.registry().add_listener(kept.clone());
    let seen_at_removal = Arc::new(OnceLock::new());
    let (program, _) = {
        let registry = Arc::clone(engine.registry());
        let removed = Arc::clone(&removed);
        let seen_at_removal = Arc::clone(&seen_at_removal);
        two_stage(move || {
            assert_eq!(registry.remove_listener(&as_listener), 1);
            seen_at_removal
                .set(removed.count())
                .expect("one item, one run");
        })
    };
    assert_eq!(engine.submit(&program, 1).get().unwrap(), 4);
    let at_removal = *seen_at_removal.get().expect("the muscle ran");
    assert!(at_removal > 0, "it was listening when the item started");
    assert_eq!(removed.count(), at_removal, "nothing after removal");
    assert!(kept.count() > at_removal, "the item went on emitting");
    engine.shutdown();
}

#[test]
fn a_listener_added_mid_item_sees_the_items_later_events() {
    let _one = whole_process();
    let engine = Engine::new(2);
    // Somebody listens from the start, so the submission is traced.
    engine.registry().add_listener(CountingListener::new());
    let late: Arc<Mutex<Vec<(NodeId, When)>>> = Arc::default();
    let (program, second_id) = {
        let registry = Arc::clone(engine.registry());
        let late = Arc::clone(&late);
        two_stage(move || {
            let late = Arc::clone(&late);
            registry.add_listener(Arc::new(FnListener(
                move |_: &mut Payload<'_>, e: &Event| {
                    if e.wher == Where::Skeleton {
                        late.lock().unwrap().push((e.node, e.when));
                    }
                },
            )));
        })
    };
    assert_eq!(engine.submit(&program, 1).get().unwrap(), 4);
    let late = late.lock().unwrap();
    assert!(late.contains(&(second_id, When::Before)), "{late:?}");
    assert!(late.contains(&(second_id, When::After)), "{late:?}");
    engine.shutdown();
}

#[test]
fn a_handler_may_register_listeners_while_the_engine_dispatches() {
    let _one = whole_process();
    let engine = Engine::new(2);
    let late = CountingListener::new();
    let once = AtomicUsize::new(0);
    let registry = Arc::clone(engine.registry());
    let late_handle = late.clone();
    engine.registry().add_listener(Arc::new(FnListener(
        move |_: &mut Payload<'_>, _: &Event| {
            if once.fetch_add(1, Ordering::SeqCst) == 0 {
                registry.add_listener(late_handle.clone());
            }
        },
    )));
    let (program, _) = two_stage(|| {});
    assert_eq!(engine.submit(&program, 1).get().unwrap(), 4);
    assert_eq!(engine.registry().len(), 2);
    assert!(
        late.count() > 0,
        "registered at the first event, saw the rest"
    );
    engine.shutdown();
}

#[test]
fn a_submission_nobody_listens_to_stays_silent() {
    let _one = whole_process();
    // The other side of the same contract, unchanged: no listener at
    // submit, no events for that item, whoever registers meanwhile.
    let engine = Engine::new(2);
    let late = CountingListener::new();
    let (program, _) = {
        let registry = Arc::clone(engine.registry());
        let late = late.clone();
        two_stage(move || registry.add_listener(late.clone()))
    };
    assert_eq!(engine.submit(&program, 1).get().unwrap(), 4);
    assert_eq!(late.count(), 0);
    assert_eq!(engine.submit(&program, 1).get().unwrap(), 4);
    assert!(late.count() > 0, "the next submission is traced");
    engine.shutdown();
}

/// The strong count of every node of `skel`'s tree, pre-order.
fn strong_counts(skel: &Skel<i64, i64>) -> Vec<usize> {
    skel.node()
        .collect_nodes()
        .iter()
        // Less the one `collect_nodes` itself holds.
        .map(|node| Arc::strong_count(node) - 1)
        .collect()
}

#[test]
fn a_running_item_moves_no_reference_count_of_its_tree() {
    let _one = whole_process();
    let engine = Engine::new(2);
    // Input 0 parks mid-loop, at its 100th iteration, until released.
    let park = Arc::new(Barrier::new(2));
    let program: Skel<i64, i64> = {
        let park = Arc::clone(&park);
        sfor(
            256,
            seq(move |x: i64| {
                if x == 100 {
                    park.wait(); // parked
                    park.wait(); // released
                }
                x + 1
            }),
        )
    };
    for observed in [false, true] {
        if observed {
            engine.registry().add_listener(CountingListener::new());
        }
        assert_eq!(engine.submit(&program, 1_000).get().unwrap(), 1_256);
        let between = strong_counts(&program);
        let in_flight = engine.submit(&program, 0);
        park.wait();
        let during = strong_counts(&program);
        park.wait();
        assert_eq!(in_flight.get().unwrap(), 256);
        assert_eq!(during[1..], between[1..], "observed: {observed}");
        assert!(
            during[0] <= between[0] + 1,
            "root {} > {} + 1 (observed: {observed})",
            during[0],
            between[0]
        );
    }
    engine.shutdown();
}

/// Heap allocations per `sfor(64, seq)` item, on every thread, one item
/// in flight at a time, after a warm-up.
fn allocations_per_for_64_item(engine: &Engine) -> f64 {
    const ITEMS: u64 = 64;
    let program = sfor(64, seq(|x: i64| x + 1));
    for _ in 0..16 {
        assert_eq!(engine.submit(&program, 0).get().unwrap(), 64);
    }
    let before = ALL_ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..ITEMS as i64 {
        assert_eq!(engine.submit(&program, i).get().unwrap(), i + 64);
    }
    (ALL_ALLOCATIONS.load(Ordering::SeqCst) - before) as f64 / ITEMS as f64
}

#[test]
fn a_for_iteration_allocates_only_its_muscles_output() {
    let _one = whole_process();
    let engine = Engine::new(2);
    // The submission's own: each iteration's muscle writes its result
    // back into its input's box (8 measured).
    let plain = allocations_per_for_64_item(&engine);
    assert!(plain <= 10.0, "{plain} allocations per plain item");
    // An observed item shares trace paths: only the loop's is new.
    engine.registry().add_listener(CountingListener::new());
    let observed = allocations_per_for_64_item(&engine);
    assert!(
        observed <= plain + 8.0,
        "{observed} allocations per observed item, {plain} per plain one"
    );
    engine.shutdown();
}

/// Counts the events it hears and hands each on to `inner`, declaring
/// `inner`'s interest and reads; accepts spans if `inner` does, unless
/// `spans` is off.
struct Tally {
    inner: Arc<dyn Listener>,
    spans: bool,
    heard: AtomicUsize,
}

impl Tally {
    fn new(inner: Arc<dyn Listener>, spans: bool) -> Arc<Tally> {
        let heard = AtomicUsize::new(0);
        Arc::new(Tally {
            inner,
            spans,
            heard,
        })
    }

    fn take(&self) -> usize {
        self.heard.swap(0, Ordering::SeqCst)
    }
}

impl Listener for Tally {
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        self.heard.fetch_add(1, Ordering::SeqCst);
        self.inner.on_event(payload, event);
    }

    fn interest(&self) -> askel_events::Interest {
        self.inner.interest()
    }

    fn accepts_spans(&self) -> bool {
        self.spans && self.inner.accepts_spans()
    }

    fn reads(&self) -> askel_events::Reads {
        self.inner.reads()
    }

    fn reads_version(&self) -> u64 {
        self.inner.reads_version()
    }
}

/// A rule that never fires and declares no reads, so the trigger holding
/// it hears every event.
struct ReadsAll;

impl Rule for ReadsAll {
    fn evaluate(&mut self, _: &RuleCtx<'_>) -> Option<RuleFire> {
        None
    }
}

/// A trigger engine whose one rule reads every muscle: it hears what a
/// rule-less one did before rules declared their reads.
fn reading_all() -> Arc<TriggerEngine> {
    let trigger = TriggerEngine::new(0.5);
    trigger.add_rule(Governed::new("reads-all", Concern::Performance, ReadsAll));
    trigger
}

/// The ladder's four armed rules, none of which can fire: they read one
/// split cardinality of `program` (which a `for` has not) and the
/// duration of a muscle that never runs.
fn silent_rules<P: Send + 'static, R: Send + 'static>(
    trigger: &TriggerEngine,
    program: &Skel<P, R>,
) {
    let decoy = seq(|x: u8| x);
    let fs = MuscleId::new(program.id(), MuscleRole::Split);
    let silent = MuscleId::new(decoy.id(), MuscleRole::Execute);
    trigger.add_rule(
        Promote::new(program, program)
            .named("promote-never")
            .when(Trigger::InputSizeAtLeast(f64::MAX)),
    );
    trigger.add_rule(FallbackSwap::new(program, program, usize::MAX).named("swap-never"));
    trigger.add_rule(
        RetuneWidth::new(Knob::new("width-never", 32), 16)
            .when(Trigger::CardinalityAtLeast(fs, f64::MAX)),
    );
    trigger.add_rule(RetuneGrain::new(
        Knob::new("grain-never", 64),
        silent,
        TimeNs::from_millis(1),
    ));
}

fn for_64() -> Skel<i64, i64> {
    sfor(64, seq(|x: i64| x + 1))
}

/// The ladder's `map_512`: 32 chunks of 16, summed.
fn map_512() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.chunks(16).map(<[i64]>::to_vec).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

/// Per item, `ITEMS` items of `program` on `input` one at a time through
/// an engine whose registry holds `tallies`: the events each heard, and
/// the records and spans `trigger`'s log held.
fn per_item<P: Clone + Send + 'static>(
    program: &Skel<P, i64>,
    input: P,
    tallies: &[&Arc<Tally>],
    trigger: &TriggerEngine,
) -> Vec<(Vec<usize>, usize, usize)> {
    const ITEMS: usize = 4;
    let engine = Engine::new(2);
    for tally in tallies {
        engine
            .registry()
            .add_listener(Arc::clone(tally) as Arc<dyn Listener>);
    }
    let expected = program.apply(input.clone());
    let counts = (0..ITEMS)
        .map(|_| {
            assert_eq!(
                engine.submit(program, input.clone()).get().unwrap(),
                expected
            );
            let mut logged = Vec::new();
            trigger.knowledge().log().drain_into(&mut logged);
            let spans = logged.iter().filter(|r| r.span_start().is_some()).count();
            let heard = tallies.iter().map(|t| t.take()).collect();
            (heard, logged.len(), spans)
        })
        .collect();
    engine.shutdown();
    counts
}

#[test]
fn a_lone_trigger_logs_each_finished_seq_of_a_for_64_item_as_one_span() {
    let _one = whole_process();
    let engine = Engine::new(2);
    let trigger = reading_all();
    let tally = Tally::new(trigger.clone(), true);
    let mut session = askel_engine::StreamSession::new(&engine, &for_64()).listener(tally.clone());
    for item in 0..4 {
        session.feed(item);
        assert_eq!(session.next_result().unwrap().unwrap(), item + 64);
        // The loop's two events and one per iteration, raised and logged
        // as they are: each `seq` raised one event.
        let mut logged = Vec::new();
        trigger.knowledge().log().drain_into(&mut logged);
        let spans = logged.iter().filter(|r| r.span_start().is_some()).count();
        assert_eq!((tally.take(), logged.len(), spans), (66, 66, 64));
    }
    engine.shutdown();
}

#[test]
fn spans_form_where_every_listener_of_a_submission_accepts_them() {
    let _one = whole_process();
    let vector: Vec<i64> = (0..512).collect();
    // A lone trigger reading everything, through the registry: one event
    // per `seq`.
    let trigger = reading_all();
    let lone = Tally::new(trigger.clone(), true);
    for counts in per_item(&for_64(), 0, &[&lone], &trigger) {
        assert_eq!(counts, (vec![66], 66, 64));
    }
    for counts in per_item(&map_512(), vector.clone(), &[&lone], &trigger) {
        assert_eq!(counts, (vec![38], 38, 32));
    }
    // The same trigger behind a listener that takes no spans hears both
    // events of every `seq` at its positions (no nesting markers).
    let pairs = Tally::new(trigger.clone(), false);
    for counts in per_item(&for_64(), 0, &[&pairs], &trigger) {
        assert_eq!(counts, (vec![130], 130, 0));
    }
    for counts in per_item(&map_512(), vector.clone(), &[&pairs], &trigger) {
        assert_eq!(counts, (vec![70], 70, 0));
    }
    // A counting listener alone hears every position: what the ladder's
    // `events.emitted_per_item` counts (134 per `map_512` item).
    let counting = Tally::new(CountingListener::new(), true);
    for counts in per_item(&for_64(), 0, &[&counting], &trigger) {
        assert_eq!(counts, (vec![258], 0, 0));
    }
    for counts in per_item(&map_512(), vector.clone(), &[&counting], &trigger) {
        assert_eq!(counts, (vec![134], 0, 0));
    }
    // Both registered: one of them takes no spans, so each `seq` raises
    // two events again and the trigger's log holds both.
    for counts in per_item(&for_64(), 0, &[&lone, &counting], &trigger) {
        assert_eq!(counts, (vec![130, 258], 130, 0));
    }
    for counts in per_item(&map_512(), vector, &[&lone, &counting], &trigger) {
        assert_eq!(counts, (vec![70, 134], 70, 0));
    }
}

/// Whether two means of [`allocations_per_for_64_item`] count the same
/// allocations per item: one more per item moves a mean by 1, while the
/// pool's own occasional growth, which no item owns, moves it by a
/// fraction.
fn same_per_item(a: f64, b: f64) -> bool {
    (a - b).abs() < 0.5
}

#[test]
fn a_trigger_whose_rules_read_nothing_of_a_for_64_leaves_it_unobserved() {
    let _one = whole_process();
    let engine = Engine::new(2);
    let plain = allocations_per_for_64_item(&engine);
    // The ladder's silent rules read the split of a `for`, which it has
    // not, and a muscle that never runs: nothing of the program.
    let trigger = TriggerEngine::new(0.5);
    silent_rules(&trigger, &for_64());
    let tally = Tally::new(trigger.clone(), true);
    engine.registry().add_listener(tally.clone());
    let silent = allocations_per_for_64_item(&engine);
    assert_eq!(tally.take(), 0, "no event");
    let mut logged = Vec::new();
    trigger.knowledge().log().drain_into(&mut logged);
    assert!(logged.is_empty());
    // An instance id is minted only with a trace, which costs its path:
    // allocating what a plain item does, it minted none.
    assert!(
        same_per_item(silent, plain),
        "{silent} allocations per silent item, {plain} per plain"
    );
    engine.shutdown();
}

#[test]
fn a_trigger_with_no_rule_costs_what_no_listener_costs() {
    let _one = whole_process();
    let engine = Engine::new(2);
    let plain = allocations_per_for_64_item(&engine);
    let trigger = TriggerEngine::new(0.5);
    let tally = Tally::new(trigger.clone(), true);
    engine.registry().add_listener(tally.clone());
    let unread = allocations_per_for_64_item(&engine);
    assert!(
        same_per_item(unread, plain),
        "{unread} allocations per item, {plain} plain"
    );
    let vector: Vec<i64> = (0..512).collect();
    for counts in per_item(&map_512(), vector, &[&tally], &trigger) {
        assert_eq!(counts, (vec![0], 0, 0));
    }
    assert_eq!(tally.take(), 0);
    engine.shutdown();
}

#[test]
fn the_silent_rules_hear_a_map_512_item_at_its_map_alone() {
    let _one = whole_process();
    let vector: Vec<i64> = (0..512).collect();
    let program = map_512();
    let trigger = TriggerEngine::new(0.5);
    silent_rules(&trigger, &program);
    let tally = Tally::new(trigger.clone(), true);
    // The split cardinality they read: the split's two events and the
    // map's skeleton brackets. The 32 `seq` children stay untraced.
    for counts in per_item(&program, vector, &[&tally], &trigger) {
        assert_eq!(counts, (vec![4], 4, 0));
    }
}
