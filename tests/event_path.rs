//! The per-event path: what it may not cost, and what listener
//! registration still means now that a submission dispatches through a
//! view of the registry taken when it started.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use askel_adapt::TriggerEngine;
use askel_engine::Engine;
use askel_events::util::CountingListener;
use askel_events::{
    Event, EventInfo, FnListener, Listener, ListenerRegistry, Payload, Trace, When, Where,
};
use askel_skeletons::{pipe, seq, InstanceId, KindTag, NodeId, Skel, TimeNs};

/// Counts this thread's heap allocations (other tests' threads share the
/// process, so a global count would be theirs too).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // Plain data with no destructor: always accessible, never allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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
