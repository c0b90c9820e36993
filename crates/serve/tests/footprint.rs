//! What a plain tenant costs, counted in heap bytes rather than timed: a
//! registry of 1 000 plain tenants holds each one's stream session and
//! admission counters, no trigger engine, and keeps little of a finished
//! round once its results are taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use askel_engine::Engine;
use askel_serve::ServeRegistry;
use askel_skeletons::seq;

/// Counts live heap bytes on every thread (pool workers included).
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const TENANTS: usize = 1_000;

#[test]
fn a_plain_tenant_costs_its_session_and_counters() {
    let engine = Engine::new(2);
    let program = seq(|x: i64| x * 2);
    let mut reg: ServeRegistry<i64, i64> = ServeRegistry::new(&engine);
    // One round on a throwaway tenant first, so the pool's and the
    // engine's own first-use buffers are not charged to the tenants.
    let warm = reg.register(&program);
    reg.feed_batch(warm, vec![1, 2, 3, 4]);
    reg.quiesce();
    assert_eq!(reg.detach(warm).map(|r| r.len()), Some(4));

    let mut tenants = Vec::with_capacity(TENANTS);
    let empty = live();
    tenants.extend((0..TENANTS).map(|_| reg.register(&program)));
    let registered = live();
    let per_tenant = (registered - empty) / TENANTS as isize;
    assert!(
        per_tenant <= 583,
        "a registered plain tenant holds {per_tenant} B (bound 583)"
    );

    for &t in &tenants {
        reg.feed_batch(t, vec![1, 2, 3, 4]);
    }
    reg.quiesce();
    for &t in &tenants {
        let got: Vec<i64> = reg.take_ready(t).into_iter().map(Result::unwrap).collect();
        assert_eq!(got, vec![2, 4, 6, 8]);
    }
    let retained = (live() - registered) / TENANTS as isize;
    assert!(
        retained <= 300,
        "a plain tenant retains {retained} B after a round (bound 300)"
    );
    drop(reg);
    engine.shutdown();
}
