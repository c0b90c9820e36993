//! Sharded-serve integration: per-tenant correctness with concurrent
//! ingress threads and concurrent shard drivers, including detach under
//! a live drain, and drivers that sleep without a timeout yet never
//! sleep through work they owe.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use askel_adapt::TriggerEngine;
use askel_engine::Engine;
use askel_serve::{Admission, AdmissionPolicy, RejectReason, ShardedServe};
use askel_skeletons::{map, pipe, seq, Skel};

/// The shared tenant program: square every element in parallel, sum.
fn fan() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] * v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

/// A structurally different program over the same types.
fn chain() -> Skel<Vec<i64>, i64> {
    pipe(
        seq(|v: Vec<i64>| v.into_iter().map(|x| x * x).collect::<Vec<i64>>()),
        seq(|v: Vec<i64>| v.into_iter().sum::<i64>()),
    )
}

const TENANTS: usize = 6;
const INGRESS_THREADS: usize = 3;

/// One op in an interleaved schedule, applied by the ingress thread
/// that owns the op's tenant (so each tenant sees a well-defined feed
/// order while ops on *other* tenants race on other threads).
#[derive(Clone, Debug)]
enum OpKind {
    Feed(Vec<i64>),
    Batch(Vec<Vec<i64>>),
    Detach,
}

fn op_strategy() -> impl Strategy<Value = (usize, OpKind)> {
    let item = proptest::collection::vec(-50i64..50, 1..4);
    (
        0usize..TENANTS,
        prop_oneof![
            6 => item.clone().prop_map(OpKind::Feed),
            3 => proptest::collection::vec(item, 2..5).prop_map(OpKind::Batch),
            1 => Just(OpKind::Detach),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Six tenants over four shard drivers, fed from three concurrent
    /// ingress threads with random feed/feed_batch/detach interleavings:
    /// every tenant's harvested results equal its sequential reference —
    /// the items it fed before its detach, applied in feed order.
    #[test]
    fn concurrent_shards_match_sequential_references(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let engine = Engine::new(2);
        let serve: ShardedServe<Vec<i64>, i64> =
            ShardedServe::new(&engine, 4, AdmissionPolicy::default());
        let programs: Vec<Skel<Vec<i64>, i64>> =
            (0..TENANTS).map(|i| if i % 2 == 0 { fan() } else { chain() }).collect();
        let tenants: Vec<_> = programs.iter().map(|p| serve.register(p)).collect();

        // Each tenant's sequential reference: the items fed before its
        // detach (feeds after a detach are rejected as unknown).
        let mut expected: Vec<Vec<i64>> = vec![Vec::new(); TENANTS];
        let mut detached = [false; TENANTS];
        for (tenant, kind) in &ops {
            match kind {
                OpKind::Feed(item) if !detached[*tenant] => {
                    expected[*tenant].push(programs[*tenant].apply(item.clone()));
                }
                OpKind::Batch(items) if !detached[*tenant] => {
                    for item in items {
                        expected[*tenant].push(programs[*tenant].apply(item.clone()));
                    }
                }
                OpKind::Detach => detached[*tenant] = true,
                _ => {}
            }
        }

        // Partition ops by owning ingress thread (tenant % threads), in
        // order — each tenant's schedule stays sequential on its owner
        // while the owners and the four shard drivers all race.
        let mut lanes: Vec<Vec<(usize, OpKind)>> = vec![Vec::new(); INGRESS_THREADS];
        for op in ops {
            lanes[op.0 % INGRESS_THREADS].push(op);
        }
        let harvested: Vec<Vec<Vec<i64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = lanes
                .into_iter()
                .map(|lane| {
                    let serve = &serve;
                    let tenants = &tenants;
                    s.spawn(move || {
                        let mut got: Vec<Vec<i64>> = vec![Vec::new(); TENANTS];
                        for (tenant, kind) in lane {
                            let id = tenants[tenant];
                            match kind {
                                OpKind::Feed(item) => {
                                    serve.feed(id, item);
                                }
                                OpKind::Batch(items) => {
                                    serve.feed_batch(id, items);
                                }
                                OpKind::Detach => {
                                    if let Some(results) = serve.detach(id) {
                                        got[tenant]
                                            .extend(results.into_iter().map(|r| r.unwrap()));
                                    }
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        serve.quiesce();
        for (i, &t) in tenants.iter().enumerate() {
            // A detached tenant's results came back from detach (on its
            // owning ingress thread); a live tenant's are harvested now.
            let mut got: Vec<i64> = harvested.iter().flat_map(|lane| lane[i].clone()).collect();
            got.extend(serve.take_ready(t).into_iter().map(|r| r.unwrap()));
            prop_assert_eq!(got, expected[i].clone(), "tenant {} diverged", i);
        }
        serve.join();
        engine.shutdown();
    }
}

/// Detaching a tenant while its shard's driver is actively draining its
/// backlog loses nothing: every admitted item's result comes back, in
/// submission order, and later feeds are rejected as unknown.
#[test]
fn detach_while_driver_is_draining_loses_nothing() {
    let engine = Engine::new(2);
    // Quota 1 + deep backlog: the driver dispatches one item per cycle,
    // so the backlog drains gradually while we detach mid-flight.
    let policy = AdmissionPolicy::default().max_in_flight(1).max_backlog(512);
    let serve: ShardedServe<i64, i64> = ShardedServe::new(&engine, 4, policy);
    let t = serve.register(&seq(|x: i64| x * 3));
    let out = serve.feed_batch(t, (0..200).collect());
    assert_eq!(out.submitted + out.queued, 200, "nothing shed");
    // Let the driver make some progress, then yank the tenant out from
    // under it.
    while serve.stats(t).map(|s| s.completed).unwrap_or(0) == 0 {
        std::thread::yield_now();
    }
    let results = serve.detach(t).expect("tenant was live");
    let got: Vec<i64> = results.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, (0..200).map(|x| x * 3).collect::<Vec<_>>());
    assert_eq!(
        serve.feed(t, 7),
        Admission::Rejected(RejectReason::UnknownTenant),
        "a detached tenant is gone"
    );
    assert_eq!(serve.detach(t), None, "second detach finds nothing");
    serve.quiesce();
    serve.join();
    engine.shutdown();
}

/// Runs `f` on its own thread and returns its value; fails the test if
/// it has not finished within `deadline` (a hung driver or `join` shows
/// up as this failure, not as a test that never ends).
fn within<T: Send + 'static>(
    deadline: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(deadline) {
        Ok(value) => {
            handle.join().expect("sent its value, so it returns");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what} still running after {deadline:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("sender dropped by a panic"))
        }
    }
}

/// A settled shard's driver sleeps with no timeout, so every ingress
/// edge must wake it: 1 000 idle→busy transitions, each a 2-item batch
/// at quota 1 — the second item queues, and only the driver can dispatch
/// it — fed once the shard has settled and delivered through
/// `take_ready` within 5 s.
#[test]
fn a_sleeping_driver_wakes_for_every_ingress_edge() {
    const EDGES: i64 = 1_000;
    const DEADLINE: Duration = Duration::from_secs(5);
    let engine = Engine::new(2);
    let policy = AdmissionPolicy::default().max_in_flight(1);
    let serve: ShardedServe<i64, i64> = ShardedServe::new(&engine, 2, policy);
    let t = serve.register(&seq(|x: i64| x + 1));
    let run = move || {
        for edge in 0..EDGES {
            // Long enough for the driver to end its in-flight nap, see
            // the shard settled and go to sleep.
            std::thread::sleep(Duration::from_micros(200));
            let out = serve.feed_batch(t, vec![2 * edge, 2 * edge + 1]);
            assert_eq!((out.submitted, out.queued), (1, 1));
            let started = Instant::now();
            let mut got = Vec::new();
            while got.len() < 2 {
                got.extend(serve.take_ready(t).into_iter().map(|r| r.unwrap()));
                assert!(
                    started.elapsed() < DEADLINE,
                    "edge {edge}: the driver slept through the feed"
                );
                std::thread::yield_now();
            }
            assert_eq!(got, [2 * edge + 1, 2 * edge + 2]);
        }
        serve.join();
    };
    within(2 * DEADLINE, "the edges and the join", run);
    engine.shutdown();
}

/// `join` must reach a driver in the middle of a pass. The driver here
/// is held inside one — harvesting a result records its outcome with
/// the tenant's trigger, which the test keeps locked — while `join` is
/// called, and that pass leaves the shard settled, so the driver's next
/// step is a wait with no timeout. The sleeps only give the driver time
/// to reach that pass; correct code passes whatever they give.
#[test]
fn join_reaches_a_driver_in_the_middle_of_a_pass() {
    let engine = Engine::new(2);
    let serve: ShardedServe<i64, i64> = ShardedServe::new(&engine, 1, AdmissionPolicy::default());
    let (open, gate) = mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    let gated = seq(move |x: i64| {
        gate.lock().unwrap().recv().ok();
        x
    });
    let trigger = TriggerEngine::new(0.5);
    let t = serve.register_adaptive(&gated, Arc::clone(&trigger));
    serve.feed(t, 1);
    let (held, holding) = mpsc::channel();
    let holder = std::thread::spawn(move || {
        trigger.knowledge().read_estimates(|_| {
            held.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(100));
        })
    });
    holding.recv().unwrap();
    // The item finishes; the driver's next pass stops in its harvest.
    open.send(()).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    within(Duration::from_secs(5), "join", move || serve.join());
    holder.join().unwrap();
    engine.shutdown();
}

/// An adaptive tenant's harvested history reaches the shared pool with
/// no `quiesce`: results polled out by `take_ready` leave history only
/// the shard's driver publishes, and it must not sleep on it.
#[test]
fn history_harvested_by_take_ready_is_published() {
    const ITEMS: usize = 8;
    let engine = Engine::new(2);
    let serve: ShardedServe<Vec<i64>, i64> =
        ShardedServe::new(&engine, 2, AdmissionPolicy::default());
    let t = serve.register_adaptive(&fan(), TriggerEngine::new(0.5));
    for n in 0..ITEMS as i64 {
        serve.feed(t, (0..=n).collect());
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut taken = 0;
    while taken < ITEMS {
        taken += serve.take_ready(t).len();
        assert!(Instant::now() < deadline, "{taken} of {ITEMS} results");
        std::thread::yield_now();
    }
    while serve.shared_estimators().structures() == 0 {
        assert!(
            Instant::now() < deadline,
            "harvested history never published"
        );
        std::thread::yield_now();
    }
    serve.join();
    engine.shutdown();
}
