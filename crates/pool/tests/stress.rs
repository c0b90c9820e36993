//! Stress tests for the sharded work-stealing ready queue: every
//! submitted task must run exactly once, no matter how submit, steal,
//! grow, shrink and shutdown interleave.
//!
//! "Exactly once" is checked with a per-task flag array (`fetch_or`
//! catches a double run) plus a total counter (catches a lost task).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use askel_pool::{ResizablePool, Task};

use proptest::prelude::*;

/// Shared exactly-once bookkeeping for one stress run.
struct Ledger {
    ran: Vec<AtomicBool>,
    count: AtomicUsize,
    doubles: AtomicUsize,
}

impl Ledger {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Ledger {
            ran: (0..n).map(|_| AtomicBool::new(false)).collect(),
            count: AtomicUsize::new(0),
            doubles: AtomicUsize::new(0),
        })
    }

    fn task(self: &Arc<Self>, id: usize) -> Task {
        let ledger = Arc::clone(self);
        Box::new(move || {
            if ledger.ran[id].fetch_or(true, Ordering::SeqCst) {
                ledger.doubles.fetch_add(1, Ordering::SeqCst);
            }
            ledger.count.fetch_add(1, Ordering::SeqCst);
        })
    }

    fn assert_exactly_once(&self, n: usize) {
        assert_eq!(self.doubles.load(Ordering::SeqCst), 0, "a task ran twice");
        assert_eq!(
            self.count.load(Ordering::SeqCst),
            n,
            "not every task ran exactly once"
        );
        assert!(
            self.ran.iter().all(|f| f.load(Ordering::SeqCst)),
            "a task was lost"
        );
    }
}

/// Concurrent submitters + tasks spawning sub-tasks (exercising the
/// worker-local deques) while the main thread oscillates the worker
/// target, including through zero.
#[test]
fn no_task_lost_or_doubled_under_target_oscillation() {
    const SUBMITTERS: usize = 3;
    const PARENTS_PER_SUBMITTER: usize = 60;
    const CHILDREN_PER_PARENT: usize = 4;
    const TOTAL: usize = SUBMITTERS * PARENTS_PER_SUBMITTER * (1 + CHILDREN_PER_PARENT);

    let pool = ResizablePool::new(2);
    let ledger = Ledger::new(TOTAL);

    let mut threads = Vec::new();
    for s in 0..SUBMITTERS {
        let pool = pool.clone();
        let ledger = Arc::clone(&ledger);
        threads.push(std::thread::spawn(move || {
            for p in 0..PARENTS_PER_SUBMITTER {
                let base = (s * PARENTS_PER_SUBMITTER + p) * (1 + CHILDREN_PER_PARENT);
                let parent_pool = pool.clone();
                let parent_ledger = Arc::clone(&ledger);
                // The parent spawns children from inside a worker, so
                // they land on that worker's local deque and must
                // survive that worker retiring mid-oscillation.
                pool.submit(Box::new(move || {
                    for c in 1..=CHILDREN_PER_PARENT {
                        parent_pool.submit(parent_ledger.task(base + c));
                    }
                    parent_ledger.task(base)();
                }));
                if p % 16 == 0 {
                    std::thread::yield_now();
                }
            }
        }));
    }

    // Oscillate the LP hard while submissions are in flight.
    for round in 0..50 {
        for target in [4usize, 1, 6, 0, 2] {
            pool.set_target_workers(target);
            if round % 8 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    for t in threads {
        t.join().unwrap();
    }
    // Leave capacity so everything drains, then wait.
    pool.set_target_workers(2);
    pool.wait_idle();
    ledger.assert_exactly_once(TOTAL);
    assert_eq!(pool.queued_tasks(), 0);
    pool.shutdown_and_join();
}

/// `wait_idle` regression test: tasks resident only in a worker-local
/// deque (the injector is empty, no task is active) must still hold
/// `wait_idle` back. An implementation that only watched the injector
/// would return after the parent finishes, before the children run.
#[test]
fn wait_idle_accounts_for_worker_local_deques() {
    let pool = ResizablePool::new(1);
    let done = Arc::new(AtomicUsize::new(0));
    let (queued_tx, queued_rx) = std::sync::mpsc::channel();
    let p2 = pool.clone();
    let d2 = Arc::clone(&done);
    pool.submit(Box::new(move || {
        // These land on the sole worker's local deque.
        for _ in 0..16 {
            let d = Arc::clone(&d2);
            p2.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(1));
                d.fetch_add(1, Ordering::SeqCst);
            }));
        }
        queued_tx.send(()).unwrap();
        // Linger so the main thread starts wait_idle while the children
        // are still queued locally and the injector is empty.
        std::thread::sleep(Duration::from_millis(10));
    }));
    queued_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    pool.wait_idle();
    assert_eq!(
        done.load(Ordering::SeqCst),
        16,
        "wait_idle returned while worker-local tasks were still pending"
    );
    pool.shutdown_and_join();
}

/// A shrink that retires a worker whose deque still holds tasks must
/// drain them back to the injector rather than losing them.
#[test]
fn retiring_worker_drains_its_deque() {
    for _ in 0..20 {
        let pool = ResizablePool::new(1);
        let ledger = Ledger::new(9);
        let p2 = pool.clone();
        let l2 = Arc::clone(&ledger);
        pool.submit(Box::new(move || {
            for id in 1..9 {
                p2.submit(l2.task(id));
            }
            l2.task(0)();
        }));
        // Race a shrink-to-zero then grow against the spawning parent.
        pool.set_target_workers(0);
        pool.set_target_workers(2);
        pool.wait_idle();
        ledger.assert_exactly_once(9);
        pool.shutdown_and_join();
    }
}

/// Builds a `submit_next` chain: each link hands the following link to
/// the current worker's TLS slot as its last act.
fn slot_chain(pool: ResizablePool, ledger: Arc<Ledger>, id: usize, last: usize) -> Task {
    Box::new(move || {
        std::thread::sleep(Duration::from_micros(200));
        ledger.task(id)();
        if id < last {
            let next = slot_chain(pool.clone(), Arc::clone(&ledger), id + 1, last);
            pool.submit_next(next);
        }
    })
}

/// `wait_idle` must not return while an inline (slot-run) continuation
/// chain is still executing: every link is deposited *during* its
/// predecessor, so an implementation that did not count slot tasks in
/// `submitted` would see `finished == submitted` between links.
#[test]
fn wait_idle_covers_inline_slot_chains() {
    const LINKS: usize = 50;
    let pool = ResizablePool::new(1);
    let ledger = Ledger::new(LINKS);
    pool.submit(slot_chain(pool.clone(), Arc::clone(&ledger), 0, LINKS - 1));
    pool.wait_idle();
    ledger.assert_exactly_once(LINKS);
    assert_eq!(pool.queued_tasks(), 0);
    pool.shutdown_and_join();
}

/// Every slot-run task counts in the telemetry's monotonic
/// `started`/`finished` pair exactly like a queued task.
#[test]
fn telemetry_counts_inline_slot_tasks() {
    const LINKS: usize = 8;
    let pool = ResizablePool::new(1);
    let ledger = Ledger::new(LINKS);
    let started_before = pool.telemetry().tasks_started();
    let finished_before = pool.telemetry().tasks_finished();
    pool.submit(slot_chain(pool.clone(), Arc::clone(&ledger), 0, LINKS - 1));
    pool.wait_idle();
    ledger.assert_exactly_once(LINKS);
    assert_eq!(
        pool.telemetry().tasks_started() - started_before,
        LINKS,
        "each slot-run task must be recorded as started"
    );
    assert_eq!(
        pool.telemetry().tasks_finished() - finished_before,
        LINKS,
        "each slot-run task must be recorded as finished"
    );
    pool.shutdown_and_join();
}

/// A deposited-but-not-yet-started slot task is visible to
/// `queued_tasks` (it is submitted work the pool has not picked up).
#[test]
fn queued_tasks_sees_a_deposited_slot_task() {
    let pool = ResizablePool::new(1);
    let (deposited_tx, deposited_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let p2 = pool.clone();
    pool.submit(Box::new(move || {
        p2.submit_next(Box::new(|| {}));
        deposited_tx.send(()).unwrap();
        release_rx.recv().unwrap();
    }));
    deposited_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(pool.queued_tasks(), 1, "the slot task is queued work");
    release_tx.send(()).unwrap();
    pool.wait_idle();
    assert_eq!(pool.queued_tasks(), 0);
    pool.shutdown_and_join();
}

/// Called from outside the pool's workers, `submit_next` degrades to a
/// plain submit and the task still runs.
#[test]
fn submit_next_from_foreign_thread_is_a_plain_submit() {
    let pool = ResizablePool::new(1);
    let (tx, rx) = std::sync::mpsc::channel();
    pool.submit_next(Box::new(move || tx.send(17).unwrap()));
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 17);
    pool.shutdown_and_join();
}

/// A second deposit in one task spills the first to the deque (LIFO
/// order: the newest deposit runs first) and nothing is lost.
#[test]
fn double_deposit_spills_without_losing_tasks() {
    let pool = ResizablePool::new(1);
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let p2 = pool.clone();
    let o2 = Arc::clone(&order);
    pool.submit(Box::new(move || {
        let o_first = Arc::clone(&o2);
        let o_second = Arc::clone(&o2);
        p2.submit_next(Box::new(move || o_first.lock().push("first")));
        p2.submit_next(Box::new(move || o_second.lock().push("second")));
    }));
    pool.wait_idle();
    assert_eq!(*order.lock(), vec!["second", "first"]);
    pool.shutdown_and_join();
}

/// Slot chains survive the worker target oscillating (including through
/// zero) mid-chain: a retiring worker pushes the pending link back to
/// its deque, whose retire drain sends it to the injector for a
/// successor to adopt. Exactly-once must hold throughout.
#[test]
fn slot_chains_survive_target_oscillation() {
    const CHAINS: usize = 4;
    const LINKS: usize = 25;
    let pool = ResizablePool::new(2);
    let ledger = Ledger::new(CHAINS * LINKS);
    for c in 0..CHAINS {
        let base = c * LINKS;
        pool.submit(slot_chain(
            pool.clone(),
            Arc::clone(&ledger),
            base,
            base + LINKS - 1,
        ));
    }
    for _ in 0..40 {
        for target in [3usize, 0, 1, 4, 2] {
            pool.set_target_workers(target);
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    pool.set_target_workers(2);
    pool.wait_idle();
    ledger.assert_exactly_once(CHAINS * LINKS);
    assert_eq!(pool.queued_tasks(), 0);
    pool.shutdown_and_join();
}

/// Lost-wakeup regression: drive workers through the register → cancel →
/// re-register → park window over and over while submissions race it.
///
/// The sleeper registry used to admit stale entries: a waker popping a
/// registration while the worker took the sleep-cancel path left the
/// parker token set, the next `park` returned instantly with the fresh
/// registration still listed, and once that worker picked up a task a
/// later `wake(1)` could spend its wakeup on the busy worker while a
/// real sleeper stayed parked with work queued. With the bug, a round
/// below eventually strands its tasks and the `recv_timeout` fires.
#[test]
fn no_wakeup_lost_when_submit_races_the_sleep_path() {
    let pool = ResizablePool::new(3);
    let (tx, rx) = std::sync::mpsc::channel();
    const ROUNDS: usize = 300;
    const PER_ROUND: usize = 8;
    for _ in 0..ROUNDS {
        for k in 0..PER_ROUND {
            let tx = tx.clone();
            // One slow task per round keeps a worker busy long enough
            // for a misdirected wakeup to strand the fast ones.
            let slow = k == 0;
            pool.submit(Box::new(move || {
                if slow {
                    std::thread::sleep(Duration::from_micros(300));
                }
                tx.send(()).unwrap();
            }));
        }
        // Drain the round so every worker goes back to sleep and the
        // next round's submits race the register→park transitions.
        for _ in 0..PER_ROUND {
            rx.recv_timeout(Duration::from_secs(10))
                .expect("task stranded behind a sleeping worker (lost wakeup)");
        }
    }
    pool.shutdown_and_join();
}

/// One step of a random schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Submit `n` tasks one by one from the driver thread.
    Submit(usize),
    /// Submit `n` tasks as one batch.
    Batch(usize),
    /// Retarget the pool to `lp` workers.
    Resize(usize),
    /// Let the schedule breathe so workers observe the state.
    Pause,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..24).prop_map(Op::Submit),
        (1usize..24).prop_map(Op::Batch),
        (0usize..5).prop_map(Op::Resize),
        Just(Op::Pause),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random interleavings of submit / batch-submit / resize (through
    /// zero) / pause never lose or duplicate a task.
    #[test]
    fn random_submit_resize_interleavings_run_every_task_once(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        initial in 0usize..4,
    ) {
        let total: usize = ops
            .iter()
            .map(|op| match op {
                Op::Submit(n) | Op::Batch(n) => *n,
                _ => 0,
            })
            .sum();
        let pool = ResizablePool::new(initial);
        let ledger = Ledger::new(total);
        let mut next_id = 0;
        for op in &ops {
            match op {
                Op::Submit(n) => {
                    for _ in 0..*n {
                        pool.submit(ledger.task(next_id));
                        next_id += 1;
                    }
                }
                Op::Batch(n) => {
                    let tasks: Vec<Task> = (0..*n)
                        .map(|_| {
                            let t = ledger.task(next_id);
                            next_id += 1;
                            t
                        })
                        .collect();
                    pool.submit_batch(tasks);
                }
                Op::Resize(lp) => pool.set_target_workers(*lp),
                Op::Pause => std::thread::yield_now(),
            }
        }
        // Ensure someone is alive to drain, then wait for quiescence.
        pool.set_target_workers(1);
        pool.wait_idle();
        ledger.assert_exactly_once(total);
        prop_assert_eq!(pool.queued_tasks(), 0);
        pool.shutdown_and_join();
    }
}
