//! A dynamically resizable worker pool over a sharded, work-stealing
//! ready queue.
//!
//! The paper's self-optimization loop works by *changing the number of
//! threads allocated to a running skeleton*. Rayon-style pools fix their
//! size at construction, so this crate provides the substrate Skandium has
//! under the hood: a pool whose worker count can be raised and lowered
//! while tasks are in flight.
//!
//! Dispatch is sharded (`docs/ARCHITECTURE.md` has the full picture):
//!
//! * **Per-worker deques** — a task submitted from inside a worker (the
//!   engine's continuations) lands on that worker's own deque and is
//!   popped LIFO, so the most recently produced work runs next on a warm
//!   cache. Skandium's scheduler has the same discipline (§5 of the paper
//!   observes `split → all its executes → its merge` completing before
//!   sibling splits start), and the discrete-event simulator mirrors it.
//! * **Global injector** — external `submit`/`submit_batch` push onto a
//!   LIFO overflow stack; idle workers grab small batches from its top.
//! * **Work stealing** — a worker with nothing local and an empty
//!   injector steals the oldest half of another worker's deque (FIFO from
//!   the victim, so thieves pick up the work least likely to be
//!   cache-resident at the victim).
//! * **TLS next-task slot** — a task that produces exactly one
//!   continuation can hand it straight to the worker running it
//!   ([`ResizablePool::submit_next`]): the follow-on task runs
//!   immediately after the current one returns, bypassing the deque and
//!   the injector entirely. Under LIFO scheduling the newest submission
//!   would run next on that worker anyway, so the slot changes dispatch
//!   cost, not order; slot tasks stay visible to the exact accounting
//!   below and are drained (never dropped) across shrink and shutdown.
//! * **Parker-based sleep** — an idle worker registers itself as a
//!   sleeper and parks on its own one-token parker; submitters wake
//!   exactly as many sleepers as they queued tasks. There is no broadcast
//!   condvar and no thundering herd.
//!
//! Resize stays autonomic-correct under sharding:
//!
//! * **Immediate grow** — raising the target spawns workers right away;
//!   they participate in injector grabs and stealing from their first
//!   loop iteration, so an autonomic increase takes effect at the next
//!   ready task.
//! * **Cooperative shrink** — running tasks are never preempted; lowering
//!   the target lets surplus workers retire when they next reach the top
//!   of their loop. A retiring worker first drains its own deque back
//!   into the injector so no queued task is stranded. This is why the
//!   paper "does not reduce the LP as fast as it increases it".
//!
//! The pool keeps an exact count of queued tasks across the injector
//! *and* every worker deque, so [`ResizablePool::queued_tasks`] and
//! [`ResizablePool::wait_idle`] cannot miss work resident in a local
//! deque. [`PoolTelemetry`] carries those counters and, once
//! [`set_recording(true)`](PoolTelemetry::set_recording) asks for it, a
//! timestamped timeline of active-task counts and target changes (the
//! simulator always records one; the figure benches plot it directly).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod queue;
pub mod telemetry;

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Mutex, RwLock};

use askel_obs::{Counter, Gauge, Histogram, MetricsHub};
use askel_skeletons::{Clock, RealClock};

pub use askel_skeletons::TimelinePoint;
use queue::{Injector, Parker, Shard};
pub use telemetry::{telemetry_to_chrome, PoolTelemetry, TelemetrySample};

/// A unit of work for the pool.
pub type Task = Box<dyn FnOnce() + Send>;

/// The pool's dispatch-health metrics, registered on its
/// [`MetricsHub`] at construction (all zero-cost while the hub is
/// disabled, which is the default):
///
/// * `pool_steals_total` — successful steal batches (work migrated off
///   a busy worker).
/// * `pool_parks_total` — times a worker gave up spinning and parked.
/// * `pool_spin_rounds_total` — empty find-task rounds spent in the
///   spin-before-park window; together with `pool_parks_total` and the
///   wake-latency histogram this is what the spin window is tuned
///   against.
/// * `pool_wakes_total` — unparks issued by submitters and
///   torch-passing workers.
/// * `pool_wake_latency_ns` — histogram of unpark-signal → worker-
///   resumed latency (the futex round-trip the spin window tries to
///   avoid).
/// * `pool_queue_depth` — gauge of queued tasks, refreshed on every
///   submit.
struct PoolMetrics {
    steals: Counter,
    parks: Counter,
    spins: Counter,
    wakes: Counter,
    wake_latency: Histogram,
    queue_depth: Gauge,
}

impl PoolMetrics {
    fn register(hub: &MetricsHub) -> Self {
        PoolMetrics {
            steals: hub.counter("pool_steals_total"),
            parks: hub.counter("pool_parks_total"),
            spins: hub.counter("pool_spin_rounds_total"),
            wakes: hub.counter("pool_wakes_total"),
            wake_latency: hub.histogram("pool_wake_latency_ns"),
            queue_depth: hub.gauge("pool_queue_depth"),
        }
    }
}

/// Slow-path state: worker lifecycle and the sleeper registry.
///
/// Guarded by one mutex, but only touched on resize, retire, sleep and
/// wake transitions — never on the submit/pop fast path.
struct Coordinator {
    /// Desired number of workers (the LP).
    target: usize,
    /// Workers currently alive (idle or running).
    live: usize,
    /// Set once; workers drain out.
    shutdown: bool,
    /// Id for the next spawned worker's shard.
    next_worker_id: u64,
    /// Handles of every worker ever spawned (joined at shutdown).
    handles: Vec<JoinHandle<()>>,
    /// Parkers of workers currently asleep (or about to park).
    sleepers: Vec<Arc<Parker>>,
}

struct PoolInner {
    coord: Mutex<Coordinator>,
    /// Shards of currently registered workers (steal targets).
    shards: RwLock<Vec<Arc<Shard>>>,
    /// Overflow queue for external submissions.
    injector: Injector,
    /// Monotonic count of tasks ever submitted. Together with the
    /// telemetry's started/finished counters this gives exact queue
    /// accounting without a decrement on the pop fast path:
    /// `queued = submitted - started`, `idle = (submitted == finished)`.
    submitted: AtomicUsize,
    /// Tasks currently resident in some worker's TLS next-task slot.
    /// They are counted in `submitted` (so `queued_tasks`/`wait_idle`
    /// stay exact) but are invisible to other workers — only the
    /// depositing worker can run them — so the sleep protocol and the
    /// pass-the-torch checks subtract this count: otherwise an idle
    /// worker could never park while any slot was occupied (its park
    /// re-check would see phantom queued work and spin at 100% CPU for
    /// the duration of the depositor's current task).
    slotted: AtomicUsize,
    /// Mirror of `sleepers.len()` for the lock-free wake fast path.
    sleeping: AtomicUsize,
    /// Lock-free mirrors of the coordinator's lifecycle fields.
    target: AtomicUsize,
    live: AtomicUsize,
    shutdown: AtomicBool,
    telemetry: PoolTelemetry,
    clock: Arc<dyn Clock>,
    /// The metrics hub every layer sharing this pool registers onto.
    hub: Arc<MetricsHub>,
    metrics: PoolMetrics,
}

/// The worker this thread belongs to, if any; lets `submit` route tasks
/// produced on a worker straight to that worker's own deque and
/// [`ResizablePool::submit_next`] hand a continuation straight to the
/// worker itself.
struct CurrentWorker {
    /// Address of the owning pool's `PoolInner`, for identity checks.
    pool: usize,
    shard: Arc<Shard>,
    /// The TLS next-task slot: a task deposited here by `submit_next`
    /// runs on this worker immediately after the current task returns,
    /// without ever touching the deque or the injector. Holds at most
    /// one task; a second deposit spills the first to the deque so LIFO
    /// order ("most recent submission runs next") is preserved.
    next: Cell<Option<Task>>,
}

thread_local! {
    static CURRENT: RefCell<Option<CurrentWorker>> = const { RefCell::new(None) };
}

impl PoolInner {
    /// Identity of this pool for thread-local routing.
    fn addr(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Wakes up to `n` sleeping workers.
    fn wake(&self, n: usize) {
        if n == 0 || self.sleeping.load(Ordering::SeqCst) == 0 {
            return;
        }
        let popped = {
            let mut coord = self.coord.lock();
            let keep = coord.sleepers.len().saturating_sub(n);
            let popped = coord.sleepers.split_off(keep);
            self.sleeping.store(coord.sleepers.len(), Ordering::SeqCst);
            popped
        };
        // Wake-latency probe: one clock read covers the whole batch,
        // and none at all while metrics are off (as telemetry samples
        // read it only while recording). The stamp rides the parker;
        // the woken worker records the delta.
        let stamp = if self.hub.enabled() && !popped.is_empty() {
            self.clock.now().0.max(1)
        } else {
            0
        };
        self.metrics.wakes.add(popped.len() as u64);
        for p in popped {
            if stamp != 0 {
                p.stamp_wake(stamp);
            }
            p.unpark();
        }
    }

    /// Wakes every sleeping worker (resize and shutdown transitions).
    fn wake_all(&self) {
        self.wake(usize::MAX);
    }

    /// Refreshes the queue-depth gauge; one relaxed load and a branch
    /// while metrics are off, so the submit fast path stays clean.
    fn note_queue_depth(&self) {
        if self.hub.enabled() {
            let queued = self
                .submitted
                .load(Ordering::SeqCst)
                .saturating_sub(self.telemetry.tasks_started());
            self.metrics.queue_depth.set(queued as i64);
        }
    }

    /// Whether some submitted task has not been picked up yet.
    fn has_queued(&self) -> bool {
        self.telemetry.tasks_started() < self.submitted.load(Ordering::SeqCst)
    }

    /// Whether some not-yet-started task is visible to *other* workers
    /// (injector or any deque) — i.e. queued work excluding slot-resident
    /// tasks. This is what parking and torch-passing decisions use: a
    /// slot task never justifies keeping a peer awake, since only its
    /// depositor can run it (and the depositor is, by construction, a
    /// worker that is currently awake inside a task). Saturating because
    /// the three counters are read separately and `slotted` moves both
    /// ways; a transiently high read only costs one spurious pass.
    fn has_stealable(&self) -> bool {
        let accounted = self.telemetry.tasks_started() + self.slotted.load(Ordering::SeqCst);
        self.submitted.load(Ordering::SeqCst) > accounted
    }
}

/// A worker pool whose size can change while work is in flight.
///
/// Cloning shares the pool. Dropping the last handle shuts the pool down
/// and joins its workers.
pub struct ResizablePool {
    inner: Arc<PoolInner>,
    owner: bool,
}

impl Clone for ResizablePool {
    fn clone(&self) -> Self {
        ResizablePool {
            inner: Arc::clone(&self.inner),
            owner: false,
        }
    }
}

impl ResizablePool {
    /// Creates a pool with `workers` initial workers and a wall clock for
    /// telemetry timestamps.
    pub fn new(workers: usize) -> Self {
        Self::with_clock(workers, Arc::new(RealClock::new()))
    }

    /// Creates a pool with an explicit clock (tests use a manual clock).
    pub fn with_clock(workers: usize, clock: Arc<dyn Clock>) -> Self {
        let hub = MetricsHub::new();
        let metrics = PoolMetrics::register(&hub);
        let inner = Arc::new(PoolInner {
            coord: Mutex::new(Coordinator {
                target: 0,
                live: 0,
                shutdown: false,
                next_worker_id: 0,
                handles: Vec::new(),
                sleepers: Vec::new(),
            }),
            shards: RwLock::new(Vec::new()),
            injector: Injector::new(),
            submitted: AtomicUsize::new(0),
            slotted: AtomicUsize::new(0),
            sleeping: AtomicUsize::new(0),
            target: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            telemetry: PoolTelemetry::new(),
            clock,
            hub,
            metrics,
        });
        let pool = ResizablePool { inner, owner: true };
        pool.set_target_workers(workers);
        pool
    }

    /// Submits one task. Panics in the task are caught and recorded in the
    /// telemetry; they never kill a worker.
    ///
    /// Called from a worker thread of this pool, the task goes to that
    /// worker's own deque (and runs next, LIFO); called from anywhere
    /// else it goes to the global injector.
    pub fn submit(&self, task: Task) {
        // Reserve the submitted slot *before* checking shutdown: workers
        // only exit once `shutdown && started == submitted`, so after
        // this increment they cannot all drain away between the check
        // and the push below. If shutdown already happened, roll the
        // reservation back and panic like the old lock-guarded assert.
        self.inner.submitted.fetch_add(1, Ordering::SeqCst);
        if self.inner.shutdown.load(Ordering::SeqCst) {
            self.inner.submitted.fetch_sub(1, Ordering::SeqCst);
            panic!("submit on a shut-down pool");
        }
        let addr = self.inner.addr();
        let overflow = CURRENT.with(|c| match &*c.borrow() {
            Some(w) if w.pool == addr => {
                w.shard.push(task);
                None
            }
            _ => Some(task),
        });
        if let Some(task) = overflow {
            self.inner.injector.push(task);
        }
        self.inner.note_queue_depth();
        self.inner.wake(1);
    }

    /// Submits a task as the calling worker's *next* task: it is placed
    /// in the worker's TLS next-task slot and runs on this worker
    /// immediately after the current task returns, without touching the
    /// deque or the injector (and without waking anyone — the runner is
    /// the caller itself).
    ///
    /// This is the handoff for single-continuation chains (pipe stages,
    /// while/for iterations, a fan-out's merge): under LIFO scheduling
    /// the most recent submission would run next on this worker anyway,
    /// so the slot changes only the cost, not the order. If the slot is
    /// already occupied, the older occupant spills to the worker's deque
    /// (where, as the deque's newest task, it still runs right after the
    /// slot drains — exactly the pure-LIFO order).
    ///
    /// Called from outside the pool's workers this is a plain
    /// [`submit`](Self::submit).
    ///
    /// Slot tasks count in `submitted`/`started`/`finished` like any
    /// other task, so [`queued_tasks`](Self::queued_tasks) sees a
    /// deposited-but-not-started slot task and
    /// [`wait_idle`](Self::wait_idle) cannot return while one is
    /// pending. A retiring
    /// or shutting-down worker never strands its slot: the drain loop
    /// pushes the occupant back onto the deque first, and the retire
    /// path drains the deque to the injector.
    pub fn submit_next(&self, task: Task) {
        // Same reserve-then-check dance as `submit`: see the comment there.
        self.inner.submitted.fetch_add(1, Ordering::SeqCst);
        if self.inner.shutdown.load(Ordering::SeqCst) {
            self.inner.submitted.fetch_sub(1, Ordering::SeqCst);
            panic!("submit on a shut-down pool");
        }
        let addr = self.inner.addr();
        let (overflow, spilled) = CURRENT.with(|c| match &*c.borrow() {
            Some(w) if w.pool == addr => {
                let spilled = match w.next.replace(Some(task)) {
                    // Spill the older occupant to the deque; the newest
                    // submission keeps the slot (LIFO order preserved).
                    // The spilled task is stealable, so a peer gets a
                    // wake for it like any worker-local submit. Net
                    // slot residency is unchanged (one left, one
                    // entered), so `slotted` moves only on a first
                    // deposit.
                    Some(prev) => {
                        w.shard.push(prev);
                        true
                    }
                    None => {
                        self.inner.slotted.fetch_add(1, Ordering::SeqCst);
                        false
                    }
                };
                (None, spilled)
            }
            _ => (Some(task), false),
        });
        let wake = overflow.is_some() || spilled;
        if let Some(task) = overflow {
            self.inner.injector.push(task);
        }
        self.inner.note_queue_depth();
        if wake {
            self.inner.wake(1);
        }
    }

    /// Batch submission: one queue-lock acquisition, then wakes as many
    /// sleeping workers as there are new tasks. The tasks are stacked in
    /// order, so the *last* one is picked up first (LIFO).
    pub fn submit_batch(&self, tasks: Vec<Task>) {
        if tasks.is_empty() {
            return;
        }
        let n = tasks.len();
        // Same reserve-then-check dance as `submit`: see the comment there.
        self.inner.submitted.fetch_add(n, Ordering::SeqCst);
        if self.inner.shutdown.load(Ordering::SeqCst) {
            self.inner.submitted.fetch_sub(n, Ordering::SeqCst);
            panic!("submit on a shut-down pool");
        }
        let addr = self.inner.addr();
        let overflow = CURRENT.with(|c| match &*c.borrow() {
            Some(w) if w.pool == addr => {
                w.shard.push_batch(tasks);
                None
            }
            _ => Some(tasks),
        });
        if let Some(tasks) = overflow {
            self.inner.injector.push_batch(tasks);
        }
        self.inner.note_queue_depth();
        self.inner.wake(n);
    }

    /// Whether the calling thread is one of this pool's workers.
    ///
    /// Engines use this to decide between running a continuation inline
    /// (safe only inside a worker, where the task is already counted)
    /// and submitting it.
    pub fn on_worker_thread(&self) -> bool {
        let addr = self.inner.addr();
        CURRENT.with(|c| matches!(&*c.borrow(), Some(w) if w.pool == addr))
    }

    /// Changes the desired worker count (the skeleton's LP).
    ///
    /// Growth spawns workers immediately; they steal and grab from the
    /// injector from their first iteration. Shrink lets surplus workers
    /// retire when they next go idle (running tasks finish undisturbed),
    /// and a retiring worker drains its deque back into the injector.
    pub fn set_target_workers(&self, target: usize) {
        let mut coord = self.inner.coord.lock();
        if coord.shutdown {
            return;
        }
        if target != coord.target {
            self.inner
                .telemetry
                .record_target(|| self.inner.clock.now(), target);
        }
        let shrinking = target < coord.target;
        coord.target = target;
        self.inner.target.store(target, Ordering::SeqCst);
        while coord.live < target {
            coord.live += 1;
            self.inner.live.store(coord.live, Ordering::SeqCst);
            let id = coord.next_worker_id;
            coord.next_worker_id += 1;
            let shard = Arc::new(Shard::new(id));
            self.inner.shards.write().push(Arc::clone(&shard));
            let inner = Arc::clone(&self.inner);
            let handle = std::thread::Builder::new()
                .name("askel-worker".to_string())
                .spawn(move || worker_loop(inner, shard))
                .expect("failed to spawn pool worker");
            coord.handles.push(handle);
        }
        drop(coord);
        if shrinking {
            // Wake idle workers so surplus ones notice and retire.
            self.inner.wake_all();
        }
    }

    /// The current worker target (the LP the controller last requested).
    pub fn target_workers(&self) -> usize {
        self.inner.target.load(Ordering::SeqCst)
    }

    /// Tasks currently queued (not yet picked up), counting the injector,
    /// every worker-local deque, *and* any occupied next-task slot.
    pub fn queued_tasks(&self) -> usize {
        self.inner
            .submitted
            .load(Ordering::SeqCst)
            .saturating_sub(self.inner.telemetry.tasks_started())
    }

    /// A cheap, slightly-stale read of [`queued_tasks`](Self::queued_tasks)
    /// for hot admission paths: both counters are loaded `Relaxed`, so
    /// the value can lag concurrent submits and pick-ups by a few
    /// tasks. Admission gates that sample the depth once per ingress
    /// batch (the serve layer's latency gate) want exactly this trade:
    /// the gate is already coarse-grained by design, and the two `SeqCst`
    /// loads of the exact read are measurable at ~1 µs/item ingress
    /// budgets. Never use this for
    /// quiescence proofs — [`wait_idle`](Self::wait_idle) and
    /// [`queued_tasks`](Self::queued_tasks) stay exact.
    pub fn queue_depth_hint(&self) -> usize {
        self.inner
            .submitted
            .load(Ordering::Relaxed)
            .saturating_sub(self.inner.telemetry.tasks_started_hint())
    }

    /// The pool's telemetry (shared).
    pub fn telemetry(&self) -> &PoolTelemetry {
        &self.inner.telemetry
    }

    /// The pool's metrics hub (disabled by default; flip it with
    /// [`MetricsHub::set_enabled`]). Every layer sharing this pool —
    /// engine, serve registry, trigger engine — registers its metrics
    /// here, so one `snapshot()` covers the whole stack.
    pub fn metrics_hub(&self) -> &Arc<MetricsHub> {
        &self.inner.hub
    }

    /// The pool's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// Blocks until no task is queued anywhere (injector or any worker
    /// deque) and no task is running.
    ///
    /// Only meaningful when no concurrent submitter keeps adding work that
    /// the caller doesn't know about; the engine uses futures instead, this
    /// is a convenience for tests and benches.
    pub fn wait_idle(&self) {
        let mut spins = 0u32;
        loop {
            // Both counters are monotonic and `finished <= submitted`
            // always holds, so reading `finished` *first* makes equality
            // a proof of quiescence: at the moment `submitted` is read,
            // finished' >= finished = submitted >= submitted' implies
            // every task submitted so far (including tasks spawned by
            // tasks, and any task currently in a worker's hands) has
            // finished. No lock and no queue inspection needed.
            let finished = self.inner.telemetry.tasks_finished();
            if self.inner.submitted.load(Ordering::SeqCst) == finished {
                return;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else if spins < 256 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }

    /// Shuts the pool down: running tasks finish, queued tasks are
    /// executed, then workers exit and are joined.
    pub fn shutdown_and_join(&self) {
        let handles = {
            let mut coord = self.inner.coord.lock();
            if coord.shutdown {
                Vec::new()
            } else {
                coord.shutdown = true;
                self.inner.shutdown.store(true, Ordering::SeqCst);
                std::mem::take(&mut coord.handles)
            }
        };
        self.inner.wake_all();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ResizablePool {
    fn drop(&mut self) {
        if self.owner {
            self.shutdown_and_join();
        }
    }
}

/// Looks for a ready task: own deque first (LIFO), then a batch off the
/// injector, then stealing the oldest half of another worker's deque.
///
/// On success, if work remains queued, one more sleeper is woken — the
/// "pass the torch" scheme: submitters wake at most one worker per
/// submission and each worker that finds work recruits the next, so a
/// burst fans the whole pool out without a thundering herd, and the
/// wake check is a single atomic load once everyone is awake.
fn find_task(inner: &Arc<PoolInner>, shard: &Arc<Shard>) -> Option<Task> {
    let task = shard.pop().or_else(|| {
        let mut batch = inner.injector.grab_batch();
        if batch.is_empty() {
            batch = steal(inner, shard);
        }
        let task = batch.pop();
        shard.push_batch(batch);
        task
    })?;
    inner.telemetry.record_task_start(|| inner.clock.now());
    if inner.has_stealable() {
        inner.wake(1);
    }
    Some(task)
}

/// Executes one picked-up task whose start has already been recorded,
/// recording its end. Panics are caught and counted; they never kill the
/// worker.
fn run_task(inner: &Arc<PoolInner>, task: Task) {
    let result = catch_unwind(AssertUnwindSafe(task));
    inner
        .telemetry
        .record_task_end(|| inner.clock.now(), result.is_err());
}

/// Runs the chain of tasks deposited in this worker's TLS next-task slot
/// (see [`ResizablePool::submit_next`]): each completed task may hand the
/// worker its continuation, which runs immediately — no deque, no
/// injector, no wake.
///
/// Every link is recorded in `started`/`finished` exactly like a queued
/// task, so `queued_tasks`/`wait_idle` stay exact, and the torch is
/// passed exactly as in [`find_task`] (the check runs *after* the link is
/// marked started, so the link itself never triggers a spurious wake).
/// Between links the worker re-checks shutdown and shrink: if it has to
/// stop, the pending link goes back onto its deque — from where the
/// retire path drains it to the injector — so a retiring worker never
/// strands its slot.
fn drain_next_slot(inner: &Arc<PoolInner>, shard: &Arc<Shard>) {
    loop {
        let next = CURRENT.with(|c| c.borrow().as_ref().and_then(|w| w.next.take()));
        let Some(task) = next else {
            return;
        };
        // The task leaves the slot either way below (run now, or pushed
        // back to the deque where it is visible to thieves again).
        inner.slotted.fetch_sub(1, Ordering::SeqCst);
        if inner.shutdown.load(Ordering::SeqCst)
            || inner.live.load(Ordering::SeqCst) > inner.target.load(Ordering::SeqCst)
        {
            shard.push(task);
            return;
        }
        inner.telemetry.record_task_start(|| inner.clock.now());
        if inner.has_stealable() {
            inner.wake(1);
        }
        run_task(inner, task);
    }
}

/// Steals a batch from some other registered shard, trying victims in a
/// ring starting after this worker's own position.
///
/// The returned batch is oldest-first; the caller pops its *back* (the
/// newest stolen task) and keeps the rest.
fn steal(inner: &Arc<PoolInner>, shard: &Arc<Shard>) -> Vec<Task> {
    let shards = inner.shards.read();
    let n = shards.len();
    if n == 0 {
        return Vec::new();
    }
    let me = shards
        .iter()
        .position(|s| s.id() == shard.id())
        .unwrap_or(0);
    for k in 1..=n {
        let victim = &shards[(me + k) % n];
        if victim.id() == shard.id() {
            continue;
        }
        let batch = victim.steal_batch();
        if !batch.is_empty() {
            inner.metrics.steals.inc();
            return batch;
        }
    }
    Vec::new()
}

/// Removes `parker` from the sleeper registry (all copies), if present.
///
/// Workers call this whenever they abandon a registration while awake,
/// preserving the registry invariant "in `sleepers` ⟹ parked or about
/// to park" that `wake` relies on.
fn deregister_sleeper(inner: &PoolInner, parker: &Arc<Parker>) {
    let mut coord = inner.coord.lock();
    coord.sleepers.retain(|p| !Arc::ptr_eq(p, parker));
    inner.sleeping.store(coord.sleepers.len(), Ordering::SeqCst);
}

/// Unregisters `shard` and drains any tasks it still holds back into the
/// injector (the shrink drain protocol), waking workers to pick them up.
fn retire_shard(inner: &Arc<PoolInner>, shard: &Arc<Shard>) {
    inner.shards.write().retain(|s| s.id() != shard.id());
    let mut orphans = shard.drain_all();
    // The drain loop empties the TLS slot before any retire, but belt and
    // braces: a task still in the slot joins the orphans instead of being
    // dropped with the thread-local.
    let slot = CURRENT.with(|c| c.borrow().as_ref().and_then(|w| w.next.take()));
    if slot.is_some() {
        inner.slotted.fetch_sub(1, Ordering::SeqCst);
    }
    orphans.extend(slot);
    if !orphans.is_empty() {
        let n = orphans.len();
        inner.injector.push_batch(orphans);
        inner.wake(n);
    }
    CURRENT.with(|c| c.borrow_mut().take());
}

fn worker_loop(inner: Arc<PoolInner>, shard: Arc<Shard>) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(CurrentWorker {
            pool: inner.addr(),
            shard: Arc::clone(&shard),
            next: Cell::new(None),
        });
    });
    let parker = Arc::new(Parker::new());
    // Bounded spin-before-park: how many empty find_task rounds this
    // worker tolerates (first busy-spinning, then yielding) before it
    // registers as a sleeper and parks. Fan-out-heavy workloads submit
    // work in quick pulses; a worker that naps through the gap instead
    // of parking skips a futex wake on the submitter *and* a futex wait
    // on itself for the next pulse. Bounded, so an idle pool still
    // parks (no spinning herd), and every round re-checks the
    // retire/shutdown conditions at the top of the loop.
    // Chosen by measurement on the engine-throughput benches (fan-out
    // pulses land well within the window).
    const SPIN_ROUNDS: u32 = 256;
    let mut idle_rounds = 0u32;
    loop {
        // Retire if surplus (confirmed under the coordinator lock so
        // exactly `live - target` workers retire).
        if inner.live.load(Ordering::SeqCst) > inner.target.load(Ordering::SeqCst) {
            let mut coord = inner.coord.lock();
            if coord.live > coord.target {
                coord.live -= 1;
                inner.live.store(coord.live, Ordering::SeqCst);
                drop(coord);
                retire_shard(&inner, &shard);
                return;
            }
        }
        // Exit once shutdown is requested and nothing is queued anywhere.
        if inner.shutdown.load(Ordering::SeqCst) && !inner.has_queued() {
            let mut coord = inner.coord.lock();
            coord.live -= 1;
            inner.live.store(coord.live, Ordering::SeqCst);
            drop(coord);
            retire_shard(&inner, &shard);
            return;
        }
        if let Some(task) = find_task(&inner, &shard) {
            idle_rounds = 0;
            run_task(&inner, task);
            drain_next_slot(&inner, &shard);
            continue;
        }
        idle_rounds += 1;
        inner.metrics.spins.inc();
        if idle_rounds < SPIN_ROUNDS {
            if idle_rounds < 4 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        idle_rounds = 0;
        // Sleep protocol: register as a sleeper *first*, then re-check
        // for work/lifecycle changes, then park. A submitter increments
        // `submitted` before it reads `sleeping` (both SeqCst), so
        // either it sees this registration and wakes someone, or the
        // re-check below sees the new task — a wakeup is never lost.
        {
            let mut coord = inner.coord.lock();
            if coord.shutdown || coord.live > coord.target {
                continue;
            }
            coord.sleepers.push(Arc::clone(&parker));
            inner.sleeping.store(coord.sleepers.len(), Ordering::SeqCst);
        }
        if inner.has_stealable()
            || inner.shutdown.load(Ordering::SeqCst)
            || inner.live.load(Ordering::SeqCst) > inner.target.load(Ordering::SeqCst)
        {
            // Something arrived between registering and parking: cancel
            // the registration and go around again. A waker may have
            // popped us concurrently and left the parker token set; the
            // unconditional deregistration after `park()` below keeps
            // that stale token harmless.
            deregister_sleeper(&inner, &parker);
            // A waker that popped us concurrently may have stamped the
            // wake-latency probe; drop it so a later park doesn't
            // attribute this whole awake stretch to the futex.
            parker.take_wake_stamp();
            std::thread::yield_now();
            continue;
        }
        inner.metrics.parks.inc();
        parker.park();
        // Wake-latency probe: `wake` stamped its clock reading on the
        // parker just before the unpark; the delta to now is the futex
        // round-trip the spin-before-park window is tuned against. No
        // clock read unless a stamp was actually deposited (metrics on).
        let stamp = parker.take_wake_stamp();
        if stamp != 0 {
            inner
                .metrics
                .wake_latency
                .record(inner.clock.now().0.saturating_sub(stamp));
        }
        // Deregister unconditionally before continuing, restoring the
        // invariant "in `sleepers` ⟹ parked or about to park". After a
        // genuine wake the waker already popped the registration and
        // this is a no-op, but a stale token (deposited by a waker that
        // popped us while we took the cancel path above) makes `park`
        // return instantly with the fresh registration still in place.
        // Left there, the entry would go stale the moment this worker
        // picks up a task: a later `wake(1)` could pop it and unpark an
        // already-busy worker while a real sleeper stays parked with
        // work queued — a stall that pass-the-torch cannot recover from.
        deregister_sleeper(&inner, &parker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_submitted_tasks() {
        let pool = ResizablePool::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(Box::new(move || tx.send(i).unwrap()));
        }
        let mut got: Vec<i32> = (0..10)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        pool.shutdown_and_join();
    }

    #[test]
    fn single_worker_executes_lifo() {
        let pool = ResizablePool::new(0); // hold tasks until a worker exists
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let order = Arc::clone(&order);
            pool.submit(Box::new(move || order.lock().push(i)));
        }
        pool.set_target_workers(1);
        pool.wait_idle();
        assert_eq!(*order.lock(), vec![4, 3, 2, 1, 0]);
        pool.shutdown_and_join();
    }

    #[test]
    fn worker_local_spawns_run_lifo_before_injected_work() {
        // A task spawned from a worker goes to that worker's deque and
        // runs before older injected work (the engine's split → executes
        // → merge discipline).
        let pool = ResizablePool::new(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let p2 = pool.clone();
        pool.submit(Box::new(move || {
            o.lock().push("parent");
            let o2 = Arc::clone(&o);
            p2.submit(Box::new(move || o2.lock().push("child")));
        }));
        let o = Arc::clone(&order);
        pool.submit(Box::new(move || o.lock().push("other")));
        pool.set_target_workers(1);
        pool.wait_idle();
        // LIFO: "other" was submitted last, so it runs first; then
        // "parent", whose locally spawned "child" runs before anything
        // else could (had more injected work existed).
        assert_eq!(*order.lock(), vec!["other", "parent", "child"]);
        pool.shutdown_and_join();
    }

    #[test]
    fn grow_takes_effect_immediately() {
        let pool = ResizablePool::new(1);
        assert_eq!(pool.target_workers(), 1);
        pool.set_target_workers(4);
        assert_eq!(pool.target_workers(), 4);
        assert_eq!(pool.inner.live.load(Ordering::SeqCst), 4);
        pool.shutdown_and_join();
    }

    #[test]
    fn shrink_drains_cooperatively() {
        let pool = ResizablePool::new(4);
        pool.set_target_workers(1);
        // Give workers a moment to observe the new target.
        for _ in 0..200 {
            if pool.inner.live.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.inner.live.load(Ordering::SeqCst), 1);
        // The surviving worker still runs tasks.
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(move || tx.send(()).unwrap()));
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        pool.shutdown_and_join();
    }

    #[test]
    fn running_tasks_survive_shrink() {
        let pool = ResizablePool::new(2);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            d.fetch_add(1, Ordering::SeqCst);
        }));
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        pool.set_target_workers(0); // shrink below the running task
        release_tx.send(()).unwrap();
        for _ in 0..200 {
            if done.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(done.load(Ordering::SeqCst), 1, "running task must finish");
        pool.shutdown_and_join();
    }

    #[test]
    fn panicking_task_does_not_kill_worker() {
        let pool = ResizablePool::new(1);
        pool.submit(Box::new(|| panic!("muscle failure")));
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(move || tx.send(42).unwrap()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
        pool.wait_idle(); // LIFO may run the ok-task before the panicking one
        assert_eq!(pool.telemetry().panics(), 1);
        pool.shutdown_and_join();
    }

    #[test]
    fn tasks_spawning_tasks_complete() {
        let pool = ResizablePool::new(2);
        let (tx, rx) = mpsc::channel();
        let p2 = pool.clone();
        pool.submit(Box::new(move || {
            let tx2 = tx.clone();
            p2.submit(Box::new(move || tx2.send("child").unwrap()));
            tx.send("parent").unwrap();
        }));
        let mut got = vec![
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec!["child", "parent"]);
        pool.shutdown_and_join();
    }

    #[test]
    fn queued_tasks_run_before_shutdown_completes() {
        let pool = ResizablePool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let d = Arc::clone(&done);
            pool.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(1));
                d.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown_and_join();
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn submit_batch_runs_everything() {
        let pool = ResizablePool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Task> = (0..100)
            .map(|_| {
                let d = Arc::clone(&done);
                Box::new(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                }) as Task
            })
            .collect();
        pool.submit_batch(tasks);
        pool.wait_idle();
        assert_eq!(done.load(Ordering::SeqCst), 100);
        pool.shutdown_and_join();
    }

    #[test]
    fn queued_counts_worker_local_tasks() {
        // Park the only worker inside a task that has already spawned
        // children into its local deque: queued_tasks must see them.
        let pool = ResizablePool::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let p2 = pool.clone();
        pool.submit(Box::new(move || {
            for _ in 0..5 {
                p2.submit(Box::new(|| {}));
            }
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }));
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(pool.queued_tasks(), 5, "local-deque tasks are queued");
        release_tx.send(()).unwrap();
        pool.wait_idle();
        assert_eq!(pool.queued_tasks(), 0);
        pool.shutdown_and_join();
    }

    #[test]
    fn peers_can_park_while_a_slot_is_occupied() {
        // A deposited slot task is invisible to other workers, so it
        // must not keep them awake: while the depositor blocks inside
        // its current task, the idle peer has to get through its park
        // re-check (slot tasks are subtracted from the stealable count)
        // and actually register as a sleeper. With the phantom-work bug
        // the peer cancels every park attempt and spins at 100% CPU
        // until the depositor's task ends.
        let pool = ResizablePool::new(2);
        let (deposited_tx, deposited_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let p2 = pool.clone();
        pool.submit(Box::new(move || {
            p2.submit_next(Box::new(|| {}));
            deposited_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }));
        deposited_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let parked = (0..1000).any(|_| {
            if pool.inner.sleeping.load(Ordering::SeqCst) >= 1 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
            false
        });
        assert!(
            parked,
            "idle peer never parked while a slot task was deposited"
        );
        release_tx.send(()).unwrap();
        pool.wait_idle();
        pool.shutdown_and_join();
    }

    #[test]
    fn metrics_disabled_by_default_and_record_nothing() {
        let pool = ResizablePool::new(2);
        assert!(!pool.metrics_hub().enabled());
        let (tx, rx) = mpsc::channel();
        for i in 0..50 {
            let tx = tx.clone();
            pool.submit(Box::new(move || tx.send(i).unwrap()));
        }
        for _ in 0..50 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        pool.wait_idle();
        let snap = pool.metrics_hub().snapshot();
        assert_eq!(snap.counter("pool_wakes_total"), Some(0));
        assert_eq!(snap.counter("pool_parks_total"), Some(0));
        assert_eq!(snap.counter("pool_spin_rounds_total"), Some(0));
        assert_eq!(snap.gauge("pool_queue_depth"), Some(0));
        assert_eq!(
            snap.histogram("pool_wake_latency_ns").map(|h| h.count()),
            Some(0)
        );
        pool.shutdown_and_join();
    }

    #[test]
    fn enabled_metrics_observe_parks_and_wakes() {
        let pool = ResizablePool::new(2);
        pool.metrics_hub().set_enabled(true);
        // Let both workers run out of work and park, then wake them.
        for round in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            let (tx, rx) = mpsc::channel();
            for i in 0..8 {
                let tx = tx.clone();
                pool.submit(Box::new(move || tx.send(round * 100 + i).unwrap()));
            }
            for _ in 0..8 {
                rx.recv_timeout(Duration::from_secs(5)).unwrap();
            }
        }
        pool.wait_idle();
        let snap = pool.metrics_hub().snapshot();
        let wakes = snap.counter("pool_wakes_total").unwrap();
        assert!(wakes > 0, "submitters must have woken parked workers");
        let lat = snap.histogram("pool_wake_latency_ns").unwrap();
        assert!(
            lat.count() > 0,
            "woken workers must have recorded wake latency"
        );
        assert!(lat.max() > 0, "wake latency is a real duration");
        pool.shutdown_and_join();
    }

    #[test]
    fn telemetry_peak_tracks_concurrency() {
        let pool = ResizablePool::new(3);
        let (ready_tx, ready_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        for _ in 0..3 {
            let ready = ready_tx.clone();
            let release = Arc::clone(&release_rx);
            pool.submit(Box::new(move || {
                ready.send(()).unwrap();
                release.lock().recv().unwrap();
            }));
        }
        for _ in 0..3 {
            ready_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(pool.telemetry().active_now(), 3);
        for _ in 0..3 {
            release_tx.send(()).unwrap();
        }
        pool.wait_idle();
        assert_eq!(pool.telemetry().peak_active(), 3);
        pool.shutdown_and_join();
    }
}
