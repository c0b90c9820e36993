//! The threaded runtime: the shared skeleton interpreter
//! ([`askel_events::interp`]) over the work-stealing pool.
//!
//! What a step does — which muscle it calls, which events it raises, in
//! what order — is the interpreter's business and is the same code the
//! simulator runs. This module is only where and when: it implements
//! [`Runtime`] for one submission on real threads.
//!
//! * every step body (muscle + listeners + continuation) runs under
//!   [`ThreadRt::guarded`]: a panic poisons the submission and
//!   short-circuits its remaining steps — the root's scheduling on the
//!   submitting thread (a structural root's opening events) included;
//! * [`Hint::Run`] steps (pipe stages, while/for iterations, a fan-out's
//!   last child, the merge its closing child spawns) run **inline in the
//!   current task** with no closure box and no dispatch while the depth
//!   cap allows, then via the pool's TLS next-task slot
//!   (`ResizablePool::submit_next`) — one trip through the worker loop
//!   that resets the stack — and from non-worker threads (the initial
//!   submission) as a plain pool submit. Steady-state chains therefore
//!   touch neither deque nor injector (see `docs/ARCHITECTURE.md`);
//! * a fan-out's other children go to the pool for thieves: one direct
//!   submit for the binary d&C case ([`Hint::Submit`]), one batch — one
//!   queue-lock acquisition, one wake-up sweep — for wider splits
//!   ([`Hint::Batch`]);
//! * muscles are not metered and placement tags are ignored.
//!
//! The listener set is sampled when the submission is made (the rule is
//! stated once, in [`askel_events::interp`]): [`SubCtx::listeners`] is the
//! view taken then, and an event dispatches through it for as long as the
//! registry's generation stands.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use askel_events::interp::{self, panic_message, BoxedCont, Fault, Hint, Runtime};
use askel_events::{
    Event, EventInfo, ListenerRegistry, ListenerSnapshot, Payload, Trace, When, Where,
};
use askel_pool::{ResizablePool, Task};
use askel_skeletons::{Clock, Data, InstanceId, MuscleId, Node, Skel, TimeNs};

use crate::error::EngineError;
use crate::future::{pair, SkelFuture};
use crate::metrics::SpanProbe;
use crate::Engine;

/// Per-submission context: engine services plus the poisoning machinery.
struct SubCtx {
    pool: ResizablePool,
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    /// The listeners registered when this submission started, taken once
    /// at submit time; `None` when there were none, and then the
    /// interpreter skips the whole event path — instance ids, trace
    /// extension (an allocation per scheduled node) and emission — for
    /// the submission's lifetime. Events dispatch through this view, so a
    /// worker emitting one touches nothing another worker writes (see
    /// [`ThreadRt::emit`]).
    listeners: Option<Arc<ListenerSnapshot>>,
    /// The stand-in trace every instance of an unobserved submission
    /// shares. Allocated at submit whether or not it will be used, as it
    /// always was: how many allocations a submission makes on the
    /// submitting thread is what `serve_burst`'s shard-lock convoy is
    /// balanced on (CHANGES.md, PR 13).
    empty_trace: Trace,
    /// Span probe for the metrics hub, sampled once at submit time like
    /// `listeners`: `None` whenever the hub was disabled, making every
    /// per-step check a plain discriminant test.
    span: Option<SpanProbe>,
    failed: AtomicBool,
    fail_fn: Box<dyn Fn(EngineError) + Send + Sync>,
}

impl SubCtx {
    fn fail(&self, err: EngineError) {
        self.failed.store(true, Ordering::SeqCst);
        if let Some(span) = &self.span {
            span.finish(&*self.clock);
        }
        (self.fail_fn)(err); // the promise keeps only the first resolution
    }
}

/// One task's handle on its submission: what the interpreter sees as the
/// runtime. Each pool task owns one (the `Arc` bump a task always paid);
/// inline steps borrow their caller's.
struct ThreadRt {
    ctx: Arc<SubCtx>,
    /// The timestamp of the event this task raised last, while no `emit`
    /// since has gone by without raising one (see [`ThreadRt::emit`]).
    last_raised: Option<TimeNs>,
}

impl ThreadRt {
    fn new(ctx: Arc<SubCtx>) -> Self {
        ThreadRt {
            ctx,
            last_raised: None,
        }
    }

    /// Runs a step now: short-circuits if the submission is poisoned,
    /// poisons it if the body panics. The guard both inline execution
    /// and pool tasks run under — a step behaves identically wherever
    /// it executes.
    fn guarded(&mut self, f: impl FnOnce(&mut ThreadRt)) {
        if self.ctx.failed.load(Ordering::SeqCst) {
            return;
        }
        if let Some(span) = &self.ctx.span {
            span.note_start(&*self.ctx.clock);
        }
        self.caught(f);
    }

    /// The panic half of [`guarded`](ThreadRt::guarded) alone. [`submit`]
    /// schedules its root under this on the caller's thread; the span's
    /// first pickup stays the first *worker's*.
    fn caught(&mut self, f: impl FnOnce(&mut ThreadRt)) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(self))) {
            self.ctx
                .fail(EngineError::MusclePanic(panic_message(p.as_ref())));
        }
    }

    /// Wraps a step into a guarded pool task.
    fn task(&self, f: impl FnOnce(&mut ThreadRt) + Send + 'static) -> Task {
        let mut rt = ThreadRt::new(Arc::clone(&self.ctx));
        Box::new(move || rt.guarded(f))
    }
}

/// How deep inline continuation execution may nest on one worker before
/// deferring to the pool's next-task slot. Balanced d&C recursions stay
/// logarithmic and never get near this; the cap keeps degenerate shapes
/// (a one-element-per-level split, a long while/pipe chain) from
/// growing the worker's stack without bound — past it, the chain takes
/// one slot round-trip through the worker loop and the depth resets.
const MAX_INLINE_DEPTH: usize = 64;

thread_local! {
    /// Current inline nesting depth on this thread.
    static INLINE_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Runtime for ThreadRt {
    type Cost = ();
    type Batch = Vec<Task>;
    const METERED: bool = false;

    fn unobserved(&self) -> Option<Trace> {
        match self.ctx.listeners {
            Some(_) => None,
            None => Some(self.ctx.empty_trace.clone()),
        }
    }

    /// Timestamps: every event reads the clock, except a
    /// [`Where::NestedSkeleton`] one raised right after another event of
    /// the same task, which carries that event's timestamp. The
    /// interpreter raises a nesting event next to the `Skeleton`, `Split`
    /// or `Condition` event that caused it with no muscle in between, so
    /// the two are one instant — as they are on the simulator's virtual
    /// clock — and a listener that keys on `(state, now)`, like the
    /// controller's analysis memo, sees them as such.
    fn emit(
        &mut self,
        node: &Node,
        trace: &Trace,
        index: InstanceId,
        when: When,
        wher: Where,
        info: EventInfo,
        payload: &mut Payload<'_>,
    ) {
        // Whatever returns early below raised nothing: the next nesting
        // event may then follow a muscle, and reads the clock.
        let last_raised = self.last_raised.take();
        let ctx = &*self.ctx;
        let Some(taken) = &ctx.listeners else {
            return;
        };
        // One Acquire load of a line that is only written when a listener
        // is added or removed. While it has not moved, dispatch goes
        // through the view taken at submit: no lock, no allocation, no
        // reference count. Once it has, every event of this submission
        // re-reads the registry, so listeners added or removed mid-item
        // take effect at the next event, as they always did.
        let fresh;
        let listeners = if ctx.registry.generation() == taken.generation() {
            taken
        } else {
            let Some(now) = ctx.registry.snapshot() else {
                return;
            };
            fresh = now;
            &fresh
        };
        // A position nobody wants costs nothing further: no clock read,
        // no trace clone, no event.
        if !listeners.interest().contains(when, wher) {
            return;
        }
        let timestamp = match last_raised {
            Some(at) if wher == Where::NestedSkeleton => at,
            _ => ctx.clock.now(),
        };
        let event = Event {
            node: node.id,
            kind: node.tag(),
            when,
            wher,
            index,
            trace: trace.clone(),
            timestamp,
            info,
        };
        listeners.dispatch(payload, &event);
        self.last_raised = Some(timestamp);
    }

    /// [`Hint::Run`] executes the step **inline in the current task** when
    /// the calling thread is a pool worker and the depth cap allows —
    /// guarded, but with no closure box and no dispatch — and otherwise
    /// boxes it and defers to the pool ([`ResizablePool::submit_next`]:
    /// the worker's TLS slot on a worker, a plain submit elsewhere — the
    /// latter keeps `Engine::submit` non-blocking on the caller's thread).
    ///
    /// Inline execution behaves exactly like pool execution: the same
    /// poison short-circuit and panic guard apply, and the enclosing pool
    /// task is still running, so `wait_idle` cannot miss it.
    fn spawn(
        &mut self,
        _placement: Option<Arc<str>>,
        hint: Hint<'_, Vec<Task>>,
        step: impl FnOnce(&mut Self) + Send + 'static,
    ) {
        match hint {
            Hint::Run => {
                if self.ctx.pool.on_worker_thread() {
                    let depth = INLINE_DEPTH.get();
                    if depth < MAX_INLINE_DEPTH {
                        INLINE_DEPTH.set(depth + 1);
                        self.guarded(step);
                        INLINE_DEPTH.set(depth);
                        return;
                    }
                }
                self.ctx.pool.submit_next(self.task(step));
            }
            Hint::Submit => self.ctx.pool.submit(self.task(step)),
            Hint::Batch(batch) => batch.push(self.task(step)),
        }
    }

    fn batch(n: usize) -> Vec<Task> {
        Vec::with_capacity(n)
    }

    fn flush(&mut self, batch: Vec<Task>) {
        self.ctx.pool.submit_batch(batch);
    }

    fn meter(&mut self, _muscle: MuscleId, _items: usize, _payload: &dyn Any) {}

    fn busy(&mut self, (): (), then: impl FnOnce(&mut Self) + Send + 'static) {
        then(self);
    }

    fn fail(&mut self, fault: Fault) {
        self.ctx.fail(match fault {
            Fault::Eval(e) => EngineError::Eval(e),
            Fault::Internal(msg) => EngineError::Internal(msg),
        });
    }
}

/// One submission's three ends: the runtime handle its steps run on, the
/// caller's future, and the root continuation that resolves it.
fn submission<R: Send + 'static>(
    engine: &Engine,
    listeners: Option<Arc<ListenerSnapshot>>,
    span: Option<SpanProbe>,
) -> (ThreadRt, SkelFuture<R>, BoxedCont<ThreadRt>) {
    let (future, promise) = pair::<R>();
    let fail_promise = promise.clone();
    let rt = ThreadRt::new(Arc::new(SubCtx {
        pool: engine.pool.clone(),
        registry: Arc::clone(&engine.registry),
        clock: Arc::clone(&engine.clock),
        listeners,
        empty_trace: Trace::empty(),
        span,
        failed: AtomicBool::new(false),
        fail_fn: Box::new(move |e| fail_promise.fail(e)),
    }));
    let done = Box::new(move |rt: &mut ThreadRt, data: Data| {
        if let Some(span) = &rt.ctx.span {
            span.finish(&*rt.ctx.clock);
        }
        match data.downcast::<R>() {
            Ok(r) => promise.fulfill(*r),
            Err(_) => promise.fail(EngineError::MusclePanic(
                "internal error: root result had an unexpected type".into(),
            )),
        }
    });
    (rt, future, done)
}

/// Entry point used by [`crate::Engine::submit`].
pub(crate) fn submit<P, R>(engine: &Engine, skel: &Skel<P, R>, input: P) -> SkelFuture<R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    let span = engine.metrics.probe(&*engine.clock);
    let (mut rt, future, done) = submission(engine, engine.registry.snapshot(), span);
    rt.caught(|rt| interp::start(rt, skel.node(), Box::new(input), done));
    future
}

/// Entry point used by [`crate::Engine::submit_batch`].
///
/// Each input gets its own submission context, future and promise —
/// poisoning stays per item, exactly as with [`submit`] — but instead of
/// scheduling each root step individually (one injector push and one
/// worker wake per item), the whole batch is handed to the pool through
/// one `ResizablePool::submit_batch` call. The root step (including a
/// structural root's inline recursion) therefore runs on a worker rather
/// than the submitting thread; structural kinds carry no muscle-thread
/// guarantee, so the event contract is unchanged.
pub(crate) fn submit_batch<P, R>(
    engine: &Engine,
    skel: &Skel<P, R>,
    inputs: Vec<P>,
) -> Vec<SkelFuture<R>>
where
    P: Send + 'static,
    R: Send + 'static,
{
    let listeners = engine.registry.snapshot();
    // One enabled check and one clock read for the whole batch; every
    // item's span shares the submit timestamp.
    let submitted_at = if engine.metrics.enabled() {
        Some(engine.clock.now().0.max(1))
    } else {
        None
    };
    let mut futures = Vec::with_capacity(inputs.len());
    let mut tasks: Vec<Task> = Vec::with_capacity(inputs.len());
    for input in inputs {
        let span = submitted_at.map(|at| engine.metrics.probe_at(at));
        let (rt, future, done) = submission(engine, listeners.clone(), span);
        let node = Arc::clone(skel.node());
        tasks.push(rt.task(move |rt| interp::start(rt, &node, Box::new(input), done)));
        futures.push(future);
    }
    engine.pool.submit_batch(tasks);
    futures
}
