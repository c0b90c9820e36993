//! The continuation-passing interpreter.
//!
//! Execution discipline (mirrored exactly by the discrete-event simulator,
//! so both engines raise the same event sequences):
//!
//! * kinds that own muscles (`seq`, `map`, `fork`, `d&C`, `while`, `if`)
//!   run each muscle inside **one guarded step**, emitting the
//!   bracketing events on the thread that executes it;
//! * purely structural kinds (`farm`, `pipe`, `for`) emit their
//!   skeleton-level events inline on the scheduling/continuation thread —
//!   they have no muscle for the thread guarantee to bind to;
//! * `map`/`fork`/`d&C` children are fanned out via a [`Join`]; the
//!   merge is started by the last child to finish, on its thread;
//! * every step body (muscle + listeners + continuation) is guarded
//!   ([`SubCtx::guarded`]): a panic poisons the submission and
//!   short-circuits its remaining steps.
//!
//! Dispatch detail: a fan-out hands all children *but the last* to the
//! pool — one direct submit for the binary d&C case, one batch (one
//! queue-lock acquisition, one wake-up sweep) for wider splits — and
//! **descends into the last child inline in the parent's own task**,
//! like rayon's `join`: sequential by default, parallel when workers
//! are idle and steal the batched siblings. Single-continuation steps
//! (pipe stages, while/for iterations, the fan-out merge returned by
//! [`Join::complete`] to its last-completing worker, the last child
//! itself) go through [`run_step`]: inline on the current worker with
//! no closure box and no dispatch while the depth cap allows, then via
//! the pool's TLS next-task slot (`ResizablePool::submit_next`) — one
//! trip through the worker loop that resets the stack — and from
//! non-worker threads (the initial submission) a plain pool submit.
//! Steady-state chains therefore touch neither deque nor injector (see
//! `docs/ARCHITECTURE.md`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use askel_events::{
    Event, EventInfo, ListenerRegistry, ListenerSnapshot, Payload, Trace, When, Where,
};
use askel_pool::{ResizablePool, Task};
use askel_skeletons::{Clock, Data, EvalError, InstanceId, Node, NodeKind, Skel};

use crate::error::{panic_message, EngineError};
use crate::future::{pair, SkelFuture};
use crate::metrics::{EngineMetrics, SpanProbe};

/// Continuation invoked with a node's result, on the thread that produced
/// it.
///
/// The `Join` variant is the fan-out fast path: instead of boxing a
/// fresh closure (plus `Arc` bumps for the parent node and trace) for
/// every child, a child carries only the shared join handle and its
/// slot index — the parent context lives once, inside the [`Join`].
type BoxedCont = Box<dyn FnOnce(&Arc<SubCtx>, Data) + Send>;

enum Cont {
    /// A boxed general continuation.
    F(BoxedCont),
    /// The k-th child of a fan-out completes into its join.
    Join { join: Arc<Join>, k: usize },
}

impl Cont {
    fn f(f: impl FnOnce(&Arc<SubCtx>, Data) + Send + 'static) -> Self {
        Cont::F(Box::new(f))
    }

    fn run(self, ctx: &Arc<SubCtx>, mut data: Data) {
        match self {
            Cont::F(f) => f(ctx, data),
            Cont::Join { join, k } => {
                ctx.emit(
                    &join.node,
                    &join.trace,
                    join.inst,
                    When::After,
                    Where::NestedSkeleton,
                    EventInfo::ChildIndex(k),
                    &mut Payload::Single(&mut data),
                );
                match join.complete(k, data) {
                    Ok(Some((slots, cont))) => spawn_merge(
                        ctx,
                        Arc::clone(&join.node),
                        join.trace.clone(),
                        join.inst,
                        slots,
                        cont,
                    ),
                    Ok(None) => {}
                    // A racing failure (e.g. a sibling's poisoned retry
                    // path) left the join inconsistent: poison the
                    // submission instead of panicking the worker.
                    Err(msg) => ctx.fail(EngineError::Internal(msg)),
                }
            }
        }
    }
}

/// Per-submission context: engine services plus the poisoning machinery.
struct SubCtx {
    pool: ResizablePool,
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    /// The listeners registered when this submission started, taken once
    /// at submit time; `None` when there were none, and then the whole
    /// event path — instance ids, trace extension (an allocation per
    /// scheduled node) and emission — is skipped for the submission's
    /// lifetime. Events dispatch through this view, so a worker emitting
    /// one touches nothing another worker writes (see [`SubCtx::emit`]).
    listeners: Option<Arc<ListenerSnapshot>>,
    /// Shared zero-allocation stand-in trace used when not `tracing`.
    empty_trace: Trace,
    /// Span probe for the metrics hub, sampled once at submit time like
    /// `listeners`: `None` whenever the hub was disabled, making every
    /// per-step check a plain discriminant test.
    span: Option<SpanProbe>,
    failed: AtomicBool,
    fail_fn: Box<dyn Fn(EngineError) + Send + Sync>,
}

impl SubCtx {
    /// Whether any listener was registered when this submission started.
    fn tracing(&self) -> bool {
        self.listeners.is_some()
    }

    fn fail(&self, err: EngineError) {
        self.failed.store(true, Ordering::SeqCst);
        if let Some(span) = &self.span {
            span.finish(&*self.clock);
        }
        (self.fail_fn)(err); // the promise keeps only the first resolution
    }

    /// Runs a step now: short-circuits if the submission is poisoned,
    /// poisons it if the body panics. The guard both inline execution
    /// and pool tasks run under — a step behaves identically wherever
    /// it executes.
    fn guarded(self: &Arc<Self>, f: impl FnOnce(&Arc<SubCtx>)) {
        if self.failed.load(Ordering::SeqCst) {
            return;
        }
        if let Some(span) = &self.span {
            span.note_start(&*self.clock);
        }
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(self))) {
            self.fail(EngineError::MusclePanic(panic_message(p.as_ref())));
        }
    }

    /// Wraps a step into a guarded pool task.
    fn task(self: &Arc<Self>, f: impl FnOnce(&Arc<SubCtx>) + Send + 'static) -> Task {
        let ctx = Arc::clone(self);
        Box::new(move || ctx.guarded(f))
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        node: &Node,
        trace: &Trace,
        index: InstanceId,
        when: When,
        wher: Where,
        info: EventInfo,
        payload: &mut Payload<'_>,
    ) {
        let Some(taken) = &self.listeners else {
            return;
        };
        // One Acquire load of a line that is only written when a listener
        // is added or removed. While it has not moved, dispatch goes
        // through the view taken at submit: no lock, no allocation, no
        // reference count. Once it has, every event of this submission
        // re-reads the registry, so listeners added or removed mid-item
        // take effect at the next event, as they always did.
        let fresh;
        let listeners = if self.registry.generation() == taken.generation() {
            taken
        } else {
            let Some(now) = self.registry.snapshot() else {
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
        let event = Event {
            node: node.id,
            kind: node.tag(),
            when,
            wher,
            index,
            trace: trace.clone(),
            timestamp: self.clock.now(),
            info,
        };
        listeners.dispatch(payload, &event);
    }
}

/// Collects fan-out results in sub-problem order and owns the parent's
/// continuation plus the parent instance's identity (node, trace,
/// instance id) — stored once here rather than cloned into every child;
/// the closer (last child) receives the full result vector together with
/// the continuation.
struct Join {
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    /// Slots, countdown and continuation under **one** lock: a
    /// completing child takes exactly one uncontended lock acquisition
    /// instead of a lock + an atomic (+ two more locks for the closer).
    state: Mutex<JoinState>,
}

struct JoinState {
    slots: Vec<Option<Data>>,
    remaining: usize,
    cont: Option<Cont>,
}

impl Join {
    fn new(n: usize, cont: Cont, node: Arc<Node>, trace: Trace, inst: InstanceId) -> Arc<Self> {
        Arc::new(Join {
            node,
            trace,
            inst,
            state: Mutex::new(JoinState {
                slots: (0..n).map(|_| None).collect(),
                remaining: n,
                cont: Some(cont),
            }),
        })
    }

    /// Records child `k`'s result. For the closing child, returns the
    /// full slot vector (in sub-problem order, every slot filled)
    /// together with the parent's continuation — handed over **as-is**,
    /// without re-collecting into a `Vec<Data>`; the merge consumes it
    /// directly via [`askel_skeletons::MergeFn::call_slots`].
    ///
    /// Inconsistencies (a child completing twice, the continuation
    /// already consumed) are reported as `Err` instead of panicking: the
    /// caller routes them through `SubCtx::fail`, so a race against a
    /// poisoned sibling poisons the submission rather than the worker.
    #[allow(clippy::type_complexity)]
    fn complete(
        &self,
        k: usize,
        value: Data,
    ) -> Result<Option<(Vec<Option<Data>>, Cont)>, &'static str> {
        let mut state = self.state.lock();
        match state.slots.get_mut(k) {
            Some(slot @ None) => *slot = Some(value),
            Some(Some(_)) => return Err("fan-out child completed its join twice"),
            None => return Err("fan-out child index out of join bounds"),
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            let slots = std::mem::take(&mut state.slots);
            match state.cont.take() {
                Some(cont) => Ok(Some((slots, cont))),
                None => Err("fan-out join continuation consumed twice"),
            }
        } else {
            Ok(None)
        }
    }
}

/// Entry point used by [`crate::Engine::submit`].
pub(crate) fn submit<P, R>(
    pool: ResizablePool,
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    metrics: Arc<EngineMetrics>,
    skel: &Skel<P, R>,
    input: P,
) -> SkelFuture<R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    let (future, promise) = pair::<R>();
    let fail_promise = promise.clone();
    let listeners = registry.snapshot();
    let span = metrics.probe(&*clock);
    let ctx = Arc::new(SubCtx {
        pool,
        registry,
        clock,
        listeners,
        empty_trace: Trace::empty(),
        span,
        failed: AtomicBool::new(false),
        fail_fn: Box::new(move |e| fail_promise.fail(e)),
    });
    let root_cont: Cont = Cont::f(move |ctx, data| {
        if let Some(span) = &ctx.span {
            span.finish(&*ctx.clock);
        }
        match data.downcast::<R>() {
            Ok(r) => promise.fulfill(*r),
            Err(_) => promise.fail(EngineError::MusclePanic(
                "internal error: root result had an unexpected type".into(),
            )),
        }
    });
    schedule_node(&ctx, skel.node(), None, Box::new(input), root_cont);
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
    pool: ResizablePool,
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    metrics: Arc<EngineMetrics>,
    skel: &Skel<P, R>,
    inputs: Vec<P>,
) -> Vec<SkelFuture<R>>
where
    P: Send + 'static,
    R: Send + 'static,
{
    let listeners = registry.snapshot();
    // One enabled check and one clock read for the whole batch; every
    // item's span shares the submit timestamp.
    let submitted_at = if metrics.enabled() {
        Some(clock.now().0.max(1))
    } else {
        None
    };
    let mut futures = Vec::with_capacity(inputs.len());
    let mut tasks: Vec<Task> = Vec::with_capacity(inputs.len());
    for input in inputs {
        let (future, promise) = pair::<R>();
        let fail_promise = promise.clone();
        let ctx = Arc::new(SubCtx {
            pool: pool.clone(),
            registry: Arc::clone(&registry),
            clock: Arc::clone(&clock),
            listeners: listeners.clone(),
            empty_trace: Trace::empty(),
            span: submitted_at.map(|at| metrics.probe_at(at)),
            failed: AtomicBool::new(false),
            fail_fn: Box::new(move |e| fail_promise.fail(e)),
        });
        let root_cont: Cont = Cont::f(move |ctx, data| {
            if let Some(span) = &ctx.span {
                span.finish(&*ctx.clock);
            }
            match data.downcast::<R>() {
                Ok(r) => promise.fulfill(*r),
                Err(_) => promise.fail(EngineError::MusclePanic(
                    "internal error: root result had an unexpected type".into(),
                )),
            }
        });
        let node = Arc::clone(skel.node());
        tasks
            .push(ctx.task(move |ctx| schedule_node(ctx, &node, None, Box::new(input), root_cont)));
        futures.push(future);
    }
    pool.submit_batch(tasks);
    futures
}

/// Allocates the instance identity (fresh id + extended trace) for one
/// scheduled node — or the shared zero-cost stand-ins when no listener
/// can observe this submission.
fn instance(ctx: &Arc<SubCtx>, node: &Arc<Node>, parent: Option<&Trace>) -> (InstanceId, Trace) {
    if ctx.tracing() {
        let inst = InstanceId::fresh();
        let trace = match parent {
            Some(t) => t.child(node.id, inst, node.tag()),
            None => Trace::root(node.id, inst, node.tag()),
        };
        (inst, trace)
    } else {
        // No listener can observe this submission: skip the id and the
        // per-node trace allocation entirely.
        (InstanceId(0), ctx.empty_trace.clone())
    }
}

/// Runs the entry step of a muscle-owning kind. Must not be called for
/// structural kinds — the dispatchers below route those to `exec_*`.
fn muscle_step(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont,
) {
    match node.tag() {
        askel_skeletons::KindTag::Seq => step_seq(ctx, node, trace, inst, data, cont),
        askel_skeletons::KindTag::While => step_while(ctx, node, trace, inst, data, cont, 0),
        askel_skeletons::KindTag::If => step_if(ctx, node, trace, inst, data, cont),
        askel_skeletons::KindTag::Map => step_map(ctx, node, trace, inst, data, cont),
        askel_skeletons::KindTag::Fork => step_fork(ctx, node, trace, inst, data, cont),
        askel_skeletons::KindTag::DivideConquer => step_dac(ctx, node, trace, inst, data, cont),
        tag => unreachable!("muscle_step on structural kind {tag:?}"),
    }
}

/// Where a scheduled muscle-kind step goes. Structural kinds always
/// execute inline regardless of the sink; this only picks the path for
/// the entry step of muscle-owning kinds.
enum Sink<'a> {
    /// Run inline on the current worker when the depth cap allows,
    /// else defer via the TLS next-task slot / a plain submit
    /// ([`run_step`]) — the tail-position single-continuation path.
    Run,
    /// Submit straight to the pool (a binary fan-out's lone sibling).
    Submit,
    /// Push into a fan-out batch for one bulk submission.
    Batch(&'a mut Vec<Task>),
}

/// Schedules the execution of `node` on `data` into `sink`; `cont`
/// receives the result.
///
/// Structural kinds (`farm`, `pipe`, `for`) emit their events and
/// recurse inline, as always. For muscle kinds, [`Sink::Run`] call
/// sites are tail positions scheduling exactly one follow-on step (a
/// pipe's next stage, an if/farm/d&C-leaf body, a for iteration, a
/// fan-out's last child): on a worker the step runs inline in the
/// current task — no closure box, no dispatch — deferring to the TLS
/// next-task slot past the depth cap, and from outside the pool (the
/// initial submission) it becomes a plain injector submit, keeping
/// `Engine::submit` non-blocking. Fan-out siblings use
/// [`Sink::Submit`]/[`Sink::Batch`] so thieves can take them.
fn schedule_node_to(
    ctx: &Arc<SubCtx>,
    node: &Arc<Node>,
    parent: Option<&Trace>,
    data: Data,
    cont: Cont,
    sink: Sink<'_>,
) {
    let (inst, trace) = instance(ctx, node, parent);
    let node = Arc::clone(node);
    match node.tag() {
        askel_skeletons::KindTag::Farm => exec_farm(ctx, node, trace, inst, data, cont),
        askel_skeletons::KindTag::Pipe => exec_pipe(ctx, node, trace, inst, data, cont),
        askel_skeletons::KindTag::For => exec_for(ctx, node, trace, inst, data, cont),
        _ => {
            let step = move |ctx: &Arc<SubCtx>| muscle_step(ctx, node, trace, inst, data, cont);
            match sink {
                Sink::Run => run_step(ctx, step),
                Sink::Submit => ctx.pool.submit(ctx.task(step)),
                Sink::Batch(batch) => batch.push(ctx.task(step)),
            }
        }
    }
}

/// [`schedule_node_to`] with the [`Sink::Run`] path — the common
/// single-continuation case.
fn schedule_node(
    ctx: &Arc<SubCtx>,
    node: &Arc<Node>,
    parent: Option<&Trace>,
    data: Data,
    cont: Cont,
) {
    schedule_node_to(ctx, node, parent, data, cont, Sink::Run);
}

fn step_seq(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont,
) {
    let mut data = data;
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::Seq { fe } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let mut out = fe.call(data);
    ctx.emit(
        &node,
        &trace,
        inst,
        When::After,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut out),
    );
    cont.run(ctx, out);
}

fn exec_farm(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont,
) {
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::NestedSkeleton,
        EventInfo::ChildIndex(0),
        &mut Payload::Single(&mut data),
    );
    let NodeKind::Farm { inner } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let inner = Arc::clone(inner);
    // The closing wrapper only emits events; with no listener the
    // parent's continuation passes through without a fresh box.
    let cont = if ctx.tracing() {
        let trace2 = trace.clone();
        let node2 = Arc::clone(&node);
        Cont::f(move |ctx, mut out| {
            ctx.emit(
                &node2,
                &trace2,
                inst,
                When::After,
                Where::NestedSkeleton,
                EventInfo::ChildIndex(0),
                &mut Payload::Single(&mut out),
            );
            ctx.emit(
                &node2,
                &trace2,
                inst,
                When::After,
                Where::Skeleton,
                EventInfo::None,
                &mut Payload::Single(&mut out),
            );
            cont.run(ctx, out);
        })
    } else {
        cont
    };
    schedule_node(ctx, &inner, Some(&trace), data, cont);
}

fn exec_pipe(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont,
) {
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    pipe_stage(ctx, node, trace, inst, data, cont, 0);
}

fn pipe_stage(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont,
    k: usize,
) {
    let NodeKind::Pipe { stages } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    if k == stages.len() {
        ctx.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut data),
        );
        cont.run(ctx, data);
        return;
    }
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::NestedSkeleton,
        EventInfo::ChildIndex(k),
        &mut Payload::Single(&mut data),
    );
    let stage = Arc::clone(&stages[k]);
    let node2 = Arc::clone(&node);
    let trace2 = trace.clone();
    schedule_node(
        ctx,
        &stage,
        Some(&trace),
        data,
        Cont::f(move |ctx, mut out| {
            ctx.emit(
                &node2,
                &trace2,
                inst,
                When::After,
                Where::NestedSkeleton,
                EventInfo::ChildIndex(k),
                &mut Payload::Single(&mut out),
            );
            pipe_stage(ctx, node2, trace2, inst, out, cont, k + 1);
        }),
    );
}

fn step_while(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont,
    iter: usize,
) {
    let mut data = data;
    if iter == 0 {
        ctx.emit(
            &node,
            &trace,
            inst,
            When::Before,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut data),
        );
    }
    let NodeKind::While { fc, inner } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Condition,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let verdict = fc.call(&data);
    ctx.emit(
        &node,
        &trace,
        inst,
        When::After,
        Where::Condition,
        EventInfo::ConditionResult(verdict),
        &mut Payload::Single(&mut data),
    );
    if verdict {
        ctx.emit(
            &node,
            &trace,
            inst,
            When::Before,
            Where::NestedSkeleton,
            EventInfo::ChildIndex(iter),
            &mut Payload::Single(&mut data),
        );
        let inner = Arc::clone(inner);
        let node2 = Arc::clone(&node);
        let trace2 = trace.clone();
        schedule_node(
            ctx,
            &inner,
            Some(&trace),
            data,
            Cont::f(move |ctx, mut out| {
                ctx.emit(
                    &node2,
                    &trace2,
                    inst,
                    When::After,
                    Where::NestedSkeleton,
                    EventInfo::ChildIndex(iter),
                    &mut Payload::Single(&mut out),
                );
                run_step(ctx, move |ctx| {
                    step_while(ctx, node2, trace2, inst, out, cont, iter + 1)
                });
            }),
        );
    } else {
        ctx.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut data),
        );
        cont.run(ctx, data);
    }
}

fn step_if(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont,
) {
    let mut data = data;
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::If {
        fc,
        then_branch,
        else_branch,
    } = &node.kind
    else {
        unreachable!("tag checked by dispatcher")
    };
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Condition,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let verdict = fc.call(&data);
    ctx.emit(
        &node,
        &trace,
        inst,
        When::After,
        Where::Condition,
        EventInfo::ConditionResult(verdict),
        &mut Payload::Single(&mut data),
    );
    let (branch, k) = if verdict {
        (Arc::clone(then_branch), 0)
    } else {
        (Arc::clone(else_branch), 1)
    };
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::NestedSkeleton,
        EventInfo::ChildIndex(k),
        &mut Payload::Single(&mut data),
    );
    // Branch-closing wrapper: identity without a listener.
    let cont = if ctx.tracing() {
        let node2 = Arc::clone(&node);
        let trace2 = trace.clone();
        Cont::f(move |ctx, mut out| {
            ctx.emit(
                &node2,
                &trace2,
                inst,
                When::After,
                Where::NestedSkeleton,
                EventInfo::ChildIndex(k),
                &mut Payload::Single(&mut out),
            );
            ctx.emit(
                &node2,
                &trace2,
                inst,
                When::After,
                Where::Skeleton,
                EventInfo::None,
                &mut Payload::Single(&mut out),
            );
            cont.run(ctx, out);
        })
    } else {
        cont
    };
    schedule_node(ctx, &branch, Some(&trace), data, cont);
}

fn exec_for(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont,
) {
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::For { n, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let n = *n;
    if n == 0 {
        ctx.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut data),
        );
        cont.run(ctx, data);
        return;
    }
    for_iteration(ctx, node, trace, inst, data, cont, 0, n);
}

#[allow(clippy::too_many_arguments)]
fn for_iteration(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    mut data: Data,
    cont: Cont,
    k: usize,
    n: usize,
) {
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::NestedSkeleton,
        EventInfo::Iteration(k),
        &mut Payload::Single(&mut data),
    );
    let NodeKind::For { inner, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let inner = Arc::clone(inner);
    let node2 = Arc::clone(&node);
    let trace2 = trace.clone();
    schedule_node(
        ctx,
        &inner,
        Some(&trace),
        data,
        Cont::f(move |ctx, mut out| {
            ctx.emit(
                &node2,
                &trace2,
                inst,
                When::After,
                Where::NestedSkeleton,
                EventInfo::Iteration(k),
                &mut Payload::Single(&mut out),
            );
            if k + 1 < n {
                for_iteration(ctx, node2, trace2, inst, out, cont, k + 1, n);
            } else {
                ctx.emit(
                    &node2,
                    &trace2,
                    inst,
                    When::After,
                    Where::Skeleton,
                    EventInfo::None,
                    &mut Payload::Single(&mut out),
                );
                cont.run(ctx, out);
            }
        }),
    );
}

fn step_map(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont,
) {
    let mut data = data;
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::Map { fs, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Split,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let mut parts = fs.call(data);
    ctx.emit(
        &node,
        &trace,
        inst,
        When::After,
        Where::Split,
        EventInfo::SplitCardinality(parts.len()),
        &mut Payload::Many(&mut parts),
    );
    fan_out(
        ctx,
        Arc::clone(&node),
        trace.clone(),
        inst,
        parts,
        cont,
        |node, _| {
            let NodeKind::Map { inner, .. } = &node.kind else {
                unreachable!()
            };
            Arc::clone(inner)
        },
    );
}

fn step_fork(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont,
) {
    let mut data = data;
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::Fork { fs, inners, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Split,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let mut parts = fs.call(data);
    ctx.emit(
        &node,
        &trace,
        inst,
        When::After,
        Where::Split,
        EventInfo::SplitCardinality(parts.len()),
        &mut Payload::Many(&mut parts),
    );
    if parts.len() != inners.len() {
        ctx.fail(EngineError::Eval(EvalError::ForkArityMismatch {
            node: node.id,
            branches: inners.len(),
            produced: parts.len(),
        }));
        return;
    }
    fan_out(
        ctx,
        Arc::clone(&node),
        trace.clone(),
        inst,
        parts,
        cont,
        |node, k| {
            let NodeKind::Fork { inners, .. } = &node.kind else {
                unreachable!()
            };
            Arc::clone(&inners[k])
        },
    );
}

fn step_dac(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    data: Data,
    cont: Cont,
) {
    let mut data = data;
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Skeleton,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let NodeKind::DivideConquer { fc, fs, inner, .. } = &node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    ctx.emit(
        &node,
        &trace,
        inst,
        When::Before,
        Where::Condition,
        EventInfo::None,
        &mut Payload::Single(&mut data),
    );
    let divide = fc.call(&data);
    ctx.emit(
        &node,
        &trace,
        inst,
        When::After,
        Where::Condition,
        EventInfo::ConditionResult(divide),
        &mut Payload::Single(&mut data),
    );
    if divide {
        ctx.emit(
            &node,
            &trace,
            inst,
            When::Before,
            Where::Split,
            EventInfo::None,
            &mut Payload::Single(&mut data),
        );
        let mut parts = fs.call(data);
        ctx.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Split,
            EventInfo::SplitCardinality(parts.len()),
            &mut Payload::Many(&mut parts),
        );
        if parts.is_empty() {
            ctx.fail(EngineError::Eval(EvalError::EmptySplit { node: node.id }));
            return;
        }
        // Children are new instances of this same d&C node.
        fan_out(
            ctx,
            Arc::clone(&node),
            trace.clone(),
            inst,
            parts,
            cont,
            |node, _| Arc::clone(node),
        );
    } else {
        ctx.emit(
            &node,
            &trace,
            inst,
            When::Before,
            Where::NestedSkeleton,
            EventInfo::ChildIndex(0),
            &mut Payload::Single(&mut data),
        );
        let inner = Arc::clone(inner);
        // The base-case wrapper exists only to emit the closing events;
        // with no listener it is the identity, so the parent's
        // continuation passes through without a fresh box.
        let cont = if ctx.tracing() {
            let node2 = Arc::clone(&node);
            let trace2 = trace.clone();
            Cont::f(move |ctx, mut out| {
                ctx.emit(
                    &node2,
                    &trace2,
                    inst,
                    When::After,
                    Where::NestedSkeleton,
                    EventInfo::ChildIndex(0),
                    &mut Payload::Single(&mut out),
                );
                ctx.emit(
                    &node2,
                    &trace2,
                    inst,
                    When::After,
                    Where::Skeleton,
                    EventInfo::None,
                    &mut Payload::Single(&mut out),
                );
                cont.run(ctx, out);
            })
        } else {
            cont
        };
        schedule_node(ctx, &inner, Some(&trace), data, cont);
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

/// Executes a step **inline in the current task** when the calling
/// thread is a pool worker and the depth cap allows — guarded, but with
/// no closure box and no dispatch — and otherwise boxes it and defers
/// to the pool ([`ResizablePool::submit_next`]: the worker's TLS slot
/// on a worker, a plain submit elsewhere — the latter keeps
/// `Engine::submit` non-blocking on the caller's thread).
///
/// Inline execution behaves exactly like pool execution: the same
/// poison short-circuit and panic guard apply, and the enclosing pool
/// task is still running, so `wait_idle` cannot miss it.
fn run_step(ctx: &Arc<SubCtx>, step: impl FnOnce(&Arc<SubCtx>) + Send + 'static) {
    if ctx.pool.on_worker_thread() {
        let depth = INLINE_DEPTH.get();
        if depth < MAX_INLINE_DEPTH {
            INLINE_DEPTH.set(depth + 1);
            ctx.guarded(step);
            INLINE_DEPTH.set(depth);
            return;
        }
    }
    ctx.pool.submit_next(ctx.task(step));
}

/// Fans `parts` out to child skeletons chosen by `pick_child(node, k)`,
/// joins the results in order, then schedules the merge task which also
/// closes the parent instance (`After, Merge` then `After, Skeleton`).
///
/// All children but the last are handed to the pool as **one batch**
/// (structural children still start inline), so a wide split costs one
/// queue-lock acquisition instead of one per child. The **last child
/// runs inline in the parent's task**: the parent would otherwise die
/// right after submitting it, and under LIFO scheduling this worker
/// would pop that exact task next anyway — inlining skips the
/// queue round-trip entirely while idle workers steal the batched
/// siblings. Inline nesting is depth-capped ([`MAX_INLINE_DEPTH`]); past
/// the cap the last child is submitted like its siblings.
fn fan_out(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    parts: Vec<Data>,
    cont: Cont,
    pick_child: impl Fn(&Arc<Node>, usize) -> Arc<Node> + Copy,
) {
    if parts.is_empty() {
        spawn_merge(ctx, node, trace, inst, Vec::new(), cont);
        return;
    }
    let n = parts.len();
    let join = Join::new(n, cont, node, trace, inst);
    // A binary fan-out (every recursive d&C) has exactly one batched
    // sibling: submit it directly and skip the batch vector.
    let mut batch: Vec<Task> = if n > 2 {
        Vec::with_capacity(n - 1)
    } else {
        Vec::new()
    };
    let mut last: Option<(Arc<Node>, Data)> = None;
    for (k, mut part) in parts.into_iter().enumerate() {
        ctx.emit(
            &join.node,
            &join.trace,
            inst,
            When::Before,
            Where::NestedSkeleton,
            EventInfo::ChildIndex(k),
            &mut Payload::Single(&mut part),
        );
        let child = pick_child(&join.node, k);
        if k + 1 == n {
            // Held back: the last child starts only after its siblings
            // are in the pool for thieves, then runs inline here.
            last = Some((child, part));
        } else {
            let child_cont = Cont::Join {
                join: Arc::clone(&join),
                k,
            };
            if n == 2 {
                schedule_node_to(
                    ctx,
                    &child,
                    Some(&join.trace),
                    part,
                    child_cont,
                    Sink::Submit,
                );
            } else {
                schedule_node_to(
                    ctx,
                    &child,
                    Some(&join.trace),
                    part,
                    child_cont,
                    Sink::Batch(&mut batch),
                );
            }
        }
    }
    ctx.pool.submit_batch(batch);
    if let Some((child, part)) = last {
        let child_cont = Cont::Join {
            join: Arc::clone(&join),
            k: n - 1,
        };
        schedule_node(ctx, &child, Some(&join.trace), part, child_cont);
    }
}

/// Runs the merge on the worker that closed the join — inline in the
/// closing child's task when the depth cap allows, via the pool's TLS
/// slot otherwise. Either way the merge is started by the last child
/// and runs on its thread (the paper's discipline and its listener
/// thread guarantee); inlining merely merges the task identities.
fn spawn_merge(
    ctx: &Arc<SubCtx>,
    node: Arc<Node>,
    trace: Trace,
    inst: InstanceId,
    slots: Vec<Option<Data>>,
    cont: Cont,
) {
    run_step(ctx, move |ctx| {
        let fm = match &node.kind {
            NodeKind::Map { fm, .. }
            | NodeKind::Fork { fm, .. }
            | NodeKind::DivideConquer { fm, .. } => fm,
            _ => unreachable!("merge scheduled on a kind without a merge muscle"),
        };
        let mut out = if ctx.tracing() {
            // Listeners may transform the partial results, so the
            // event payload needs the plain vector shape.
            let mut results: Vec<Data> = slots
                .into_iter()
                .map(|s| s.expect("fan-out result slot unfilled at merge"))
                .collect();
            ctx.emit(
                &node,
                &trace,
                inst,
                When::Before,
                Where::Merge,
                EventInfo::None,
                &mut Payload::Many(&mut results),
            );
            fm.call(results)
        } else {
            // No listener can observe this submission: the join's slot
            // vector feeds the merge muscle as-is, with no re-collect.
            fm.call_slots(slots)
        };
        ctx.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Merge,
            EventInfo::None,
            &mut Payload::Single(&mut out),
        );
        ctx.emit(
            &node,
            &trace,
            inst,
            When::After,
            Where::Skeleton,
            EventInfo::None,
            &mut Payload::Single(&mut out),
        );
        cont.run(ctx, out);
    });
}
