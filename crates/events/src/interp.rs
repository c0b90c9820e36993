//! The skeleton interpreter: the nine kinds' control flow and the events
//! each raises, written once over a [`Runtime`].
//!
//! A runtime decides *where and when* a step runs; this module decides
//! *what* a step does. `askel-engine` implements [`Runtime`] over the
//! work-stealing pool (real threads, wall-clock time) and `askel-sim` over
//! its discrete-event scheduler (one thread, virtual time), so an event
//! sequence, a guard or a fast path changed here changes on both.
//!
//! Execution discipline:
//!
//! * kinds that own muscles (`seq`, `map`, `fork`, `d&C`, `while`, `if`)
//!   start in a step handed to [`Runtime::spawn`]; a muscle runs inside
//!   that step, bracketed by its `Before`/`After` events, and what follows
//!   it goes through [`Runtime::busy`] — so all three happen on the thread
//!   (or simulated worker) that runs the muscle;
//! * purely structural kinds (`farm`, `pipe`, `for`) raise their
//!   skeleton-level events inline in whichever step schedules or completes
//!   them — they have no muscle for a thread guarantee to bind to;
//! * `map`/`fork`/`d&C` children fan out through a `Join`; the merge is
//!   a step spawned by the last child to finish;
//! * a runtime runs every step under a guard: a panic in a muscle, a
//!   listener or a continuation poisons the submission, and its remaining
//!   steps are skipped.
//!
//! **Listener sampling, the one rule for both runtimes:** whether a
//! submission is observed is decided once, when its root node is
//! scheduled, by [`Runtime::unobserved`]. An unobserved submission stays
//! silent for its whole life — its instances carry [`InstanceId`] 0 and
//! share one empty [`Trace`], no event is built, closing continuations
//! that would only emit are skipped and merges consume the join's slots
//! as they are. An observed one hands every event to [`Runtime::emit`],
//! which delivers it to the listeners registered *at that moment*, so a
//! listener added or removed mid-item takes effect at the item's next
//! event. Register listeners before submitting.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;

use askel_skeletons::{Data, EvalError, InstanceId, KindTag, MuscleId, MuscleRole, Node, NodeKind};

use crate::EventInfo::{self, ChildIndex, ConditionResult, Iteration, SplitCardinality};
use crate::When::{self, After, Before};
use crate::Where::{self, Condition, Merge, NestedSkeleton, Skeleton, Split};
use crate::{Payload, Trace};

/// Why the interpreter gave up on a submission (panics aside — those are
/// the runtime guard's to catch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A structural error, in the sequential reference's vocabulary.
    Eval(EvalError),
    /// An interpreter invariant broke (e.g. a fan-out child completing
    /// its join twice after a racing failure).
    Internal(&'static str),
}

/// Where [`Runtime::spawn`] may put a step. Only a runtime with real
/// parallelism has a use for the distinction.
pub enum Hint<'a, B> {
    /// A tail position: exactly one step follows (a pipe's next stage, a
    /// loop iteration, a fan-out's last child, a merge). Run it in the
    /// current task when possible.
    Run,
    /// A binary fan-out's lone sibling: make it stealable now.
    Submit,
    /// One of a wider fan-out's siblings: collect it for one bulk
    /// [`Runtime::flush`].
    Batch(&'a mut B),
}

/// What the interpreter needs from the machine underneath it.
///
/// Implementations are statically dispatched; the threaded one inlines to
/// what a hand-written interpreter would do (`meter` vanishes, `busy` is
/// a direct call).
pub trait Runtime: Sized + 'static {
    /// What [`meter`](Runtime::meter) learned and [`busy`](Runtime::busy)
    /// charges: a virtual duration, or nothing.
    type Cost;
    /// Fan-out siblings collected for one [`flush`](Runtime::flush).
    type Batch;
    /// Whether [`meter`](Runtime::meter) looks at its payload. A merge
    /// then always presents the partial results as a `Vec<Data>`, also
    /// when nobody listens.
    const METERED: bool;

    /// Asked once per submission (see the module docs): `None` when a
    /// listener is registered right now, else the empty trace every
    /// instance of the unobserved submission will share.
    fn unobserved(&self) -> Option<Trace>;

    /// Raises one event on the current thread at the current time.
    ///
    /// A [`Where::NestedSkeleton`] event is raised in the same step as,
    /// and right after, the event that caused it — the child's `(After,
    /// Skeleton)`, the parent's `(After, Split)` or `(After, Condition)`,
    /// the previous child's marker — with no muscle in between, so both
    /// must carry **the same timestamp**: a virtual clock gives that for
    /// free, a real one reuses the previous event's reading instead of
    /// taking another.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        node: &Node,
        trace: &Trace,
        index: InstanceId,
        when: When,
        wher: Where,
        info: EventInfo,
        payload: &mut Payload<'_>,
    );

    /// Schedules `step`, guarded, on a worker `placement` allows.
    fn spawn(
        &mut self,
        placement: Option<Arc<str>>,
        hint: Hint<'_, Self::Batch>,
        step: impl FnOnce(&mut Self) + Send + 'static,
    );

    /// An empty batch with room for `n` steps.
    fn batch(n: usize) -> Self::Batch;

    /// Schedules everything [`Hint::Batch`] collected.
    fn flush(&mut self, batch: Self::Batch);

    /// Prices the muscle call about to be made in this step.
    fn meter(&mut self, muscle: MuscleId, items: usize, payload: &dyn Any) -> Self::Cost;

    /// Continues the current step with `then` once the muscle just called
    /// has taken `cost`. The caller does nothing after this.
    fn busy(&mut self, cost: Self::Cost, then: impl FnOnce(&mut Self) + Send + 'static);

    /// Poisons the submission.
    fn fail(&mut self, fault: Fault);
}

/// A general continuation: receives a node's result. What [`start`] takes
/// for the submission's root, boxed by whoever makes the submission.
pub type BoxedCont<R> = Box<dyn FnOnce(&mut R, Data) + Send>;

/// Receives a node's result, in the step that produced it.
enum Cont<R> {
    /// A boxed general continuation.
    F(BoxedCont<R>),
    /// The k-th child of a fan-out completes into its join: no box per
    /// child — the parent's identity and continuation live once, in the
    /// [`Join`].
    Join { join: Arc<Join<R>>, k: usize },
}

impl<R: Runtime> Cont<R> {
    fn f(f: impl FnOnce(&mut R, Data) + Send + 'static) -> Self {
        Cont::F(Box::new(f))
    }

    fn run(self, rt: &mut R, mut data: Data) {
        match self {
            Cont::F(f) => f(rt, data),
            Cont::Join { join, k } => {
                let parent = &join.inst;
                parent.one(rt, After, NestedSkeleton, ChildIndex(k), &mut data);
                match join.complete(k, data) {
                    Ok(Some((slots, cont))) => merge(rt, parent.clone(), slots, cont),
                    Ok(None) => {}
                    // Report instead of panicking whoever noticed.
                    Err(msg) => rt.fail(Fault::Internal(msg)),
                }
            }
        }
    }
}

/// One skeleton instance's identity: every event it raises carries this
/// triple.
#[derive(Clone)]
struct Inst {
    node: Arc<Node>,
    trace: Trace,
    id: InstanceId,
}

impl Inst {
    /// A submission's root instance — where observation is decided.
    fn root<R: Runtime>(rt: &R, node: &Arc<Node>) -> Self {
        Self::new(node, rt.unobserved(), |id| {
            Trace::root(node.id, id, node.tag())
        })
    }

    /// A fresh instance of `node` nested in this one.
    fn child(&self, node: &Arc<Node>) -> Self {
        let silent = (!self.observed()).then(|| self.trace.clone());
        Self::new(node, silent, |id| self.trace.child(node.id, id, node.tag()))
    }

    /// An observed instance gets a fresh id and a trace built from it; an
    /// unobserved one takes the submission's empty trace and id 0, and
    /// allocates nothing.
    fn new(
        node: &Arc<Node>,
        silent: Option<Trace>,
        trace: impl FnOnce(InstanceId) -> Trace,
    ) -> Self {
        let (id, trace) = match silent {
            Some(empty) => (InstanceId(0), empty),
            None => {
                let id = InstanceId::fresh();
                (id, trace(id))
            }
        };
        Inst {
            node: Arc::clone(node),
            trace,
            id,
        }
    }

    fn observed(&self) -> bool {
        self.trace.depth() > 0
    }

    fn muscle(&self, role: MuscleRole) -> MuscleId {
        MuscleId::new(self.node.id, role)
    }

    /// Raises an event carrying one partial solution.
    fn one<R: Runtime>(&self, rt: &mut R, when: When, wher: Where, info: EventInfo, d: &mut Data) {
        self.emit(rt, when, wher, info, &mut Payload::Single(d));
    }

    /// Raises an event carrying several (split results, merge inputs).
    fn many<R: Runtime>(
        &self,
        rt: &mut R,
        when: When,
        wher: Where,
        info: EventInfo,
        d: &mut Vec<Data>,
    ) {
        self.emit(rt, when, wher, info, &mut Payload::Many(d));
    }

    fn emit<R: Runtime>(
        &self,
        rt: &mut R,
        when: When,
        wher: Where,
        info: EventInfo,
        payload: &mut Payload<'_>,
    ) {
        if self.observed() {
            rt.emit(&self.node, &self.trace, self.id, when, wher, info, payload);
        }
    }

    /// The continuation closing a kind whose single child's result is its
    /// own (`farm`, `if`, a `d&C` leaf): child `k` ended, the skeleton
    /// ended. It only emits, so an unobserved instance passes `cont`
    /// through without a box.
    fn closing<R: Runtime>(self, k: usize, cont: Cont<R>) -> Cont<R> {
        if !self.observed() {
            return cont;
        }
        Cont::f(move |rt, mut out| {
            self.one(rt, After, NestedSkeleton, ChildIndex(k), &mut out);
            self.one(rt, After, Skeleton, EventInfo::None, &mut out);
            cont.run(rt, out);
        })
    }
}

/// Starts a submission: schedules `node` on `data`; `done` receives the
/// result. A structural root raises its opening events here, in the
/// caller's step.
pub fn start<R: Runtime>(rt: &mut R, node: &Arc<Node>, data: Data, done: BoxedCont<R>) {
    let root = Inst::root(rt, node);
    schedule(rt, root, data, Cont::F(done), Hint::Run);
}

/// Structural kinds recurse inline; a muscle kind's entry step goes to
/// the runtime.
fn schedule<R: Runtime>(
    rt: &mut R,
    inst: Inst,
    data: Data,
    cont: Cont<R>,
    hint: Hint<'_, R::Batch>,
) {
    match inst.node.tag() {
        KindTag::Farm => farm(rt, inst, data, cont),
        KindTag::Pipe => pipe(rt, inst, data, cont),
        KindTag::For => for_loop(rt, inst, data, cont),
        _ => rt.spawn(inst.node.placement.clone(), hint, move |rt| {
            match inst.node.tag() {
                KindTag::Seq => seq(rt, inst, data, cont),
                KindTag::While => while_loop(rt, inst, data, cont, 0),
                KindTag::If => if_else(rt, inst, data, cont),
                KindTag::Map | KindTag::Fork => split(rt, inst, data, cont),
                KindTag::DivideConquer => dac(rt, inst, data, cont),
                KindTag::Farm | KindTag::Pipe | KindTag::For => unreachable!("structural kind"),
            }
        }),
    }
}

fn seq<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    let NodeKind::Seq { fe } = &inst.node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let cost = rt.meter(inst.muscle(MuscleRole::Execute), 1, &*data);
    let mut out = fe.call(data);
    rt.busy(cost, move |rt| {
        inst.one(rt, After, Skeleton, EventInfo::None, &mut out);
        cont.run(rt, out);
    });
}

fn farm<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    inst.one(rt, Before, NestedSkeleton, ChildIndex(0), &mut data);
    let NodeKind::Farm { inner } = &inst.node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let child = inst.child(inner);
    schedule(rt, child, data, inst.closing(0, cont), Hint::Run);
}

fn pipe<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    pipe_stage(rt, inst, data, cont, 0);
}

fn pipe_stage<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>, k: usize) {
    let NodeKind::Pipe { stages } = &inst.node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    let Some(stage) = stages.get(k) else {
        inst.one(rt, After, Skeleton, EventInfo::None, &mut data);
        return cont.run(rt, data);
    };
    inst.one(rt, Before, NestedSkeleton, ChildIndex(k), &mut data);
    let child = inst.child(stage);
    let next = Cont::f(move |rt, mut out| {
        inst.one(rt, After, NestedSkeleton, ChildIndex(k), &mut out);
        pipe_stage(rt, inst, out, cont, k + 1);
    });
    schedule(rt, child, data, next, Hint::Run);
}

fn while_loop<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>, iter: usize) {
    if iter == 0 {
        inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    }
    let NodeKind::While { fc, .. } = &inst.node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    inst.one(rt, Before, Condition, EventInfo::None, &mut data);
    let cost = rt.meter(inst.muscle(MuscleRole::Condition), 1, &*data);
    let verdict = fc.call(&data);
    rt.busy(cost, move |rt| {
        inst.one(rt, After, Condition, ConditionResult(verdict), &mut data);
        if !verdict {
            inst.one(rt, After, Skeleton, EventInfo::None, &mut data);
            return cont.run(rt, data);
        }
        inst.one(rt, Before, NestedSkeleton, ChildIndex(iter), &mut data);
        let NodeKind::While { inner, .. } = &inst.node.kind else {
            unreachable!("tag checked above")
        };
        let child = inst.child(inner);
        let next = Cont::f(move |rt: &mut R, mut out| {
            inst.one(rt, After, NestedSkeleton, ChildIndex(iter), &mut out);
            // The next condition is a muscle call: its own step.
            rt.spawn(inst.node.placement.clone(), Hint::Run, move |rt| {
                while_loop(rt, inst, out, cont, iter + 1)
            });
        });
        schedule(rt, child, data, next, Hint::Run);
    });
}

fn if_else<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    let NodeKind::If { fc, .. } = &inst.node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    inst.one(rt, Before, Condition, EventInfo::None, &mut data);
    let cost = rt.meter(inst.muscle(MuscleRole::Condition), 1, &*data);
    let verdict = fc.call(&data);
    rt.busy(cost, move |rt| {
        inst.one(rt, After, Condition, ConditionResult(verdict), &mut data);
        let NodeKind::If {
            then_branch,
            else_branch,
            ..
        } = &inst.node.kind
        else {
            unreachable!("tag checked above")
        };
        let (branch, k) = if verdict {
            (then_branch, 0)
        } else {
            (else_branch, 1)
        };
        inst.one(rt, Before, NestedSkeleton, ChildIndex(k), &mut data);
        let child = inst.child(branch);
        schedule(rt, child, data, inst.closing(k, cont), Hint::Run);
    });
}

fn for_loop<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    for_iteration(rt, inst, data, cont, 0);
}

fn for_iteration<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>, k: usize) {
    let NodeKind::For { n, inner } = &inst.node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    if k == *n {
        inst.one(rt, After, Skeleton, EventInfo::None, &mut data);
        return cont.run(rt, data);
    }
    inst.one(rt, Before, NestedSkeleton, Iteration(k), &mut data);
    let child = inst.child(inner);
    let next = Cont::f(move |rt, mut out| {
        inst.one(rt, After, NestedSkeleton, Iteration(k), &mut out);
        for_iteration(rt, inst, out, cont, k + 1);
    });
    schedule(rt, child, data, next, Hint::Run);
}

/// `map` and `fork`: split, then fan the parts out — to one shared inner
/// skeleton, or to one branch each.
fn split<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    let (NodeKind::Map { fs, .. } | NodeKind::Fork { fs, .. }) = &inst.node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    inst.one(rt, Before, Split, EventInfo::None, &mut data);
    let cost = rt.meter(inst.muscle(MuscleRole::Split), 1, &*data);
    let mut parts = fs.call(data);
    rt.busy(cost, move |rt| {
        inst.many(rt, After, Split, SplitCardinality(parts.len()), &mut parts);
        if let NodeKind::Fork { inners, .. } = &inst.node.kind {
            if parts.len() != inners.len() {
                return rt.fail(Fault::Eval(EvalError::ForkArityMismatch {
                    node: inst.node.id,
                    branches: inners.len(),
                    produced: parts.len(),
                }));
            }
        }
        fan_out(rt, inst, parts, cont);
    });
}

fn dac<R: Runtime>(rt: &mut R, inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    let NodeKind::DivideConquer { fc, .. } = &inst.node.kind else {
        unreachable!("tag checked by dispatcher")
    };
    inst.one(rt, Before, Condition, EventInfo::None, &mut data);
    let cost = rt.meter(inst.muscle(MuscleRole::Condition), 1, &*data);
    let divide = fc.call(&data);
    rt.busy(cost, move |rt| {
        inst.one(rt, After, Condition, ConditionResult(divide), &mut data);
        let NodeKind::DivideConquer { fs, inner, .. } = &inst.node.kind else {
            unreachable!("tag checked above")
        };
        if !divide {
            inst.one(rt, Before, NestedSkeleton, ChildIndex(0), &mut data);
            let child = inst.child(inner);
            return schedule(rt, child, data, inst.closing(0, cont), Hint::Run);
        }
        inst.one(rt, Before, Split, EventInfo::None, &mut data);
        let cost = rt.meter(inst.muscle(MuscleRole::Split), 1, &*data);
        let mut parts = fs.call(data);
        rt.busy(cost, move |rt| {
            inst.many(rt, After, Split, SplitCardinality(parts.len()), &mut parts);
            if parts.is_empty() {
                return rt.fail(Fault::Eval(EvalError::EmptySplit { node: inst.node.id }));
            }
            fan_out(rt, inst, parts, cont);
        });
    });
}

/// The skeleton child `k` of a fan-out runs: `map`'s one inner skeleton,
/// `fork`'s k-th branch, or — `d&C` — a new instance of the node itself.
fn fan_child(node: &Arc<Node>, k: usize) -> &Arc<Node> {
    match &node.kind {
        NodeKind::Map { inner, .. } => inner,
        NodeKind::Fork { inners, .. } => &inners[k],
        NodeKind::DivideConquer { .. } => node,
        _ => unreachable!("fan-out on a kind without a split muscle"),
    }
}

/// Collects fan-out results in sub-problem order and owns the parent's
/// continuation plus the parent instance's identity — stored once here
/// rather than cloned into every child.
struct Join<R> {
    inst: Inst,
    /// Slots, countdown and continuation under **one** lock: a completing
    /// child takes exactly one uncontended lock acquisition.
    state: Mutex<JoinState<R>>,
}

struct JoinState<R> {
    slots: Vec<Option<Data>>,
    remaining: usize,
    cont: Option<Cont<R>>,
}

/// What the closing child takes away: every slot, filled, plus the
/// parent's continuation.
type Closed<R> = (Vec<Option<Data>>, Cont<R>);

impl<R> Join<R> {
    /// Records child `k`'s result; the closing child gets the slot vector
    /// **as-is** for [`askel_skeletons::MergeFn::call_slots`].
    ///
    /// A child completing twice, or after the continuation left, is an
    /// `Err` rather than a panic, so a race against a poisoned sibling
    /// poisons the submission and not the worker.
    fn complete(&self, k: usize, value: Data) -> Result<Option<Closed<R>>, &'static str> {
        let mut state = self.state.lock();
        match state.slots.get_mut(k) {
            Some(slot @ None) => *slot = Some(value),
            Some(Some(_)) => return Err("fan-out child completed its join twice"),
            None => return Err("fan-out child index out of join bounds"),
        }
        state.remaining -= 1;
        if state.remaining > 0 {
            return Ok(None);
        }
        let slots = std::mem::take(&mut state.slots);
        match state.cont.take() {
            Some(cont) => Ok(Some((slots, cont))),
            None => Err("fan-out join continuation consumed twice"),
        }
    }
}

/// Fans `parts` out to the instance's children, joins the results in
/// order, then spawns the merge, which also closes the parent instance.
///
/// All children but the last go to the runtime as stealable siblings —
/// one direct [`Hint::Submit`] for the binary case (every recursive d&C),
/// one [`Hint::Batch`] for wider splits — and the **last child takes the
/// tail position**, like rayon's `join`: its parent would end right after
/// submitting it, so a runtime that can runs it in the parent's own task.
fn fan_out<R: Runtime>(rt: &mut R, inst: Inst, parts: Vec<Data>, cont: Cont<R>) {
    let n = parts.len();
    if n == 0 {
        return merge(rt, inst, Vec::new(), cont);
    }
    let join = Arc::new(Join {
        inst,
        state: Mutex::new(JoinState {
            slots: (0..n).map(|_| None).collect(),
            remaining: n,
            cont: Some(cont),
        }),
    });
    let parent = &join.inst;
    let mut batch = R::batch(if n > 2 { n - 1 } else { 0 });
    let mut last = None;
    for (k, mut part) in parts.into_iter().enumerate() {
        parent.one(rt, Before, NestedSkeleton, ChildIndex(k), &mut part);
        let child = parent.child(fan_child(&parent.node, k));
        if k + 1 == n {
            // Held back until its siblings are out for thieves.
            last = Some((child, part));
            break;
        }
        let into_join = Cont::Join {
            join: Arc::clone(&join),
            k,
        };
        let hint = if n == 2 {
            Hint::Submit
        } else {
            Hint::Batch(&mut batch)
        };
        schedule(rt, child, part, into_join, hint);
    }
    rt.flush(batch);
    if let Some((child, part)) = last {
        schedule(rt, child, part, Cont::Join { join, k: n - 1 }, Hint::Run);
    }
}

/// The merge step, spawned by whichever child closed the join.
fn merge<R: Runtime>(rt: &mut R, inst: Inst, slots: Vec<Option<Data>>, cont: Cont<R>) {
    rt.spawn(inst.node.placement.clone(), Hint::Run, move |rt| {
        let (NodeKind::Map { fm, .. }
        | NodeKind::Fork { fm, .. }
        | NodeKind::DivideConquer { fm, .. }) = &inst.node.kind
        else {
            unreachable!("merge scheduled on a kind without a merge muscle")
        };
        let id = inst.muscle(MuscleRole::Merge);
        let (cost, mut out) = if inst.observed() || R::METERED {
            // Listeners may transform the partial results and a cost
            // model may inspect them: both get the plain vector shape.
            let mut results: Vec<Data> = slots
                .into_iter()
                .map(|s| s.expect("fan-out result slot unfilled at merge"))
                .collect();
            inst.many(rt, Before, Merge, EventInfo::None, &mut results);
            let cost = rt.meter(id, results.len(), &results);
            (cost, fm.call(results))
        } else {
            // The join's slot vector feeds the muscle with no re-collect.
            (rt.meter(id, slots.len(), &slots), fm.call_slots(slots))
        };
        rt.busy(cost, move |rt| {
            inst.one(rt, After, Merge, EventInfo::None, &mut out);
            inst.one(rt, After, Skeleton, EventInfo::None, &mut out);
            cont.run(rt, out);
        });
    });
}

/// Renders a caught panic payload as a message — what a runtime's step
/// guard reports.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_messages_extract_strings() {
        let p: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p: Box<dyn Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(p.as_ref()), "owned");
        let p: Box<dyn Any + Send> = Box::new(42i32);
        assert_eq!(panic_message(p.as_ref()), "<non-string panic payload>");
    }
}
