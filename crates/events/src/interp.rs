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
//!   them in a tail position — they have no muscle for a thread guarantee
//!   to bind to; one a fan-out hands out as a sibling starts in a step of
//!   its own, so it does not run ahead of its siblings' scheduling;
//! * `map`/`fork`/`d&C` children fan out through a `Join`; the merge is
//!   a step spawned by the last child to finish;
//! * a `map` or `fork` whose children are all unobserved and fan-less
//!   (a bare `seq` counts) hands them, on a runtime that meters nothing,
//!   to at most [`Runtime::width`] **claimers** instead of a step each: a
//!   claimer takes the next unclaimed child off one shared cursor, runs
//!   it through the sequential reference, metered as one muscle, and
//!   completes the join once for all the children it ran;
//! * an unobserved instance whose subtree holds no fan-out
//!   ([`Plan::fanless`]) and is more than a bare `seq` is **one step**
//!   on a runtime that meters nothing: the step runs the sequential
//!   reference ([`seq_eval`](fn@askel_skeletons::seq_eval)) on the subtree, then the
//!   instance's continuation. The subtree has no parallelism to lose and
//!   nobody hears it, so its muscles need no step each. A metered
//!   runtime prices every muscle and keeps the stepwise path;
//! * a runtime runs every step under a guard: a panic in a muscle, a
//!   listener or a continuation poisons the submission, and its remaining
//!   steps are skipped. A step is what one of the above hands to
//!   [`Runtime::spawn`]: one muscle and what follows it up to the next
//!   spawn, a fan-less subtree, or a claimer with all the children it
//!   claims. A fan-less step and a claimer are each guarded as a whole,
//!   so a poison set while one runs is seen when it ends.
//!
//! **Listener sampling, the one rule for both runtimes:** what a
//! submission raises is decided once, when its root node is scheduled,
//! from the listeners registered at that moment compiled against its
//! program ([`PlanView`](crate::PlanView)): per plan entry, the positions
//! some listener reads there — its [`interest`](crate::Listener::interest)
//! and registration filter, narrowed to the nodes its
//! [`reads`](crate::Listener::reads) name. An instance carries a trace
//! and an [`InstanceId`] only when its subtree holds an entry read
//! ([`Runtime::traced`]); one that does not stays silent for its whole
//! life — no event is built, closing continuations that would only emit
//! are skipped and merges consume the join's slots as they are. A
//! submission whose root is not traced goes unobserved altogether
//! ([`Runtime::observed`]), and costs what a submission nobody listens to
//! costs. A traced instance raises an event at the positions its entry's
//! mask holds, through [`Runtime::emit`], which delivers it to the
//! listeners that read it; should the registry change mid-item, the
//! event goes to the listeners registered *at that moment* instead, so a
//! listener added or removed mid-item takes effect at the item's next
//! event of an instance already traced. What a listener reads changes
//! only between items. Register listeners before submitting.
//!
//! **Spans.** When every listener an observed submission dispatches to
//! [accepts spans](crate::Listener::accepts_spans), each of its `seq`
//! instances raises no `(Before, Skeleton)` and one `(After, Skeleton)`
//! carrying [`EventInfo::Started`]: the timestamp its `Before` would have
//! carried ([`Runtime::span_start`]). Both runtimes sample the answer
//! with the listeners, once per submission, so both form the same spans
//! for the same program. A listener added mid-item may see a `seq`'s
//! `After` without its `Before`, as it may whenever it is added between
//! the two.
//!
//! **What a step writes.** An instance names its node by its entry in the
//! submission's [`Plan`], which the runtime hands out
//! ([`Runtime::plan`]); no step clones a node, so workers running one
//! program only read its tree. A `for`, `while` or `pipe` instance keeps
//! its state in one boxed frame that each iteration's body completes
//! into, and an observed instance's trace shares its parent's path (the
//! trace of every instance with children is joined into one path once,
//! when the instance is made). An event takes its instance's trace for
//! the time of its dispatch and hands it back, so raising one moves no
//! reference count either. On threads an unobserved `for` with no
//! fan-out below it is one step with no frame, and a muscle whose input
//! and result types are one type writes its result back into its input's
//! box, so such a loop's iterations allocate nothing.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;

use askel_skeletons::muscle::MergeFn;
use askel_skeletons::{
    seq_eval, Data, EvalError, InstanceId, KindTag, MuscleId, MuscleRole, Node, NodeKind, Plan,
    TimeNs,
};

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
    /// One of a wider fan-out's siblings, or of its claimers: collect it
    /// for one bulk [`Runtime::flush`].
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

    /// The program the current step's submission runs. Steps name their
    /// node by its entry here.
    fn plan(&self) -> &Plan;

    /// Asked once per submission (see the module docs): the empty trace
    /// the root instance hangs under when a listener registered right now
    /// reads something of the program, `None` when the submission goes
    /// unobserved.
    fn observed(&self) -> Option<Trace>;

    /// Whether a fresh instance at plan entry `at`, nested in a traced
    /// one, needs a trace of its own: whether some listener the
    /// submission sampled reads an entry of its subtree.
    fn traced(&self, at: usize) -> bool;

    /// Raises one event of the instance at plan entry `at` that `trace`
    /// ends at, on the current thread at the current time, if some
    /// listener reads that position there, and hands `trace` back: the
    /// event owns it while listeners see it, so raising an event moves no
    /// reference count.
    ///
    /// An event raised with no muscle called since the previous event of
    /// the same step carries **the same timestamp**: a virtual clock gives
    /// that for free, a real one reuses the previous event's reading until
    /// [`meter`](Runtime::meter) announces a muscle. That covers every
    /// [`Where::NestedSkeleton`] event, which follows the event that
    /// caused it — the child's `(After, Skeleton)`, the parent's `(After,
    /// Split)` or `(After, Condition)`, the previous child's marker.
    fn emit(
        &mut self,
        at: usize,
        trace: Trace,
        when: When,
        wher: Where,
        info: EventInfo,
        payload: &mut Payload<'_>,
    ) -> Trace;

    /// Asked at the start of an observed `seq` instance: when every
    /// listener the submission dispatches to accepts spans, the timestamp
    /// the instance's `(Before, Skeleton)` would carry, which is then not
    /// raised; `None` otherwise (see the module docs).
    fn span_start(&mut self) -> Option<TimeNs>;

    /// Schedules `step`, guarded, on a worker the placement of the node at
    /// plan entry `at` allows. Placement is a simulator concern: the
    /// simulator holds a placed step to its node's slots, and threads
    /// ignore `at` by design.
    fn spawn(
        &mut self,
        at: usize,
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

    /// How many workers the runtime runs on now: the LP. A fan-out whose
    /// children need no step each splits them over this many claimers.
    fn width(&self) -> usize;
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
    /// A loop's body or a pipe's stage completes into the instance's
    /// frame: one box per `for`/`while`/`pipe` instance, however many
    /// iterations or stages it runs.
    Frame(Box<Frame<R>>),
}

impl<R: Runtime> Cont<R> {
    fn f(f: impl FnOnce(&mut R, Data) + Send + 'static) -> Self {
        Cont::F(Box::new(f))
    }

    fn run(self, rt: &mut R, mut data: Data) {
        match self {
            Cont::F(f) => f(rt, data),
            Cont::Join { join, k } => {
                // Siblings may be raising the parent's events through the
                // join's copy right now: this child raises through its own.
                let mut parent = join.inst.clone();
                parent.one(rt, After, NestedSkeleton, ChildIndex(k), &mut data);
                match join.complete([(k, data)]) {
                    Ok(Some((slots, cont))) => merge(rt, parent, slots, cont),
                    Ok(None) => {}
                    // Report instead of panicking whoever noticed.
                    Err(msg) => rt.fail(Fault::Internal(msg)),
                }
            }
            Cont::Frame(frame) => frame.next(rt, data),
        }
    }
}

/// One skeleton instance: its node's entry in the plan and, when
/// something of its subtree is read, its trace, whose leaf is this
/// instance.
#[derive(Clone)]
struct Inst {
    at: usize,
    trace: Option<Trace>,
}

impl Inst {
    /// A submission's root instance — where observation is decided.
    fn root<R: Runtime>(rt: &R) -> Self {
        let at = Plan::ROOT;
        let trace = rt
            .observed()
            .map(|empty| Self::trace(&empty, rt.plan().node(at)));
        Inst { at, trace }
    }

    /// A fresh instance of the node at entry `at`, nested in this one.
    /// One whose subtree nobody reads is an index and nothing else.
    fn child<R: Runtime>(&self, rt: &R, at: usize) -> Self {
        let trace = self
            .trace
            .as_ref()
            .filter(|_| rt.traced(at))
            .map(|above| Self::trace(above, rt.plan().node(at)));
        Inst { at, trace }
    }

    /// The trace of a fresh observed instance of `node` under `above`,
    /// with a fresh id. The trace of a node with children is joined here,
    /// once, so that all of them share its path; a `seq` leaf's shares
    /// its parent's.
    fn trace(above: &Trace, node: &Node) -> Trace {
        let trace = above.child(node.id, InstanceId::fresh(), node.tag());
        match node.kind {
            NodeKind::Seq { .. } => trace,
            _ => trace.joined(),
        }
    }

    fn observed(&self) -> bool {
        self.trace.is_some()
    }

    fn node<'p>(&self, plan: &'p Plan) -> &'p Node {
        plan.node(self.at)
    }

    /// The entry of this instance's `k`-th child node.
    fn kid<R: Runtime>(&self, rt: &R, k: usize) -> usize {
        rt.plan().kid(self.at, k)
    }

    fn muscle<R: Runtime>(&self, rt: &R, role: MuscleRole) -> MuscleId {
        MuscleId::new(self.node(rt.plan()).id, role)
    }

    /// Raises an event carrying one partial solution.
    fn one<R: Runtime>(
        &mut self,
        rt: &mut R,
        when: When,
        wher: Where,
        info: EventInfo,
        d: &mut Data,
    ) {
        self.emit(rt, when, wher, info, &mut Payload::Single(d));
    }

    /// Raises an event carrying several (split results, merge inputs).
    fn many<R: Runtime>(
        &mut self,
        rt: &mut R,
        when: When,
        wher: Where,
        info: EventInfo,
        d: &mut Vec<Data>,
    ) {
        self.emit(rt, when, wher, info, &mut Payload::Many(d));
    }

    /// Lends the instance's trace to the event for the time of the call.
    fn emit<R: Runtime>(
        &mut self,
        rt: &mut R,
        when: When,
        wher: Where,
        info: EventInfo,
        payload: &mut Payload<'_>,
    ) {
        if let Some(trace) = self.trace.take() {
            self.trace = Some(rt.emit(self.at, trace, when, wher, info, payload));
        }
    }

    /// The continuation closing a kind whose single child's result is its
    /// own (`farm`, `if`, a `d&C` leaf): child `k` ended, the skeleton
    /// ended. It only emits, so an unobserved instance passes `cont`
    /// through without a box.
    fn closing<R: Runtime>(mut self, k: usize, cont: Cont<R>) -> Cont<R> {
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

/// A `for`, `while` or `pipe` instance between its iterations (stages):
/// the instance, how many have run, and its own continuation.
struct Frame<R> {
    inst: Inst,
    k: usize,
    cont: Cont<R>,
}

impl<R: Runtime> Frame<R> {
    fn new(inst: Inst, cont: Cont<R>) -> Box<Self> {
        Box::new(Frame { inst, k: 0, cont })
    }

    /// Iteration (stage) `k` ended with `out`: on to the next.
    fn next(mut self: Box<Self>, rt: &mut R, mut out: Data) {
        let k = self.k;
        self.k += 1;
        match self.inst.node(rt.plan()).tag() {
            KindTag::For => {
                self.inst
                    .one(rt, After, NestedSkeleton, Iteration(k), &mut out);
                for_iteration(rt, self, out);
            }
            KindTag::Pipe => {
                self.inst
                    .one(rt, After, NestedSkeleton, ChildIndex(k), &mut out);
                pipe_stage(rt, self, out);
            }
            KindTag::While => {
                self.inst
                    .one(rt, After, NestedSkeleton, ChildIndex(k), &mut out);
                // The next condition is a muscle call: its own step.
                let at = self.inst.at;
                rt.spawn(at, Hint::Run, move |rt| while_loop(rt, self, out));
            }
            _ => unreachable!("a frame belongs to a loop or a pipe"),
        }
    }

    /// The instance ends with `out`.
    fn close(self, rt: &mut R, mut out: Data) {
        let Frame { mut inst, cont, .. } = self;
        inst.one(rt, After, Skeleton, EventInfo::None, &mut out);
        cont.run(rt, out);
    }

    /// Schedules the body (stage) the frame's instance runs next on
    /// `data`, completing into this frame.
    fn descend(self: Box<Self>, rt: &mut R, kid: usize, data: Data) {
        let child = self.inst.child(rt, self.inst.kid(rt, kid));
        schedule(rt, child, data, Cont::Frame(self), Hint::Run);
    }
}

/// Starts a submission: schedules the root of [`Runtime::plan`] on
/// `data`; `done` receives the result. A structural root raises its
/// opening events here, in the caller's step.
pub fn start<R: Runtime>(rt: &mut R, data: Data, done: BoxedCont<R>) {
    let root = Inst::root(rt);
    schedule(rt, root, data, Cont::F(done), Hint::Run);
}

/// Structural kinds recurse inline in a tail position; a muscle kind's
/// entry step, and a structural one handed out as a sibling, go to the
/// runtime. An unobserved subtree with no fan-out is one step of its own
/// (see the module docs).
fn schedule<R: Runtime>(
    rt: &mut R,
    inst: Inst,
    data: Data,
    cont: Cont<R>,
    hint: Hint<'_, R::Batch>,
) {
    let tag = inst.node(rt.plan()).tag();
    if !R::METERED && tag != KindTag::Seq && !inst.observed() && rt.plan().fanless(inst.at) {
        return rt.spawn(inst.at, hint, move |rt| fanless(rt, inst, data, cont));
    }
    let structural = matches!(tag, KindTag::Farm | KindTag::Pipe | KindTag::For);
    // A sibling that recursed inline would run its first muscle (a loop,
    // up to 64 of them) before the rest of its fan-out is out for thieves.
    if structural && matches!(hint, Hint::Run) {
        return enter(rt, inst, data, cont);
    }
    rt.spawn(inst.at, hint, move |rt| enter(rt, inst, data, cont));
}

/// The instance's first step, by kind.
fn enter<R: Runtime>(rt: &mut R, inst: Inst, data: Data, cont: Cont<R>) {
    match inst.node(rt.plan()).tag() {
        KindTag::Seq => seq(rt, inst, data, cont),
        KindTag::Farm => farm(rt, inst, data, cont),
        KindTag::Pipe => pipe(rt, inst, data, cont),
        KindTag::For => for_loop(rt, inst, data, cont),
        KindTag::While => while_loop(rt, Frame::new(inst, cont), data),
        KindTag::If => if_else(rt, inst, data, cont),
        KindTag::Map | KindTag::Fork => split(rt, inst, data, cont),
        KindTag::DivideConquer => dac(rt, inst, data, cont),
    }
}

/// A whole unobserved subtree with no fan-out, run by the sequential
/// reference in this one step. To the runtime it is one execute muscle
/// of its root's node, metered so that the next event of the step reads
/// the clock afresh.
fn fanless<R: Runtime>(rt: &mut R, inst: Inst, data: Data, cont: Cont<R>) {
    rt.meter(inst.muscle(rt, MuscleRole::Execute), 1, &*data);
    match seq_eval(inst.node(rt.plan()), data) {
        Ok(out) => cont.run(rt, out),
        Err(e) => rt.fail(Fault::Eval(e)),
    }
}

fn seq<R: Runtime>(rt: &mut R, mut inst: Inst, mut data: Data, cont: Cont<R>) {
    let end = match inst.observed().then(|| rt.span_start()).flatten() {
        Some(start) => EventInfo::Started(start),
        None => {
            inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
            EventInfo::None
        }
    };
    let cost = rt.meter(inst.muscle(rt, MuscleRole::Execute), 1, &*data);
    let NodeKind::Seq { fe } = &inst.node(rt.plan()).kind else {
        unreachable!("tag checked by dispatcher")
    };
    let mut out = fe.call(data);
    rt.busy(cost, move |rt| {
        inst.one(rt, After, Skeleton, end, &mut out);
        cont.run(rt, out);
    });
}

fn farm<R: Runtime>(rt: &mut R, mut inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    inst.one(rt, Before, NestedSkeleton, ChildIndex(0), &mut data);
    let child = inst.child(rt, inst.kid(rt, 0));
    schedule(rt, child, data, inst.closing(0, cont), Hint::Run);
}

fn pipe<R: Runtime>(rt: &mut R, mut inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    pipe_stage(rt, Frame::new(inst, cont), data);
}

fn pipe_stage<R: Runtime>(rt: &mut R, mut frame: Box<Frame<R>>, mut data: Data) {
    let NodeKind::Pipe { stages } = &frame.inst.node(rt.plan()).kind else {
        unreachable!("tag checked by dispatcher")
    };
    let k = frame.k;
    if k == stages.len() {
        return frame.close(rt, data);
    }
    frame
        .inst
        .one(rt, Before, NestedSkeleton, ChildIndex(k), &mut data);
    frame.descend(rt, k, data);
}

/// Iteration `frame.k`'s condition, in its own step.
fn while_loop<R: Runtime>(rt: &mut R, mut frame: Box<Frame<R>>, mut data: Data) {
    let iter = frame.k;
    let inst = &mut frame.inst;
    if iter == 0 {
        inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    }
    inst.one(rt, Before, Condition, EventInfo::None, &mut data);
    let cost = rt.meter(inst.muscle(rt, MuscleRole::Condition), 1, &*data);
    let NodeKind::While { fc, .. } = &inst.node(rt.plan()).kind else {
        unreachable!("tag checked by dispatcher")
    };
    let verdict = fc.call(&data);
    rt.busy(cost, move |rt| {
        let inst = &mut frame.inst;
        inst.one(rt, After, Condition, ConditionResult(verdict), &mut data);
        if !verdict {
            return frame.close(rt, data);
        }
        inst.one(rt, Before, NestedSkeleton, ChildIndex(iter), &mut data);
        frame.descend(rt, 0, data);
    });
}

fn if_else<R: Runtime>(rt: &mut R, mut inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    inst.one(rt, Before, Condition, EventInfo::None, &mut data);
    let cost = rt.meter(inst.muscle(rt, MuscleRole::Condition), 1, &*data);
    let NodeKind::If { fc, .. } = &inst.node(rt.plan()).kind else {
        unreachable!("tag checked by dispatcher")
    };
    let verdict = fc.call(&data);
    rt.busy(cost, move |rt| {
        inst.one(rt, After, Condition, ConditionResult(verdict), &mut data);
        // The then-branch is child 0, the else-branch child 1.
        let k = usize::from(!verdict);
        inst.one(rt, Before, NestedSkeleton, ChildIndex(k), &mut data);
        let child = inst.child(rt, inst.kid(rt, k));
        schedule(rt, child, data, inst.closing(k, cont), Hint::Run);
    });
}

fn for_loop<R: Runtime>(rt: &mut R, mut inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    for_iteration(rt, Frame::new(inst, cont), data);
}

fn for_iteration<R: Runtime>(rt: &mut R, mut frame: Box<Frame<R>>, mut data: Data) {
    let NodeKind::For { n, .. } = frame.inst.node(rt.plan()).kind else {
        unreachable!("tag checked by dispatcher")
    };
    let k = frame.k;
    if k == n {
        return frame.close(rt, data);
    }
    frame
        .inst
        .one(rt, Before, NestedSkeleton, Iteration(k), &mut data);
    frame.descend(rt, 0, data);
}

/// `map` and `fork`: split, then fan the parts out — to one shared inner
/// skeleton, or to one branch each.
fn split<R: Runtime>(rt: &mut R, mut inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    inst.one(rt, Before, Split, EventInfo::None, &mut data);
    let cost = rt.meter(inst.muscle(rt, MuscleRole::Split), 1, &*data);
    let (NodeKind::Map { fs, .. } | NodeKind::Fork { fs, .. }) = &inst.node(rt.plan()).kind else {
        unreachable!("tag checked by dispatcher")
    };
    let mut parts = fs.call(data);
    rt.busy(cost, move |rt| {
        inst.many(rt, After, Split, SplitCardinality(parts.len()), &mut parts);
        let node = inst.node(rt.plan());
        if let NodeKind::Fork { inners, .. } = &node.kind {
            if parts.len() != inners.len() {
                let mismatch = EvalError::ForkArityMismatch {
                    node: node.id,
                    branches: inners.len(),
                    produced: parts.len(),
                };
                return rt.fail(Fault::Eval(mismatch));
            }
        }
        fan_out(rt, inst, parts, cont);
    });
}

fn dac<R: Runtime>(rt: &mut R, mut inst: Inst, mut data: Data, cont: Cont<R>) {
    inst.one(rt, Before, Skeleton, EventInfo::None, &mut data);
    inst.one(rt, Before, Condition, EventInfo::None, &mut data);
    let cost = rt.meter(inst.muscle(rt, MuscleRole::Condition), 1, &*data);
    let NodeKind::DivideConquer { fc, .. } = &inst.node(rt.plan()).kind else {
        unreachable!("tag checked by dispatcher")
    };
    let divide = fc.call(&data);
    rt.busy(cost, move |rt| {
        inst.one(rt, After, Condition, ConditionResult(divide), &mut data);
        if !divide {
            inst.one(rt, Before, NestedSkeleton, ChildIndex(0), &mut data);
            let child = inst.child(rt, inst.kid(rt, 0));
            return schedule(rt, child, data, inst.closing(0, cont), Hint::Run);
        }
        inst.one(rt, Before, Split, EventInfo::None, &mut data);
        let cost = rt.meter(inst.muscle(rt, MuscleRole::Split), 1, &*data);
        let NodeKind::DivideConquer { fs, .. } = &inst.node(rt.plan()).kind else {
            unreachable!("tag checked above")
        };
        let mut parts = fs.call(data);
        rt.busy(cost, move |rt| {
            inst.many(rt, After, Split, SplitCardinality(parts.len()), &mut parts);
            if parts.is_empty() {
                let node = inst.node(rt.plan()).id;
                return rt.fail(Fault::Eval(EvalError::EmptySplit { node }));
            }
            fan_out(rt, inst, parts, cont);
        });
    });
}

/// The entry of the skeleton child `k` of a fan-out runs: `map`'s one
/// inner skeleton, `fork`'s k-th branch, or — `d&C` — a new instance of
/// the node itself.
fn fan_child(plan: &Plan, at: usize, k: usize) -> usize {
    match plan.node(at).kind {
        NodeKind::Map { .. } => plan.kid(at, 0),
        NodeKind::Fork { .. } => plan.kid(at, k),
        NodeKind::DivideConquer { .. } => at,
        _ => unreachable!("fan-out on a kind without a split muscle"),
    }
}

/// The merge muscle of the fan-out kind at entry `at`.
fn merge_muscle(plan: &Plan, at: usize) -> &MergeFn {
    let (NodeKind::Map { fm, .. } | NodeKind::Fork { fm, .. } | NodeKind::DivideConquer { fm, .. }) =
        &plan.node(at).kind
    else {
        unreachable!("merge scheduled on a kind without a merge muscle")
    };
    fm
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
    /// A join for `n` children of `inst`, which hands `cont` the results.
    fn new(inst: Inst, n: usize, cont: Cont<R>) -> Self {
        let state = JoinState {
            slots: (0..n).map(|_| None).collect(),
            remaining: n,
            cont: Some(cont),
        };
        Join {
            inst,
            state: Mutex::new(state),
        }
    }

    /// Records the `(k, result)` of one or more children under one lock
    /// acquisition; the closing completion gets the slot vector **as-is**
    /// for [`askel_skeletons::MergeFn::call_slots`].
    ///
    /// A child completing twice, or after the continuation left, is an
    /// `Err` rather than a panic, so a race against a poisoned sibling
    /// poisons the submission and not the worker.
    fn complete(
        &self,
        results: impl IntoIterator<Item = (usize, Data)>,
    ) -> Result<Option<Closed<R>>, &'static str> {
        let mut state = self.state.lock();
        for (k, value) in results {
            match state.slots.get_mut(k) {
                Some(slot @ None) => *slot = Some(value),
                Some(Some(_)) => return Err("fan-out child completed its join twice"),
                None => return Err("fan-out child index out of join bounds"),
            }
            state.remaining -= 1;
        }
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
/// Children that are all unobserved and fan-less go to claimers instead
/// ([`claim_out`]) on a runtime that meters nothing.
fn fan_out<R: Runtime>(rt: &mut R, inst: Inst, parts: Vec<Data>, cont: Cont<R>) {
    let n = parts.len();
    if n == 0 {
        return merge(rt, inst, Vec::new(), cont);
    }
    if !R::METERED && claimable(rt, &inst) {
        return claim_out(rt, inst, parts, cont);
    }
    // The children's completions raise the parent's events through the
    // join's copy; the fan-out raises its markers through its own.
    let mut parent = inst.clone();
    let join = Arc::new(Join::new(inst, n, cont));
    let mut batch = R::batch(if n > 2 { n - 1 } else { 0 });
    let mut last = None;
    for (k, mut part) in parts.into_iter().enumerate() {
        parent.one(rt, Before, NestedSkeleton, ChildIndex(k), &mut part);
        let child = parent.child(rt, fan_child(rt.plan(), parent.at, k));
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

/// Whether every child instance of the `map` or `fork` `inst` would be
/// untraced and fan-less. A `d&C`'s children are the `d&C` again, never
/// fan-less.
fn claimable<R: Runtime>(rt: &R, inst: &Inst) -> bool {
    let plan = rt.plan();
    let quiet = |kid| plan.fanless(kid) && !(inst.observed() && rt.traced(kid));
    plan.node(inst.at).tag() != KindTag::DivideConquer && plan.kids(inst.at).all(quiet)
}

/// A fan-out whose children claimers run: the join, and the parts no
/// claimer has taken yet, in order — the one shared cursor.
struct Claims<R> {
    join: Join<R>,
    unclaimed: Mutex<std::iter::Enumerate<std::vec::IntoIter<Data>>>,
}

/// Fans `parts` out to at most [`Runtime::width`] claimers, each of which
/// runs children one claim at a time until none is left ([`claim`]).
/// The parent raises its `Before` markers here, all of them, as the
/// stepwise path raises them while it hands its children out. All
/// claimers but one go out as one stealable batch; the last takes the
/// tail position.
fn claim_out<R: Runtime>(rt: &mut R, mut inst: Inst, mut parts: Vec<Data>, cont: Cont<R>) {
    let (at, n) = (inst.at, parts.len());
    for (k, part) in parts.iter_mut().enumerate() {
        inst.one(rt, Before, NestedSkeleton, ChildIndex(k), part);
    }
    let claims = Arc::new(Claims {
        join: Join::new(inst, n, cont),
        unclaimed: Mutex::new(parts.into_iter().enumerate()),
    });
    let claimers = rt.width().clamp(1, n);
    let mut batch = R::batch(claimers - 1);
    for _ in 1..claimers {
        let claims = Arc::clone(&claims);
        rt.spawn(at, Hint::Batch(&mut batch), move |rt| claim(rt, &claims));
    }
    rt.flush(batch);
    rt.spawn(at, Hint::Run, move |rt| claim(rt, &claims));
}

/// One claimer: takes the next unclaimed child until none is left, runs
/// each through the sequential reference, metered as one muscle so that
/// the parent's `After` marker reads the clock afresh, and completes the
/// join once for all it ran. One step to the runtime's guard: a panic
/// fails the item and leaves the join open.
fn claim<R: Runtime>(rt: &mut R, claims: &Claims<R>) {
    let mut parent = claims.join.inst.clone();
    let mut done = Vec::new();
    loop {
        // The cursor's lock is held for the claim alone (a `while let`
        // would hold it through the child).
        let Some((k, part)) = claims.unclaimed.lock().next() else {
            break;
        };
        let entry = fan_child(rt.plan(), parent.at, k);
        let muscle = MuscleId::new(rt.plan().node(entry).id, MuscleRole::Execute);
        rt.meter(muscle, 1, &*part);
        let mut out = match seq_eval(rt.plan().node(entry), part) {
            Ok(out) => out,
            Err(e) => return rt.fail(Fault::Eval(e)),
        };
        parent.one(rt, After, NestedSkeleton, ChildIndex(k), &mut out);
        done.push((k, out));
    }
    if done.is_empty() {
        // Its siblings took every child; the join is theirs to close.
        return;
    }
    match claims.join.complete(done) {
        Ok(Some((slots, cont))) => merge(rt, parent, slots, cont),
        Ok(None) => {}
        Err(msg) => rt.fail(Fault::Internal(msg)),
    }
}

/// The merge step, spawned by whichever child closed the join.
fn merge<R: Runtime>(rt: &mut R, mut inst: Inst, slots: Vec<Option<Data>>, cont: Cont<R>) {
    rt.spawn(inst.at, Hint::Run, move |rt| {
        let id = inst.muscle(rt, MuscleRole::Merge);
        let (cost, mut out) = if inst.observed() || R::METERED {
            // Listeners may transform the partial results and a cost
            // model may inspect them: both get the plain vector shape.
            let mut results: Vec<Data> = slots
                .into_iter()
                .map(|s| s.expect("fan-out result slot unfilled at merge"))
                .collect();
            inst.many(rt, Before, Merge, EventInfo::None, &mut results);
            let cost = rt.meter(id, results.len(), &results);
            (cost, merge_muscle(rt.plan(), inst.at).call(results))
        } else {
            // The join's slot vector feeds the muscle with no re-collect.
            let cost = rt.meter(id, slots.len(), &slots);
            (cost, merge_muscle(rt.plan(), inst.at).call_slots(slots))
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
