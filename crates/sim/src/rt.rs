//! The discrete-event runtime: virtual clock, worker slots, policy-ordered
//! ready/completion queues, and component ticks.
//!
//! [`SimRt`] implements [`Runtime`] for the shared skeleton interpreter
//! ([`askel_events::interp`]) — the same per-kind code the threaded engine
//! runs, so what the simulator schedules, fuzzes and times is what ships.
//! Here a spawned step joins the policy-ordered ready pool under its
//! node's placement tag (the dispatch hint means nothing on one thread),
//! carrying its submission's [`Plan`] — items of several programs (a
//! stream across a rewrite) share the machine — and a
//! muscle is priced by the cost model before it is called for real, and
//! what follows it waits in the completion queue until its virtual
//! duration has passed. Every work step, and the scheduling of every
//! root, runs under [`SimRt::guarded`].
//!
//! The machine's one way in and out is a **push stream**:
//! [`SimRt::submit`] an item, [`SimRt::try_next`] for what has finished,
//! [`SimRt::wait`] — the one driver — to advance virtual time until
//! something does. `SimEngine::run`, `run_stream` and
//! [`SimStream`](crate::SimStream) are built from those three calls.

use std::any::Any;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use askel_events::interp::{self, panic_message, Fault, Hint, Runtime};
use askel_events::{
    Event, EventInfo, ListenerRegistry, ListenerSnapshot, Payload, PlanView, Trace, When, Where,
};
use askel_pool::PoolTelemetry;
use askel_skeletons::{Clock, Data, ManualClock, MuscleId, Plan, TimeNs};

use crate::components::{Command, Component};
use crate::cost::{CostModel, MuscleCall};
use crate::sched::{EventQueue, OrderingPolicy, ReadyQueue};
use crate::workers::WorkerModel;
use crate::{SimError, SimLpControl, StreamReport};

/// A unit of simulated work. A step that ends in [`Runtime::busy`] keeps
/// its worker occupied until `now + dur`, when the parked continuation
/// runs; any other step ends its chain and releases the worker.
pub(crate) type SimWork = Box<dyn FnOnce(&mut SimRt) + Send>;

/// What a submission's steps share: its program, and the listeners
/// sampled when it was made, compiled against the program (`None` when
/// nothing of it is read).
struct Sub {
    plan: Arc<Plan>,
    view: Option<PlanView>,
}

/// A ready task: its submission, the plan entry of the node that
/// produced it (whose placement annotation constrains where it runs) and
/// the work.
pub(crate) struct ReadyTask {
    sub: Arc<Sub>,
    at: usize,
    work: SimWork,
}

impl ReadyTask {
    /// Where the task must run; `None` = anywhere.
    fn placement(&self) -> Option<&str> {
        self.sub.plan.node(self.at).placement.as_deref()
    }
}

/// A scheduled chain continuation: the slot it occupies, its submission
/// and the work to resume. Timing and tie-breaking live in the
/// [`EventQueue`].
struct Completion {
    sub: Arc<Sub>,
    work: SimWork,
    slot: usize,
}

/// One finished item: its submission index and how it ended.
pub(crate) type Finished = (usize, Result<Data, SimError>);

/// Stands in a caller's slice for a component on loan to the machine.
struct OnLoan;

impl Component for OnLoan {
    fn next_tick(&self, _now: TimeNs) -> Option<TimeNs> {
        None
    }

    fn tick(&mut self, _now: TimeNs) -> Vec<Command> {
        Vec::new()
    }
}

/// The simulated machine, threaded through every work step: built once
/// per [`SimEngine`](crate::SimEngine), its services and worker model
/// persist while [`begin`](SimRt::begin) starts a fresh [`Run`].
pub(crate) struct SimRt {
    pub(crate) now: TimeNs,
    pub(crate) clock: Arc<ManualClock>,
    pub(crate) registry: Arc<ListenerRegistry>,
    /// The registry's listeners, and the generation they were read at.
    listeners: (u64, Option<Arc<ListenerSnapshot>>),
    cost: Arc<dyn CostModel>,
    pub(crate) telemetry: Arc<PoolTelemetry>,
    pub(crate) lp_control: SimLpControl,
    /// The last LP target [`apply_lp_request`](SimRt::apply_lp_request)
    /// applied.
    lp_applied: usize,
    pub(crate) policy: OrderingPolicy,
    pub(crate) workers: Box<dyn WorkerModel>,
    /// On loan from the caller from [`begin`](SimRt::begin) to `end`.
    components: Vec<Box<dyn Component>>,
    /// The submission whose step runs now (see [`Runtime::plan`]);
    /// `None` between steps.
    sub: Option<Arc<Sub>>,
    pub(crate) run: Run,
}

/// What one run — one `SimEngine::run`, or one stream — accumulates:
/// queues (with the policy's tie keys), slot occupancy, muscle invocation
/// counters, item indices and totals.
pub(crate) struct Run {
    ready: ReadyQueue<ReadyTask>,
    completions: EventQueue<Completion>,
    /// Slots currently running a chain.
    occupied: BTreeSet<usize>,
    /// Slots below capacity and not occupied — kept in lock-step with
    /// `occupied` so slot picks are O(log n) instead of O(capacity).
    free: BTreeSet<usize>,
    muscle_counts: HashMap<MuscleId, u64>,
    /// What the step now executing parked with [`Runtime::busy`]: the
    /// metered duration and the work to resume after it.
    parked: Option<(TimeNs, SimWork)>,
    error: Option<SimError>,
    /// Items submitted so far; the next index.
    pub(crate) submitted: usize,
    /// Indices submitted and not yet finished, oldest first.
    pub(crate) in_flight: Vec<usize>,
    /// Finished items nobody has taken yet, in completion order.
    done: VecDeque<Finished>,
    /// Start, items finished, events (work steps + component ticks).
    totals: StreamReport,
}

impl Run {
    fn new(policy: OrderingPolicy, now: TimeNs) -> Run {
        Run {
            ready: ReadyQueue::new(policy),
            completions: EventQueue::new(policy),
            occupied: BTreeSet::new(),
            free: BTreeSet::new(),
            muscle_counts: HashMap::new(),
            parked: None,
            error: None,
            submitted: 0,
            in_flight: Vec::new(),
            done: VecDeque::new(),
            totals: StreamReport {
                items: 0,
                events: 0,
                started_at: now,
                finished_at: now,
            },
        }
    }
}

impl Runtime for SimRt {
    type Cost = TimeNs;
    type Batch = ();
    const METERED: bool = true;

    fn plan(&self) -> &Plan {
        &self.sub().plan
    }

    fn observed(&self) -> Option<Trace> {
        self.sub().view.as_ref().map(|_| Trace::empty())
    }

    fn traced(&self, at: usize) -> bool {
        self.sub().view.as_ref().is_some_and(|view| view.traced(at))
    }

    /// Emits an event at the current virtual instant, through the view
    /// the submission was made with while the registry stands, as the
    /// threaded runtime does.
    fn emit(
        &mut self,
        at: usize,
        trace: Trace,
        when: When,
        wher: Where,
        info: EventInfo,
        payload: &mut Payload<'_>,
    ) -> Trace {
        let now = self.now;
        self.with_view(|view| {
            let Some(view) = view.filter(|view| view.wants(at, when, wher)) else {
                return trace;
            };
            let event = Event::of(trace, when, wher, info, now);
            view.dispatch(at, payload, &event);
            event.trace
        })
    }

    /// The step's start, when every listener the event would go to
    /// accepts spans.
    fn span_start(&mut self) -> Option<TimeNs> {
        let now = self.now;
        self.with_view(|view| view.is_some_and(PlanView::accepts_spans).then_some(now))
    }

    /// Queues the step on the policy-ordered ready pool, tagged with the
    /// node at plan entry `at`, whose placement annotation it honours.
    fn spawn(
        &mut self,
        at: usize,
        _hint: Hint<'_, ()>,
        step: impl FnOnce(&mut Self) + Send + 'static,
    ) {
        let sub = Arc::clone(self.sub.as_ref().expect("a step runs for a submission"));
        self.run.ready.push(ReadyTask {
            sub,
            at,
            work: Box::new(step),
        });
    }

    fn batch(_n: usize) {}

    fn flush(&mut self, (): ()) {}

    /// Asks the cost model for this invocation's duration and advances the
    /// muscle's invocation counter.
    fn meter(&mut self, muscle: MuscleId, items: usize, payload: &dyn Any) -> TimeNs {
        let seq_no = {
            let c = self.run.muscle_counts.entry(muscle).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        self.cost.duration(&MuscleCall {
            muscle,
            role: muscle.role,
            seq_no,
            items,
            payload,
        })
    }

    fn busy(&mut self, dur: TimeNs, then: impl FnOnce(&mut Self) + Send + 'static) {
        debug_assert!(self.run.parked.is_none(), "one muscle per work step");
        self.run.parked = Some((dur, Box::new(then)));
    }

    fn fail(&mut self, fault: Fault) {
        self.poison(match fault {
            Fault::Eval(e) => SimError::Eval(e),
            Fault::Internal(msg) => SimError::MusclePanic(msg.into()),
        });
    }

    /// The simulated worker slots now enabled.
    fn width(&self) -> usize {
        self.workers.capacity()
    }
}

impl SimRt {
    fn sub(&self) -> &Sub {
        self.sub.as_deref().expect("a step runs for a submission")
    }

    /// The registry's listeners compiled against `plan`, read again only
    /// when the registry has moved.
    fn view(&mut self, plan: &Arc<Plan>) -> Option<PlanView> {
        let generation = self.registry.generation();
        if generation != self.listeners.0 {
            self.listeners = (generation, self.registry.snapshot());
        }
        let listeners = self.listeners.1.as_ref()?;
        Some(listeners.view(plan))
    }

    /// Hands `f` the view an event of the running step goes through:
    /// the one its submission was made with while the registry stands,
    /// the registry's listeners now once it has moved.
    fn with_view<T>(&mut self, f: impl FnOnce(Option<&PlanView>) -> T) -> T {
        let taken = self.sub().view.as_ref().map(PlanView::generation);
        if taken.is_none_or(|taken| taken == self.registry.generation()) {
            return f(self.sub().view.as_ref());
        }
        let plan = Arc::clone(&self.sub().plan);
        f(self.view(&plan).as_ref())
    }

    /// Runs a piece of interpreter work — muscle, listeners and
    /// continuation alike — converting a panic into a simulation failure.
    fn guarded(&mut self, f: impl FnOnce(&mut SimRt)) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(self))) {
            self.run.parked = None;
            self.poison(SimError::MusclePanic(panic_message(p.as_ref())));
        }
    }

    /// Poisons the run (first failure wins).
    fn poison(&mut self, err: SimError) {
        if self.run.error.is_none() {
            self.run.error = Some(err);
        }
    }

    /// Recomputes the free-slot set from capacity and occupancy. Called on
    /// construction, capacity changes, and error resets.
    pub(crate) fn rebuild_free(&mut self) {
        let capacity = self.workers.capacity();
        self.run.free = (0..capacity)
            .filter(|s| !self.run.occupied.contains(s))
            .collect();
    }

    /// Applies the standing LP target if it moved since the last one
    /// applied. A target the worker model clamps to the capacity it
    /// already has records nothing.
    pub(crate) fn apply_lp_request(&mut self) {
        let lp = self.lp_control.target();
        if lp == self.lp_applied {
            return;
        }
        self.lp_applied = lp;
        let before = self.workers.capacity();
        self.workers.set_capacity(lp);
        if self.workers.capacity() != before {
            self.telemetry
                .record_target(|| self.now, self.workers.capacity());
            self.rebuild_free();
        }
    }

    /// Picks the next `(ready index, worker slot)` pair to start, or
    /// `None` if nothing can start right now.
    ///
    /// Candidates are visited in the ordering policy's dispatch order
    /// (LIFO under `Deterministic` — the pre-refactor discipline). An
    /// unannotated task always takes the lowest free slot. A task whose
    /// placement names a currently-enabled node is **hard-constrained** to
    /// that node's slots (it waits, letting older ready tasks start, when
    /// the node is fully busy); a placement naming no enabled slot falls
    /// back to running anywhere, so placement can never stall the run.
    fn pick_ready(&self) -> Option<(usize, usize)> {
        let capacity = self.workers.capacity();
        let lowest_free = *self.run.free.first()?;
        for i in self.run.ready.order() {
            match self.run.ready.get(i).placement() {
                Some(p) if self.workers.placement_enabled(p) => {
                    // Prefer the model's contiguous slot-block hint
                    // (O(log n)); fall back to probing each free slot.
                    let slot = match self.workers.slot_range(p) {
                        Some((lo, hi)) => self
                            .run
                            .free
                            .range(lo.max(lowest_free)..hi.min(capacity))
                            .next()
                            .copied(),
                        None => self
                            .run
                            .free
                            .range(lowest_free..capacity)
                            .find(|&&s| self.workers.slot_matches(s, p))
                            .copied(),
                    };
                    if let Some(slot) = slot {
                        return Some((i, slot));
                    }
                    // The node exists but is fully busy: this task waits
                    // for it; another candidate may still start elsewhere.
                }
                _ => return Some((i, lowest_free)),
            }
        }
        None
    }

    fn execute(&mut self, sub: Arc<Sub>, work: SimWork, slot: usize, overhead: TimeNs) {
        self.run.totals.events += 1;
        self.sub = Some(sub);
        self.guarded(work);
        let sub = self.sub.take().expect("set above");
        match self.run.parked.take() {
            Some((dur, then)) => {
                // Asymmetric node speeds: the slot's cost factor scales
                // the muscle duration (not the communication overhead).
                let factor = self.workers.cost_factor(slot);
                let dur = if factor == 1.0 {
                    dur
                } else {
                    TimeNs(((dur.0 as f64) * factor.max(0.0)).round() as u64)
                };
                self.workers.note_busy(slot, dur + overhead);
                let completion = Completion {
                    sub,
                    work: then,
                    slot,
                };
                self.run
                    .completions
                    .push(self.now + dur + overhead, completion);
            }
            None => {
                self.run.occupied.remove(&slot);
                if slot < self.workers.capacity() {
                    self.run.free.insert(slot);
                }
                self.telemetry.record_task_end(|| self.now, false);
            }
        }
    }

    /// One scheduling round: apply pending LP requests, start every ready
    /// task a free slot will take, then advance virtual time to the next
    /// component tick or completion (ties tick components first, so a
    /// component observes the world as of strictly-earlier events).
    ///
    /// Returns `false` when the machine can make no further progress —
    /// drained, stalled, or poisoned.
    fn step(&mut self) -> bool {
        if self.run.error.is_some() {
            return false;
        }
        self.apply_lp_request();
        // Start ready work while worker slots are free. The slot's
        // communication overhead (zero for local workers) is charged on
        // the chain's first busy segment.
        loop {
            if self.run.ready.is_empty() {
                break;
            }
            let Some((index, slot)) = self.pick_ready() else {
                break;
            };
            self.run.occupied.insert(slot);
            self.run.free.remove(&slot);
            let task = self.run.ready.remove(index);
            let overhead = self.workers.chain_overhead(slot);
            self.telemetry.record_task_start(|| self.now);
            self.execute(task.sub, task.work, slot, overhead);
            if self.run.error.is_some() {
                return false;
            }
            self.apply_lp_request();
        }
        // Advance virtual time. Components only tick while completions
        // are pending: an idle machine costs nothing and the simulation
        // terminates regardless of what components would like next.
        let Some(completion_at) = self.run.completions.peek_at() else {
            if !self.run.ready.is_empty() && self.run.occupied.is_empty() {
                let (at, ready) = (self.now, self.run.ready.len());
                self.poison(SimError::Stalled { at, ready });
            }
            return false;
        };
        if !self.components.is_empty() {
            let due: Vec<(usize, TimeNs)> = self
                .components
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.next_tick(self.now).map(|t| (i, t)))
                .collect();
            if let Some(tick_at) = due
                .iter()
                .map(|&(_, t)| t)
                .min()
                .filter(|&t| t <= completion_at)
            {
                self.now = self.now.max(tick_at);
                self.clock.advance_to(self.now);
                for (i, t) in due {
                    if t <= self.now {
                        self.run.totals.events += 1;
                        for cmd in self.components[i].tick(self.now) {
                            match cmd {
                                Command::RequestLp(lp) => self.lp_control.request(lp),
                            }
                        }
                    }
                }
                return true;
            }
        }
        let Some((at, c)) = self.run.completions.pop() else {
            return false;
        };
        self.now = self.now.max(at);
        self.clock.advance_to(self.now);
        self.execute(c.sub, c.work, c.slot, TimeNs::ZERO);
        true
    }

    /// An idle machine at time zero, its ties ordered by `policy`.
    pub(crate) fn new(
        cost: Arc<dyn CostModel>,
        workers: Box<dyn WorkerModel>,
        policy: OrderingPolicy,
    ) -> SimRt {
        let clock = ManualClock::new();
        // The simulator is the Fig. 5–7 instrument: its timeline always
        // has a reader, so it records from the first sample on.
        let telemetry = PoolTelemetry::new();
        telemetry.set_recording(true);
        let mut rt = SimRt {
            now: clock.now(),
            run: Run::new(policy, clock.now()),
            clock,
            registry: ListenerRegistry::new(),
            listeners: (0, None),
            cost,
            telemetry: Arc::new(telemetry),
            lp_control: SimLpControl::new(workers.capacity()),
            lp_applied: workers.capacity(),
            policy,
            workers,
            components: Vec::new(),
            sub: None,
        };
        rt.rebuild_free();
        rt
    }

    /// Drops whatever is queued and starts a fresh [`Run`] under the
    /// current policy.
    pub(crate) fn restart(&mut self) {
        self.run = Run::new(self.policy, self.now);
        self.rebuild_free();
    }

    /// Starts a [`Run`]; virtual time and the worker model carry on.
    /// `components` tick until [`end`](SimRt::end) hands them back.
    pub(crate) fn begin(&mut self, components: &mut [Box<dyn Component>]) {
        self.now = self.clock.now();
        self.telemetry
            .record_target(|| self.now, self.workers.capacity());
        self.restart();
        self.components
            .resize_with(components.len(), || Box::new(OnLoan));
        self.components.swap_with_slice(components);
    }

    /// Returns the components [`begin`](SimRt::begin) took (the same
    /// slice) and reports the run's totals.
    pub(crate) fn end(&mut self, components: &mut [Box<dyn Component>]) -> StreamReport {
        self.components.swap_with_slice(components);
        self.components.clear();
        StreamReport {
            finished_at: self.now,
            ..self.run.totals
        }
    }

    /// Schedules one item's root, guarded, and returns its index;
    /// nothing runs until [`wait`](SimRt::wait) drives the machine.
    pub(crate) fn submit(&mut self, plan: &Arc<Plan>, input: Data) -> usize {
        let index = self.run.submitted;
        self.run.submitted += 1;
        self.run.in_flight.push(index);
        let view = self.view(plan).filter(|view| view.traced(Plan::ROOT));
        let plan = Arc::clone(plan);
        self.sub = Some(Arc::new(Sub { plan, view }));
        self.guarded(|rt| {
            let done = move |rt: &mut SimRt, data| rt.finish(index, Ok(data));
            interp::start(rt, input, Box::new(done));
        });
        self.sub = None;
        index
    }

    fn finish(&mut self, index: usize, outcome: Result<Data, SimError>) {
        self.run.in_flight.retain(|&i| i != index);
        self.run.totals.items += 1;
        self.run.done.push_back((index, outcome));
    }

    /// A finished item nobody has taken yet, without advancing time.
    pub(crate) fn try_next(&mut self) -> Option<Finished> {
        self.run.done.pop_front()
    }

    /// The stream driver: advances virtual time until an item finishes
    /// and returns it, in completion order; `None` when nothing is in
    /// flight.
    ///
    /// A failure — a poisoned step, or no progress possible with items
    /// still in flight — fails **every** item in flight with the same
    /// error and resets the queues: they share worker slots, and one
    /// poisoned chain cannot be unwound from under its neighbours.
    pub(crate) fn wait(&mut self) -> Option<Finished> {
        while self.run.done.is_empty() {
            if self.run.in_flight.is_empty() {
                return None;
            }
            let progressed = self.step();
            let err = match self.run.error.take() {
                Some(err) => err,
                None if progressed || !self.run.done.is_empty() => continue,
                None => SimError::Stalled {
                    at: self.now,
                    ready: self.run.ready.len(),
                },
            };
            self.run.ready.clear();
            self.run.completions.clear();
            self.run.occupied.clear();
            self.rebuild_free();
            for index in std::mem::take(&mut self.run.in_flight) {
                self.finish(index, Err(err.clone()));
            }
        }
        self.run.done.pop_front()
    }
}
