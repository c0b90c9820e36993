//! Safe-point application: the *Plan/Execute* half of self-configuration.
//!
//! [`Reconfigurator`] turns the rewrites a [`TriggerEngine`] planned into an
//! actual new skeleton version: it rewrites the tree (sharing untouched
//! subtrees), bumps the version, emits a `(After, Reconfigured)` event
//! through the listener registry and appends an [`AdaptRecord`] to the
//! decision log. It is engine-agnostic — the same type drives the threaded
//! engine and the discrete-event simulator, which is what makes rewrite
//! decisions reproducible in tests and benches.
//!
//! [`Adaptive`] wires it into a stream, once, for any [`StreamRuntime`]
//! — [`AdaptiveSession`] over the pool's `StreamSession`,
//! [`AdaptiveSimSession`] over the simulator's `SimStream`: a stream
//! whose skeleton is re-planned **between items** (the safe points).
//! Items already in flight always finish on the *tree* they were
//! submitted with; a subtree swap is only visible to subsequent feeds.
//! Knob retunes are live immediately (see [`crate::Knob`] for the
//! result-invariance contract that makes that safe).

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use askel_core::AutonomicController;
use askel_engine::{Engine, StreamSession};
use askel_events::{Event, ListenerRegistry, Payload, StreamRuntime, StreamTypes};
use askel_sim::components::Component;
use askel_sim::{SimEngine, SimError, SimStream, StreamReport};
use askel_skeletons::{Clock, Node, NodeId, Skel, TimeNs};

use crate::arbitration::{arbitrate, ConflictPolicy};
use crate::rules::RewriteAction;
use crate::trigger::{AdaptRecord, PlannedRewrite, TriggerEngine};

/// Input-size probe recorded per fed item. `Send` so a session can move
/// across threads (the serving layer shards sessions over workers).
type SizeProbe<P> = Box<dyn Fn(&P) -> usize + Send>;

/// A skeleton plus its rewrite version: 0 as constructed, +1 per applied
/// rewrite. In-flight executions keep the `Arc`'d version they started
/// with, so versions never tear mid-item.
#[derive(Clone)]
pub struct VersionedSkel<P, R> {
    skel: Skel<P, R>,
    version: u64,
}

impl<P, R> VersionedSkel<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// Version 0 of `skel`.
    pub fn new(skel: &Skel<P, R>) -> Self {
        VersionedSkel {
            skel: skel.clone(),
            version: 0,
        }
    }

    /// The current skeleton.
    pub fn skel(&self) -> &Skel<P, R> {
        &self.skel
    }

    /// The current version (number of rewrites applied).
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Applies planned rewrites at safe points; see the module docs.
pub struct Reconfigurator {
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    trigger: Arc<TriggerEngine>,
    lp: Box<dyn Fn() -> usize + Send + Sync>,
    policy: ConflictPolicy,
    /// A WCT controller whose estimator history is invalidated alongside
    /// the trigger's on every applied subtree replacement.
    controller: Option<Arc<AutonomicController>>,
}

impl Reconfigurator {
    /// A reconfigurator emitting through `registry` with timestamps from
    /// `clock`. The LP source defaults to 1; see
    /// [`lp_source`](Reconfigurator::lp_source).
    pub fn new(
        registry: Arc<ListenerRegistry>,
        clock: Arc<dyn Clock>,
        trigger: Arc<TriggerEngine>,
    ) -> Self {
        Reconfigurator {
            registry,
            clock,
            trigger,
            lp: Box::new(|| 1),
            policy: ConflictPolicy::default(),
            controller: None,
        }
    }

    /// Sets where the current level of parallelism is read from (rules
    /// like `RetuneWidth` scale structure to it).
    pub fn lp_source(mut self, f: impl Fn() -> usize + Send + Sync + 'static) -> Self {
        self.lp = Box::new(f);
        self
    }

    /// Sets how conflicting rule fires are resolved at each safe point
    /// (default [`ConflictPolicy::PriorityWins`]); see
    /// [`crate::arbitration`].
    pub fn conflict_policy(mut self, policy: ConflictPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Keeps a WCT controller's estimator table consistent with the
    /// rewritten tree: on every applied subtree replacement, the
    /// replaced nodes' history is invalidated in `controller` as well as
    /// in the trigger engine
    /// ([`AutonomicController::invalidate_estimates_for`]) — the
    /// controller↔trigger feedback loop, so post-rewrite forecasts on
    /// either side are computed from the live tree.
    pub fn sync_controller(mut self, controller: Arc<AutonomicController>) -> Self {
        self.controller = Some(controller);
        self
    }

    /// The trigger engine this reconfigurator plans with.
    pub fn trigger(&self) -> &Arc<TriggerEngine> {
        &self.trigger
    }

    /// One safe point: plans against the current statistics,
    /// **arbitrates** the collected fires (see [`crate::arbitration`])
    /// and applies the winning set to `vskel`, emitting one
    /// `(After, Reconfigured)` event and one decision-log record per
    /// applied rewrite. Returns how many rewrites were applied.
    ///
    /// Bookkeeping around the winners:
    ///
    /// * **Suppressed losers** — fires that conflicted with a winner (or
    ///   were blocked by a veto) are logged as `suppressed by \`rule\``
    ///   records (no version bump) and their rules re-armed (so a
    ///   once-rule is not lost); idle vetoes are re-armed but not logged.
    /// * **Skipped plans** — a `Replace`/`Place` whose target no longer
    ///   occurs (an earlier rewrite *in the same safe point* removed it)
    ///   is not applied: the rule is re-armed and a `skipped` entry
    ///   lands in the log. At the next safe point the rule re-evaluates
    ///   against the new tree (the built-in replacement rules gate on
    ///   their target being present).
    /// * **Estimator invalidation** — every applied `Replace` drops the
    ///   replaced nodes' estimator history from the trigger engine (and
    ///   from a [`sync_controller`](Reconfigurator::sync_controller)'d
    ///   WCT controller), so the next forecast cannot cite a tree that
    ///   no longer exists, and notifies rules via
    ///   [`Rule::on_replaced`](crate::Rule::on_replaced).
    pub fn apply<P, R>(&self, vskel: &mut VersionedSkel<P, R>) -> usize
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        let now = self.clock.now();
        let plans = self
            .trigger
            .plan(vskel.skel.node(), vskel.version, (self.lp)(), now);
        let outcome = arbitrate(plans, &self.policy, vskel.skel.node());
        for veto in &outcome.idle_vetoes {
            self.trigger.rearm(veto.rule_index);
        }
        let mut applied = 0;
        for plan in outcome.winners {
            // Rendered before it is applied: a knob still shows its old value.
            let mut text = format!("{:?}", plan.action);
            let event_node = match &plan.action {
                RewriteAction::Replace {
                    target,
                    replacement,
                } => {
                    // Whatever of the replaced subtree does not survive
                    // into the new tree has its estimator history dropped.
                    let ids = |root: &Arc<Node>| -> HashSet<NodeId> {
                        root.collect_nodes().iter().map(|n| n.id).collect()
                    };
                    let old = vskel.skel.node().find(*target).map(|sub| ids(&sub));
                    let Some(new_skel) = vskel.skel.rewritten(*target, replacement) else {
                        self.skip(now, vskel.version, *target, plan);
                        continue;
                    };
                    vskel.skel = new_skel;
                    let kept = ids(vskel.skel.node());
                    let removed: Vec<NodeId> =
                        old.unwrap_or_default().difference(&kept).copied().collect();
                    let dropped = self.trigger.invalidate_estimates_for(&removed);
                    if let Some(controller) = &self.controller {
                        controller.invalidate_estimates_for(&removed);
                    }
                    self.trigger.note_replaced(*target, replacement);
                    if dropped > 0 {
                        text.push_str(&format!("; dropped {dropped} stale estimator entries"));
                    }
                    Arc::clone(replacement)
                }
                RewriteAction::SetKnob { knob, value } => {
                    if knob.get() == *value {
                        continue;
                    }
                    knob.set(*value);
                    Arc::clone(vskel.skel.node())
                }
                RewriteAction::Place { target, node } => {
                    // Both failure shapes — the target vanished before
                    // `placed_at`, or (defensively) the placed tree does
                    // not contain it afterwards — skip with an audit
                    // record instead of panicking the session.
                    let placed = vskel.skel.placed_at(*target, node).and_then(|new_skel| {
                        let placed_root = new_skel.node().find(*target)?;
                        Some((new_skel, placed_root))
                    });
                    let Some((new_skel, placed_root)) = placed else {
                        self.skip(now, vskel.version, *target, plan);
                        continue;
                    };
                    vskel.skel = new_skel;
                    placed_root
                }
            };
            vskel.version += 1;
            let event = Event::reconfigured(event_node.id, event_node.tag(), vskel.version, now);
            self.registry.emit(&mut Payload::None, &event);
            self.trigger.record(audit(now, vskel.version, plan, text));
            applied += 1;
        }
        // Losers after winners, so the log reads "what happened, then
        // what was overruled".
        for s in outcome.suppressed {
            let text = format!("suppressed by `{}`: {:?}", s.by, s.plan.action);
            self.not_applied(now, vskel.version, s.plan, text);
        }
        applied
    }

    /// A winning plan whose `target` an earlier rewrite of the same safe
    /// point removed.
    fn skip(&self, now: TimeNs, version: u64, target: NodeId, plan: PlannedRewrite) {
        let text = format!("skipped: target {target} no longer in the skeleton");
        self.not_applied(now, version, plan, text);
    }

    /// A fire that did not happen (skipped, suppressed): audited with no
    /// version bump and no forecast to realize, and its rule re-armed.
    fn not_applied(&self, now: TimeNs, version: u64, plan: PlannedRewrite, text: String) {
        self.trigger.rearm(plan.rule_index);
        let plan = PlannedRewrite {
            forecast: None,
            ..plan
        };
        self.trigger.record(audit(now, version, plan, text));
    }
}

/// The decision-log entry for `plan`, at `version`, reading `action`.
fn audit(at: TimeNs, version: u64, plan: PlannedRewrite, action: String) -> AdaptRecord {
    AdaptRecord {
        at,
        version,
        target: plan.action.target(),
        rule: plan.rule,
        action,
        why: plan.why,
        forecast: plan.forecast,
    }
}

/// An ordered stream whose skeleton reshapes itself between items,
/// written once over whatever [`StreamRuntime`] `S` executes it.
///
/// Feeding and collection are `S`'s (and — with no rules registered, or
/// the trigger disabled — so are the results, property-tested), plus a
/// safe point before every submission where the [`TriggerEngine`]'s rules
/// may rewrite the skeleton for subsequent items. Item outcomes are
/// reported back to the trigger engine as results are collected, which is
/// what drives fallback-swap rules.
pub struct Adaptive<S: StreamTypes> {
    stream: S,
    reconf: Reconfigurator,
    vskel: VersionedSkel<S::In, S::Out>,
    /// Results already collected from the inner stream (in submission
    /// order, older than anything the stream still holds).
    out: VecDeque<Result<S::Out, S::Error>>,
    max_in_flight: usize,
    size_of: Option<SizeProbe<S::In>>,
}

/// [`Adaptive`] over the work-stealing pool: an `askel_engine`
/// [`StreamSession`] whose skeleton reshapes itself between items.
///
/// ```
/// use std::sync::Arc;
/// use askel_adapt::{AdaptiveSession, FallbackSwap, TriggerEngine};
/// use askel_engine::Engine;
/// use askel_skeletons::seq;
///
/// let engine = Engine::new(2);
/// let fragile = seq(|x: i64| {
///     if x < 0 {
///         panic!("negative input");
///     }
///     x * 2
/// });
/// let robust = seq(|x: i64| x.abs() * 2);
/// let trigger = TriggerEngine::new(0.5);
/// trigger.add_rule(FallbackSwap::new(&fragile, &robust, 2));
/// let mut stream = AdaptiveSession::new(&engine, &fragile, trigger);
/// for x in [1, -2, -3, -4, 5] {
///     stream.feed(x);
///     let _ = stream.next_result();
/// }
/// // Two consecutive errors swapped in the robust version: -4 succeeded.
/// assert_eq!(stream.version(), 1);
/// engine.shutdown();
/// ```
pub type AdaptiveSession<P, R> = Adaptive<StreamSession<P, R>>;

/// [`Adaptive`] over the discrete-event simulator (an `askel_sim`
/// [`SimStream`]): virtual time, so every decision — timestamps included
/// — replays deterministically, and under `OrderingPolicy::SeededRandom`
/// the fuzz suite runs the [`feed`](Adaptive::feed) that ships. Actors
/// reviewing on virtual time (`askel_dist::ProvisioningReview`) ride
/// along as scheduler [`Component`]s.
pub type AdaptiveSimSession<P, R> = Adaptive<SimStream<P, R>>;

impl<P, R> AdaptiveSession<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// A session feeding `skel` on `engine`, adapted by `trigger`'s rules,
    /// with unbounded in-flight items by default. The session owns a
    /// non-owning engine clone, so it may outlive the borrow and move
    /// across threads — many sessions can share one engine.
    ///
    /// Registering `trigger` as a listener on `engine.registry()` is the
    /// caller's choice: with it, rules see event-derived estimates; without
    /// it, only outcome- and input-size-triggered rules can fire (and the
    /// per-event overhead is avoided).
    pub fn new(engine: &Engine, skel: &Skel<P, R>, trigger: Arc<TriggerEngine>) -> Self {
        let stream = StreamSession::new(engine, skel);
        // The engine's registry and clock, and its live LP as the width
        // rules' input.
        let pool = engine.pool().clone();
        trigger.attach_metrics(engine.metrics_hub());
        let reconf = Reconfigurator::new(Arc::clone(engine.registry()), engine.clock(), trigger)
            .lp_source(move || pool.target_workers());
        Adaptive {
            stream,
            reconf,
            vskel: VersionedSkel::new(skel),
            out: VecDeque::new(),
            max_in_flight: usize::MAX,
            size_of: None,
        }
    }

    /// Bounds how many items may be in flight (backpressure), like
    /// [`StreamSession::max_in_flight`].
    pub fn max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    /// Items fed so far.
    pub fn fed(&self) -> usize {
        self.stream.fed()
    }
}

impl<P, R> AdaptiveSimSession<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// A session streaming `skel` through `sim`, adapted by `trigger`'s
    /// rules. Lock-step: one item in flight at a time, so every safe
    /// point sees the outcome of every item before it — the strongest
    /// safe-point guarantee. Registering the trigger as a listener on
    /// `sim.registry()` stays the caller's choice, exactly as with the
    /// threaded session.
    pub fn new(sim: SimEngine, skel: &Skel<P, R>, trigger: Arc<TriggerEngine>) -> Self {
        let clock: Arc<dyn Clock> = Arc::clone(sim.clock()) as Arc<dyn Clock>;
        Adaptive {
            reconf: Reconfigurator::new(Arc::clone(sim.registry()), clock, trigger),
            stream: SimStream::new(sim, skel),
            vskel: VersionedSkel::new(skel),
            out: VecDeque::new(),
            max_in_flight: 1,
            size_of: None,
        }
    }

    /// Forwards to [`Reconfigurator::lp_source`]: where width rules read
    /// the current level of parallelism.
    pub fn lp_source(mut self, f: impl Fn() -> usize + Send + Sync + 'static) -> Self {
        self.reconf = self.reconf.lp_source(f);
        self
    }

    /// Streams `items` to completion on a fresh run of the machine —
    /// [`feed`](Adaptive::feed) each, then collect — returning their
    /// outcomes in item order. `components` tick on virtual time while
    /// work is in flight (pass `&mut []` for none).
    pub fn run_stream(
        &mut self,
        items: impl IntoIterator<Item = P>,
        components: &mut [Box<dyn Component>],
    ) -> Vec<Result<R, SimError>> {
        self.stream.open(components);
        for input in items {
            self.feed(input);
        }
        let results = self.collect_all();
        self.stream.close(components);
        results
    }

    /// Scheduler totals for the most recent
    /// [`run_stream`](Adaptive::run_stream) call.
    pub fn report(&self) -> Option<StreamReport> {
        self.stream.report()
    }

    /// The underlying simulator (registry, clock, telemetry).
    pub fn sim(&self) -> &SimEngine {
        self.stream.sim()
    }

    /// Mutable access to the simulator (e.g. `set_lp` between streams).
    pub fn sim_mut(&mut self) -> &mut SimEngine {
        self.stream.sim_mut()
    }
}

impl<S> Adaptive<S>
where
    S: StreamRuntime,
    S::In: Send + 'static,
    S::Out: Send + 'static,
{
    /// Records `f(input)` as an input-size hint per feed; promotion rules
    /// gate on the EWMA of these (`Trigger::InputSizeAtLeast`).
    pub fn input_size(mut self, f: impl Fn(&S::In) -> usize + Send + 'static) -> Self {
        self.size_of = Some(Box::new(f));
        self
    }

    /// Forwards to [`Reconfigurator::conflict_policy`]: how conflicting
    /// rule fires at one safe point are arbitrated.
    pub fn conflict_policy(mut self, policy: ConflictPolicy) -> Self {
        self.reconf = self.reconf.conflict_policy(policy);
        self
    }

    /// Forwards to [`Reconfigurator::sync_controller`]: a WCT controller
    /// whose estimator history is invalidated alongside the trigger
    /// engine's whenever a subtree is replaced.
    pub fn sync_controller(mut self, controller: Arc<AutonomicController>) -> Self {
        self.reconf = self.reconf.sync_controller(controller);
        self
    }

    fn observe(&self, result: &Result<S::Out, S::Error>) {
        self.reconf.trigger().record_outcome(result.is_ok());
    }

    /// Collects the oldest outstanding result from the inner stream,
    /// records its outcome, and buffers it for the consumer — the one
    /// place the "every collected result is observed" invariant lives.
    fn collect_one(&mut self) {
        let r = self.stream.next_result().expect("checked by caller");
        self.observe(&r);
        self.out.push_back(r);
    }

    /// Collects every already-finished leading item without blocking,
    /// reporting outcomes to the trigger engine.
    fn harvest(&mut self) {
        let ready = self.stream.poll_ready();
        for _ in 0..ready {
            self.collect_one();
        }
    }

    /// Submits one input. Before the submission: finished items are
    /// harvested (outcomes recorded), backpressure is applied, and the
    /// safe point runs — rules may swap in a new skeleton version, which
    /// this and all subsequent feeds then use.
    pub fn feed(&mut self, input: S::In) {
        self.harvest();
        while self.stream.in_flight() >= self.max_in_flight {
            self.collect_one();
        }
        self.safe_point([&input]);
        self.stream.feed(input);
    }

    /// The safe point: size hints of what is about to be submitted, one
    /// [`Reconfigurator::apply`], and the stream takes a rewritten tree.
    fn safe_point<'a>(&mut self, inputs: impl IntoIterator<Item = &'a S::In>) {
        if let Some(size_of) = &self.size_of {
            for input in inputs {
                self.reconf.trigger().observe_input_size(size_of(input));
            }
        }
        if self.reconf.apply(&mut self.vskel) > 0 {
            self.stream.swap_skel(self.vskel.skel());
        }
    }

    /// Submits a batch of inputs with **one safe point for the whole
    /// batch**, then hands the items to the engine through the batched
    /// submission path (on threads [`StreamSession::feed_batch`] →
    /// `Engine::submit_batch`: one pool transaction per bound-sized
    /// chunk instead of one per item). Input-size hints are recorded for
    /// every item before the safe point runs, so size-gated rules see
    /// the batch; every batched item then runs on the same skeleton
    /// version. Results still collect in submission order.
    pub fn feed_batch(&mut self, inputs: Vec<S::In>) {
        if inputs.is_empty() {
            return;
        }
        self.harvest();
        self.safe_point(&inputs);
        // The in-flight bound holds across the batch: submit bound-sized
        // chunks, collecting (and outcome-recording) the oldest items
        // between chunks. No safe point runs between chunks — the whole
        // batch executes on the version chosen above.
        let mut inputs = inputs;
        while !inputs.is_empty() {
            while self.stream.in_flight() >= self.max_in_flight {
                self.collect_one();
            }
            let room = self.max_in_flight - self.stream.in_flight();
            let rest = if inputs.len() > room {
                inputs.split_off(room)
            } else {
                Vec::new()
            };
            self.stream.feed_batch(inputs);
            inputs = rest;
        }
    }

    /// The next result in submission order, blocking until it is ready;
    /// `None` once every fed item has been collected.
    pub fn next_result(&mut self) -> Option<Result<S::Out, S::Error>> {
        if let Some(r) = self.out.pop_front() {
            return Some(r);
        }
        let r = self.stream.next_result()?;
        self.observe(&r);
        Some(r)
    }

    fn collect_all(&mut self) -> Vec<Result<S::Out, S::Error>> {
        std::iter::from_fn(|| self.next_result()).collect()
    }

    /// Blocks for every outstanding result, in submission order.
    pub fn drain(mut self) -> impl Iterator<Item = Result<S::Out, S::Error>> {
        self.collect_all().into_iter()
    }

    /// Non-blocking, non-consuming harvest: collects every
    /// already-finished leading item (outcomes recorded with the trigger
    /// engine, exactly as blocking collection would) and returns them in
    /// submission order, leaving the session alive for further feeds.
    ///
    /// This is the interleaving primitive a multi-tenant registry needs:
    /// unlike [`drain`](Adaptive::drain), which consumes the
    /// session and blocks to the end, `drain_ready` lets a driver visit
    /// many sessions round-robin, taking from each only what is ready.
    pub fn drain_ready(&mut self) -> Vec<Result<S::Out, S::Error>> {
        self.harvest();
        self.out.drain(..).collect()
    }

    /// The current skeleton version (rewrites applied so far).
    pub fn version(&self) -> u64 {
        self.vskel.version()
    }

    /// The skeleton the next feed will use.
    pub fn skeleton(&self) -> &Skel<S::In, S::Out> {
        self.vskel.skel()
    }

    /// The trigger engine (decision log, statistics).
    pub fn trigger(&self) -> &Arc<TriggerEngine> {
        self.reconf.trigger()
    }

    /// Items currently in flight.
    pub fn in_flight(&self) -> usize {
        self.stream.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FallbackSwap, Knob, Promote, RetuneWidth, Trigger};
    use askel_engine::Engine;
    use askel_events::Where;
    use askel_skeletons::{map, pipe, seq};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn doubler() -> Skel<i64, i64> {
        seq(|x: i64| x * 2)
    }

    #[test]
    fn no_rules_behaves_like_a_stream_session() {
        let engine = Engine::new(2);
        let program = doubler();
        let trigger = TriggerEngine::new(0.5);
        let mut adaptive = AdaptiveSession::new(&engine, &program, trigger).max_in_flight(3);
        let mut plain = StreamSession::new(&engine, &program).max_in_flight(3);
        for x in 0..32 {
            adaptive.feed(x);
            plain.feed(x);
        }
        let a: Vec<i64> = adaptive.drain().map(|r| r.unwrap()).collect();
        let p: Vec<i64> = plain.drain().map(|r| r.unwrap()).collect();
        assert_eq!(a, p);
        engine.shutdown();
    }

    #[test]
    fn feed_batch_matches_item_feeds_and_runs_one_safe_point() {
        let engine = Engine::new(2);
        let program = doubler();
        let trigger = TriggerEngine::new(0.5);
        let mut batched = AdaptiveSession::new(&engine, &program, trigger.clone()).max_in_flight(3);
        batched.feed_batch((0..32).collect());
        let safe_points_after_batch = trigger.safe_points();
        assert_eq!(safe_points_after_batch, 1, "one safe point per batch");
        let b: Vec<i64> = batched.drain().map(|r| r.unwrap()).collect();
        assert_eq!(b, (0..32).map(|x| x * 2).collect::<Vec<_>>());
        engine.shutdown();
    }

    #[test]
    fn drain_ready_interleaves_without_consuming_the_session() {
        let engine = Engine::new(2);
        let program = doubler();
        let trigger = TriggerEngine::new(0.5);
        let mut session = AdaptiveSession::new(&engine, &program, trigger.clone());
        session.feed_batch(vec![1, 2]);
        engine.pool().wait_idle();
        let first = session.drain_ready();
        assert_eq!(
            first.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            vec![2, 4]
        );
        // The session is still usable — and outcomes were recorded.
        assert_eq!(trigger.error_stats().items, 2);
        session.feed(3);
        engine.pool().wait_idle();
        let second = session.drain_ready();
        assert_eq!(
            second.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            vec![6]
        );
        assert!(session.next_result().is_none());
        engine.shutdown();
    }

    #[test]
    fn promotion_swaps_for_subsequent_items_only() {
        let engine = Engine::new(2);
        let v1 = seq(|x: i64| x + 1);
        let v2 = seq(|x: i64| x + 100);
        let trigger = TriggerEngine::new(1.0); // ρ=1: EWMA = last hint
        trigger.add_rule(
            Promote::new(&v1, &v2)
                .named("test-promote")
                .when(Trigger::InputSizeAtLeast(50.0)),
        );
        let mut stream =
            AdaptiveSession::new(&engine, &v1, trigger).input_size(|x: &i64| *x as usize);
        stream.feed(1); // hint 1: below threshold, v1
        stream.feed(60); // hint 60: fires at this safe point, so 60 runs on v2
        stream.feed(2); // still v2
        let got: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![2, 160, 102]);
        engine.shutdown();
    }

    #[test]
    fn fallback_swap_recovers_the_stream() {
        let engine = Engine::new(1);
        let fragile = seq(|x: i64| {
            if x < 0 {
                panic!("fragile muscle rejects {x}");
            }
            x
        });
        let robust = seq(|x: i64| x.abs());
        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(FallbackSwap::new(&fragile, &robust, 2));
        let mut stream = AdaptiveSession::new(&engine, &fragile, trigger.clone());
        let mut results = Vec::new();
        for x in [1, -2, -3, -4, 5] {
            stream.feed(x);
            results.push(stream.next_result().expect("one in flight"));
        }
        assert!(stream.next_result().is_none());
        assert_eq!(results[0].as_ref().unwrap(), &1);
        assert!(results[1].is_err() && results[2].is_err());
        assert_eq!(results[3].as_ref().unwrap(), &4, "swapped before item -4");
        assert_eq!(results[4].as_ref().unwrap(), &5);
        assert_eq!(stream.version(), 1);
        let log = trigger.decision_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].rule, "fallback-swap");
        assert_eq!(log[0].target, Some(fragile.id()));
        engine.shutdown();
    }

    #[test]
    fn conflicting_replacements_in_one_safe_point_rearm_instead_of_losing_the_rule() {
        // Two once-rules fire at the same safe point, both targeting the
        // same node: arbitration picks one winner (equal priority and
        // concern, so the rule-name tie-break: "first" < "second"); the
        // loser must be suppressed *with* an audit record and re-armed —
        // and its presence gate then keeps it quiescent, not firing
        // forever.
        let engine = Engine::new(1);
        let target = seq(|x: i64| x);
        let winner = seq(|x: i64| x + 10);
        let loser = seq(|x: i64| x + 100);
        let trigger = TriggerEngine::new(1.0);
        trigger.add_rule(
            Promote::new(&target, &winner)
                .named("first")
                .when(Trigger::InputSizeAtLeast(1.0)),
        );
        trigger.add_rule(
            Promote::new(&target, &loser)
                .named("second")
                .when(Trigger::InputSizeAtLeast(1.0)),
        );
        let mut stream =
            AdaptiveSession::new(&engine, &target, trigger.clone()).input_size(|_: &i64| 5);
        for x in 0..3 {
            stream.feed(x);
            let _ = stream.next_result();
        }
        assert_eq!(stream.version(), 1, "only the first replacement applied");
        let log = trigger.decision_log();
        assert_eq!(log.len(), 2, "{log:?}");
        assert_eq!(log[0].rule, "first");
        assert_eq!(log[1].rule, "second");
        assert!(
            log[1].action.contains("suppressed by `first`"),
            "{:?}",
            log[1]
        );
        assert_eq!(log[1].version, 1, "suppressions do not bump the version");
        // The re-armed rule re-evaluated at later safe points but its
        // presence gate held it silent — no further log entries.
        assert!(trigger.evaluations() > 2);
        engine.shutdown();
    }

    #[test]
    fn place_on_a_vanished_target_skips_with_a_record_instead_of_panicking() {
        // A rule may fire `Place` against a target that is not (or no
        // longer) in the tree — e.g. its retained NodeId went stale
        // across someone else's rewrite. The session must skip with an
        // audit record and re-arm, never panic.
        struct PlaceBogus {
            target: NodeId,
            fired: std::sync::atomic::AtomicBool,
        }
        impl crate::rules::Rule for PlaceBogus {
            fn name(&self) -> &str {
                "place-bogus"
            }
            fn evaluate(&self, _ctx: &crate::rules::RuleCtx<'_>) -> Option<crate::rules::RuleFire> {
                if self.fired.swap(true, Ordering::Relaxed) {
                    return None;
                }
                Some(crate::rules::RuleFire::new(
                    RewriteAction::Place {
                        target: self.target,
                        node: "edge-1".to_string(),
                    },
                    "test: place on a node the tree does not contain".to_string(),
                ))
            }
        }
        let engine = Engine::new(1);
        let program = doubler();
        let elsewhere = doubler(); // a distinct tree: its id never occurs in `program`
        let trigger = TriggerEngine::new(1.0);
        trigger.add_rule(PlaceBogus {
            target: elsewhere.id(),
            fired: std::sync::atomic::AtomicBool::new(false),
        });
        let mut stream = AdaptiveSession::new(&engine, &program, trigger.clone());
        let mut got = Vec::new();
        for x in 0..3 {
            stream.feed(x);
            got.push(stream.next_result().expect("lock-step").unwrap());
        }
        assert_eq!(got, vec![0, 2, 4], "stream unaffected by the bad placement");
        assert_eq!(stream.version(), 0, "nothing applied");
        let log = trigger.decision_log();
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(log[0].rule, "place-bogus");
        assert!(log[0].action.contains("skipped"), "{:?}", log[0]);
        assert_eq!(log[0].target, Some(elsewhere.id()));
        engine.shutdown();
    }

    #[test]
    fn rewriting_the_root_swaps_the_whole_program_mid_stream() {
        // The PR 4 suite only replaced nested subtrees; replacing the
        // *root* exercises `Skel::rewritten`'s identity case (the new
        // tree IS the replacement, fresh root id) through a live session.
        let engine = Engine::new(1);
        let v1: Skel<i64, i64> = seq(|x: i64| x + 1);
        let v2: Skel<i64, i64> = map(
            |x: i64| vec![x, x],
            seq(|x: i64| x * 10),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let trigger = TriggerEngine::new(1.0);
        trigger.add_rule(
            Promote::new(&v1, &v2)
                .named("root-promote")
                .when(Trigger::InputSizeAtLeast(100.0)),
        );
        let mut stream =
            AdaptiveSession::new(&engine, &v1, trigger.clone()).input_size(|x: &i64| *x as usize);
        stream.feed(1); // v1: 2
        stream.feed(200); // fires at this safe point: v2: 200×10×2
        stream.feed(3); // still v2: 60
        let got: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![2, 4000, 60]);
        let log = trigger.decision_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].target, Some(v1.id()));
        assert!(log[0].action.contains(&format!("{}", v2.id())), "{log:?}");
        engine.shutdown();
    }

    #[test]
    fn outer_and_inner_rewrites_at_one_safe_point_rearm_the_inner() {
        // Two once-rules fire at the same safe point: one replaces an
        // *outer* subtree, which contains the second rule's *nested*
        // target — arbitration detects the overlap and the
        // higher-priority outer rule wins. The inner rule must be
        // suppressed with an audit record and re-armed — and since its
        // target never comes back, its presence gate keeps it silent
        // (without the re-arm it would be silently lost; without the
        // gate it would fire on a vanished target forever).
        let engine = Engine::new(1);
        let inner = seq(|x: i64| x + 1);
        let outer = pipe(inner.clone(), seq(|x: i64| x * 2));
        let outer_replacement = seq(|x: i64| (x + 10) * 2);
        let inner_replacement = seq(|x: i64| x + 100);
        let trigger = TriggerEngine::new(1.0);
        trigger.add_rule(
            Promote::new(&outer, &outer_replacement)
                .named("outer")
                .priority(1)
                .when(Trigger::InputSizeAtLeast(1.0)),
        );
        trigger.add_rule(
            Promote::new(&inner, &inner_replacement)
                .named("inner")
                .when(Trigger::InputSizeAtLeast(1.0)),
        );
        let mut stream =
            AdaptiveSession::new(&engine, &outer, trigger.clone()).input_size(|_: &i64| 5);
        let mut got = Vec::new();
        for x in 0..4 {
            stream.feed(x);
            got.push(stream.next_result().expect("lock-step").unwrap());
        }
        // The size hint lands before the first safe point, so the outer
        // promotion applies before item 0: every item runs on (x+10)×2.
        assert_eq!(got, vec![20, 22, 24, 26]);
        assert_eq!(stream.version(), 1, "only the outer replacement applied");
        let log = trigger.decision_log();
        assert_eq!(log.len(), 2, "{log:?}");
        assert_eq!(log[0].rule, "outer");
        assert_eq!(log[1].rule, "inner");
        assert!(
            log[1].action.contains("suppressed by `outer`"),
            "{:?}",
            log[1]
        );
        assert_eq!(log[1].target, Some(inner.id()));
        // The re-armed inner rule kept re-evaluating (presence-gated
        // silent), so evaluations exceed the two pre-fire ones.
        assert!(trigger.evaluations() > 4, "{}", trigger.evaluations());
        engine.shutdown();
    }

    #[test]
    fn knob_retune_bumps_version_and_emits() {
        let engine = Engine::new(2);
        let width = Knob::new("width", 1);
        let w = width.clone();
        let program = map(
            move |v: Vec<i64>| {
                let chunks = w.get().max(1);
                let per = v.len().div_ceil(chunks).max(1);
                v.chunks(per).map(|c| c.to_vec()).collect::<Vec<_>>()
            },
            seq(|v: Vec<i64>| v.into_iter().sum::<i64>()),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let reconfigured = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&reconfigured);
        engine
            .registry()
            .add_listener(Arc::new(askel_events::FnListener(
                move |_: &mut Payload<'_>, e: &Event| {
                    if e.wher == Where::Reconfigured {
                        assert_eq!(e.info.reconfigured_version(), Some(1));
                        seen.fetch_add(1, Ordering::SeqCst);
                    }
                },
            )));
        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(RetuneWidth::new(width.clone(), 2).bounds(1, 16));
        let mut stream = AdaptiveSession::new(&engine, &program, trigger);
        stream.feed((0..8).collect());
        stream.feed((0..8).collect());
        let version = stream.version();
        let got: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
        assert_eq!(
            got,
            vec![28, 28],
            "retuning the width never changes results"
        );
        assert_eq!(width.get(), 4, "lp 2 × 2 tasks per worker");
        assert_eq!(version, 1);
        assert_eq!(reconfigured.load(Ordering::SeqCst), 1);
        engine.shutdown();
    }
}
