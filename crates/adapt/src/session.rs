//! The adaptive session: a stream whose skeleton reshapes itself between
//! items.
//!
//! [`Adaptive`] runs the self-configuration loop, once, for any
//! [`StreamRuntime`] — [`AdaptiveSession`] over the pool's
//! `StreamSession`, `askel_dist::AdaptiveSimSession` over the simulator's
//! `SimStream`. Before every submission comes a safe point: one
//! [`TriggerEngine::safe_point`] call over the tree the stream runs next,
//! reading registry, time and LP from the stream too, so the session
//! keeps only its version counter and conflict policy beside them. The
//! same call drives the threaded engine and the discrete-event
//! simulator, which is what makes rewrite decisions reproducible in
//! tests and benches. Items already in flight always finish on the
//! *tree* they were submitted with; a subtree swap is only visible to
//! subsequent feeds. Knob retunes are live immediately (see
//! [`crate::Knob`] for the result-invariance contract that makes that
//! safe).

use std::collections::VecDeque;
use std::sync::Arc;

use askel_engine::{Engine, StreamSession};
use askel_events::{StreamRuntime, StreamTypes};
use askel_skeletons::Skel;

use crate::arbitration::ConflictPolicy;
use crate::trigger::TriggerEngine;

/// Input-size probe recorded per fed item. `Send` so a session can move
/// across threads (the serving layer shards sessions over workers).
type SizeProbe<P> = Box<dyn Fn(&P) -> usize + Send>;

/// An ordered stream whose skeleton reshapes itself between items,
/// written once over whatever [`StreamRuntime`] `S` executes it.
///
/// Feeding and collection are `S`'s (and — with no rule able to fire —
/// so are the results, property-tested), plus a safe point before every
/// submission where the [`TriggerEngine`]'s rules may rewrite the
/// skeleton for subsequent items. Item outcomes are
/// reported back to the trigger engine as results are collected, which is
/// what drives fallback-swap rules.
pub struct Adaptive<S: StreamTypes> {
    /// Holds the tree the next feed runs.
    stream: S,
    trigger: Arc<TriggerEngine>,
    policy: ConflictPolicy,
    /// Rewrites applied so far: 0 as built, +1 per applied rewrite.
    version: u64,
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

impl<P, R> AdaptiveSession<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// A session feeding `skel` on `engine`, adapted by `trigger`'s rules,
    /// with unbounded in-flight items by default. The session owns a
    /// non-owning engine clone, so it may outlive the borrow and move
    /// across threads — many sessions can share one engine. Rule fires
    /// count in the engine's metrics hub.
    ///
    /// Whether `trigger` hears events is the caller's choice: registered
    /// on `engine.registry()`, it hears every submission's; made the
    /// stream's session listener ([`StreamSession::listener`], built
    /// with [`Adaptive::over`]), only this session's; unregistered, only
    /// outcome- and input-size-triggered rules can fire (and the
    /// per-event overhead is avoided).
    pub fn new(engine: &Engine, skel: &Skel<P, R>, trigger: Arc<TriggerEngine>) -> Self {
        trigger.attach_metrics(engine.metrics_hub());
        Adaptive::over(StreamSession::new(engine, skel), trigger)
    }

    /// Items fed so far.
    pub fn fed(&self) -> usize {
        self.stream.fed()
    }
}

impl<S> Adaptive<S>
where
    S: StreamRuntime,
    S::In: Send + 'static,
    S::Out: Send + 'static,
{
    /// `stream` adapted at every safe point by `trigger`'s rules, starting
    /// at version 0 of the skeleton it was opened on, with unbounded
    /// in-flight items by default. Every session is built here: safe
    /// points read the tree, registry, time and LP from `stream`
    /// ([`StreamRuntime`]), so `AdaptiveSession::new` adds only the
    /// metrics hub and `askel_dist::sim_session` only the lock-step
    /// bound.
    pub fn over(stream: S, trigger: Arc<TriggerEngine>) -> Self {
        Adaptive {
            stream,
            trigger,
            policy: ConflictPolicy::default(),
            version: 0,
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

    /// Records `f(input)` as an input-size hint per feed; promotion rules
    /// gate on the EWMA of these (`Trigger::InputSizeAtLeast`).
    pub fn input_size(mut self, f: impl Fn(&S::In) -> usize + Send + 'static) -> Self {
        self.size_of = Some(Box::new(f));
        self
    }

    /// Sets how conflicting rule fires at one safe point are arbitrated
    /// (default [`ConflictPolicy::PriorityWins`]); see
    /// [`crate::arbitration`].
    pub fn conflict_policy(mut self, policy: ConflictPolicy) -> Self {
        self.policy = policy;
        self
    }

    fn observe(&self, result: &Result<S::Out, S::Error>) {
        self.trigger.record_outcome(result.is_ok());
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

    /// The safe point: size hints of what is about to be submitted, then
    /// one [`TriggerEngine::safe_point`] over the stream's tree, registry,
    /// clock and LP; the stream takes a rewritten tree.
    fn safe_point<'a>(&mut self, inputs: impl IntoIterator<Item = &'a S::In>) {
        if let Some(size_of) = &self.size_of {
            for input in inputs {
                self.trigger.observe_input_size(size_of(input));
            }
        }
        let stream = &self.stream;
        let rewritten = self.trigger.safe_point(
            stream.skel(),
            &mut self.version,
            &self.policy,
            stream.registry(),
            stream.now(),
            stream.lp(),
        );
        if let Some(skel) = rewritten {
            self.stream.swap_skel(&skel);
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

    /// [`feed`](Adaptive::feed)s every item, then collects every
    /// outstanding result, in submission order, leaving the session alive.
    pub fn run_stream(
        &mut self,
        items: impl IntoIterator<Item = S::In>,
    ) -> Vec<Result<S::Out, S::Error>> {
        for input in items {
            self.feed(input);
        }
        self.collect_all()
    }

    /// Blocks for every outstanding result, in submission order.
    pub fn drain(mut self) -> impl Iterator<Item = Result<S::Out, S::Error>> {
        self.collect_all().into_iter()
    }

    /// Non-blocking, non-consuming harvest: collects every
    /// already-finished leading item (outcomes recorded with the trigger
    /// engine, exactly as blocking collection would) and returns how many
    /// results the session now buffers, in submission order, for
    /// [`next_result`](Adaptive::next_result) to pop without blocking.
    ///
    /// This is the interleaving primitive a multi-tenant registry needs:
    /// unlike [`drain`](Adaptive::drain), which consumes the
    /// session and blocks to the end, `poll_ready` lets a driver visit
    /// many sessions round-robin, taking from each only what is ready.
    pub fn poll_ready(&mut self) -> usize {
        self.harvest();
        self.out.len()
    }

    /// The current skeleton version (rewrites applied so far).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The skeleton the next feed will use.
    pub fn skeleton(&self) -> &Skel<S::In, S::Out> {
        self.stream.skel()
    }

    /// The trigger engine (decision log, statistics).
    pub fn trigger(&self) -> &Arc<TriggerEngine> {
        &self.trigger
    }

    /// Items currently in flight.
    pub fn in_flight(&self) -> usize {
        self.stream.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FallbackSwap, Knob, Promote, RetuneWidth, RewriteAction, Trigger};
    use askel_engine::Engine;
    use askel_events::{Event, Payload, Where};
    use askel_skeletons::{map, pipe, seq, NodeId};
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
    fn poll_ready_interleaves_without_consuming_the_session() {
        let engine = Engine::new(2);
        let program = doubler();
        let trigger = TriggerEngine::new(0.5);
        let mut session = AdaptiveSession::new(&engine, &program, trigger.clone());
        session.feed_batch(vec![1, 2]);
        engine.pool().wait_idle();
        assert_eq!(session.poll_ready(), 2);
        // Polling again harvests nothing new and consumes nothing.
        assert_eq!(session.poll_ready(), 2);
        // The harvest recorded outcomes before anything was taken.
        assert_eq!(trigger.error_stats().items, 2);
        assert_eq!(session.next_result().map(Result::unwrap), Some(2));
        // The session is still usable, and order is kept across feeds.
        session.feed(3);
        engine.pool().wait_idle();
        assert_eq!(session.poll_ready(), 2);
        let rest: Vec<i64> = std::iter::from_fn(|| session.next_result())
            .map(Result::unwrap)
            .collect();
        assert_eq!(rest, vec![4, 6]);
        assert_eq!(session.poll_ready(), 0);
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
            fired: bool,
        }
        impl crate::rules::Rule for PlaceBogus {
            fn evaluate(
                &mut self,
                _ctx: &crate::rules::RuleCtx<'_>,
            ) -> Option<crate::rules::RuleFire> {
                if std::mem::replace(&mut self.fired, true) {
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
        let bogus = PlaceBogus {
            target: elsewhere.id(),
            fired: false,
        };
        trigger.add_rule(crate::Governed::new(
            "place-bogus",
            crate::Concern::Performance,
            bogus,
        ));
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
