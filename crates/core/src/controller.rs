//! The autonomic controller: guarantees a Wall-Clock-Time (WCT) QoS goal
//! by self-optimizing the Level of Parallelism (LP) of a running skeleton.
//!
//! The controller is *just an event listener* (the paper's separation of
//! concerns): register it on an engine's `ListenerRegistry` and hand it an
//! [`LpActuator`] for that engine. For every `After` event it
//!
//! 1. feeds the event through the state machines ([`SmTracker`]),
//! 2. once every muscle has an estimate (the analysis gate), builds the
//!    ADG and runs the scheduling strategies — unless nothing an analysis
//!    reads has changed since the last one, which is then replayed (see
//!    *When an analysis runs* below),
//! 3. decides:
//!    * **raise** — if the limited-LP completion estimate misses the
//!      deadline, set LP to the *smallest* value that meets it (binary
//!      search over the limited-LP estimator, valid under the paper's
//!      monotonic-speedup assumption), capped by the optimal LP and
//!      `max_lp`; if no value meets it, jump to the cap (best possible);
//!    * **halve** — if the goal would still be met with half the threads,
//!      halve (the paper decreases conservatively because computing the
//!      minimal LP exactly is NP-complete);
//!    * otherwise leave LP alone.
//!
//! Every decision is recorded with its inputs so tests and benches can
//! audit the control loop.
//!
//! # When an analysis runs
//!
//! An analysis is a pure function of five inputs: the tracker's records,
//! the estimator table, the current LP, the deadline and `now`. The
//! tracker counts its own and the table's changes
//! (`SmTracker::revision`); when an unforced analysis finds the revision,
//! LP, deadline and `now` of the last analysis that ran to its end and
//! decided nothing, it would compute that analysis again to the bit, so
//! its record is logged again, [`analyses`](AutonomicController::analyses)
//! counts it, and nothing is built. That is every `(After,
//! NestedSkeleton)` event: it follows the child's `(After, Skeleton)` at
//! the same instant and the state machines ignore it. An analysis that
//! *did* decide is never replayed — the next one runs at the new LP.
//!
//! # Who runs it
//!
//! Whoever folds the controller's [`Knowledge`] — a worker whose `After`
//! event finds it free, an accessor, a trigger engine's safe point — runs
//! the analysis after each `After` record, in order ([`crate::knowledge`]).

use std::collections::VecDeque;
use std::sync::Arc;

use askel_events::{Event, EventRecord, Interest, Listener, Payload, When, Where};
use askel_skeletons::{Node, TimeNs};

use crate::adg::AdgWorkspace;
use crate::estimate::{EstimatorTable, Snapshot};
use crate::knowledge::Knowledge;
use crate::strategy::{Layouts, Scheduler};
use crate::tracker::SmTracker;

/// Something that can change an engine's level of parallelism.
///
/// The threaded engine's pool and the simulator's LP handle both adapt to
/// this trait through [`FnActuator`]; the controller stays engine-agnostic
/// (the paper's platform-independence claim, made concrete).
pub trait LpActuator: Send + Sync {
    /// Requests that the engine's LP become `lp`.
    fn set_lp(&self, lp: usize);
}

/// Adapter: any `Fn(usize)` is an actuator.
pub struct FnActuator<F>(pub F);

impl<F> LpActuator for FnActuator<F>
where
    F: Fn(usize) + Send + Sync,
{
    fn set_lp(&self, lp: usize) {
        (self.0)(lp)
    }
}

/// How aggressively may the controller *raise* the LP per analysis?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaisePolicy {
    /// Jump straight to the computed target (ablation; reacts fastest but
    /// lets one early analysis with immature estimates lock in a high LP).
    Unbounded,
    /// At most `2·current + 1` per analysis (default): LP 1 may reach 3 in
    /// one step — the paper's Fig. 5 "increments to 3 threads" — and the
    /// ramp then doubles per analysis. Mirrors the progressive ramp-up
    /// visible in the paper's Figs. 5–7: analyses are frequent, so a
    /// justified raise still completes within a few events, but a single
    /// wild estimate cannot overshoot.
    Doubling,
}

/// When may the controller *lower* the LP?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecreasePolicy {
    /// The paper's rule: halve when the goal is safe at half the threads.
    Halve,
    /// Never decrease (ablation).
    Never,
    /// Decrease to the minimal sufficient LP (greedy search; ablation —
    /// more reactive than the paper, at the cost of more analysis work
    /// and oscillation risk).
    ToMinimal,
}

/// Controller configuration.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// The WCT goal, measured from each submission's start.
    pub wct_goal: TimeNs,
    /// Upper bound for the LP (the paper's overload guard).
    pub max_lp: usize,
    /// The estimators' ρ.
    pub rho: f64,
    /// The LP the engine starts with (the controller's initial belief).
    pub initial_lp: usize,
    /// Decrease policy.
    pub decrease: DecreasePolicy,
    /// Raise policy.
    pub raise: RaisePolicy,
    /// Multiplies the computed raise target (≥ 1.0). The paper's controller
    /// visibly over-provisions relative to the minimal sufficient LP
    /// (§5: 8 threads at 6.4 s where ~4 would do; ramps to 17) and prefers
    /// finishing early over missing the goal on immature estimates; 1.0 is
    /// the exact-minimal policy.
    pub raise_headroom: f64,
    /// A decrease requires the predicted WCT to meet the goal with this
    /// margin (fraction of the goal). Models the paper's conservative
    /// decrease ("does not reduce the LP as fast as it increases it");
    /// 0.0 is the pure halving rule.
    pub decrease_safety: f64,
    /// Minimum time between two *decreases* ("Skandium does not reduce
    /// the LP as fast as it increases it", §4/§5).
    pub decrease_cooldown: TimeNs,
    /// When `true`, events only feed the state machines; analyses run
    /// exclusively through
    /// [`AutonomicController::force_analyze`] (snapshot studies, benches).
    pub manual_analysis: bool,
    /// Estimator aliases (shared muscle objects, Skandium-style): each
    /// `(muscle, canonical)` pair makes `muscle` share `canonical`'s
    /// estimators. Applied at construction and re-applied after
    /// [`AutonomicController::init_estimates`].
    pub aliases: Vec<(askel_skeletons::MuscleId, askel_skeletons::MuscleId)>,
}

impl ControllerConfig {
    /// A config with the paper's defaults: ρ 0.5, initial LP 1, halving
    /// decrease.
    pub fn new(wct_goal: TimeNs, max_lp: usize) -> Self {
        ControllerConfig {
            wct_goal,
            max_lp: max_lp.max(1),
            rho: 0.5,
            initial_lp: 1,
            decrease: DecreasePolicy::Halve,
            raise: RaisePolicy::Doubling,
            raise_headroom: 1.0,
            decrease_safety: 0.0,
            decrease_cooldown: TimeNs::ZERO,
            manual_analysis: false,
            aliases: Vec::new(),
        }
    }

    /// Sets the initial LP belief.
    pub fn initial_lp(mut self, lp: usize) -> Self {
        self.initial_lp = lp.max(1);
        self
    }

    /// Sets ρ.
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = rho.clamp(0.0, 1.0);
        self
    }

    /// Sets the decrease policy.
    pub fn decrease(mut self, policy: DecreasePolicy) -> Self {
        self.decrease = policy;
        self
    }

    /// Disables automatic analysis (see
    /// [`ControllerConfig::manual_analysis`]).
    pub fn manual_analysis(mut self, manual: bool) -> Self {
        self.manual_analysis = manual;
        self
    }

    /// Sets the raise policy.
    pub fn raise(mut self, policy: RaisePolicy) -> Self {
        self.raise = policy;
        self
    }

    /// Sets the raise headroom factor (clamped to ≥ 1.0).
    pub fn raise_headroom(mut self, factor: f64) -> Self {
        self.raise_headroom = factor.max(1.0);
        self
    }

    /// Sets the decrease safety margin (fraction of the goal, ≥ 0).
    pub fn decrease_safety(mut self, margin: f64) -> Self {
        self.decrease_safety = margin.max(0.0);
        self
    }

    /// Sets the decrease cooldown.
    pub fn decrease_cooldown(mut self, cooldown: TimeNs) -> Self {
        self.decrease_cooldown = cooldown;
        self
    }

    /// Declares shared-muscle estimator aliases.
    pub fn alias(
        mut self,
        muscle: askel_skeletons::MuscleId,
        canonical: askel_skeletons::MuscleId,
    ) -> Self {
        self.aliases.push((muscle, canonical));
        self
    }
}

/// The controller never lowers the LP below this: one worker keeps the
/// engine live.
const MIN_LP: usize = 1;

/// Why the controller changed the LP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionReason {
    /// Raised to the minimal LP whose limited-LP estimate meets the goal.
    RaiseToMeetGoal,
    /// Goal unreachable even at the cap; raised to the best possible LP.
    RaiseBestPossible,
    /// Goal safe at half the threads; halved.
    Decrease,
}

/// One audited LP change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// When the decision was taken.
    pub at: TimeNs,
    /// LP before.
    pub from_lp: usize,
    /// LP after.
    pub to_lp: usize,
    /// Why.
    pub reason: DecisionReason,
    /// The limited-LP completion estimate at `to_lp` when deciding.
    pub predicted_wct: TimeNs,
}

/// One analysis, recorded for prediction-accuracy studies: compare
/// `predicted_finish` (at the then-current LP) against the run's actual
/// completion time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisRecord {
    /// When the analysis ran.
    pub at: TimeNs,
    /// The LP the prediction assumed.
    pub lp: usize,
    /// The limited-LP completion estimate at that LP.
    pub predicted_finish: TimeNs,
    /// The best-effort (infinite-LP) completion estimate.
    pub best_effort_finish: TimeNs,
}

/// How many [`AnalysisRecord`]s a controller keeps: the most recent this
/// many (2 MB). A paper-scale run logs about a thousand.
pub const ANALYSIS_LOG_CAPACITY: usize = 1 << 16;

/// Everything an analysis reads besides the tracker's contents, which
/// `revision` stands for.
#[derive(Clone, Copy, PartialEq, Eq)]
struct AnalysisInputs {
    revision: u64,
    lp: usize,
    deadline: TimeNs,
    now: TimeNs,
}

/// The controller's part of its knowledge's state: what the per-`After`
/// step reads and writes, whoever folds.
pub(crate) struct Analysis {
    config: ControllerConfig,
    actuator: Arc<dyn LpActuator>,
    /// The live tree, the graph arena, the finished instances' blocks and
    /// the layout buffers, reused from one analysis to the next.
    pub(crate) workspace: AdgWorkspace,
    scheduler: Scheduler,
    current_lp: usize,
    deadline: Option<TimeNs>,
    last_decrease: Option<TimeNs>,
    decisions: Vec<Decision>,
    /// The last [`ANALYSIS_LOG_CAPACITY`] analyses, oldest first.
    analysis_log: VecDeque<AnalysisRecord>,
    analyses: usize,
    replayed: usize,
    /// The last analysis that ran to its end and decided nothing: what it
    /// read and what it logged.
    memo: Option<(AnalysisInputs, AnalysisRecord)>,
}

/// Appends to the bounded analysis log.
fn log_analysis(log: &mut VecDeque<AnalysisRecord>, record: AnalysisRecord) {
    if log.len() == ANALYSIS_LOG_CAPACITY {
        log.pop_front();
    }
    log.push_back(record);
}

/// The autonomic controller. See the module docs.
pub struct AutonomicController {
    config: ControllerConfig,
    knowledge: Arc<Knowledge>,
}

impl AutonomicController {
    /// A controller for submissions of the skeleton rooted at `ast`,
    /// driving `actuator`.
    pub fn new(
        ast: Arc<Node>,
        config: ControllerConfig,
        actuator: Arc<dyn LpActuator>,
    ) -> Arc<Self> {
        let mut tracker = SmTracker::new(config.rho);
        for (m, canonical) in &config.aliases {
            tracker.estimates_mut().set_alias(*m, *canonical);
        }
        let analysis = Analysis {
            config: config.clone(),
            actuator,
            workspace: AdgWorkspace::new(&ast),
            scheduler: Scheduler::default(),
            current_lp: config.initial_lp,
            deadline: None,
            last_decrease: None,
            decisions: Vec::new(),
            analysis_log: VecDeque::new(),
            analyses: 0,
            replayed: 0,
            memo: None,
        };
        Arc::new(AutonomicController {
            config,
            knowledge: Arc::new(Knowledge::over(tracker, Some(Box::new(analysis)))),
        })
    }

    /// The event positions the controller acts on: everything the state
    /// machines read, plus `(After, NestedSkeleton)`, which they ignore
    /// but which is an analysis point. No analysis runs on a `Before`, so
    /// `(Before, NestedSkeleton)` is of no use, and a rewrite announcement
    /// is not a muscle execution.
    pub const INTEREST: Interest = Interest::ALL
        .without(Interest::at(Where::NestedSkeleton).intersect(Interest::when(When::Before)))
        .without(Interest::at(Where::Reconfigured));

    /// The knowledge this controller analyses: its estimator table and
    /// event log, which a trigger engine made for it shares.
    pub fn knowledge(&self) -> &Arc<Knowledge> {
        &self.knowledge
    }

    /// Hands `f` the analysis and the tracker with every logged event
    /// folded in.
    fn current<T>(&self, f: impl FnOnce(&mut Analysis, &mut SmTracker) -> T) -> T {
        self.knowledge.with_state(|state| {
            let analysis = state.analysis.as_deref_mut();
            f(
                analysis.expect("a controller's knowledge analyses"),
                &mut state.tracker,
            )
        })
    }

    /// Initializes the estimators from a previous run's snapshot (the
    /// paper's "Goal with initialization" scenario). Configured aliases
    /// are re-applied to the fresh table.
    pub fn init_estimates(&self, snapshot: &Snapshot) {
        let mut table = EstimatorTable::from_snapshot(snapshot);
        for (m, canonical) in &self.config.aliases {
            table.set_alias(*m, *canonical);
        }
        self.knowledge
            .with_estimates(|estimates| *estimates = table);
    }

    /// Snapshot of the current estimates (feed it to the next run).
    pub fn snapshot(&self) -> Snapshot {
        self.knowledge.read_estimates(EstimatorTable::snapshot)
    }

    /// Forecasts the WCT of one fresh submission of the skeleton rooted
    /// at `root` under `lp` workers, from this controller's **live**
    /// estimator table ([`crate::strategy::predictive_wct`]).
    ///
    /// `root` need not be this controller's own AST: the
    /// self-configuration layer passes candidate *rewritten* trees here
    /// to gate promotions on forecast improvement. `None` while the
    /// table does not cover `root`'s muscles.
    pub fn forecast_wct(&self, root: &Arc<Node>, lp: usize) -> Option<TimeNs> {
        self.knowledge
            .read_estimates(|estimates| crate::strategy::predictive_wct(estimates, root, lp))
    }

    /// The LP the controller believes the engine has.
    pub fn current_lp(&self) -> usize {
        self.current(|analysis, _| analysis.current_lp)
    }

    /// Every decision taken so far.
    pub fn decisions(&self) -> Vec<Decision> {
        self.current(|analysis, _| analysis.decisions.clone())
    }

    /// How many analyses there were, replayed ones included.
    pub fn analyses(&self) -> usize {
        self.current(|analysis, _| analysis.analyses)
    }

    /// How many of [`analyses`](Self::analyses) computed nothing: an
    /// analysis of the same inputs had just decided nothing, and its
    /// record was logged again (see the module docs).
    pub fn replayed(&self) -> usize {
        self.current(|analysis, _| analysis.replayed)
    }

    /// The most recent [`ANALYSIS_LOG_CAPACITY`] analyses with their
    /// completion predictions, oldest first (accuracy studies: compare
    /// against the run's actual finish time).
    pub fn analysis_log(&self) -> Vec<AnalysisRecord> {
        self.current(|analysis, _| analysis.analysis_log.iter().copied().collect())
    }

    /// The config.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Forces an analysis at `now` (tests and benches): computed in
    /// full, never replayed.
    pub fn force_analyze(&self, now: TimeNs) {
        self.current(|analysis, tracker| analysis.analyze(tracker, now, true));
    }
}

impl Analysis {
    /// The per-`After` step: replays one logged event, analysing after
    /// each `After`.
    pub(crate) fn replay(&mut self, tracker: &mut SmTracker, event: EventRecord) {
        // A new submission of the live tree starts its WCT window.
        if event.node == self.workspace.root()
            && event.when == When::Before
            && event.wher == Where::Skeleton
            && event.is_root()
        {
            tracker.prune_finished();
            self.workspace.forget_finished();
            if tracker.current_root().is_none() {
                // No submission of an older version is left.
                self.workspace.forget_retired();
            }
            self.deadline = Some(event.timestamp + self.config.wct_goal);
        }
        tracker.observe(event);
        // Estimates only change on After events; analyze there.
        if event.when == When::After && !self.config.manual_analysis {
            self.analyze(tracker, event.timestamp, false);
        }
    }

    fn analyze(&mut self, tracker: &SmTracker, now: TimeNs, forced: bool) {
        let Some(deadline) = self.deadline else {
            return;
        };
        let inputs = AnalysisInputs {
            revision: tracker.revision(),
            lp: self.current_lp,
            deadline,
            now,
        };
        if !forced {
            if let Some((_, record)) = self.memo.filter(|(seen, _)| *seen == inputs) {
                self.analyses += 1;
                self.replayed += 1;
                log_analysis(&mut self.analysis_log, record);
                return;
            }
        }
        let root_live = tracker
            .current_root()
            .map(|r| !r.is_finished())
            .unwrap_or(false);
        if !root_live {
            return;
        }
        // Analysis gate: every muscle estimated at least once (§4). The
        // same pass reads the estimates the graph is built from.
        if !self.workspace.refresh(tracker.estimates()) {
            return;
        }
        self.analyses += 1;

        let adg = self.workspace.build_refreshed(tracker);
        if adg.is_empty() {
            return;
        }
        let mut layouts = self.scheduler.on(adg, now);
        let cur = self.current_lp;
        let cur_finish = layouts.limited_lp(cur);
        let record = AnalysisRecord {
            at: now,
            lp: cur,
            predicted_finish: cur_finish,
            best_effort_finish: layouts.best_effort(),
        };
        log_analysis(&mut self.analysis_log, record);
        let change = if cur_finish > deadline {
            raise(&self.config, &mut layouts, now, cur, deadline)
        } else {
            decrease(
                &self.config,
                &mut layouts,
                now,
                cur,
                deadline,
                self.last_decrease,
            )
        };
        match change {
            None => self.memo = Some((inputs, record)),
            Some((to_lp, reason, predicted)) => {
                self.memo = None;
                self.apply(now, to_lp, reason, predicted);
            }
        }
    }

    fn apply(&mut self, now: TimeNs, to_lp: usize, reason: DecisionReason, predicted_wct: TimeNs) {
        let from_lp = self.current_lp;
        if to_lp == from_lp {
            return;
        }
        if to_lp < from_lp {
            self.last_decrease = Some(now);
        }
        self.current_lp = to_lp;
        self.decisions.push(Decision {
            at: now,
            from_lp,
            to_lp,
            reason,
            predicted_wct,
        });
        self.actuator.set_lp(to_lp);
    }
}

/// Self-configuration: more threads. `None` when no raise could help.
fn raise(
    config: &ControllerConfig,
    layouts: &mut Layouts<'_>,
    now: TimeNs,
    cur: usize,
    deadline: TimeNs,
) -> Option<(usize, DecisionReason, TimeNs)> {
    let opt = layouts.best_effort_concurrency_from(now).max(MIN_LP);
    let cap = opt.min(config.max_lp);
    if cap <= cur {
        return None; // nothing a raise could do
    }
    let cap_finish = layouts.limited_lp(cap);
    // Minimal LP achieving `target_finish`, by binary search (WCT
    // is non-increasing in LP under the paper's assumption).
    let mut minimal_for = |target_finish: TimeNs| -> usize {
        let mut lo = cur + 1;
        let mut hi = cap;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if layouts.limited_lp_within(mid, target_finish).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    let (target, reason) = if cap_finish <= deadline {
        (minimal_for(deadline), DecisionReason::RaiseToMeetGoal)
    } else {
        // Goal unreachable even at the cap: the smallest LP that
        // achieves the best possible completion.
        (minimal_for(cap_finish), DecisionReason::RaiseBestPossible)
    };
    let target = ((target as f64 * config.raise_headroom).round() as usize).min(cap);
    let to_lp = match config.raise {
        RaisePolicy::Unbounded => target,
        RaisePolicy::Doubling => target.min(cur * 2 + 1),
    };
    Some((to_lp, reason, layouts.limited_lp(to_lp)))
}

/// Self-optimization: fewer threads when safe.
fn decrease(
    config: &ControllerConfig,
    layouts: &mut Layouts<'_>,
    now: TimeNs,
    cur: usize,
    deadline: TimeNs,
    last_decrease: Option<TimeNs>,
) -> Option<(usize, DecisionReason, TimeNs)> {
    if let Some(last) = last_decrease {
        if config.decrease_cooldown > TimeNs::ZERO && now < last + config.decrease_cooldown {
            return None;
        }
    }
    // A decrease must keep the goal safe with margin.
    let margin = TimeNs::from_secs_f64(config.wct_goal.as_secs_f64() * config.decrease_safety);
    let safe_deadline = deadline.saturating_sub(margin);
    let to_lp = match config.decrease {
        DecreasePolicy::Never => return None,
        DecreasePolicy::Halve => (cur / 2).max(MIN_LP),
        DecreasePolicy::ToMinimal => {
            let mut lo = MIN_LP;
            let mut hi = cur;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if layouts.limited_lp_within(mid, safe_deadline).is_some() {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        }
    };
    if to_lp >= cur {
        return None;
    }
    // The search ends on an LP that is safe, or on `cur` itself.
    let predicted = layouts.limited_lp_within(to_lp, safe_deadline)?;
    Some((to_lp, DecisionReason::Decrease, predicted))
}

impl Listener for AutonomicController {
    /// Hands the event to the knowledge: logged, and an `After` folds the
    /// log if nobody else is doing so. See the [`crate::knowledge`] docs.
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        self.knowledge.on_event(payload, event);
    }

    fn interest(&self) -> Interest {
        Self::INTEREST
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fn_actuator_forwards() {
        let v = Arc::new(AtomicUsize::new(0));
        let v2 = Arc::clone(&v);
        let a = FnActuator(move |lp| v2.store(lp, Ordering::SeqCst));
        a.set_lp(7);
        assert_eq!(v.load(Ordering::SeqCst), 7);
    }

    /// An event of a lone root instance of some node.
    fn root_event(when: When, wher: Where, at: u64) -> Event {
        use askel_skeletons::{InstanceId, KindTag, NodeId};
        Event {
            node: NodeId(1),
            kind: KindTag::Map,
            when,
            wher,
            index: InstanceId(1),
            trace: askel_events::Trace::root(NodeId(1), InstanceId(1), KindTag::Map),
            timestamp: TimeNs(at),
            info: askel_events::EventInfo::None,
        }
    }

    #[test]
    fn the_declared_interest_covers_every_position_acted_on() {
        let wheres = [
            Where::Skeleton,
            Where::Split,
            Where::Merge,
            Where::Condition,
            Where::NestedSkeleton,
            Where::Reconfigured,
        ];
        let mut left_out = Vec::new();
        for wher in wheres {
            for when in [When::Before, When::After] {
                // The state machines act on a position iff it moves the
                // tracker's revision.
                let mut tracker = SmTracker::new(0.5);
                tracker.observe(&root_event(When::Before, Where::Skeleton, 0));
                let before = tracker.revision();
                tracker.observe(&root_event(when, wher, 5));
                let observed = tracker.revision() != before;
                // An analysis runs at every `After` of a muscle or a
                // skeleton, nested ones included.
                let analysed = when == When::After && wher != Where::Reconfigured;
                let declared = AutonomicController::INTEREST.contains(when, wher);
                assert_eq!(declared, observed || analysed, "{when} {wher}");
                if !declared {
                    left_out.push((when, wher));
                }
            }
        }
        assert_eq!(
            left_out,
            vec![
                (When::Before, Where::NestedSkeleton),
                (When::Before, Where::Reconfigured),
                (When::After, Where::Reconfigured),
            ]
        );
    }

    #[test]
    fn a_position_outside_the_interest_is_not_even_logged() {
        let program = askel_skeletons::seq(|x: i64| x);
        let config = ControllerConfig::new(TimeNs::from_secs(1), 4);
        let controller =
            AutonomicController::new(program.node().clone(), config, Arc::new(FnActuator(|_| {})));
        let mut p = Payload::None;
        controller.on_event(&mut p, &root_event(When::Before, Where::NestedSkeleton, 1));
        controller.on_event(&mut p, &root_event(When::After, Where::Reconfigured, 2));
        let log = controller.knowledge.log();
        assert!(log.is_empty());
        // A `Before` is logged and left for the next fold.
        controller.on_event(&mut p, &root_event(When::Before, Where::Skeleton, 3));
        assert!(!log.is_empty());
        assert_eq!(controller.current_lp(), 1, "any accessor folds");
        assert!(log.is_empty());
        assert!(controller
            .knowledge
            .with_tracker(|t| t.current_root().is_some()));
    }

    /// One submission of a `fork` over eight differently shaped branches,
    /// recorded on the simulator and restamped so that no two events
    /// share a timestamp; with each event, the branch it belongs to
    /// (`None`: the fork's own split, merge and ends).
    type Recorded = (askel_skeletons::Skel<i64, i64>, Vec<(Option<usize>, Event)>);

    fn recorded_fork() -> &'static Recorded {
        use askel_events::{EventInfo, FnListener};
        use askel_sim::cost::{JitterCost, TableCost};
        use askel_sim::SimEngine;
        use askel_skeletons::{fork, map, pipe, seq, swhile, Skel};
        use std::sync::OnceLock;
        static RECORDED: OnceLock<Recorded> = OnceLock::new();
        RECORDED.get_or_init(|| {
            let sum = |parts: Vec<i64>| parts.iter().sum::<i64>();
            let branch = |k: i64| -> Skel<i64, i64> {
                match k % 4 {
                    0 => seq(move |x: i64| x + k),
                    1 => pipe(seq(|x: i64| x * 2), seq(move |x: i64| x - k)),
                    2 => map(|x: i64| vec![x, x + 1, x + 2], seq(|x: i64| x % 7), sum),
                    _ => swhile(|x: &i64| *x < 40, seq(|x: i64| x + 13)),
                }
            };
            let program = fork(
                |x: i64| (0..8).map(|k| x + k).collect::<Vec<_>>(),
                (0..8).map(branch).collect(),
                sum,
            );
            let events = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&events);
            let cost = JitterCost::new(TableCost::new(TimeNs::from_micros(700)), 0.8, 3);
            let mut sim = SimEngine::new(4, Arc::new(cost));
            sim.registry().add_listener(Arc::new(FnListener(
                move |_: &mut Payload<'_>, e: &Event| sink.lock().push(e.clone()),
            )));
            sim.run(&program, 5).expect("the simulated run completes");
            let branches = program.node().children();
            let mut events = std::mem::take(&mut *events.lock());
            let dealt = events
                .iter_mut()
                .enumerate()
                .map(|(i, e)| {
                    e.timestamp = TimeNs(e.timestamp.0 + 13 * i as u64);
                    let branch = match (e.trace.entries().nth(1), e.info) {
                        (Some(below_root), _) => {
                            branches.iter().position(|b| b.id == below_root.node)
                        }
                        (None, EventInfo::ChildIndex(k)) => Some(k),
                        (None, _) => None,
                    };
                    (branch, e.clone())
                })
                .collect();
            (program, dealt)
        })
    }

    /// A controller for the recorded fork that never decides anything and
    /// whose gate `estimates` opens from the first event.
    fn fork_controller(estimates: Option<&Snapshot>) -> Arc<AutonomicController> {
        let config = ControllerConfig::new(TimeNs::from_secs(1_000), 8)
            .initial_lp(4)
            .decrease(DecreasePolicy::Never);
        let controller = AutonomicController::new(
            recorded_fork().0.node().clone(),
            config,
            Arc::new(FnActuator(|_| {})),
        );
        if let Some(snapshot) = estimates {
            controller.init_estimates(snapshot);
        }
        controller
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..Default::default()
        })]

        /// The branches of one recorded submission dealt over up to four
        /// threads that raise their events at the same time, while a
        /// safe-point reader (what `TriggerEngine::plan` does: fold, read,
        /// let go) folds the opening events and keeps taking the state
        /// from them, leave what raising
        /// every event in order leaves: every record folded once and in
        /// its thread's order (each muscle's estimate is an
        /// order-dependent average over one thread's events), one
        /// analysis per `After` whoever folded it, and an empty log —
        /// whichever caller lost the `try_lock` while the holder was
        /// leaving.
        #[test]
        fn concurrent_callers_fold_what_one_caller_would(
            threads in 1usize..=4,
            deal in proptest::collection::vec(0usize..4, 8),
        ) {
            use std::sync::atomic::AtomicBool;
            let (_, events) = recorded_fork();
            let feed = |c: &AutonomicController, mine: &dyn Fn(Option<usize>) -> bool| {
                for (_, event) in events.iter().filter(|(branch, _)| mine(*branch)) {
                    c.on_event(&mut Payload::None, event);
                }
            };
            let cold = fork_controller(None);
            feed(&cold, &|_| true);
            let estimates = cold.snapshot();

            let in_order = fork_controller(Some(&estimates));
            feed(&in_order, &|_| true);

            let dealt = fork_controller(Some(&estimates));
            // The fork's own events come before and after its branches'.
            // The opening ones wait in the log for the reader to fold.
            let opening = events.iter().position(|(branch, _)| branch.is_some()).unwrap();
            let knowledge = &dealt.knowledge;
            for (_, event) in &events[..opening] {
                knowledge.log().log(event, knowledge.interest(), || unreachable!("room"));
            }
            knowledge.with_tracker(|_| ());
            let (start, fed) = (std::sync::Barrier::new(threads + 1), AtomicBool::new(false));
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|thread| {
                        let (dealt, start, deal) = (&dealt, &start, &deal);
                        scope.spawn(move || {
                            start.wait();
                            feed(dealt, &|branch| {
                                branch.is_some_and(|k| deal[k] % threads == thread)
                            });
                        })
                    })
                    .collect();
                scope.spawn(|| {
                    start.wait();
                    while !fed.load(Ordering::Acquire) {
                        knowledge.with_tracker(|tracker| {
                            std::hint::black_box(tracker.estimates());
                        });
                    }
                });
                for worker in workers {
                    worker.join().expect("a worker completes");
                }
                fed.store(true, Ordering::Release);
            });
            // Every worker's last event was an `After`: nothing waits.
            proptest::prop_assert!(knowledge.log().is_empty());
            for (_, event) in events[opening..].iter().filter(|(branch, _)| branch.is_none()) {
                dealt.on_event(&mut Payload::None, event);
            }

            let afters = events
                .iter()
                .filter(|(_, e)| AutonomicController::INTEREST.contains(e.when, e.wher))
                .filter(|(_, e)| e.when == When::After)
                .count();
            // All but the root's own end, after which nothing is live.
            proptest::prop_assert_eq!(in_order.analyses(), afters - 1);
            proptest::prop_assert_eq!(dealt.analyses(), afters - 1);
            // One record per `After`, at its instant; what it predicts
            // depends on which thread's events were folded first.
            let instants = |c: &AutonomicController| {
                let mut at: Vec<_> = c.analysis_log().iter().map(|r| (r.at, r.lp)).collect();
                at.sort_unstable();
                at
            };
            proptest::prop_assert_eq!(instants(&dealt), instants(&in_order));
            proptest::prop_assert_eq!(dealt.snapshot(), in_order.snapshot());
            proptest::prop_assert!(dealt.decisions().is_empty());
        }
    }

    #[test]
    fn config_builder_clamps() {
        let c = ControllerConfig::new(TimeNs::from_secs(1), 0)
            .initial_lp(0)
            .rho(2.0);
        assert_eq!(c.max_lp, 1);
        assert_eq!(c.initial_lp, 1);
        assert_eq!(c.rho, 1.0);
    }
}
