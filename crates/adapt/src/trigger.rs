//! The trigger engine: self-configuration's autonomic manager, which
//! monitors, plans and executes.
//!
//! [`TriggerEngine`] is a [`Listener`] over an [`askel_core::Knowledge`]:
//! the WCT controller's state machines and EWMA estimators per muscle —
//! the controller's own, one table and one log, for an engine made with
//! [`TriggerEngine::for_controller`]. On top of the events it tracks two
//! session-level statistics they cannot carry: per-item outcomes (error
//! streaks, fed by the adaptive session) and input-size hints.
//!
//! Rules ([`crate::rules`]) are evaluated **only** at safe points — one
//! [`TriggerEngine::safe_point`] call over the tree the stream runs
//! next, which plans, arbitrates and applies; never from inside
//! `on_event` — so a rewrite can fire at most once per safe point and
//! never mid-item; every read folds the knowledge's log first. A rewrite
//! rebuilds the tree persistently (sharing untouched subtrees), so items
//! in flight keep the tree they started on. Every applied rewrite is
//! recorded in an auditable decision log ([`AdaptRecord`]), symmetric to
//! the controller's `AnalysisRecord` and, like it, a ring of the most
//! recent [`DECISION_LOG_CAPACITY`] records; a forecast-gated record's
//! realized WCT comes from the root spans the tracker records.
//!
//! What the engine hears is what its live rules read
//! ([`Listener::reads`]): the union of their [`Rule::reads`], each
//! muscle with its alias group, plus the root's span while a forecast
//! audit is open. A trigger whose rules read nothing leaves the
//! submissions it samples unobserved. The set is worked out again,
//! between items, whenever a rule is added, fires, is re-armed or sees a
//! replacement, whenever an audit opens or closes and whenever the
//! estimator table's aliases change; a trigger made
//! [`for_controller`](TriggerEngine::for_controller) reads everything.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use askel_core::{AutonomicController, EstimatorTable, Ewma, Knowledge, SmTracker, Span};
use askel_events::{Event, Interest, Listener, ListenerRegistry, Payload, Reads};
use askel_skeletons::{Node, NodeId, Skel, TimeNs};

use crate::arbitration::{arbitrate, ConflictPolicy};
use crate::forecast::Forecast;
use crate::metrics::AdaptMetrics;
use crate::rules::{Concern, ErrorStats, Governed, RewriteAction, Rule, RuleCtx};

/// One audited structural rewrite — the self-configuration counterpart of
/// `askel_core::AnalysisRecord`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdaptRecord {
    /// When the rewrite was applied (engine or virtual time).
    pub at: TimeNs,
    /// The skeleton version the rewrite produced.
    pub version: u64,
    /// Name of the rule that fired.
    pub rule: String,
    /// The replaced node, for subtree rewrites.
    pub target: Option<NodeId>,
    /// What was done, e.g. `replace n3 with n17` or `set knob width 4 -> 6`.
    pub action: String,
    /// The observed statistics that justified the rewrite.
    pub why: String,
    /// For forecast-gated rules: the predicted-vs-baseline WCT the gate
    /// compared. [`Forecast::realized`] is filled in by the
    /// [`TriggerEngine`] with the WCT of the first root submission that
    /// completes after the rewrite — the predicted-vs-realized audit.
    pub forecast: Option<Forecast>,
}

/// How many [`AdaptRecord`]s a trigger engine keeps: the most recent this
/// many. A standing veto logs one `suppressed by …` record per safe point
/// for the life of the stream, and every completed item scans the log for
/// the audit it closes, so the log must not grow with the stream.
pub const DECISION_LOG_CAPACITY: usize = 1 << 10;

/// A rewrite a rule requested at a safe point, awaiting arbitration and
/// application.
#[derive(Clone)]
pub struct PlannedRewrite {
    /// Name of the rule that fired.
    pub rule: String,
    /// Registration index of that rule: [`TriggerEngine::safe_point`]
    /// re-arms it by this index if the plan could not be applied, so a
    /// once-rule retired at fire time is not lost.
    pub rule_index: usize,
    /// The requested change — or, for a veto, the contested resource.
    pub action: RewriteAction,
    /// The statistics that justified it.
    pub why: String,
    /// The forecast a gated rule fired on.
    pub forecast: Option<Forecast>,
    /// The firing rule's concern (see [`Concern`]).
    pub concern: Concern,
    /// The firing rule's arbitration priority.
    pub priority: i32,
    /// `true` for a veto firing: opposes conflicting actions instead of
    /// requesting a change (see [`crate::RuleFire::veto`]).
    pub veto: bool,
}

struct TrigInner {
    errors: ErrorStats,
    input_size: Ewma,
    /// Evaluated and notified under this struct's lock, so a rule needs
    /// no lock of its own.
    rules: Vec<Box<Governed<dyn Rule>>>,
    /// The last [`DECISION_LOG_CAPACITY`] records, oldest first.
    log: VecDeque<AdaptRecord>,
    safe_points: usize,
    evaluations: usize,
    /// Metrics handles once attached to a hub (see [`crate::metrics`]):
    /// rule-fire counters and the forecast-error histogram.
    metrics: Option<AdaptMetrics>,
    /// Gated records in `log` whose audit is open.
    open_audits: usize,
    /// What the live rules read, as last worked out.
    reads: Reads,
    /// Something `reads` follows may have changed since.
    reads_stale: bool,
    /// How many aliases the estimator table declared when `reads` was
    /// worked out.
    aliases: usize,
}

/// Event-driven rule host; see the module docs.
pub struct TriggerEngine {
    /// Its own, or one sharing a controller's; what every event reads of
    /// it sits apart from anything written (see [`Knowledge`]).
    knowledge: Arc<Knowledge>,
    /// Locked after the knowledge's state, never before.
    inner: Mutex<TrigInner>,
    /// Moves whenever `inner.reads` does.
    reads_version: AtomicU64,
    /// Made for a controller, whose analysis reads every muscle.
    reads_all: bool,
}

impl TriggerEngine {
    /// A trigger engine with knowledge of its own, whose EWMA estimators
    /// use weight `rho` (the paper's ρ, 0.5 by convention).
    pub fn new(rho: f64) -> Arc<Self> {
        Self::over(Knowledge::new(rho), rho, false)
    }

    /// A trigger engine deciding from `controller`'s knowledge: one
    /// estimator table, one event log and one fold for both autonomic
    /// properties. Register the controller *or* this engine as a
    /// listener, not both; a safe point that folds runs the controller's
    /// analyses, and a rewrite tells the controller which tree it now
    /// analyses.
    pub fn for_controller(controller: &AutonomicController) -> Arc<Self> {
        let knowledge = Knowledge::sharing(controller.knowledge());
        Self::over(knowledge, controller.config().rho, true)
    }

    fn over(knowledge: Knowledge, rho: f64, reads_all: bool) -> Arc<Self> {
        Arc::new(TriggerEngine {
            knowledge: Arc::new(knowledge),
            reads_version: AtomicU64::new(0),
            reads_all,
            inner: Mutex::new(TrigInner {
                errors: ErrorStats::default(),
                input_size: Ewma::new(rho.clamp(0.0, 1.0)),
                rules: Vec::new(),
                log: VecDeque::new(),
                safe_points: 0,
                evaluations: 0,
                metrics: None,
                open_audits: 0,
                reads: Reads::NOTHING,
                reads_stale: false,
                aliases: 0,
            }),
        })
    }

    /// The event positions the state machines read
    /// ([`SmTracker::INTEREST`]); a trigger engine sharing a controller's
    /// knowledge asks for the controller's.
    pub const INTEREST: Interest = SmTracker::INTEREST;

    /// The knowledge this engine decides from: its estimator table and
    /// event log. Registered as a listener in the engine's place, it
    /// hears every event rather than what the rules read.
    pub fn knowledge(&self) -> &Arc<Knowledge> {
        &self.knowledge
    }

    /// Folds the knowledge, closes the forecast audits of the items it
    /// saw complete, and hands `f` the tracker and the trigger state;
    /// then works out again what the rules read, if that may have moved.
    fn current<T>(&self, f: impl FnOnce(&mut SmTracker, &mut TrigInner) -> T) -> T {
        self.knowledge().with_tracker(|tracker| {
            let mut inner = self.inner.lock();
            for item in tracker.take_finished_roots() {
                inner.close_audit(item);
            }
            let out = f(tracker, &mut inner);
            let aliases = tracker.estimates().aliases().count();
            if std::mem::take(&mut inner.reads_stale) || aliases != inner.aliases {
                inner.aliases = aliases;
                let reads = inner.derive_reads(tracker.estimates());
                if reads != inner.reads {
                    inner.reads = reads;
                    self.reads_version.fetch_add(1, Ordering::Release);
                }
            }
            out
        })
    }

    /// Attaches this trigger engine to a metrics hub: rule fires are
    /// counted as `adapt_rule_fires_total` (plus one labelled series per
    /// rule), and every closed [`Forecast`] audit records its
    /// |realized − predicted| error into `adapt_forecast_error_ns`.
    /// Idempotent per hub; [`crate::AdaptiveSession::new`] calls this with
    /// the engine's hub automatically.
    pub fn attach_metrics(&self, hub: &Arc<askel_obs::MetricsHub>) {
        self.inner.lock().metrics = Some(AdaptMetrics::register(hub));
    }

    /// Registers a rule under its governance. At each safe point every
    /// live rule is evaluated and the resulting fires are **arbitrated**
    /// (see [`crate::arbitration`]) before any are applied — which rule
    /// wins a conflict is decided by priority, concern and the configured
    /// [`ConflictPolicy`], never by the order the rules were registered
    /// in.
    pub fn add_rule<R: Rule + 'static>(&self, rule: Governed<R>) {
        self.current(|_, inner| {
            inner.rules.push(Box::new(rule));
            inner.reads_stale = true;
        });
    }

    /// Records one stream item's outcome (the adaptive session calls this
    /// as results are collected). Errors extend the consecutive streak;
    /// any success resets it.
    pub fn record_outcome(&self, ok: bool) {
        let mut inner = self.inner.lock();
        inner.errors.items += 1;
        if ok {
            inner.errors.consecutive = 0;
        } else {
            inner.errors.total += 1;
            inner.errors.consecutive += 1;
        }
    }

    /// Records an input-size hint for the item about to be fed; rules gate
    /// on the EWMA of these via `Trigger::InputSizeAtLeast`.
    pub fn observe_input_size(&self, size: usize) {
        self.inner.lock().input_size.observe(size as f64);
    }

    /// Current error statistics.
    #[cfg(test)]
    pub(crate) fn error_stats(&self) -> ErrorStats {
        self.inner.lock().errors
    }

    /// Evaluates every live rule once, under its governance, against the
    /// current statistics and returns the rewrites that fired (at most
    /// one per rule); counts as a safe point. Once-rules that fire are
    /// retired. [`safe_point`](TriggerEngine::safe_point) plans this way,
    /// then arbitrates and applies.
    pub fn plan(&self, root: &Arc<Node>, lp: usize) -> Vec<PlannedRewrite> {
        self.current(|tracker, inner| {
            inner.safe_points += 1;
            let TrigInner {
                errors,
                input_size,
                rules,
                evaluations,
                safe_points,
                metrics,
                reads_stale,
                ..
            } = inner;
            let ctx = RuleCtx {
                estimates: tracker.estimates(),
                errors,
                input_size: input_size.value(),
                root,
                lp,
                safe_point: *safe_points,
            };
            let mut plans = Vec::new();
            for (index, rule) in rules.iter_mut().enumerate() {
                if rule.retired {
                    continue;
                }
                *evaluations += 1;
                if let Some((fire, forecast)) = rule.evaluate(&ctx) {
                    // A once-rule that fires retires: its reads go.
                    *reads_stale |= rule.retired;
                    if let Some(m) = metrics.as_mut() {
                        m.note_fire(&rule.name);
                    }
                    plans.push(PlannedRewrite {
                        rule: rule.name.clone(),
                        rule_index: index,
                        action: fire.action,
                        why: fire.why,
                        forecast,
                        concern: rule.concern,
                        priority: rule.priority,
                        veto: fire.veto,
                    });
                }
            }
            plans
        })
    }

    /// One safe point over `skel`, the tree the stream's next feed runs,
    /// at `version`: plans against the current statistics, with width
    /// rules reading `lp`, **arbitrates** the collected fires under
    /// `policy` (see [`crate::arbitration`]) and applies the winning set.
    /// Each applied rewrite bumps `version`, emits one
    /// `(After, Reconfigured)` event through `registry` and appends one
    /// decision-log record, all stamped `now`. Returns the rewritten tree
    /// when a rewrite changed it; a knob retune bumps the version and
    /// leaves the tree as it is.
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
    /// * **Estimator invalidation** — every applied `Replace` tells the
    ///   knowledge once, which drops the replaced nodes' estimator
    ///   history and gives a controller sharing it the new tree, and
    ///   notifies rules via [`Rule::on_replaced`].
    pub fn safe_point<P, R>(
        &self,
        skel: &Skel<P, R>,
        version: &mut u64,
        policy: &ConflictPolicy,
        registry: &ListenerRegistry,
        now: TimeNs,
        lp: usize,
    ) -> Option<Skel<P, R>>
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        let plans = self.plan(skel.node(), lp);
        let outcome = arbitrate(plans, policy, skel.node());
        for veto in &outcome.idle_vetoes {
            self.rearm(veto.rule_index);
        }
        let mut rewritten: Option<Skel<P, R>> = None;
        for plan in outcome.winners {
            let current = rewritten.as_ref().unwrap_or(skel);
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
                    let old = current.node().find(*target).map(|sub| ids(&sub));
                    let Some(new_skel) = current.rewritten(*target, replacement) else {
                        self.skip(now, *version, *target, plan);
                        continue;
                    };
                    let kept = ids(new_skel.node());
                    let removed: Vec<NodeId> =
                        old.unwrap_or_default().difference(&kept).copied().collect();
                    let dropped = self
                        .knowledge
                        .invalidate_estimates_for(&removed, new_skel.node());
                    self.note_replaced(*target, replacement);
                    if dropped > 0 {
                        text.push_str(&format!("; dropped {dropped} stale estimator entries"));
                    }
                    rewritten = Some(new_skel);
                    Arc::clone(replacement)
                }
                RewriteAction::SetKnob { knob, value } => {
                    if knob.get() == *value {
                        continue;
                    }
                    knob.set(*value);
                    Arc::clone(current.node())
                }
                RewriteAction::Place { target, node } => {
                    // Both failure shapes — the target vanished before
                    // `placed_at`, or (defensively) the placed tree does
                    // not contain it afterwards — skip with an audit
                    // record instead of panicking the session.
                    let placed = current.placed_at(*target, node).and_then(|new_skel| {
                        let placed_root = new_skel.node().find(*target)?;
                        Some((new_skel, placed_root))
                    });
                    let Some((new_skel, placed_root)) = placed else {
                        self.skip(now, *version, *target, plan);
                        continue;
                    };
                    rewritten = Some(new_skel);
                    placed_root
                }
            };
            *version += 1;
            let event = Event::reconfigured(event_node.id, event_node.tag(), *version, now);
            registry.emit(&mut Payload::None, &event);
            self.record(audit(now, *version, plan, text));
        }
        // Losers after winners, so the log reads "what happened, then
        // what was overruled".
        for s in outcome.suppressed {
            let text = format!("suppressed by `{}`: {:?}", s.by, s.plan.action);
            self.not_applied(now, *version, s.plan, text);
        }
        rewritten
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
        self.rearm(plan.rule_index);
        let plan = PlannedRewrite {
            forecast: None,
            ..plan
        };
        self.record(audit(now, version, plan, text));
    }

    /// Un-retires the rule at `index` (as reported in
    /// [`PlannedRewrite::rule_index`]) when its plan could not be applied
    /// — e.g. an earlier rewrite in the same safe point removed its
    /// target — so the rule gets another chance instead of being
    /// silently lost.
    fn rearm(&self, index: usize) {
        self.current(|_, inner| {
            if let Some(rule) = inner.rules.get_mut(index) {
                rule.retired = false;
                inner.reads_stale = true;
            }
        });
    }

    /// Appends one applied rewrite to the decision log, dropping the
    /// oldest record once [`DECISION_LOG_CAPACITY`] are held.
    pub fn record(&self, record: AdaptRecord) {
        // Folded first: items that completed before this rewrite must not
        // find it in the log when their realized WCT looks for an audit.
        self.current(|_, inner| {
            let open = |r: &AdaptRecord| r.forecast.is_some_and(|f| f.realized.is_none());
            if inner.log.len() == DECISION_LOG_CAPACITY {
                let dropped = inner.log.pop_front().expect("the log is full");
                if open(&dropped) {
                    inner.open_audits -= 1;
                    inner.reads_stale = true;
                }
            }
            if open(&record) {
                inner.open_audits += 1;
                inner.reads_stale = true;
            }
            inner.log.push_back(record);
        });
    }

    /// Tells every registered rule that an applied rewrite replaced the
    /// subtree `target` with `replacement` ([`Rule::on_replaced`]) —
    /// how e.g. `askel_dist::Offload` follows its subtree through
    /// a fallback swap and re-arms.
    fn note_replaced(&self, target: NodeId, replacement: &Arc<Node>) {
        self.current(|_, inner| {
            for rule in &mut inner.rules {
                rule.rule.on_replaced(target, replacement);
            }
            inner.reads_stale = true;
        });
    }

    /// The decision log: the most recent [`DECISION_LOG_CAPACITY`]
    /// records, oldest first.
    pub fn decision_log(&self) -> Vec<AdaptRecord> {
        self.current(|_, inner| inner.log.iter().cloned().collect())
    }

    /// How many safe points have been evaluated.
    pub fn safe_points(&self) -> usize {
        self.inner.lock().safe_points
    }

    /// How many individual rule evaluations ran across all safe points.
    pub fn evaluations(&self) -> usize {
        self.inner.lock().evaluations
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

impl TrigInner {
    /// What the live rules read, each muscle with its alias group, and
    /// the root's span while an audit waits for it.
    fn derive_reads(&self, estimates: &EstimatorTable) -> Reads {
        let live = self.rules.iter().filter(|rule| !rule.retired);
        let mut reads = live.fold(Reads::NOTHING, |reads, rule| reads.union(rule.reads()));
        if self.open_audits > 0 {
            let root = Reads::Only {
                muscles: Vec::new(),
                root: true,
            };
            reads = reads.union(root);
        }
        if let Reads::Only { muscles, .. } = &mut reads {
            // Groups are chains to a canonical member: grow to a fixpoint.
            let mut grown = true;
            while grown {
                grown = false;
                for (m, canonical) in estimates.aliases() {
                    for (has, add) in [(m, canonical), (canonical, m)] {
                        if muscles.contains(&has) && !muscles.contains(&add) {
                            muscles.push(add);
                            grown = true;
                        }
                    }
                }
            }
        }
        reads
    }

    /// A root submission completed: its realized WCT closes the forecast
    /// audit of the skeleton version the item actually ran under — the
    /// last rewrite applied before it started. Matching on version (not
    /// merely "applied before") keeps back-to-back rewrites honest: an
    /// item submitted under version 2 can never close version 1's audit,
    /// even when it completes first.
    ///
    /// The log is appended in `at` order with versions that never go
    /// down, so that version is the newest record's at or before the
    /// item's start, and its records are the run ending there.
    fn close_audit(&mut self, item: Span) {
        let (started, Some(finished)) = (item.started, item.finished) else {
            return;
        };
        let Some(newest) = self.log.iter().rposition(|r| r.at <= started) else {
            return;
        };
        let version = self.log[newest].version;
        let first = self.log.partition_point(|r| r.version < version);
        let Some(forecast) = self
            .log
            .range_mut(first..=newest)
            .filter_map(|r| r.forecast.as_mut())
            .find(|f| f.realized.is_none())
        else {
            return;
        };
        let realized = finished.saturating_sub(started);
        forecast.realized = Some(realized);
        self.open_audits -= 1;
        self.reads_stale = true;
        if let Some(m) = &self.metrics {
            m.note_forecast_error(realized.0.abs_diff(forecast.predicted.0));
        }
    }
}

/// Renders a decision log onto a Chrome trace: one instant marker per
/// record (named `rule: action`, category `adapt`), carrying the
/// justification, version, and — for closed forecast audits — the
/// predicted/realized WCT as event arguments. Combine with the pool's
/// `telemetry_to_chrome` to see rule fires against thread activity on
/// one timeline.
pub fn decision_log_to_chrome(log: &[AdaptRecord], trace: &mut askel_obs::ChromeTrace) {
    use askel_core::json::Json;
    for r in log {
        let mut args = vec![
            ("why".to_string(), Json::Str(r.why.clone())),
            ("version".to_string(), Json::Num(r.version as f64)),
        ];
        if let Some(f) = &r.forecast {
            args.push(("predicted_ns".to_string(), Json::Num(f.predicted.0 as f64)));
            if let Some(realized) = f.realized {
                args.push(("realized_ns".to_string(), Json::Num(realized.0 as f64)));
            }
        }
        trace.push(askel_obs::TraceEvent {
            name: format!("{}: {}", r.rule, r.action),
            cat: "adapt".to_string(),
            ph: 'i',
            ts: r.at,
            dur: None,
            pid: 1,
            tid: 0,
            args,
        });
    }
}

impl Listener for TriggerEngine {
    /// Hands the event to the knowledge; see the module docs.
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        self.knowledge().on_event(payload, event);
    }

    fn interest(&self) -> Interest {
        self.knowledge().interest()
    }

    fn accepts_spans(&self) -> bool {
        self.knowledge().accepts_spans()
    }

    /// What the live rules read (see the module docs).
    fn reads(&self) -> Reads {
        if self.reads_all {
            return Reads::All;
        }
        self.inner.lock().reads.clone()
    }

    fn reads_version(&self) -> u64 {
        self.reads_version.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FallbackSwap, Knob, Promote, RetuneGrain, RetuneWidth, Trigger};
    use askel_events::{EventRecord, When, Where};
    use askel_skeletons::seq;

    #[test]
    fn outcomes_track_streaks() {
        let t = TriggerEngine::new(0.5);
        t.record_outcome(false);
        t.record_outcome(false);
        assert_eq!(t.error_stats().consecutive, 2);
        assert_eq!(t.error_stats().total, 2);
        t.record_outcome(true);
        assert_eq!(t.error_stats().consecutive, 0);
        assert_eq!(t.error_stats().total, 2);
        assert_eq!(t.error_stats().items, 3);
    }

    #[test]
    fn once_rules_retire_after_firing() {
        let target = seq(|x: i64| x);
        let fallback = seq(|x: i64| x);
        let t = TriggerEngine::new(0.5);
        t.add_rule(FallbackSwap::new(&target, &fallback, 1));
        t.record_outcome(false);
        let root = Arc::clone(target.node());
        let first = t.plan(&root, 1);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].rule, "fallback-swap");
        // The streak still holds, but the once-rule is retired.
        let second = t.plan(&root, 1);
        assert!(second.is_empty());
        assert_eq!(t.safe_points(), 2);
        assert_eq!(t.evaluations(), 1, "retired rules are not re-evaluated");
    }

    #[test]
    fn input_size_hint_feeds_promotion() {
        let target = seq(|x: i64| x);
        let replacement = seq(|x: i64| x);
        let t = TriggerEngine::new(0.5);
        t.add_rule(Promote::new(&target, &replacement).when(Trigger::InputSizeAtLeast(100.0)));
        let root = Arc::clone(target.node());
        t.observe_input_size(10);
        assert!(t.plan(&root, 1).is_empty());
        t.observe_input_size(1000);
        // EWMA(10, 1000) at ρ=0.5 is 505 ≥ 100.
        assert_eq!(t.plan(&root, 1).len(), 1);
    }

    #[test]
    fn at_most_one_plan_per_rule_per_safe_point() {
        let target = seq(|x: i64| x);
        let t = TriggerEngine::new(0.5);
        t.add_rule(RetuneWidth::new(Knob::new("w", 1), 4));
        t.record_outcome(false);
        let root = Arc::clone(target.node());
        let plans = t.plan(&root, 2);
        assert_eq!(plans.len(), 1, "one rule, at most one plan");
    }

    /// Governance records a fire before arbitration: a width grow the
    /// cost guard's veto suppresses still starts the hysteresis window,
    /// so the shrink after it waits out the cooldown.
    #[test]
    fn a_suppressed_grow_still_blocks_a_shrink_inside_the_cooldown() {
        use crate::rules::{CostGuard, Hysteresis, NodeHoursMeter};
        let width = Knob::new("width", 2);
        let t = TriggerEngine::new(0.5);
        let damped = RetuneWidth::new(width.clone(), 1).hysteresis(Hysteresis::new(4, 0.0));
        t.add_rule(damped);
        // Spent from the start, and already at its economy value: it vetoes.
        t.add_rule(CostGuard::knob(
            NodeHoursMeter::new(),
            TimeNs::ZERO,
            width.clone(),
            2,
        ));
        let skel = seq(|x: i64| x);
        let registry = ListenerRegistry::new();
        let mut version = 0;
        let policy = ConflictPolicy::default();
        // Safe point 1, LP 4: the grow 2 -> 4 fires and is suppressed.
        assert!(t
            .safe_point(&skel, &mut version, &policy, &registry, TimeNs::ZERO, 4)
            .is_none());
        assert_eq!((width.get(), version), (2, 0));
        let log = t.decision_log();
        assert_eq!(log.len(), 1);
        assert!(
            log[0].action.starts_with("suppressed by `cost-guard`"),
            "{}",
            log[0].action
        );
        // Safe points 2-4, LP 1: the shrink 2 -> 1 reverses the suppressed
        // grow inside its cooldown, so the width rule stays quiet ...
        let width_fires = || {
            let plans = t.plan(skel.node(), 1);
            plans.iter().filter(|p| p.rule == "width-retune").count()
        };
        for _ in 2..=4 {
            assert_eq!(width_fires(), 0);
        }
        // ... until safe point 5, 4 after the grow.
        assert_eq!(width_fires(), 1);
    }

    #[test]
    fn a_trigger_reads_what_its_live_rules_read() {
        use askel_skeletons::{MuscleId, MuscleRole};
        let m = |n| MuscleId::new(NodeId(n), MuscleRole::Execute);
        let t = TriggerEngine::new(0.5);
        assert_eq!((t.reads(), t.reads_version()), (Reads::NOTHING, 0));
        // A grain rule reads its leaf; a trigger its muscle.
        t.add_rule(RetuneGrain::new(Knob::new("g", 4), m(1), TimeNs(10)));
        t.add_rule(
            RetuneWidth::new(Knob::new("w", 2), 1)
                .when(Trigger::DurationAtLeast(m(2), TimeNs::MAX)),
        );
        assert_eq!(t.reads(), Reads::muscle(m(1)).union(Reads::muscle(m(2))));
        let version = t.reads_version();
        assert!(version > 0);
        // A read covers the muscle's alias group, seen at the next fold.
        t.knowledge().with_estimates(|e| e.set_alias(m(3), m(1)));
        t.decision_log();
        assert!(t.reads_version() > version);
        let Reads::Only { muscles, root } = t.reads() else {
            panic!("all");
        };
        assert_eq!((muscles, root), (vec![m(1), m(2), m(3)], false));
        // An open audit reads the root's span until an item closes it.
        t.record(gated(TimeNs::from_millis(10), 1, TimeNs::from_millis(40)));
        assert!(matches!(t.reads(), Reads::Only { root: true, .. }));
        raise(&t, 7, When::Before, 20);
        raise(&t, 7, When::After, 60);
        t.decision_log();
        assert!(matches!(t.reads(), Reads::Only { root: false, .. }));
        // A once-rule reads while it is live, a forecast gate everything.
        let leaf = seq(|x: i64| x);
        t.add_rule(
            Promote::new(&leaf, &leaf)
                .when(Trigger::InputSizeAtLeast(1.0))
                .forecast_gated(0.0),
        );
        assert_eq!(t.reads(), Reads::All);
        // Made for a controller: everything, always.
        let c = askel_core::AutonomicController::new(
            Arc::clone(leaf.node()),
            askel_core::ControllerConfig::new(TimeNs::from_millis(1), 2),
            Arc::new(askel_core::FnActuator(|_: usize| {})),
        );
        assert_eq!(TriggerEngine::for_controller(&c).reads(), Reads::All);
    }

    #[test]
    fn a_fired_once_rule_stops_reading() {
        use askel_skeletons::{MuscleId, MuscleRole};
        let leaf = seq(|x: i64| x);
        let fe = MuscleId::new(leaf.id(), MuscleRole::Execute);
        let other = MuscleId::new(NodeId(u64::MAX), MuscleRole::Execute);
        let t = TriggerEngine::new(0.5);
        t.knowledge()
            .with_estimates(|e| e.init_duration(other, TimeNs(5)));
        let watched = Trigger::DurationAtMost(other, TimeNs::MAX);
        t.add_rule(FallbackSwap::new(&leaf, &leaf, 1).when(watched));
        t.add_rule(RetuneGrain::new(Knob::new("g", 4), fe, TimeNs(10)));
        assert_eq!(t.reads(), Reads::muscle(other).union(Reads::muscle(fe)));
        t.record_outcome(false);
        let version = t.reads_version();
        assert_eq!(t.plan(leaf.node(), 1).len(), 1);
        // The swap retired: the grain rule still reads `fe`.
        assert_eq!(t.reads(), Reads::muscle(fe));
        assert_eq!(t.reads_version(), version + 1);
    }

    #[test]
    fn decision_log_records_applied_rewrites() {
        let t = TriggerEngine::new(0.5);
        t.record(AdaptRecord {
            at: TimeNs::from_millis(5),
            version: 1,
            rule: "promote".into(),
            target: Some(NodeId(3)),
            action: "replace n3 with n9".into(),
            why: "input~500 >= 100".into(),
            forecast: None,
        });
        let log = t.decision_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].version, 1);
        assert_eq!(log[0].rule, "promote");
    }

    /// An event of root `seq` instance `inst` of node 11, at `at` ns.
    fn item(inst: u64, when: When, wher: Where, at: u64) -> Event {
        use askel_skeletons::{InstanceId, KindTag};
        let (node, index) = (NodeId(11), InstanceId(inst));
        Event {
            node,
            kind: KindTag::Seq,
            when,
            wher,
            index,
            trace: askel_events::Trace::root(node, index, KindTag::Seq),
            timestamp: TimeNs(at),
            info: askel_events::EventInfo::None,
        }
    }

    /// Raises item `inst`'s start or end at `at_ms`.
    fn raise(t: &TriggerEngine, inst: u64, when: When, at_ms: u64) {
        let at = TimeNs::from_millis(at_ms).0;
        t.on_event(&mut Payload::None, &item(inst, when, Where::Skeleton, at));
    }

    /// A gated record of `version` applied at `at`, predicting `predicted`.
    fn gated(at: TimeNs, version: u64, predicted: TimeNs) -> AdaptRecord {
        AdaptRecord {
            at,
            version,
            rule: format!("promote-v{version}"),
            target: None,
            action: "replace".into(),
            why: "gated".into(),
            forecast: Some(crate::forecast::Forecast {
                predicted,
                baseline: TimeNs::from_millis(100),
                realized: None,
            }),
        }
    }

    #[test]
    fn a_span_closes_the_forecast_audit_as_its_two_events_would() {
        let (pairs, spans) = (TriggerEngine::new(0.5), TriggerEngine::new(0.5));
        let span = |inst, from_ms, to_ms| {
            let mut e = item(inst, When::After, Where::Skeleton, 0);
            e.timestamp = TimeNs::from_millis(to_ms);
            e.info = askel_events::EventInfo::Started(TimeNs::from_millis(from_ms));
            spans.on_event(&mut Payload::None, &e);
            raise(&pairs, inst, When::Before, from_ms);
            raise(&pairs, inst, When::After, to_ms);
        };
        let audits = |t: &TriggerEngine| {
            let log = t.decision_log();
            log.iter()
                .map(|r| r.forecast.unwrap().realized)
                .collect::<Vec<_>>()
        };
        for t in [&pairs, &spans] {
            t.record(gated(TimeNs::from_millis(10), 1, TimeNs::from_millis(40)));
        }
        // Begun before the rewrite: no audit closes.
        span(1, 5, 20);
        assert_eq!(audits(&spans), [None]);
        span(2, 25, 70);
        for t in [&pairs, &spans] {
            t.record(gated(TimeNs::from_millis(75), 2, TimeNs::from_millis(40)));
        }
        span(3, 80, 81);
        span(4, 90, 99);
        assert_eq!(
            audits(&spans),
            [Some(TimeNs::from_millis(45)), Some(TimeNs::from_millis(1))]
        );
        assert_eq!(audits(&spans), audits(&pairs));
    }

    #[test]
    fn realized_wct_closes_the_forecast_audit() {
        let t = TriggerEngine::new(0.5);
        let realized = || t.decision_log()[0].forecast.unwrap().realized;
        // An in-flight item that started *before* the rewrite must not
        // close the audit; the first item submitted after it does.
        raise(&t, 1, When::Before, 0);
        t.record(gated(TimeNs::from_millis(10), 1, TimeNs::from_millis(40)));
        // The pre-rewrite item completes: audit stays open.
        raise(&t, 1, When::After, 20);
        assert_eq!(realized(), None);
        // A post-rewrite item completes: realized = its WCT.
        raise(&t, 2, When::Before, 25);
        raise(&t, 2, When::After, 70);
        assert_eq!(realized(), Some(TimeNs::from_millis(45)));
        // Later completions do not overwrite a closed audit.
        raise(&t, 3, When::Before, 80);
        raise(&t, 3, When::After, 81);
        assert_eq!(realized(), Some(TimeNs::from_millis(45)));
    }

    #[test]
    fn back_to_back_rewrites_attribute_realized_to_their_own_version() {
        let t = TriggerEngine::new(0.5);
        let ms = TimeNs::from_millis;
        let realized = |v: usize| t.decision_log()[v].forecast.unwrap().realized;
        // Two rewrites on consecutive safe points: v1 at 10ms, v2 at
        // 30ms. Item A (inst 1) starts at 20ms under v1; item B (inst 2)
        // starts at 35ms under v2 — and completes FIRST.
        t.record(gated(ms(10), 1, ms(40)));
        raise(&t, 1, When::Before, 20);
        t.record(gated(ms(30), 2, ms(25)));
        raise(&t, 2, When::Before, 35);
        // B completes first: it ran under v2, so it must close v2's
        // audit — not v1's, which is still waiting on A.
        raise(&t, 2, When::After, 50);
        assert_eq!(realized(0), None, "v1 still open");
        assert_eq!(realized(1), Some(ms(15)), "v2 closed by its own item");
        // A completes: closes v1's audit with A's WCT.
        raise(&t, 1, When::After, 60);
        assert_eq!(
            realized(0),
            Some(ms(40)),
            "v1 closed by the item that ran under it"
        );
        assert_eq!(
            realized(1),
            Some(ms(15)),
            "v2's closed audit is not overwritten"
        );
    }

    #[test]
    fn a_full_log_of_suppressed_records_still_closes_the_right_audit() {
        let t = TriggerEngine::new(0.5);
        let us = TimeNs::from_micros;
        let suppressed = |at: u64, version: u64| AdaptRecord {
            forecast: None,
            action: "suppressed by `veto`".into(),
            ..gated(us(at), version, TimeNs(0))
        };
        // A standing veto fills the log under version 0, a gated rewrite
        // makes version 1, and the veto keeps logging under it.
        for at in 0..DECISION_LOG_CAPACITY as u64 {
            t.record(suppressed(at, 0));
        }
        t.record(gated(us(2_000), 1, us(400)));
        for at in 2_001..2_100 {
            t.record(suppressed(at, 1));
        }
        assert_eq!(t.decision_log().len(), DECISION_LOG_CAPACITY);
        let audit = || {
            let log = t.decision_log();
            let gated = log.iter().find(|r| r.forecast.is_some()).unwrap();
            gated.forecast.unwrap().realized
        };
        // An item that started under version 0 closes nothing.
        let run = |inst, from: u64, to: u64| {
            for (when, at) in [(When::Before, us(from)), (When::After, us(to))] {
                t.on_event(&mut Payload::None, &item(inst, when, Where::Skeleton, at.0));
            }
        };
        run(1, 1_500, 3_000);
        assert_eq!(audit(), None);
        // The first under version 1 — after its suppressed records — does.
        run(2, 2_050, 2_550);
        assert_eq!(audit(), Some(us(500)));
        run(3, 2_060, 2_960);
        assert_eq!(audit(), Some(us(500)), "a closed audit stays as it is");
    }

    #[test]
    fn events_wait_in_the_log_until_state_is_read() {
        use askel_skeletons::{MuscleId, MuscleRole};
        let t = TriggerEngine::new(0.5);
        let event = |when, wher, at| t.on_event(&mut Payload::None, &item(1, when, wher, at));
        // A lone trigger accepts spans: the seq raises one event.
        assert!(t.accepts_spans());
        let mut span = item(1, When::After, Where::Skeleton, 60);
        span.info = askel_events::EventInfo::Started(TimeNs(0));
        t.on_event(&mut Payload::None, &span);
        // Positions the state machines ignore are not even logged.
        event(When::After, Where::NestedSkeleton, 61);
        event(When::After, Where::Reconfigured, 62);
        let mut logged = Vec::new();
        t.knowledge().log().drain_into(&mut logged);
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].span_start(), Some(TimeNs(0)));
        // Nothing left to fold, and nothing was folded before.
        let estimates =
            |f: &dyn Fn(&askel_core::EstimatorTable) -> bool| t.knowledge().read_estimates(f);
        assert!(estimates(&|e| e.snapshot().durations.is_empty()));
        for r in logged {
            assert!(t.knowledge().log().try_push(r));
        }
        let fe = MuscleId::new(NodeId(11), MuscleRole::Execute);
        assert!(estimates(&|e| e.duration(fe) == Some(TimeNs(60))));
    }

    #[test]
    fn a_full_log_is_folded_by_the_thread_that_fills_it() {
        use askel_events::event_log::SHARD_CAPACITY;
        use askel_skeletons::{MuscleId, MuscleRole};
        let t = TriggerEngine::new(1.0);
        // Nobody reads: 3 capacities' worth of seq spans, each 1 ns
        // longer than the last.
        let spans = 3 * SHARD_CAPACITY as u64 / 2;
        for i in 0..spans {
            for (when, at) in [(When::Before, 10 * i), (When::After, 10 * i + i)] {
                t.on_event(&mut Payload::None, &item(i + 1, when, Where::Skeleton, at));
            }
        }
        let mut left = Vec::new();
        t.knowledge().log().drain_into(&mut left);
        assert!(left.len() <= SHARD_CAPACITY, "the log stayed bounded");
        for r in left {
            assert!(t.knowledge().log().try_push(r));
        }
        // ρ = 1: the estimate is the last span, so nothing was dropped
        // and nothing replayed out of order.
        let fe = MuscleId::new(NodeId(11), MuscleRole::Execute);
        assert_eq!(
            t.knowledge().read_estimates(|e| e.duration(fe)),
            Some(TimeNs(spans - 1))
        );
    }

    /// Every event of six items of a `map` over `d&C`s streamed three at a
    /// time through the simulator, restamped so that no two share a
    /// timestamp (equal timestamps are `event_log`'s tests' business).
    fn recorded_stream() -> &'static [Event] {
        use askel_events::FnListener;
        use askel_sim::cost::TableCost;
        use askel_sim::SimEngine;
        use askel_skeletons::{dac, map};
        use std::sync::OnceLock;
        static EVENTS: OnceLock<Vec<Event>> = OnceLock::new();
        EVENTS.get_or_init(|| {
            let sort = dac(
                |v: &Vec<i64>| v.len() > 2,
                |v: Vec<i64>| {
                    let (a, b) = v.split_at(v.len() / 2);
                    vec![a.to_vec(), b.to_vec()]
                },
                seq(|mut v: Vec<i64>| {
                    v.sort_unstable();
                    v
                }),
                |parts: Vec<Vec<i64>>| {
                    let mut out: Vec<i64> = parts.into_iter().flatten().collect();
                    out.sort_unstable();
                    out
                },
            );
            let program = map(
                |v: Vec<i64>| v.chunks(8).map(<[i64]>::to_vec).collect::<Vec<_>>(),
                sort,
                |parts: Vec<Vec<i64>>| parts.into_iter().flatten().collect::<Vec<i64>>(),
            );
            let events = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&events);
            let mut sim = SimEngine::new(2, Arc::new(TableCost::new(TimeNs(700))));
            sim.registry().add_listener(Arc::new(FnListener(
                move |_: &mut Payload<'_>, e: &Event| sink.lock().push(e.clone()),
            )));
            sim.run_stream(
                3,
                |i| {
                    (i < 6).then(|| {
                        (
                            program.clone(),
                            (0..24).map(|x| (x * 7 + i as i64) % 11).collect(),
                        )
                    })
                },
                |_, out: Result<Vec<i64>, _>| assert!(out.is_ok()),
                &mut [],
            );
            let mut events = std::mem::take(&mut *events.lock());
            for (i, e) in events.iter_mut().enumerate() {
                e.timestamp = TimeNs(e.timestamp.0 + 13 * i as u64);
            }
            assert!(events.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
            events
        })
    }

    proptest::proptest! {
        /// One event sequence fed in order, and the same sequence dealt
        /// arbitrarily over several threads' logs, leave the same
        /// estimates and the same decision log.
        #[test]
        fn folding_split_logs_equals_feeding_in_order(
            threads in 1usize..=askel_events::event_log::SHARDS,
            deal in proptest::collection::vec(0usize..askel_events::event_log::SHARDS, 1..64),
            cut in 0usize..1000,
        ) {
            let events = recorded_stream();
            // In the first third, so that whole items still follow it.
            let cut = cut % (events.len() / 3);
            let in_order = TriggerEngine::new(0.5);
            let split = TriggerEngine::new(0.5);
            for (i, event) in events.iter().enumerate() {
                if i == cut {
                    // A rewrite lands mid-stream: later items close its audit.
                    in_order.record(gated(event.timestamp, 1, TimeNs(40)));
                    split.record(gated(event.timestamp, 1, TimeNs(40)));
                }
                in_order.on_event(&mut Payload::None, event);
                if TriggerEngine::INTEREST.contains(event.when, event.wher) {
                    let shard = deal[i % deal.len()] % threads;
                    while !split.knowledge().log().try_push_to(shard, EventRecord::from(event)) {
                        split.knowledge().with_tracker(|_| ());
                    }
                }
            }
            let table = |t: &TriggerEngine| t.knowledge().read_estimates(|e| e.snapshot());
            proptest::prop_assert_eq!(table(&in_order), table(&split));
            proptest::prop_assert!(!table(&split).durations.is_empty());
            proptest::prop_assert_eq!(in_order.decision_log(), split.decision_log());
            let audit = split.decision_log()[0].forecast.expect("recorded with one");
            proptest::prop_assert!(audit.realized.is_some());
        }
    }
}
