//! The trigger engine: the *Monitor/Analyze* half of self-configuration.
//!
//! [`TriggerEngine`] is an ordinary [`Listener`]: registered on an engine's
//! (or simulator's) `ListenerRegistry`, it replays the events through the
//! same per-kind state machines the WCT controller uses
//! ([`askel_core::SmTracker`]), maintaining EWMA duration and cardinality
//! estimates per muscle. On top of the event stream it tracks two
//! session-level statistics the events cannot carry: per-item outcomes
//! (error streaks, fed by the adaptive session) and input-size hints.
//!
//! Rules ([`crate::rules`]) are evaluated **only** at safe points, via
//! [`TriggerEngine::plan`] — never from inside `on_event` — so a rewrite
//! can fire at most once per safe point and never mid-item. Nothing
//! therefore needs event-derived state to be current *between* reads, and
//! `on_event` does not update it: on the muscle's thread it appends a
//! 48-byte record to a per-thread log ([`EventLog`]) and returns. Every
//! method that reads or edits that state — [`plan`](TriggerEngine::plan),
//! [`read_estimates`](TriggerEngine::read_estimates),
//! [`decision_log`](TriggerEngine::decision_log), … — first **folds** the
//! log: replays the logged records, in order, through the state machines.
//! Trigger state is thus current *as of the last read*; a log that fills
//! up is folded by the thread that found it full, so memory is bounded
//! even when nobody reads. Every applied rewrite is recorded in an
//! auditable decision log ([`AdaptRecord`]), symmetric to the controller's
//! `AnalysisRecord` and, like it, a ring of the most recent
//! [`DECISION_LOG_CAPACITY`] records.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use askel_core::{AutonomicController, EstimatorTable, Ewma, SmTracker};
use askel_events::{Event, EventLog, EventRecord, Interest, Listener, Payload, When, Where};
use askel_skeletons::{InstanceId, Node, NodeId, TimeNs};

use crate::forecast::Forecast;
use crate::metrics::AdaptMetrics;
use crate::rules::{Concern, ErrorStats, RewriteAction, Rule, RuleCtx};

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
    /// Registration index of that rule: the
    /// [`Reconfigurator`](crate::Reconfigurator) re-arms it by this index
    /// if the plan could not be applied, so a once-rule retired at fire
    /// time is not lost.
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
    tracker: SmTracker,
    errors: ErrorStats,
    input_size: Ewma,
    rules: Vec<Box<dyn Rule>>,
    /// Parallel to `rules`: `true` once a once-rule has fired.
    retired: Vec<bool>,
    enabled: bool,
    /// The last [`DECISION_LOG_CAPACITY`] records, oldest first.
    log: VecDeque<AdaptRecord>,
    safe_points: usize,
    evaluations: usize,
    /// Start timestamps of in-flight root submissions, keyed by instance
    /// — closes the forecast audit loop (realized WCT per item).
    item_starts: HashMap<InstanceId, TimeNs>,
    /// Metrics handles once attached to a hub (see [`crate::metrics`]):
    /// rule-fire counters and the forecast-error histogram.
    metrics: Option<AdaptMetrics>,
    /// Where a fold gathers the log's records; kept for its capacity.
    fold_buf: Vec<EventRecord>,
}

/// Event-driven rule host; see the module docs.
pub struct TriggerEngine {
    inner: Mutex<TrigInner>,
    /// Events logged by `on_event` and not yet folded into `inner`.
    log: EventLog,
}

impl TriggerEngine {
    /// A trigger engine whose EWMA estimators use weight `rho` (the
    /// paper's ρ, 0.5 by convention).
    pub fn new(rho: f64) -> Arc<Self> {
        Arc::new(TriggerEngine {
            inner: Mutex::new(TrigInner {
                tracker: SmTracker::estimators_only(rho),
                errors: ErrorStats::default(),
                input_size: Ewma::new(rho.clamp(0.0, 1.0)),
                rules: Vec::new(),
                retired: Vec::new(),
                enabled: true,
                log: VecDeque::new(),
                safe_points: 0,
                evaluations: 0,
                item_starts: HashMap::new(),
                metrics: None,
                fold_buf: Vec::new(),
            }),
            log: EventLog::default(),
        })
    }

    /// The event positions the state machines read. The parent-side
    /// nesting events carry nothing they use (children announce
    /// themselves), and a rewrite announcement is not a muscle execution.
    pub const INTEREST: Interest = Interest::ALL
        .without(Interest::at(Where::NestedSkeleton))
        .without(Interest::at(Where::Reconfigured));

    /// Locks the state with every logged event folded in.
    fn current(&self) -> parking_lot::MutexGuard<'_, TrigInner> {
        let mut inner = self.inner.lock();
        self.log
            .fold(&mut *inner, |state| &mut state.fold_buf, TrigInner::apply);
        inner
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

    /// Registers a rule. At each safe point every live rule is evaluated
    /// and the resulting fires are **arbitrated** (see
    /// [`crate::arbitration`]) before any are applied — which rule wins a
    /// conflict is decided by priority, concern and the configured
    /// [`ConflictPolicy`](crate::ConflictPolicy), never by the order the
    /// rules were registered in.
    pub fn add_rule(&self, rule: impl Rule + 'static) {
        let mut inner = self.inner.lock();
        inner.rules.push(Box::new(rule));
        inner.retired.push(false);
    }

    /// Number of registered rules (retired once-rules included).
    pub fn rules(&self) -> usize {
        self.inner.lock().rules.len()
    }

    /// Enables/disables every rule at once. A disabled trigger engine
    /// still tracks statistics but [`plan`](TriggerEngine::plan) returns
    /// nothing — the session behaves exactly like a plain `StreamSession`.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.lock().enabled = enabled;
    }

    /// Whether rules may fire.
    pub fn enabled(&self) -> bool {
        self.inner.lock().enabled
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

    /// Read access to the event-derived estimator table.
    pub fn read_estimates<T>(&self, f: impl FnOnce(&EstimatorTable) -> T) -> T {
        let inner = self.current();
        f(inner.tracker.estimates())
    }

    /// Seeds the trigger estimators from a WCT controller's live table —
    /// the two autonomic layers (self-optimization in `askel-core`,
    /// self-configuration here) then decide from one shared view of the
    /// world, instead of each warming up separately.
    pub fn seed_from(&self, controller: &AutonomicController) {
        let table = controller.read_estimates(|t| t.clone());
        *self.current().tracker.estimates_mut() = table;
    }

    /// Programmatic estimator initialization (tests, benches).
    pub fn with_estimates(&self, f: impl FnOnce(&mut EstimatorTable)) {
        f(self.current().tracker.estimates_mut());
    }

    /// One safe point: evaluates every live rule once against the current
    /// statistics and returns the rewrites that fired (at most one per
    /// rule). Once-rules that fire are retired. Returns nothing while
    /// disabled. The caller (normally a
    /// [`Reconfigurator`](crate::Reconfigurator)) applies the plans and
    /// records them with [`TriggerEngine::record`].
    pub fn plan(
        &self,
        root: &Arc<Node>,
        version: u64,
        lp: usize,
        _now: TimeNs,
    ) -> Vec<PlannedRewrite> {
        let mut inner = self.current();
        inner.safe_points += 1;
        if !inner.enabled {
            return Vec::new();
        }
        let TrigInner {
            tracker,
            errors,
            input_size,
            rules,
            retired,
            evaluations,
            safe_points,
            metrics,
            ..
        } = &mut *inner;
        let ctx = RuleCtx {
            estimates: tracker.estimates(),
            errors,
            input_size: input_size.value(),
            root,
            version,
            lp,
            safe_point: *safe_points,
        };
        let mut plans = Vec::new();
        for (index, (rule, retired)) in rules.iter().zip(retired.iter_mut()).enumerate() {
            if *retired {
                continue;
            }
            *evaluations += 1;
            if let Some(fire) = rule.evaluate(&ctx) {
                if rule.once() {
                    *retired = true;
                }
                if let Some(m) = metrics.as_mut() {
                    m.note_fire(rule.name());
                }
                plans.push(PlannedRewrite {
                    rule: rule.name().to_string(),
                    rule_index: index,
                    action: fire.action,
                    why: fire.why,
                    forecast: fire.forecast,
                    concern: rule.concern(),
                    priority: rule.priority(),
                    veto: fire.veto,
                });
            }
        }
        plans
    }

    /// Un-retires the rule at `index` (as reported in
    /// [`PlannedRewrite::rule_index`]). The
    /// [`Reconfigurator`](crate::Reconfigurator) calls this when a
    /// planned subtree replacement could not be applied — e.g. an earlier rewrite in the
    /// same safe point removed its target — so the rule gets another
    /// chance instead of being silently lost.
    pub(crate) fn rearm(&self, index: usize) {
        let mut inner = self.inner.lock();
        if let Some(retired) = inner.retired.get_mut(index) {
            *retired = false;
        }
    }

    /// Appends one applied rewrite to the decision log, dropping the
    /// oldest record once [`DECISION_LOG_CAPACITY`] are held.
    pub fn record(&self, record: AdaptRecord) {
        // Folded first: items that completed before this rewrite must not
        // find it in the log when their realized WCT looks for an audit.
        let mut inner = self.current();
        if inner.log.len() == DECISION_LOG_CAPACITY {
            inner.log.pop_front();
        }
        inner.log.push_back(record);
    }

    /// Drops every estimator entry (durations, cardinalities, group
    /// fallbacks, aliases) whose muscle belongs to one of `removed` —
    /// the nodes an applied rewrite removed from the tree. Returns the
    /// number of positional entries dropped. The
    /// [`Reconfigurator`](crate::Reconfigurator) calls this after every
    /// applied subtree replacement, so the next forecast is computed
    /// from the live tree instead of being steered by history of a
    /// subtree that no longer exists.
    pub fn invalidate_estimates_for(&self, removed: &[NodeId]) -> usize {
        self.current()
            .tracker
            .estimates_mut()
            .invalidate_nodes(removed)
    }

    /// Tells every registered rule that an applied rewrite replaced the
    /// subtree `target` with `replacement` ([`Rule::on_replaced`]) —
    /// how e.g. [`Offload`](crate::Offload) follows its subtree through
    /// a fallback swap and re-arms.
    pub(crate) fn note_replaced(&self, target: NodeId, replacement: &Arc<Node>) {
        let inner = self.inner.lock();
        for rule in &inner.rules {
            rule.on_replaced(target, replacement);
        }
    }

    /// The decision log: the most recent [`DECISION_LOG_CAPACITY`]
    /// records, oldest first.
    pub fn decision_log(&self) -> Vec<AdaptRecord> {
        self.current().log.iter().cloned().collect()
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
    /// Logs the event for the next fold; see the module docs.
    fn on_event(&self, _payload: &mut Payload<'_>, event: &Event) {
        self.log.log(event, Self::INTEREST, || drop(self.current()));
    }

    fn interest(&self) -> Interest {
        Self::INTEREST
    }
}

impl TrigInner {
    /// Replays one logged event.
    fn apply(&mut self, event: EventRecord) {
        if event.wher == Where::Skeleton && event.is_root() {
            match event.when {
                When::Before => {
                    // A fresh root submission: drop finished instance
                    // records so the tracker's memory stays bounded on
                    // long streams (estimates are kept — they are the
                    // whole point). Track the item's start for the
                    // forecast audit (bounded: items that never complete
                    // — poisoned runs — are swept wholesale at the cap).
                    self.tracker.prune_finished();
                    if self.item_starts.len() >= 1024 {
                        self.item_starts.clear();
                    }
                    self.item_starts.insert(event.index, event.timestamp);
                }
                When::After => {
                    // A root submission completed: its realized WCT
                    // closes the forecast audit of the skeleton version
                    // the item actually ran under — the last rewrite
                    // applied before it started. Matching on version
                    // (not merely "applied before") keeps back-to-back
                    // rewrites honest: an item submitted under version 2
                    // can never close version 1's audit, even when it
                    // completes first.
                    if let Some(started) = self.item_starts.remove(&event.index) {
                        let realized = event.timestamp.saturating_sub(started);
                        let ran_under = self
                            .log
                            .iter()
                            .filter(|r| r.at <= started)
                            .map(|r| r.version)
                            .max();
                        let mut audit_error = None;
                        if let Some(version) = ran_under {
                            if let Some(forecast) = self
                                .log
                                .iter_mut()
                                .filter(|r| r.version == version && r.at <= started)
                                .filter_map(|r| r.forecast.as_mut())
                                .find(|f| f.realized.is_none())
                            {
                                forecast.realized = Some(realized);
                                audit_error = Some(realized.0.abs_diff(forecast.predicted.0));
                            }
                        }
                        if let (Some(err), Some(m)) = (audit_error, &self.metrics) {
                            m.note_forecast_error(err);
                        }
                    }
                }
            }
        }
        self.tracker.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FallbackSwap, Knob, Promote, RetuneWidth, Trigger};
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
        let first = t.plan(&root, 0, 1, TimeNs::ZERO);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].rule, "fallback-swap");
        // The streak still holds, but the once-rule is retired.
        let second = t.plan(&root, 1, 1, TimeNs::ZERO);
        assert!(second.is_empty());
        assert_eq!(t.safe_points(), 2);
        assert_eq!(t.evaluations(), 1, "retired rules are not re-evaluated");
    }

    #[test]
    fn disabled_engine_plans_nothing() {
        let target = seq(|x: i64| x);
        let t = TriggerEngine::new(0.5);
        t.add_rule(FallbackSwap::new(&target, &target, 1));
        t.record_outcome(false);
        t.set_enabled(false);
        let root = Arc::clone(target.node());
        assert!(t.plan(&root, 0, 1, TimeNs::ZERO).is_empty());
        t.set_enabled(true);
        assert_eq!(t.plan(&root, 0, 1, TimeNs::ZERO).len(), 1);
    }

    #[test]
    fn input_size_hint_feeds_promotion() {
        let target = seq(|x: i64| x);
        let replacement = seq(|x: i64| x);
        let t = TriggerEngine::new(0.5);
        t.add_rule(Promote::new(&target, &replacement).when(Trigger::InputSizeAtLeast(100.0)));
        let root = Arc::clone(target.node());
        t.observe_input_size(10);
        assert!(t.plan(&root, 0, 1, TimeNs::ZERO).is_empty());
        t.observe_input_size(1000);
        // EWMA(10, 1000) at ρ=0.5 is 505 ≥ 100.
        assert_eq!(t.plan(&root, 0, 1, TimeNs::ZERO).len(), 1);
    }

    #[test]
    fn at_most_one_plan_per_rule_per_safe_point() {
        let target = seq(|x: i64| x);
        let t = TriggerEngine::new(0.5);
        t.add_rule(RetuneWidth::new(Knob::new("w", 1), 4));
        t.record_outcome(false);
        let root = Arc::clone(target.node());
        let plans = t.plan(&root, 0, 2, TimeNs::ZERO);
        assert_eq!(plans.len(), 1, "one rule, at most one plan");
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

    #[test]
    fn realized_wct_closes_the_forecast_audit() {
        use crate::forecast::Forecast;
        use askel_skeletons::{InstanceId, KindTag};

        let t = TriggerEngine::new(0.5);
        // An in-flight item that started *before* the rewrite must not
        // close the audit; the first item submitted after it does.
        let node = NodeId(11);
        let root_event = |when, inst: u64, at_ms: u64| Event {
            node,
            kind: KindTag::Seq,
            when,
            wher: Where::Skeleton,
            index: InstanceId(inst),
            trace: askel_events::Trace::root(node, InstanceId(inst), KindTag::Seq),
            timestamp: TimeNs::from_millis(at_ms),
            info: askel_events::EventInfo::None,
        };
        t.on_event(&mut Payload::None, &root_event(When::Before, 1, 0));
        t.record(AdaptRecord {
            at: TimeNs::from_millis(10),
            version: 1,
            rule: "promote".into(),
            target: None,
            action: "replace".into(),
            why: "gated".into(),
            forecast: Some(Forecast {
                predicted: TimeNs::from_millis(40),
                baseline: TimeNs::from_millis(100),
                realized: None,
            }),
        });
        // The pre-rewrite item completes: audit stays open.
        t.on_event(&mut Payload::None, &root_event(When::After, 1, 20));
        assert_eq!(t.decision_log()[0].forecast.unwrap().realized, None);
        // A post-rewrite item completes: realized = its WCT.
        t.on_event(&mut Payload::None, &root_event(When::Before, 2, 25));
        t.on_event(&mut Payload::None, &root_event(When::After, 2, 70));
        assert_eq!(
            t.decision_log()[0].forecast.unwrap().realized,
            Some(TimeNs::from_millis(45))
        );
        // Later completions do not overwrite a closed audit.
        t.on_event(&mut Payload::None, &root_event(When::Before, 3, 80));
        t.on_event(&mut Payload::None, &root_event(When::After, 3, 81));
        assert_eq!(
            t.decision_log()[0].forecast.unwrap().realized,
            Some(TimeNs::from_millis(45))
        );
    }

    #[test]
    fn back_to_back_rewrites_attribute_realized_to_their_own_version() {
        use crate::forecast::Forecast;
        use askel_skeletons::{InstanceId, KindTag};

        let t = TriggerEngine::new(0.5);
        let node = NodeId(11);
        let root_event = |when, inst: u64, at_ms: u64| Event {
            node,
            kind: KindTag::Seq,
            when,
            wher: Where::Skeleton,
            index: InstanceId(inst),
            trace: askel_events::Trace::root(node, InstanceId(inst), KindTag::Seq),
            timestamp: TimeNs::from_millis(at_ms),
            info: askel_events::EventInfo::None,
        };
        let gated_record = |at_ms: u64, version: u64, predicted_ms: u64| AdaptRecord {
            at: TimeNs::from_millis(at_ms),
            version,
            rule: format!("promote-v{version}"),
            target: None,
            action: "replace".into(),
            why: "gated".into(),
            forecast: Some(Forecast {
                predicted: TimeNs::from_millis(predicted_ms),
                baseline: TimeNs::from_millis(100),
                realized: None,
            }),
        };
        // Two rewrites on consecutive safe points: v1 at 10ms, v2 at
        // 30ms. Item A (inst 1) starts at 20ms under v1; item B (inst 2)
        // starts at 35ms under v2 — and completes FIRST.
        t.record(gated_record(10, 1, 40));
        t.on_event(&mut Payload::None, &root_event(When::Before, 1, 20));
        t.record(gated_record(30, 2, 25));
        t.on_event(&mut Payload::None, &root_event(When::Before, 2, 35));
        // B completes first: it ran under v2, so it must close v2's
        // audit — not v1's, which is still waiting on A.
        t.on_event(&mut Payload::None, &root_event(When::After, 2, 50));
        let log = t.decision_log();
        assert_eq!(log[0].forecast.unwrap().realized, None, "v1 still open");
        assert_eq!(
            log[1].forecast.unwrap().realized,
            Some(TimeNs::from_millis(15)),
            "v2 closed by its own item"
        );
        // A completes: closes v1's audit with A's WCT.
        t.on_event(&mut Payload::None, &root_event(When::After, 1, 60));
        let log = t.decision_log();
        assert_eq!(
            log[0].forecast.unwrap().realized,
            Some(TimeNs::from_millis(40)),
            "v1 closed by the item that ran under it"
        );
        assert_eq!(
            log[1].forecast.unwrap().realized,
            Some(TimeNs::from_millis(15)),
            "v2's closed audit is not overwritten"
        );
    }

    /// A gated record applied at `at`.
    fn gated(at: TimeNs, version: u64) -> AdaptRecord {
        AdaptRecord {
            at,
            version,
            rule: "promote".into(),
            target: None,
            action: "replace".into(),
            why: "gated".into(),
            forecast: Some(crate::forecast::Forecast {
                predicted: TimeNs(40),
                baseline: TimeNs(100),
                realized: None,
            }),
        }
    }

    #[test]
    fn events_wait_in_the_log_until_state_is_read() {
        use askel_skeletons::{InstanceId, KindTag, MuscleId, MuscleRole};
        let t = TriggerEngine::new(0.5);
        let node = NodeId(11);
        let event = |when, wher, at| Event {
            node,
            kind: KindTag::Seq,
            when,
            wher,
            index: InstanceId(1),
            trace: askel_events::Trace::root(node, InstanceId(1), KindTag::Seq),
            timestamp: TimeNs(at),
            info: askel_events::EventInfo::None,
        };
        t.on_event(&mut Payload::None, &event(When::Before, Where::Skeleton, 0));
        t.on_event(&mut Payload::None, &event(When::After, Where::Skeleton, 60));
        // Positions the state machines ignore are not even logged.
        t.on_event(
            &mut Payload::None,
            &event(When::After, Where::NestedSkeleton, 61),
        );
        t.on_event(
            &mut Payload::None,
            &event(When::After, Where::Reconfigured, 62),
        );
        let mut logged = Vec::new();
        t.log.drain_into(&mut logged);
        assert_eq!(logged.len(), 2);
        assert!(t
            .inner
            .lock()
            .tracker
            .estimates()
            .snapshot()
            .durations
            .is_empty());
        for r in logged {
            assert!(t.log.try_push(r));
        }
        let fe = MuscleId::new(node, MuscleRole::Execute);
        assert_eq!(t.read_estimates(|e| e.duration(fe)), Some(TimeNs(60)));
    }

    #[test]
    fn a_full_log_is_folded_by_the_thread_that_fills_it() {
        use askel_events::event_log::SHARD_CAPACITY;
        use askel_skeletons::{InstanceId, KindTag, MuscleId, MuscleRole};
        let t = TriggerEngine::new(1.0);
        let node = NodeId(11);
        // Nobody reads: 3 capacities' worth of seq spans, each 1 ns
        // longer than the last.
        let spans = 3 * SHARD_CAPACITY as u64 / 2;
        for i in 0..spans {
            for (when, at) in [(When::Before, 10 * i), (When::After, 10 * i + i)] {
                t.on_event(
                    &mut Payload::None,
                    &Event {
                        node,
                        kind: KindTag::Seq,
                        when,
                        wher: Where::Skeleton,
                        index: InstanceId(i + 1),
                        trace: askel_events::Trace::root(node, InstanceId(i + 1), KindTag::Seq),
                        timestamp: TimeNs(at),
                        info: askel_events::EventInfo::None,
                    },
                );
            }
        }
        let mut left = Vec::new();
        t.log.drain_into(&mut left);
        assert!(left.len() <= SHARD_CAPACITY, "the log stayed bounded");
        for r in left {
            assert!(t.log.try_push(r));
        }
        // ρ = 1: the estimate is the last span, so nothing was dropped
        // and nothing replayed out of order.
        let fe = MuscleId::new(node, MuscleRole::Execute);
        assert_eq!(
            t.read_estimates(|e| e.duration(fe)),
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
                    in_order.record(gated(event.timestamp, 1));
                    split.record(gated(event.timestamp, 1));
                }
                in_order.on_event(&mut Payload::None, event);
                if TriggerEngine::INTEREST.contains(event.when, event.wher) {
                    let shard = deal[i % deal.len()] % threads;
                    while !split.log.try_push_to(shard, EventRecord::from(event)) {
                        drop(split.current());
                    }
                }
            }
            let table = |t: &TriggerEngine| t.read_estimates(|e| e.snapshot());
            proptest::prop_assert_eq!(table(&in_order), table(&split));
            proptest::prop_assert!(!table(&split).durations.is_empty());
            proptest::prop_assert_eq!(in_order.decision_log(), split.decision_log());
            let audit = split.decision_log()[0].forecast.expect("recorded with one");
            proptest::prop_assert!(audit.realized.is_some());
        }
    }
}
