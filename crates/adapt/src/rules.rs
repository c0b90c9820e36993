//! Rewrite rules: *when* to change a skeleton's structure, and *into what*.
//!
//! A [`Rule`] is evaluated at stream safe points against the statistics the
//! [`TriggerEngine`](crate::TriggerEngine) derived from the event stream
//! (EWMA muscle durations and cardinalities, observed input sizes, error
//! streaks) and may produce one [`RewriteAction`]. Rules never apply
//! anything themselves — application happens at the safe point, in
//! [`TriggerEngine::safe_point`](crate::TriggerEngine::safe_point), so a
//! rewrite can never be observed mid-item.
//!
//! Five built-in rules cover the paper-adjacent adaptation repertoire:
//!
//! | rule | concern | fires when | action |
//! |------|---------|-----------|--------|
//! | [`Promote`] | Performance | its [`Trigger`]s all hold (e.g. input cardinality high) | replace a subtree (seq → map/farm) |
//! | [`FallbackSwap`] | Reliability | `n` consecutive item errors | replace a subtree with a fallback |
//! | [`RetuneWidth`] | Performance | desired width ≠ current knob value | set a split-width [`Knob`] |
//! | [`RetuneGrain`] | Performance | leaf duration outside its target band | halve/double a d&C grain [`Knob`] |
//! | [`CostGuard`] | Cost | a [`NodeHoursMeter`]'s node-time exceeds its budget | shrink a knob to its economy value, or veto growth |
//!
//! The cluster's two rules live with the cluster telemetry they read,
//! above the simulator, in `askel_dist`:
//!
//! | rule | concern | fires when | action |
//! |------|---------|-----------|--------|
//! | `Offload` | Performance | the busiest other node's busy share is high and the destination's low | re-place a subtree onto the destination node |
//! | `ProvisioningPolicy` | Cost | the hottest enabled node's windowed busy share is high, or the last enabled node's low | set the `capacity` [`Knob`] (the simulator's LP target) to bring a node block online or retire it |
//!
//! Every rule carries a [`Concern`] and a priority; when several rules
//! fire on the same resource at one safe point,
//! [`TriggerEngine::safe_point`](crate::TriggerEngine::safe_point)
//! arbitrates (see [`crate::arbitration`]) instead of applying whichever
//! registered first.
//!
//! The typed constructors ([`Promote::new`], [`FallbackSwap::new`]) take
//! both sides as `Skel<P, R>`, so a replacement can never disagree with the
//! subtree it replaces on input/output types.
//!
//! Beyond the event-derived triggers, rules can be coupled to the WCT
//! controller's *forecasts* ([`Promote::forecast_gated`],
//! [`RetuneWidth::forecast_gated`]: fire only when the LP-predicted WCT
//! under the rewritten skeleton beats the current forecast by a margin),
//! and damped against oscillating load ([`Hysteresis`] on the knob
//! rules).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use askel_core::EstimatorTable;
use askel_skeletons::{MuscleId, Node, NodeId, Skel, TimeNs};

use crate::forecast::Forecast;

/// The non-functional concern a rule optimizes for. Multi-concern
/// autonomic work (Aldinucci/Danelutto/Kilpatrick) runs one manager per
/// concern over a single skeleton and coordinates them explicitly; here
/// each [`Rule`] declares its concern and
/// [`TriggerEngine::safe_point`](crate::TriggerEngine::safe_point)
/// arbitrates conflicting firings (see [`crate::arbitration`]).
///
/// The derived order ranks concerns for tie-breaking (equal priorities):
/// `Reliability > Cost > Performance` — keep it correct, then cheap,
/// then fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Concern {
    /// Throughput / WCT: promotions, retunes, offloads.
    Performance,
    /// Resource spend: node-hours, capacity growth.
    Cost,
    /// Correct completion under faults: fallback swaps.
    Reliability,
}

impl std::fmt::Display for Concern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Concern::Performance => write!(f, "performance"),
            Concern::Cost => write!(f, "cost"),
            Concern::Reliability => write!(f, "reliability"),
        }
    }
}

/// Error statistics over the stream items observed so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErrorStats {
    /// Items whose outcome was recorded (ok or error).
    pub items: usize,
    /// Total errored items.
    pub total: usize,
    /// Current run of consecutive errors (reset by any success).
    pub consecutive: usize,
}

/// Everything a rule may consult when deciding. Borrowed from the
/// [`TriggerEngine`](crate::TriggerEngine) for the duration of one safe
/// point.
pub struct RuleCtx<'a> {
    /// Event-derived EWMA estimates (durations, cardinalities).
    pub estimates: &'a EstimatorTable,
    /// Item error statistics.
    pub errors: &'a ErrorStats,
    /// EWMA of the input-size hints recorded by the session, if any.
    pub input_size: Option<f64>,
    /// Root of the skeleton version currently in use.
    pub root: &'a Arc<Node>,
    /// Current skeleton version (0 = as constructed).
    pub version: u64,
    /// The engine's current level of parallelism.
    pub lp: usize,
    /// Which safe point this is (1 for the first plan of the session) —
    /// the clock the [`Hysteresis`] cooldowns count in.
    pub safe_point: usize,
}

impl RuleCtx<'_> {
    /// Forecasts the WCT of one submission of `root` at the current LP,
    /// from this context's estimator table (`None` while the table does
    /// not cover `root`'s muscles — see [`crate::forecast`]).
    pub fn forecast_wct(&self, root: &Arc<Node>) -> Option<TimeNs> {
        askel_core::predictive_wct(self.estimates, root, self.lp)
    }

    /// Like [`forecast_wct`](Self::forecast_wct), with the estimator
    /// table tweaked first (e.g. a split cardinality overridden to a
    /// candidate knob value). The tweak is applied to a private clone;
    /// the live table is untouched.
    pub(crate) fn forecast_wct_with(
        &self,
        root: &Arc<Node>,
        tweak: impl FnOnce(&mut EstimatorTable),
    ) -> Option<TimeNs> {
        let mut table = self.estimates.clone();
        tweak(&mut table);
        askel_core::predictive_wct(&table, root, self.lp)
    }
}

/// A shared structural parameter read by a muscle and retuned by a rule —
/// e.g. the chunk count of a map split or the grain threshold of a d&C
/// condition. Cheap to clone; clones share the value.
///
/// **Visibility contract.** A knob value is never torn (a single atomic
/// word), but — unlike a subtree replacement — a knob set at a safe point
/// is visible *immediately*, including to items already in flight, and a
/// muscle that reads the same knob several times within one item (a d&C
/// condition, once per recursion level) may observe two different values.
/// Knob-driven muscles must therefore treat **every** value in the knob's
/// range as producing correct results — width and grain knobs qualify by
/// construction (splitting/recursing more or less never changes the
/// merged result); a knob that changes *semantics* (a sampling rate, a
/// precision) does not belong in one. Sessions that must not expose
/// in-flight items to a retune can bound `max_in_flight(1)` (feed/collect
/// lock-step), which makes safe points quiescent.
#[derive(Clone, Debug)]
pub struct Knob {
    name: Arc<str>,
    value: Arc<AtomicUsize>,
}

impl Knob {
    /// A named knob starting at `initial`.
    pub fn new(name: impl Into<String>, initial: usize) -> Self {
        Knob {
            name: Arc::from(name.into().into_boxed_str()),
            value: Arc::new(AtomicUsize::new(initial)),
        }
    }

    /// Wraps an existing shared counter (e.g. one a workload crate already
    /// threads through its split muscle) as a knob.
    pub fn from_shared(name: impl Into<String>, value: Arc<AtomicUsize>) -> Self {
        Knob {
            name: Arc::from(name.into().into_boxed_str()),
            value,
        }
    }

    /// The knob's name (shows up in decision logs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reads the current value (muscles call this per execution).
    pub fn get(&self) -> usize {
        self.value.load(Ordering::SeqCst)
    }

    /// Sets the value. Public so manual tuning is possible, but normally
    /// driven by [`RewriteAction::SetKnob`] application at a safe point.
    pub fn set(&self, value: usize) {
        self.value.store(value, Ordering::SeqCst);
    }

    /// `true` when both knobs wrap the **same** shared counter — the
    /// conflict test the arbitration layer uses: two `SetKnob` actions
    /// contend exactly when their knobs share state, regardless of the
    /// names they were wrapped under.
    pub fn shares_state(&self, other: &Knob) -> bool {
        Arc::ptr_eq(&self.value, &other.value)
    }
}

/// What a fired rule wants done at the safe point.
#[derive(Clone)]
pub enum RewriteAction {
    /// Replace the subtree rooted at `target` with `replacement`
    /// (type agreement asserted by the typed rule constructors).
    Replace {
        /// Node to replace (every occurrence).
        target: NodeId,
        /// The substitute subtree.
        replacement: Arc<Node>,
    },
    /// Set `knob` to `value`.
    SetKnob {
        /// The structural parameter to retune.
        knob: Knob,
        /// Its new value.
        value: usize,
    },
    /// Re-place the subtree rooted at `target` onto the worker node
    /// called `node` (placement annotation applied deeply,
    /// `Skel::placed_at`). Results are invariant under placement by
    /// construction; only where the subtree's tasks run changes.
    Place {
        /// Root of the subtree to move.
        target: NodeId,
        /// Destination worker node name.
        node: String,
    },
}

impl RewriteAction {
    /// The subtree a tree action (`Replace`/`Place`) is anchored at;
    /// `None` for a knob.
    pub fn target(&self) -> Option<NodeId> {
        match self {
            RewriteAction::Replace { target, .. } | RewriteAction::Place { target, .. } => {
                Some(*target)
            }
            RewriteAction::SetKnob { .. } => None,
        }
    }
}

/// The rendering the decision log records: for a knob, `old -> new` as
/// long as the action has not been applied yet.
impl std::fmt::Debug for RewriteAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteAction::Replace {
                target,
                replacement,
            } => write!(f, "replace {target} with {}", replacement.id),
            RewriteAction::SetKnob { knob, value } => {
                write!(f, "set knob `{}` {} -> {value}", knob.name(), knob.get())
            }
            RewriteAction::Place { target, node } => {
                write!(f, "place {target} on `{node}`")
            }
        }
    }
}

/// One rule firing: the requested change, the observed statistics that
/// justified it, and — for forecast-gated rules — the WCT forecast the
/// gate compared ([`Forecast::realized`] is filled in later by the
/// [`TriggerEngine`](crate::TriggerEngine)).
pub struct RuleFire {
    /// The requested change — or, for a veto, the contested resource.
    pub action: RewriteAction,
    /// The observed statistics that justified it.
    pub why: String,
    /// The forecast a gated rule fired on (`None` for ungated rules).
    pub forecast: Option<Forecast>,
    /// A **veto** firing opposes rather than requests: its `action` is
    /// never applied, it only identifies the resource (knob, subtree)
    /// the rule wants held still. A veto that conflicts with nothing is
    /// dropped silently; one that does conflict suppresses the group per
    /// the configured [`ConflictPolicy`](crate::ConflictPolicy).
    pub veto: bool,
}

impl RuleFire {
    /// An ungated firing.
    pub fn new(action: RewriteAction, why: impl Into<String>) -> Self {
        RuleFire {
            action,
            why: why.into(),
            forecast: None,
            veto: false,
        }
    }

    /// A veto: opposes any conflicting action on `action`'s resource
    /// instead of requesting a change (see [`RuleFire::veto`]).
    pub fn veto(action: RewriteAction, why: impl Into<String>) -> Self {
        RuleFire {
            action,
            why: why.into(),
            forecast: None,
            veto: true,
        }
    }
}

/// An event-derived firing condition. A rule holding several triggers
/// fires only when **all** of them hold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// The EWMA duration estimate `t(m)` is at least `min`. Never holds
    /// while the muscle has no estimate.
    DurationAtLeast(MuscleId, TimeNs),
    /// `t(m)` is at most `max`. Never holds without an estimate.
    DurationAtMost(MuscleId, TimeNs),
    /// The EWMA cardinality estimate `|m|` is at least `min`. Never holds
    /// without an estimate — `CardinalityAtLeast(m, 1.0)` therefore doubles
    /// as "the split `m` has executed at least once".
    CardinalityAtLeast(MuscleId, f64),
    /// The EWMA of the session's input-size hints is at least `min`.
    InputSizeAtLeast(f64),
    /// At least `n` consecutive item errors.
    ErrorStreakAtLeast(usize),
}

impl Trigger {
    /// Does the condition hold under `ctx`?
    pub(crate) fn holds(&self, ctx: &RuleCtx<'_>) -> bool {
        match *self {
            Trigger::DurationAtLeast(m, min) => ctx.estimates.duration(m).is_some_and(|d| d >= min),
            Trigger::DurationAtMost(m, max) => ctx.estimates.duration(m).is_some_and(|d| d <= max),
            Trigger::CardinalityAtLeast(m, min) => {
                ctx.estimates.cardinality(m).is_some_and(|c| c >= min)
            }
            Trigger::InputSizeAtLeast(min) => ctx.input_size.is_some_and(|s| s >= min),
            Trigger::ErrorStreakAtLeast(n) => ctx.errors.consecutive >= n,
        }
    }

    /// Renders the condition with its observed value, for decision logs.
    pub(crate) fn describe(&self, ctx: &RuleCtx<'_>) -> String {
        match *self {
            Trigger::DurationAtLeast(m, min) => format!(
                "t({m})={:?} >= {min}",
                ctx.estimates.duration(m).unwrap_or(TimeNs::ZERO)
            ),
            Trigger::DurationAtMost(m, max) => format!(
                "t({m})={:?} <= {max}",
                ctx.estimates.duration(m).unwrap_or(TimeNs::ZERO)
            ),
            Trigger::CardinalityAtLeast(m, min) => format!(
                "|{m}|={:.1} >= {min:.1}",
                ctx.estimates.cardinality(m).unwrap_or(0.0)
            ),
            Trigger::InputSizeAtLeast(min) => {
                format!("input~{:.1} >= {min:.1}", ctx.input_size.unwrap_or(0.0))
            }
            Trigger::ErrorStreakAtLeast(n) => {
                format!("error-streak {} >= {n}", ctx.errors.consecutive)
            }
        }
    }
}

/// A self-configuration rule: evaluated once per safe point, may request
/// one rewrite. Implementations must be deterministic functions of the
/// [`RuleCtx`] so adaptation replays identically on the simulator.
pub trait Rule: Send + Sync {
    /// Name used in decision logs and `Reconfigured` reporting.
    fn name(&self) -> &str;

    /// `true` for rules that must fire at most once per session (subtree
    /// replacements); the trigger engine retires them after they fire.
    fn once(&self) -> bool {
        false
    }

    /// The non-functional concern this rule optimizes for. Used by the
    /// arbitration step to rank and weight conflicting firings.
    fn concern(&self) -> Concern {
        Concern::Performance
    }

    /// Arbitration priority (higher wins under the priority-wins
    /// policy; ties fall back to concern rank, then rule name).
    fn priority(&self) -> i32 {
        0
    }

    /// Notification that an applied rewrite replaced the subtree
    /// `target` with `replacement`. Rules that track a `NodeId` may
    /// retarget — `askel_dist::Offload` follows its subtree through replacements,
    /// so a [`FallbackSwap`] that undoes a placement re-arms the offload
    /// against the fallback instead of leaving it dead. Default: ignore.
    fn on_replaced(&self, target: NodeId, replacement: &Arc<Node>) {
        let _ = (target, replacement);
    }

    /// Evaluates the rule. `Some(fire)` requests a rewrite; `fire.why`
    /// records the observed statistics that justified it and
    /// `fire.forecast` the prediction a forecast gate compared.
    ///
    /// Rules that request a [`RewriteAction::Replace`] (or `Place`)
    /// should gate on their target still occurring in `ctx.root`
    /// (`ctx.root.find(target).is_some()`, as the built-ins do): an
    /// earlier rewrite in the same session may have replaced the subtree
    /// the rule was written against, and a rule that keeps firing on a
    /// vanished target is re-armed and skipped at every safe point.
    fn evaluate(&self, ctx: &RuleCtx<'_>) -> Option<RuleFire>;
}

fn describe_all(triggers: &[Trigger], ctx: &RuleCtx<'_>) -> String {
    triggers
        .iter()
        .map(|t| t.describe(ctx))
        .collect::<Vec<_>>()
        .join(" && ")
}

/// Cooldown + dead-band damping for the knob rules
/// ([`RetuneWidth::hysteresis`], [`RetuneGrain::hysteresis`]), so
/// oscillating load cannot flap a knob.
///
/// Same-direction moves are never restricted — a knob may keep growing
/// (or keep shrinking) as fast as its rule asks. A **reversal** (the
/// wanted value is on the other side of the current value than the last
/// applied move) is suppressed until both
///
/// * `cooldown_items` safe points have elapsed since the rule last
///   fired, **and**
/// * the wanted value has left the dead band: it differs from the
///   current knob value by more than `dead_band` (a fraction of the
///   current value).
///
/// The rule *arms, fires, then refuses to reverse* — so under a load
/// trace that oscillates faster than the cooldown the knob moves at most
/// once per window instead of flapping A→B→A (property-tested in
/// `crates/adapt/tests/adapt_props.rs`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hysteresis {
    /// Safe points that must elapse after a fire before the knob may
    /// move back in the opposite direction.
    pub cooldown_items: usize,
    /// Relative dead band (fraction of the current knob value) a
    /// reversal must clear; `0.1` = the wanted value must differ from
    /// the current one by more than 10%.
    pub dead_band: f64,
}

impl Hysteresis {
    /// A policy with the given cooldown and a dead band clamped to ≥ 0.
    pub fn new(cooldown_items: usize, dead_band: f64) -> Self {
        Hysteresis {
            cooldown_items,
            dead_band: dead_band.max(0.0),
        }
    }
}

/// Per-rule hysteresis memory (interior-mutable: rules are evaluated
/// through `&self`).
#[derive(Default)]
struct HystState {
    /// Safe point of the last applied move.
    last_fire: Option<usize>,
    /// Direction of the last applied move: +1 grew the knob, −1 shrank
    /// it.
    last_dir: i8,
}

/// Shared damping logic for the knob rules. Returns `true` when the move
/// `current → want` may fire at `safe_point`; records it as the new last
/// move when it may.
fn hysteresis_allows(
    policy: Option<Hysteresis>,
    state: &Mutex<HystState>,
    safe_point: usize,
    current: usize,
    want: usize,
) -> bool {
    let dir: i8 = if want > current { 1 } else { -1 };
    let mut st = state.lock();
    if let Some(h) = policy {
        if st.last_dir != 0 && dir != st.last_dir {
            // A reversal: both guards must clear.
            let elapsed = st.last_fire.map(|at| safe_point.saturating_sub(at));
            if elapsed.is_some_and(|e| e < h.cooldown_items) {
                return false;
            }
            let band = current as f64 * h.dead_band;
            if ((want as f64) - (current as f64)).abs() <= band {
                return false;
            }
        }
    }
    st.last_fire = Some(safe_point);
    st.last_dir = dir;
    true
}

/// Promotes a subtree to a structurally different (typically data-parallel)
/// implementation when its triggers hold — the seq → map/farm promotion of
/// behavioural-skeleton work. Fires at most once.
///
/// With [`forecast_gated`](Promote::forecast_gated) the promotion is
/// additionally coupled to the controller's prediction machinery: it
/// fires only when the LP-limited WCT forecast under the **rewritten**
/// tree beats the forecast under the current tree by the given margin.
pub struct Promote {
    name: String,
    target: NodeId,
    replacement: Arc<Node>,
    triggers: Vec<Trigger>,
    /// Required relative forecast improvement (`None` = ungated).
    forecast_margin: Option<f64>,
    priority: i32,
}

impl Promote {
    /// A promotion of `target` into `replacement`. Both are typed
    /// `Skel<P, R>`, so the swap cannot change the subtree's signature.
    /// Add firing conditions with [`Promote::when`]; a promotion with no
    /// trigger never fires.
    pub fn new<P, R>(target: &Skel<P, R>, replacement: &Skel<P, R>) -> Self
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        Promote {
            name: "promote".to_string(),
            target: target.id(),
            replacement: Arc::clone(replacement.node()),
            triggers: Vec::new(),
            forecast_margin: None,
            priority: 0,
        }
    }

    /// Renames the rule (decision logs).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the arbitration priority (default 0; higher wins).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Adds a firing condition (all conditions must hold).
    pub fn when(mut self, trigger: Trigger) -> Self {
        self.triggers.push(trigger);
        self
    }

    /// Couples the promotion to the WCT forecast: on top of its
    /// triggers, the rule fires only when the predicted WCT under the
    /// rewritten tree is at least `margin` (a fraction, clamped to
    /// `[0, 1)`) better than under the current tree —
    /// `predicted ≤ (1 − margin) × baseline`.
    ///
    /// The gate stays **closed** while either forecast is unavailable
    /// (the estimator table does not yet cover the tree — notably the
    /// replacement's muscles, which have never run; seed them through
    /// the trigger engine's knowledge,
    /// [`Knowledge::with_estimates`](askel_core::Knowledge::with_estimates)).
    /// Gated firings carry a [`Forecast`] into the decision log, where
    /// the realized WCT is later filled in.
    pub fn forecast_gated(mut self, margin: f64) -> Self {
        self.forecast_margin = Some(margin.clamp(0.0, 0.999));
        self
    }
}

impl Rule for Promote {
    fn name(&self) -> &str {
        &self.name
    }

    fn once(&self) -> bool {
        true
    }

    fn priority(&self) -> i32 {
        self.priority
    }

    fn evaluate(&self, ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        if self.triggers.is_empty() || !self.triggers.iter().all(|t| t.holds(ctx)) {
            return None;
        }
        // The target may have been rewritten away by an earlier rule.
        ctx.root.find(self.target)?;
        let mut why = describe_all(&self.triggers, ctx);
        let mut forecast = None;
        if let Some(margin) = self.forecast_margin {
            let baseline = ctx.forecast_wct(ctx.root)?;
            let rewritten = ctx.root.replace_subtree(self.target, &self.replacement)?;
            let predicted = ctx.forecast_wct(&rewritten)?;
            let bound = TimeNs::from_secs_f64(baseline.as_secs_f64() * (1.0 - margin));
            if predicted > bound {
                return None;
            }
            why = format!(
                "{why} && forecast {predicted:?} <= {:.0}% of {baseline:?} at lp={}",
                (1.0 - margin) * 100.0,
                ctx.lp
            );
            forecast = Some(Forecast {
                predicted,
                baseline,
                realized: None,
            });
        }
        Some(RuleFire {
            action: RewriteAction::Replace {
                target: self.target,
                replacement: Arc::clone(&self.replacement),
            },
            why,
            forecast,
            veto: false,
        })
    }
}

/// Swaps a subtree for a fallback implementation after `after_errors`
/// consecutive item errors — structural fault recovery. Fires at most once.
pub struct FallbackSwap {
    name: String,
    target: NodeId,
    fallback: Arc<Node>,
    after_errors: usize,
    priority: i32,
}

impl FallbackSwap {
    /// Swap `target` for `fallback` once `after_errors` consecutive items
    /// have failed (`after_errors` is clamped to ≥ 1).
    pub fn new<P, R>(target: &Skel<P, R>, fallback: &Skel<P, R>, after_errors: usize) -> Self
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        FallbackSwap {
            name: "fallback-swap".to_string(),
            target: target.id(),
            fallback: Arc::clone(fallback.node()),
            after_errors: after_errors.max(1),
            priority: 0,
        }
    }

    /// Renames the rule (decision logs).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the arbitration priority (default 0; higher wins).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }
}

impl Rule for FallbackSwap {
    fn name(&self) -> &str {
        &self.name
    }

    fn once(&self) -> bool {
        true
    }

    fn concern(&self) -> Concern {
        Concern::Reliability
    }

    fn priority(&self) -> i32 {
        self.priority
    }

    fn evaluate(&self, ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        let trigger = Trigger::ErrorStreakAtLeast(self.after_errors);
        if !trigger.holds(ctx) {
            return None;
        }
        // The target may have been rewritten away by an earlier rule.
        ctx.root.find(self.target)?;
        Some(RuleFire::new(
            RewriteAction::Replace {
                target: self.target,
                replacement: Arc::clone(&self.fallback),
            },
            trigger.describe(ctx),
        ))
    }
}

/// Retunes a farm/map width knob to `lp × tasks_per_worker` (clamped to
/// `[min, max]`), so the split keeps every worker busy as the LP changes.
/// Optional gating triggers (e.g. "the split has run at least once") keep
/// it quiet until the knob's owner is actually in the live skeleton.
///
/// Supports [`Hysteresis`] damping (never reverse direction within the
/// cooldown / dead band) and an LP forecast gate
/// ([`forecast_gated`](RetuneWidth::forecast_gated)).
pub struct RetuneWidth {
    name: String,
    knob: Knob,
    tasks_per_worker: usize,
    min: usize,
    max: usize,
    triggers: Vec<Trigger>,
    hysteresis: Option<Hysteresis>,
    hyst_state: Mutex<HystState>,
    /// `(split muscle, leaf muscle, margin)` for the forecast gate.
    forecast: Option<(MuscleId, MuscleId, f64)>,
    priority: i32,
}

impl RetuneWidth {
    /// A width rule over `knob` targeting `tasks_per_worker` split chunks
    /// per pool worker (clamped to ≥ 1), with default bounds `[1, 1024]`.
    pub fn new(knob: Knob, tasks_per_worker: usize) -> Self {
        RetuneWidth {
            name: "width-retune".to_string(),
            knob,
            tasks_per_worker: tasks_per_worker.max(1),
            min: 1,
            max: 1024,
            triggers: Vec::new(),
            hysteresis: None,
            hyst_state: Mutex::new(HystState::default()),
            forecast: None,
            priority: 0,
        }
    }

    /// Renames the rule (decision logs).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the arbitration priority (default 0; higher wins).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Clamps the computed width to `[min, max]`.
    pub fn bounds(mut self, min: usize, max: usize) -> Self {
        self.min = min.max(1);
        self.max = max.max(self.min);
        self
    }

    /// Adds a gating condition (all must hold before the rule may fire).
    pub fn when(mut self, trigger: Trigger) -> Self {
        self.triggers.push(trigger);
        self
    }

    /// Damps the knob against oscillating load: see [`Hysteresis`].
    pub fn hysteresis(mut self, policy: Hysteresis) -> Self {
        self.hysteresis = Some(policy);
        self
    }

    /// Couples the retune to the WCT forecast. The candidate width is
    /// simulated on the estimator table by overriding the `split`
    /// cardinality to the wanted width and scaling the `leaf` (per-chunk
    /// execute) duration by `current/want` — constant total work,
    /// redistributed — then both sides are scheduled at the current LP;
    /// the knob only moves when the candidate forecast is at least
    /// `margin` better (`predicted ≤ (1 − margin) × baseline`). Closed
    /// while the estimates do not cover the tree (seed or alias them).
    pub fn forecast_gated(mut self, split: MuscleId, leaf: MuscleId, margin: f64) -> Self {
        self.forecast = Some((split, leaf, margin.clamp(0.0, 0.999)));
        self
    }
}

impl Rule for RetuneWidth {
    fn name(&self) -> &str {
        &self.name
    }

    fn priority(&self) -> i32 {
        self.priority
    }

    fn evaluate(&self, ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        if !self.triggers.iter().all(|t| t.holds(ctx)) {
            return None;
        }
        let want = (ctx.lp * self.tasks_per_worker).clamp(self.min, self.max);
        let current = self.knob.get();
        if want == current {
            return None;
        }
        let mut why = if self.triggers.is_empty() {
            format!("lp={} wants width {want}, knob at {current}", ctx.lp)
        } else {
            format!(
                "lp={} wants width {want}, knob at {current} ({})",
                ctx.lp,
                describe_all(&self.triggers, ctx)
            )
        };
        let mut forecast = None;
        if let Some((split, leaf, margin)) = self.forecast {
            let leaf_t = ctx.estimates.duration(leaf)?;
            let baseline = ctx.forecast_wct_with(ctx.root, |est| {
                est.init_cardinality(split, current.max(1) as f64);
            })?;
            // Constant total work: per-chunk duration scales inversely
            // with the chunk count.
            let scaled = TimeNs::from_secs_f64(
                leaf_t.as_secs_f64() * current.max(1) as f64 / want.max(1) as f64,
            );
            let predicted = ctx.forecast_wct_with(ctx.root, |est| {
                est.init_cardinality(split, want as f64);
                est.init_duration(leaf, scaled);
            })?;
            let bound = TimeNs::from_secs_f64(baseline.as_secs_f64() * (1.0 - margin));
            if predicted > bound {
                return None;
            }
            why = format!(
                "{why} && forecast {predicted:?} <= {:.0}% of {baseline:?} at lp={}",
                (1.0 - margin) * 100.0,
                ctx.lp
            );
            forecast = Some(Forecast {
                predicted,
                baseline,
                realized: None,
            });
        }
        if !hysteresis_allows(
            self.hysteresis,
            &self.hyst_state,
            ctx.safe_point,
            current,
            want,
        ) {
            return None;
        }
        Some(RuleFire {
            action: RewriteAction::SetKnob {
                knob: self.knob.clone(),
                value: want,
            },
            why,
            forecast,
            veto: false,
        })
    }
}

/// Adapts a divide-and-conquer grain threshold so the base-case leaf lands
/// inside a target duration band: halves the grain (divides further) when
/// the leaf's EWMA duration exceeds `2 × target`, doubles it (divides
/// less) below `target / 2`, clamped to `[min, max]`.
pub struct RetuneGrain {
    name: String,
    knob: Knob,
    leaf: MuscleId,
    target: TimeNs,
    min: usize,
    max: usize,
    hysteresis: Option<Hysteresis>,
    hyst_state: Mutex<HystState>,
    priority: i32,
}

impl RetuneGrain {
    /// A grain rule over `knob`, watching the EWMA duration of `leaf`
    /// (typically the d&C base-case execute muscle) against `target`,
    /// with default bounds `[1, 1 << 20]`.
    pub fn new(knob: Knob, leaf: MuscleId, target: TimeNs) -> Self {
        RetuneGrain {
            name: "grain-retune".to_string(),
            knob,
            leaf,
            target,
            min: 1,
            max: 1 << 20,
            hysteresis: None,
            hyst_state: Mutex::new(HystState::default()),
            priority: 0,
        }
    }

    /// Damps the knob against oscillating load: see [`Hysteresis`].
    pub fn hysteresis(mut self, policy: Hysteresis) -> Self {
        self.hysteresis = Some(policy);
        self
    }

    /// Renames the rule (decision logs).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the arbitration priority (default 0; higher wins).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Clamps the grain to `[min, max]`.
    pub fn bounds(mut self, min: usize, max: usize) -> Self {
        self.min = min.max(1);
        self.max = max.max(self.min);
        self
    }
}

impl Rule for RetuneGrain {
    fn name(&self) -> &str {
        &self.name
    }

    fn priority(&self) -> i32 {
        self.priority
    }

    fn evaluate(&self, ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        let t = ctx.estimates.duration(self.leaf)?;
        let grain = self.knob.get();
        let (want, direction) = if t.0 > self.target.0.saturating_mul(2) {
            ((grain / 2).max(self.min), "halve")
        } else if t.0.saturating_mul(2) < self.target.0 {
            (grain.saturating_mul(2).min(self.max), "double")
        } else {
            return None;
        };
        if want == grain {
            return None;
        }
        if !hysteresis_allows(
            self.hysteresis,
            &self.hyst_state,
            ctx.safe_point,
            grain,
            want,
        ) {
            return None;
        }
        Some(RuleFire::new(
            RewriteAction::SetKnob {
                knob: self.knob.clone(),
                value: want,
            },
            format!(
                "t({})={t:?} vs target {:?}: {direction} grain {grain} -> {want}",
                self.leaf, self.target
            ),
        ))
    }
}

/// Accumulated **node-time**: the integral of enabled capacity over time
/// — `2 slots enabled for 3 s` charges 6 slot-seconds — the cost signal
/// [`CostGuard`] reads. Clones share the accumulator.
///
/// The meter is fed at explicit observation points:
/// [`observe`](NodeHoursMeter::observe) charges the elapsed time since
/// the previous observation at the capacity that *was* enabled across
/// that interval, then records the new capacity. Observing at every safe
/// point keeps the spend figure adaptation rules read never staler than
/// one safe point.
#[derive(Clone, Debug, Default)]
pub struct NodeHoursMeter {
    inner: Arc<Mutex<MeterInner>>,
}

#[derive(Debug, Default)]
struct MeterInner {
    /// Latest observed timestamp and the capacity enabled from then on.
    last: Option<(TimeNs, usize)>,
    /// Slot-time charged so far (slot-seconds, in `TimeNs` units).
    accumulated: TimeNs,
}

impl NodeHoursMeter {
    /// A fresh meter at zero spend.
    pub fn new() -> Self {
        NodeHoursMeter::default()
    }

    /// One observation: charges the interval since the latest observed
    /// timestamp at the capacity enabled across it, then records
    /// `enabled_slots` as current. The first observation charges nothing
    /// (it only anchors the meter). An out-of-order timestamp charges
    /// nothing and keeps the later anchor, so no interval is charged
    /// twice.
    pub fn observe(&self, now: TimeNs, enabled_slots: usize) {
        let mut inner = self.inner.lock();
        let mut anchor = now;
        if let Some((at, slots)) = inner.last {
            let elapsed = now.saturating_sub(at);
            inner.accumulated += TimeNs(elapsed.0.saturating_mul(slots as u64));
            anchor = anchor.max(at);
        }
        inner.last = Some((anchor, enabled_slots));
    }

    /// Total slot-time charged so far (slot-seconds, as `TimeNs`).
    pub(crate) fn node_time(&self) -> TimeNs {
        self.inner.lock().accumulated
    }

    /// Total spend in node-hours (slot-seconds / 3600).
    pub fn node_hours(&self) -> f64 {
        self.node_time().as_secs_f64() / 3600.0
    }
}

/// The **cost** concern as a rule: watches accumulated node-time (a
/// [`NodeHoursMeter`], fed by the caller through
/// [`NodeHoursMeter::observe`]) and, once spend crosses its budget,
/// opposes the performance rules' grow decisions.
///
/// Over its knob ([`CostGuard::knob`]) the guard fires a real
/// [`RewriteAction::SetKnob`] down to the economy value while the knob
/// sits above it, and a **veto** on the knob once it is there — so a
/// width rule wanting to grow the same knob at the same safe point
/// conflicts with the guard and the configured
/// [`ConflictPolicy`](crate::ConflictPolicy) decides. Under budget the
/// guard is silent; idle vetoes (nothing to oppose at that safe point)
/// are dropped without a log entry.
pub struct CostGuard {
    name: String,
    meter: NodeHoursMeter,
    budget: TimeNs,
    knob: Knob,
    economy: usize,
}

impl CostGuard {
    /// Guards `knob`: once `meter`'s accumulated node-time reaches
    /// `budget`, shrink the knob to `economy` (if above) and veto growth
    /// (if at or below).
    pub fn knob(meter: NodeHoursMeter, budget: TimeNs, knob: Knob, economy: usize) -> Self {
        CostGuard {
            name: "cost-guard".to_string(),
            meter,
            budget,
            knob,
            economy,
        }
    }

    /// Renames the rule (decision logs).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl Rule for CostGuard {
    fn name(&self) -> &str {
        &self.name
    }

    fn concern(&self) -> Concern {
        Concern::Cost
    }

    fn evaluate(&self, _ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        let spent = self.meter.node_time();
        if spent < self.budget {
            return None;
        }
        let why = format!(
            "node-time spent {spent:?} >= budget {:?} ({:.2} node-hours)",
            self.budget,
            self.meter.node_hours()
        );
        let (knob, economy) = (&self.knob, self.economy);
        let current = knob.get();
        Some(if current > economy {
            RuleFire::new(
                RewriteAction::SetKnob {
                    knob: knob.clone(),
                    value: economy,
                },
                format!("{why}: shrink `{}` {current} -> {economy}", knob.name()),
            )
        } else {
            RuleFire::veto(
                RewriteAction::SetKnob {
                    knob: knob.clone(),
                    value: current,
                },
                format!("{why}: hold `{}` at {current}", knob.name()),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::{seq, MuscleRole};

    fn ctx_with<'a>(
        estimates: &'a EstimatorTable,
        errors: &'a ErrorStats,
        root: &'a Arc<Node>,
        lp: usize,
        input_size: Option<f64>,
    ) -> RuleCtx<'a> {
        ctx_at(estimates, errors, root, lp, input_size, 1)
    }

    fn ctx_at<'a>(
        estimates: &'a EstimatorTable,
        errors: &'a ErrorStats,
        root: &'a Arc<Node>,
        lp: usize,
        input_size: Option<f64>,
        safe_point: usize,
    ) -> RuleCtx<'a> {
        RuleCtx {
            estimates,
            errors,
            input_size,
            root,
            version: 0,
            lp,
            safe_point,
        }
    }

    #[test]
    fn knob_clones_share_value() {
        let k = Knob::new("width", 4);
        let k2 = k.clone();
        k.set(9);
        assert_eq!(k2.get(), 9);
        assert_eq!(k2.name(), "width");
    }

    #[test]
    fn promote_requires_all_triggers() {
        let target = seq(|x: i64| x);
        let replacement = seq(|x: i64| x);
        let rule = Promote::new(&target, &replacement)
            .when(Trigger::InputSizeAtLeast(100.0))
            .when(Trigger::ErrorStreakAtLeast(0));
        let est = EstimatorTable::new(0.5);
        let errors = ErrorStats::default();
        let root = Arc::clone(target.node());
        assert!(rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, Some(50.0)))
            .is_none());
        let fire = rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, Some(150.0)))
            .expect("both triggers hold");
        match &fire.action {
            RewriteAction::Replace {
                target: t,
                replacement: r,
            } => {
                assert_eq!(*t, target.id());
                assert_eq!(r.id, replacement.id());
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert!(fire.why.contains("input~150.0"), "{}", fire.why);
        assert!(fire.forecast.is_none(), "ungated rules carry no forecast");
        assert!(rule.once());
    }

    #[test]
    fn promotion_without_triggers_never_fires() {
        let target = seq(|x: i64| x);
        let rule = Promote::new(&target, &target);
        let est = EstimatorTable::new(0.5);
        let errors = ErrorStats::default();
        let root = Arc::clone(target.node());
        assert!(rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, Some(1e12)))
            .is_none());
    }

    #[test]
    fn fallback_fires_on_streak() {
        let target = seq(|x: i64| x);
        let fallback = seq(|x: i64| x);
        let rule = FallbackSwap::new(&target, &fallback, 2);
        let est = EstimatorTable::new(0.5);
        let root = Arc::clone(target.node());
        let one = ErrorStats {
            items: 3,
            total: 1,
            consecutive: 1,
        };
        assert!(rule
            .evaluate(&ctx_with(&est, &one, &root, 1, None))
            .is_none());
        let two = ErrorStats {
            items: 4,
            total: 2,
            consecutive: 2,
        };
        let fire = rule
            .evaluate(&ctx_with(&est, &two, &root, 1, None))
            .expect("streak reached");
        assert!(fire.why.contains("error-streak 2 >= 2"), "{}", fire.why);
    }

    #[test]
    fn width_tracks_lp_and_respects_gates() {
        let knob = Knob::new("width", 4);
        let probe = seq(|x: i64| x);
        let split = MuscleId::new(probe.id(), MuscleRole::Split);
        let rule = RetuneWidth::new(knob.clone(), 3)
            .bounds(2, 64)
            .when(Trigger::CardinalityAtLeast(split, 1.0));
        let mut est = EstimatorTable::new(0.5);
        let errors = ErrorStats::default();
        let root = Arc::clone(probe.node());
        // Gate closed: no cardinality estimate yet.
        assert!(rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .is_none());
        est.observe_cardinality(split, 4.0);
        let fire = rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .expect("gate open, 2×3=6 != 4");
        match fire.action {
            RewriteAction::SetKnob { value, .. } => assert_eq!(value, 6),
            other => panic!("unexpected action {other:?}"),
        }
        knob.set(6);
        assert!(
            rule.evaluate(&ctx_with(&est, &errors, &root, 2, None))
                .is_none(),
            "already at the wanted width"
        );
        assert!(!rule.once());
    }

    #[test]
    fn grain_halves_doubles_and_clamps() {
        let probe = seq(|x: i64| x);
        let leaf = MuscleId::new(probe.id(), MuscleRole::Execute);
        let root = Arc::clone(probe.node());
        let errors = ErrorStats::default();
        let knob = Knob::new("grain", 64);
        let rule = RetuneGrain::new(knob.clone(), leaf, TimeNs::from_millis(10)).bounds(16, 256);

        let mut est = EstimatorTable::new(0.5);
        assert!(
            rule.evaluate(&ctx_with(&est, &errors, &root, 2, None))
                .is_none(),
            "no estimate, no decision"
        );
        // Way above the band: halve.
        est.init_duration(leaf, TimeNs::from_millis(50));
        match rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .map(|f| f.action)
        {
            Some(RewriteAction::SetKnob { value, .. }) => assert_eq!(value, 32),
            other => panic!("expected halve, got {other:?}"),
        }
        // Inside the band: quiet.
        est.init_duration(leaf, TimeNs::from_millis(10));
        assert!(rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .is_none());
        // Below the band: double; clamp at max.
        est.init_duration(leaf, TimeNs::from_millis(1));
        knob.set(256);
        assert!(
            rule.evaluate(&ctx_with(&est, &errors, &root, 2, None))
                .is_none(),
            "clamped at max"
        );
        knob.set(128);
        match rule
            .evaluate(&ctx_with(&est, &errors, &root, 2, None))
            .map(|f| f.action)
        {
            Some(RewriteAction::SetKnob { value, .. }) => assert_eq!(value, 256),
            other => panic!("expected double, got {other:?}"),
        }
    }

    #[test]
    fn hysteresis_blocks_reversals_until_cooldown_and_dead_band() {
        let probe = seq(|x: i64| x);
        let leaf = MuscleId::new(probe.id(), MuscleRole::Execute);
        let root = Arc::clone(probe.node());
        let errors = ErrorStats::default();
        let knob = Knob::new("grain", 64);
        let rule = RetuneGrain::new(knob.clone(), leaf, TimeNs::from_millis(10))
            .bounds(1, 1024)
            .hysteresis(Hysteresis::new(4, 0.1));
        let mut est = EstimatorTable::new(0.5);

        // Safe point 1: leaf far too slow → halve fires (first move).
        est.init_duration(leaf, TimeNs::from_millis(50));
        let fire = rule
            .evaluate(&ctx_at(&est, &errors, &root, 2, None, 1))
            .expect("first move is unrestricted");
        match fire.action {
            RewriteAction::SetKnob { value, .. } => {
                assert_eq!(value, 32);
                knob.set(value);
            }
            other => panic!("{other:?}"),
        }

        // Safe point 2: load flipped → doubling is a reversal inside the
        // cooldown: suppressed.
        est.init_duration(leaf, TimeNs::from_millis(1));
        assert!(rule
            .evaluate(&ctx_at(&est, &errors, &root, 2, None, 2))
            .is_none());
        // Still suppressed at safe point 4 (cooldown is 4: 4-1 < 4).
        assert!(rule
            .evaluate(&ctx_at(&est, &errors, &root, 2, None, 4))
            .is_none());
        // Safe point 5: cooldown elapsed, and 64 vs 32 clears the 10%
        // dead band → the reversal may fire.
        let fire = rule
            .evaluate(&ctx_at(&est, &errors, &root, 2, None, 5))
            .expect("cooldown elapsed");
        match fire.action {
            RewriteAction::SetKnob { value, .. } => assert_eq!(value, 64),
            other => panic!("{other:?}"),
        }

        // Same direction is never restricted: another double right away.
        knob.set(64);
        assert!(
            rule.evaluate(&ctx_at(&est, &errors, &root, 2, None, 6))
                .is_some(),
            "same-direction moves ride free"
        );
    }

    #[test]
    fn hysteresis_dead_band_suppresses_small_reversals() {
        let knob = Knob::new("width", 10);
        let probe = seq(|x: i64| x);
        let root = Arc::clone(probe.node());
        let errors = ErrorStats::default();
        let est = EstimatorTable::new(0.5);
        // tasks_per_worker 1, so want = lp. Dead band 50%, no cooldown.
        let rule = RetuneWidth::new(knob.clone(), 1)
            .bounds(1, 1024)
            .hysteresis(Hysteresis::new(0, 0.5));
        // First move: shrink 10 → 8.
        assert!(rule
            .evaluate(&ctx_at(&est, &errors, &root, 8, None, 1))
            .is_some());
        knob.set(8);
        // Reversal to 11: |11-8| = 3 <= 0.5×8 → inside the dead band.
        assert!(rule
            .evaluate(&ctx_at(&est, &errors, &root, 11, None, 2))
            .is_none());
        // Reversal to 16: |16-8| = 8 > 4 → clears the band.
        assert!(rule
            .evaluate(&ctx_at(&est, &errors, &root, 16, None, 3))
            .is_some());
    }

    #[test]
    fn forecast_gate_blocks_unprofitable_promotions() {
        use askel_skeletons::map;
        // Current: a seq leaf. Candidate: a map fanning out over 4
        // chunks. Forecasts are seeded so the promotion wins at lp 4 and
        // loses at lp 1.
        let leaf: Skel<Vec<i64>, i64> = seq(|v: Vec<i64>| v.iter().sum::<i64>());
        let promoted: Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| v.chunks(4).map(|c| c.to_vec()).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v.iter().sum::<i64>()),
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        );
        let mut est = EstimatorTable::new(0.5);
        est.init_duration(
            MuscleId::new(leaf.id(), MuscleRole::Execute),
            TimeNs::from_millis(400),
        );
        for m in promoted.node().collect_muscles() {
            let d = match m.id.role {
                MuscleRole::Execute => TimeNs::from_millis(100),
                _ => TimeNs::from_millis(1),
            };
            est.init_duration(m.id, d);
            if m.id.role == MuscleRole::Split {
                est.init_cardinality(m.id, 4.0);
            }
        }
        let errors = ErrorStats::default();
        let root = Arc::clone(leaf.node());
        let rule = Promote::new(&leaf, &promoted)
            .when(Trigger::InputSizeAtLeast(1.0))
            .forecast_gated(0.2);
        // lp 1: the fan-out buys nothing (402ms vs 400ms) → gate closed.
        assert!(rule
            .evaluate(&ctx_with(&est, &errors, &root, 1, Some(10.0)))
            .is_none());
        // lp 4: 100ms×4 runs in parallel → forecast wins by > 20%.
        let fire = rule
            .evaluate(&ctx_with(&est, &errors, &root, 4, Some(10.0)))
            .expect("forecast improvement at lp 4");
        let forecast = fire.forecast.expect("gated fire carries its forecast");
        assert!(forecast.predicted < forecast.baseline);
        assert_eq!(forecast.realized, None);
        assert!(fire.why.contains("forecast"), "{}", fire.why);
        // Without estimates the gate never opens.
        let empty = EstimatorTable::new(0.5);
        assert!(rule
            .evaluate(&ctx_with(&empty, &errors, &root, 4, Some(10.0)))
            .is_none());
    }

    #[test]
    fn forecast_gate_on_width_retune_models_constant_work() {
        use askel_skeletons::map;
        let knob = Knob::new("width", 1);
        let program: Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| vec![v],
            seq(|v: Vec<i64>| v.iter().sum::<i64>()),
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        );
        let split = MuscleId::new(program.id(), MuscleRole::Split);
        let leaf = MuscleId::new(program.node().children()[0].id, MuscleRole::Execute);
        let mut est = EstimatorTable::new(0.5);
        for m in program.node().collect_muscles() {
            est.init_duration(
                m.id,
                if m.id == leaf {
                    TimeNs::from_millis(800)
                } else {
                    TimeNs::from_millis(1)
                },
            );
        }
        est.init_cardinality(split, 1.0);
        let errors = ErrorStats::default();
        let root = Arc::clone(program.node());
        let rule = RetuneWidth::new(knob.clone(), 1)
            .bounds(1, 64)
            .forecast_gated(split, leaf, 0.2);
        // lp 4 wants width 4; splitting 800ms of work 4 ways at lp 4
        // forecasts ~200ms vs 800ms → fires, with the forecast attached.
        let fire = rule
            .evaluate(&ctx_with(&est, &errors, &root, 4, None))
            .expect("profitable widening");
        let f = fire.forecast.unwrap();
        assert!(
            f.predicted.as_secs_f64() < f.baseline.as_secs_f64() * 0.5,
            "{f:?}"
        );
        // lp 1: want == current == 1 → quiet regardless of the gate.
        assert!(rule
            .evaluate(&ctx_with(&est, &errors, &root, 1, None))
            .is_none());
    }

    #[test]
    fn the_meter_charges_each_interval_once_at_the_capacity_before_it() {
        let secs = TimeNs::from_secs;
        let meter = NodeHoursMeter::new();
        meter.observe(secs(10), 4);
        assert_eq!(
            meter.node_time(),
            TimeNs::ZERO,
            "the first observation anchors"
        );
        // 10 s at the 4 slots enabled before it; the new 1 is not charged yet.
        meter.observe(secs(20), 1);
        assert_eq!(meter.node_time(), secs(40));
        meter.observe(secs(23), 4);
        assert_eq!(
            meter.node_time(),
            secs(43),
            "3 s at the 1 slot enabled before"
        );
        assert!((meter.clone().node_hours() - 43.0 / 3600.0).abs() < 1e-12);

        // An out-of-order observation charges nothing and moves no anchor:
        // 15 s of wall time at 4 slots is 60 slot-s, not 80.
        let meter = NodeHoursMeter::new();
        for (at, slots) in [(10, 4), (20, 4), (15, 4), (25, 4)] {
            meter.observe(secs(at), slots);
        }
        assert_eq!(meter.node_time(), secs(60));
    }
}
