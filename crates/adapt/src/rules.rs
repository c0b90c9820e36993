//! Rewrite rules: *when* to change a skeleton's structure, and *into what*.
//!
//! A [`Rule`] is evaluated at stream safe points against the statistics the
//! [`TriggerEngine`](crate::TriggerEngine) derived from the event stream
//! (EWMA muscle durations and cardinalities, observed input sizes, error
//! streaks) and may propose one [`RewriteAction`]; application happens at
//! the safe point, in
//! [`TriggerEngine::safe_point`](crate::TriggerEngine::safe_point), so a
//! rewrite can never be observed mid-item. Whether a proposal fires —
//! name, concern, priority, [`Trigger`]s, cooldown, [`Hysteresis`],
//! forecast gate, fire-once retirement — is decided once for every rule
//! by the [`Governed`] wrapper each constructor returns (see there).
//!
//! Seven built-in rules; the last two live with the cluster telemetry
//! they read, in `askel_dist`:
//!
//! | constructor | concern | proposes when | action |
//! |-------------|---------|---------------|--------|
//! | [`Promote::new`] | Performance | its target is in the tree (fires on its triggers) | replace a subtree (seq → map/farm) |
//! | [`FallbackSwap::new`] | Reliability | the same, fired by `n` consecutive item errors | replace a subtree with a fallback |
//! | [`RetuneWidth::new`] | Performance | desired width ≠ current knob value | set a split-width [`Knob`] |
//! | [`RetuneGrain::new`] | Performance | leaf duration outside its target band | halve/double a d&C grain [`Knob`] |
//! | [`CostGuard::knob`] | Cost | a [`NodeHoursMeter`]'s node-time exceeds its budget | shrink a knob to its economy value, or veto growth |
//! | `Offload::new` | Performance | the busiest other node's busy share is high and the destination's low | re-place a subtree onto the destination node |
//! | `ProvisioningPolicy::new` | Cost | the hottest enabled node's windowed busy share is high, or the last enabled node's low | set the `capacity` [`Knob`] to bring a node block online or retire it |
//!
//! Fires on one resource at one safe point are arbitrated (see
//! [`crate::arbitration`]), never applied in registration order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use askel_core::EstimatorTable;
use askel_events::Reads;
use askel_skeletons::{MuscleId, Node, NodeId, TimeNs};

use crate::forecast::Forecast;

mod cost;
mod governed;
mod grain;
mod promote;
#[cfg(test)]
mod tests;
mod width;

pub use cost::{CostGuard, NodeHoursMeter};
pub use governed::{Governed, Hysteresis};
pub use grain::RetuneGrain;
pub use promote::{FallbackSwap, Promote};
pub use width::RetuneWidth;

/// The non-functional concern a rule optimizes for — one autonomic
/// manager per concern, as in Aldinucci/Danelutto/Kilpatrick, with
/// conflicting fires arbitrated (see [`crate::arbitration`]). The derived
/// order ranks concerns for tie-breaking at equal priority:
/// `Reliability > Cost > Performance` — correct, then cheap, then fast.
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
    /// The engine's current level of parallelism.
    pub lp: usize,
    /// Which safe point this is (1 for the first plan of the session) —
    /// the clock cooldowns and [`Hysteresis`] count in.
    pub safe_point: usize,
}

impl RuleCtx<'_> {
    /// Forecasts the WCT of one submission of `root` at the current LP,
    /// from this context's estimator table (`None` while the table does
    /// not cover `root`'s muscles — see [`crate::forecast`]).
    pub(crate) fn forecast_wct(&self, root: &Arc<Node>) -> Option<TimeNs> {
        askel_core::predictive_wct(self.estimates, root, self.lp)
    }

    /// Like [`forecast_wct`](Self::forecast_wct), over a clone of the
    /// estimator table that `tweak` changed first.
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

/// One rule's proposal; its [`Governed`] wrapper completes `why`.
pub struct RuleFire {
    /// The requested change — or, for a veto, the contested resource.
    pub action: RewriteAction,
    /// The observed statistics that justified it; empty when the rule's
    /// triggers alone justify it.
    pub why: String,
    /// A **veto** firing opposes rather than requests: its `action` is
    /// never applied, it only identifies the resource (knob, subtree)
    /// the rule wants held still. A veto that conflicts with nothing is
    /// dropped silently; one that does conflict suppresses the group per
    /// the configured [`ConflictPolicy`](crate::ConflictPolicy).
    pub veto: bool,
}

impl RuleFire {
    /// A proposal requesting `action`.
    pub fn new(action: RewriteAction, why: impl Into<String>) -> Self {
        RuleFire {
            action,
            why: why.into(),
            veto: false,
        }
    }

    /// A veto: opposes any conflicting action on `action`'s resource
    /// instead of requesting a change (see [`RuleFire::veto`]).
    pub fn veto(action: RewriteAction, why: impl Into<String>) -> Self {
        RuleFire {
            veto: true,
            ..RuleFire::new(action, why)
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
    /// The muscle whose estimate the condition reads, if any.
    pub(crate) fn muscle(&self) -> Option<MuscleId> {
        match *self {
            Trigger::DurationAtLeast(m, _)
            | Trigger::DurationAtMost(m, _)
            | Trigger::CardinalityAtLeast(m, _) => Some(m),
            Trigger::InputSizeAtLeast(_) | Trigger::ErrorStreakAtLeast(_) => None,
        }
    }

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

/// A self-configuration rule: its own decision and nothing else, evaluated
/// through its [`Governed`] wrapper under the trigger engine's lock. It
/// must be a deterministic function of the [`RuleCtx`] and its own state,
/// so adaptation replays identically on the simulator.
pub trait Rule: Send {
    /// Proposes a rewrite, or `None` to hold; [`Governed`] decides whether
    /// it fires. A `Replace` or `Place` should gate on its target still
    /// occurring in `ctx.root` (`ctx.root.find(target)`, as the built-ins
    /// do): an earlier rewrite may have replaced it, and a fire on a
    /// vanished target is skipped and re-armed at every safe point.
    fn evaluate(&mut self, ctx: &RuleCtx<'_>) -> Option<RuleFire>;

    /// An applied rewrite replaced the subtree `target` with
    /// `replacement`: a rule tracking a `NodeId` may retarget, as
    /// `askel_dist::Offload` follows its subtree through a
    /// [`FallbackSwap`]. Default: ignore.
    fn on_replaced(&mut self, target: NodeId, replacement: &Arc<Node>) {
        let _ = (target, replacement);
    }

    /// The muscles whose estimates [`evaluate`](Rule::evaluate) reads from
    /// `ctx.estimates` — the trigger engine hears only the events those
    /// estimates are made from ([`askel_events::Listener::reads`]); its
    /// [`Governed`] wrapper adds its triggers' muscles, and a forecast
    /// gate reads every muscle. Asked again whenever the rule is added,
    /// fires, is re-armed or sees a replacement. Default: every muscle,
    /// which is always correct; a rule that reads fewer says so.
    fn reads(&self) -> Reads {
        Reads::All
    }

    /// The WCT forecast of applying `action` now, for a forecast-gated
    /// rule ([`Governed::forecast_gated`]); `None` keeps the gate closed.
    /// Default: for a `Replace`, the rewritten tree's forecast against
    /// the current one's (`None` until the estimator table covers both —
    /// seed it with
    /// [`Knowledge::with_estimates`](askel_core::Knowledge::with_estimates));
    /// `None` for any other action.
    fn forecast(&self, ctx: &RuleCtx<'_>, action: &RewriteAction) -> Option<Forecast> {
        let RewriteAction::Replace {
            target,
            replacement,
        } = action
        else {
            return None;
        };
        let baseline = ctx.forecast_wct(ctx.root)?;
        let predicted = ctx.forecast_wct(&ctx.root.replace_subtree(*target, replacement)?)?;
        Some(Forecast {
            predicted,
            baseline,
            realized: None,
        })
    }
}
