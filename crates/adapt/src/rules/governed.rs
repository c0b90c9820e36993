//! The governance every rule shares, applied once for all of them.

use askel_events::Reads;
use askel_skeletons::TimeNs;

use super::{Concern, RewriteAction, Rule, RuleCtx, RuleFire, Trigger};
use crate::forecast::Forecast;

/// Damping against oscillating knob load ([`Governed::hysteresis`]).
/// Same-direction moves are never restricted. A **reversal** (a move
/// against the last fire's direction) is suppressed until both
/// `cooldown_items` safe points have elapsed since the rule last fired
/// **and** the wanted value differs from the current one by more than
/// `dead_band` × the current value — so under a load trace that
/// oscillates faster than the cooldown the knob moves at most once per
/// window (property-tested in `crates/adapt/tests/adapt_props.rs`).
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

/// A [`Rule`] under the governance every rule shares. Each built-in
/// constructor returns one, so the settings chain onto it:
///
/// | setting | default | applied |
/// |---------|---------|---------|
/// | name ([`named`](Self::named)) | the constructor's: `promote`, `fallback-swap`, `width-retune`, `grain-retune`, `cost-guard`, `offload`, `provisioning` | decision log, arbitration's name tie-break, metrics |
/// | concern | fixed by the constructor (see [`crate::rules`]) | arbitration |
/// | priority ([`priority`](Self::priority)) | 0 | arbitration (higher wins) |
/// | once | fixed: `Promote` and `FallbackSwap` retire after a fire, the rest never | after a fire; a fire arbitration suppresses or a plan skipped re-arms it |
/// | triggers ([`when`](Self::when)) | none, but `FallbackSwap::new`'s error streak | before the rule is evaluated: all must hold |
/// | cooldown ([`cooldown`](Self::cooldown)) | 0 safe points | before anything: no fire within it of the last |
/// | forecast gate ([`forecast_gated`](Self::forecast_gated)) | off | after the rule proposes |
/// | [`Hysteresis`] ([`hysteresis`](Self::hysteresis)) | off | last, on a `SetKnob` proposal |
///
/// A safe point evaluates a live rule in this order: cooldown → all
/// triggers → [`Rule::evaluate`] → forecast gate → hysteresis → record
/// the fire. The record (the safe point the cooldown and the hysteresis
/// count from, the knob move's direction, retiring a once-rule) is made
/// **before** arbitration: a fire arbitration suppresses still starts
/// both windows (and is re-armed if it retired).
///
/// A fire must say why: its `why` is the rule's own text, then
/// ` (triggers)` with their observed values, or the triggers alone when
/// the rule gives no text — with neither, it does not fire (a promotion
/// with no trigger never does). A forecast gate appends
/// ` && forecast … at lp=N`.
pub struct Governed<R: ?Sized> {
    pub(crate) name: String,
    pub(crate) concern: Concern,
    pub(crate) priority: i32,
    pub(crate) once: bool,
    /// A once-rule that fired and has not been re-armed.
    pub(crate) retired: bool,
    triggers: Vec<Trigger>,
    cooldown: usize,
    hysteresis: Option<Hysteresis>,
    /// Required relative forecast improvement (`None` = ungated).
    margin: Option<f64>,
    /// The safe point of the last fire.
    last_fire: Option<usize>,
    /// The last fire's knob move: +1 grew the knob, −1 shrank it, 0 none
    /// recorded yet.
    last_dir: i8,
    pub(crate) rule: R,
}

impl<R: Rule> Governed<R> {
    /// `rule`, called `name` and serving `concern`, at priority 0 with
    /// no trigger, cooldown, forecast gate or hysteresis — the defaults
    /// every built-in constructor starts from.
    pub fn new(name: impl Into<String>, concern: Concern, rule: R) -> Self {
        Governed {
            name: name.into(),
            concern,
            priority: 0,
            once: false,
            retired: false,
            triggers: Vec::new(),
            cooldown: 0,
            hysteresis: None,
            margin: None,
            last_fire: None,
            last_dir: 0,
            rule,
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

    /// Minimum safe points between two fires.
    pub fn cooldown(mut self, points: usize) -> Self {
        self.cooldown = points;
        self
    }

    /// Damps knob moves against oscillating load: see [`Hysteresis`].
    pub fn hysteresis(mut self, policy: Hysteresis) -> Self {
        self.hysteresis = Some(policy);
        self
    }

    /// Fires only when [`Rule::forecast`] predicts a WCT at least
    /// `margin` (clamped to `[0, 1)`) better than the current one —
    /// `predicted ≤ (1 − margin) × baseline`; closed while no forecast is
    /// available. The [`Forecast`] goes into the decision log, where the
    /// realized WCT is later filled in.
    pub fn forecast_gated(mut self, margin: f64) -> Self {
        self.margin = Some(margin.clamp(0.0, 0.999));
        self
    }
}

impl<R: Rule + ?Sized> Governed<R> {
    /// What the rule reads ([`Rule::reads`]) and its triggers read; with
    /// a forecast gate, which lays the whole tree out, every muscle.
    pub(crate) fn reads(&self) -> Reads {
        if self.margin.is_some() {
            return Reads::All;
        }
        let triggers = self.triggers.iter().filter_map(Trigger::muscle);
        triggers.fold(self.rule.reads(), |reads, m| reads.union(Reads::muscle(m)))
    }

    /// One safe point's evaluation: the fire, and its gate's forecast.
    pub(crate) fn evaluate(&mut self, ctx: &RuleCtx<'_>) -> Option<(RuleFire, Option<Forecast>)> {
        let since = |at: usize| ctx.safe_point.saturating_sub(at);
        if self.last_fire.is_some_and(|at| since(at) < self.cooldown)
            || !self.triggers.iter().all(|t| t.holds(ctx))
        {
            return None;
        }
        let mut fire = self.rule.evaluate(ctx)?;
        if !self.triggers.is_empty() {
            let triggers = self.triggers.iter().map(|t| t.describe(ctx));
            let triggers = triggers.collect::<Vec<_>>().join(" && ");
            fire.why = match fire.why.as_str() {
                "" => triggers,
                own => format!("{own} ({triggers})"),
            };
        } else if fire.why.is_empty() {
            return None;
        }
        let mut forecast = None;
        if let Some(margin) = self.margin {
            let f = self.rule.forecast(ctx, &fire.action)?;
            let bound = TimeNs::from_secs_f64(f.baseline.as_secs_f64() * (1.0 - margin));
            if f.predicted > bound {
                return None;
            }
            let (p, b, pct) = (f.predicted, f.baseline, (1.0 - margin) * 100.0);
            fire.why = format!(
                "{} && forecast {p:?} <= {pct:.0}% of {b:?} at lp={}",
                fire.why, ctx.lp
            );
            forecast = Some(f);
        }
        if let (Some(h), RewriteAction::SetKnob { knob, value }) = (self.hysteresis, &fire.action) {
            let (current, want) = (knob.get() as f64, *value as f64);
            let dir = if want > current { 1 } else { -1 };
            let cooling = self
                .last_fire
                .is_some_and(|at| since(at) < h.cooldown_items);
            let in_band = (want - current).abs() <= current * h.dead_band;
            // A reversal must clear both guards.
            if self.last_dir != 0 && dir != self.last_dir && (cooling || in_band) {
                return None;
            }
            self.last_dir = dir;
        }
        self.last_fire = Some(ctx.safe_point);
        self.retired = self.once;
        Some((fire, forecast))
    }
}

/// The governance settings, without the rule: `name (concern, priority
/// p, once)` — `once` only for a once-rule.
impl<R: ?Sized> std::fmt::Debug for Governed<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let once = if self.once { ", once" } else { "" };
        let (name, concern, priority) = (&self.name, self.concern, self.priority);
        write!(f, "{name} ({concern}, priority {priority}{once})")
    }
}
