//! The split-width retune.

use askel_events::Reads;
use askel_skeletons::{MuscleId, TimeNs};

use super::{Concern, Governed, Knob, RewriteAction, Rule, RuleCtx, RuleFire};
use crate::forecast::Forecast;

/// Retunes a farm/map width knob to `lp × tasks_per_worker` (clamped to
/// `[min, max]`), so the split keeps every worker busy as the LP changes.
/// Gating triggers (e.g. "the split has run at least once") keep it quiet
/// until the knob's owner is actually in the live skeleton.
pub struct RetuneWidth {
    knob: Knob,
    tasks_per_worker: usize,
    min: usize,
    max: usize,
    /// The `(split, leaf)` muscles its forecast reweights.
    work: Option<(MuscleId, MuscleId)>,
}

impl RetuneWidth {
    /// A width rule over `knob` targeting `tasks_per_worker` split chunks
    /// per pool worker (clamped to ≥ 1), with default bounds `[1, 1024]`.
    pub fn new(knob: Knob, tasks_per_worker: usize) -> Governed<Self> {
        let rule = RetuneWidth {
            knob,
            tasks_per_worker: tasks_per_worker.max(1),
            min: 1,
            max: 1024,
            work: None,
        };
        Governed::new("width-retune", Concern::Performance, rule)
    }
}

impl Governed<RetuneWidth> {
    /// Clamps the computed width to `[min, max]`.
    pub fn bounds(mut self, min: usize, max: usize) -> Self {
        self.rule.min = min.max(1);
        self.rule.max = max.max(self.rule.min);
        self
    }

    /// The forecast a [`forecast_gated`](Governed::forecast_gated) width
    /// rule compares (without it the gate stays closed): the `split`
    /// cardinality set to the wanted width and the `leaf` (per-chunk)
    /// duration scaled by `current/want` — constant total work,
    /// redistributed — against the current width, both at the current LP.
    pub fn constant_work(mut self, split: MuscleId, leaf: MuscleId) -> Self {
        self.rule.work = Some((split, leaf));
        self
    }
}

impl Rule for RetuneWidth {
    /// The width follows the LP; only the forecast reads estimates, and
    /// a forecast gate reads every muscle anyway.
    fn reads(&self) -> Reads {
        Reads::NOTHING
    }

    fn evaluate(&mut self, ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        let want = (ctx.lp * self.tasks_per_worker).clamp(self.min, self.max);
        let current = self.knob.get();
        if want == current {
            return None;
        }
        let why = format!("lp={} wants width {want}, knob at {current}", ctx.lp);
        let knob = self.knob.clone();
        Some(RuleFire::new(
            RewriteAction::SetKnob { knob, value: want },
            why,
        ))
    }

    fn forecast(&self, ctx: &RuleCtx<'_>, action: &RewriteAction) -> Option<Forecast> {
        let (Some((split, leaf)), RewriteAction::SetKnob { value: want, .. }) = (self.work, action)
        else {
            return None;
        };
        let current = self.knob.get().max(1);
        let leaf_t = ctx.estimates.duration(leaf)?;
        let baseline = ctx.forecast_wct_with(ctx.root, |est| {
            est.init_cardinality(split, current as f64);
        })?;
        // Constant total work: per-chunk duration scales inversely with
        // the chunk count.
        let scaled =
            TimeNs::from_secs_f64(leaf_t.as_secs_f64() * current as f64 / (*want).max(1) as f64);
        let predicted = ctx.forecast_wct_with(ctx.root, |est| {
            est.init_cardinality(split, *want as f64);
            est.init_duration(leaf, scaled);
        })?;
        Some(Forecast {
            predicted,
            baseline,
            realized: None,
        })
    }
}
