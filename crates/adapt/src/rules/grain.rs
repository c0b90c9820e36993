//! The divide-and-conquer grain retune.

use askel_events::Reads;
use askel_skeletons::{MuscleId, TimeNs};

use super::{Concern, Governed, Knob, RewriteAction, Rule, RuleCtx, RuleFire};

/// Adapts a divide-and-conquer grain threshold so the base-case leaf lands
/// inside a target duration band: halves the grain (divides further) when
/// the leaf's EWMA duration exceeds `2 × target`, doubles it (divides
/// less) below `target / 2`, clamped to `[min, max]`.
pub struct RetuneGrain {
    knob: Knob,
    leaf: MuscleId,
    target: TimeNs,
    min: usize,
    max: usize,
}

impl RetuneGrain {
    /// A grain rule over `knob`, watching the EWMA duration of `leaf`
    /// (typically the d&C base-case execute muscle) against `target`,
    /// with default bounds `[1, 1 << 20]`.
    pub fn new(knob: Knob, leaf: MuscleId, target: TimeNs) -> Governed<Self> {
        let rule = RetuneGrain {
            knob,
            leaf,
            target,
            min: 1,
            max: 1 << 20,
        };
        Governed::new("grain-retune", Concern::Performance, rule)
    }
}

impl Governed<RetuneGrain> {
    /// Clamps the grain to `[min, max]`.
    pub fn bounds(mut self, min: usize, max: usize) -> Self {
        self.rule.min = min.max(1);
        self.rule.max = max.max(self.rule.min);
        self
    }
}

impl Rule for RetuneGrain {
    fn reads(&self) -> Reads {
        Reads::muscle(self.leaf)
    }

    fn evaluate(&mut self, ctx: &RuleCtx<'_>) -> Option<RuleFire> {
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
        let why = format!(
            "t({})={t:?} vs target {:?}: {direction} grain {grain} -> {want}",
            self.leaf, self.target
        );
        let knob = self.knob.clone();
        Some(RuleFire::new(
            RewriteAction::SetKnob { knob, value: want },
            why,
        ))
    }
}
