//! The cost concern: a node-time meter and the guard that reads it.

use std::sync::Arc;

use parking_lot::Mutex;

use askel_events::Reads;
use askel_skeletons::TimeNs;

use super::{Concern, Governed, Knob, RewriteAction, Rule, RuleCtx, RuleFire};

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
/// Over budget it sets its knob down to the economy value while the knob
/// sits above it, and **vetoes** the knob once it is there — so a width
/// rule growing the same knob at the same safe point conflicts with it
/// and the [`ConflictPolicy`](crate::ConflictPolicy) decides. An idle
/// veto (nothing to oppose) is dropped without a log entry.
pub struct CostGuard {
    meter: NodeHoursMeter,
    budget: TimeNs,
    knob: Knob,
    economy: usize,
}

impl CostGuard {
    /// Guards `knob`: once `meter`'s accumulated node-time reaches
    /// `budget`, shrink the knob to `economy` (if above) and veto growth
    /// (if at or below).
    pub fn knob(
        meter: NodeHoursMeter,
        budget: TimeNs,
        knob: Knob,
        economy: usize,
    ) -> Governed<Self> {
        let rule = CostGuard {
            meter,
            budget,
            knob,
            economy,
        };
        Governed::new("cost-guard", Concern::Cost, rule)
    }
}

impl Rule for CostGuard {
    /// Node-time comes from its meter, not from events.
    fn reads(&self) -> Reads {
        Reads::NOTHING
    }

    fn evaluate(&mut self, _ctx: &RuleCtx<'_>) -> Option<RuleFire> {
        let spent = self.meter.node_time();
        if spent < self.budget {
            return None;
        }
        let why = format!(
            "node-time spent {spent:?} >= budget {:?} ({:.2} node-hours)",
            self.budget,
            self.meter.node_hours()
        );
        let (knob, economy, current) = (&self.knob, self.economy, self.knob.get());
        let action = RewriteAction::SetKnob {
            knob: knob.clone(),
            value: current.min(economy),
        };
        Some(if current > economy {
            let why = format!("{why}: shrink `{}` {current} -> {economy}", knob.name());
            RuleFire::new(action, why)
        } else {
            RuleFire::veto(
                action,
                format!("{why}: hold `{}` at {current}", knob.name()),
            )
        })
    }
}
