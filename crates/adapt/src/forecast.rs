//! Forecast-coupled adaptation: predicting the WCT a rewrite would buy.
//!
//! The WCT controller (`askel-core`) predicts completion times by
//! expanding an Activity Dependency Graph from the estimator table and
//! scheduling it against a level of parallelism (`limited_lp`). This
//! module reuses exactly that machinery to answer the self-configuration
//! question: *"what would the predicted WCT be under the rewritten
//! skeleton?"* — closing the loop the paper's two autonomic properties
//! share one analysis for.
//!
//! Rules opt in via [`Promote::forecast_gated`](crate::Promote::forecast_gated)
//! / [`RetuneWidth::forecast_gated`](crate::RetuneWidth::forecast_gated):
//! the rule then fires only when the forecast under the rewritten
//! structure beats the forecast under the current one by a configurable
//! margin. Every forecast-gated firing carries a [`Forecast`] into the
//! decision log; the [`TriggerEngine`](crate::TriggerEngine) later fills
//! in the *realized* WCT of the first item completing under the new
//! version, so prediction accuracy is auditable — symmetric to the
//! controller's `AnalysisRecord` studies.
//!
//! Like the controller's analysis gate, the forecast refuses to guess:
//! [`askel_core::predictive_wct`] returns `None` unless the estimator table covers
//! every muscle of the tree being forecast (seed replacement subtrees via
//! [`TriggerEngine::seed_from`](crate::TriggerEngine::seed_from),
//! [`TriggerEngine::with_estimates`](crate::TriggerEngine::with_estimates),
//! or estimator aliases) — an uncovered forecast gate simply keeps its
//! rule closed.

use askel_skeletons::TimeNs;

/// A forecast-gated rewrite's audit trail: what the gate predicted, what
/// it was compared against, and — once the first item has completed under
/// the new version — what actually happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Forecast {
    /// Predicted WCT of one item under the **rewritten** skeleton.
    pub predicted: TimeNs,
    /// Predicted WCT of one item under the skeleton as it was.
    pub baseline: TimeNs,
    /// Realized WCT of the first root submission that completed after
    /// the rewrite was applied (`None` until one does).
    pub realized: Option<TimeNs>,
}

#[cfg(test)]
mod tests {
    use askel_core::{predictive_wct, EstimatorTable};
    use askel_skeletons::{map, seq, MuscleId, MuscleRole, Skel, TimeNs};

    fn fan_program() -> Skel<Vec<i64>, i64> {
        map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        )
    }

    fn seeded(program: &Skel<Vec<i64>, i64>, card: f64) -> EstimatorTable {
        let mut est = EstimatorTable::new(0.5);
        for m in program.node().collect_muscles() {
            let d = match m.id.role {
                MuscleRole::Execute => TimeNs::from_millis(100),
                _ => TimeNs::from_millis(1),
            };
            est.init_duration(m.id, d);
            if m.id.role == MuscleRole::Split {
                est.init_cardinality(m.id, card);
            }
        }
        est
    }

    #[test]
    fn uncovered_estimates_refuse_to_forecast() {
        let program = fan_program();
        let est = EstimatorTable::new(0.5);
        assert_eq!(predictive_wct(&est, program.node(), 2), None);
    }

    #[test]
    fn forecast_scales_with_lp() {
        let program = fan_program();
        let est = seeded(&program, 8.0);
        let at1 = predictive_wct(&est, program.node(), 1).unwrap();
        let at4 = predictive_wct(&est, program.node(), 4).unwrap();
        let at8 = predictive_wct(&est, program.node(), 8).unwrap();
        assert!(at4 < at1, "parallelism shortens the forecast: {at1} {at4}");
        assert!(at8 <= at4);
        // 8 children × 100ms over 4 workers ≈ 200ms of execute time.
        let serial = TimeNs::from_millis(8 * 100);
        assert!(at1 >= serial, "{at1} vs {serial}");
        let split = MuscleId::new(program.id(), MuscleRole::Split);
        let _ = split; // keep the id handy for readers
    }

    #[test]
    fn forecast_compares_structures() {
        // A seq leaf vs its map promotion: under lp 4 the promotion's
        // forecast must win once both sides are seeded.
        let leaf = seq(|v: Vec<i64>| v.iter().sum::<i64>());
        let promoted = fan_program();
        let mut est = seeded(&promoted, 8.0);
        est.init_duration(
            MuscleId::new(leaf.id(), MuscleRole::Execute),
            TimeNs::from_millis(800),
        );
        let seq_wct = predictive_wct(&est, leaf.node(), 4).unwrap();
        let map_wct = predictive_wct(&est, promoted.node(), 4).unwrap();
        assert!(map_wct < seq_wct, "{map_wct} !< {seq_wct}");
    }
}
