//! End-to-end reproduction of the paper's §5 evaluation scenarios.
//!
//! The testbed: word count over 1.2 M tweets modelled as
//! `map(fs, map(fs, seq(fe), fm), fm)` on a 12-core / 24-thread Xeon,
//! Skandium v1.1b1. Reported scalars: sequential WCT 12.5 s; first split
//! 6.4 s (single-threaded I/O); inner splits ≈ 7× faster; `fe`/`fm` ≈
//! 0.04 s each.
//!
//! Our substrate is the deterministic simulator (this host has one core;
//! DESIGN.md §4): virtual costs are calibrated to those scalars — outer
//! split 6.4 s exactly (a single sequential file read), inner splits
//! 6.4/7 ≈ 0.914 s with ±5 % jitter (equal chunk sizes), `fe` 0.04 s with
//! ±60 % jitter (the paper: "in practice some execution muscles took less
//! time than others"), `fm` 0.04 s with ±25 % jitter. Outer cardinality 5,
//! inner 7 ⇒ sequential WCT ≈ 6.4 + 5×0.914 + 35×0.04 + 6×0.04 ≈ 12.6 s,
//! matching the paper's 12.5 s.

use std::sync::Arc;

use askel_core::{AutonomicController, ControllerConfig, Decision, FnActuator, Snapshot};
use askel_pool::TimelinePoint;
use askel_sim::cost::{CostModel, JitterCost, PerMuscleCost, TableCost};
use askel_sim::SimEngine;
use askel_skeletons::{MuscleRole, TimeNs};
use askel_workloads::tweets::{generate_corpus, TweetGenConfig};
use askel_workloads::wordcount::{Counts, WordCountProgram};

/// Workload parameters (defaults = the paper's §5 setup).
#[derive(Clone, Debug)]
pub struct ScenarioParams {
    /// Outer split cardinality.
    pub outer_chunks: usize,
    /// Inner split cardinality.
    pub inner_chunks: usize,
    /// Outer split cost (the paper's 6.4 s file read).
    pub outer_split_cost: TimeNs,
    /// Inner split cost (≈ 7× faster).
    pub inner_split_cost: TimeNs,
    /// `fe` cost.
    pub execute_cost: TimeNs,
    /// `fm` cost (both levels).
    pub merge_cost: TimeNs,
    /// Jitter amplitude on inner splits (equal chunk sizes ⇒ near-uniform).
    pub split_jitter: f64,
    /// Jitter amplitude on `fe` (token distribution varies per sub-chunk;
    /// the paper: "in practice some execution muscles took less time").
    pub execute_jitter: f64,
    /// Jitter amplitude on merges.
    pub merge_jitter: f64,
    /// Jitter / corpus seed.
    pub seed: u64,
    /// Synthetic corpus size (data flow only; costs are virtual).
    pub tweets: usize,
    /// Max LP (the Xeon's 24 hardware threads).
    pub max_lp: usize,
    /// Initial LP.
    pub initial_lp: usize,
    /// Decrease cooldown ("does not reduce the LP as fast as it
    /// increases it").
    pub decrease_cooldown: TimeNs,
    /// Raise headroom (the paper's controller over-provisions; see
    /// [`askel_core::ControllerConfig::raise_headroom`]).
    pub raise_headroom: f64,
    /// Decrease safety margin (fraction of the goal).
    pub decrease_safety: f64,
    /// Raise policy (the paper's controller jumps straight to its target;
    /// `Doubling` is the rate-limited ablation).
    pub raise_policy: askel_core::RaisePolicy,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            outer_chunks: 5,
            inner_chunks: 7,
            outer_split_cost: TimeNs::from_millis(6_400),
            inner_split_cost: TimeNs::from_micros(914_286),
            execute_cost: TimeNs::from_millis(40),
            merge_cost: TimeNs::from_millis(40),
            split_jitter: 0.05,
            execute_jitter: 0.6,
            merge_jitter: 0.25,
            seed: 20130725,
            tweets: 2_000,
            max_lp: 24,
            initial_lp: 1,
            decrease_cooldown: TimeNs::from_millis(1_000),
            raise_headroom: 2.0,
            decrease_safety: 0.1,
            raise_policy: askel_core::RaisePolicy::Unbounded,
        }
    }
}

/// Everything one scenario run reports.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Wall-clock time of the run (virtual).
    pub wct: TimeNs,
    /// Peak number of simultaneously active activities (the paper's
    /// "maximum number of active threads").
    pub peak_active: usize,
    /// LP target when the run finished.
    pub final_lp: usize,
    /// When the controller first changed the LP.
    pub first_decision_at: Option<TimeNs>,
    /// The full decision log.
    pub decisions: Vec<Decision>,
    /// Active-activity step function (Figs. 5–7's series).
    pub active_timeline: Vec<TimelinePoint>,
    /// LP-target step function.
    pub lp_timeline: Vec<TimelinePoint>,
    /// Final estimator snapshot (feeds the "with initialization" run).
    pub snapshot: Snapshot,
    /// Distinct tokens counted (sanity: the work really ran).
    pub distinct_tokens: usize,
    /// Every analysis with its predictions (accuracy studies).
    pub analysis_log: Vec<askel_core::AnalysisRecord>,
    /// How many of those were replayed rather than computed
    /// ([`AutonomicController::replayed`]).
    pub replayed: usize,
}

impl ScenarioOutcome {
    /// Highest LP target the controller requested.
    pub fn peak_lp_target(&self) -> usize {
        self.lp_timeline.iter().map(|p| p.active).max().unwrap_or(0)
    }
}

/// The §5 testbed: program + corpus + cost model, reusable across runs so
/// snapshots stay meaningful (node identities are per-program).
pub struct PaperScenarios {
    /// Workload parameters.
    pub params: ScenarioParams,
    /// The word-count program (stable node ids across runs).
    pub program: WordCountProgram,
    corpus: Vec<String>,
    cost: Arc<dyn CostModel>,
    expected: Counts,
}

impl PaperScenarios {
    /// Builds the testbed.
    pub fn new(params: ScenarioParams) -> Self {
        let program = WordCountProgram::new(params.outer_chunks, params.inner_chunks);
        let corpus = generate_corpus(&TweetGenConfig {
            tweets: params.tweets,
            seed: params.seed,
            ..Default::default()
        });
        let expected = askel_workloads::wordcount::count_tokens(&corpus);

        let mut table = TableCost::new(params.execute_cost);
        table.set(
            program.muscle(program.outer, MuscleRole::Split),
            params.outer_split_cost,
        );
        table.set(
            program.muscle(program.inner, MuscleRole::Split),
            params.inner_split_cost,
        );
        table.set(
            program.muscle(program.leaf, MuscleRole::Execute),
            params.execute_cost,
        );
        table.set(
            program.muscle(program.outer, MuscleRole::Merge),
            params.merge_cost,
        );
        table.set(
            program.muscle(program.inner, MuscleRole::Merge),
            params.merge_cost,
        );
        // Per-muscle jitter; the outer split (a single sequential file
        // read, quoted as exactly 6.4 s) stays deterministic.
        let cost = PerMuscleCost::new(Arc::new(JitterCost::new(
            table.clone(),
            params.execute_jitter,
            params.seed,
        )))
        .route(
            program.muscle(program.outer, MuscleRole::Split),
            Arc::new(table.clone()),
        )
        .route(
            program.muscle(program.inner, MuscleRole::Split),
            Arc::new(JitterCost::new(
                table.clone(),
                params.split_jitter,
                params.seed,
            )),
        )
        .route(
            program.muscle(program.outer, MuscleRole::Merge),
            Arc::new(JitterCost::new(
                table.clone(),
                params.merge_jitter,
                params.seed,
            )),
        )
        .route(
            program.muscle(program.inner, MuscleRole::Merge),
            Arc::new(JitterCost::new(
                table.clone(),
                params.merge_jitter,
                params.seed,
            )),
        );
        PaperScenarios {
            params,
            program,
            corpus,
            cost: Arc::new(cost),
            expected,
        }
    }

    /// The synthetic corpus (cloned; runs consume their input).
    pub fn corpus_clone(&self) -> Vec<String> {
        self.corpus.clone()
    }

    /// The calibrated cost model (shared; ablations build their own sims).
    pub fn cost_model(&self) -> Arc<dyn CostModel> {
        Arc::clone(&self.cost)
    }

    /// The expected word count (for ablations asserting correctness).
    pub fn expected_counts(&self) -> &Counts {
        &self.expected
    }

    /// The sequential baseline: LP 1, no controller. The paper's 12.5 s.
    pub fn sequential_wct(&self) -> TimeNs {
        let mut sim = SimEngine::new(1, Arc::clone(&self.cost));
        let out = sim
            .run(&self.program.skel, self.corpus.clone())
            .expect("sequential baseline run failed");
        assert_eq!(out.result, self.expected, "word count must be correct");
        out.wct
    }

    /// One autonomic run: WCT goal `goal`, estimators optionally
    /// initialized from `init`.
    pub fn run(&self, goal: TimeNs, init: Option<&Snapshot>) -> ScenarioOutcome {
        let mut sim = SimEngine::new(self.params.initial_lp, Arc::clone(&self.cost));
        let lp_control = sim.lp_control();
        let mut config = ControllerConfig::new(goal, self.params.max_lp)
            .initial_lp(self.params.initial_lp)
            .decrease_cooldown(self.params.decrease_cooldown)
            .raise_headroom(self.params.raise_headroom)
            .decrease_safety(self.params.decrease_safety)
            .raise(self.params.raise_policy);
        for (m, canonical) in self.program.shared_muscle_aliases() {
            config = config.alias(m, canonical);
        }
        let controller = AutonomicController::new(
            self.program.skel.node().clone(),
            config,
            Arc::new(FnActuator(move |lp| lp_control.request(lp))),
        );
        if let Some(snapshot) = init {
            controller.init_estimates(snapshot);
        }
        sim.registry().add_listener(controller.clone());

        let out = sim
            .run(&self.program.skel, self.corpus.clone())
            .expect("scenario run failed");
        assert_eq!(out.result, self.expected, "word count must be correct");

        let decisions = controller.decisions();
        ScenarioOutcome {
            wct: out.wct,
            peak_active: sim.telemetry().peak_active(),
            final_lp: sim.lp(),
            first_decision_at: decisions.first().map(|d| d.at),
            decisions,
            active_timeline: sim.telemetry().active_timeline(),
            lp_timeline: sim.telemetry().target_timeline(),
            snapshot: controller.snapshot(),
            distinct_tokens: out.result.len(),
            analysis_log: controller.analysis_log(),
            replayed: controller.replayed(),
        }
    }
}

/// Convenience: `PaperScenarios` with the default (paper) parameters.
impl Default for PaperScenarios {
    fn default() -> Self {
        PaperScenarios::new(ScenarioParams::default())
    }
}

/// A raw-cost probe used by unit tests: total sequential work implied by
/// the cost table (without jitter).
pub fn nominal_sequential_work(params: &ScenarioParams) -> TimeNs {
    let splits = params.outer_split_cost.0 + params.outer_chunks as u64 * params.inner_split_cost.0;
    let executes = (params.outer_chunks * params.inner_chunks) as u64 * params.execute_cost.0;
    let merges = (params.outer_chunks as u64 + 1) * params.merge_cost.0;
    TimeNs(splits + executes + merges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_work_matches_the_papers_12_5_seconds() {
        let w = nominal_sequential_work(&ScenarioParams::default());
        let secs = w.as_secs_f64();
        assert!(
            (12.0..13.2).contains(&secs),
            "nominal sequential work {secs:.2}s should be ≈12.5s"
        );
    }
}
