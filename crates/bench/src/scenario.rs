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

use askel_core::{
    AutonomicController, ControllerConfig, Decision, FnActuator, RaisePolicy, Snapshot,
};
use askel_pool::TimelinePoint;
use askel_sim::cost::{CostModel, JitterCost, PerMuscleCost, TableCost};
use askel_sim::SimEngine;
use askel_skeletons::{MuscleRole, TimeNs};
use askel_workloads::tweets::{generate_corpus, TweetGenConfig};
use askel_workloads::wordcount::{Counts, WordCountProgram};

/// The workload parameters a caller varies (defaults = the paper's §5
/// setup). The rest of the §5 calibration is fixed: the constants below.
#[derive(Clone, Debug)]
pub struct ScenarioParams {
    /// Outer split cardinality.
    pub outer_chunks: usize,
    /// Inner split cardinality.
    pub inner_chunks: usize,
    /// Jitter / corpus seed.
    pub seed: u64,
    /// Synthetic corpus size (data flow only; costs are virtual).
    pub tweets: usize,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            outer_chunks: 5,
            inner_chunks: 7,
            seed: 20130725,
            tweets: 2_000,
        }
    }
}

/// Outer split cost (the paper's 6.4 s file read).
const OUTER_SPLIT_COST: TimeNs = TimeNs::from_millis(6_400);
/// Inner split cost (≈ 7× faster).
const INNER_SPLIT_COST: TimeNs = TimeNs::from_micros(914_286);
/// `fe` cost.
const EXECUTE_COST: TimeNs = TimeNs::from_millis(40);
/// `fm` cost (both levels).
const MERGE_COST: TimeNs = TimeNs::from_millis(40);
/// Jitter amplitude on inner splits (equal chunk sizes ⇒ near-uniform).
const SPLIT_JITTER: f64 = 0.05;
/// Jitter amplitude on `fe` (token distribution varies per sub-chunk; the
/// paper: "in practice some execution muscles took less time").
const EXECUTE_JITTER: f64 = 0.6;
/// Jitter amplitude on merges.
const MERGE_JITTER: f64 = 0.25;
/// Max LP (the Xeon's 24 hardware threads).
const MAX_LP: usize = 24;
/// Initial LP.
const INITIAL_LP: usize = 1;
/// Decrease cooldown ("does not reduce the LP as fast as it increases
/// it").
const DECREASE_COOLDOWN: TimeNs = TimeNs::from_millis(1_000);
/// Raise headroom (the paper's controller over-provisions; see
/// [`ControllerConfig::raise_headroom`]).
const RAISE_HEADROOM: f64 = 2.0;
/// Decrease safety margin (fraction of the goal).
const DECREASE_SAFETY: f64 = 0.1;
/// Raise policy (the paper's controller jumps straight to its target;
/// `Doubling` is the rate-limited ablation).
const RAISE_POLICY: RaisePolicy = RaisePolicy::Unbounded;

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

        let mut table = TableCost::new(EXECUTE_COST);
        table.set(
            program.muscle(program.outer, MuscleRole::Split),
            OUTER_SPLIT_COST,
        );
        table.set(
            program.muscle(program.inner, MuscleRole::Split),
            INNER_SPLIT_COST,
        );
        table.set(
            program.muscle(program.leaf, MuscleRole::Execute),
            EXECUTE_COST,
        );
        table.set(program.muscle(program.outer, MuscleRole::Merge), MERGE_COST);
        table.set(program.muscle(program.inner, MuscleRole::Merge), MERGE_COST);
        // Per-muscle jitter; the outer split (a single sequential file
        // read, quoted as exactly 6.4 s) stays deterministic.
        let cost = PerMuscleCost::new(Arc::new(JitterCost::new(
            table.clone(),
            EXECUTE_JITTER,
            params.seed,
        )))
        .route(
            program.muscle(program.outer, MuscleRole::Split),
            Arc::new(table.clone()),
        )
        .route(
            program.muscle(program.inner, MuscleRole::Split),
            Arc::new(JitterCost::new(table.clone(), SPLIT_JITTER, params.seed)),
        )
        .route(
            program.muscle(program.outer, MuscleRole::Merge),
            Arc::new(JitterCost::new(table.clone(), MERGE_JITTER, params.seed)),
        )
        .route(
            program.muscle(program.inner, MuscleRole::Merge),
            Arc::new(JitterCost::new(table.clone(), MERGE_JITTER, params.seed)),
        );
        PaperScenarios {
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

    /// The paper controller's configuration for the WCT goal `goal`: the
    /// §5 calibration plus the program's shared-muscle aliases. The
    /// ablations vary one setting of it.
    pub fn controller_config(&self, goal: TimeNs) -> ControllerConfig {
        let mut config = ControllerConfig::new(goal, MAX_LP)
            .initial_lp(INITIAL_LP)
            .decrease_cooldown(DECREASE_COOLDOWN)
            .raise_headroom(RAISE_HEADROOM)
            .decrease_safety(DECREASE_SAFETY)
            .raise(RAISE_POLICY);
        for (m, canonical) in self.program.shared_muscle_aliases() {
            config = config.alias(m, canonical);
        }
        config
    }

    /// One autonomic run: WCT goal `goal`, estimators optionally
    /// initialized from `init`.
    pub fn run(&self, goal: TimeNs, init: Option<&Snapshot>) -> ScenarioOutcome {
        let mut sim = SimEngine::new(INITIAL_LP, Arc::clone(&self.cost));
        let lp_control = sim.lp_control();
        let controller = AutonomicController::new(
            self.program.skel.node().clone(),
            self.controller_config(goal),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_work_matches_the_papers_12_5_seconds() {
        // Total sequential work implied by the cost table, without jitter.
        let p = ScenarioParams::default();
        let (outer, inner) = (p.outer_chunks as u64, p.inner_chunks as u64);
        let splits = OUTER_SPLIT_COST.0 + outer * INNER_SPLIT_COST.0;
        let executes = outer * inner * EXECUTE_COST.0;
        let merges = (outer + 1) * MERGE_COST.0;
        let secs = TimeNs(splits + executes + merges).as_secs_f64();
        assert!(
            (12.0..13.2).contains(&secs),
            "nominal sequential work {secs:.2}s should be ≈12.5s"
        );
    }
}
