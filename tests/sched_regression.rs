//! Pinned regression: the discrete-event scheduler under
//! `OrderingPolicy::Deterministic` reproduces the pre-refactor
//! simulator's behaviour **byte for byte** on the paper's §5 scenarios.
//!
//! The constants below were captured on the last pre-refactor revision
//! (the linear-scan, implicit-ordering scheduler): the sequential WCT,
//! and for each goal scenario the full decision log — virtual
//! timestamps, LP transitions, reasons and predicted WCTs — plus the
//! run's WCT, peak activity and final LP. Any drift in event ordering,
//! tie-breaking, slot placement or virtual-time accounting shows up here
//! as an exact-value mismatch.

use askel_bench::{PaperScenarios, ScenarioParams};
use autonomic_skeletons::prelude::*;

const GOAL_95: TimeNs = TimeNs(9_500_000_000);
const GOAL_105: TimeNs = TimeNs(10_500_000_000);

/// `(at, from_lp, to_lp, reason, predicted_wct)` — every `Decision` field.
type Pinned = (u64, usize, usize, DecisionReason, u64);

fn pin(decisions: &[autonomic_skeletons::core::Decision]) -> Vec<Pinned> {
    decisions
        .iter()
        .map(|d| (d.at.0, d.from_lp, d.to_lp, d.reason, d.predicted_wct.0))
        .collect()
}

#[test]
fn deterministic_ordering_reproduces_pre_refactor_decision_logs() {
    // The pinned values are only valid under the default deterministic
    // ordering; a fuzz seed in the environment intentionally changes the
    // schedule, so this regression does not apply.
    if std::env::var(autonomic_skeletons::sim::sched::SEED_ENV).is_ok() {
        eprintln!(
            "skipping: {} is set",
            autonomic_skeletons::sim::sched::SEED_ENV
        );
        return;
    }

    let scenarios = PaperScenarios::new(ScenarioParams::default());

    // The sequential baseline (the paper's 12.5 s), to the nanosecond.
    assert_eq!(scenarios.sequential_wct(), TimeNs(12_643_125_706));

    // Goal 9.5 s, cold estimators (Fig. 5).
    let g95 = scenarios.run(GOAL_95, None);
    assert_eq!(g95.wct, TimeNs(8_866_328_052));
    assert_eq!(g95.peak_active, 8);
    assert_eq!(g95.final_lp, 8);
    assert_eq!(g95.distinct_tokens, 1016);
    assert_eq!(
        pin(&g95.decisions),
        vec![(
            7_717_363_817,
            1,
            8,
            DecisionReason::RaiseToMeetGoal,
            8_941_730_887
        )]
    );

    // Goal 10.5 s, cold estimators (Fig. 7): a raise then a decrease.
    let g105 = scenarios.run(GOAL_105, None);
    assert_eq!(g105.wct, TimeNs(9_278_700_681));
    assert_eq!(g105.peak_active, 4);
    assert_eq!(g105.final_lp, 2);
    assert_eq!(g105.distinct_tokens, 1016);
    assert_eq!(
        pin(&g105.decisions),
        vec![
            (
                7_717_363_817,
                1,
                4,
                DecisionReason::RaiseToMeetGoal,
                9_128_045_006
            ),
            (8_640_089_911, 4, 2, DecisionReason::Decrease, 9_291_779_198),
        ]
    );

    // Goal 9.5 s with estimators initialized from the first run's
    // snapshot (Fig. 6): adaptation starts at the very first safe point
    // after the outer split (6.4 s), not after the first merge.
    let g95init = scenarios.run(GOAL_95, Some(&g95.snapshot));
    assert_eq!(g95init.wct, TimeNs(7_947_593_244));
    assert_eq!(g95init.peak_active, 5);
    assert_eq!(
        pin(&g95init.decisions),
        vec![
            (
                6_400_000_000,
                1,
                6,
                DecisionReason::RaiseToMeetGoal,
                7_771_183_943
            ),
            (7_296_682_231, 6, 3, DecisionReason::Decrease, 8_088_884_201),
        ]
    );

    // Same test, run after the pins above: node ids come from a process-wide
    // counter and seed the cost jitter, so a second `#[test]` racing this
    // one would make both sets of constants depend on thread timing.
    benchmark_scale_goal_scenario_is_pinned();
}

/// FNV-1a over every field of every record: one number that moves if any
/// analysis moved.
fn analysis_log_hash(log: &[autonomic_skeletons::core::AnalysisRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in log {
        for word in [
            r.at.0,
            r.lp as u64,
            r.predicted_finish.0,
            r.best_effort_finish.0,
        ] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn benchmark_scale_goal_scenario_is_pinned() {
    // The ladder's `sim_goal` shape: a 602-activity graph, wide enough
    // that the limited-LP tie-breaks (highest ready index first) decide
    // among dozens of eligible leaves at once. Captured on the revision
    // before the analysis path was made incremental.
    let scenarios = PaperScenarios::new(ScenarioParams {
        outer_chunks: 20,
        inner_chunks: 28,
        ..Default::default()
    });
    let run = scenarios.run(TimeNs(30_000_000_000), None);
    assert_eq!(run.wct, TimeNs(23_522_128_650));
    assert_eq!((run.peak_active, run.final_lp), (4, 1));
    assert_eq!(run.analysis_log.len(), 1030);
    assert_eq!(analysis_log_hash(&run.analysis_log), 0x101b_de22_642b_a6aa);
    assert_eq!(
        pin(&run.decisions),
        vec![
            (
                8_425_548_562,
                1,
                6,
                DecisionReason::RaiseToMeetGoal,
                16_496_155_470
            ),
            (
                8_425_548_562,
                6,
                3,
                DecisionReason::Decrease,
                23_589_866_089
            ),
            (
                17_299_021_171,
                3,
                1,
                DecisionReason::Decrease,
                26_197_801_782
            ),
            (
                17_637_742_707,
                1,
                4,
                DecisionReason::RaiseToMeetGoal,
                20_838_184_198
            ),
            (
                18_333_997_621,
                4,
                2,
                DecisionReason::Decrease,
                21_991_086_081
            ),
            (
                19_341_713_635,
                2,
                1,
                DecisionReason::Decrease,
                23_253_298_622
            ),
        ]
    );
}
