//! Pinned: how many of the benchmark-scale goal scenario's analyses the
//! controller replays instead of computing. The scenario has the shape
//! of `sched_regression.rs`'s `20 × 28` one; the count is exact per seed.
//!
//! One `#[test]`, in a process of its own: node ids come from a
//! process-wide counter and seed the cost jitter, so a second test
//! building programs beside this one would move the pins — and being the
//! first program of its process, this run's decisions are its own, not
//! the six `sched_regression.rs` pins after three other scenarios.

use askel_bench::{PaperScenarios, ScenarioParams};
use autonomic_skeletons::prelude::*;

#[test]
fn the_goal_scenario_replays_every_same_instant_nesting_analysis() {
    if std::env::var(autonomic_skeletons::sim::sched::SEED_ENV).is_ok() {
        eprintln!("skipping: a fuzz seed changes the schedule");
        return;
    }
    let scenarios = PaperScenarios::new(ScenarioParams {
        outer_chunks: 20,
        inner_chunks: 28,
        ..Default::default()
    });
    let run = scenarios.run(TimeNs(30_000_000_000), None);
    let (analyses, replayed) = (run.analysis_log.len(), run.replayed);
    println!("{replayed} of {analyses} analyses replayed");
    assert_eq!(analyses, 1030);
    assert_eq!(run.decisions.len(), 5);
    assert_eq!((run.wct, run.final_lp), (TimeNs(27_195_918_483), 1));
    // The gate a tracker change trips first: an analysis is replayed
    // only while nothing it reads has changed, so a tracker that starts
    // counting an event it ignores as a change — or an engine that
    // stamps a nesting event later than the event that caused it —
    // shows here as a ratio falling towards zero.
    assert!(
        replayed as f64 >= 0.45 * analyses as f64,
        "only {replayed} of {analyses} analyses were replayed"
    );
    assert_eq!(replayed, 492);
}
