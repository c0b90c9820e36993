//! **Ablation** — sensitivity to the estimator weight ρ (paper §4: ρ→0
//! follows a stable tendency, ρ→1 chases the last value; default 0.5).
//!
//! Runs the Fig. 5 scenario with several ρ values and reports WCT, peak
//! threads and adaptation latency.

use std::sync::Arc;

use askel_bench::PaperScenarios;
use askel_core::{AutonomicController, FnActuator};
use askel_sim::SimEngine;
use askel_skeletons::TimeNs;

fn main() {
    let goal = TimeNs::from_millis(9_500);
    println!("# Ablation: estimator weight ρ (Fig. 5 scenario, goal 9.5s)");
    println!("# rho\twct(s)\tpeak_active\tfirst_decision(s)\tdecisions\tgoal_met");
    for rho in [0.0, 0.1, 0.5, 0.9, 1.0] {
        let scenarios = PaperScenarios::default();
        // Rebuild the controller with the custom ρ (the harness default is
        // 0.5, so run manually here).
        let config = scenarios.controller_config(goal).rho(rho);
        let mut sim = SimEngine::new(config.initial_lp, scenarios.cost_model());
        let lp_control = sim.lp_control();
        let controller = AutonomicController::new(
            scenarios.program.skel.node().clone(),
            config,
            Arc::new(FnActuator(move |lp| lp_control.request(lp))),
        );
        sim.registry().add_listener(controller.clone());
        let out = sim
            .run(&scenarios.program.skel, scenarios.corpus_clone())
            .expect("ablation run failed");
        let decisions = controller.decisions();
        println!(
            "{rho}\t{:.2}\t{}\t{}\t{}\t{}",
            out.wct.as_secs_f64(),
            sim.telemetry().peak_active(),
            decisions
                .first()
                .map(|d| format!("{:.2}", d.at.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            decisions.len(),
            out.wct <= goal,
        );
    }
}
