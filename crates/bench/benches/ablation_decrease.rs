//! **Ablation** — the LP decrease policy (paper §4: halving, because the
//! minimal-LP problem is NP-complete; §5 attributes Fig. 6's early finish
//! to the slow decrease).
//!
//! Runs the Fig. 7 scenario (goal 10.5 s — plenty of slack, so decreases
//! matter) under `Halve`, `Never` and `ToMinimal`.

use std::sync::Arc;

use askel_bench::PaperScenarios;
use askel_core::{AutonomicController, DecreasePolicy, FnActuator};
use askel_sim::SimEngine;
use askel_skeletons::TimeNs;

fn main() {
    let goal = TimeNs::from_millis(10_500);
    println!("# Ablation: decrease policy (Fig. 7 scenario, goal 10.5s)");
    println!("# policy\twct(s)\tpeak_active\tfinal_lp\tdecreases\tgoal_met");
    for (name, policy) in [
        ("halve", DecreasePolicy::Halve),
        ("never", DecreasePolicy::Never),
        ("to-minimal", DecreasePolicy::ToMinimal),
    ] {
        let scenarios = PaperScenarios::default();
        let config = scenarios.controller_config(goal).decrease(policy);
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
        assert_eq!(&out.result, scenarios.expected_counts());
        let decreases = controller
            .decisions()
            .iter()
            .filter(|d| d.to_lp < d.from_lp)
            .count();
        println!(
            "{name}\t{:.2}\t{}\t{}\t{}\t{}",
            out.wct.as_secs_f64(),
            sim.telemetry().peak_active(),
            sim.lp(),
            decreases,
            out.wct <= goal,
        );
    }
}
