//! **Figure 2** — the active-thread timeline of the worked example:
//! limited-LP(2) vs best effort, the optimal LP, and the controller's
//! 2 → 3 decision for a WCT goal of 100.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use askel_bench::fig1::{sec, Fig1Fixture};
use askel_core::{
    best_effort, limited_lp, optimal_lp, AdgWorkspace, AutonomicController, ControllerConfig,
    FnActuator,
};
use askel_events::{Listener, Payload};

fn main() {
    let f = Fig1Fixture::new();
    let tracker = f.tracker_at_70();
    let adg = AdgWorkspace::new(f.skel.node()).build(&tracker).clone();
    let now = sec(70);
    let be = best_effort(&adg, now);
    let ll = limited_lp(&adg, now, 2);

    println!("# Figure 2 — estimated active threads over wall-clock time");
    println!("# time(s)\tlimited-LP(2)\tbest-effort");
    let sample = |sched: &askel_core::Schedule, t| {
        sched
            .timeline()
            .iter()
            .take_while(|p| p.at <= t)
            .last()
            .map(|p| p.active)
            .unwrap_or(0)
    };
    for t in (0..=120).step_by(5) {
        let t = sec(t);
        println!(
            "{:.0}\t{}\t{}",
            t.as_secs_f64(),
            sample(&ll, t),
            sample(&be, t)
        );
    }
    let opt = optimal_lp(&adg, now);
    println!("#");
    println!("optimal LP        = {opt}   (paper: 3, needed during [75,90))");
    println!(
        "limited-LP(2) WCT = {:.0}   (paper: 115)",
        ll.finish.as_secs_f64()
    );
    println!(
        "best-effort WCT   = {:.0}   (paper: 100)",
        be.finish.as_secs_f64()
    );
    assert_eq!(opt, 3);

    // The controller decision the paper derives from this timeline:
    // "If we set the WCT QoS goal to 100, Skandium will autonomically
    // increase LP to 3".
    let requested = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&requested);
    let controller = AutonomicController::new(
        f.skel.node().clone(),
        ControllerConfig::new(sec(100), 24)
            .initial_lp(2)
            .manual_analysis(true),
        Arc::new(FnActuator(move |lp| r.store(lp, Ordering::SeqCst))),
    );
    controller.knowledge().with_estimates(|est| {
        use askel_skeletons::{MuscleId, MuscleRole};
        for node in [f.outer, f.inner] {
            est.init_duration(MuscleId::new(node, MuscleRole::Split), sec(10));
            est.init_duration(MuscleId::new(node, MuscleRole::Merge), sec(5));
            est.init_cardinality(MuscleId::new(node, MuscleRole::Split), 3.0);
        }
        est.init_duration(MuscleId::new(f.leaf, MuscleRole::Execute), sec(15));
    });
    f.feed_history(|e| controller.on_event(&mut Payload::None, &e));
    controller.force_analyze(sec(70));
    println!(
        "controller (goal 100): LP 2 -> {}   (paper: 3)",
        controller.current_lp()
    );
    assert_eq!(controller.current_lp(), 3);
}
