//! **Figure 1** — the Activity Dependency Graph of the worked example at
//! WCT 70: activity table with actual and estimated intervals under both
//! strategies.
//!
//! Paper values this must reproduce: best-effort WCT **100**, limited-LP(2)
//! WCT **115**, running split estimated to end at **75**, B's merge at
//! [70,75], C's `fe`s at [75,90] (best effort) with the third delayed to
//! [90,105] under LP 2.

use askel_bench::fig1::{sec, Fig1Fixture};
use askel_core::{best_effort, limited_lp, ActState, AdgWorkspace};

fn main() {
    let f = Fig1Fixture::new();
    let tracker = f.tracker_at_70();
    let adg = AdgWorkspace::new(f.skel.node()).build(&tracker).clone();
    let now = sec(70);
    let be = best_effort(&adg, now);
    let ll = limited_lp(&adg, now, 2);

    println!("# Figure 1 — ADG of map(fs, map(fs, seq(fe), fm), fm) at WCT 70, LP 2");
    println!("# t(fs)=10 t(fe)=15 t(fm)=5 |fs|=3");
    println!("#");
    println!("# activity        state      best-effort       limited-LP(2)");
    for (i, a) in adg.activities.iter().enumerate() {
        let state = match a.state {
            ActState::Done { .. } => "done",
            ActState::Running { .. } => "running",
            ActState::Pending => "pending",
        };
        println!(
            "{:>2} {:<12} {:<9} [{:>3.0},{:>3.0}]         [{:>3.0},{:>3.0}]",
            i,
            a.muscle.to_string(),
            state,
            be.spans[i].0.as_secs_f64(),
            be.spans[i].1.as_secs_f64(),
            ll.spans[i].0.as_secs_f64(),
            ll.spans[i].1.as_secs_f64(),
        );
    }
    println!("#");
    println!(
        "best-effort WCT    = {:>3.0}   (paper: 100)",
        be.finish.as_secs_f64()
    );
    println!(
        "limited-LP(2) WCT  = {:>3.0}   (paper: 115)",
        ll.finish.as_secs_f64()
    );
    assert_eq!(be.finish, sec(100), "Fig. 1 best-effort WCT regressed");
    assert_eq!(ll.finish, sec(115), "Fig. 1 limited-LP WCT regressed");
}
