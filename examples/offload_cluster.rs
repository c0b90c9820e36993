//! Predictive, cluster-aware adaptation end to end: an oscillating load
//! on a skewed two-node cluster.
//!
//! The stream's item sizes flip between a low and a high phase (the
//! adversarial input for knob rules), and the cluster is skewed: a
//! one-slot `edge` node does all the work while a faster four-slot `hub`
//! sits dark. Three rules of one trigger engine fire at the stream's safe
//! points, arbitrated together and audited in one decision log:
//!
//! 1. **provisioning** — the `ProvisioningPolicy` rule sees the edge's
//!    busy share cross its high-water mark and sets the `capacity` knob
//!    (the simulator's LP target) to bring the hub's slot block online —
//!    the paper's "adding workers like adding threads";
//! 2. **offload** — the `Offload` rule sees the same skew in
//!    `ClusterTelemetry` and re-places the map subtree onto the hub
//!    (`Skel::placed_at`, a deep placement annotation the simulator's
//!    scheduler honours);
//! 3. **grain retune, damped** — the oscillating load swings the leaf
//!    duration EWMA across the `RetuneGrain` band; its `Hysteresis`
//!    (cooldown + dead band) keeps the knob from flapping A→B→A.
//!
//! Each applied decision is announced as an `(After, Reconfigured)`
//! event.
//!
//! Run with: `cargo run --example offload_cluster`

use askel_bench::run_skewed_cluster;
use autonomic_skeletons::prelude::*;

fn main() {
    // The scenario itself — oscillating items, the 1-slot edge + dark
    // 4-slot hub cluster, the three mechanisms wired to one telemetry
    // handle, and the lock-step `AdaptiveSimSession` loop (the same
    // `feed` the threaded `AdaptiveSession` runs, in virtual time) — is
    // `askel_bench::skewed`, shared with the acceptance tests.
    let run = run_skewed_cluster(OrderingPolicy::from_env());
    println!(
        "fed {} oscillating items through the cluster",
        run.inputs.len()
    );
    // Every result equals the sequential reference; the grain knob never
    // reversed inside its cooldown.
    run.check_invariants("");

    println!("provisioning decisions:");
    for d in run.decisions.iter().filter(|d| d.rule == "provisioning") {
        println!("  t={:>6.3}s  {} — {}", d.at.as_secs_f64(), d.action, d.why);
    }
    println!("adaptation decision log:");
    for d in &run.decisions {
        println!(
            "  t={:>6.3}s  v{} by `{}`: {} — {}",
            d.at.as_secs_f64(),
            d.version,
            d.rule,
            d.action,
            d.why
        );
    }
    let busy = run.telemetry.busy_per_node();
    for (name, busy) in run.telemetry.names().iter().zip(&busy) {
        println!("  {name:<6} {:.3}s busy", busy.as_secs_f64());
    }

    let log = &run.decisions;
    let offloads = log.iter().filter(|d| d.rule == "offload").count();
    assert_eq!(offloads, 1, "exactly one audited offload: {log:?}");
    assert_eq!(
        run.capacity_trace.last(),
        Some(&(1, 5)),
        "provisioning brought the hub online"
    );
    assert!(busy[1] > TimeNs::ZERO, "offloaded work ran on the hub");
    assert!(
        log.iter().any(|d| d.rule == "grain-retune"),
        "the grain knob moved at least once"
    );
    println!("offloaded, provisioned, damped — results identical to the reference");
}
