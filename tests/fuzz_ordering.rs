//! Seeded-ordering fuzzing of the adapt/offload decision stack.
//!
//! The simulator's `OrderingPolicy::SeededRandom` permutes only what is
//! genuinely unordered — scheduler events carrying the same virtual
//! timestamp — so each seed is one plausible concurrent schedule, and a
//! sweep over seeds is a concurrency fuzzer with none of the flakiness:
//! any failure names its seed, and `ASKEL_SIM_SEED=<seed>` replays it
//! bit-for-bit. What it fuzzes is the code that ships, at both levels:
//! the simulator and the threaded engine are two runtimes under one
//! `askel_events::interp`, so the fan-outs, joins, guards and event
//! sequences reordered here are the ones the pool's workers run; and
//! `AdaptiveSimSession` is the same `Adaptive` session as the threaded
//! `AdaptiveSession`, so every safe point below — harvest, outcome
//! recording, size hint, arbitration, rewrite, submit — is the `feed`
//! that serves real streams. Nothing here calls
//! `TriggerEngine::safe_point` or records an outcome by hand.
//!
//! Two acceptance scenarios run under every seed, twice each:
//!
//! * the skewed-cluster offload scenario (`askel_bench::skewed`, also
//!   `tests/adaptive.rs`), and
//! * the remote-errors fallback-swap scenario
//!   (`tests/failure_injection.rs`).
//!
//! Per seed we assert the *order-independent* invariants — results equal
//! the sequential reference, exactly the poisoned items fail, at most one
//! fire per rule per safe point, the hysteresis-damped grain knob never
//! reverses inside its cooldown window — and the *replay* invariant: a
//! second run under the same seed reproduces the decision log, virtual
//! timestamps included, byte for byte.
//!
//! `ASKEL_SIM_FUZZ_SEEDS=<n>` overrides the sweep width (default 32);
//! `ASKEL_SIM_SEED=<seed>` narrows the sweep to that single seed.

use std::sync::Arc;

use askel_bench::run_skewed_cluster;
use autonomic_skeletons::prelude::*;

/// The seeds to sweep: `ASKEL_SIM_SEED` narrows to one seed,
/// `ASKEL_SIM_FUZZ_SEEDS` sets the sweep width, default 32.
fn seeds() -> Vec<u64> {
    if let Some(seed) = std::env::var("ASKEL_SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        return vec![seed];
    }
    let count: u64 = std::env::var("ASKEL_SIM_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    (1..=count).collect()
}

/// The reproduction hint appended to every per-seed assertion message.
fn repro(seed: u64) -> String {
    format!("seed {seed} (set ASKEL_SIM_SEED={seed} to reproduce)")
}

/// At most one fire per rule per safe point: group the decision log by
/// virtual timestamp (safe points are the only places rules run, and each
/// safe point happens at one instant) and check rule names are unique
/// within each group.
fn assert_at_most_once_per_safe_point(decisions: &[(TimeNs, u64, String)], seed: u64) {
    let mut by_at: Vec<(TimeNs, Vec<&str>)> = Vec::new();
    for (at, _, rule) in decisions {
        match by_at.last_mut() {
            Some((t, rules)) if t == at => rules.push(rule),
            _ => by_at.push((*at, vec![rule])),
        }
    }
    for (at, rules) in &by_at {
        let mut uniq = rules.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(
            uniq.len(),
            rules.len(),
            "rule fired twice at one safe point ({at}): {rules:?} — {}",
            repro(seed)
        );
    }
}

/// Scenario B — the remote-errors fallback-swap scenario from
/// `tests/failure_injection.rs`, parameterized over the ordering policy.
mod remote_errors {
    use super::*;

    const POISON: i64 = -999;

    fn build_map(robust: bool) -> Skel<Vec<i64>, i64> {
        map(
            |v: Vec<i64>| {
                let mid = (v.len() / 2).max(1).min(v.len());
                let (a, b) = v.split_at(mid);
                vec![a.to_vec(), b.to_vec()]
            },
            seq(move |chunk: Vec<i64>| {
                if !robust && chunk.contains(&POISON) {
                    panic!("remote node rejected a poisoned chunk");
                }
                chunk.iter().filter(|x| **x != POISON).sum::<i64>()
            }),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        )
    }

    pub struct Run {
        pub outcomes: Vec<Result<i64, String>>,
        pub decisions: Vec<(TimeNs, u64, String)>,
        pub final_version: u64,
    }

    pub fn run_once(policy: OrderingPolicy) -> Run {
        let fragile = build_map(false);
        let robust = build_map(true);
        let cluster = Cluster::new(vec![
            NodeSpec::local("edge", 2),
            NodeSpec::remote("hub", 2, TimeNs::from_millis(5)),
        ]);
        let telemetry = cluster.telemetry();
        let cost = Arc::new(TableCost::new(TimeNs::from_millis(10)));
        let sim = SimEngine::with_workers(Box::new(cluster), cost).ordering(policy);

        let trigger = TriggerEngine::new(0.5);
        sim.registry().add_listener(trigger.clone());
        trigger.add_rule(Offload::new(&fragile, "hub", telemetry.clone(), 0.7, 0.2));
        trigger.add_rule(FallbackSwap::new(&fragile, &robust, 2).named("offload-back"));
        let mut session = sim_session(sim, &fragile, trigger.clone());

        let items: Vec<Vec<i64>> = (0..28)
            .map(|k| {
                if k == 3 || k == 4 {
                    vec![k, POISON, k + 1, k + 2]
                } else {
                    vec![k, k + 1, k + 2, k + 3]
                }
            })
            .collect();
        let outcomes = session
            .run_stream(items)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();
        Run {
            outcomes,
            decisions: trigger
                .decision_log()
                .into_iter()
                .map(|d| (d.at, d.version, d.rule))
                .collect(),
            final_version: session.version(),
        }
    }

    pub fn check_invariants(run: &Run, seed: u64) {
        // Exactly the two poisoned items fail — the fragile muscle panics
        // on poison wherever the schedule placed it — and every success
        // computes the reference sum. No item lost or duplicated.
        let errors: Vec<usize> = run
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect();
        assert_eq!(errors, vec![3, 4], "{:?} — {}", run.outcomes, repro(seed));
        for (k, outcome) in run.outcomes.iter().enumerate() {
            if let Ok(sum) = outcome {
                let expected: i64 = (k as i64..k as i64 + 4).sum();
                assert_eq!(*sum, expected, "item {k} — {}", repro(seed));
            }
        }
        // The error streak always swaps in the local fallback, whatever
        // the tie-break schedule did to the offload timing.
        assert!(
            run.decisions.iter().any(|(_, _, r)| r == "offload-back"),
            "{:?} — {}",
            run.decisions,
            repro(seed)
        );
        assert!(run.final_version >= 1, "{}", repro(seed));
        assert_at_most_once_per_safe_point(&run.decisions, seed);
    }
}

/// The sweep: both scenarios, every seed, run twice. Invariants hold
/// under every schedule; the second run replays the first bit-for-bit
/// (decision-log virtual timestamps included).
#[test]
fn seeded_ordering_sweep_preserves_invariants_and_replays() {
    for seed in seeds() {
        let policy = OrderingPolicy::SeededRandom(seed);

        let a = run_skewed_cluster(policy);
        a.check_invariants(&format!(" — {}", repro(seed)));
        assert_at_most_once_per_safe_point(&a.decision_keys(), seed);
        let b = run_skewed_cluster(policy);
        assert_eq!(
            a.decision_keys(),
            b.decision_keys(),
            "skewed decisions must replay — {}",
            repro(seed)
        );
        assert_eq!(a.capacity_trace, b.capacity_trace, "{}", repro(seed));
        assert_eq!(a.outputs, b.outputs, "{}", repro(seed));
        assert_eq!(a.grain_trace, b.grain_trace, "{}", repro(seed));

        let a = remote_errors::run_once(policy);
        remote_errors::check_invariants(&a, seed);
        let b = remote_errors::run_once(policy);
        assert_eq!(
            a.decisions,
            b.decisions,
            "remote-errors decisions must replay — {}",
            repro(seed)
        );
        assert_eq!(a.outcomes, b.outcomes, "{}", repro(seed));
    }
}

/// Different seeds genuinely explore different schedules — otherwise the
/// fuzzer is vacuous. A single-slot fan-out makes the dispatch order
/// directly observable: all eight chunks become ready at the same virtual
/// instant, so the order they execute *is* the tie-break order.
/// `Deterministic` must give the historical LIFO order; seeds must
/// replay exactly and at least two seeds must disagree. (The invariant
/// assertions above are what must NOT vary across seeds.)
#[test]
fn seeds_actually_explore_distinct_schedules() {
    use std::sync::Mutex;

    fn dispatch_order(policy: OrderingPolicy) -> Vec<i64> {
        let order = Arc::new(Mutex::new(Vec::new()));
        let probe = Arc::clone(&order);
        let program: Skel<Vec<i64>, i64> = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(move |v: Vec<i64>| {
                probe.lock().unwrap().push(v[0]);
                v[0]
            }),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let mut sim =
            SimEngine::new(1, Arc::new(TableCost::new(TimeNs::from_secs(1)))).ordering(policy);
        let out = sim.run(&program, (0..8).collect()).expect("sim run");
        assert_eq!(out.result, 28);
        let got = order.lock().unwrap().clone();
        got
    }

    assert_eq!(
        dispatch_order(OrderingPolicy::Deterministic),
        vec![7, 6, 5, 4, 3, 2, 1, 0],
        "Deterministic must keep the historical LIFO dispatch order"
    );
    let mut orders = Vec::new();
    for seed in seeds().into_iter().take(8) {
        let policy = OrderingPolicy::SeededRandom(seed);
        let a = dispatch_order(policy);
        let b = dispatch_order(policy);
        assert_eq!(a, b, "dispatch order must replay — {}", repro(seed));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "{}", repro(seed));
        orders.push(a);
    }
    let first = &orders[0];
    assert!(
        orders.len() < 2 || orders.iter().any(|o| o != first),
        "every seed produced an identical dispatch order — the tie-break keys are not reaching the scheduler"
    );
}
