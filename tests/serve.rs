//! Serve-layer integration: cross-tenant estimator warm-start,
//! latency-aware admission pricing, and multi-tenant correctness under
//! random interleaved feeds.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use askel_adapt::TriggerEngine;
use askel_core::{predictive_wct, EstimatorTable};
use askel_engine::Engine;
use askel_serve::{Admission, AdmissionPolicy, RejectReason, ServeRegistry, TenantId};
use askel_skeletons::{map, pipe, seq, MuscleRole, Skel, TimeNs};

/// The shared tenant program: square every element in parallel, sum.
fn fan() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] * v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

/// A structurally different program over the same types.
fn chain() -> Skel<Vec<i64>, i64> {
    pipe(
        seq(|v: Vec<i64>| v.into_iter().map(|x| x * x).collect::<Vec<i64>>()),
        seq(|v: Vec<i64>| v.into_iter().sum::<i64>()),
    )
}

#[test]
fn tenant_b_warm_starts_from_tenant_a_history() {
    let engine = Engine::new(2);
    let mut registry: ServeRegistry<Vec<i64>, i64> = ServeRegistry::new(&engine);

    // Tenant A builds estimator history from its own items' events.
    let trig_a = TriggerEngine::new(0.5);
    let a = registry.register_adaptive(&fan(), trig_a.clone());
    for n in 0..12i64 {
        registry.feed(a, (0..=n).collect());
    }
    registry.quiesce();
    registry.drain_cycle(); // publish A's history to the shared pool
    assert!(registry.shared_estimators().structures() >= 1);

    let lp = engine.pool().target_workers();
    // A cold trigger on the same structure would forecast nothing...
    let cold = TriggerEngine::new(0.5);
    let cold_skel = fan();
    assert!(
        cold.knowledge()
            .read_estimates(|est| predictive_wct(est, cold_skel.node(), lp))
            .is_none(),
        "an unwarmed tenant's forecast gate is closed"
    );

    // ...but tenant B — an independently built structural twin, sharing
    // no NodeIds with A — forecasts before running a single item.
    let trig_b = TriggerEngine::new(0.5);
    let b_skel = fan();
    assert_ne!(b_skel.id(), cold_skel.id());
    let _b = registry.register_adaptive(&b_skel, trig_b.clone());
    let forecast = trig_b
        .knowledge()
        .read_estimates(|est| predictive_wct(est, b_skel.node(), lp));
    assert!(
        forecast.is_some(),
        "warm-started tenant forecasts with zero items of its own"
    );

    // A structurally different tenant shares nothing.
    let trig_c = TriggerEngine::new(0.5);
    let c_skel = chain();
    let _c = registry.register_adaptive(&c_skel, trig_c.clone());
    assert!(
        trig_c
            .knowledge()
            .read_estimates(|est| predictive_wct(est, c_skel.node(), lp))
            .is_none(),
        "a structurally different skeleton must not inherit history"
    );
    assert!(!trig_c
        .knowledge()
        .read_estimates(|est| est.covers(&c_skel.node().collect_muscles())));

    engine.shutdown();
}

/// Seeds `table` with `per_muscle` for every muscle of `program` (and a
/// neutral cardinality of 1 for splits), so `estimated_cost` prices the
/// structure at `per_muscle × muscle count`.
fn priced_table(program: &Skel<Vec<i64>, i64>, per_muscle: TimeNs) -> EstimatorTable {
    let mut t = EstimatorTable::new(0.5);
    for m in program.node().collect_muscles() {
        t.init_duration(m.id, per_muscle);
        if m.id.role == MuscleRole::Split {
            t.init_cardinality(m.id, 1.0);
        }
    }
    t
}

/// Gate 3 end to end: with the shared pool's queue held at depth > 0 by
/// a blocked tenant, a *cheap* tenant keeps submitting while an
/// *expensive* structural stranger queues at the same depth — and a
/// tenant whose structure has no pooled history is not priced at all
/// (the gate degrades to the static quotas).
#[test]
fn latency_gate_prices_expensive_tenants_and_degrades_without_estimates() {
    // One worker, so a single blocked item pins the pool and everything
    // behind it measures as queue depth.
    let engine = Engine::new(1);
    let policy = AdmissionPolicy::default().max_queue_cost(1_000_000); // 1 ms·tasks
    let mut registry: ServeRegistry<Vec<i64>, i64> =
        ServeRegistry::new(&engine).with_policy(policy);

    // Price the two structures through the shared pool before their
    // tenants exist: chain() at ~2 µs/item, fan() at ~30 ms/item.
    let cheap_program = chain();
    let expensive_program = fan();
    registry.shared_estimators().absorb(
        cheap_program.node(),
        &priced_table(&cheap_program, TimeNs(1_000)),
    );
    registry.shared_estimators().absorb(
        expensive_program.node(),
        &priced_table(&expensive_program, TimeNs::from_millis(10)),
    );

    // The blocker parks the only worker until released; its structure
    // (a bare seq) has no pooled history, so it is never priced.
    let (tx, rx) = mpsc::channel::<()>();
    let rx = Arc::new(Mutex::new(rx));
    let gate = Arc::clone(&rx);
    let blocker_program = seq(move |v: Vec<i64>| {
        gate.lock().unwrap().recv().ok();
        v.into_iter().sum::<i64>()
    });
    let blocker = registry.register(&blocker_program);
    for _ in 0..5 {
        assert_eq!(
            registry.feed(blocker, vec![1]),
            Admission::Submitted,
            "the unpriced blocker degrades to the static quotas"
        );
    }
    // ≥ 4 items now sit queued behind the blocked worker.

    let cheap = registry.register(&cheap_program);
    let expensive = registry.register(&expensive_program);
    assert!(registry.stats(cheap).unwrap().est_cost_ns.is_some());
    assert!(registry.stats(expensive).unwrap().est_cost_ns.is_some());
    assert!(registry.stats(blocker).unwrap().est_cost_ns.is_none());

    // Same depth, opposite verdicts: depth × 2 µs clears the 1 ms·tasks
    // bound, depth × 30 ms does not.
    assert_eq!(registry.feed(cheap, vec![1, 2, 3]), Admission::Submitted);
    assert_eq!(registry.feed(expensive, vec![1, 2, 3]), Admission::Queued);

    // Release the pool: the queued item dispatches once depth falls, and
    // every admitted item completes.
    for _ in 0..5 {
        tx.send(()).unwrap();
    }
    registry.quiesce();
    assert_eq!(
        registry.take_ready(cheap).len() + registry.take_ready(expensive).len(),
        2,
        "queued-by-pricing items still run once the queue clears"
    );
    engine.shutdown();
}

proptest! {
    /// The pricing predicate itself: admitted ⇔ depth × cost ≤ bound,
    /// monotone in both depth and cost, and *always* admitting when the
    /// tenant is unpriced or the bound is unset (degrade-to-static).
    #[test]
    fn cost_gate_is_monotone_and_degrades_without_estimates(
        bound in 1u64..1_000_000_000,
        cost in 1u64..1_000_000_000,
        depth in 0usize..100_000,
    ) {
        let p = AdmissionPolicy::default().max_queue_cost(bound);
        let admitted = p.cost_room(depth, Some(cost));
        prop_assert_eq!(admitted, (depth as u64) * cost <= bound);
        if admitted {
            // Monotone: shallower queues and cheaper tenants stay in.
            if depth > 0 {
                prop_assert!(p.cost_room(depth - 1, Some(cost)));
            }
            prop_assert!(p.cost_room(depth, Some(cost.max(2) - 1)));
        }
        // No estimate / no bound: the gate must never reject.
        prop_assert!(p.cost_room(depth, None));
        prop_assert!(AdmissionPolicy::default().cost_room(depth, Some(cost)));
    }
}

/// One op in an interleaved schedule over three tenant slots.
#[derive(Clone, Debug)]
enum Op {
    /// Feeds the slot's tenant (1 item = `feed`, several = `feed_batch`).
    Feed(usize, Vec<Vec<i64>>),
    /// `take_ready`, checked against the `stats` read just before it.
    Take(usize),
    /// One blocking `next_result`.
    Next(usize),
    /// A `stats` read, checked against what was fed and handed out.
    Stats(usize),
    /// `detach`, then a fresh tenant of the same kind in the slot.
    Detach(usize),
    /// Drain cycles until settled: every backlog is dispatched.
    Quiesce,
    /// Enables or disables the metrics hub.
    Hub(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let items = proptest::collection::vec(proptest::collection::vec(-50i64..50, 1..4), 1..4);
    prop_oneof![
        6 => (0usize..3, items).prop_map(|(slot, items)| Op::Feed(slot, items)),
        2 => (0usize..3).prop_map(Op::Take),
        2 => (0usize..3).prop_map(Op::Next),
        1 => (0usize..3).prop_map(Op::Stats),
        1 => (0usize..3).prop_map(Op::Detach),
        1 => Just(Op::Quiesce),
        1 => any::<bool>().prop_map(Op::Hub),
    ]
}

/// The schedule's model of one slot's current tenant.
struct Slot {
    id: TenantId,
    /// Admitted items (submitted or queued), in feed order.
    fed: Vec<Vec<i64>>,
    /// Results handed out so far, in the order they came.
    got: Vec<i64>,
    /// Items queued in the tenant's backlog and not yet dispatched.
    queued: usize,
    /// Items handed to the session while the hub was on.
    stamped: u64,
}

impl Slot {
    fn new(id: TenantId) -> Self {
        Slot {
            id,
            fed: Vec::new(),
            got: Vec::new(),
            queued: 0,
            stamped: 0,
        }
    }

    fn hand_out(&mut self, results: Vec<Result<i64, askel_engine::EngineError>>) {
        self.got.extend(
            results
                .into_iter()
                .map(|r| r.expect("no failures in this workload")),
        );
    }

    /// A quiesce or a detach dispatches the whole backlog at once.
    fn dispatch_backlog(&mut self, hub_on: bool) {
        if hub_on {
            self.stamped += self.queued as u64;
        }
        self.queued = 0;
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn interleaved_tenants_match_their_sequential_references(
        ops in proptest::collection::vec(op_strategy(), 1..32),
        quota in 1usize..6,
        adaptive in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let engine = Engine::new(2);
        let policy = AdmissionPolicy::default().max_in_flight(quota);
        let mut registry: ServeRegistry<Vec<i64>, i64> =
            ServeRegistry::new(&engine).with_policy(policy);
        let programs = [fan(), chain(), fan()];
        let register = |registry: &mut ServeRegistry<Vec<i64>, i64>, i: usize| {
            if adaptive[i] {
                registry.register_adaptive(&programs[i], TriggerEngine::new(0.5))
            } else {
                registry.register(&programs[i])
            }
        };
        let reference = |i: usize, fed: &[Vec<i64>]| -> Vec<i64> {
            fed.iter().map(|item| programs[i].apply(item.clone())).collect()
        };
        let mut slots: Vec<Slot> = (0..3).map(|i| Slot::new(register(&mut registry, i))).collect();
        let mut hub_on = false;

        // Interleave every op across tenants; record each one's schedule.
        for op in &ops {
            match op {
                Op::Feed(i, items) => {
                    let s = &mut slots[*i];
                    let (submitted, queued) = if items.len() == 1 {
                        match registry.feed(s.id, items[0].clone()) {
                            Admission::Submitted => (1, 0),
                            Admission::Queued => (0, 1),
                            Admission::Rejected(_) => (0, 0),
                        }
                    } else {
                        let out = registry.feed_batch(s.id, items.clone());
                        (out.submitted, out.queued)
                    };
                    s.fed.extend(items[..submitted + queued].iter().cloned());
                    s.queued += queued;
                    if hub_on {
                        s.stamped += submitted as u64;
                    }
                }
                Op::Take(i) => {
                    let s = &mut slots[*i];
                    let stats = registry.stats(s.id).unwrap();
                    let got = registry.take_ready(s.id);
                    // Only what was in flight can finish in between.
                    prop_assert!(stats.ready <= got.len());
                    prop_assert!(got.len() <= stats.ready + stats.in_flight);
                    if stats.in_flight == 0 {
                        prop_assert_eq!(stats.ready, got.len());
                    }
                    s.hand_out(got);
                }
                Op::Next(i) => {
                    let s = &mut slots[*i];
                    match registry.next_result(s.id) {
                        Some(r) => s.hand_out(vec![r]),
                        None => {
                            let stats = registry.stats(s.id).unwrap();
                            prop_assert_eq!((stats.in_flight, stats.ready), (0, 0));
                        }
                    }
                }
                Op::Stats(i) => {
                    let s = &slots[*i];
                    let stats = registry.stats(s.id).unwrap();
                    prop_assert_eq!(stats.completed, (s.got.len() + stats.ready) as u64);
                    prop_assert_eq!(stats.submitted as usize + stats.backlog, s.fed.len());
                    prop_assert_eq!(stats.backlog, s.queued);
                    prop_assert_eq!(stats.version, 0, "no rule can fire");
                }
                Op::Detach(i) => {
                    let s = &mut slots[*i];
                    let rest = registry.detach(s.id).expect("registered");
                    s.hand_out(rest);
                    prop_assert_eq!(&s.got, &reference(*i, &s.fed), "tenant {} diverged", s.id);
                    prop_assert_eq!(
                        registry.feed(s.id, vec![1]),
                        Admission::Rejected(RejectReason::UnknownTenant)
                    );
                    *s = Slot::new(register(&mut registry, *i));
                }
                Op::Quiesce => {
                    registry.quiesce();
                    slots.iter_mut().for_each(|s| s.dispatch_backlog(hub_on));
                }
                Op::Hub(on) => {
                    engine.metrics_hub().set_enabled(*on);
                    hub_on = *on;
                }
            }
        }
        registry.quiesce();
        slots.iter_mut().for_each(|s| s.dispatch_backlog(hub_on));

        // Every tenant's results equal its own sequential reference, in
        // its own feed order, each exactly once — no cross-tenant bleed,
        // no reordering — and every stamped item left one sojourn.
        for (i, s) in slots.iter_mut().enumerate() {
            let stats = registry.stats(s.id).unwrap();
            let got = registry.take_ready(s.id);
            prop_assert_eq!(stats.ready, got.len());
            s.hand_out(got);
            prop_assert_eq!(stats.completed, s.got.len() as u64);
            prop_assert_eq!(&s.got, &reference(i, &s.fed), "tenant {} diverged", s.id);
            prop_assert_eq!(registry.tenant_sojourn(s.id).unwrap().count(), s.stamped);
        }
        engine.shutdown();
    }
}
