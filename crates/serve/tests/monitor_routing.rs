//! An adaptive tenant's trigger hears its own session's items and
//! nothing else: the engine's registry stays empty, so nothing asks
//! engines for events beyond what each tenant's own trigger reads, and
//! on either front two tenants never hear each other — not even when
//! they run clones of one `Skel`.

use std::sync::Arc;

use askel_adapt::TriggerEngine;
use askel_engine::Engine;
use askel_serve::{AdmissionPolicy, ServeRegistry, ShardedServe};
use askel_skeletons::{map, pipe, seq, MuscleId, MuscleRole, Skel};

fn fan() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.chunks(2).map(<[i64]>::to_vec).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

fn chain() -> Skel<Vec<i64>, i64> {
    pipe(
        seq(|v: Vec<i64>| v.into_iter().map(|x| x + 1).collect::<Vec<i64>>()),
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
    )
}

/// `mine` has an estimate for every muscle of `own` and for none of
/// `other`'s.
fn assert_heard_only(
    mine: &Arc<TriggerEngine>,
    own: &Skel<Vec<i64>, i64>,
    other: &Skel<Vec<i64>, i64>,
) {
    mine.knowledge().read_estimates(|est| {
        assert!(est.covers(&own.node().collect_muscles()));
        for m in other.node().collect_muscles() {
            assert_eq!(est.duration(m.id), None, "foreign event for {:?}", m.id);
        }
    });
}

/// Adaptive tenants on either front leave the engine's registry empty:
/// each trigger is asked for its positions by its own session alone, and
/// a plain tenant's items, sampling an empty registry, go unobserved.
#[test]
fn adaptive_tenants_register_no_engine_listener() {
    let engine = Engine::new(1);
    let (a, b) = (fan(), chain());
    let (ta, tb) = (TriggerEngine::new(0.5), TriggerEngine::new(0.5));
    let mut registry: ServeRegistry<Vec<i64>, i64> = ServeRegistry::new(&engine);
    let adaptive = registry.register_adaptive(&a, ta.clone());
    let plain = registry.register(&fan());
    registry.feed(adaptive, vec![1, 2, 3]);
    registry.feed(plain, vec![1, 2, 3]);
    registry.quiesce();
    assert!(engine.registry().is_empty());

    let sharded: ShardedServe<Vec<i64>, i64> =
        ShardedServe::new(&engine, 2, AdmissionPolicy::default());
    let id = sharded.register_adaptive(&b, tb.clone());
    sharded.feed(id, vec![1, 2, 3]);
    sharded.quiesce();
    assert!(engine.registry().is_empty());
    for (trigger, own) in [(&ta, &a), (&tb, &b)] {
        let muscles = own.node().collect_muscles();
        assert!(trigger
            .knowledge()
            .read_estimates(|est| est.covers(&muscles)));
    }
    sharded.join();
    engine.shutdown();
}

/// Splits an item into one part per element.
fn per_element() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0]),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

/// Two tenants run one `Skel` and its clone — the same node ids — on
/// either front, one with 2-element items and one with 8. Each trigger's
/// split cardinality is exactly its own tenant's: a single event of the
/// neighbour's would have moved it.
#[test]
fn tenants_on_one_skel_clone_each_hear_only_their_own_items() {
    let engine = Engine::new(2);
    let program = per_element();
    let split = MuscleId::new(program.id(), MuscleRole::Split);
    let parts = |t: &TriggerEngine| t.knowledge().read_estimates(|e| e.cardinality(split));
    let (two, eight) = (vec![1, 2], vec![1; 8]);

    let (ta, tb) = (TriggerEngine::new(0.5), TriggerEngine::new(0.5));
    let mut registry: ServeRegistry<Vec<i64>, i64> = ServeRegistry::new(&engine);
    let ida = registry.register_adaptive(&program, ta.clone());
    let idb = registry.register_adaptive(&program.clone(), tb.clone());
    for _ in 0..6 {
        registry.feed(ida, two.clone());
        registry.feed(idb, eight.clone());
    }
    registry.quiesce();
    assert_eq!((parts(&ta), parts(&tb)), (Some(2.0), Some(8.0)));
    assert_eq!(registry.detach(ida).unwrap().len(), 6);
    assert_eq!(registry.detach(idb).unwrap().len(), 6);

    let (ta, tb) = (TriggerEngine::new(0.5), TriggerEngine::new(0.5));
    let sharded: ShardedServe<Vec<i64>, i64> =
        ShardedServe::new(&engine, 2, AdmissionPolicy::default());
    let ida = sharded.register_adaptive(&program, ta.clone());
    let idb = sharded.register_adaptive(&program.clone(), tb.clone());
    for _ in 0..6 {
        sharded.feed(ida, two.clone());
        sharded.feed(idb, eight.clone());
    }
    sharded.quiesce();
    assert_eq!((parts(&ta), parts(&tb)), (Some(2.0), Some(8.0)));
    sharded.join();
    engine.shutdown();
}

#[test]
fn an_adaptive_tenant_hears_exactly_its_own_events_on_either_front() {
    let engine = Engine::new(2);
    let items = || (0..6).map(|i| vec![i, i + 1, i + 2]);

    let (a, b) = (fan(), chain());
    let (ta, tb) = (TriggerEngine::new(0.5), TriggerEngine::new(0.5));
    let mut registry: ServeRegistry<Vec<i64>, i64> = ServeRegistry::new(&engine);
    let ida = registry.register_adaptive(&a, ta.clone());
    let idb = registry.register_adaptive(&b, tb.clone());
    for item in items() {
        registry.feed(ida, item.clone());
        registry.feed(idb, item);
    }
    registry.quiesce();
    assert_heard_only(&ta, &a, &b);
    assert_heard_only(&tb, &b, &a);
    assert_eq!(registry.detach(ida).unwrap().len(), 6);
    assert_eq!(registry.detach(idb).unwrap().len(), 6);

    let (a, b) = (fan(), chain());
    let (ta, tb) = (TriggerEngine::new(0.5), TriggerEngine::new(0.5));
    let sharded: ShardedServe<Vec<i64>, i64> =
        ShardedServe::new(&engine, 2, AdmissionPolicy::default());
    let ida = sharded.register_adaptive(&a, ta.clone());
    let idb = sharded.register_adaptive(&b, tb.clone());
    for item in items() {
        sharded.feed(ida, item.clone());
        sharded.feed(idb, item);
    }
    sharded.quiesce();
    assert_heard_only(&ta, &a, &b);
    assert_heard_only(&tb, &b, &a);
    sharded.join();
    engine.shutdown();
}
