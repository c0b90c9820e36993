//! The multiplexed monitor carries trigger traffic and nothing else: it
//! asks engines for exactly the positions a trigger engine reads, and on
//! either front an adaptive tenant's trigger hears its own tree's events
//! and nobody else's.

use std::sync::Arc;

use askel_adapt::TriggerEngine;
use askel_engine::Engine;
use askel_events::Listener;
use askel_serve::{AdmissionPolicy, ServeRegistry, ShardedServe};
use askel_skeletons::{map, pipe, seq, Skel};

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
    mine.read_estimates(|est| {
        assert!(est.covers(&own.node().collect_muscles()));
        for m in other.node().collect_muscles() {
            assert_eq!(est.duration(m.id), None, "foreign event for {:?}", m.id);
        }
    });
}

#[test]
fn the_monitor_asks_for_exactly_what_a_trigger_reads() {
    let engine = Engine::new(1);
    let registry: ServeRegistry<i64, i64> = ServeRegistry::new(&engine);
    assert_eq!(registry.monitor().interest(), TriggerEngine::INTEREST);
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
