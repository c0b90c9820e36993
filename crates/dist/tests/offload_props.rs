//! Property test for the placement path: an armed `Offload` rule never
//! changes an adaptive stream's results, and stays silent on a balanced
//! cluster.

use std::sync::Arc;

use proptest::prelude::*;

use askel_adapt::{AdaptiveSession, TriggerEngine};
use askel_dist::{Cluster, NodeSpec, Offload};
use askel_engine::{Engine, StreamSession};
use askel_sim::workers::WorkerModel;
use askel_skeletons::{map, seq, Skel, TimeNs};

fn map_program() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] * 3),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn offload_on_a_balanced_cluster_is_byte_equivalent_to_stream_session(
        inputs in proptest::collection::vec(proptest::collection::vec(-50i64..50, 1..8), 1..20),
        edge_busy_ms in 0u64..100,
        hub_busy_ms in 0u64..100,
        bound in 1usize..4,
    ) {
        // The disabled-rules equivalence property, extended to the
        // placement path: with an armed Offload rule over an arbitrary
        // cluster skew, results are byte-for-byte those of the plain
        // StreamSession — whether or not the offload fires, because
        // placement is a pure scheduling hint. And on a balanced cluster
        // (skew inside the water marks) the rule must not fire at all.
        let mut cluster = Cluster::new(vec![
            NodeSpec::local("edge", 1),
            NodeSpec::remote("hub", 2, TimeNs::ZERO),
        ]);
        cluster.note_busy(0, TimeNs::from_millis(edge_busy_ms)); // edge slot
        cluster.note_busy(1, TimeNs::from_millis(hub_busy_ms)); // first hub slot
        let telemetry = cluster.telemetry();

        let program = map_program();
        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(
            Offload::new(&program, "hub", telemetry.clone(), 0.75, 0.25),
        );
        let engine = Engine::new(2);
        let mut adaptive = AdaptiveSession::new(&engine, &program, Arc::clone(&trigger))
            .max_in_flight(bound);
        let mut plain = StreamSession::new(&engine, &program).max_in_flight(bound);
        for input in &inputs {
            adaptive.feed(input.clone());
            plain.feed(input.clone());
        }
        let a: Vec<i64> = adaptive.drain().map(|r| r.unwrap()).collect();
        let p: Vec<i64> = plain.drain().map(|r| r.unwrap()).collect();
        engine.shutdown();
        prop_assert_eq!(&a, &p, "placement never changes results");

        let fired = trigger
            .decision_log()
            .iter()
            .any(|d| d.rule == "offload");
        let total = edge_busy_ms + hub_busy_ms;
        if total == 0 {
            prop_assert!(!fired, "no skew observed, nothing may fire");
        } else {
            let edge_share = edge_busy_ms as f64 / total as f64;
            let hub_share = hub_busy_ms as f64 / total as f64;
            // Stay away from the exact water marks (f64 rounding there
            // is the rule's prerogative).
            if edge_share < 0.75 - 1e-6 || hub_share > 0.25 + 1e-6 {
                prop_assert!(!fired, "balanced cluster: {edge_share} / {hub_share}");
            } else if edge_share > 0.75 + 1e-6 && hub_share < 0.25 - 1e-6 {
                prop_assert!(fired, "clear skew must offload: {edge_share} / {hub_share}");
            }
        }
    }
}
