//! Property tests: the threaded engine, the simulator and the sequential
//! reference interpreter must agree on every program — for randomly
//! generated skeleton ASTs over `i64`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use askel_engine::Engine;
use askel_events::{Event, FnListener, Listener, Payload, Where};
use askel_sim::cost::ZeroCost;
use askel_sim::SimEngine;
use askel_skeletons::{dac, fork, map, pipe, seq, sfor, sif, swhile, KindTag, Skel};

/// A generated program: the skeleton plus a description for shrinking
/// diagnostics.
#[derive(Clone)]
struct Program {
    skel: Skel<i64, i64>,
    desc: String,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.desc)
    }
}

fn leaf_strategy() -> impl Strategy<Value = Program> {
    prop_oneof![
        (0i64..20).prop_map(|k| Program {
            skel: seq(move |x: i64| x.wrapping_add(k)),
            desc: format!("seq(+{k})"),
        }),
        Just(Program {
            skel: seq(|x: i64| x.wrapping_mul(3)),
            desc: "seq(*3)".into(),
        }),
        Just(Program {
            skel: seq(|x: i64| x ^ 0x5A),
            desc: "seq(^0x5A)".into(),
        }),
    ]
}

fn program_strategy() -> impl Strategy<Value = Program> {
    leaf_strategy().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // pipe(a, b)
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Program {
                skel: pipe(a.skel, b.skel),
                desc: format!("pipe({}, {})", a.desc, b.desc),
            }),
            // farm(a)
            inner.clone().prop_map(|a| Program {
                skel: askel_skeletons::farm(a.skel),
                desc: format!("farm({})", a.desc),
            }),
            // for(n, a) — body must be i64 → i64, which it is.
            (0usize..4, inner.clone()).prop_map(|(n, a)| Program {
                skel: sfor(n, a.skel),
                desc: format!("for({n}, {})", a.desc),
            }),
            // while(x < bound, clamp-up body) after a — guaranteed to
            // terminate: the body strictly increases below the bound and
            // first lifts the value to at least -bound, so the loop runs
            // O(bound) iterations. (Running `a` *inside* the body is not
            // safe: an arbitrary sub-program can drift the value down by
            // a little every iteration, and the loop then needs ~2^63
            // steps to wrap around.)
            (1i64..50, inner.clone()).prop_map(|(bound, a)| Program {
                skel: pipe(
                    a.skel,
                    swhile(
                        move |x: &i64| *x < bound,
                        seq(move |x: i64| bound.min(x.max(-bound).saturating_add(7))),
                    ),
                ),
                desc: format!("pipe({}, while(<{bound}, +7))", a.desc),
            }),
            // if(even, a, b)
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Program {
                skel: sif(|x: &i64| x % 2 == 0, a.skel, b.skel),
                desc: format!("if(even, {}, {})", a.desc, b.desc),
            }),
            // map: split into c parts, apply a, sum.
            (1usize..5, inner.clone()).prop_map(|(c, a)| Program {
                skel: map(
                    move |x: i64| (0..c as i64).map(|k| x.wrapping_add(k)).collect::<Vec<_>>(),
                    a.skel,
                    |parts: Vec<i64>| parts.iter().fold(0i64, |s, v| s.wrapping_add(*v)),
                ),
                desc: format!("map({c}, {})", a.desc),
            }),
            // fork with 2 distinct branches.
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Program {
                skel: fork(
                    |x: i64| vec![x, x.wrapping_add(1)],
                    vec![a.skel, b.skel],
                    |parts: Vec<i64>| parts.iter().fold(0i64, |s, v| s.wrapping_add(*v)),
                ),
                desc: format!("fork({}, {})", a.desc, b.desc),
            }),
            // d&C: normalize into [0, 200) — upstream stages can inflate
            // the value arbitrarily (wrapping products), and the split
            // produces ~x/threshold leaves — then halve values above the
            // threshold; base = a.
            (4i64..32, inner).prop_map(|(threshold, a)| Program {
                skel: pipe(
                    seq(|x: i64| x.rem_euclid(200)),
                    dac(
                        move |x: &i64| *x > threshold,
                        |x: i64| vec![x / 2, x - x / 2],
                        a.skel,
                        |parts: Vec<i64>| parts.iter().fold(0i64, |s, v| s.wrapping_add(*v)),
                    ),
                ),
                desc: format!("dac(>{threshold}, %200 {})", a.desc),
            }),
        ]
    })
}

/// A listener that keeps every event it is handed.
fn recorder() -> (Arc<dyn Listener>, Arc<Mutex<Vec<Event>>>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let listener = FnListener(move |_: &mut Payload<'_>, e: &Event| {
        sink.lock().unwrap().push(e.clone());
    });
    (Arc::new(listener), events)
}

/// One instance: trace node-id path, events in order, fan-out child markers.
type InstanceShape = (Vec<u64>, Vec<String>, Vec<String>);

/// What one run raised, with everything a runtime is free to choose taken
/// out: per instance, the node-id path of its trace and its events in the
/// order they were raised; the instances as a sorted multiset (ids and
/// timestamps dropped). A fan-out's children run concurrently, so for
/// `map`/`fork`/`d&C` instances the per-child `NestedSkeleton` markers
/// are compared sorted by child, apart from the rest of the sequence.
fn per_instance(events: &[Event]) -> Vec<InstanceShape> {
    let mut instances: BTreeMap<u64, InstanceShape> = BTreeMap::new();
    for e in events {
        let path = e.trace.entries().iter().map(|t| t.node.0).collect();
        let (_, ordered, markers) = instances
            .entry(e.index.0)
            .or_insert_with(|| (path, Vec::new(), Vec::new()));
        let fans_out = matches!(
            e.kind,
            KindTag::Map | KindTag::Fork | KindTag::DivideConquer
        );
        if fans_out && e.wher == Where::NestedSkeleton {
            markers.push(format!("{:?} {:?}", e.info, e.when));
        } else {
            ordered.push(format!("{:?} {:?} {:?}", e.when, e.wher, e.info));
        }
    }
    let mut shape: Vec<_> = instances.into_values().collect();
    for (_, _, markers) in &mut shape {
        markers.sort();
    }
    shape.sort();
    shape
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    #[test]
    fn threaded_engine_agrees_with_reference(program in program_strategy(), input in -100i64..100) {
        let expected = program.skel.apply(input);
        let engine = Engine::new(2);
        let got = engine
            .submit(&program.skel, input)
            .get_timeout(Duration::from_secs(60))
            .expect("engine timed out")
            .expect("engine failed");
        engine.shutdown();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn simulator_agrees_with_reference(program in program_strategy(), input in -100i64..100) {
        let expected = program.skel.apply(input);
        let mut sim = SimEngine::new(2, Arc::new(ZeroCost));
        let got = sim.run(&program.skel, input).expect("sim failed");
        prop_assert_eq!(got.result, expected);
    }

    #[test]
    fn both_runtimes_raise_the_same_events_per_instance(
        program in program_strategy(),
        input in -100i64..100,
    ) {
        let (listener, threaded) = recorder();
        let engine = Engine::new(2);
        engine.registry().add_listener(listener);
        engine
            .submit(&program.skel, input)
            .get_timeout(Duration::from_secs(60))
            .expect("engine timed out")
            .expect("engine failed");
        engine.shutdown();

        let (listener, simulated) = recorder();
        let mut sim = SimEngine::new(2, Arc::new(ZeroCost));
        sim.registry().add_listener(listener);
        sim.run(&program.skel, input).expect("sim failed");

        let threaded = per_instance(&threaded.lock().unwrap());
        let simulated = per_instance(&simulated.lock().unwrap());
        prop_assert!(!threaded.is_empty());
        prop_assert_eq!(threaded, simulated);
    }

    #[test]
    fn simulator_result_is_lp_invariant(program in program_strategy(), input in -100i64..100) {
        // Functional result must not depend on the LP.
        let mut results = Vec::new();
        for lp in [1usize, 2, 7] {
            let mut sim = SimEngine::new(lp, Arc::new(ZeroCost));
            results.push(sim.run(&program.skel, input).expect("sim failed").result);
        }
        prop_assert_eq!(results[0], results[1]);
        prop_assert_eq!(results[1], results[2]);
    }
}
