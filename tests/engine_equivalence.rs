//! Property tests: the threaded engine, the simulator and the sequential
//! reference interpreter must agree on every program — for randomly
//! generated skeleton ASTs over `i64` — and the one adaptive session must
//! decide the same things whichever of the two runtimes executes it.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use proptest::prelude::*;

use askel_adapt::{
    Adaptive, AdaptiveSession, AdaptiveSimSession, FallbackSwap, Knob, Promote, RetuneWidth,
    Trigger, TriggerEngine,
};
use askel_engine::Engine;
use askel_events::{Event, FnListener, Listener, Payload, StreamRuntime, Where};
use askel_sim::cost::{TableCost, ZeroCost};
use askel_sim::SimEngine;
use askel_skeletons::{dac, fork, map, pipe, seq, sfor, sif, swhile, KindTag, Skel, TimeNs};

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

/// What a [`recorder`] keeps: every event, with the thread that raised it.
type Recording = Arc<Mutex<Vec<(ThreadId, Event)>>>;

/// A listener that keeps every event it is handed.
fn recorder() -> (Arc<dyn Listener>, Recording) {
    let events = Recording::default();
    let sink = Arc::clone(&events);
    let listener = FnListener(move |_: &mut Payload<'_>, e: &Event| {
        let raised = (std::thread::current().id(), e.clone());
        sink.lock().unwrap().push(raised);
    });
    (Arc::new(listener), events)
}

/// The engines' timestamp rule: a nesting marker is raised in the same
/// step as, and right after, the event that caused it, and carries that
/// event's timestamp. A thread runs one step at a time and no step
/// begins with a marker, so "the event before it in its step" is the
/// event its thread raised last. Returns how many markers were checked.
fn markers_carry_their_predecessors_timestamp(
    events: &[(ThreadId, Event)],
) -> Result<usize, String> {
    let mut last: HashMap<ThreadId, &Event> = HashMap::new();
    let mut markers = 0;
    for (thread, event) in events {
        if event.wher == Where::NestedSkeleton {
            let Some(previous) = last.get(thread) else {
                return Err(format!(
                    "{} begins a thread's events",
                    event.paper_notation()
                ));
            };
            if previous.timestamp != event.timestamp {
                return Err(format!(
                    "{} at {} follows {} at {}",
                    event.paper_notation(),
                    event.timestamp,
                    previous.paper_notation(),
                    previous.timestamp
                ));
            }
            markers += 1;
        }
        last.insert(*thread, event);
    }
    Ok(markers)
}

/// One instance: trace node-id path, events in order, fan-out child markers.
type InstanceShape = (Vec<u64>, Vec<String>, Vec<String>);

/// What one run raised, with everything a runtime is free to choose taken
/// out: per instance, the node-id path of its trace and its events in the
/// order they were raised; the instances as a sorted multiset (ids and
/// timestamps dropped). A fan-out's children run concurrently, so for
/// `map`/`fork`/`d&C` instances the per-child `NestedSkeleton` markers
/// are compared sorted by child, apart from the rest of the sequence.
fn per_instance(events: &[(ThreadId, Event)]) -> Vec<InstanceShape> {
    let mut instances: BTreeMap<u64, InstanceShape> = BTreeMap::new();
    for (_, e) in events {
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

/// The adaptive word-count shape in miniature: a fragile filter stage a
/// fallback-swap can replace, a counting stage a size-gated promotion
/// can fan out, and a width knob retuned to the LP. None of the rules
/// reads a clock or an event-derived estimate, so what they decide is a
/// function of the item trace alone.
struct AdaptiveCase {
    program: Skel<Vec<i64>, i64>,
    trigger: Arc<TriggerEngine>,
}

const POISON: i64 = -1;

impl AdaptiveCase {
    fn new() -> Self {
        let fragile = seq(|v: Vec<i64>| {
            assert!(!v.contains(&POISON), "fragile filter rejects poison");
            v
        });
        let robust = seq(|v: Vec<i64>| v.into_iter().filter(|x| *x != POISON).collect::<Vec<_>>());
        let count = seq(|v: Vec<i64>| v.iter().sum::<i64>());
        let width = Knob::new("width", 1);
        let w = width.clone();
        let parallel = map(
            move |v: Vec<i64>| {
                let per = v.len().div_ceil(w.get().max(1)).max(1);
                v.chunks(per).map(<[i64]>::to_vec).collect::<Vec<_>>()
            },
            seq(|v: Vec<i64>| v.iter().sum::<i64>()),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let trigger = TriggerEngine::new(1.0); // ρ=1: the size EWMA is the last hint
        trigger.add_rule(FallbackSwap::new(&fragile, &robust, 2).named("swap-filter"));
        trigger.add_rule(
            Promote::new(&count, &parallel)
                .named("promote-count")
                .when(Trigger::InputSizeAtLeast(8.0)),
        );
        trigger.add_rule(RetuneWidth::new(width, 2).bounds(1, 16));
        AdaptiveCase {
            program: pipe(fragile, count),
            trigger,
        }
    }

    /// Feeds `items` in lock-step through `session` — the same calls on
    /// either instantiation — and returns each item's outcome plus the
    /// `(version, rule)` sequence of the decision log.
    fn drive<S>(
        &self,
        mut session: Adaptive<S>,
        items: &[Vec<i64>],
    ) -> (Vec<Option<i64>>, Vec<(u64, String)>)
    where
        S: StreamRuntime<In = Vec<i64>, Out = i64>,
    {
        let outcomes = items
            .iter()
            .map(|item| {
                session.feed(item.clone());
                session.next_result().expect("one item in flight").ok()
            })
            .collect();
        let decisions = self.trigger.decision_log();
        (
            outcomes,
            decisions.into_iter().map(|d| (d.version, d.rule)).collect(),
        )
    }
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

        // Muscles that take virtual time, so that equal timestamps mean
        // something on the simulator too.
        let (listener, simulated) = recorder();
        let mut sim = SimEngine::new(2, Arc::new(TableCost::new(TimeNs::from_micros(3))));
        sim.registry().add_listener(listener);
        sim.run(&program.skel, input).expect("sim failed");

        let (threaded, simulated) = (threaded.lock().unwrap(), simulated.lock().unwrap());
        let markers = markers_carry_their_predecessors_timestamp(&threaded);
        prop_assert_eq!(&markers, &markers_carry_their_predecessors_timestamp(&simulated));
        prop_assert!(markers.is_ok(), "{:?}", markers);
        let threaded = per_instance(&threaded);
        let simulated = per_instance(&simulated);
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

    #[test]
    fn adaptive_session_decides_alike_on_both_runtimes(
        sizes in proptest::collection::vec(1usize..16, 4..20),
        poisoned in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let items: Vec<Vec<i64>> = sizes
            .iter()
            .zip(&poisoned)
            .map(|(&n, &bad)| {
                let mut item: Vec<i64> = (0..n as i64).collect();
                if bad {
                    item[0] = POISON;
                }
                item
            })
            .collect();

        let case = AdaptiveCase::new();
        let engine = Engine::new(2);
        let session = AdaptiveSession::new(&engine, &case.program, case.trigger.clone())
            .input_size(|v: &Vec<i64>| v.len());
        let threaded = case.drive(session, &items);
        engine.shutdown();

        let case = AdaptiveCase::new();
        let sim = SimEngine::new(2, Arc::new(ZeroCost));
        let session = AdaptiveSimSession::new(sim, &case.program, case.trigger.clone())
            .lp_source(|| 2)
            .input_size(|v: &Vec<i64>| v.len());
        let simulated = case.drive(session, &items);

        prop_assert!(!threaded.1.is_empty(), "the width retune always fires");
        prop_assert_eq!(&threaded, &simulated);
        // And both agree with the reference wherever the item succeeded.
        for (item, outcome) in items.iter().zip(&threaded.0) {
            if let Some(sum) = outcome {
                let expected: i64 = item.iter().filter(|x| **x != POISON).sum();
                prop_assert_eq!(*sum, expected);
            }
        }
    }
}
