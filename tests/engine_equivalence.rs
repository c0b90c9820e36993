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
    Adaptive, AdaptiveSession, Concern, FallbackSwap, Governed, Knob, Promote, RetuneWidth, Rule,
    RuleCtx, RuleFire, Trigger, TriggerEngine,
};
use askel_dist::sim_session;
use askel_engine::{Engine, StreamSession};
use askel_events::{Event, EventInfo, FnListener, Listener, Payload, StreamRuntime, When, Where};
use askel_sim::cost::{TableCost, ZeroCost};
use askel_sim::{SimEngine, SimStream};
use askel_skeletons::{map, pipe, seq, sfor, sif, KindTag, Skel, TimeNs};

// The differential tests' programs, covering all nine kinds.
#[allow(dead_code)]
#[path = "../crates/core/tests/streams/mod.rs"]
mod streams;

// Generated programs over all nine kinds.
#[allow(dead_code)]
mod programs;
use programs::program_strategy;

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

/// The engines' timestamp rule: an event raised with no muscle called
/// since the previous event of its step carries that event's timestamp —
/// one clock reading per muscle. A thread runs one step at a time, so "the
/// previous event of its step" is the event its thread raised last,
/// unless the event may begin a step: a muscle kind's `(Before,
/// Skeleton)`, a `while`'s next `(Before, Condition)`, a `(Before,
/// Merge)` — steps the runtime may have started anew, on any thread.
/// Returns how many events the rule bound.
fn one_timestamp_between_muscles(events: &[(ThreadId, Event)]) -> Result<usize, String> {
    let mut last: HashMap<ThreadId, &Event> = HashMap::new();
    let mut bound = 0;
    for (thread, event) in events {
        let follows_a_muscle = match (event.when, event.wher) {
            (When::After, Where::Skeleton) => event.kind == KindTag::Seq,
            (When::After, Where::Condition | Where::Split | Where::Merge) => true,
            _ => false,
        };
        let may_begin_a_step = match (event.when, event.wher) {
            (When::Before, Where::Skeleton | Where::Merge) => true,
            (When::Before, Where::Condition) => event.kind == KindTag::While,
            _ => false,
        };
        if !follows_a_muscle && !may_begin_a_step {
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
            bound += 1;
        }
        last.insert(*thread, event);
    }
    Ok(bound)
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
        let path = e.trace.entries().map(|t| t.node.0).collect();
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
        let bound = one_timestamp_between_muscles(&threaded);
        prop_assert_eq!(&bound, &one_timestamp_between_muscles(&simulated));
        prop_assert!(bound.is_ok(), "{:?}", bound);
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
        let session = sim_session(sim, &case.program, case.trigger.clone())
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

/// `poll_ready` counts every finished item at the head of the stream, so
/// a second poll with nothing collected in between counts the same
/// items again — on both runtimes, through the trait the adaptive
/// session polls.
#[test]
fn a_second_poll_counts_the_same_finished_head() {
    fn polls<S: StreamRuntime<In = i64, Out = i64>>(stream: &mut S) -> [usize; 2] {
        [stream.poll_ready(), stream.poll_ready()]
    }
    // Item 0 loops eight times; the others are one muscle each.
    let program = sif(
        |x: &i64| *x == 0,
        sfor(8, seq(|x: i64| x + 1)),
        seq(|x: i64| x + 1),
    );
    let expected = [8, 2, 3];

    let engine = Engine::new(2);
    let mut threads = StreamSession::new(&engine, &program);
    for x in 0..3 {
        StreamRuntime::feed(&mut threads, x);
    }
    engine.pool().wait_idle();
    assert_eq!(polls(&mut threads), [3, 3], "threads");
    let got: Vec<i64> = threads.drain().map(|r| r.unwrap()).collect();
    assert_eq!(got, expected);
    engine.shutdown();

    // Nothing runs on the simulator until a result is awaited: waiting
    // for the long item 0 finishes the two short ones behind it.
    let sim = SimEngine::new(3, Arc::new(TableCost::new(TimeNs::from_micros(1))));
    let mut simulated = SimStream::new(sim, &program);
    for x in 0..3 {
        simulated.feed(x);
    }
    assert_eq!(simulated.next_result().unwrap().unwrap(), expected[0]);
    assert_eq!(polls(&mut simulated), [2, 2], "simulator");
    let rest: Vec<i64> = std::iter::from_fn(|| simulated.next_result())
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(rest, expected[1..]);
}

/// A rule that never fires and declares no reads, so the trigger holding
/// it hears every event.
struct ReadsAll;

impl Rule for ReadsAll {
    fn evaluate(&mut self, _: &RuleCtx<'_>) -> Option<RuleFire> {
        None
    }
}

/// A trigger engine whose one rule reads every muscle, behind a listener
/// that counts the events it hands on and the spans among them.
struct Heard {
    trigger: Arc<TriggerEngine>,
    counts: Mutex<(usize, usize)>,
}

impl Heard {
    fn new() -> Arc<Heard> {
        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(Governed::new("reads-all", Concern::Performance, ReadsAll));
        let counts = Mutex::default();
        Arc::new(Heard { trigger, counts })
    }

    fn take(&self) -> (usize, usize) {
        std::mem::take(&mut *self.counts.lock().unwrap())
    }
}

impl Listener for Heard {
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        let mut counts = self.counts.lock().unwrap();
        counts.0 += 1;
        counts.1 += usize::from(matches!(event.info, EventInfo::Started(_)));
        self.trigger.on_event(payload, event);
    }

    fn interest(&self) -> askel_events::Interest {
        self.trigger.interest()
    }

    fn accepts_spans(&self) -> bool {
        self.trigger.accepts_spans()
    }

    fn reads(&self) -> askel_events::Reads {
        self.trigger.reads()
    }

    fn reads_version(&self) -> u64 {
        self.trigger.reads_version()
    }
}

/// Under a lone trigger reading everything, which accepts spans, both
/// runtimes raise every `seq` as one event: each item of each program
/// hands the trigger the same events, spans among them, on threads and on
/// the simulator. (Counted as heard: how much of the trigger's log a
/// full shard has folded away depends on which threads ran the item.)
#[test]
fn both_runtimes_form_the_same_spans_under_a_lone_trigger() {
    for (name, program, inputs) in streams::programs() {
        let engine = Engine::new(2);
        let heard = Heard::new();
        engine.registry().add_listener(heard.clone());
        let threads: Vec<_> = inputs
            .iter()
            .map(|&x| {
                assert_eq!(engine.submit(&program, x).get().unwrap(), program.apply(x));
                heard.take()
            })
            .collect();
        engine.shutdown();

        let mut sim = SimEngine::new(2, Arc::new(ZeroCost));
        let heard = Heard::new();
        sim.registry().add_listener(heard.clone());
        let simulated: Vec<_> = inputs
            .iter()
            .map(|&x| {
                assert_eq!(sim.run(&program, x).unwrap().result, program.apply(x));
                heard.take()
            })
            .collect();
        assert_eq!(threads, simulated, "{name}");
        assert!(threads.iter().all(|&(_, spans)| spans > 0), "{name}");
    }
}
