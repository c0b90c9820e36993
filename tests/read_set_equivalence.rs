//! A trigger hears only what its live rules read: what its rules decide
//! from must be what hearing everything would have left.
//!
//! Each program of `streams/mod.rs` runs on the simulator under
//! `SeededRandom` at 1–4 workers twice with the same seed, through a
//! lock-step adaptive session: once under narrow rules — half the
//! program's muscles read by never-firing triggers, plus a forecast-gated
//! promotion that reads everything until it fires, leaving an audit open
//! — and once with one more rule, which reads everything. Both
//! knowledges must end with equal estimates on the narrow trigger's read
//! set and equal decision logs, forecast audits included, and both must
//! have heard the same root spans. On threads at 1–4 workers, a trigger
//! under the narrow rules alone ends with estimates of exactly the read
//! muscles that ran. Every filtered stream pairs each `Before` with its
//! `After`, and a long one keeps the state machines' records bounded.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use askel_adapt::{
    AdaptiveSession, Concern, Governed, Knob, Promote, Reads, RetuneGrain, Rule, RuleCtx, RuleFire,
    Trigger, TriggerEngine,
};
use askel_dist::sim_session;
use askel_engine::Engine;
use askel_events::{Event, EventInfo, Interest, Listener, Payload, When, Where};
use askel_sim::cost::{JitterCost, TableCost};
use askel_sim::sched::OrderingPolicy;
use askel_sim::SimEngine;
use askel_skeletons::{dac, farm, seq, KindTag, MuscleId, MuscleRole, Skel, TimeNs};

// The differential tests' programs, covering all nine kinds.
#[allow(dead_code)]
#[path = "../crates/core/tests/streams/mod.rs"]
mod streams;

/// A rule that never fires and declares no reads: it reads everything.
struct ReadsAll;

impl Rule for ReadsAll {
    fn evaluate(&mut self, _: &RuleCtx<'_>) -> Option<RuleFire> {
        None
    }
}

/// Hands every event on to its trigger, declaring what the trigger
/// declares, and keeps a copy.
struct Recorder {
    trigger: Arc<TriggerEngine>,
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    fn new(trigger: &Arc<TriggerEngine>) -> Arc<Recorder> {
        let trigger = Arc::clone(trigger);
        Arc::new(Recorder {
            trigger,
            events: Mutex::default(),
        })
    }

    fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }
}

impl Listener for Recorder {
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
        self.trigger.on_event(payload, event);
    }

    fn interest(&self) -> Interest {
        self.trigger.interest()
    }

    fn accepts_spans(&self) -> bool {
        self.trigger.accepts_spans()
    }

    fn reads(&self) -> Reads {
        self.trigger.reads()
    }

    fn reads_version(&self) -> u64 {
        self.trigger.reads_version()
    }
}

/// Every `Before` has exactly one matching `After` with the same
/// `(node, index, wher)`, raised after it; a span (a `seq`'s `After`
/// carrying its start) is a pair of its own.
fn assert_paired(events: &[Event], context: &str) {
    let mut open: HashMap<(u64, u64, Where), usize> = HashMap::new();
    for e in events {
        if matches!(e.info, EventInfo::Started(_)) {
            continue;
        }
        let key = (e.node.0, e.index.0, e.wher);
        match e.when {
            When::Before => *open.entry(key).or_insert(0) += 1,
            When::After => {
                let count = open.get_mut(&key);
                let count = count.unwrap_or_else(|| panic!("{context}: After alone: {e:?}"));
                assert!(*count > 0, "{context}: After with none open: {e:?}");
                *count -= 1;
            }
        }
    }
    for (key, count) in open {
        assert_eq!(count, 0, "{context}: unclosed Before for {key:?}");
    }
}

/// The muscles of `program`, each once, parents first.
fn muscles(program: &Skel<i64, i64>) -> Vec<MuscleId> {
    let mut out = Vec::new();
    for m in program.node().collect_muscles() {
        if !out.contains(&m.id) {
            out.push(m.id);
        }
    }
    out
}

/// Never-firing rules reading every other muscle of `program`, from the
/// `parity`-th: a grain rule pinned to its grain reads the first, a
/// width rule's triggers the rest.
fn narrow_rules(trigger: &TriggerEngine, program: &Skel<i64, i64>, parity: usize) -> Vec<MuscleId> {
    let read: Vec<MuscleId> = muscles(program)
        .into_iter()
        .skip(parity)
        .step_by(2)
        .collect();
    let Some((&first, rest)) = read.split_first() else {
        return read;
    };
    let grain = RetuneGrain::new(Knob::new("grain", 8), first, TimeNs::from_millis(10));
    trigger.add_rule(grain.bounds(8, 8));
    let mut width = Governed::new("watch", Concern::Performance, Watch);
    for &m in rest {
        width = width.when(match m.role {
            MuscleRole::Split | MuscleRole::Condition => Trigger::CardinalityAtLeast(m, f64::MAX),
            _ => Trigger::DurationAtLeast(m, TimeNs::MAX),
        });
    }
    trigger.add_rule(width);
    read
}

/// Proposes nothing: only its triggers read.
struct Watch;

impl Rule for Watch {
    fn evaluate(&mut self, _: &RuleCtx<'_>) -> Option<RuleFire> {
        None
    }

    fn reads(&self) -> Reads {
        Reads::NOTHING
    }
}

/// One simulated run: `program`'s inputs three times over at `lp`
/// workers under `seed`, through a lock-step session whose trigger holds
/// the narrow rules, the gated promotion into `promoted` and, if `all`, a
/// rule reading everything. Returns the trigger, what it heard and the
/// read set.
fn simulated(
    (program, promoted): (&Skel<i64, i64>, &Skel<i64, i64>),
    inputs: &[i64],
    lp: usize,
    seed: u64,
    parity: usize,
    all: bool,
) -> (Arc<TriggerEngine>, Vec<Event>, Vec<MuscleId>) {
    let cost = JitterCost::new(TableCost::new(TimeNs::from_millis(10)), 0.8, seed);
    let sim = SimEngine::new(lp, Arc::new(cost)).ordering(OrderingPolicy::SeededRandom(seed));
    let trigger = TriggerEngine::new(0.5);
    let read = narrow_rules(&trigger, program, parity);
    // Fires once every muscle has an estimate: a farm over the program
    // forecasts what the program does, so the gate at margin 0 opens.
    let promote = Promote::new(program, promoted)
        .when(Trigger::InputSizeAtLeast(0.0))
        .forecast_gated(0.0);
    trigger.add_rule(promote);
    if all {
        trigger.add_rule(Governed::new("reads-all", Concern::Performance, ReadsAll));
    }
    let recorder = Recorder::new(&trigger);
    sim.registry().add_listener(recorder.clone());
    let mut session = sim_session(sim, program, Arc::clone(&trigger)).input_size(|_| 1);
    let items: Vec<i64> = (0..3).flat_map(|_| inputs.iter().copied()).collect();
    let expected: Vec<i64> = items.iter().map(|&x| program.apply(x)).collect();
    let results: Vec<i64> = session
        .run_stream(items)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    assert_eq!(results, expected);
    (trigger, recorder.events(), read)
}

/// Each item's root span, as the root's events heard carry it.
fn root_spans(events: &[Event]) -> Vec<(When, u64, Option<TimeNs>)> {
    let roots = events
        .iter()
        .filter(|e| e.wher == Where::Skeleton && e.trace.parent().is_none());
    let started = |e: &Event| match e.info {
        EventInfo::Started(at) => Some(at),
        _ => None,
    };
    roots.map(|e| (e.when, e.timestamp.0, started(e))).collect()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig {
        cases: 48,
        ..Default::default()
    })]

    /// Narrow rules decide as rules hearing everything, on every program,
    /// width, read set and tie-breaking seed.
    #[test]
    fn narrow_rules_decide_as_rules_hearing_everything_on_the_simulator(
        stream in 0usize..1000,
        lp in 1usize..=4,
        parity in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let programs = streams::programs();
        let (name, program, inputs) = &programs[stream % programs.len()];
        let context = format!("{name} at {lp} workers, parity {parity}, seed {seed}");
        let promoted = farm(program.clone());
        let programs = (program, &promoted);
        let (narrow, heard, read) = simulated(programs, inputs, lp, seed, parity, false);
        let (whole, all, _) = simulated(programs, inputs, lp, seed, parity, true);
        assert_paired(&heard, &context);
        assert_paired(&all, &context);
        proptest::prop_assert!(heard.len() < all.len(), "{}: nothing left out", context);
        // The promotion fired, and its audit closed alike.
        let log = narrow.decision_log();
        proptest::prop_assert_eq!(&log, &whole.decision_log(), "{}", context);
        let audit = log.iter().find_map(|r| r.forecast);
        proptest::prop_assert!(audit.is_some_and(|f| f.realized.is_some()), "{}", context);
        // Every item's root was read: both heard the same spans.
        proptest::prop_assert_eq!(root_spans(&heard), root_spans(&all), "{}", context);
        // Once the audit closed, the narrow rules alone are read.
        let Reads::Only { muscles: now, root } = narrow.reads() else {
            panic!("{context}: reads everything");
        };
        proptest::prop_assert!(!root && now.iter().all(|m| read.contains(m)), "{}", context);
        let table = |t: &TriggerEngine, m: MuscleId| {
            t.knowledge()
                .read_estimates(|e| (e.duration(m), e.cardinality(m)))
        };
        for m in read {
            proptest::prop_assert_eq!(table(&narrow, m), table(&whole, m), "{}: {}", context, m);
        }
    }
}

#[test]
fn a_trigger_on_threads_estimates_exactly_the_read_muscles_that_ran() {
    for (name, program, inputs) in streams::programs() {
        for lp in 1..=4 {
            let context = format!("{name} at {lp} workers");
            let run = |all: bool| {
                let engine = Engine::new(lp);
                let trigger = TriggerEngine::new(0.5);
                let read = narrow_rules(&trigger, &program, lp % 2);
                if all {
                    trigger.add_rule(Governed::new("reads-all", Concern::Performance, ReadsAll));
                }
                let recorder = Recorder::new(&trigger);
                engine.registry().add_listener(recorder.clone());
                let mut session =
                    AdaptiveSession::new(&engine, &program, Arc::clone(&trigger)).max_in_flight(4);
                let items = (0..3).flat_map(|_| inputs.iter().copied());
                for (x, out) in items.clone().zip(session.run_stream(items.clone())) {
                    assert_eq!(out.unwrap(), program.apply(x), "{context}");
                }
                engine.shutdown();
                assert_paired(&recorder.events(), &context);
                (trigger, read)
            };
            let ((narrow, read), (whole, _)) = (run(false), run(true));
            let estimated = |t: &TriggerEngine, m: MuscleId| {
                t.knowledge()
                    .read_estimates(|e| (e.duration(m).is_some(), e.cardinality(m).is_some()))
            };
            for m in muscles(&program) {
                let (ran, counted) = estimated(&whole, m);
                let (duration, cardinality) = estimated(&narrow, m);
                let is_read = read.contains(&m);
                assert_eq!(duration, is_read && ran, "{context}: t({m})");
                // A d&C's recursion depth comes from its brackets, which a
                // read below it keeps: the one estimate beyond the reads.
                let depth = m.role == MuscleRole::Condition
                    && program
                        .node()
                        .find(m.node)
                        .is_some_and(|n| n.tag() == KindTag::DivideConquer);
                if is_read || !depth {
                    assert_eq!(cardinality, is_read && counted, "{context}: |{m}|");
                }
            }
        }
    }
}

#[test]
fn the_tracker_stays_bounded_under_a_filtered_stream() {
    const ITEMS: usize = 100_000;
    let leaf = seq(|mut v: Vec<i64>| {
        v.sort_unstable();
        v
    });
    let program = dac(
        |v: &Vec<i64>| v.len() > 2,
        |v: Vec<i64>| {
            let (a, b) = v.split_at(v.len() / 2);
            vec![a.to_vec(), b.to_vec()]
        },
        leaf.clone(),
        |parts: Vec<Vec<i64>>| {
            let mut out: Vec<i64> = parts.into_iter().flatten().collect();
            out.sort_unstable();
            out
        },
    );
    let engine = Engine::new(2);
    let trigger = TriggerEngine::new(0.5);
    let fe = MuscleId::new(leaf.id(), MuscleRole::Execute);
    // The leaf alone is read; pinned to its grain, the rule never fires.
    trigger.add_rule(RetuneGrain::new(Knob::new("grain", 2), fe, TimeNs(1)).bounds(2, 2));
    let recorder = Arc::new(Counted(Arc::clone(&trigger), Default::default()));
    engine.registry().add_listener(recorder.clone());
    let mut session =
        AdaptiveSession::new(&engine, &program, Arc::clone(&trigger)).max_in_flight(16);
    let input: Vec<i64> = (0..8).rev().collect();
    let sorted: Vec<i64> = (0..8).collect();
    for item in 0..ITEMS {
        session.feed(input.clone());
        while session.poll_ready() > 0 {
            assert_eq!(session.next_result().unwrap().unwrap(), sorted);
        }
        if item % 10_000 == 9_999 {
            let (instances, orphans, roots) = trigger.knowledge().with_tracker(|t| t.footprint());
            // The items in flight, a d&C of seven instances each.
            assert!(instances <= 17 * 7, "{instances} records at item {item}");
            assert_eq!(orphans, 0, "registered before the first item");
            assert!(roots <= 17, "{roots} roots at item {item}");
        }
    }
    for out in session.drain() {
        assert_eq!(out.unwrap(), sorted);
    }
    engine.shutdown();
    // Per item: the seven d&C instances' brackets and the four leaves'
    // spans; no condition, split or merge.
    let heard = recorder.1.lock().unwrap();
    assert_eq!(
        heard.get(&(KindTag::DivideConquer, Where::Skeleton)),
        Some(&(14 * ITEMS))
    );
    assert_eq!(
        heard.get(&(KindTag::Seq, Where::Skeleton)),
        Some(&(4 * ITEMS))
    );
    assert_eq!(heard.len(), 2, "{heard:?}");
    let d = trigger.knowledge().read_estimates(|e| e.duration(fe));
    assert!(d.is_some());
    let fc = MuscleId::new(program.id(), MuscleRole::Condition);
    assert_eq!(
        trigger.knowledge().read_estimates(|e| e.cardinality(fc)),
        Some(3.0)
    );
}

/// Hands events on to its trigger, declaring what the trigger declares,
/// and counts them by kind and position.
struct Counted(Arc<TriggerEngine>, Mutex<HashMap<(KindTag, Where), usize>>);

impl Listener for Counted {
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        *self
            .1
            .lock()
            .unwrap()
            .entry((event.kind, event.wher))
            .or_insert(0) += 1;
        self.0.on_event(payload, event);
    }

    fn interest(&self) -> Interest {
        self.0.interest()
    }

    fn accepts_spans(&self) -> bool {
        self.0.accepts_spans()
    }

    fn reads(&self) -> Reads {
        self.0.reads()
    }

    fn reads_version(&self) -> u64 {
        self.0.reads_version()
    }
}
