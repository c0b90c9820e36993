//! Property tests for the self-configuration runtime:
//!
//! * with every rule disabled (or none registered), an `AdaptiveSession`
//!   is behaviourally identical to a plain `StreamSession`;
//! * over random event interleavings, each rule fires **at most once per
//!   safe point** and once-rules never fire twice;
//! * rewrites are never observed mid-item: every item is processed
//!   entirely by one skeleton version, and the version sequence over the
//!   stream is monotone;
//! * on the discrete-event simulator, the same `(ordering seed, item
//!   trace)` replays the same results and the same decision log (virtual
//!   timestamps included), and *no* seed's schedule can make a rule fire
//!   twice at one safe point or a hysteresis-damped knob reverse inside
//!   its cooldown window.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use askel_adapt::{
    arbitrate, Adaptive, AdaptiveSession, Concern, ConflictPolicy, FallbackSwap, Hysteresis, Knob,
    PlannedRewrite, Promote, RetuneGrain, RewriteAction, Trigger, TriggerEngine,
};
use askel_engine::{Engine, StreamSession};
use askel_events::{Event, EventInfo, Listener, Payload, Trace, When, Where};
use askel_sim::cost::{LinearCost, PerMuscleCost, TableCost};
use askel_sim::{OrderingPolicy, SimEngine, SimStream};
use askel_skeletons::{map, seq, InstanceId, KindTag, MuscleId, MuscleRole, NodeId, Skel, TimeNs};

fn map_program() -> Skel<Vec<i64>, i64> {
    map(
        |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v[0] * 3),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    )
}

/// One synthetic observation a random interleaving can feed the trigger
/// engine between safe points.
#[derive(Clone, Debug)]
enum Obs {
    /// A full seq@b/seq@a pair with the given duration (ns).
    SeqSpan(u64),
    /// One item outcome.
    Outcome(bool),
    /// One input-size hint.
    InputSize(usize),
}

fn obs_strategy() -> impl Strategy<Value = Obs> {
    prop_oneof![
        (1u64..5_000_000).prop_map(Obs::SeqSpan),
        any::<bool>().prop_map(Obs::Outcome),
        (1usize..10_000).prop_map(Obs::InputSize),
    ]
}

fn seq_span_events(node: NodeId, inst: u64, start: TimeNs, dur: u64) -> [Event; 2] {
    let mk = |when, at| Event {
        node,
        kind: KindTag::Seq,
        when,
        wher: Where::Skeleton,
        index: InstanceId(inst),
        trace: Trace::root(node, InstanceId(inst), KindTag::Seq),
        timestamp: at,
        info: EventInfo::None,
    };
    [
        mk(When::Before, start),
        mk(When::After, start + TimeNs(dur)),
    ]
}

/// One synthetic rule fire for arbitration properties: which of a small
/// knob pool it sets, to what, under which concern/priority, veto or not.
#[derive(Clone, Debug)]
struct FireSpec {
    knob: usize,
    value: usize,
    concern: u8,
    priority: i32,
    veto: bool,
}

fn fire_strategy() -> impl Strategy<Value = FireSpec> {
    (0usize..3, 1usize..10, 0u8..3, -2i32..3, any::<bool>()).prop_map(
        |(knob, value, concern, priority, veto)| FireSpec {
            knob,
            value,
            concern,
            priority,
            veto,
        },
    )
}

/// Materializes the specs against a shared knob pool. Rule names are
/// unique per fire (position in the *spec* list, before any shuffle), so
/// the deterministic total order has no ties to hide behind.
fn plans_from(specs: &[FireSpec], knobs: &[Knob]) -> Vec<PlannedRewrite> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| PlannedRewrite {
            rule: format!("rule-{i}"),
            rule_index: i,
            action: RewriteAction::SetKnob {
                knob: knobs[s.knob].clone(),
                value: s.value,
            },
            why: "synthetic".to_string(),
            forecast: None,
            concern: match s.concern {
                0 => Concern::Performance,
                1 => Concern::Cost,
                _ => Concern::Reliability,
            },
            priority: s.priority,
            veto: s.veto,
        })
        .collect()
}

/// `(winners, suppressed as (loser, by), idle vetoes)` by rule name,
/// each sorted — the order-insensitive fingerprint of an outcome.
type OutcomeKey = (Vec<String>, Vec<(String, String)>, Vec<String>);

fn outcome_key(outcome: &askel_adapt::ArbitrationOutcome) -> OutcomeKey {
    let mut winners: Vec<String> = outcome.winners.iter().map(|p| p.rule.clone()).collect();
    let mut suppressed: Vec<(String, String)> = outcome
        .suppressed
        .iter()
        .map(|s| (s.plan.rule.clone(), s.by.clone()))
        .collect();
    let mut idle: Vec<String> = outcome.idle_vetoes.iter().map(|p| p.rule.clone()).collect();
    winners.sort();
    suppressed.sort();
    idle.sort();
    (winners, suppressed, idle)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn arbitration_is_invariant_under_registration_order(
        specs in proptest::collection::vec(fire_strategy(), 1..12),
        seed in any::<u64>(),
        policy_pick in 0usize..3,
    ) {
        // The `add_rule` contract: which fires win, lose, or idle
        // depends on (priority, concern, name, action) — never on the
        // order the rules were registered in, i.e. never on the order
        // the plans arrive in.
        let probe = seq(|x: i64| x);
        let knobs = [Knob::new("a", 1), Knob::new("b", 1), Knob::new("c", 1)];
        let policy = match policy_pick {
            0 => ConflictPolicy::PriorityWins,
            1 => ConflictPolicy::Veto,
            _ => ConflictPolicy::WeightedObjective {
                performance: 1.0,
                cost: 2.0,
                reliability: 3.0,
            },
        };
        let original = plans_from(&specs, &knobs);
        // A seeded Fisher–Yates permutation of the same fires.
        let mut shuffled = original.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let a = arbitrate(original, &policy, probe.node());
        let b = arbitrate(shuffled, &policy, probe.node());
        prop_assert_eq!(outcome_key(&a), outcome_key(&b));
    }

    #[test]
    fn at_most_one_action_wins_per_knob_and_winners_are_never_vetoes(
        specs in proptest::collection::vec(fire_strategy(), 1..12),
        veto_policy in any::<bool>(),
    ) {
        // Under priority-wins *and* veto arbitration, a safe point never
        // applies two actions to one knob, and a veto is never applied.
        let probe = seq(|x: i64| x);
        let knobs = [Knob::new("a", 1), Knob::new("b", 1), Knob::new("c", 1)];
        let policy = if veto_policy {
            ConflictPolicy::Veto
        } else {
            ConflictPolicy::PriorityWins
        };
        let n = specs.len();
        let outcome = arbitrate(plans_from(&specs, &knobs), &policy, probe.node());
        let mut per_knob = [0usize; 3];
        for w in &outcome.winners {
            prop_assert!(!w.veto, "a veto must never be applied: {:?}", w.rule);
            let RewriteAction::SetKnob { knob, .. } = &w.action else {
                panic!("this property only generates knob fires");
            };
            let slot = knobs
                .iter()
                .position(|k| k.shares_state(knob))
                .expect("knob from the pool");
            per_knob[slot] += 1;
        }
        for (slot, hits) in per_knob.iter().enumerate() {
            prop_assert!(
                *hits <= 1,
                "{hits} winning actions on knob {slot} in one safe point"
            );
        }
        // Conservation: every fire is accounted for exactly once.
        prop_assert_eq!(
            outcome.winners.len() + outcome.suppressed.len() + outcome.idle_vetoes.len(),
            n
        );
    }

    #[test]
    fn disabled_rules_are_byte_for_byte_equivalent(
        inputs in proptest::collection::vec(proptest::collection::vec(-50i64..50, 1..6), 1..24),
        bound in 1usize..6,
        disabled_not_empty in any::<bool>(),
    ) {
        let engine = Engine::new(2);
        let program = map_program();
        let trigger = TriggerEngine::new(0.5);
        if disabled_not_empty {
            // Rules present, but over a node the program does not
            // contain: neither can fire.
            let target = seq(|v: Vec<i64>| v[0]);
            trigger.add_rule(
                Promote::new(&target, &target).when(Trigger::InputSizeAtLeast(0.0)),
            );
            trigger.add_rule(FallbackSwap::new(&target, &target, 1));
        }
        let mut adaptive = AdaptiveSession::new(&engine, &program, Arc::clone(&trigger))
            .max_in_flight(bound)
            .input_size(|v: &Vec<i64>| v.len());
        let mut plain = StreamSession::new(&engine, &program).max_in_flight(bound);
        for input in &inputs {
            adaptive.feed(input.clone());
            plain.feed(input.clone());
        }
        let a: Vec<i64> = adaptive.drain().map(|r| r.unwrap()).collect();
        let p: Vec<i64> = plain.drain().map(|r| r.unwrap()).collect();
        engine.shutdown();
        prop_assert_eq!(&a, &p);
        prop_assert!(trigger.decision_log().is_empty(), "nothing may fire");
    }

    #[test]
    fn rules_fire_at_most_once_per_safe_point_over_random_interleavings(
        script in proptest::collection::vec(
            (proptest::collection::vec(obs_strategy(), 0..6), any::<bool>()),
            1..16,
        ),
        duration_threshold_ms in 1u64..3,
        streak in 1usize..3,
    ) {
        // A probe skeleton whose seq node the synthetic events target.
        let probe = seq(|x: i64| x);
        let replacement = seq(|x: i64| x);
        let node = probe.id();
        let fe = askel_skeletons::MuscleId::new(node, askel_skeletons::MuscleRole::Execute);

        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(
            Promote::new(&probe, &replacement)
                .named("hot-promote")
                .when(Trigger::DurationAtLeast(fe, TimeNs::from_millis(duration_threshold_ms))),
        );
        trigger.add_rule(FallbackSwap::new(&probe, &replacement, streak));

        let root = Arc::clone(probe.node());
        let mut inst = 0u64;
        let mut now = TimeNs::ZERO;
        let mut fired_per_rule = std::collections::HashMap::<String, usize>::new();
        for (observations, do_safe_point) in script {
            for obs in observations {
                match obs {
                    Obs::SeqSpan(dur) => {
                        inst += 1;
                        for e in seq_span_events(node, inst, now, dur) {
                            trigger.on_event(&mut Payload::None, &e);
                        }
                        now += TimeNs(dur);
                    }
                    Obs::Outcome(ok) => trigger.record_outcome(ok),
                    Obs::InputSize(n) => trigger.observe_input_size(n),
                }
            }
            if do_safe_point {
                let plans = trigger.plan(&root, 2);
                let mut this_point = std::collections::HashMap::<String, usize>::new();
                for p in &plans {
                    *this_point.entry(p.rule.clone()).or_insert(0) += 1;
                    *fired_per_rule.entry(p.rule.clone()).or_insert(0) += 1;
                }
                for (rule, n) in &this_point {
                    prop_assert_eq!(*n, 1usize, "rule {} fired {} times in one safe point", rule, n);
                }
            }
        }
        // Both are once-rules: across the whole interleaving each fires at most once.
        for (rule, n) in &fired_per_rule {
            prop_assert!(*n <= 1, "once-rule {} fired {} times", rule, n);
        }
    }

    #[test]
    fn hysteresis_knobs_never_reverse_within_the_cooldown(
        durations_ms in proptest::collection::vec(1u64..40, 8..60),
        cooldown in 2usize..6,
        dead_band_pct in 0u32..30,
    ) {
        // An arbitrary load trace drives a grain rule directly (estimator
        // overridden per safe point). Invariants, whatever the trace:
        // consecutive knob moves in opposite directions are separated by
        // at least the cooldown, and the value sequence has bounded
        // variation — no A→B→A flap inside one cooldown window.
        let probe = seq(|x: i64| x);
        let leaf = MuscleId::new(probe.id(), MuscleRole::Execute);
        let knob = Knob::new("grain", 64);
        let trigger = TriggerEngine::new(0.5);
        trigger.add_rule(
            RetuneGrain::new(knob.clone(), leaf, TimeNs::from_millis(10))
                .bounds(1, 1 << 20)
                .hysteresis(Hysteresis::new(cooldown, dead_band_pct as f64 / 100.0)),
        );
        let root = Arc::clone(probe.node());
        // (safe_point, old_value, new_value) per applied move.
        let mut fires: Vec<(usize, usize, usize)> = Vec::new();
        for (i, ms) in durations_ms.iter().enumerate() {
            trigger.knowledge().with_estimates(|est| est.init_duration(leaf, TimeNs::from_millis(*ms)));
            for plan in trigger.plan(&root, 2) {
                let RewriteAction::SetKnob { knob, value } = plan.action else {
                    panic!("a grain rule only sets knobs");
                };
                let old = knob.get();
                knob.set(value);
                fires.push((i + 1, old, value));
            }
        }
        let mut reversals = 0usize;
        for w in fires.windows(2) {
            let (sp1, old1, new1) = w[0];
            let (sp2, old2, new2) = w[1];
            prop_assert!(new1 == old2, "moves chain through the knob value");
            let d1 = (new1 as i64 - old1 as i64).signum();
            let d2 = (new2 as i64 - old2 as i64).signum();
            if d1 != d2 {
                reversals += 1;
                prop_assert!(
                    sp2 - sp1 >= cooldown,
                    "reversal {old2}->{new2} at safe point {sp2} only {} points after \
                     {old1}->{new1} at {sp1} (cooldown {cooldown})",
                    sp2 - sp1
                );
                // No A→B→A flap within the window: returning to the
                // previous value is a reversal, so it obeys the bound.
                if new2 == old1 {
                    prop_assert!(sp2 - sp1 >= cooldown);
                }
            }
        }
        // Bounded variation: at most one direction change per window.
        prop_assert!(
            reversals <= 1 + durations_ms.len() / cooldown,
            "{reversals} reversals over {} safe points with cooldown {cooldown}",
            durations_ms.len()
        );
    }

    #[test]
    fn rewrites_are_never_observed_mid_item(
        sizes in proptest::collection::vec(1usize..40, 4..24),
        threshold in 5usize..20,
    ) {
        // v1 tags results with version 1, v2 with version 2; a mixed tag
        // within one item is impossible by construction, but a *stale*
        // version after the swap (or an early version before it) would
        // show up as a non-monotone tag sequence.
        let v1: Skel<Vec<i64>, (u64, i64)> = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| (1u64, v[0])),
            |parts: Vec<(u64, i64)>| {
                let version = parts[0].0;
                assert!(parts.iter().all(|(v, _)| *v == version), "mixed versions in one item");
                (version, parts.into_iter().map(|(_, x)| x).sum::<i64>())
            },
        );
        let v2: Skel<Vec<i64>, (u64, i64)> = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| (2u64, v[0])),
            |parts: Vec<(u64, i64)>| {
                (2u64, parts.into_iter().map(|(_, x)| x).sum::<i64>())
            },
        );
        let engine = Engine::new(2);
        let trigger = TriggerEngine::new(1.0); // EWMA = last hint: deterministic firing
        trigger.add_rule(
            Promote::new(&v1, &v2).when(Trigger::InputSizeAtLeast(threshold as f64)),
        );
        let mut stream = AdaptiveSession::new(&engine, &v1, trigger)
            .input_size(|v: &Vec<i64>| v.len());
        for size in &sizes {
            stream.feed((0..*size as i64).collect());
        }
        let tags: Vec<u64> = stream.drain().map(|r| r.unwrap().0).collect();
        engine.shutdown();
        // Monotone: a (possibly empty) run of v1 items, then v2 forever.
        let first_v2 = tags.iter().position(|t| *t == 2).unwrap_or(tags.len());
        prop_assert!(tags[..first_v2].iter().all(|t| *t == 1), "{:?}", tags);
        prop_assert!(tags[first_v2..].iter().all(|t| *t == 2), "{:?}", tags);
        // The swap fires at the safe point of the first item whose size
        // hint reaches the threshold (ρ=1), so that item runs on v2.
        let expected_first_v2 = sizes.iter().position(|s| *s >= threshold).unwrap_or(sizes.len());
        prop_assert_eq!(first_v2, expected_first_v2);
    }
}

/// Everything one seeded adaptive stream over the simulator observed.
struct SimRun {
    /// `(at, version, rule)` for every `AdaptRecord`, in log order.
    decisions: Vec<(TimeNs, u64, String)>,
    outputs: Vec<i64>,
    /// The grain knob's value at each item's submission safe point.
    knob_trace: Vec<usize>,
    final_version: u64,
}

/// One adaptive stream over the simulator: a two-chunk fan-out whose leaf
/// cost scales with chunk size (so the grain EWMA tracks the item-size
/// trace), a hysteresis-damped grain rule, and a size-gated promotion to
/// a single-chunk variant. Every decision path of the stack is live.
fn sim_session_run(
    policy: OrderingPolicy,
    sizes: &[usize],
    threshold: usize,
    cooldown: usize,
) -> SimRun {
    let halves: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| {
            let mid = (v.len() / 2).max(1).min(v.len());
            let (a, b) = v.split_at(mid);
            vec![a.to_vec(), b.to_vec()]
        },
        seq(|chunk: Vec<i64>| chunk.iter().map(|x| x * 3).sum::<i64>()),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let collapsed: Skel<Vec<i64>, i64> = map(
        |v: Vec<i64>| vec![v],
        seq(|chunk: Vec<i64>| chunk.iter().map(|x| x * 3).sum::<i64>()),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    let leaf = MuscleId::new(halves.node().children()[0].id, MuscleRole::Execute);
    let cost = PerMuscleCost::new(Arc::new(TableCost::new(TimeNs::from_millis(1)))).route(
        leaf,
        Arc::new(
            LinearCost::new(TimeNs::ZERO, TimeNs::from_millis(2))
                .with_probe(|p| p.downcast_ref::<Vec<i64>>().map(Vec::len)),
        ),
    );
    let sim = SimEngine::new(2, Arc::new(cost)).ordering(policy);

    let knob = Knob::new("grain", 16);
    let trigger = TriggerEngine::new(0.5);
    sim.registry().add_listener(trigger.clone());
    trigger.add_rule(
        RetuneGrain::new(knob.clone(), leaf, TimeNs::from_millis(8))
            .bounds(1, 1 << 16)
            .hysteresis(Hysteresis::new(cooldown, 0.1)),
    );
    trigger.add_rule(
        Promote::new(&halves, &collapsed)
            .named("collapse")
            .when(Trigger::InputSizeAtLeast(threshold as f64)),
    );

    // The size probe runs at each item's submission safe point (before
    // the rewrite applies), so consecutive trace entries bracket exactly
    // one safe point — item distance = safe-point distance.
    let knob_trace = Arc::new(Mutex::new(Vec::new()));
    let probe = Arc::clone(&knob_trace);
    let watched = knob.clone();
    // Lock-step on virtual time, as `askel_dist::sim_session` builds it.
    let mut session = Adaptive::over(SimStream::new(sim, &halves), trigger.clone())
        .max_in_flight(1)
        .input_size(move |v: &Vec<i64>| {
            probe.lock().unwrap().push(watched.get());
            v.len()
        });
    let items: Vec<Vec<i64>> = sizes.iter().map(|s| (0..*s as i64).collect()).collect();
    let outputs = session
        .run_stream(items)
        .into_iter()
        .map(|r| r.expect("no failure injected"))
        .collect();
    let trace = knob_trace.lock().unwrap().clone();
    SimRun {
        decisions: trigger
            .decision_log()
            .into_iter()
            .map(|d| (d.at, d.version, d.rule))
            .collect(),
        outputs,
        knob_trace: trace,
        final_version: session.version(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    #[test]
    fn sim_session_replays_identically_per_seed(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(1usize..24, 4..16),
        threshold in 4usize..20,
    ) {
        // Same (seed, trace) ⇒ same results AND the same AdaptRecord
        // sequence, virtual timestamps included.
        let policy = OrderingPolicy::SeededRandom(seed);
        let a = sim_session_run(policy, &sizes, threshold, 3);
        let b = sim_session_run(policy, &sizes, threshold, 3);
        prop_assert_eq!(&a.outputs, &b.outputs, "seed {}", seed);
        prop_assert_eq!(&a.decisions, &b.decisions, "seed {}", seed);
        prop_assert_eq!(&a.knob_trace, &b.knob_trace, "seed {}", seed);
        prop_assert_eq!(a.final_version, b.final_version, "seed {}", seed);
        // And whatever the schedule did, results equal the reference.
        for (k, size) in sizes.iter().enumerate() {
            let expected: i64 = (0..*size as i64).map(|x| x * 3).sum();
            prop_assert_eq!(a.outputs[k], expected, "item {} under seed {}", k, seed);
        }
    }

    #[test]
    fn no_seed_breaks_safe_point_or_hysteresis_invariants(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(1usize..32, 8..24),
        cooldown in 2usize..5,
    ) {
        // Threshold above every size: the promotion stays armed (its
        // trigger evaluates each safe point) but the grain rule does the
        // moving — the hysteresis invariant gets a real workout.
        let run = sim_session_run(OrderingPolicy::SeededRandom(seed), &sizes, 64, cooldown);

        // At most one fire per rule per safe point: the decision log
        // grouped by virtual timestamp has no duplicate rule names.
        let mut by_at: Vec<(TimeNs, Vec<&str>)> = Vec::new();
        for (at, _, rule) in &run.decisions {
            match by_at.last_mut() {
                Some((t, rules)) if t == at => rules.push(rule),
                _ => by_at.push((*at, vec![rule])),
            }
        }
        for (at, rules) in &by_at {
            let mut uniq = rules.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(
                uniq.len(),
                rules.len(),
                "rule fired twice at safe point {} under seed {}: {:?}",
                at,
                seed,
                rules
            );
        }

        // The hysteresis-damped knob never reverses direction within the
        // cooldown window (consecutive trace entries bracket exactly one
        // safe point, so trace distance = safe-point distance).
        let mut prev: Option<(usize, i64)> = None;
        for (k, w) in run.knob_trace.windows(2).enumerate() {
            let dir = (w[1] as i64 - w[0] as i64).signum();
            if dir == 0 {
                continue;
            }
            if let Some((last_k, last_dir)) = prev {
                if dir != last_dir {
                    prop_assert!(
                        k - last_k >= cooldown,
                        "knob reversed after {} safe points (cooldown {}) under seed {}: {:?}",
                        k - last_k,
                        cooldown,
                        seed,
                        run.knob_trace
                    );
                }
            }
            prev = Some((k, dir));
        }
    }
}
