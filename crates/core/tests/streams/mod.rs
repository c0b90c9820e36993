//! Recorded event streams shared by the differential tests: programs
//! covering all nine skeleton kinds, run on the simulator under
//! `SeededRandom` so that a fan's children begin in no particular order,
//! several submissions per stream so that duration and cardinality
//! estimates move while instances are live (each map's fan-out follows
//! its input), and from cold estimators.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use askel_events::{Event, FnListener, Payload, When, Where};
use askel_sim::cost::{JitterCost, TableCost};
use askel_sim::sched::OrderingPolicy;
use askel_sim::SimEngine;
use askel_skeletons::{
    dac, farm, fork, map, pipe, seq, sfor, sif, swhile, InstanceId, KindTag, Skel, TimeNs,
};

fn sum(parts: Vec<i64>) -> i64 {
    parts.iter().sum()
}

/// A map whose fan-out follows its input: `2 + x mod 4` sub-problems.
fn uneven_map(inner: Skel<i64, i64>) -> Skel<i64, i64> {
    map(
        |x: i64| (0..2 + x.rem_euclid(4)).map(|k| x + k).collect::<Vec<_>>(),
        inner,
        sum,
    )
}

/// Named programs, each with the inputs one stream submits in turn.
pub fn programs() -> Vec<(&'static str, Skel<i64, i64>, Vec<i64>)> {
    let leafy = || pipe(seq(|x: i64| x + 1), farm(seq(|x: i64| x * 3 % 101)));
    let halving = || {
        dac(
            |x: &i64| *x > 6,
            |x: i64| vec![x / 2, x - x / 2],
            uneven_map(seq(|x: i64| x + 1)),
            sum,
        )
    };
    let three_way = || {
        fork(
            |x: i64| vec![x, x + 1, x + 2],
            vec![
                seq(|x: i64| x * 2),
                leafy(),
                uneven_map(seq(|x: i64| x - 1)),
            ],
            sum,
        )
    };
    vec![
        (
            "for(map(pipe(seq, farm(seq))))",
            sfor(3, pipe(uneven_map(leafy()), seq(|x: i64| x % 50))),
            vec![3, 10, 5],
        ),
        (
            "while(map(seq))",
            swhile(
                |x: &i64| *x < 90,
                map(|x: i64| vec![x, x + 1, x + 2], seq(|x: i64| x / 2 + 4), sum),
            ),
            vec![1, 40, 7],
        ),
        (
            "if(fork, seq)",
            sif(|x: &i64| x % 2 == 0, three_way(), seq(|x: i64| x + 100)),
            vec![4, 7, 10, 2],
        ),
        ("d&C(map(seq))", halving(), vec![40, 9, 57, 3]),
        (
            // Two branches are one node: their records are told apart
            // only by which was matched first.
            "fork(a, a, b, c)",
            {
                let twice = seq(|x: i64| x + 7);
                fork(
                    |x: i64| vec![x, x + 1, x + 2, x + 3],
                    vec![twice.clone(), twice, leafy(), seq(|x: i64| x * 5)],
                    sum,
                )
            },
            vec![1, 2, 3],
        ),
        (
            "map(if(while, d&C))",
            uneven_map(sif(
                |x: &i64| x % 3 == 0,
                swhile(|x: &i64| *x < 30, seq(|x: i64| x + 11)),
                pipe(seq(|x: i64| x.rem_euclid(30)), halving()),
            )),
            vec![6, 13, 21],
        ),
    ]
}

/// Every event of `inputs` run one after the other at `lp` workers, ties
/// broken by `seed`.
pub fn record(program: &Skel<i64, i64>, inputs: &[i64], lp: usize, seed: u64) -> Vec<Event> {
    let cost = JitterCost::new(TableCost::new(TimeNs::from_millis(10)), 0.8, seed);
    let mut sim = SimEngine::new(lp, Arc::new(cost)).ordering(OrderingPolicy::SeededRandom(seed));
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    sim.registry().add_listener(Arc::new(FnListener(
        move |_: &mut Payload<'_>, e: &Event| {
            sink.lock().unwrap().push(e.clone());
        },
    )));
    for &input in inputs {
        let expected = program.apply(input);
        assert_eq!(sim.run(program, input).unwrap().result, expected);
    }
    let events = events.lock().unwrap();
    events.clone()
}

/// `events` with some lost, as a filter upstream of the tracker might lose
/// them: one fan child in four never begins (so neither does anything
/// under it) and one `seq` in seven never ends. Only fans match child
/// records by node rather than by position, so only their children can
/// go missing without the rest being taken for somebody else.
pub fn with_losses(events: &[Event], seed: u64) -> Vec<Event> {
    let begins = |e: &&Event| (e.when, e.wher) == (When::Before, Where::Skeleton);
    let kind_of: HashMap<InstanceId, KindTag> = events
        .iter()
        .filter(begins)
        .map(|e| (e.index, e.kind))
        .collect();
    events
        .iter()
        .filter(|e| {
            let parent = e.trace.parent().and_then(|p| kind_of.get(&p.instance));
            let under_a_fan = matches!(
                parent,
                Some(KindTag::Map | KindTag::Fork | KindTag::DivideConquer)
            );
            let never_begins = under_a_fan && (e.index.0 + seed).is_multiple_of(4);
            let never_ends = e.kind == KindTag::Seq
                && (e.index.0 + seed).is_multiple_of(7)
                && (e.when, e.wher) == (When::After, Where::Skeleton);
            !never_begins && !never_ends
        })
        .cloned()
        .collect()
}
