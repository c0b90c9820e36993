//! Randomly generated skeleton programs over `i64`, covering all nine
//! kinds, for the property tests that run them on both runtimes, and the
//! helpers those tests stream and listen to them with.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use askel_engine::{Engine, StreamSession};
use askel_events::{Event, Listener, Payload, Reads};
use askel_skeletons::{dac, fork, map, pipe, seq, sfor, sif, swhile, Skel};

/// Keeps the events it hears, reading what `reads` names.
pub struct Heard {
    reads: Reads,
    heard: Mutex<Vec<Event>>,
}

impl Heard {
    pub fn new(reads: Reads) -> Arc<Heard> {
        let heard = Mutex::default();
        Arc::new(Heard { reads, heard })
    }

    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.heard.lock().unwrap())
    }
}

impl Listener for Heard {
    fn on_event(&self, _: &mut Payload<'_>, event: &Event) {
        self.heard.lock().unwrap().push(event.clone());
    }

    fn reads(&self) -> Reads {
        self.reads.clone()
    }
}

/// `program`, followed by an identity stage that counts the items it
/// sees: what leaves the program leaves it exactly once if that count
/// equals the items fed.
pub fn counted(program: &Skel<i64, i64>) -> (Skel<i64, i64>, Arc<AtomicUsize>) {
    let seen = Arc::new(AtomicUsize::new(0));
    let tally = Arc::clone(&seen);
    let tail = seq(move |x: i64| {
        tally.fetch_add(1, Ordering::SeqCst);
        x
    });
    (pipe(program.clone(), tail), seen)
}

/// Streams `inputs` through `program` on `engine` and checks the results
/// are the reference's, in order, each item's exactly once.
pub fn streams_like_the_reference(
    engine: &Engine,
    program: &Skel<i64, i64>,
    inputs: &[i64],
) -> Result<(), TestCaseError> {
    let (wrapped, seen) = counted(program);
    let mut session = StreamSession::new(engine, &wrapped);
    for &x in inputs {
        session.feed(x);
    }
    let got: Vec<i64> = session.drain().map(|r| r.expect("item failed")).collect();
    let expected: Vec<i64> = inputs.iter().map(|&x| program.apply(x)).collect();
    prop_assert_eq!(got, expected);
    engine.pool().wait_idle();
    prop_assert_eq!(seen.load(Ordering::SeqCst), inputs.len());
    Ok(())
}

/// A generated program: the skeleton plus a description for shrinking
/// diagnostics.
#[derive(Clone)]
pub struct Program {
    pub skel: Skel<i64, i64>,
    pub desc: String,
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

pub fn program_strategy() -> impl Strategy<Value = Program> {
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
