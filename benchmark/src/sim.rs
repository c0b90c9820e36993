//! `sim_goal`: no threads, virtual time. The paper's §5 goal scenario,
//! scaled up so controller analysis is the cost (both passes), and a
//! stream of one-task items over a 1000-node simulated cluster (layer
//! pass).

use std::sync::Arc;

use askel_bench::{PaperScenarios, ScenarioParams};
use askel_dist::{Cluster, NodeSpec};
use askel_sim::cost::TableCost;
use askel_sim::SimEngine;
use askel_skeletons::{seq, Skel, TimeNs};

use crate::host::{Laps, Probe};
use crate::report::{complain, Report, Scale};
use crate::spans::{Spans, NO_PARENT};
use crate::util::{median, now_ns, percentile, SplitMix64};

const NODES: usize = 1000;
const SLOTS_PER_NODE: usize = 4;
const GOAL: TimeNs = TimeNs(30_000_000_000);
const OUTER: usize = 20;
const INNER: usize = 28;
const LEAVES: u64 = (OUTER * INNER) as u64;
/// The layer pass streams this many items once, as `sim_sched.rs` does.
const STREAM_ITEMS: usize = 1_000_000;

/// Seeded variants of the scenario that the e2e pass cycles through.
/// The corpus and the cost jitter both follow the seed, and the jitter
/// steers the controller down different decision paths whose analysis
/// cost differs by ~10 %: three variants per run keep that from reading
/// as run-to-run noise.
const VARIANTS: u64 = 3;

/// The §5 testbed at `outer 20 × inner 28` over 20 000 tweets: 560
/// leaves, so every `After` event's ADG re-analysis is expensive.
fn testbed(scale: Scale, variant: u64) -> PaperScenarios {
    let mut rng = SplitMix64::new(scale.seed.wrapping_add(variant));
    PaperScenarios::new(ScenarioParams {
        outer_chunks: OUTER,
        inner_chunks: INNER,
        tweets: scale.size(20_000),
        seed: rng.next_u64(),
        ..Default::default()
    })
}

fn cluster() -> SimEngine {
    let nodes = (0..NODES)
        .map(|k| NodeSpec::local(format!("n{k}"), SLOTS_PER_NODE))
        .collect();
    SimEngine::with_workers(
        Box::new(Cluster::new(nodes)),
        Arc::new(TableCost::new(TimeNs::from_millis(1))),
    )
}

/// What must repeat exactly from one scenario run to the next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    wct: TimeNs,
    decisions: usize,
    analyses: usize,
    distinct_tokens: usize,
}

/// One goal scenario; wall ns and fingerprint. (`PaperScenarios::run`
/// itself asserts the word count equals the sequential count.)
fn scenario(bed: &PaperScenarios) -> (u64, Fingerprint) {
    let started = now_ns();
    let out = bed.run(GOAL, None);
    let wall = now_ns() - started;
    let print = Fingerprint {
        wct: out.wct,
        decisions: out.decisions.len(),
        analyses: out.analysis_log.len(),
        distinct_tokens: out.distinct_tokens,
    };
    (wall, print)
}

/// Streams `items` seeded one-task items through a fresh 1000-node
/// cluster: `(wall ns, scheduler events, failed)`. Every result is
/// compared with `Skel::apply` on the same input.
fn stream(items: usize, rng: &mut SplitMix64) -> (u64, u64, u64) {
    let program: Skel<u64, u64> = seq(|x: u64| x.rotate_left(7) ^ 0x5bd1_e995);
    let inputs: Vec<u64> = (0..items).map(|_| rng.next_u64()).collect();
    let expected: Vec<u64> = inputs.iter().map(|&x| program.apply(x)).collect();
    let mut sim = cluster();
    let mut failed = 0u64;
    let mut delivered = 0usize;
    let started = now_ns();
    let report = sim.run_stream(
        NODES * SLOTS_PER_NODE,
        |i| inputs.get(i).map(|&x| (program.clone(), x)),
        |i, r| {
            delivered += 1;
            if !matches!(r, Ok(v) if v == expected[i]) {
                complain(|| format!("stream item {i}: {:?}", r.err()));
                failed += 1;
            }
        },
        &mut [],
    );
    let wall = now_ns() - started;
    failed += items.abs_diff(delivered) as u64 + items.abs_diff(report.items) as u64;
    (wall, report.events, failed)
}

pub fn e2e(scale: Scale) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut beds = Vec::new();
    let mut laps = Laps::start(Probe::Main);
    for k in 0..9 {
        let started = now_ns();
        let bed = testbed(scale, k % VARIANTS);
        drop(cluster());
        setups.push((now_ns() - started) as f64 * laps.lap() / 1e9);
        if k < VARIANTS {
            beds.push(bed);
        }
    }
    report.set("setup_s", median(&setups));
    report.raw_nums("setup_s", &setups);

    // Scenario repetitions, at least five per variant. An item is one
    // leaf task of the scenario's `outer × inner` map; the figure is the
    // mean of the variants' median rates.
    let want: Vec<Fingerprint> = beds.iter().map(|bed| scenario(bed).1).collect();
    let mut walls = vec![Vec::new(); beds.len()];
    let mut unscaled = Vec::new();
    let started = now_ns();
    while walls[0].len() < 5 || now_ns() - started < scale.ns(1.0) {
        for (k, bed) in beds.iter().enumerate() {
            let (wall, got) = scenario(bed);
            unscaled.push(wall as f64 / 1e3);
            walls[k].push(wall as f64 * laps.lap() / 1e3);
            let failed = if got == want[k] { 0 } else { LEAVES };
            report.absorb(LEAVES, failed);
        }
    }
    let rates: Vec<f64> = walls
        .iter()
        .map(|w| LEAVES as f64 / (median(w) / 1e6))
        .collect();
    report.set(
        "items_per_s",
        rates.iter().sum::<f64>() / rates.len() as f64,
    );
    for (k, w) in walls.iter().enumerate() {
        report.raw_nums(&format!("scenario_us_variant{k}"), w);
    }
    report.raw_nums("scenario_us_unscaled", &unscaled);

    report.raw_nums("clock", &laps.seen);
    report
}

pub fn layers(scale: Scale, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let bed = testbed(scale, 0);
    let (_, want) = scenario(&bed);
    let (mut quiet, mut traced) = (Vec::new(), Vec::new());
    let mut laps = Laps::start(Probe::Main);
    let started = now_ns();
    let mut rep = 0u64;
    while traced.len() < 5 || now_ns() - started < scale.ns(0.5) {
        let (wall, got) = scenario(&bed);
        quiet.push(wall as f64 * laps.lap());
        report.absorb(LEAVES, if got == want { 0 } else { LEAVES });
        let at = now_ns();
        let (wall, got) = scenario(&bed);
        spans.push("sim.scenario", at, at + wall, NO_PARENT, rep);
        traced.push(wall as f64 * laps.lap());
        report.absorb(LEAVES, if got == want { 0 } else { LEAVES });
        rep += 1;
    }
    report.set("sim.scenario_ms_p50", median(&quiet) / 1e6);
    report.set("latency.item_us_p50", median(&quiet) / 1e3);
    report.set(
        "latency.item_us_p90",
        percentile(&mut quiet.clone(), 0.9) / 1e3,
    );
    report.set("trace.overhead_x", median(&traced) / median(&quiet));
    report.set("core.scenario_decisions", want.decisions as f64);
    report.set("core.scenario_virtual_wct_s", want.wct.as_secs_f64());
    report.set("core.scenario_analyses", want.analyses as f64);
    report.raw_nums("scenario_ns", &quiet);

    let mut rng = SplitMix64::new(scale.seed);
    let items = scale.size(STREAM_ITEMS);
    laps.lap();
    let (wall, events, failed) = stream(items, &mut rng);
    let secs = wall as f64 * laps.lap() / 1e9;
    let ended = now_ns();
    spans.push("sim.run_stream", ended - wall, ended, NO_PARENT, u64::MAX);
    report.absorb(items as u64, failed);
    report.set("host.clock_x", median(&laps.seen));
    report.set("sim.stream_1m_wall_s", secs);
    report.set("sim.stream_items_per_s", items as f64 / secs);
    report.set("sim.events_per_s", events as f64 / secs);
    report.set("dist.nodes", NODES as f64);
    report
}
