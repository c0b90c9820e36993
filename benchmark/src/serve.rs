//! `serve_open` and `serve_burst`: the serving layer as its two kinds of
//! user see it — independent single-item arrivals on a schedule, and
//! bulk rounds of batches ended by a barrier.

use std::collections::VecDeque;
use std::sync::Arc;

use askel_engine::{Engine, EngineError};
use askel_obs::Json;
use askel_serve::{Admission, AdmissionPolicy, ServeRegistry, ShardedServe, TenantId};
use askel_skeletons::{seq, Skel};

use crate::host::{timed_setup, Laps, Probe};
use crate::report::{complain, Report, Scale};
use crate::spans::{Spans, NO_PARENT};
use crate::spec::{LP, OPEN_LATE_LIMIT_US, OPEN_LIMIT_US, OPEN_RATE, OPEN_SWEEP, SHARDS};
use crate::stream::{hub_metrics, hub_p50, new_engine};
use crate::util::{median, now_ns, ns32, percentile, segment_median, SplitMix64, Zipf};

const OPEN_TENANTS: usize = 1_000;
const BURST_TENANTS: usize = 10_000;
const BATCH: usize = 4;
/// A round feeds this many of the burst tenants (a rotating quarter), so
/// a pass holds four times as many rounds to take a median over.
const ROUND_TENANTS: usize = 2_500;
/// Distinct seeded payloads; their reference results are computed once.
const PAYLOADS: usize = 1024;
/// Results are swept every millisecond of schedule.
const SWEEP_NS: u64 = 1_000_000;
/// The open loop's times are taken per segment and the median over
/// segments reported. A quarter second still holds 10 000 items at the
/// gated rate, and sixty short segments outvote a stall better than
/// fifteen long ones.
const SEGMENT_NS: u64 = 250_000_000;

/// What a tenant is sent.
#[derive(Clone, Copy)]
pub struct Item {
    id: u64,
    payload: u64,
}

/// What comes back: the answer, and when the benchmark's own muscle
/// started and finished computing it.
#[derive(Clone, Copy)]
pub struct Out {
    id: u64,
    answer: u64,
    start_ns: u64,
    end_ns: u64,
}

/// ~1 us of dependent multiplies: the tenants' whole business logic.
fn work(mut x: u64) -> u64 {
    for _ in 0..400 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(1);
    }
    x
}

/// The tenants' program: `work`, stamped before and after.
fn tenant_program() -> Skel<Item, Out> {
    seq(|item: Item| {
        let start_ns = now_ns();
        let answer = work(std::hint::black_box(item.payload));
        Out {
            id: item.id,
            answer,
            start_ns,
            end_ns: now_ns(),
        }
    })
}

/// Seeded payloads and the sequential reference's answer for each.
struct Payloads {
    values: Vec<u64>,
    expected: Vec<u64>,
}

impl Payloads {
    fn new(rng: &mut SplitMix64) -> Self {
        let reference: Skel<u64, u64> = seq(work);
        let values: Vec<u64> = (0..PAYLOADS).map(|_| rng.next_u64()).collect();
        let expected = values.iter().map(|&v| reference.apply(v)).collect();
        Payloads { values, expected }
    }
}

/// An item the generator has sent and not yet seen come back.
#[derive(Clone, Copy)]
struct Pending {
    id: u64,
    payload_idx: u32,
    due_ns: u64,
    fed_ns: u64,
    root: u32,
}

/// Per-tenant FIFO of what is outstanding: results must come back
/// exactly once and in this order.
struct Outstanding {
    per_tenant: Vec<VecDeque<Pending>>,
    /// Tenants with at least one outstanding item (what a sweep visits).
    active: Vec<u32>,
    total: u64,
}

impl Outstanding {
    fn new(tenants: usize) -> Self {
        Outstanding {
            per_tenant: (0..tenants).map(|_| VecDeque::new()).collect(),
            active: Vec::new(),
            total: 0,
        }
    }

    fn push(&mut self, tenant: usize, p: Pending) {
        if self.per_tenant[tenant].is_empty() {
            self.active.push(tenant as u32);
        }
        self.per_tenant[tenant].push_back(p);
        self.total += 1;
    }
}

/// Everything one stretch of serving produced, by item.
#[derive(Default)]
struct Tally {
    sent: u64,
    failed: u64,
    queued: u64,
    rejected: u64,
    /// due → muscle end, grouped by the segment the item was due in.
    sojourn: Vec<Vec<u32>>,
    /// Items whose muscle ended in each segment.
    finished: Vec<u64>,
    /// The host clock over each segment (see `host.rs`).
    segment_clock: Vec<f64>,
    late: Vec<u32>,
    feed_call: Vec<u32>,
    take_call: Vec<u32>,
    wait: Vec<u32>,
    service: Vec<u32>,
    harvest: Vec<u32>,
}

impl Tally {
    /// Scales every recorded time to the nominal clock: sojourns by
    /// their segment's clock, the per-call samples by the mean.
    fn at_nominal_clock(&mut self) {
        let mean = self.segment_clock.iter().sum::<f64>() / self.segment_clock.len() as f64;
        let clock = |seg: usize| self.segment_clock.get(seg).copied().unwrap_or(mean);
        for (seg, samples) in self.sojourn.iter_mut().enumerate() {
            let c = clock(seg);
            samples.iter_mut().for_each(|v| *v = (*v as f64 * c) as u32);
        }
        let scaled = [
            &mut self.late,
            &mut self.feed_call,
            &mut self.take_call,
            &mut self.wait,
            &mut self.service,
            &mut self.harvest,
        ];
        for samples in scaled {
            samples
                .iter_mut()
                .for_each(|v| *v = (*v as f64 * mean) as u32);
        }
    }

    /// Items finished per nominal second, median over whole segments.
    fn achieved(&self, whole_segments: usize) -> f64 {
        let per: Vec<f64> = self
            .finished
            .iter()
            .zip(&self.segment_clock)
            .take(whole_segments.max(1))
            .map(|(&n, &c)| n as f64 / c / (SEGMENT_NS as f64 / 1e9))
            .collect();
        median(&per)
    }

    /// Checks one harvested result against the head of its tenant's
    /// FIFO and files its stamps. `origin` is the stretch's start.
    #[allow(clippy::too_many_arguments)]
    fn collect(
        &mut self,
        head: Option<Pending>,
        result: Result<Out, EngineError>,
        payloads: &Payloads,
        seen_ns: u64,
        origin: u64,
        layers: bool,
        spans: Option<&mut Spans>,
    ) {
        let (Some(p), Ok(out)) = (head, &result) else {
            complain(|| match head {
                None => "a result nobody was waiting for".into(),
                Some(p) => format!("item {}: {:?}", p.id, result.err()),
            });
            self.failed += 1;
            return;
        };
        if out.id != p.id || out.answer != payloads.expected[p.payload_idx as usize] {
            complain(|| {
                format!(
                    "expected item {}, got item {} (or a wrong answer)",
                    p.id, out.id
                )
            });
            self.failed += 1;
            return;
        }
        let segment = ((p.due_ns.saturating_sub(origin)) / SEGMENT_NS) as usize;
        if self.sojourn.len() <= segment {
            self.sojourn.resize_with(segment + 1, Vec::new);
        }
        self.sojourn[segment].push(ns32(out.end_ns.saturating_sub(p.due_ns)));
        let done_in = ((out.end_ns.saturating_sub(origin)) / SEGMENT_NS) as usize;
        if self.finished.len() <= done_in {
            self.finished.resize(done_in + 1, 0);
        }
        self.finished[done_in] += 1;
        if layers {
            self.wait.push(ns32(out.start_ns.saturating_sub(p.fed_ns)));
            self.service.push(ns32(out.end_ns - out.start_ns));
            self.harvest.push(ns32(seen_ns.saturating_sub(out.end_ns)));
        }
        if let Some(s) = spans {
            s.push("serve.wait", p.fed_ns, out.start_ns, p.root, p.id);
            s.push("muscle", out.start_ns, out.end_ns, p.root, p.id);
            s.push("serve.harvest", out.end_ns, seen_ns, p.root, p.id);
            s.close(p.root, seen_ns);
        }
    }
}

/// A started serving stack and the tenants registered on it.
struct Stack {
    engine: Engine,
    serve: ShardedServe<Item, Out>,
    tenants: Vec<TenantId>,
}

impl Stack {
    /// Starts the engine and the sharded front and registers `tenants`
    /// plain tenants: what `setup_s` times for the serve workloads.
    fn start(tenants: usize, quota: usize) -> Stack {
        let engine = new_engine();
        let policy = AdmissionPolicy::default().max_in_flight(quota);
        let serve = ShardedServe::new(&engine, SHARDS, policy);
        let program = tenant_program();
        let tenants = (0..tenants).map(|_| serve.register(&program)).collect();
        crate::util::threads_peak();
        Stack {
            engine,
            serve,
            tenants,
        }
    }

    fn stop(self) {
        self.serve.join();
        self.engine.shutdown();
    }
}

/// The stack after fifteen timed set-ups (`setup_s`), running.
fn timed_start(tenants: usize, quota: usize, report: &mut Report) -> Stack {
    timed_setup(report, 15, || Stack::start(tenants, quota), Stack::stop)
}

/// The open-loop generator: one thread, a Poisson schedule, Zipf tenant
/// picks, one `feed` per item when it falls due, and a sweep of
/// `take_ready` over the tenants with something outstanding every
/// millisecond of schedule.
struct OpenLoop<'a> {
    stack: &'a Stack,
    payloads: &'a Payloads,
    zipf: Zipf,
    rng: SplitMix64,
    outstanding: Outstanding,
    next_id: u64,
    layers: bool,
    laps: Laps<'a>,
}

impl<'a> OpenLoop<'a> {
    fn new(stack: &'a Stack, payloads: &'a Payloads, rng: SplitMix64, layers: bool) -> Self {
        OpenLoop {
            stack,
            payloads,
            zipf: Zipf::new(stack.tenants.len(), 1.0),
            rng,
            outstanding: Outstanding::new(stack.tenants.len()),
            next_id: 0,
            layers,
            laps: Laps::start(Probe::Pool(stack.engine.pool(), LP)),
        }
    }

    /// Harvests every tenant that has something outstanding.
    fn sweep(&mut self, tally: &mut Tally, origin: u64, mut spans: Option<&mut Spans>) {
        let mut i = 0;
        while i < self.outstanding.active.len() {
            let tenant = self.outstanding.active[i] as usize;
            let called = now_ns();
            let results = self.stack.serve.take_ready(self.stack.tenants[tenant]);
            let seen = now_ns();
            if self.layers {
                tally.take_call.push(ns32(seen - called));
            }
            if let Some(s) = spans.as_deref_mut() {
                s.push("serve.take_ready", called, seen, NO_PARENT, u64::MAX);
            }
            let fifo = &mut self.outstanding.per_tenant[tenant];
            for r in results {
                let head = fifo.pop_front();
                self.outstanding.total -= u64::from(head.is_some());
                tally.collect(
                    head,
                    r,
                    self.payloads,
                    seen,
                    origin,
                    self.layers,
                    spans.as_deref_mut(),
                );
            }
            if fifo.is_empty() {
                self.outstanding.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Sends at `rate` items per *nominal* second for `dur_ns`, then
    /// waits for everything still outstanding. The clock is probed at
    /// every segment boundary and the schedule follows it, so the
    /// offered load is the same share of the host's capacity whichever
    /// clock mode the host is in. Returns the tally (times at nominal
    /// clock) and the backlog (sent, not yet collected) at the moment the
    /// schedule ended.
    fn step(&mut self, rate: f64, dur_ns: u64, mut spans: Option<&mut Spans>) -> (Tally, u64) {
        let mut tally = Tally::default();
        let origin = now_ns();
        let end = origin + dur_ns;
        self.laps.lap();
        let mut due = origin + self.rng.exp_gap_ns(rate * self.laps.latest());
        let mut next_sweep = origin + SWEEP_NS;
        let mut next_segment = origin + SEGMENT_NS;
        while due < end {
            let now = now_ns();
            if now >= next_segment {
                tally.segment_clock.push(self.laps.lap());
                next_segment += SEGMENT_NS;
                continue;
            }
            if now >= next_sweep {
                self.sweep(&mut tally, origin, spans.as_deref_mut());
                next_sweep = (next_sweep + SWEEP_NS).max(now);
                continue;
            }
            if now < due {
                // Nothing due: hand the core to the workers and drivers
                // unless the next item is imminent.
                if due - now > 20_000 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            let tenant = self.zipf.sample(&mut self.rng);
            let payload_idx = self.rng.below(self.payloads.values.len() as u64) as u32;
            let id = self.next_id;
            self.next_id += 1;
            let item = Item {
                id,
                payload: self.payloads.values[payload_idx as usize],
            };
            let admission = self.stack.serve.feed(self.stack.tenants[tenant], item);
            let fed = now_ns();
            tally.sent += 1;
            tally.late.push(ns32(now - due));
            if self.layers {
                tally.feed_call.push(ns32(fed - now));
            }
            match admission {
                Admission::Rejected(reason) => {
                    complain(|| format!("item {id} refused: {reason:?}"));
                    tally.rejected += 1;
                    tally.failed += 1;
                }
                Admission::Submitted | Admission::Queued => {
                    tally.queued += u64::from(admission == Admission::Queued);
                    let root = match spans.as_deref_mut() {
                        Some(s) => {
                            let root = s.open("gen.item", due, NO_PARENT, id);
                            s.push("gen.late", due, now, root, id);
                            s.push("serve.feed", now, fed, root, id);
                            root
                        }
                        None => NO_PARENT,
                    };
                    self.outstanding.push(
                        tenant,
                        Pending {
                            id,
                            payload_idx,
                            due_ns: due,
                            fed_ns: fed,
                            root,
                        },
                    );
                }
            }
            due += self.rng.exp_gap_ns(rate * self.laps.latest());
        }
        self.sweep(&mut tally, origin, spans.as_deref_mut());
        tally.segment_clock.push(self.laps.lap());
        let backlog = self.outstanding.total;
        self.stack.serve.quiesce();
        self.sweep(&mut tally, origin, spans);
        // Whatever is still outstanding after a quiesce is lost.
        if self.outstanding.total > 0 {
            complain(|| format!("{} items lost after quiesce", self.outstanding.total));
        }
        tally.failed += self.outstanding.total;
        tally.at_nominal_clock();
        (tally, backlog)
    }
}

fn to_us(ns: f64) -> f64 {
    ns / 1e3
}

pub fn open_e2e(scale: Scale) -> Report {
    let mut report = Report::default();
    let stack = timed_start(scale.size(OPEN_TENANTS), 64, &mut report);
    let mut rng = SplitMix64::new(scale.seed);
    let payloads = Payloads::new(&mut rng);
    let mut open = OpenLoop::new(&stack, &payloads, rng, false);
    // Let the pool, the drivers and the allocator reach steady state.
    let (warm, _) = open.step(OPEN_RATE / 2.0, scale.ns(0.02), None);
    let (mut tally, _) = open.step(OPEN_RATE, scale.ns(1.0), None);
    report.raw_nums("clock", &open.laps.seen);
    drop(open);
    stack.stop();

    report.absorb(warm.sent + tally.sent, warm.failed + tally.failed);
    report.set(
        "items_per_s",
        tally.achieved((scale.ns(1.0) / SEGMENT_NS) as usize),
    );
    let per_segment = |p: f64, segs: &mut [Vec<u32>]| -> Vec<f64> {
        segs.iter_mut()
            .map(|s| to_us(percentile(s, p) as f64))
            .collect()
    };
    report.raw_nums(
        "sojourn_us_p50_per_segment",
        &per_segment(0.5, &mut tally.sojourn),
    );
    report.raw_nums(
        "sojourn_us_p90_per_segment",
        &per_segment(0.9, &mut tally.sojourn),
    );
    report.raw_nums(
        "finished_per_segment",
        &tally.finished.iter().map(|&n| n as f64).collect::<Vec<_>>(),
    );
    report.raw_num(
        "gen_late_us_p90",
        to_us(percentile(&mut tally.late, 0.9) as f64),
    );
    report
}

pub fn open_layers(scale: Scale, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let stack = Stack::start(scale.size(OPEN_TENANTS), 64);
    let hub = Arc::clone(stack.engine.metrics_hub());
    let mut rng = SplitMix64::new(scale.seed);
    let payloads = Payloads::new(&mut rng);
    let mut open = OpenLoop::new(&stack, &payloads, rng, true);
    let (warm, _) = open.step(OPEN_RATE / 2.0, scale.ns(0.02), None);
    report.absorb(warm.sent, warm.failed);

    // Untraced, then traced, at the gated rate: their ratio is the
    // tracing overhead.
    let (mut quiet, _) = open.step(OPEN_RATE, scale.ns(0.12), None);
    let before = hub.snapshot();
    hub.set_enabled(true);
    let (mut traced, _) = open.step(OPEN_RATE, scale.ns(0.12), Some(spans));
    let after = hub.snapshot();
    report.absorb(quiet.sent + traced.sent, quiet.failed + traced.failed);
    report.set(
        "trace.overhead_x",
        segment_median(&mut traced.sojourn, 0.5) / segment_median(&mut quiet.sojourn, 0.5).max(1.0),
    );
    report.set(
        "latency.item_us_p50",
        to_us(segment_median(&mut quiet.sojourn, 0.5)),
    );
    report.set(
        "latency.item_us_p90",
        to_us(segment_median(&mut quiet.sojourn, 0.9)),
    );
    hub_metrics(&mut report, &before, &after, traced.sent);
    report.set(
        "serve.hub_sojourn_ns_p50",
        hub_p50(&after, "serve_sojourn_ns"),
    );
    let p50 = |v: &mut Vec<u32>| percentile(v, 0.5) as f64;
    // The muscle's own stamps against the engine's probe for the same
    // two intervals: hand-off → first step, first step → resolved.
    report.cross_check(
        "wait p50 (ns) vs engine_queue_delay_ns",
        p50(&mut traced.wait),
        hub_p50(&after, "engine_queue_delay_ns"),
    );
    report.cross_check(
        "service p50 (ns) vs engine_service_ns",
        p50(&mut traced.service),
        hub_p50(&after, "engine_service_ns"),
    );

    // The rate sweep, hub still on: which fixed rates hold the limit.
    let step_ns = scale.ns(0.74) / OPEN_SWEEP.len() as u64;
    let mut max_ok = 0.0;
    for (rate, name) in OPEN_SWEEP.into_iter().zip([
        "serve.sojourn_us_p50_at_10k",
        "serve.sojourn_us_p50_at_20k",
        "serve.sojourn_us_p50_at_40k",
        "serve.sojourn_us_p50_at_80k",
    ]) {
        let (mut t, backlog) = open.step(rate, step_ns, None);
        report.absorb(t.sent, t.failed);
        let p90 = to_us(segment_median(&mut t.sojourn, 0.9));
        let late = to_us(percentile(&mut t.late, 0.9) as f64);
        report.set(name, to_us(segment_median(&mut t.sojourn, 0.5)));
        let ok = t.failed == 0
            && p90 <= OPEN_LIMIT_US
            && backlog as f64 <= 0.01 * t.sent as f64
            && late <= OPEN_LATE_LIMIT_US;
        if ok {
            max_ok = rate;
        }
        report.raw.push((
            format!("sweep_{rate}"),
            Json::Obj(vec![
                ("sent".into(), Json::Num(t.sent as f64)),
                ("failed".into(), Json::Num(t.failed as f64)),
                ("sojourn_us_p90".into(), Json::Num(p90)),
                ("gen_late_us_p90".into(), Json::Num(late)),
                ("backlog_end".into(), Json::Num(backlog as f64)),
                ("ok".into(), Json::Bool(ok)),
            ]),
        ));
        if rate == OPEN_RATE {
            let all: &mut Vec<u32> = &mut t.sojourn.concat();
            report.set("serve.sojourn_us_p99", to_us(percentile(all, 0.99) as f64));
            report.set("serve.gen_late_us_p90", late);
            report.set("serve.backlog_end", backlog as f64);
            report.set("serve.queued_ratio", t.queued as f64 / t.sent as f64);
            report.set("serve.rejected_ratio", t.rejected as f64 / t.sent as f64);
            report.set("serve.feed_call_ns_p50", p50(&mut t.feed_call));
            report.set(
                "serve.feed_call_ns_p99",
                percentile(&mut t.feed_call, 0.99) as f64,
            );
            report.set("serve.take_ready_call_ns_p50", p50(&mut t.take_call));
            report.set("serve.wait_us_p50", to_us(p50(&mut t.wait)));
            report.set("serve.service_us_p50", to_us(p50(&mut t.service)));
            report.set("serve.harvest_us_p50", to_us(p50(&mut t.harvest)));
        }
    }
    hub.set_enabled(false);
    report.set("serve.max_rate_ok", max_ok);
    report.set("host.clock_x", median(&open.laps.seen));
    drop(open);
    let snapshot = stack.serve.export_snapshot().to_json().render();
    crate::write_out("serve_open.hub.json", &snapshot);
    stack.stop();
    report
}

/// What one bulk round through some front took, and what came back.
#[derive(Default)]
struct Round {
    items: u64,
    /// Times at the nominal clock once [`Round::at_clock`] has run.
    total_ns: f64,
    quiesce_ns: f64,
    take_ns: f64,
    feed_batch_call: Vec<u32>,
    /// batch built → muscle end, per item.
    sojourn: Vec<u32>,
    failed: u64,
}

impl Round {
    /// Scales the round's times to the nominal clock (see `host.rs`).
    fn at_clock(mut self, clock: f64) -> Self {
        self.total_ns *= clock;
        self.quiesce_ns *= clock;
        self.take_ns *= clock;
        for samples in [&mut self.feed_batch_call, &mut self.sojourn] {
            samples
                .iter_mut()
                .for_each(|v| *v = (*v as f64 * clock) as u32);
        }
        self
    }
}

/// The two fronts a round can go through.
trait Front {
    fn feed_batch(&mut self, tenant: TenantId, batch: Vec<Item>) -> usize;
    fn quiesce(&mut self);
    fn take_ready(&mut self, tenant: TenantId) -> Vec<Result<Out, EngineError>>;
}

impl Front for &ShardedServe<Item, Out> {
    fn feed_batch(&mut self, tenant: TenantId, batch: Vec<Item>) -> usize {
        ShardedServe::feed_batch(self, tenant, batch).rejected
    }
    fn quiesce(&mut self) {
        ShardedServe::quiesce(self)
    }
    fn take_ready(&mut self, tenant: TenantId) -> Vec<Result<Out, EngineError>> {
        ShardedServe::take_ready(self, tenant)
    }
}

impl Front for ServeRegistry<Item, Out> {
    fn feed_batch(&mut self, tenant: TenantId, batch: Vec<Item>) -> usize {
        ServeRegistry::feed_batch(self, tenant, batch).rejected
    }
    fn quiesce(&mut self) {
        ServeRegistry::quiesce(self)
    }
    fn take_ready(&mut self, tenant: TenantId) -> Vec<Result<Out, EngineError>> {
        ServeRegistry::take_ready(self, tenant)
    }
}

/// One round: a `BATCH`-item `feed_batch` to every tenant, `quiesce`,
/// then `take_ready` from every tenant — each tenant must return exactly
/// its batch, in order, with the reference's answers.
fn round(
    front: &mut dyn Front,
    tenants: &[TenantId],
    payloads: &Payloads,
    rng: &mut SplitMix64,
    next_id: &mut u64,
    mut spans: Option<&mut Spans>,
) -> Round {
    let mut r = Round {
        items: (tenants.len() * BATCH) as u64,
        ..Round::default()
    };
    let first_id = *next_id;
    // The payload index of every item of the round, by id offset.
    let mut sent_idx: Vec<u32> = Vec::with_capacity(tenants.len() * BATCH);
    let mut built_ns: Vec<u64> = Vec::with_capacity(tenants.len());
    let started = now_ns();
    for &tenant in tenants {
        let built = now_ns();
        let batch: Vec<Item> = (0..BATCH)
            .map(|_| {
                let idx = rng.below(payloads.values.len() as u64) as u32;
                sent_idx.push(idx);
                let id = *next_id;
                *next_id += 1;
                Item {
                    id,
                    payload: payloads.values[idx as usize],
                }
            })
            .collect();
        let rejected = front.feed_batch(tenant, batch);
        let fed = now_ns();
        if rejected > 0 {
            complain(|| format!("{rejected} items of a batch to {tenant} refused"));
        }
        r.failed += rejected as u64;
        r.feed_batch_call.push(ns32(fed - built));
        built_ns.push(built);
        if let Some(s) = spans.as_deref_mut() {
            s.push("serve.feed_batch", built, fed, NO_PARENT, tenant.0);
        }
    }
    let fed_all = now_ns();
    front.quiesce();
    let settled = now_ns();
    for (k, &tenant) in tenants.iter().enumerate() {
        let results = front.take_ready(tenant);
        if results.len() != BATCH {
            complain(|| {
                format!(
                    "{tenant} returned {} results for a batch of {BATCH}",
                    results.len()
                )
            });
            r.failed += (BATCH as u64).abs_diff(results.len() as u64);
        }
        for (j, result) in results.into_iter().take(BATCH).enumerate() {
            let offset = k * BATCH + j;
            match result {
                Ok(out)
                    if out.id == first_id + offset as u64
                        && out.answer == payloads.expected[sent_idx[offset] as usize] =>
                {
                    r.sojourn.push(ns32(out.end_ns.saturating_sub(built_ns[k])));
                }
                other => {
                    complain(|| format!("{tenant} slot {j}: {:?}", other.map(|o| o.id)));
                    r.failed += 1;
                }
            }
        }
    }
    let done = now_ns();
    r.total_ns = (done - started) as f64;
    r.quiesce_ns = (settled - fed_all) as f64;
    r.take_ns = (done - settled) as f64;
    if let Some(s) = spans {
        s.push("serve.quiesce", fed_all, settled, NO_PARENT, u64::MAX);
        s.push("serve.take_all", settled, done, NO_PARENT, u64::MAX);
    }
    r
}

/// Rounds through `front` until `dur_ns` has passed (at least five).
fn rounds(
    front: &mut dyn Front,
    tenants: &[TenantId],
    payloads: &Payloads,
    rng: &mut SplitMix64,
    dur_ns: u64,
    laps: &mut Laps,
    mut spans: Option<&mut Spans>,
) -> Vec<Round> {
    let mut next_id = 0;
    let started = now_ns();
    let mut out = Vec::new();
    laps.lap();
    let per_round = ROUND_TENANTS.min(tenants.len());
    let mut chunks = tenants.chunks(per_round).cycle();
    while out.len() < 5 || now_ns() - started < dur_ns {
        let chunk = chunks.next().expect("a cycle never ends");
        let r = round(
            front,
            chunk,
            payloads,
            rng,
            &mut next_id,
            spans.as_deref_mut(),
        );
        out.push(r.at_clock(laps.lap()));
    }
    out
}

fn items_per_s(rounds: &[Round]) -> f64 {
    let per: Vec<f64> = rounds
        .iter()
        .map(|r| r.items as f64 / (r.total_ns / 1e9))
        .collect();
    median(&per)
}

/// `(attempted, failed)` over some rounds.
fn tally(rounds: &[Round]) -> (u64, u64) {
    rounds
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.items, f + r.failed))
}

fn ms(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r) / 1e6).collect::<Vec<_>>())
}

/// The `q`-th percentile of every round's per-item sojourns, in µs.
fn sojourn_us(rounds: &mut [Round], q: f64) -> Vec<f64> {
    rounds
        .iter_mut()
        .map(|r| to_us(percentile(&mut r.sojourn, q) as f64))
        .collect()
}

pub fn burst_e2e(scale: Scale) -> Report {
    let mut report = Report::default();
    let stack = timed_start(scale.size(BURST_TENANTS), BATCH, &mut report);
    let mut rng = SplitMix64::new(scale.seed);
    let payloads = Payloads::new(&mut rng);
    let mut front = &stack.serve;
    // One round to fault in every tenant's queues.
    let warm = round(
        &mut front,
        &stack.tenants,
        &payloads,
        &mut rng,
        &mut 0,
        None,
    );
    let mut laps = Laps::start(Probe::Pool(stack.engine.pool(), LP));
    let tenants = &stack.tenants;
    let mut all = rounds(
        &mut front,
        tenants,
        &payloads,
        &mut rng,
        scale.ns(1.0),
        &mut laps,
        None,
    );
    report.raw_nums("clock", &laps.seen);
    drop(laps);
    stack.stop();

    let (attempted, failed) = tally(&all);
    report.absorb(attempted + warm.items, failed + warm.failed);
    report.set("items_per_s", items_per_s(&all));
    report.raw_nums("sojourn_us_p50_per_round", &sojourn_us(&mut all, 0.5));
    report.raw_nums("sojourn_us_p90_per_round", &sojourn_us(&mut all, 0.9));
    report.raw_nums(
        "round_ms",
        &all.iter().map(|r| r.total_ns / 1e6).collect::<Vec<_>>(),
    );
    report
}

pub fn burst_layers(scale: Scale, spans: &mut Spans) -> Report {
    let mut report = Report::default();
    let stack = Stack::start(scale.size(BURST_TENANTS), BATCH);
    let hub = Arc::clone(stack.engine.metrics_hub());
    let mut rng = SplitMix64::new(scale.seed);
    let payloads = Payloads::new(&mut rng);
    let n = stack.tenants.len();
    let mut front = &stack.serve;
    round(
        &mut front,
        &stack.tenants,
        &payloads,
        &mut rng,
        &mut 0,
        None,
    );

    let mut laps = Laps::start(Probe::Pool(stack.engine.pool(), LP));
    let tenants = &stack.tenants;
    let mut quiet = rounds(
        &mut front,
        tenants,
        &payloads,
        &mut rng,
        scale.ns(0.3),
        &mut laps,
        None,
    );
    let before = hub.snapshot();
    hub.set_enabled(true);
    let mut traced = rounds(
        &mut front,
        tenants,
        &payloads,
        &mut rng,
        scale.ns(0.3),
        &mut laps,
        Some(spans),
    );
    let after = hub.snapshot();
    hub_metrics(&mut report, &before, &after, tally(&traced).0);
    report.set(
        "trace.overhead_x",
        items_per_s(&quiet) / items_per_s(&traced),
    );
    for (name, q) in [("latency.item_us_p50", 0.5), ("latency.item_us_p90", 0.9)] {
        report.set(name, median(&sojourn_us(&mut quiet, q)));
    }
    report.set("serve.round_ms_p50", ms(&traced, |r| r.total_ns));
    report.set("serve.quiesce_ms_p50", ms(&traced, |r| r.quiesce_ns));
    report.set("serve.take_all_ms_p50", ms(&traced, |r| r.take_ns));
    let mut calls: Vec<u32> = traced
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.feed_batch_call))
        .collect();
    report.set(
        "serve.feed_batch_call_us_p50",
        to_us(percentile(&mut calls, 0.5) as f64),
    );
    report.set(
        "serve.hub_sojourn_ns_p50",
        hub_p50(&after, "serve_sojourn_ns"),
    );

    // The exporters over the whole population, per-tenant histograms in.
    let started = now_ns();
    let snapshot = stack.serve.export_snapshot().to_json().render();
    report.set("obs.snapshot_ms", (now_ns() - started) as f64 / 1e6);
    hub.set_enabled(false);
    crate::write_out("serve_burst.hub.json", &snapshot);
    for rs in [&quiet, &traced] {
        let (attempted, failed) = tally(rs);
        report.absorb(attempted, failed);
    }
    let sharded = items_per_s(&quiet);
    report.set("host.clock_x", median(&laps.seen));
    drop(laps);
    stack.stop();

    // The same rounds through a bare registry on the caller's thread.
    let engine = new_engine();
    let mut registry: ServeRegistry<Item, Out> =
        ServeRegistry::new(&engine).with_policy(AdmissionPolicy::default().max_in_flight(BATCH));
    let program = tenant_program();
    let tenants: Vec<TenantId> = (0..n).map(|_| registry.register(&program)).collect();
    let mut laps = Laps::start(Probe::Pool(engine.pool(), LP));
    let bare = rounds(
        &mut registry,
        &tenants,
        &payloads,
        &mut rng,
        scale.ns(0.2),
        &mut laps,
        None,
    );
    engine.shutdown();
    let (attempted, failed) = tally(&bare);
    report.absorb(attempted, failed);
    report.set("serve.registry_items_per_s", items_per_s(&bare));
    report.set(
        "serve.sharded_over_registry_x",
        items_per_s(&bare) / sharded,
    );
    report
}
