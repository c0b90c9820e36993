//! `stream_fine` and `stream_coarse`: one client, a closed loop with a
//! fixed in-flight window, and the rung ladder that prices the same item
//! at every layer from the sequential reference up to sharded ingress.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use askel_adapt::{
    AdaptiveSession, FallbackSwap, Knob, Promote, RetuneGrain, RetuneWidth, Trigger, TriggerEngine,
};
use askel_core::{AutonomicController, ControllerConfig, DecreasePolicy, FnActuator};
use askel_engine::{Engine, EngineError, SkelFuture, StreamSession};
use askel_events::{Event, FnListener, Listener, Payload};
use askel_obs::MetricsSnapshot;
use askel_serve::{Admission, AdmissionPolicy, ServeRegistry, ShardedServe, TenantId};
use askel_skeletons::{dac, map, seq, sfor, MuscleId, MuscleRole, Skel, TimeNs};
use askel_workloads::numeric::monte_carlo_pi;

use crate::host::{timed_setup, Laps, Probe};
use crate::report::{complain, Report, Scale};
use crate::spans::{Spans, NO_PARENT};
use crate::spec::{LP, WINDOW_COARSE, WINDOW_FINE};
use crate::util::{median, now_ns, ns32, percentile, SplitMix64};

/// Distinct seeded inputs per program; items cycle through them.
const INPUTS: usize = 64;
/// Repetitions of the (plain, adaptive) slice pair in the e2e pass, and
/// how many engines they are spread over.
const REPS: usize = 12;
const ENGINES: usize = 4;

/// A program, its seeded inputs, and what the sequential reference
/// (`Skel::apply`) makes of each — computed once at set-up so checking a
/// result on the generator thread is a comparison, not a recomputation.
pub struct Prog<P, R> {
    pub name: &'static str,
    pub skel: Skel<P, R>,
    inputs: Vec<P>,
    expected: Vec<R>,
    size_of: fn(&P) -> usize,
    /// One controller for the program's whole life, as a long-lived
    /// deployment has: its logs grow through the pass (and show in
    /// `rss_mb`) instead of being freed slice by slice.
    controller: Arc<AutonomicController>,
}

impl<P: Clone + Send + 'static, R: Send + 'static> Prog<P, R> {
    fn new(name: &'static str, skel: Skel<P, R>, inputs: Vec<P>, size_of: fn(&P) -> usize) -> Self {
        let expected = inputs.iter().map(|i| skel.apply(i.clone())).collect();
        // An hour-long goal at the LP the engine already has, and no
        // permission to lower it: every `After` event is analysed, no
        // analysis ever acts.
        let config = ControllerConfig::new(TimeNs::from_secs(3600), LP)
            .initial_lp(LP)
            .decrease(DecreasePolicy::Never);
        let controller = AutonomicController::new(
            skel.node().clone(),
            config,
            Arc::new(FnActuator(|_lp: usize| {})),
        );
        Prog {
            name,
            skel,
            inputs,
            expected,
            size_of,
            controller,
        }
    }
}

fn vectors(rng: &mut SplitMix64) -> Vec<Vec<i64>> {
    (0..INPUTS)
        .map(|_| (0..512).map(|_| rng.below(1 << 20) as i64).collect())
        .collect()
}

/// `map_512`: 32 chunks of 16, summed (the program of the old
/// `engine_throughput` / `adapt_overhead` benches).
pub fn map_512(rng: &mut SplitMix64) -> Prog<Vec<i64>, i64> {
    let skel = map(
        |v: Vec<i64>| v.chunks(16).map(|c| c.to_vec()).collect::<Vec<_>>(),
        seq(|v: Vec<i64>| v.iter().sum::<i64>()),
        |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
    );
    Prog::new("map_512", skel, vectors(rng), Vec::len)
}

/// `dac_sort_512`: divide to 64-element leaves, sort, merge.
pub fn dac_sort_512(rng: &mut SplitMix64) -> Prog<Vec<i64>, Vec<i64>> {
    let skel = dac(
        |v: &Vec<i64>| v.len() > 64,
        |v: Vec<i64>| {
            let (a, b) = v.split_at(v.len() / 2);
            vec![a.to_vec(), b.to_vec()]
        },
        seq(|mut v: Vec<i64>| {
            v.sort_unstable();
            v
        }),
        |parts: Vec<Vec<i64>>| {
            let mut out: Vec<i64> = parts.into_iter().flatten().collect();
            out.sort_unstable();
            out
        },
    );
    Prog::new("dac_sort_512", skel, vectors(rng), Vec::len)
}

/// `for_64`: 64 sequential ~70 ns steps, no fan-out at all.
pub fn for_64(rng: &mut SplitMix64) -> Prog<i64, i64> {
    let skel = sfor(64, seq(|x: i64| x + 1));
    let inputs = (0..INPUTS).map(|_| rng.below(1 << 40) as i64).collect();
    Prog::new("for_64", skel, inputs, |_| 1)
}

/// `monte_carlo_pi(16, 10_000)`: ~50 us per muscle, ~0.8 ms per item,
/// no allocation, exact result per seed.
pub fn mc_pi(rng: &mut SplitMix64) -> Prog<u64, f64> {
    let inputs = (0..INPUTS).map(|_| rng.next_u64()).collect();
    Prog::new("monte_carlo_pi", monte_carlo_pi(16, 10_000), inputs, |_| 1)
}

/// The four armed rules of `adapt_overhead.rs`, none of which can fire:
/// every safe point evaluates them and finds nothing to do.
fn silent_rules<P: Send + 'static, R: Send + 'static>(
    trigger: &TriggerEngine,
    program: &Skel<P, R>,
) {
    // Never executed, so its muscle never gains an estimate.
    let decoy = seq(|x: u8| x);
    let fs = MuscleId::new(program.id(), MuscleRole::Split);
    let silent = MuscleId::new(decoy.id(), MuscleRole::Execute);
    trigger.add_rule(
        Promote::new(program, program)
            .named("promote-never")
            .when(Trigger::InputSizeAtLeast(f64::MAX)),
    );
    trigger.add_rule(FallbackSwap::new(program, program, usize::MAX).named("swap-never"));
    trigger.add_rule(
        RetuneWidth::new(Knob::new("width-never", 32), 16)
            .when(Trigger::CardinalityAtLeast(fs, f64::MAX)),
    );
    trigger.add_rule(RetuneGrain::new(
        Knob::new("grain-never", 64),
        silent,
        TimeNs::from_millis(1),
    ));
}

/// One way of putting an item through the stack. The ladder is these in
/// order, each adding one layer (or one listener) to the one before.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// `Engine::submit` / `SkelFuture::get`.
    Submit,
    /// `StreamSession`, no listeners: the *plain* slice.
    Stream,
    /// `Stream` + a listener that returns immediately.
    Noop,
    /// `Stream` + a listener that counts events (for the exact count).
    CountEvents,
    /// `Stream` + an `AutonomicController` whose goal is never at risk.
    Controller,
    /// `Stream` + a rule-less `TriggerEngine`.
    Trigger,
    /// `AdaptiveSession` + `TriggerEngine` + four silent rules: the
    /// *adaptive* slice of `stream_fine`.
    Adaptive,
    /// `Adaptive` + the controller: the adaptive slice of `stream_coarse`.
    AdaptiveControlled,
    /// One plain tenant of a bare `ServeRegistry`.
    Registry,
    /// One plain tenant of a one-shard `ShardedServe`, polled.
    Sharded,
    /// One adaptive tenant (four silent rules) of the same.
    ShardedAdaptive,
}

/// A closed-loop client's view of a rung: put one in, wait for the
/// oldest one out.
trait Lane<P, R> {
    fn feed(&mut self, input: P);
    fn next(&mut self) -> Result<R, EngineError>;
}

impl<P: Send + 'static, R: Send + 'static> Lane<P, R> for StreamSession<P, R> {
    fn feed(&mut self, input: P) {
        StreamSession::feed(self, input)
    }
    fn next(&mut self) -> Result<R, EngineError> {
        self.next_result().expect("an item is outstanding")
    }
}

impl<P: Send + 'static, R: Send + 'static> Lane<P, R> for AdaptiveSession<P, R> {
    fn feed(&mut self, input: P) {
        AdaptiveSession::feed(self, input)
    }
    fn next(&mut self) -> Result<R, EngineError> {
        self.next_result().expect("an item is outstanding")
    }
}

struct SubmitLane<'a, P, R> {
    engine: &'a Engine,
    skel: &'a Skel<P, R>,
    futures: VecDeque<SkelFuture<R>>,
}

impl<P: Send + 'static, R: Send + 'static> Lane<P, R> for SubmitLane<'_, P, R> {
    fn feed(&mut self, input: P) {
        self.futures.push_back(self.engine.submit(self.skel, input));
    }
    fn next(&mut self) -> Result<R, EngineError> {
        self.futures
            .pop_front()
            .expect("an item is outstanding")
            .get()
    }
}

struct RegistryLane<P, R> {
    registry: ServeRegistry<P, R>,
    tenant: TenantId,
}

impl<P: Send + 'static, R: Send + 'static> Lane<P, R> for RegistryLane<P, R> {
    fn feed(&mut self, input: P) {
        let admission = self.registry.feed(self.tenant, input);
        assert_eq!(
            admission,
            Admission::Submitted,
            "the rung's quota covers its window"
        );
    }
    fn next(&mut self) -> Result<R, EngineError> {
        self.registry
            .next_result(self.tenant)
            .expect("an item is outstanding")
    }
}

/// `ShardedServe` has no blocking collect: the client polls
/// `take_ready`, yielding the core between polls.
struct ShardedLane<P, R> {
    serve: ShardedServe<P, R>,
    tenant: TenantId,
    ready: VecDeque<Result<R, EngineError>>,
}

impl<P: Send + 'static, R: Send + 'static> Lane<P, R> for ShardedLane<P, R> {
    fn feed(&mut self, input: P) {
        let admission = self.serve.feed(self.tenant, input);
        assert_eq!(
            admission,
            Admission::Submitted,
            "the rung's quota covers its window"
        );
    }
    fn next(&mut self) -> Result<R, EngineError> {
        loop {
            if let Some(r) = self.ready.pop_front() {
                return r;
            }
            self.ready.extend(self.serve.take_ready(self.tenant));
            if self.ready.is_empty() {
                std::thread::yield_now();
            }
        }
    }
}

/// What one timed slice of one rung produced.
#[derive(Default)]
pub struct SliceOut {
    pub items: u64,
    pub failed: u64,
    /// Wall time as measured, and scaled to the nominal clock.
    pub ns: u64,
    pub nominal_ns: f64,
    /// feed → collected, per item (nominal once [`SliceOut::at_clock`]
    /// has run).
    pub latency_ns: Vec<u32>,
    pub events: u64,
    pub analyses: u64,
    pub safe_points: u64,
    pub evaluations: u64,
}

impl SliceOut {
    /// Scales the slice's times to the nominal clock (see `host.rs`).
    fn at_clock(mut self, clock: f64) -> Self {
        self.nominal_ns = self.ns as f64 * clock;
        for l in &mut self.latency_ns {
            *l = (*l as f64 * clock) as u32;
        }
        self
    }

    pub fn items_per_s(&self) -> f64 {
        self.items as f64 / (self.nominal_ns.max(1.0) / 1e9)
    }

    pub fn ns_per_item(&self) -> f64 {
        self.nominal_ns / self.items.max(1) as f64
    }

    fn merge(&mut self, other: SliceOut) {
        self.items += other.items;
        self.failed += other.failed;
        self.ns += other.ns;
        self.nominal_ns += other.nominal_ns;
        self.latency_ns.extend(other.latency_ns);
        self.events += other.events;
        self.analyses += other.analyses;
        self.safe_points += other.safe_points;
        self.evaluations += other.evaluations;
    }
}

/// The closed loop: fill the window, then one out → check → one in
/// until `dur_ns` has passed, then drain. Every result is compared with
/// the sequential reference's answer for the same input.
fn drive<P: Clone, R: PartialEq>(
    lane: &mut dyn Lane<P, R>,
    prog: &Prog<P, R>,
    window: usize,
    dur_ns: u64,
    span_names: (&'static str, &'static str),
    mut spans: Option<&mut Spans>,
) -> SliceOut {
    let mut out = SliceOut::default();
    // (input index, fed at, the item's root span)
    let mut pending: VecDeque<(usize, u64, u32)> = VecDeque::with_capacity(window);
    let mut next_input = 0usize;
    let started = now_ns();
    let deadline = started + dur_ns;
    let mut feeding = true;
    loop {
        while feeding && pending.len() < window {
            let idx = next_input % prog.inputs.len();
            let item = out.items + pending.len() as u64;
            next_input += 1;
            let input = prog.inputs[idx].clone();
            let fed_at = now_ns();
            lane.feed(input);
            let root = match spans.as_deref_mut() {
                Some(s) => {
                    let root = s.open("gen.item", fed_at, NO_PARENT, item);
                    s.push(span_names.0, fed_at, now_ns(), root, item);
                    root
                }
                None => NO_PARENT,
            };
            pending.push_back((idx, fed_at, root));
        }
        let Some((idx, fed_at, root)) = pending.pop_front() else {
            break;
        };
        let wait_from = if spans.is_some() { now_ns() } else { 0 };
        let result = lane.next();
        let now = now_ns();
        if let Some(s) = spans.as_deref_mut() {
            s.push(span_names.1, wait_from, now, root, out.items);
            s.close(root, now);
        }
        if !matches!(&result, Ok(r) if *r == prog.expected[idx]) {
            complain(|| format!("{} item {}: {:?}", prog.name, out.items, result.err()));
            out.failed += 1;
        }
        out.items += 1;
        out.latency_ns.push(ns32(now - fed_at));
        feeding = now < deadline;
    }
    out.ns = now_ns() - started;
    out
}

impl<P, R> Prog<P, R>
where
    P: Clone + Send + 'static,
    R: PartialEq + Send + 'static,
{
    /// Nominal ns per item of `Skel::apply` on the generator thread.
    fn seq_ref(&self, dur_ns: u64) -> f64 {
        let mut laps = Laps::start(Probe::Main);
        let started = now_ns();
        let mut items = 0u64;
        loop {
            for (input, want) in self.inputs.iter().zip(&self.expected) {
                let got = std::hint::black_box(self.skel.apply(input.clone()));
                assert!(got == *want, "the sequential reference is deterministic");
            }
            items += self.inputs.len() as u64;
            let now = now_ns();
            if now - started >= dur_ns {
                return (now - started) as f64 * laps.lap() / items as f64;
            }
        }
    }

    /// Runs `rung` on `engine` for `dur_ns`. Listeners the rung needs are
    /// registered before the first feed and removed after the drain, so
    /// one engine can serve plain and monitored slices back to back.
    pub fn run(
        &self,
        engine: &Engine,
        rung: Rung,
        window: usize,
        dur_ns: u64,
        spans: Option<&mut Spans>,
    ) -> SliceOut {
        use Rung::*;
        let events = Arc::new(AtomicU64::new(0));
        let trigger = TriggerEngine::new(0.5);
        let controller = Arc::clone(&self.controller);
        let analyses_before = controller.analyses();
        let mut listeners: Vec<Arc<dyn Listener>> = Vec::new();
        match rung {
            Noop => listeners.push(Arc::new(FnListener(|_: &mut Payload<'_>, _: &Event| {}))),
            CountEvents => {
                let events = Arc::clone(&events);
                listeners.push(Arc::new(FnListener(
                    move |_: &mut Payload<'_>, _: &Event| {
                        events.fetch_add(1, Ordering::Relaxed);
                    },
                )));
            }
            Controller => listeners.push(controller.clone()),
            Trigger | Adaptive => listeners.push(trigger.clone()),
            AdaptiveControlled => {
                listeners.push(trigger.clone());
                listeners.push(controller.clone());
            }
            Submit | Stream | Registry | Sharded | ShardedAdaptive => {}
        }
        for l in &listeners {
            engine.registry().add_listener(Arc::clone(l));
        }
        if matches!(rung, Adaptive | AdaptiveControlled | ShardedAdaptive) {
            silent_rules(&trigger, &self.skel);
        }
        // Room for the window with the default quota's slack on top.
        let policy = AdmissionPolicy::default().max_in_flight(window.max(64));

        let go = |lane: &mut dyn Lane<P, R>, names| drive(lane, self, window, dur_ns, names, spans);
        let mut out = match rung {
            Submit => {
                let mut lane = SubmitLane {
                    engine,
                    skel: &self.skel,
                    futures: VecDeque::new(),
                };
                go(&mut lane, ("engine.submit", "engine.get"))
            }
            Stream | Noop | CountEvents | Controller | Trigger => {
                let mut lane = StreamSession::new(engine, &self.skel).max_in_flight(window);
                go(&mut lane, ("engine.feed", "engine.wait"))
            }
            Adaptive | AdaptiveControlled => {
                let mut lane = AdaptiveSession::new(engine, &self.skel, trigger.clone())
                    .max_in_flight(window)
                    .input_size(self.size_of);
                let out = go(&mut lane, ("adapt.feed", "adapt.wait"));
                assert_eq!(lane.version(), 0, "a silent rule fired");
                out
            }
            Registry => {
                let mut registry = ServeRegistry::new(engine).with_policy(policy);
                let tenant = registry.register(&self.skel);
                go(
                    &mut RegistryLane { registry, tenant },
                    ("serve.feed", "serve.wait"),
                )
            }
            Sharded | ShardedAdaptive => {
                let serve = ShardedServe::new(engine, 1, policy);
                let tenant = if rung == Sharded {
                    serve.register(&self.skel)
                } else {
                    serve.register_adaptive(&self.skel, trigger.clone())
                };
                crate::util::threads_peak();
                let mut lane = ShardedLane {
                    serve,
                    tenant,
                    ready: VecDeque::new(),
                };
                let out = go(&mut lane, ("serve.feed", "serve.poll"));
                lane.serve.join();
                out
            }
        };
        for l in &listeners {
            engine.registry().remove_listener(l);
        }
        assert!(
            trigger.decision_log().is_empty(),
            "a silent rule left a decision"
        );
        out.events = events.load(Ordering::Relaxed);
        out.analyses = (controller.analyses() - analyses_before) as u64;
        out.safe_points = trigger.safe_points() as u64;
        out.evaluations = trigger.evaluations() as u64;
        out
    }
}

/// The object-safe face of [`Prog`], so `stream_fine` can hold its three
/// differently-typed programs in one list.
pub trait Program {
    fn name(&self) -> &'static str;
    fn seq_ref(&self, dur_ns: u64) -> f64;
    fn run(
        &self,
        engine: &Engine,
        rung: Rung,
        window: usize,
        dur_ns: u64,
        spans: Option<&mut Spans>,
    ) -> SliceOut;
}

impl<P, R> Program for Prog<P, R>
where
    P: Clone + Send + 'static,
    R: PartialEq + Send + 'static,
{
    fn name(&self) -> &'static str {
        self.name
    }
    fn seq_ref(&self, dur_ns: u64) -> f64 {
        Prog::seq_ref(self, dur_ns)
    }
    fn run(
        &self,
        engine: &Engine,
        rung: Rung,
        window: usize,
        dur_ns: u64,
        spans: Option<&mut Spans>,
    ) -> SliceOut {
        Prog::run(self, engine, rung, window, dur_ns, spans)
    }
}

/// A stream workload's fixed shape.
pub struct StreamWorkload {
    pub name: &'static str,
    pub window: usize,
    /// Which rung the *adaptive* slice runs.
    pub adaptive: Rung,
    programs: fn(&mut SplitMix64) -> Vec<Box<dyn Program>>,
}

pub const FINE: StreamWorkload = StreamWorkload {
    name: "stream_fine",
    window: WINDOW_FINE,
    adaptive: Rung::Adaptive,
    programs: |rng| {
        vec![
            Box::new(map_512(rng)),
            Box::new(dac_sort_512(rng)),
            Box::new(for_64(rng)),
        ]
    },
};

pub const COARSE: StreamWorkload = StreamWorkload {
    name: "stream_coarse",
    window: WINDOW_COARSE,
    adaptive: Rung::AdaptiveControlled,
    programs: |rng| vec![Box::new(mc_pi(rng))],
};

/// An engine as every workload uses it: `LP` workers, the pool's
/// timeline recording off (as in every throughput bench of the repo; it
/// appends two samples per task to an unbounded vector).
pub fn new_engine() -> Engine {
    let engine = Engine::new(LP);
    engine.pool().telemetry().set_recording(false);
    crate::util::threads_peak();
    engine
}

impl StreamWorkload {
    /// Builds the programs, their inputs and reference outputs, and
    /// starts the engine: what `setup_s` times.
    fn setup(&self, seed: u64) -> (Engine, Vec<Box<dyn Program>>) {
        let mut rng = SplitMix64::new(seed);
        let programs = (self.programs)(&mut rng);
        (new_engine(), programs)
    }

    /// One rung over every program in equal back-to-back time slices.
    fn slice(
        &self,
        engine: &Engine,
        programs: &[Box<dyn Program>],
        rung: Rung,
        dur_ns: u64,
        laps: &mut Laps,
        mut spans: Option<&mut Spans>,
    ) -> SliceOut {
        let mut total = SliceOut::default();
        for p in programs {
            let each = dur_ns / programs.len() as u64;
            let out = p.run(engine, rung, self.window, each, spans.as_deref_mut());
            total.merge(out.at_clock(laps.lap()));
        }
        total
    }

    /// The e2e pass: `REPS` × (plain slice, adaptive slice), hub and
    /// spans off; every figure is a median over the repetitions. The
    /// engine is replaced every `REPS / ENGINES` repetitions: how fast an
    /// engine's two workers and the client settle against each other
    /// differs from one engine to the next by more than from one
    /// repetition to the next, so a pass samples several.
    pub fn e2e(&self, scale: Scale) -> Report {
        let mut report = Report::default();
        let (first, programs) = timed_setup(
            &mut report,
            15,
            || self.setup(scale.seed),
            |(engine, _)| engine.shutdown(),
        );
        let slice_ns = scale.ns(1.0) / (2 * REPS as u64);
        let (mut plain_rate, mut adaptive_rate, mut overhead) =
            (Vec::new(), Vec::new(), Vec::new());
        let (mut p50, mut p90, mut raw_rate, mut clocks) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut engines = std::iter::once(first).chain(std::iter::repeat_with(new_engine));
        for _ in 0..ENGINES {
            let engine = engines.next().expect("the chain never ends");
            let mut laps = Laps::start(Probe::Pool(engine.pool(), LP));
            // Warm the pool, the allocator and the branch predictors.
            self.slice(
                &engine,
                &programs,
                self.adaptive,
                slice_ns / 4,
                &mut laps,
                None,
            );
            for _ in 0..REPS / ENGINES {
                let plain = self.slice(&engine, &programs, Rung::Stream, slice_ns, &mut laps, None);
                let mut adaptive =
                    self.slice(&engine, &programs, self.adaptive, slice_ns, &mut laps, None);
                report.absorb(plain.items + adaptive.items, plain.failed + adaptive.failed);
                raw_rate.push(adaptive.items as f64 / (adaptive.ns as f64 / 1e9));
                plain_rate.push(plain.items_per_s());
                adaptive_rate.push(adaptive.items_per_s());
                overhead.push(plain.items_per_s() / adaptive.items_per_s());
                p50.push(percentile(&mut adaptive.latency_ns, 0.50) as f64 / 1e3);
                p90.push(percentile(&mut adaptive.latency_ns, 0.90) as f64 / 1e3);
            }
            clocks.extend(laps.seen);
            engine.shutdown();
        }
        report.set("items_per_s", median(&adaptive_rate));
        report.raw_nums("clock", &clocks);
        report.raw_nums("items_per_s_adaptive_unscaled", &raw_rate);
        report.raw_nums("items_per_s_adaptive", &adaptive_rate);
        report.raw_nums("items_per_s_plain", &plain_rate);
        report.raw_nums("monitor_overhead_x", &overhead);
        report.raw_nums("latency_us_p50", &p50);
        report.raw_nums("latency_us_p90", &p90);
        report
    }

    /// The layer pass: the same pair of slices three ways (all recording
    /// off / hub on / hub and spans on), then — for `stream_fine` — the
    /// rung ladder, and for `stream_coarse` the LP 2 over LP 1 ratio.
    pub fn layers(&self, scale: Scale, spans: &mut Spans) -> Report {
        let mut report = Report::default();
        let (engine, programs) = self.setup(scale.seed);
        let hub = Arc::clone(engine.metrics_hub());
        let ladder = self.adaptive == Rung::Adaptive;
        let reps = 3u64;
        // 4 slices per repetition: plain, adaptive, adaptive with the
        // hub on, both with hub and spans on (the last counts twice).
        let slice_ns = scale.ns(if ladder { 0.4 } else { 0.8 }) / (5 * reps);
        let mut laps = Laps::start(Probe::Pool(engine.pool(), LP));
        self.slice(
            &engine,
            &programs,
            self.adaptive,
            slice_ns / 4,
            &mut laps,
            None,
        );

        let (mut plain_rate, mut overhead, mut hub_x, mut trace_x) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // Slices with the hub on (for its per-item counters), and the
        // adaptive ones among them (for the trigger's).
        let (mut hub_items, mut adaptive) = (0u64, SliceOut::default());
        let mut latency = (Vec::new(), Vec::new());
        let before = hub.snapshot();
        for _ in 0..reps {
            let laps = &mut laps;
            let plain = self.slice(&engine, &programs, Rung::Stream, slice_ns, laps, None);
            let quiet = self.slice(&engine, &programs, self.adaptive, slice_ns, laps, None);
            hub.set_enabled(true);
            let hubbed = self.slice(&engine, &programs, self.adaptive, slice_ns, laps, None);
            let plain_traced = self.slice(
                &engine,
                &programs,
                Rung::Stream,
                slice_ns,
                laps,
                Some(spans),
            );
            let both = self.slice(
                &engine,
                &programs,
                self.adaptive,
                slice_ns,
                laps,
                Some(spans),
            );
            hub.set_enabled(false);
            for s in [&plain, &quiet, &hubbed, &plain_traced, &both] {
                report.absorb(s.items, s.failed);
            }
            let mut quiet = quiet;
            latency
                .0
                .push(percentile(&mut quiet.latency_ns, 0.5) as f64 / 1e3);
            latency
                .1
                .push(percentile(&mut quiet.latency_ns, 0.9) as f64 / 1e3);
            plain_rate.push(plain.items_per_s());
            overhead.push(plain.items_per_s() / quiet.items_per_s());
            hub_x.push(quiet.items_per_s() / hubbed.items_per_s());
            trace_x.push(quiet.items_per_s() / both.items_per_s());
            hub_items += hubbed.items + plain_traced.items + both.items;
            adaptive.merge(hubbed);
            adaptive.merge(both);
        }
        let after = hub.snapshot();
        crate::write_out(
            &format!("{}.hub.json", self.name),
            &after.to_json().render(),
        );
        report.set("engine.items_per_s_plain", median(&plain_rate));
        report.set("events.monitor_overhead_x", median(&overhead));
        report.set("obs.hub_on_overhead_x", median(&hub_x));
        report.set("trace.overhead_x", median(&trace_x));
        report.set("latency.item_us_p50", median(&latency.0));
        report.set("latency.item_us_p90", median(&latency.1));
        report.raw_nums("engine.items_per_s_plain", &plain_rate);
        report.raw_nums("events.monitor_overhead_x", &overhead);
        report.raw_nums("obs.hub_on_overhead_x", &hub_x);
        report.raw_nums("trace.overhead_x", &trace_x);

        hub_metrics(&mut report, &before, &after, hub_items);
        let mut feed = spans.durations("engine.feed");
        let mut wait = spans.durations("engine.wait");
        report.set("engine.feed_call_ns_p50", percentile(&mut feed, 0.5) as f64);
        report.set("engine.wait_ns_p50", percentile(&mut wait, 0.5) as f64);
        report.set(
            "adapt.safe_points_per_item",
            adaptive.safe_points as f64 / adaptive.items as f64,
        );
        report.set(
            "adapt.evaluations_per_item",
            adaptive.evaluations as f64 / adaptive.items as f64,
        );
        if !ladder {
            let dur = scale.ns(0.1);
            let lp2 = self.slice(&engine, &programs, Rung::Stream, dur, &mut laps, None);
            engine.set_lp(1);
            let lp1 = self.slice(&engine, &programs, Rung::Stream, dur, &mut laps, None);
            engine.set_lp(LP);
            report.absorb(lp1.items + lp2.items, lp1.failed + lp2.failed);
            report.set(
                "engine.lp2_over_lp1_x",
                lp2.items_per_s() / lp1.items_per_s(),
            );
            let controlled = self.slice(
                &engine,
                &programs,
                Rung::Controller,
                dur / 2,
                &mut laps,
                None,
            );
            report.absorb(controlled.items, controlled.failed);
            report.set(
                "core.analyses_per_item",
                controlled.analyses as f64 / controlled.items as f64,
            );
        }
        report.set("host.clock_x", median(&laps.seen));
        report.raw_nums("clock", &laps.seen);
        // The ladder starts an engine (and a shard driver) per rung:
        // this one must be gone first, or the process would exceed its
        // `LP + shards + 1` threads.
        engine.shutdown();
        if ladder {
            self.ladder(scale, &programs, &mut report);
        }
        report
    }

    /// Every rung for every program, each on a fresh engine, each the
    /// median of three short slices; `Δ` metrics are for `map_512`.
    fn ladder(&self, scale: Scale, programs: &[Box<dyn Program>], report: &mut Report) {
        use Rung::*;
        const RUNGS: [Rung; 10] = [
            Submit,
            Stream,
            Noop,
            Controller,
            Trigger,
            Adaptive,
            Registry,
            Sharded,
            ShardedAdaptive,
            CountEvents,
        ];
        let budget = scale.ns(0.5);
        let slice_ns = budget / (programs.len() * (RUNGS.len() + 1) * 3) as u64;
        pool_rungs(report);
        for p in programs {
            let seq_ref = median(&[
                p.seq_ref(slice_ns),
                p.seq_ref(slice_ns),
                p.seq_ref(slice_ns),
            ]);
            let mut ns = std::collections::BTreeMap::new();
            for rung in RUNGS {
                let mut per_item = Vec::new();
                let mut last = SliceOut::default();
                for _ in 0..3 {
                    let engine = new_engine();
                    let mut laps = Laps::start(Probe::Pool(engine.pool(), LP));
                    last = p.run(&engine, rung, self.window, slice_ns, None);
                    last = last.at_clock(laps.lap());
                    engine.shutdown();
                    report.absorb(last.items, last.failed);
                    per_item.push(last.ns_per_item());
                }
                let value = median(&per_item);
                report.raw_num(&format!("ladder.{}.{rung:?}", p.name()), value);
                ns.insert(rung, value);
                if p.name() == "map_512" {
                    match rung {
                        CountEvents => report.set(
                            "events.emitted_per_item",
                            last.events as f64 / last.items as f64,
                        ),
                        Controller => report.set(
                            "core.analyses_per_item",
                            last.analyses as f64 / last.items as f64,
                        ),
                        _ => {}
                    }
                }
            }
            report.raw_num(&format!("ladder.{}.SeqRef", p.name()), seq_ref);
            let over_seq = ns[&Stream] / seq_ref;
            match p.name() {
                "map_512" => {
                    report.set("skeletons.seq_ref_ns_map_512", seq_ref);
                    report.set("engine.over_seq_x_map_512", over_seq);
                    report.set("engine.submit_ns_per_item", ns[&Submit]);
                    report.set("engine.stream_ns_per_item", ns[&Stream]);
                    report.set("events.noop_listener_delta_ns", ns[&Noop] - ns[&Stream]);
                    report.set("core.controller_delta_ns", ns[&Controller] - ns[&Noop]);
                    report.set("adapt.trigger_delta_ns", ns[&Trigger] - ns[&Noop]);
                    report.set("adapt.session_delta_ns", ns[&Adaptive] - ns[&Trigger]);
                    report.set("serve.registry_delta_ns", ns[&Registry] - ns[&Stream]);
                    report.set("serve.sharded_delta_ns", ns[&Sharded] - ns[&Registry]);
                    report.set(
                        "serve.adaptive_tenant_delta_ns",
                        ns[&ShardedAdaptive] - ns[&Sharded],
                    );
                }
                "dac_sort_512" => {
                    report.set("skeletons.seq_ref_ns_dac_sort_512", seq_ref);
                    report.set("engine.over_seq_x_dac_sort_512", over_seq);
                }
                "for_64" => {
                    report.set("skeletons.seq_ref_ns_for_64", seq_ref);
                    report.set("engine.over_seq_x_for_64", over_seq);
                }
                other => unreachable!("stream_fine has no program {other}"),
            }
        }
    }
}

/// The pool on its own: batch dispatch, the one-task wake floor, and a
/// 1 → 2 → 1 resize.
fn pool_rungs(report: &mut Report) {
    let engine = new_engine();
    let pool = engine.pool();
    let mut laps = Laps::start(Probe::Pool(pool, LP));
    let mut dispatch = Vec::new();
    for _ in 0..30 {
        let tasks: Vec<askel_pool::Task> = (0..1000)
            .map(|_| Box::new(|| {}) as askel_pool::Task)
            .collect();
        let started = now_ns();
        pool.submit_batch(tasks);
        pool.wait_idle();
        dispatch.push((now_ns() - started) as f64 / 1000.0);
    }
    let mut roundtrip = Vec::new();
    for _ in 0..2000 {
        let started = now_ns();
        pool.submit(Box::new(|| {}));
        pool.wait_idle();
        roundtrip.push((now_ns() - started) as f64);
    }
    pool.set_target_workers(1);
    let mut resize = Vec::new();
    for _ in 0..30 {
        let started = now_ns();
        pool.set_target_workers(2);
        pool.set_target_workers(1);
        resize.push((now_ns() - started) as f64);
    }
    pool.set_target_workers(LP);
    let clock = laps.lap();
    engine.shutdown();
    report.set("pool.dispatch_ns_per_task", median(&dispatch) * clock);
    report.set("pool.roundtrip_ns_p50", median(&roundtrip) * clock);
    report.set("pool.resize_cycle_ns", median(&resize) * clock);
}

/// The median of one of the hub's histograms; 0 if it recorded nothing.
pub fn hub_p50(snapshot: &MetricsSnapshot, name: &str) -> f64 {
    snapshot
        .histogram(name)
        .map_or(0.0, |h| h.percentile(0.5) as f64)
}

/// Hub counters per item and histogram medians over a traced stretch
/// (`after` minus `before` for counters; histograms only ever recorded
/// while the stretch had the hub on).
pub fn hub_metrics(
    report: &mut Report,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    items: u64,
) {
    let per_item = |name: &str| {
        let delta = after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        delta as f64 / items.max(1) as f64
    };
    let p50 = |name: &str| hub_p50(after, name);
    report.set("pool.parks_per_item", per_item("pool_parks_total"));
    report.set("pool.steals_per_item", per_item("pool_steals_total"));
    report.set(
        "pool.spin_rounds_per_item",
        per_item("pool_spin_rounds_total"),
    );
    report.set("pool.wake_latency_ns_p50", p50("pool_wake_latency_ns"));
    report.set("engine.queue_delay_ns_p50", p50("engine_queue_delay_ns"));
    report.set("engine.service_ns_p50", p50("engine_service_ns"));
    report.set("engine.span_ns_p50", p50("engine_span_ns"));
}
