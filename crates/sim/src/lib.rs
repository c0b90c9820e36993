//! Deterministic discrete-event simulation of skeleton execution.
//!
//! The paper's evaluation ran on a 12-core / 24-thread Xeon; the autonomic
//! *mechanism*, however, is platform independent (the paper says so
//! explicitly, §4/§6). This crate provides that platform as a simulator: a
//! second runtime under the one skeleton interpreter
//! (`askel_events::interp`) that `askel-engine` runs on threads. The
//! per-kind control flow, the event sequences and the fan-out/join logic
//! are therefore the same code; the simulator supplies the machine — the
//! same listener registry, the same LIFO / no-preemption scheduling
//! discipline — with **virtual** time: muscle durations come from a
//! [`cost::CostModel`] and a [`ManualClock`] advances through a
//! completion-event queue.
//!
//! Why this exists:
//!
//! * the evaluation figures (Figs. 5–7) need 24 hardware threads to
//!   reproduce; the simulator provides any LP on any host, deterministically;
//! * the autonomic controller (`askel-core`) is a plain event listener with
//!   an LP actuator, so the *identical* controller code runs against either
//!   engine — the simulator changes only where timestamps come from.
//!
//! Internally the simulator is a priority-queue **discrete-event
//! scheduler** ([`sched`]): completions and ready tasks are ordered by
//! virtual timestamp, and *same-timestamp* ties are broken by a pluggable
//! [`OrderingPolicy`]. `Deterministic` (the default) reproduces the
//! historical stable schedule byte-for-byte; `SeededRandom(seed)`
//! permutes exactly the genuinely-concurrent events, turning the
//! simulator into a replay-exact concurrency **fuzzer** for the
//! adapt/offload decision stack (set the `ASKEL_SIM_SEED` env var to
//! reproduce a failing seed from the command line). Long-lived actors —
//! provisioning-policy review points, telemetry samplers — plug in as
//! [`components::Component`]s that tick on virtual time, and
//! [`SimEngine::run_stream`] (completion order) or a [`SimStream`]
//! (submission order) feeds a whole item stream through one persistent
//! simulated machine (thousands of nodes, millions of items, idle nodes
//! cost nothing).
//!
//! ```
//! use std::sync::Arc;
//! use askel_sim::{cost::TableCost, SimEngine};
//! use askel_skeletons::{map, seq, MuscleId, MuscleRole, TimeNs};
//!
//! let program = map(
//!     |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
//!     seq(|v: Vec<i64>| v[0]),
//!     |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
//! );
//! // Every muscle takes 1s of virtual time.
//! let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
//! let mut sim = SimEngine::new(2, cost);
//! let outcome = sim.run(&program, vec![1, 2, 3, 4]).unwrap();
//! assert_eq!(outcome.result, 10);
//! // split(1s) + 4 executes over 2 workers (2s) + merge(1s) = 4s
//! assert_eq!(outcome.wct, TimeNs::from_secs(4));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod components;
pub mod cost;
mod rt;
pub mod sched;
mod stream;
pub mod workers;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use askel_events::ListenerRegistry;
use askel_pool::PoolTelemetry;
use askel_skeletons::{Data, EvalError, ManualClock, Skel, TimeNs};

use components::Component;
use cost::CostModel;
use rt::SimRt;
pub use sched::OrderingPolicy;
pub use stream::SimStream;
use workers::{UniformWorkers, WorkerModel};

/// Why a simulated run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Structural error (same vocabulary as the reference interpreter).
    Eval(EvalError),
    /// A muscle, listener or continuation panicked; the panic was caught.
    MusclePanic(String),
    /// Work remained but no worker could ever pick it up (LP driven to 0).
    Stalled {
        /// Virtual time at which the simulation stalled.
        at: TimeNs,
        /// Ready tasks that could not start.
        ready: usize,
    },
    /// The root result failed to downcast (impossible through the typed
    /// API).
    WrongResultType,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Eval(e) => write!(f, "structural error: {e}"),
            SimError::MusclePanic(m) => write!(f, "muscle panicked: {m}"),
            SimError::Stalled { at, ready } => {
                write!(
                    f,
                    "simulation stalled at {at} with {ready} ready task(s) and LP 0"
                )
            }
            SimError::WrongResultType => write!(f, "root result had an unexpected type"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        SimError::Eval(e)
    }
}

/// Result of one simulated submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome<R> {
    /// The skeleton's result (computed by the real muscle functions).
    pub result: R,
    /// Virtual time at which the run started.
    pub started_at: TimeNs,
    /// Virtual time at which the result was delivered.
    pub finished_at: TimeNs,
    /// `finished_at - started_at`: the run's wall-clock time.
    pub wct: TimeNs,
}

/// Handle through which a listener (the autonomic controller) requests LP
/// changes while the simulation runs. Requests are applied at the current
/// virtual instant; shrinking never preempts running activities.
#[derive(Clone)]
pub struct SimLpControl {
    request: Arc<AtomicUsize>,
}

impl SimLpControl {
    const NONE: usize = usize::MAX;

    /// Requests that the LP become `lp`.
    pub fn request(&self, lp: usize) {
        self.request.store(lp, Ordering::SeqCst);
    }

    pub(crate) fn new() -> Self {
        SimLpControl {
            request: Arc::new(AtomicUsize::new(Self::NONE)),
        }
    }

    pub(crate) fn take(&self) -> Option<usize> {
        let v = self.request.swap(Self::NONE, Ordering::SeqCst);
        (v != Self::NONE).then_some(v)
    }
}

/// The discrete-event skeleton simulator.
///
/// Reusable: consecutive [`run`](SimEngine::run) calls share the clock
/// (time keeps advancing), the telemetry and the registry, so listeners
/// accumulate history across runs exactly as they would on a long-lived
/// engine.
pub struct SimEngine {
    rt: SimRt,
}

/// An item's erased outcome, downcast to the skeleton's result type.
fn typed<R: 'static>(outcome: Result<Data, SimError>) -> Result<R, SimError> {
    let data = outcome?;
    let result = data.downcast().map_err(|_| SimError::WrongResultType)?;
    Ok(*result)
}

impl SimEngine {
    /// A simulator with `lp` identical local workers and the given cost
    /// model.
    pub fn new(lp: usize, cost: Arc<dyn CostModel>) -> Self {
        Self::with_workers(Box::new(UniformWorkers::new(lp)), cost)
    }

    /// A simulator over an explicit worker model (heterogeneous clusters,
    /// per-slot communication overheads — see `askel-dist`).
    pub fn with_workers(workers: Box<dyn WorkerModel>, cost: Arc<dyn CostModel>) -> Self {
        SimEngine {
            rt: SimRt::new(cost, workers, OrderingPolicy::from_env()),
        }
    }

    /// Sets the same-timestamp [`OrderingPolicy`] (builder style). The
    /// default comes from [`OrderingPolicy::from_env`]: `Deterministic`
    /// unless the `ASKEL_SIM_SEED` env var names a fuzz seed.
    pub fn ordering(mut self, policy: OrderingPolicy) -> Self {
        self.rt.policy = policy;
        self.rt.restart();
        self
    }

    /// The listener registry (identical type to the threaded engine's).
    ///
    /// Register listeners **before** running. As on threads, a submission
    /// — one [`run`](SimEngine::run), or one item of a stream — looks at
    /// the registry once, when its root is scheduled; one that finds it
    /// empty raises no event for its whole life, one that finds a
    /// listener hands each event to whoever is registered when it is
    /// raised.
    pub fn registry(&self) -> &Arc<ListenerRegistry> {
        &self.rt.registry
    }

    /// The virtual clock.
    pub fn clock(&self) -> &Arc<ManualClock> {
        &self.rt.clock
    }

    /// Telemetry: active-activity timeline, peak LP, etc.
    pub fn telemetry(&self) -> &Arc<PoolTelemetry> {
        &self.rt.telemetry
    }

    /// The LP-request handle to hand to an autonomic controller.
    pub fn lp_control(&self) -> SimLpControl {
        self.rt.lp_control.clone()
    }

    /// Current LP (a pending request applies at the next scheduling round).
    pub fn lp(&self) -> usize {
        self.rt.workers.capacity()
    }

    /// Sets the LP from here on (clamped by the worker model); shrinking
    /// never preempts what is running.
    pub fn set_lp(&mut self, lp: usize) {
        self.rt.workers.set_capacity(lp);
        self.rt.rebuild_free();
    }

    /// Runs one submission to completion in virtual time.
    pub fn run<P, R>(&mut self, skel: &Skel<P, R>, input: P) -> Result<SimOutcome<R>, SimError>
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        self.rt.begin(&mut []);
        let started_at = self.rt.now;
        self.rt.submit(skel.node(), Box::new(input));
        let outcome = self.rt.wait();
        self.rt.end(&mut []);
        let (_, outcome) = outcome.expect("the item in flight finishes or fails");
        let result = typed(outcome)?;
        // What a listener asked for on the run's last event holds from
        // here, not from the next run's first scheduling round.
        self.rt.apply_lp_request();
        let finished_at = self.rt.now;
        Ok(SimOutcome {
            result,
            started_at,
            finished_at,
            wct: finished_at.saturating_sub(started_at),
        })
    }

    /// Streams items through one **persistent** simulated machine.
    ///
    /// Unlike repeated [`run`](SimEngine::run) calls — each a fresh run
    /// of the machine — worker occupancy, in-flight chains, and
    /// per-muscle invocation counters (cost-model `seq_no`s) all carry
    /// over from item to item, matching a long-lived threaded engine fed
    /// a stream. Up to `window` items are in flight at once; `window == 1`
    /// is strict lock-step (`source(i)` → run → `on_result(i)` →
    /// `source(i + 1)`).
    ///
    /// `source` is polled with the next item index and may return a
    /// different skeleton each time; `None` ends the stream. `on_result`
    /// observes every item in completion order. `components` tick on
    /// virtual time while work is in flight (see
    /// [`components::Component`]).
    ///
    /// A failure poisons the whole machine: every item in flight reports
    /// the same error and the queues reset (at `window == 1` that is
    /// plain per-item error reporting).
    /// A [`SimStream`] is the same stream collected in submission order.
    pub fn run_stream<P, R>(
        &mut self,
        window: usize,
        mut source: impl FnMut(usize) -> Option<(Skel<P, R>, P)>,
        mut on_result: impl FnMut(usize, Result<R, SimError>),
        components: &mut [Box<dyn Component>],
    ) -> StreamReport
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        let window = window.max(1);
        self.rt.begin(components);
        let mut open = true;
        loop {
            while open && self.rt.run.in_flight.len() < window {
                match source(self.rt.run.submitted) {
                    Some((skel, input)) => {
                        self.rt.submit(skel.node(), Box::new(input));
                    }
                    None => open = false,
                }
            }
            // Everything that finished together is reported before the
            // source is asked again.
            let Some(first) = self.rt.wait() else {
                break;
            };
            let mut next = Some(first);
            while let Some((index, outcome)) = next {
                on_result(index, typed(outcome));
                next = self.rt.try_next();
            }
        }
        self.rt.end(components)
    }
}

/// Scheduler totals for one [`SimEngine::run_stream`] call (or one
/// [`SimStream`] from `open` to `close`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// Items finished (successes and failures).
    pub items: usize,
    /// Scheduler events processed: work-step executions plus component
    /// ticks — the unit the throughput bench records per second.
    pub events: u64,
    /// Virtual time when the stream started.
    pub started_at: TimeNs,
    /// Virtual time when the stream drained.
    pub finished_at: TimeNs,
}
