//! Multithreaded execution engine for algorithmic skeletons.
//!
//! This crate is the Rust counterpart of Skandium's runtime: it runs the
//! skeleton interpreter (`askel_events::interp` — shared, code for code,
//! with the simulator) over the resizable worker pool (`askel-pool`),
//! emitting the full event vocabulary of `askel-events` around every
//! muscle, **on the thread that executes the muscle** (the paper's thread
//! guarantee for listeners).
//!
//! Execution is continuation-passing over the pool's sharded
//! work-stealing queue (see `docs/ARCHITECTURE.md`). Data-parallel
//! kinds (`map`, `fork`, `d&C`) fan their children out through a join
//! counter: all children but the last go to the pool as one batch for
//! idle workers to steal, while the **last child — and each
//! single-continuation step (pipe stages, while/for iterations, the
//! join's merge) — runs inline on the worker that produced it**
//! (depth-capped, deferring to the pool's TLS next-task slot past the
//! cap). Steady-state chains therefore never touch the ready queue;
//! the pool's active-task count still tracks the paper's "number of
//! active threads" at fan-out/steal boundaries, and raising the LP
//! mid-run immediately gives new workers the batched children to take.
//!
//! The listener set is sampled when a submission starts: if no listener
//! is registered at that moment, the submission skips the entire event
//! path (instance ids, traces, emission) for its lifetime. Register
//! listeners before submitting. A subtree nobody reads and with no
//! fan-out in it (only `seq`/`farm`/`pipe`/`if`/`for`/`while`) has no
//! parallelism to lose and no event to raise: it runs as one step, the
//! sequential reference's, on the worker that reaches it. A `map` or
//! `fork` whose children are all such subtrees (or bare `seq`s) runs them
//! over at most LP claimers, one child per claim, rather than a step each.
//!
//! ```
//! use askel_engine::Engine;
//! use askel_skeletons::{map, seq};
//!
//! let engine = Engine::new(2);
//! let program = map(
//!     |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
//!     seq(|v: Vec<i64>| v[0] * 10),
//!     |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
//! );
//! let future = engine.submit(&program, vec![1, 2, 3]);
//! assert_eq!(future.get().unwrap(), 60);
//! ```
//!
//! Failure model: a panicking muscle (or a structural error such as a
//! `fork` arity mismatch) *poisons the submission* — the future resolves to
//! an [`EngineError`], outstanding sibling tasks of that submission
//! short-circuit when they next start a step, and the pool workers
//! survive.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
mod exec;
pub mod future;
mod metrics;
pub mod stream;

use std::sync::Arc;

use askel_events::ListenerRegistry;
use askel_obs::MetricsHub;
use askel_pool::ResizablePool;
use askel_skeletons::{Clock, RealClock, Skel};

use metrics::EngineMetrics;

pub use error::EngineError;
pub use future::SkelFuture;
pub use stream::StreamSession;

/// The skeleton execution engine: a pool, a clock, and a listener registry.
///
/// Cloning shares the engine: clones submit to the same pool, emit
/// through the same listener registry and read the same clock. The pool
/// shuts down when the engine created by
/// [`Engine::new`]/[`Engine::with_clock`] is dropped — clones are
/// non-owning handles, which is what lets long-lived owned sessions
/// (`StreamSession`, the serving layer's per-tenant sessions) share one
/// engine without pinning a borrow.
pub struct Engine {
    pool: ResizablePool,
    registry: Arc<ListenerRegistry>,
    clock: Arc<dyn Clock>,
    metrics: Arc<EngineMetrics>,
}

impl Clone for Engine {
    fn clone(&self) -> Self {
        Engine {
            pool: self.pool.clone(),
            registry: Arc::clone(&self.registry),
            clock: Arc::clone(&self.clock),
            metrics: Arc::clone(&self.metrics),
        }
    }
}

impl Engine {
    /// Creates an engine with `workers` initial workers (the initial LP)
    /// and a real wall clock starting at zero.
    pub fn new(workers: usize) -> Self {
        Self::with_clock(workers, Arc::new(RealClock::new()))
    }

    /// Creates an engine over an explicit clock (tests use a manual one).
    pub fn with_clock(workers: usize, clock: Arc<dyn Clock>) -> Self {
        let pool = ResizablePool::with_clock(workers, Arc::clone(&clock));
        let metrics = EngineMetrics::register(pool.metrics_hub());
        Engine {
            pool,
            registry: ListenerRegistry::new(),
            clock,
            metrics,
        }
    }

    /// The listener registry; register non-functional concerns here.
    ///
    /// Register listeners **before** submitting: each submission looks at
    /// the registry once when it starts (see [`Engine::submit`]), and one
    /// that finds it empty emits nothing for its whole lifetime. One that
    /// finds a listener dispatches through the view it took then, and
    /// re-reads the registry only after a change — so a listener added
    /// or removed mid-item takes effect at that item's next event.
    pub fn registry(&self) -> &Arc<ListenerRegistry> {
        &self.registry
    }

    /// The worker pool (telemetry, direct task submission).
    pub fn pool(&self) -> &ResizablePool {
        &self.pool
    }

    /// The metrics hub shared by the pool and this engine.
    ///
    /// Disabled by default; call `set_enabled(true)` to start recording
    /// pool counters and engine span histograms
    /// (`engine_queue_delay_ns` / `engine_service_ns` /
    /// `engine_span_ns`). Like the listener registry, the enabled flag
    /// is sampled once per submission: submissions already in flight
    /// when the flag flips keep their sampled decision.
    pub fn metrics_hub(&self) -> &Arc<MetricsHub> {
        self.pool.metrics_hub()
    }

    /// The engine clock (shared with pool telemetry and event timestamps).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Current level of parallelism (worker target).
    pub fn lp(&self) -> usize {
        self.pool.target_workers()
    }

    /// Changes the level of parallelism while skeletons run: growth is
    /// immediate, shrink is cooperative (running muscles finish).
    pub fn set_lp(&self, lp: usize) {
        self.pool.set_target_workers(lp);
    }

    /// Submits one input to a skeleton; returns immediately with a future
    /// (the paper's `skeleton.input(p) → Future<R>`).
    ///
    /// Multiple submissions may be in flight concurrently; they share the
    /// pool, so pipeline stages of different inputs overlap naturally.
    ///
    /// The listener set is sampled **now, once for the submission's whole
    /// lifetime**: a submission started while the registry is empty emits
    /// no events, even if listeners are registered later while it runs.
    /// (This is deliberate — an empty registry lets the submission skip
    /// instance ids, trace extension and emission entirely.) Register
    /// listeners before submitting.
    pub fn submit<P, R>(&self, skel: &Skel<P, R>, input: P) -> SkelFuture<R>
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        exec::submit(self, skel, input, None)
    }

    /// Submits a batch of inputs to one skeleton in a single pool
    /// transaction, returning one future per input (in input order).
    ///
    /// Semantically identical to calling [`Engine::submit`] once per
    /// input, but the root steps of all inputs are handed to the pool
    /// through one `ResizablePool::submit_batch` call — one queue-lock
    /// acquisition and one worker wake-up sweep for the whole batch —
    /// amortizing the per-submission dispatch floor across items. The
    /// listener registry is sampled once for the batch; as with
    /// `submit`, register listeners before submitting.
    pub fn submit_batch<P, R>(&self, skel: &Skel<P, R>, inputs: Vec<P>) -> Vec<SkelFuture<R>>
    where
        P: Send + 'static,
        R: Send + 'static,
    {
        exec::submit_batch(self, skel, inputs, None)
    }

    /// Shuts the pool down, finishing queued work first.
    pub fn shutdown(&self) {
        self.pool.shutdown_and_join();
    }
}
