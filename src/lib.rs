//! # autonomic-skeletons
//!
//! Self-configuring and self-optimizing algorithmic skeletons driven by
//! events — a Rust reproduction of Pabón & Henrio, *Self-Configuration and
//! Self-Optimization Autonomic Skeletons using Events* (PMAM 2014), built
//! on a from-scratch Skandium-style skeleton runtime.
//!
//! ## The stack
//!
//! | layer | crate | what it does |
//! |-------|-------|--------------|
//! | skeleton language | [`skeletons`] | typed, nestable `seq`/`farm`/`pipe`/`while`/`if`/`for`/`map`/`fork`/`d&C` with Execute/Split/Merge/Condition muscles |
//! | events | [`events`] | statically-defined events around every muscle, delivered on the muscle's thread; listeners may transform partial solutions |
//! | pool | [`pool`] | a worker pool whose size (the Level of Parallelism, LP) changes while work runs |
//! | threaded engine | [`engine`] | the threaded runtime for the one skeleton interpreter ([`events::interp`]): guarded continuation-passing steps over the pool |
//! | simulator | [`sim`] | the discrete-event runtime for the same interpreter: virtual time, pluggable cost models and ordering policies (deterministic replay, or seeded-ordering fuzzing) |
//! | autonomic layer | [`core`] | EWMA estimators, event state machines, Activity Dependency Graphs, best-effort/limited-LP strategies, and the WCT/LP controller |
//! | self-configuration | [`adapt`] | structural rewrite rules (promotion, fallback-swap, width/grain retuning, cost guard) arbitrated across concerns and applied at stream safe points, with `Reconfigured` events and a decision log |
//! | simulated clusters | [`dist`] | local and remote nodes as a simulator worker model, node provisioning, the `Offload` rule and the adaptive session over the simulator |
//! | serving | [`serve`] | multi-tenant session registry over one shared pool: admission control, batched ingestion, per-tenant autonomic loops for adaptive tenants and bare stream sessions for plain ones, with structure-keyed estimator sharing |
//! | observability | [`obs`] | one metrics hub across the stack: counters, gauges, log-bucketed histograms, Prometheus/JSON exporters, and a `chrome://tracing` timeline writer |
//! | workloads | [`workloads`] | synthetic tweet corpus, word count, numeric kernels |
//!
//! ## Quickstart
//!
//! ```
//! use autonomic_skeletons::prelude::*;
//!
//! // map(fs, seq(fe), fm): square in parallel, then sum.
//! let program: Skel<Vec<i64>, i64> = map(
//!     |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
//!     seq(|v: Vec<i64>| v[0] * v[0]),
//!     |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
//! );
//! let engine = Engine::new(2);
//! let future = engine.submit(&program, vec![1, 2, 3, 4]);
//! assert_eq!(future.get().unwrap(), 30);
//! ```
//!
//! ## Autonomic execution
//!
//! [`AutonomicEngine`] (real threads) and [`AutonomicSim`] (virtual time)
//! wire a skeleton, an engine and an [`core::AutonomicController`]
//! together: give them a Wall-Clock-Time goal and a thread cap, and the
//! controller monitors execution through events, estimates the remaining
//! time with Activity Dependency Graphs, and resizes the LP to meet the
//! goal — while the skeleton runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use askel_adapt as adapt;
pub use askel_core as core;
pub use askel_dist as dist;
pub use askel_engine as engine;
pub use askel_events as events;
pub use askel_obs as obs;
pub use askel_pool as pool;
pub use askel_serve as serve;
pub use askel_sim as sim;
pub use askel_skeletons as skeletons;
pub use askel_workloads as workloads;

use std::sync::Arc;

use askel_core::{AutonomicController, ControllerConfig, FnActuator, Snapshot};
use askel_engine::{Engine, SkelFuture};
use askel_sim::cost::CostModel;
use askel_sim::{SimEngine, SimError, SimOutcome};
use askel_skeletons::Skel;

/// The items almost every user wants in scope.
pub mod prelude {
    pub use askel_adapt::{
        AdaptRecord, AdaptiveSession, Concern, ConflictPolicy, CostGuard, FallbackSwap, Forecast,
        Hysteresis, Knob, NodeHoursMeter, Promote, RetuneGrain, RetuneWidth, Trigger,
        TriggerEngine,
    };
    pub use askel_core::{
        AutonomicController, ControllerConfig, DecisionReason, DecreasePolicy, RaisePolicy,
        Snapshot,
    };
    pub use askel_dist::{
        sim_session, AdaptiveSimSession, Cluster, ClusterTelemetry, NodeSpec, Offload,
        ProvisioningPolicy,
    };
    pub use askel_engine::{Engine, EngineError, SkelFuture, StreamSession};
    pub use askel_events::{EventFilter, FnListener, Listener, Payload, When, Where};
    pub use askel_obs::{ChromeTrace, HistogramSnapshot, MetricsHub, MetricsSnapshot};
    pub use askel_serve::{
        Admission, AdmissionPolicy, BatchAdmission, RejectReason, ServeRegistry, ShardedServe,
        SharedEstimators, TenantId, TenantStats,
    };
    pub use askel_sim::components::{Command, Component};
    pub use askel_sim::cost::{JitterCost, LinearCost, PerMuscleCost, TableCost, ZeroCost};
    pub use askel_sim::{OrderingPolicy, SimEngine, SimOutcome, StreamReport};
    pub use askel_skeletons::{
        dac, farm, fork, map, pipe, seq, sfor, sif, swhile, Clock, MuscleId, MuscleRole, Skel,
        TimeNs,
    };

    pub use crate::{AutonomicEngine, AutonomicSim};
}

/// A threaded engine with an autonomic controller attached to one skeleton.
///
/// The controller observes the skeleton's events, and grows/shrinks the
/// engine's worker pool to meet the configured WCT goal.
pub struct AutonomicEngine<P, R> {
    engine: Engine,
    controller: Arc<AutonomicController>,
    skel: Skel<P, R>,
}

impl<P, R> AutonomicEngine<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// Wires `skel`, a fresh engine (at `config.initial_lp` workers) and a
    /// controller together.
    pub fn new(skel: Skel<P, R>, config: ControllerConfig) -> Self {
        let engine = Engine::new(config.initial_lp);
        let pool = engine.pool().clone();
        let controller = AutonomicController::new(
            skel.node().clone(),
            config,
            Arc::new(FnActuator(move |lp| pool.set_target_workers(lp))),
        );
        engine.registry().add_listener(controller.clone());
        AutonomicEngine {
            engine,
            controller,
            skel,
        }
    }

    /// Initializes the estimators from a previous run's snapshot (the
    /// paper's "with initialization" scenario).
    pub fn init_estimates(&self, snapshot: &Snapshot) {
        self.controller.init_estimates(snapshot);
    }

    /// Submits one input; the controller supervises the run.
    pub fn submit(&self, input: P) -> SkelFuture<R> {
        self.engine.submit(&self.skel, input)
    }

    /// The underlying engine (registry, pool, telemetry).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The controller (decision log, estimates, snapshots).
    pub fn controller(&self) -> &Arc<AutonomicController> {
        &self.controller
    }

    /// The supervised skeleton.
    pub fn skeleton(&self) -> &Skel<P, R> {
        &self.skel
    }

    /// Shuts the engine down.
    pub fn shutdown(&self) {
        self.engine.shutdown();
    }
}

/// A simulated engine with an autonomic controller attached to one
/// skeleton — the deterministic twin of [`AutonomicEngine`].
pub struct AutonomicSim<P, R> {
    sim: SimEngine,
    controller: Arc<AutonomicController>,
    skel: Skel<P, R>,
}

impl<P, R> AutonomicSim<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// Wires `skel`, a simulator (at `config.initial_lp` workers, costs
    /// from `cost`) and a controller together.
    pub fn new(skel: Skel<P, R>, config: ControllerConfig, cost: Arc<dyn CostModel>) -> Self {
        let sim = SimEngine::new(config.initial_lp, cost);
        let lp = sim.lp_control();
        let controller = AutonomicController::new(
            skel.node().clone(),
            config,
            Arc::new(FnActuator(move |n| lp.request(n))),
        );
        sim.registry().add_listener(controller.clone());
        AutonomicSim {
            sim,
            controller,
            skel,
        }
    }

    /// Initializes the estimators from a previous run's snapshot.
    pub fn init_estimates(&self, snapshot: &Snapshot) {
        self.controller.init_estimates(snapshot);
    }

    /// Runs one input to completion in virtual time.
    pub fn run(&mut self, input: P) -> Result<SimOutcome<R>, SimError> {
        self.sim.run(&self.skel, input)
    }

    /// The underlying simulator (telemetry, clock).
    pub fn sim(&self) -> &SimEngine {
        &self.sim
    }

    /// The controller (decision log, estimates, snapshots).
    pub fn controller(&self) -> &Arc<AutonomicController> {
        &self.controller
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use askel_skeletons::TimeNs;
    use std::sync::Arc;

    fn fan(n: i64) -> Skel<Vec<i64>, i64> {
        let _ = n;
        map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        )
    }

    #[test]
    fn autonomic_sim_raises_lp_to_meet_goal() {
        let program = fan(8);
        // Every muscle costs 1s; 8 children; sequential = 10s. Goal 5s
        // needs more than one worker. A flat map cannot adapt cold (its
        // merge — the last muscle — is also the last estimate to arrive,
        // exactly the gate the paper describes), so initialize the
        // estimators like the paper's second scenario.
        let cost = Arc::new(TableCost::new(TimeNs::from_secs(1)));
        let config = ControllerConfig::new(TimeNs::from_secs(5), 16).initial_lp(1);
        let muscles = program.node().collect_muscles();
        let mut auto = AutonomicSim::new(program, config, cost);
        auto.controller().knowledge().with_estimates(|est| {
            for d in &muscles {
                est.init_duration(d.id, TimeNs::from_secs(1));
                if d.id.role == MuscleRole::Split {
                    est.init_cardinality(d.id, 8.0);
                }
            }
        });
        let out = auto.run((1..=8).collect()).unwrap();
        assert_eq!(out.result, 36);
        assert!(
            out.wct <= TimeNs::from_secs(6),
            "adapted run must land near its goal; wct {}",
            out.wct
        );
        let decisions = auto.controller().decisions();
        let peak = decisions.iter().map(|d| d.to_lp).max().unwrap_or(1);
        assert!(
            peak > 1,
            "controller must have raised the LP: {decisions:?}"
        );
    }

    #[test]
    fn autonomic_engine_runs_and_reports() {
        let program = fan(4);
        let config = ControllerConfig::new(TimeNs::from_secs(10), 4).initial_lp(2);
        let auto = AutonomicEngine::new(program, config);
        let got = auto.submit(vec![1, 2, 3, 4]).get().unwrap();
        assert_eq!(got, 10);
        auto.shutdown();
    }
}
