//! Autonomic layer for algorithmic skeletons — the primary contribution of
//! Pabón & Henrio, *Self-Configuration and Self-Optimization Autonomic
//! Skeletons using Events* (PMAM 2014).
//!
//! The paper's pipeline, crate-module by crate-module:
//!
//! 1. [`estimate`] — history-based estimators for muscle durations `t(m)`
//!    and cardinalities `|m|`:
//!    `newEst = ρ·lastActual + (1−ρ)·prevEst` (default ρ = 0.5), with
//!    snapshot/initialization support;
//! 2. [`tracker`] — per-instance state machines (the paper's Figs. 3–4,
//!    extended to all nine skeleton kinds) consuming the event stream,
//!    updating the estimators and recording the live execution;
//! 3. [`adg`] — the Activity Dependency Graph (Fig. 1): actual activities
//!    plus a predictive expansion of the remaining structure;
//! 4. [`strategy`] — the *best effort* (infinite LP) and *limited LP*
//!    (list-scheduling) completion-time estimators, the optimal-LP
//!    computation and the Fig. 2 timeline;
//! 5. [`controller`] — the Wall-Clock-Time QoS loop: raise the LP to the
//!    minimal sufficient value when the goal is endangered, halve it when
//!    the goal is safe at half the threads.
//!
//! Everything here is engine-agnostic: the controller is an
//! [`askel_events::Listener`] plus an [`controller::LpActuator`], so the
//! identical autonomic code runs on the multithreaded engine
//! (`askel-engine`) and on the deterministic simulator (`askel-sim`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adg;
pub mod controller;
pub mod estimate;
pub mod strategy;
pub mod tracker;

/// The dependency-free JSON module estimator snapshots are written in;
/// it lives in the leaf crate `askel-obs`.
pub use askel_obs::json;

pub use adg::{ActState, Activity, Adg, AdgBuilder, AdgWorkspace};
pub use controller::{
    AnalysisRecord, AutonomicController, ControllerConfig, Decision, DecisionReason,
    DecreasePolicy, FnActuator, LpActuator, RaisePolicy, ANALYSIS_LOG_CAPACITY,
};
pub use estimate::{EstimatorTable, Ewma, Snapshot, SnapshotEntry};
pub use strategy::{
    best_effort, limited_lp, optimal_lp, predictive_wct, Layouts, Schedule, Scheduler,
    TimelinePoint,
};
pub use tracker::{CondSpan, InstanceRecord, SmTracker, Span};
