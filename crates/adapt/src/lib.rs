//! Event-driven **self-configuration** for algorithmic skeletons:
//! structural rewriting of a running skeleton at stream safe points.
//!
//! The source paper promises two autonomic properties. Self-*optimization*
//! — tuning the Level of Parallelism against a WCT goal — lives in
//! `askel-core`. This crate adds the second: self-*configuration*, adapting
//! the *structure* of a skeleton in response to the same event stream, in
//! the spirit of behavioural skeletons (Aldinucci, Danelutto & Kilpatrick)
//! where an autonomic manager swaps pattern implementations while the
//! computation runs.
//!
//! The MAPE split mirrors `askel-core`'s:
//!
//! * **Monitor/Analyze** — [`TriggerEngine`], an ordinary event
//!   [`Listener`](askel_events::Listener) over an
//!   [`askel_core::Knowledge`]: per-muscle EWMA durations and
//!   cardinalities from the same state machines as the WCT controller —
//!   the controller's own, one table and one event log, when the engine
//!   is made for it ([`TriggerEngine::for_controller`]) — plus item
//!   outcomes and input-size hints that events cannot carry. It hears
//!   either every submission on a runtime (registered on its registry)
//!   or one session's alone (as that stream's session listener,
//!   `askel_engine::StreamSession::listener`, as each serve tenant's
//!   trigger does).
//! * **Plan** — [`Rule`]s ([`Promote`], [`FallbackSwap`], [`RetuneWidth`],
//!   [`RetuneGrain`], [`CostGuard`]) evaluated once per safe point, each
//!   proposing at most one [`RewriteAction`]. What every rule shares is
//!   decided once, by the [`Governed`] wrapper each constructor returns:
//!   name, [`Concern`] and priority, triggers, cooldown, fire-once
//!   retirement, damping against oscillating load ([`Hysteresis`]) and
//!   the coupling to the WCT controller's prediction machinery
//!   ([`crate::forecast`]: `forecast_gated` fires only on a forecast WCT
//!   improvement, audited predicted-vs-realized in the decision log).
//!   [`CostGuard`] holds spend to a budget (it opposes growth past what a
//!   [`NodeHoursMeter`] has charged). The trait is open: `askel-dist`
//!   adds the cluster-aware `Offload`, which re-places a subtree onto an
//!   underloaded node, and `ProvisioningPolicy`.
//! * **Execute** — [`TriggerEngine::safe_point`], the same engine again,
//!   over the tree the stream runs next: it first **arbitrates** the
//!   safe point's collected fires ([`crate::arbitration`]: conflicting
//!   actions on one knob or overlapping subtrees resolve under a
//!   [`ConflictPolicy`]; losers are logged as suppressed
//!   [`AdaptRecord`]s and re-armed), then applies the winning set
//!   **between stream items**: the tree is rebuilt persistently
//!   (`Skel::rewritten`), the version bumps, an `(After, Reconfigured)`
//!   event announces the change through the registry, an [`AdaptRecord`]
//!   lands in the decision log — symmetric to the controller's
//!   `AnalysisRecord` — and the knowledge is told once
//!   (`Knowledge::invalidate_estimates_for`): the replaced subtree's
//!   estimator history goes, so the next forecast is computed from the
//!   live tree, and a controller sharing the knowledge analyses the new
//!   tree.
//!
//! [`Adaptive`] packages the loop, once, over any
//! `askel_events::StreamRuntime`, built from a stream and a trigger
//! engine by [`Adaptive::over`]: harvest → in-flight bound → size hint
//! → [`TriggerEngine::safe_point`] → submit, the safe point reading the
//! tree it rewrites, the registry it announces through, the time and
//! the LP from the stream itself; the session keeps only a version
//! counter and its conflict policy. [`AdaptiveSession`] is that type over
//! `askel-engine`'s `StreamSession`. The same type over the
//! discrete-event simulator, where rewrite decisions — timestamps
//! included — replay deterministically and a seeded ordering policy
//! fuzzes the very `feed` the threads run, is `askel-dist`'s
//! `AdaptiveSimSession`: this crate never compiles the simulator.
//!
//! In-flight items always finish on the skeleton *tree* they were
//! submitted with (versions are immutable `Arc` trees), so a subtree
//! rewrite can never be observed mid-item; [`Knob`] retunes are the
//! documented exception — a knob is a live shared atomic, so its muscles
//! must be result-invariant across the knob's range (see [`Knob`]).
//! With no rules registered an [`AdaptiveSession`] is behaviourally
//! identical to a plain `StreamSession` (property-tested).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arbitration;
pub mod forecast;
mod metrics;
pub mod rules;
pub mod session;
pub mod trigger;

pub use arbitration::{arbitrate, ArbitrationOutcome, ConflictPolicy, Suppressed};
/// What a rule reads ([`Rule::reads`]), re-exported for rule authors.
pub use askel_events::Reads;
pub use forecast::Forecast;
pub use rules::{
    Concern, CostGuard, ErrorStats, FallbackSwap, Governed, Hysteresis, Knob, NodeHoursMeter,
    Promote, RetuneGrain, RetuneWidth, RewriteAction, Rule, RuleCtx, RuleFire, Trigger,
};
pub use session::{Adaptive, AdaptiveSession};
pub use trigger::{
    decision_log_to_chrome, AdaptRecord, PlannedRewrite, TriggerEngine, DECISION_LOG_CAPACITY,
};
