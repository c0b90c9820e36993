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
//!   [`Listener`](askel_events::Listener): per-muscle EWMA durations and
//!   cardinalities (the same state machines as the WCT controller, and
//!   optionally *seeded from* a controller via
//!   [`TriggerEngine::seed_from`]), plus item outcomes and input-size
//!   hints that events cannot carry.
//! * **Plan** — [`Rule`]s ([`Promote`], [`FallbackSwap`], [`RetuneWidth`],
//!   [`RetuneGrain`], [`Offload`], [`CostGuard`]) evaluated once per safe
//!   point, each yielding at most one [`RewriteAction`]. Rules can be
//!   coupled to the WCT controller's prediction machinery
//!   ([`crate::forecast`]: `Promote::forecast_gated` /
//!   `RetuneWidth::forecast_gated` fire only on a forecast WCT
//!   improvement, audited predicted-vs-realized in the decision log),
//!   damped against oscillating load ([`Hysteresis`]), and made
//!   cluster-aware ([`Offload`] re-places a subtree onto an underloaded
//!   `askel-dist` node, pairing with `askel_dist::ProvisioningPolicy`
//!   for dynamic node provisioning; [`CostGuard`] opposes spend past a
//!   node-hours budget). Every rule carries a [`Concern`] and a
//!   priority.
//! * **Execute** — [`Reconfigurator`] first **arbitrates** the safe
//!   point's collected fires ([`crate::arbitration`]: conflicting
//!   actions on one knob or overlapping subtrees resolve under a
//!   [`ConflictPolicy`]; losers are logged as suppressed
//!   [`AdaptRecord`]s and re-armed), then applies the winning set to a
//!   [`VersionedSkel`] **between stream items**: the tree is rebuilt
//!   persistently (`Skel::rewritten`), the version bumps, an
//!   `(After, Reconfigured)` event announces the change through the
//!   registry, an [`AdaptRecord`] lands in the decision log — symmetric
//!   to the controller's `AnalysisRecord` — and estimator history for
//!   the replaced subtree is invalidated
//!   ([`TriggerEngine::invalidate_estimates_for`]) so the next forecast
//!   is computed from the live tree.
//!
//! [`Adaptive`] packages the loop, once, over any
//! `askel_events::StreamRuntime`: harvest → in-flight bound → size hint →
//! [`Reconfigurator::apply`] → submit. [`AdaptiveSession`] is that type
//! over `askel-engine`'s `StreamSession`; [`AdaptiveSimSession`] the same
//! type over the discrete-event simulator (`askel-sim`), where rewrite
//! decisions — timestamps included — replay deterministically, and where
//! a seeded ordering policy fuzzes the very `feed` the threads run.
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
pub use forecast::Forecast;
pub use rules::{
    Concern, CostGuard, ErrorStats, FallbackSwap, Hysteresis, Knob, Offload, Promote, RetuneGrain,
    RetuneWidth, RewriteAction, Rule, RuleCtx, RuleFire, Trigger,
};
pub use session::{Adaptive, AdaptiveSession, AdaptiveSimSession, Reconfigurator, VersionedSkel};
pub use trigger::{
    decision_log_to_chrome, AdaptRecord, PlannedRewrite, TriggerEngine, DECISION_LOG_CAPACITY,
};
