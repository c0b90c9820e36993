//! Multi-tenant serving: many adaptive sessions over one shared engine.
//!
//! Everything below `askel-serve` is single-session: one
//! [`AdaptiveSession`](askel_adapt::AdaptiveSession) owns one
//! [`TriggerEngine`](askel_adapt::TriggerEngine) and implicitly the whole
//! worker pool. This crate scales the paper's MAPE loop to *many* managed
//! skeletons at once — the direction Aldinucci, Danelutto & Kilpatrick
//! take with hierarchies of autonomic managers over many behavioural
//! skeleton instances:
//!
//! * **[`ServeRegistry`]** shards per-tenant sessions over one shared
//!   [`Engine`](askel_engine::Engine)/pool, with per-tenant admission
//!   quotas ([`AdmissionPolicy`]) and a starvation-free round-robin
//!   drain ([`ServeRegistry::drain_cycle`]).
//! * **Batched ingestion** ([`ServeRegistry::feed_batch`]) rides the
//!   engine's batched submission path end to end: one pool transaction
//!   per bound-sized chunk instead of one per item, amortizing the
//!   per-submission dispatch floor across a whole ingress call.
//! * **[`ShardedServe`]** splits the tenant population over `N`
//!   independent registry shards (pure hash of [`TenantId`] — nothing
//!   to rebalance), each owned by its own driver thread running the
//!   feed→drain→harvest loop, all over the **one** shared engine, one
//!   metrics hub, and one cross-shard estimator pool.
//! * **Per-tenant monitoring, pooled knowledge**: an adaptive tenant's
//!   trigger engine's knowledge is its own stream's session listener
//!   ([`StreamSession::listener`](askel_engine::StreamSession::listener)),
//!   so it hears every event of exactly that tenant's items — the paper's listener
//!   attached to the skeleton run it steers — and the engine's registry
//!   stays empty, leaving plain tenants unobserved. [`SharedEstimators`]
//!   pools estimator history across tenants by **skeleton structure**
//!   ([`Skel::structure_key`](askel_skeletons::Skel::structure_key)):
//!   tenant N's observations warm tenant N+1's forecast gates when —
//!   and only when — they run structurally identical programs, clones
//!   of one `Skel` included. Safe-point arbitration stays strictly per
//!   tenant.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod admission;
mod estimators;
mod metrics;
mod registry;
mod shard;

pub use admission::{Admission, AdmissionPolicy, BatchAdmission, RejectReason};
pub use estimators::SharedEstimators;
pub use registry::{ServeRegistry, TenantId, TenantStats};
pub use shard::ShardedServe;
