//! Unified observability for autonomic skeletons.
//!
//! The paper's premise is event-driven introspection of skeleton
//! execution; this crate is where every concern's signals land so they
//! can be queried and exported together. It provides:
//!
//! * [`MetricsHub`] — a process-local registry of named metrics with
//!   one shared enable gate. Handles ([`Counter`], [`Gauge`],
//!   [`Histogram`]) are registered once and recorded through
//!   lock-free; while the hub is disabled (the default) every record
//!   collapses to one relaxed load and a branch, the same shape as the
//!   engine's listener-sampling fast path.
//! * [`HistogramSnapshot`] — a plain log-bucketed histogram with exact
//!   count conservation under [`merge`](HistogramSnapshot::merge) and
//!   bounded-error `p50/p95/p99` queries; the single shared latency
//!   math for benches, per-tenant sojourns, and exports.
//! * [`MetricsSnapshot`] — a point-in-time copy of everything, with
//!   Prometheus text and JSON exporters (round-trippable via
//!   [`MetricsSnapshot::from_json`]).
//! * [`ChromeTrace`] — a `chrome://tracing` timeline writer fed from
//!   the pool's `TelemetrySample` streams and the adapt layer's
//!   decision logs.
//!
//! The instrumented call sites live upstream: the pool records wake
//! latency, steal/park/spin counts, and queue depth; the engine records
//! submit→start→finish span durations; the serve registry records
//! per-tenant sojourn histograms and admission outcomes; the trigger
//! engine records rule fires and predicted-vs-realized forecast error.
//! They all share the pool's hub, so one
//! [`MetricsHub::snapshot`] sees the whole stack.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod hist;
mod hub;
pub mod json;
mod snapshot;

pub use chrome::{ChromeTrace, TraceEvent};
pub use hist::{Histogram, HistogramSnapshot};
pub use hub::{Counter, Gauge, MetricsHub};
pub use snapshot::MetricsSnapshot;

pub use json::Json;
