//! Serving-layer metrics on the engine's shared hub.
//!
//! The registry records two families (see `docs/ARCHITECTURE.md` for the
//! full inventory):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `serve_admit_submitted_total` | counter | feeds admitted straight to the pool |
//! | `serve_admit_queued_total` | counter | feeds parked in a tenant backlog |
//! | `serve_admit_rejected_total{reason="backlog_full"}` | counter | feeds shed by a full backlog |
//! | `serve_admit_rejected_total{reason="unknown_tenant"}` | counter | feeds for unregistered tenants |
//! | `serve_sojourn_ns` | histogram | submit → harvest, all tenants |
//! | `serve_sojourn_ns{tenant="tN"}` | histogram | per-tenant sojourn (snapshot-time, via [`crate::ServeRegistry::export_snapshot`]) |
//!
//! Sojourn is measured **registry-side**: from the moment an item is
//! handed to the tenant's session (feed, batch feed, or backlog
//! dispatch) to the moment its result is harvested back out — queueing
//! on the shared pool included, tenant backlog time excluded. Items
//! handed over while the hub is disabled are counted as unstamped (a run
//! of them is one run-length entry, or none at the head of the queue),
//! so the timestamp queue never desynchronizes from the session's
//! in-order results while the enabled flag flips mid-stream, and the
//! disabled path never reads a clock. A tenant's own histogram counts
//! every stamped item; the aggregate records only while the hub is on.

use std::sync::Arc;

use askel_obs::{Counter, Histogram, MetricsHub};

use crate::admission::RejectReason;

/// The registry's counter/histogram handles (module docs list them).
pub(crate) struct ServeMetrics {
    hub: Arc<MetricsHub>,
    submitted: Counter,
    queued: Counter,
    rejected_backlog: Counter,
    rejected_unknown: Counter,
    sojourn: Histogram,
}

impl ServeMetrics {
    /// Registers (idempotently) the serving metrics on `hub`.
    pub(crate) fn register(hub: &Arc<MetricsHub>) -> Arc<Self> {
        Arc::new(ServeMetrics {
            hub: Arc::clone(hub),
            submitted: hub.counter("serve_admit_submitted_total"),
            queued: hub.counter("serve_admit_queued_total"),
            rejected_backlog: hub.counter("serve_admit_rejected_total{reason=\"backlog_full\"}"),
            rejected_unknown: hub.counter("serve_admit_rejected_total{reason=\"unknown_tenant\"}"),
            sojourn: hub.histogram("serve_sojourn_ns"),
        })
    }

    /// Whether the hub currently records (gates clock reads at stamp
    /// sites; the counters below gate themselves).
    pub(crate) fn enabled(&self) -> bool {
        self.hub.enabled()
    }

    pub(crate) fn note_submitted(&self, n: usize) {
        self.submitted.add(n as u64);
    }

    pub(crate) fn note_queued(&self, n: usize) {
        self.queued.add(n as u64);
    }

    pub(crate) fn note_rejected(&self, reason: RejectReason, n: usize) {
        match reason {
            RejectReason::BacklogFull => self.rejected_backlog.add(n as u64),
            RejectReason::UnknownTenant => self.rejected_unknown.add(n as u64),
        }
    }

    /// Records one sojourn into the all-tenants aggregate.
    pub(crate) fn note_sojourn(&self, ns: u64) {
        self.sojourn.record(ns);
    }
}
