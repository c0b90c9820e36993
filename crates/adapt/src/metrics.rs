//! Self-configuration metrics on a shared hub.
//!
//! Attached to a [`TriggerEngine`](crate::TriggerEngine) via
//! [`attach_metrics`](crate::TriggerEngine::attach_metrics) — done
//! automatically by [`AdaptiveSession::new`](crate::AdaptiveSession::new),
//! which knows the engine's hub. The inventory:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `adapt_rule_fires_total` | counter | rule fires across all safe points |
//! | `adapt_rule_fires_total{rule="<name>"}` | counter | fires per rule |
//! | `adapt_forecast_error_ns` | histogram | \|realized − predicted\| WCT per closed forecast audit |
//!
//! A *fire* is a rule requesting a rewrite at a safe point — before
//! arbitration, so suppressed and skipped fires count too (they are the
//! interesting ones when tuning rule priorities). The forecast error is
//! recorded the moment a [`Forecast`](crate::Forecast) audit closes —
//! when the first root submission running under the rewritten version
//! completes and fills in `realized`.

use std::collections::HashMap;
use std::sync::Arc;

use askel_obs::{Counter, Histogram, MetricsHub};

/// The trigger engine's metric handles (module docs list them). Lives
/// inside the trigger's state mutex, so the per-rule counter cache
/// needs no locking of its own.
pub(crate) struct AdaptMetrics {
    hub: Arc<MetricsHub>,
    fires: Counter,
    forecast_error: Histogram,
    per_rule: HashMap<String, Counter>,
}

impl AdaptMetrics {
    /// Registers (idempotently) the self-configuration metrics on `hub`.
    pub(crate) fn register(hub: &Arc<MetricsHub>) -> Self {
        AdaptMetrics {
            hub: Arc::clone(hub),
            fires: hub.counter("adapt_rule_fires_total"),
            forecast_error: hub.histogram("adapt_forecast_error_ns"),
            per_rule: HashMap::new(),
        }
    }

    /// Counts one rule fire, in the total and the rule's own series.
    pub(crate) fn note_fire(&mut self, rule: &str) {
        self.fires.inc();
        if !self.per_rule.contains_key(rule) {
            let name = format!("adapt_rule_fires_total{{rule=\"{rule}\"}}");
            self.per_rule
                .insert(rule.to_string(), self.hub.counter(&name));
        }
        self.per_rule[rule].inc();
    }

    /// Records one closed forecast audit's absolute error.
    pub(crate) fn note_forecast_error(&self, ns: u64) {
        self.forecast_error.record(ns);
    }
}
