//! Admission control: per-tenant quotas and latency-aware cost pricing.
//!
//! The registry admits each fed item through the three gates
//! [`AdmissionPolicy`] describes — in-flight quota, latency pricing,
//! backlog bound — evaluated in that order.
//!
//! Queued items are dispatched by
//! [`ServeRegistry::drain_cycle`](crate::ServeRegistry::drain_cycle),
//! which visits tenants round-robin, rotating from the previous cycle's
//! first-visited **key** (not its position, so registration/detach churn
//! cannot skew the rotation) — every tenant is first-visited infinitely
//! often, so a backlogged tenant can never be starved by its
//! neighbours.

/// Per-tenant admission limits plus the latency-pricing bound.
///
/// The registry admits each fed item through three gates, in order:
///
/// 1. **In-flight quota** — a tenant may hold at most
///    [`max_in_flight`](AdmissionPolicy::max_in_flight) items on the
///    shared pool. Beyond it, items queue in the tenant's backlog.
/// 2. **Latency pricing** — when
///    [`max_queue_cost`](AdmissionPolicy::max_queue_cost) is set, an
///    item submits only while `pool queue depth × the tenant's
///    estimated per-item cost (ns)` stays under the bound (the depth is
///    `ResizablePool::queue_depth_hint`, sampled **once per ingress
///    call**, not per item). The cost
///    comes from the structure-keyed
///    [`SharedEstimators`](crate::SharedEstimators) pool (its pooled
///    durations summed over one item of the structure), so
///    a *cheap* tenant keeps submitting into a queue that an
///    *expensive* tenant must stop feeding — static quotas alone would
///    shed both. Tenants whose structure has no pooled history are not
///    priced: the gate degrades to the static quotas above.
/// 3. **Backlog bound** — a tenant queues at most
///    [`max_backlog`](AdmissionPolicy::max_backlog) items; beyond that,
///    feeds are [`Rejected`](Admission::Rejected) (load shedding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Items one tenant may have in flight on the shared pool at once.
    pub max_in_flight: usize,
    /// Items one tenant may hold queued beyond its in-flight quota;
    /// feeds beyond this are rejected.
    pub max_backlog: usize,
    /// Latency pricing: when `Some(bound)`, an item submits only while
    /// `pool queue depth × the tenant's estimated per-item cost (ns)`
    /// is ≤ `bound` (units: ns·tasks). Tenants with no pooled cost
    /// estimate are not priced. `None` disables the gate.
    pub max_queue_cost: Option<u64>,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_in_flight: 64,
            max_backlog: 4096,
            max_queue_cost: None,
        }
    }
}

impl AdmissionPolicy {
    /// Sets the per-tenant in-flight quota (≥ 1).
    pub fn max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    /// Sets the per-tenant backlog bound (0 = reject once the quota is
    /// full).
    pub fn max_backlog(mut self, n: usize) -> Self {
        self.max_backlog = n;
        self
    }

    /// Enables latency pricing at `bound` ns·tasks: an item submits
    /// only while `queue depth × estimated per-item cost` stays ≤
    /// `bound`.
    pub fn max_queue_cost(mut self, bound: u64) -> Self {
        self.max_queue_cost = Some(bound);
        self
    }

    /// Gate 2: whether a tenant priced at `cost_ns` per item may submit
    /// at `depth` queued tasks. Unpriced tenants (`cost_ns == None`)
    /// and an unset bound always pass — the static gates then decide.
    pub fn cost_room(&self, depth: usize, cost_ns: Option<u64>) -> bool {
        match (self.max_queue_cost, cost_ns) {
            (Some(bound), Some(cost)) => (depth as u64).saturating_mul(cost) <= bound,
            _ => true,
        }
    }
}

/// What happened to one fed item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Submitted to the shared pool immediately.
    Submitted,
    /// Held in the tenant's backlog; a later
    /// [`drain_cycle`](crate::ServeRegistry::drain_cycle) dispatches it.
    Queued,
    /// Not admitted; the item is dropped (load shedding).
    Rejected(RejectReason),
}

/// Why an item was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant id is not (or no longer) registered.
    UnknownTenant,
    /// The tenant's backlog is at [`AdmissionPolicy::max_backlog`].
    BacklogFull,
}

/// Per-item tallies for one batched feed.
///
/// `rejected` is always `rejected_backlog + rejected_unknown`; the
/// split lets callers tell shed load (back off and retry) from a
/// routing error (stop feeding this id), matching the per-reason
/// `serve_admit_rejected_total` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchAdmission {
    /// Items submitted to the pool immediately.
    pub submitted: usize,
    /// Items held in the tenant's backlog.
    pub queued: usize,
    /// Items dropped, any reason (= `rejected_backlog +
    /// rejected_unknown`).
    pub rejected: usize,
    /// Items shed because the tenant's backlog was full.
    pub rejected_backlog: usize,
    /// Items dropped because the tenant id is not registered.
    pub rejected_unknown: usize,
}

impl BatchAdmission {
    /// Tallies `n` backlog-shed items.
    pub(crate) fn shed_backlog(&mut self, n: usize) {
        self.rejected_backlog += n;
        self.rejected += n;
    }

    /// Tallies `n` unknown-tenant items.
    pub(crate) fn shed_unknown(&mut self, n: usize) {
        self.rejected_unknown += n;
        self.rejected += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_room_prices_only_priced_tenants_under_a_set_bound() {
        let p = AdmissionPolicy::default().max_queue_cost(1_000_000);
        // Priced: depth × cost against the bound.
        assert!(p.cost_room(10, Some(100_000)));
        assert!(!p.cost_room(11, Some(100_000)));
        assert!(p.cost_room(1_000_000, Some(1)));
        // Unpriced tenant: gate degrades to the static quotas.
        assert!(p.cost_room(usize::MAX, None));
        // Unset bound: never prices.
        let open = AdmissionPolicy::default();
        assert!(open.cost_room(usize::MAX, Some(u64::MAX)));
        // Overflow saturates rather than wrapping open.
        assert!(!p.cost_room(usize::MAX, Some(u64::MAX)));
    }

    #[test]
    fn batch_tallies_keep_rejected_as_the_sum() {
        let mut out = BatchAdmission::default();
        out.shed_backlog(3);
        out.shed_unknown(2);
        assert_eq!(out.rejected_backlog, 3);
        assert_eq!(out.rejected_unknown, 2);
        assert_eq!(out.rejected, 5);
    }
}
