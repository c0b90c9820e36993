//! The session registry: many tenants, one engine.
//!
//! [`ServeRegistry`] owns one [`Engine`] clone and shards any number of
//! per-tenant [`AdaptiveSession`]s over it. Each tenant keeps its own
//! trigger engine, safe-point arbitration and rewrite history — the
//! per-tenant half of the MAPE loop stays fully independent — while the
//! monitor ([`crate::ServeMonitor`]) and the [`SharedEstimators`] pool
//! are multiplexed across all of them. Under a
//! [`ShardedServe`](crate::ShardedServe) front, many registries run as
//! shards sharing **one** monitor and **one** estimator pool over the
//! same engine; the registry itself is shard-agnostic.
//!
//! Feeding goes through admission control (see [`AdmissionPolicy`]):
//! one private function prices a tenant's room under its quota and the
//! latency gate for `feed`, `feed_batch` and the drain cycle alike, and
//! every batch submission — `feed_batch`, the drain cycle, `detach`'s
//! flush — goes through one private dispatch. Queued items are
//! dispatched by [`ServeRegistry::drain_cycle`], which
//! visits tenants round-robin, rotating from the previous cycle's
//! first-visited tenant **key** so no backlogged tenant is ever
//! starved — even across registration/detach churn. The drain cycle is
//! also where cross-tenant publication happens: each visited tenant's
//! estimator history is absorbed into the shared pool (and its
//! admission cost estimate re-priced), and its event routes are
//! refreshed if a safe point rewrote its tree since the last visit —
//! work [`settled`](ServeRegistry::settled) counts as owed until done.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use askel_adapt::{AdaptiveSession, TriggerEngine};
use askel_engine::{Engine, EngineError};
use askel_obs::{HistogramSnapshot, MetricsSnapshot};
use askel_skeletons::{Clock, NodeId, Skel};

use crate::admission::{Admission, AdmissionPolicy, BatchAdmission, RejectReason};
use crate::estimators::SharedEstimators;
use crate::metrics::ServeMetrics;
use crate::mux::ServeMonitor;

/// A registered tenant's handle. Displays as `t<n>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A point-in-time snapshot of one tenant's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Items submitted to the shared pool so far.
    pub submitted: u64,
    /// Results collected from the pool so far (any outcome).
    pub completed: u64,
    /// Items rejected by admission control.
    pub rejected: u64,
    /// Items currently waiting in the tenant's backlog.
    pub backlog: usize,
    /// Items currently in flight on the shared pool.
    pub in_flight: usize,
    /// Results harvested and waiting to be taken.
    pub ready: usize,
    /// The tenant's skeleton version (safe-point rewrites applied).
    pub version: u64,
    /// The tenant's current admission price (estimated ns per item from
    /// the structure-keyed pool); `None` while its structure has no
    /// pooled history.
    pub est_cost_ns: Option<u64>,
}

struct Tenant<P, R> {
    session: AdaptiveSession<P, R>,
    backlog: VecDeque<P>,
    ready: VecDeque<Result<R, EngineError>>,
    /// Whether this tenant's trigger engine is routed engine events (and
    /// its history published to the shared pool).
    adaptive: bool,
    routed: Vec<NodeId>,
    routed_version: u64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    /// `completed` as of the last publication into [`SharedEstimators`].
    published: u64,
    /// The tenant's cached per-item cost estimate for the latency gate
    /// ([`AdmissionPolicy::cost_room`]): priced from the shared pool at
    /// registration and re-priced on every drain-cycle publication, so
    /// the admission fast path never takes the estimator lock.
    cost_ns: Option<u64>,
    /// Submission timestamps of items handed to the session and not yet
    /// harvested, in submission order (the session returns results in
    /// that same order). `0` marks an item fed while the metrics hub was
    /// disabled — always stamped, so the queue stays aligned with the
    /// session's results even when the enabled flag flips mid-stream.
    fed_at: VecDeque<u64>,
    /// Per-tenant sojourn histogram (submit → harvest), recorded only
    /// while the hub is enabled; exported as
    /// `serve_sojourn_ns{tenant="tN"}`.
    sojourn: HistogramSnapshot,
}

impl<P, R> Tenant<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// Moves everything the session has finished into the ready queue,
    /// keeping the completion counter and sojourn tallies current.
    fn harvest(&mut self, metrics: &ServeMetrics, clock: &dyn Clock) {
        let got = self.session.drain_ready();
        self.completed += got.len() as u64;
        self.note_sojourns(got.len(), metrics, clock);
        self.ready.extend(got);
    }

    /// How many items the tenant may hand the pool now, at `depth`
    /// queued pool tasks: its room under the in-flight quota (gate 1), or
    /// none while latency pricing holds it back (gate 2).
    fn room(&self, policy: &AdmissionPolicy, depth: usize) -> usize {
        if policy.cost_room(depth, self.cost_ns) {
            policy
                .max_in_flight
                .saturating_sub(self.session.in_flight())
        } else {
            0
        }
    }

    /// Hands `items` to the session as one batch (one safe point),
    /// stamped and counted: every batch submission goes through here.
    fn dispatch(&mut self, items: Vec<P>, metrics: &ServeMetrics, clock: &dyn Clock) {
        self.submitted += items.len() as u64;
        self.stamp_fed(items.len(), metrics, clock);
        self.session.feed_batch(items);
    }

    /// Whether the shared pool has yet to absorb harvested history.
    fn unpublished(&self) -> bool {
        self.adaptive && self.completed > self.published
    }

    /// Post-visit bookkeeping for an adaptive tenant (key `key`): re-route
    /// its events if a safe point rewrote the tree since the last visit,
    /// absorb new estimator history into `shared`, and re-price the
    /// tenant's admission cost estimate from it.
    fn refresh(&mut self, key: u64, monitor: &ServeMonitor, shared: &SharedEstimators) {
        if !self.adaptive {
            return;
        }
        let (trigger, root) = (self.session.trigger(), self.session.skeleton().node());
        if self.session.version() != self.routed_version {
            monitor.unroute(key, &self.routed);
            self.routed = monitor.route(key, trigger, root);
            self.routed_version = self.session.version();
        }
        if self.unpublished() {
            self.published = self.completed;
            trigger.read_estimates(|table| shared.absorb(root, table));
            self.cost_ns = shared.estimated_cost(root).map(|c| c.0);
        }
    }

    /// Stamps `n` items handed to the session just now. One clock read
    /// per call when the hub is enabled; zero-stamps (no clock) when not.
    fn stamp_fed(&mut self, n: usize, metrics: &ServeMetrics, clock: &dyn Clock) {
        let stamp = if metrics.enabled() {
            clock.now().0.max(1)
        } else {
            0
        };
        self.fed_at.extend(std::iter::repeat_n(stamp, n));
    }

    /// Consumes `n` submission stamps (oldest first — the order results
    /// come back in) and records the sojourns of the stamped ones. Reads
    /// the clock at most once per call.
    fn note_sojourns(&mut self, n: usize, metrics: &ServeMetrics, clock: &dyn Clock) {
        let mut now = None;
        for _ in 0..n {
            let stamp = self.fed_at.pop_front().unwrap_or(0);
            if stamp != 0 && metrics.enabled() {
                let at = *now.get_or_insert_with(|| clock.now().0);
                let ns = at.saturating_sub(stamp);
                metrics.note_sojourn(ns);
                self.sojourn.record(ns);
            }
        }
    }
}

/// Shards many adaptive sessions over one shared engine; see the module
/// docs.
pub struct ServeRegistry<P, R> {
    engine: Engine,
    policy: AdmissionPolicy,
    shared: SharedEstimators,
    monitor: Arc<ServeMonitor>,
    tenants: BTreeMap<u64, Tenant<P, R>>,
    next_id: u64,
    /// The key the previous drain cycle first visited; the next cycle
    /// starts at the first key strictly greater (wrapping). Key-based —
    /// never positional — so register/detach churn between cycles
    /// cannot re-favor a tenant.
    cursor: Option<u64>,
    clock: Arc<dyn Clock>,
    metrics: Arc<ServeMetrics>,
}

impl<P, R> ServeRegistry<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// An empty registry over a non-owning clone of `engine`, with the
    /// default [`AdmissionPolicy`]. Shutting the engine down remains the
    /// caller's job (after [`quiesce`](ServeRegistry::quiesce)).
    pub fn new(engine: &Engine) -> Self {
        Self::new_shard(
            engine,
            ServeMonitor::new(),
            SharedEstimators::new(0.5),
            AdmissionPolicy::default(),
        )
    }

    /// A shard registry for a [`ShardedServe`](crate::ShardedServe):
    /// shares the front's monitor and estimator pool instead of owning
    /// its own.
    pub(crate) fn new_shard(
        engine: &Engine,
        monitor: Arc<ServeMonitor>,
        shared: SharedEstimators,
        policy: AdmissionPolicy,
    ) -> Self {
        ServeRegistry {
            clock: engine.clock(),
            metrics: ServeMetrics::register(engine.metrics_hub()),
            engine: engine.clone(),
            policy,
            shared,
            monitor,
            tenants: BTreeMap::new(),
            next_id: 0,
            cursor: None,
        }
    }

    /// Replaces the admission policy (applies to subsequent feeds).
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Registers a plain tenant: a session with a private, rule-less
    /// trigger engine and **no** event routing — zero per-event overhead,
    /// no estimator sharing. The cheap default for bulk tenants.
    pub fn register(&mut self, skel: &Skel<P, R>) -> TenantId {
        self.insert(self.next_id, skel, None)
    }

    /// Registers an adaptive tenant driving `trigger`'s rules:
    ///
    /// * the tenant's trigger is **warm-started** from the shared pool's
    ///   history for structurally identical programs (only entries the
    ///   trigger does not already hold; see [`SharedEstimators::warm`]),
    ///   and
    /// * engine events for the tenant's tree are routed to the trigger
    ///   through the multiplexed monitor.
    pub fn register_adaptive(
        &mut self,
        skel: &Skel<P, R>,
        trigger: Arc<TriggerEngine>,
    ) -> TenantId {
        self.insert(self.next_id, skel, Some(trigger))
    }

    /// Both registrations, under the caller's `id` (the sharded front
    /// allocates ids globally so they hash to shards): adaptive over
    /// `Some(trigger)`, plain over `None`.
    pub(crate) fn insert(
        &mut self,
        id: u64,
        skel: &Skel<P, R>,
        trigger: Option<Arc<TriggerEngine>>,
    ) -> TenantId {
        debug_assert!(
            !self.tenants.contains_key(&id),
            "tenant id {id} registered twice"
        );
        self.next_id = self.next_id.max(id + 1);
        let adaptive = trigger.is_some();
        let (trigger, routed) = match trigger {
            Some(trigger) => {
                trigger.with_estimates(|est| {
                    self.shared.warm(skel.node(), est);
                });
                self.monitor.install(&self.engine);
                let routed = self.monitor.route(id, &trigger, skel.node());
                (trigger, routed)
            }
            None => (TriggerEngine::new(0.5), Vec::new()),
        };
        let session = AdaptiveSession::new(&self.engine, skel, trigger);
        let cost_ns = self.shared.estimated_cost(skel.node()).map(|c| c.0);
        self.tenants.insert(
            id,
            Tenant {
                session,
                backlog: VecDeque::new(),
                ready: VecDeque::new(),
                adaptive,
                routed,
                routed_version: 0,
                submitted: 0,
                completed: 0,
                rejected: 0,
                published: 0,
                cost_ns,
                fed_at: VecDeque::new(),
                sojourn: HistogramSnapshot::new(),
            },
        );
        TenantId(id)
    }

    /// Feeds one item through admission control; see
    /// [`AdmissionPolicy`] for the gate order. The pool's queue depth
    /// is sampled once per call (a cheap relaxed read).
    pub fn feed(&mut self, tenant: TenantId, input: P) -> Admission {
        let depth = self.engine.pool().queue_depth_hint();
        let policy = self.policy;
        let Some(t) = self.tenants.get_mut(&tenant.0) else {
            self.metrics.note_rejected(RejectReason::UnknownTenant, 1);
            return Admission::Rejected(RejectReason::UnknownTenant);
        };
        t.harvest(&self.metrics, &*self.clock);
        if t.backlog.is_empty() && t.room(&policy, depth) > 0 {
            t.stamp_fed(1, &self.metrics, &*self.clock);
            t.session.feed(input);
            t.submitted += 1;
            self.metrics.note_submitted(1);
            Admission::Submitted
        } else if t.backlog.len() < policy.max_backlog {
            t.backlog.push_back(input);
            self.metrics.note_queued(1);
            Admission::Queued
        } else {
            t.rejected += 1;
            self.metrics.note_rejected(RejectReason::BacklogFull, 1);
            Admission::Rejected(RejectReason::BacklogFull)
        }
    }

    /// Feeds a batch through admission control. Whatever fits under the
    /// tenant's quota (and the latency gate) is submitted through the
    /// batched path — [`AdaptiveSession::feed_batch`], one safe point
    /// and one pool transaction for the whole chunk — the next
    /// `max_backlog - backlog` items queue, and the rest are rejected.
    ///
    /// The pool's queue depth is sampled **once for the whole batch**
    /// (the latency gate is deliberately that coarse: a batch admitted
    /// at depth `d` may briefly run the pool past the bound by the batch
    /// length — bounded overshoot in exchange for two relaxed loads per
    /// batch instead of two `SeqCst` loads per item on the ~1 µs/item
    /// ingress path).
    pub fn feed_batch(&mut self, tenant: TenantId, inputs: Vec<P>) -> BatchAdmission {
        let depth = self.engine.pool().queue_depth_hint();
        let policy = self.policy;
        let Some(t) = self.tenants.get_mut(&tenant.0) else {
            self.metrics
                .note_rejected(RejectReason::UnknownTenant, inputs.len());
            let mut out = BatchAdmission::default();
            out.shed_unknown(inputs.len());
            return out;
        };
        t.harvest(&self.metrics, &*self.clock);
        let mut inputs = inputs;
        let mut out = BatchAdmission::default();
        let room = t.room(&policy, depth);
        if t.backlog.is_empty() && room > 0 {
            let rest = inputs.split_off(room.min(inputs.len()));
            out.submitted = inputs.len();
            t.dispatch(inputs, &self.metrics, &*self.clock);
            inputs = rest;
        }
        let space = policy.max_backlog.saturating_sub(t.backlog.len());
        let overflow = if inputs.len() > space {
            inputs.split_off(space)
        } else {
            Vec::new()
        };
        out.queued = inputs.len();
        t.backlog.extend(inputs);
        out.shed_backlog(overflow.len());
        t.rejected += overflow.len() as u64;
        self.metrics.note_submitted(out.submitted);
        self.metrics.note_queued(out.queued);
        self.metrics
            .note_rejected(RejectReason::BacklogFull, out.rejected_backlog);
        out
    }

    /// One fairness round: visits every tenant once, round-robin,
    /// starting from the first key strictly greater than the previous
    /// cycle's starting key (wrapping) — rotation is over tenant
    /// **keys**, never positions, so a `detach`/`register` between
    /// cycles shifts nobody else's turn and no tenant can be repeatedly
    /// re-favored. Per visited tenant: finished results are harvested,
    /// backlogged items are dispatched up to the in-flight quota (through
    /// the batched path, under the latency gate), event routes are
    /// refreshed if a rewrite changed the tree, and new estimator history
    /// is published to the shared pool. Returns how many backlogged items
    /// were dispatched.
    pub fn drain_cycle(&mut self) -> usize {
        let keys: Vec<u64> = self.tenants.keys().copied().collect();
        if keys.is_empty() {
            return 0;
        }
        let start = match self.cursor {
            None => 0,
            Some(prev) => keys.iter().position(|&k| k > prev).unwrap_or(0),
        };
        self.cursor = Some(keys[start]);
        let policy = self.policy;
        let mut dispatched = 0;
        for i in 0..keys.len() {
            let key = keys[(start + i) % keys.len()];
            let Some(t) = self.tenants.get_mut(&key) else {
                continue;
            };
            t.harvest(&self.metrics, &*self.clock);
            if !t.backlog.is_empty() {
                // Re-sampled per visit (not per item): each dispatch
                // batch changes the depth the next tenant's gates see.
                let depth = self.engine.pool().queue_depth_hint();
                let take = t.room(&policy, depth).min(t.backlog.len());
                if take > 0 {
                    let chunk: Vec<P> = t.backlog.drain(..take).collect();
                    dispatched += take;
                    t.dispatch(chunk, &self.metrics, &*self.clock);
                }
            }
            t.refresh(key, &self.monitor, &self.shared);
        }
        dispatched
    }

    /// The tenant the next [`drain_cycle`](Self::drain_cycle) will
    /// visit first (`None` when the registry is empty): the first key
    /// strictly greater than the previous cycle's starting key,
    /// wrapping. The churn regression tests read it.
    #[cfg(test)]
    fn next_first(&self) -> Option<TenantId> {
        let first = || self.tenants.keys().next().copied();
        match self.cursor {
            None => first(),
            Some(prev) => self
                .tenants
                .range((std::ops::Bound::Excluded(prev), std::ops::Bound::Unbounded))
                .next()
                .map(|(k, _)| *k)
                .or_else(first),
        }
        .map(TenantId)
    }

    /// Takes every result the tenant has finished, in submission order,
    /// without blocking. Empty for an unknown tenant.
    pub fn take_ready(&mut self, tenant: TenantId) -> Vec<Result<R, EngineError>> {
        let Some(t) = self.tenants.get_mut(&tenant.0) else {
            return Vec::new();
        };
        t.harvest(&self.metrics, &*self.clock);
        t.ready.drain(..).collect()
    }

    /// The tenant's next result in submission order, blocking until it
    /// is ready; `None` if the tenant is unknown or has nothing
    /// outstanding. Items still in the backlog are **not** waited for —
    /// run [`drain_cycle`](ServeRegistry::drain_cycle) (or
    /// [`quiesce`](ServeRegistry::quiesce)) to dispatch them first.
    pub fn next_result(&mut self, tenant: TenantId) -> Option<Result<R, EngineError>> {
        let t = self.tenants.get_mut(&tenant.0)?;
        if let Some(r) = t.ready.pop_front() {
            return Some(r);
        }
        let r = t.session.next_result()?;
        t.completed += 1;
        t.note_sojourns(1, &self.metrics, &*self.clock);
        Some(r)
    }

    /// Dispatches and drains everything the tenant still owes, removes
    /// it from the registry (unrouting its events), and returns its
    /// remaining results in submission order. The tenant's final
    /// estimator history is published to the shared pool first, so a
    /// successor tenant of the same structure still warm-starts from it.
    pub fn detach(&mut self, tenant: TenantId) -> Option<Vec<Result<R, EngineError>>> {
        let mut t = self.tenants.remove(&tenant.0)?;
        t.refresh(tenant.0, &self.monitor, &self.shared);
        // Past the registry's gates now: submit the whole backlog (the
        // session's own batched path still bounds pool transactions).
        let backlog: Vec<P> = t.backlog.drain(..).collect();
        t.dispatch(backlog, &self.metrics, &*self.clock);
        let drained: Vec<_> = std::iter::from_fn(|| t.session.next_result()).collect();
        t.note_sojourns(drained.len(), &self.metrics, &*self.clock);
        t.ready.extend(drained);
        if t.adaptive {
            self.monitor.unroute(tenant.0, &t.routed);
        }
        Some(t.ready.into())
    }

    /// Whether a drain cycle owes nothing: no tenant holds backlogged or
    /// in-flight items, or history the shared pool has not absorbed. A
    /// shard driver sleeps untimed only while this holds.
    pub fn settled(&self) -> bool {
        self.tenants
            .values()
            .all(|t| t.backlog.is_empty() && t.session.in_flight() == 0 && !t.unpublished())
    }

    /// Whether `tenant` holds history only a drain cycle will publish.
    pub(crate) fn owes_publication(&self, tenant: TenantId) -> bool {
        self.tenants.get(&tenant.0).is_some_and(Tenant::unpublished)
    }

    /// Drives drain cycles until the registry is
    /// [`settled`](Self::settled) — every fed item's result is then
    /// harvestable via [`take_ready`](ServeRegistry::take_ready).
    /// (Results are *not* consumed.)
    pub fn quiesce(&mut self) {
        loop {
            self.drain_cycle();
            if self.settled() {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// A snapshot of `tenant`'s counters; `None` if unknown.
    pub fn stats(&self, tenant: TenantId) -> Option<TenantStats> {
        let t = self.tenants.get(&tenant.0)?;
        Some(TenantStats {
            submitted: t.submitted,
            completed: t.completed,
            rejected: t.rejected,
            backlog: t.backlog.len(),
            in_flight: t.session.in_flight(),
            ready: t.ready.len(),
            version: t.session.version(),
            est_cost_ns: t.cost_ns,
        })
    }

    /// How many tenants are registered.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The shared engine (non-owning clone).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The cross-tenant estimator pool (a cheap clonable handle).
    pub fn shared_estimators(&self) -> &SharedEstimators {
        &self.shared
    }

    /// The multiplexed event monitor.
    pub fn monitor(&self) -> &Arc<ServeMonitor> {
        &self.monitor
    }

    /// The admission policy feeds are gated by.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// The tenant's sojourn histogram (submit → harvest, recorded while
    /// the metrics hub was enabled); `None` for an unknown tenant.
    pub fn tenant_sojourn(&self, tenant: TenantId) -> Option<&HistogramSnapshot> {
        self.tenants.get(&tenant.0).map(|t| &t.sojourn)
    }

    /// Appends this registry's per-tenant sojourn histograms to `snap`
    /// as `serve_sojourn_ns{tenant="tN"}` (tenants with no recorded
    /// sojourns are skipped). The sharded front merges every shard into
    /// one hub snapshot through this.
    pub(crate) fn append_tenant_histograms(&self, snap: &mut MetricsSnapshot) {
        for (id, t) in &self.tenants {
            if t.sojourn.count() > 0 {
                snap.push_histogram(
                    format!("serve_sojourn_ns{{tenant=\"{}\"}}", TenantId(*id)),
                    t.sojourn.clone(),
                );
            }
        }
    }

    /// One unified metrics snapshot for the whole stack this registry
    /// runs on: the shared hub's pool/engine/serve series plus this
    /// registry's per-tenant sojourn histograms, appended as
    /// `serve_sojourn_ns{tenant="tN"}` (tenants with no recorded
    /// sojourns are skipped). Feed the result to any `askel-obs`
    /// exporter.
    pub fn export_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.engine.metrics_hub().snapshot();
        self.append_tenant_histograms(&mut snap);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::seq;

    fn doubler() -> Skel<i64, i64> {
        seq(|x: i64| x * 2)
    }

    #[test]
    fn tenants_shard_one_engine_and_results_stay_per_tenant() {
        let engine = Engine::new(2);
        let mut reg: ServeRegistry<i64, i64> = ServeRegistry::new(&engine);
        let a = reg.register(&doubler());
        let b = reg.register(&seq(|x: i64| x + 1));
        for x in 0..8 {
            assert_eq!(reg.feed(a, x), Admission::Submitted);
            assert_eq!(reg.feed(b, x), Admission::Submitted);
        }
        reg.quiesce();
        let got_a: Vec<i64> = reg.take_ready(a).into_iter().map(|r| r.unwrap()).collect();
        let got_b: Vec<i64> = reg.take_ready(b).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got_a, (0..8).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(got_b, (0..8).map(|x| x + 1).collect::<Vec<_>>());
        engine.shutdown();
    }

    #[test]
    fn admission_queues_beyond_quota_and_rejects_beyond_backlog() {
        let engine = Engine::new(1);
        let policy = AdmissionPolicy::default().max_in_flight(2).max_backlog(3);
        let mut reg: ServeRegistry<i64, i64> = ServeRegistry::new(&engine).with_policy(policy);
        // A slow tenant so in-flight items stay in flight.
        let slow = seq(|x: i64| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            x
        });
        let t = reg.register(&slow);
        let mut tally = BatchAdmission::default();
        for x in 0..7 {
            match reg.feed(t, x) {
                Admission::Submitted => tally.submitted += 1,
                Admission::Queued => tally.queued += 1,
                Admission::Rejected(RejectReason::BacklogFull) => tally.shed_backlog(1),
                Admission::Rejected(r) => panic!("unexpected rejection: {r:?}"),
            }
        }
        assert_eq!(tally.submitted, 2, "quota");
        assert_eq!(tally.queued, 3, "backlog bound");
        assert_eq!(tally.rejected, 2, "load shed");
        reg.quiesce();
        let got = reg.take_ready(t);
        assert_eq!(got.len(), 5, "submitted + queued items all completed");
        let stats = reg.stats(t).unwrap();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.completed, 5);
        engine.shutdown();
    }

    #[test]
    fn feed_batch_splits_submit_queue_reject_by_reason() {
        let engine = Engine::new(1);
        let policy = AdmissionPolicy::default().max_in_flight(2).max_backlog(3);
        let mut reg: ServeRegistry<i64, i64> = ServeRegistry::new(&engine).with_policy(policy);
        let slow = seq(|x: i64| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            x
        });
        let t = reg.register(&slow);
        let out = reg.feed_batch(t, (0..7).collect());
        assert_eq!(
            out,
            BatchAdmission {
                submitted: 2,
                queued: 3,
                rejected: 2,
                rejected_backlog: 2,
                rejected_unknown: 0,
            }
        );
        reg.quiesce();
        assert_eq!(reg.take_ready(t).len(), 5);
        engine.shutdown();
    }

    #[test]
    fn unknown_tenants_are_rejected_not_panicked() {
        let engine = Engine::new(1);
        let mut reg: ServeRegistry<i64, i64> = ServeRegistry::new(&engine);
        let ghost = TenantId(99);
        assert_eq!(
            reg.feed(ghost, 1),
            Admission::Rejected(RejectReason::UnknownTenant)
        );
        let out = reg.feed_batch(ghost, vec![1, 2]);
        assert_eq!(out.rejected, 2);
        assert_eq!(out.rejected_unknown, 2, "routing error, not shed load");
        assert_eq!(out.rejected_backlog, 0);
        assert!(reg.take_ready(ghost).is_empty());
        assert!(reg.next_result(ghost).is_none());
        assert!(reg.detach(ghost).is_none());
        engine.shutdown();
    }

    #[test]
    fn detach_flushes_backlog_and_unroutes() {
        let engine = Engine::new(1);
        let policy = AdmissionPolicy::default().max_in_flight(1).max_backlog(64);
        let mut reg: ServeRegistry<i64, i64> = ServeRegistry::new(&engine).with_policy(policy);
        let trigger = TriggerEngine::new(0.5);
        let t = reg.register_adaptive(&doubler(), trigger);
        assert!(reg.monitor().routed_nodes() > 0);
        for x in 0..6 {
            reg.feed(t, x);
        }
        let results = reg.detach(t).unwrap();
        assert_eq!(
            results.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            (0..6).map(|x| x * 2).collect::<Vec<_>>()
        );
        assert_eq!(reg.monitor().routed_nodes(), 0, "routes removed");
        assert!(reg.is_empty());
        engine.shutdown();
    }

    /// The drain cursor rotates over tenant *keys*: a detach/register
    /// between cycles must not shift whose turn it is to go first. The
    /// pre-fix positional cursor (index `cursor % len` over a fresh key
    /// list) re-favored the same tenant whenever churn shifted the
    /// list under it.
    #[test]
    fn drain_cursor_rotation_survives_churn() {
        let engine = Engine::new(1);
        let mut reg: ServeRegistry<i64, i64> = ServeRegistry::new(&engine);
        let t0 = reg.register(&doubler());
        let t1 = reg.register(&doubler());
        let t2 = reg.register(&doubler());

        assert_eq!(reg.next_first(), Some(t0));
        reg.drain_cycle(); // visits t0 first
        assert_eq!(reg.next_first(), Some(t1));

        // Churn: t0 leaves, a new tenant registers (id 3 > everyone).
        // t1 is still next — key-based rotation is unaffected.
        reg.detach(t0).unwrap();
        let t3 = reg.register(&doubler());
        assert_eq!(reg.next_first(), Some(t1));
        reg.drain_cycle(); // visits t1 first
        assert_eq!(reg.next_first(), Some(t2));
        reg.drain_cycle(); // visits t2 first
        assert_eq!(reg.next_first(), Some(t3));
        reg.drain_cycle(); // visits t3 first
        assert_eq!(reg.next_first(), Some(t1), "wraps to the smallest key");

        // Detaching the tenant the cursor rests on skips to its key
        // successor, favoring nobody twice.
        reg.drain_cycle(); // visits t1 first; cursor now at t1
        reg.detach(t2).unwrap();
        assert_eq!(reg.next_first(), Some(t3));

        // No-churn sanity: consecutive cycles never repeat a first
        // visit while ≥ 2 tenants are registered.
        let mut last = None;
        for _ in 0..6 {
            let first = reg.next_first();
            assert_ne!(first, last, "a tenant was re-favored back to back");
            reg.drain_cycle();
            last = first;
        }
        engine.shutdown();
    }

    /// Regression for the positional-cursor bug: with ids {0,1,2} and
    /// the cursor resting after a cycle, detaching the *smallest* key
    /// used to shift every later tenant one position left, so the next
    /// cycle re-started at the tenant *after* the intended one. Pin the
    /// exact sequence.
    #[test]
    fn drain_cursor_is_keyed_not_positional() {
        let engine = Engine::new(1);
        let mut reg: ServeRegistry<i64, i64> = ServeRegistry::new(&engine);
        let tenants: Vec<TenantId> = (0..4).map(|_| reg.register(&doubler())).collect();
        reg.drain_cycle(); // starts at tenants[0]
        reg.drain_cycle(); // starts at tenants[1]
        reg.detach(tenants[0]).unwrap();
        // Keys are now [1,2,3]; a positional cursor (2 % 3 = index 2)
        // would start at tenants[3], skipping tenants[2] — key rotation
        // must pick tenants[2], the successor of the last start key 1.
        assert_eq!(reg.next_first(), Some(tenants[2]));
        engine.shutdown();
    }
}
