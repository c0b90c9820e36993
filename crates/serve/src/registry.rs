//! The session registry: many tenants, one engine.
//!
//! [`ServeRegistry`] owns one [`Engine`] clone and shards any number of
//! per-tenant sessions over it: a plain tenant is its bare
//! [`StreamSession`] (no trigger engine, no safe point, its items go
//! unobserved); an adaptive tenant is an [`AdaptiveSession`] with its own
//! trigger engine, safe-point arbitration and rewrite history — the
//! per-tenant half of the MAPE loop stays fully independent. Its
//! trigger's knowledge is its stream's session listener
//! ([`StreamSession::listener`]), so it hears every event of exactly the
//! items that tenant submits and the engine's registry stays empty.
//! What is multiplexed across tenants is the [`SharedEstimators`] pool.
//! Under a [`ShardedServe`](crate::ShardedServe) front, many registries
//! run as shards sharing **one** estimator pool over the same engine;
//! the registry itself is shard-agnostic.
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
//! admission cost estimate re-priced) — work
//! [`settled`](ServeRegistry::settled) counts as owed until done.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};

use askel_adapt::{Adaptive, AdaptiveSession, TriggerEngine};
use askel_engine::{Engine, EngineError, StreamSession};
use askel_obs::{HistogramSnapshot, MetricsSnapshot};
use askel_skeletons::{Clock, Skel};

use crate::admission::{Admission, AdmissionPolicy, BatchAdmission, RejectReason};
use crate::estimators::SharedEstimators;
use crate::metrics::ServeMetrics;

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

/// A tenant's stream: a plain tenant's is bare, with no trigger engine
/// and no safe point; an adaptive one's is boxed, so the larger variant
/// does not size every plain record.
enum Session<P, R> {
    Plain(StreamSession<P, R>),
    Adaptive(Box<AdaptiveSession<P, R>>),
}

/// Calls the same-named method of either kind of session.
macro_rules! for_both {
    ($session:expr, $s:ident => $call:expr) => {
        match $session {
            Session::Plain($s) => $call,
            Session::Adaptive($s) => $call,
        }
    };
}

struct Tenant<P, R> {
    session: Session<P, R>,
    backlog: VecDeque<P>,
    /// How many results at the head of the session's own buffer are
    /// already counted in `completed` (sojourns noted): what `take_ready`
    /// hands out. Results stay in that one buffer until taken.
    ready: usize,
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
    /// Stamps of the items handed to the session and not yet counted
    /// completed, oldest first, as results come back: `unstamped` items
    /// fed with the metrics hub off, then runs of `(stamp, items)`, where
    /// stamp `0` again means off. Counting the unstamped keeps the stamps
    /// aligned with the results when the hub flips mid-stream; with the
    /// hub off the queue stays empty.
    unstamped: u64,
    fed_at: VecDeque<(u64, u64)>,
    /// Per-tenant sojourn histogram (submit → harvest) of the items fed
    /// while the hub was enabled; exported as
    /// `serve_sojourn_ns{tenant="tN"}`. Made at the first sojourn
    /// recorded, so a tenant served with the hub off carries none.
    sojourn: Option<Box<HistogramSnapshot>>,
}

impl<P, R> Tenant<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// Counts everything the session has newly finished as completed,
    /// keeping the sojourn tallies current; the results stay buffered in
    /// the session.
    fn harvest(&mut self, metrics: &ServeMetrics, clock: &dyn Clock) {
        let buffered = for_both!(&mut self.session, s => s.poll_ready());
        let new = buffered - self.ready;
        self.ready = buffered;
        self.completed += new as u64;
        self.note_sojourns(new, metrics, clock);
    }

    /// How many items the tenant may hand the pool now, at `depth`
    /// queued pool tasks: its room under the in-flight quota (gate 1), or
    /// none while latency pricing holds it back (gate 2).
    fn room(&self, policy: &AdmissionPolicy, depth: usize) -> usize {
        if policy.cost_room(depth, self.cost_ns) {
            policy
                .max_in_flight
                .saturating_sub(for_both!(&self.session, s => s.in_flight()))
        } else {
            0
        }
    }

    /// Hands `items` to the session as one batch (one safe point for an
    /// adaptive tenant), stamped and counted: every batch submission
    /// goes through here.
    fn dispatch(&mut self, items: Vec<P>, metrics: &ServeMetrics, clock: &dyn Clock) {
        self.submitted += items.len() as u64;
        self.stamp_fed(items.len(), metrics, clock);
        for_both!(&mut self.session, s => s.feed_batch(items));
    }

    /// Whether the shared pool has yet to absorb harvested history.
    fn unpublished(&self) -> bool {
        matches!(self.session, Session::Adaptive(_)) && self.completed > self.published
    }

    /// Post-visit bookkeeping for an adaptive tenant: absorb new
    /// estimator history into `shared`, and re-price the tenant's
    /// admission cost estimate from it.
    fn publish(&mut self, shared: &SharedEstimators) {
        let Session::Adaptive(session) = &self.session else {
            return;
        };
        if self.completed > self.published {
            self.published = self.completed;
            let root = session.skeleton().node();
            session
                .trigger()
                .knowledge()
                .read_estimates(|table| shared.absorb(root, table));
            self.cost_ns = shared.estimated_cost(root).map(|c| c.0);
        }
    }

    /// Stamps `n` items handed to the session just now. One clock read
    /// per call when the hub is enabled; when not, no clock read, and at
    /// most one queue entry per run of calls.
    fn stamp_fed(&mut self, n: usize, metrics: &ServeMetrics, clock: &dyn Clock) {
        let stamp = if metrics.enabled() {
            clock.now().0.max(1)
        } else {
            0
        };
        match self.fed_at.back_mut() {
            None if stamp == 0 => self.unstamped += n as u64,
            Some((last, items)) if *last == stamp => *items += n as u64,
            _ if n > 0 => self.fed_at.push_back((stamp, n as u64)),
            _ => {}
        }
    }

    /// Consumes `n` submission stamps (oldest first — the order results
    /// come back in) and records the sojourns of the stamped ones. Reads
    /// the clock at most once per call.
    fn note_sojourns(&mut self, n: usize, metrics: &ServeMetrics, clock: &dyn Clock) {
        let skip = n.min(self.unstamped as usize);
        self.unstamped -= skip as u64;
        let mut n = n - skip;
        let mut now = None;
        while n > 0 {
            let Some((stamp, items)) = self.fed_at.front_mut() else {
                return;
            };
            let take = n.min(*items as usize);
            if *stamp != 0 {
                let ns = now
                    .get_or_insert_with(|| clock.now().0)
                    .saturating_sub(*stamp);
                let sojourn = self.sojourn.get_or_insert_default();
                for _ in 0..take {
                    metrics.note_sojourn(ns);
                    sojourn.record(ns);
                }
            }
            *items -= take as u64;
            n -= take;
            if *items == 0 {
                self.fed_at.pop_front();
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
            SharedEstimators::new(0.5),
            AdmissionPolicy::default(),
        )
    }

    /// A shard registry for a [`ShardedServe`](crate::ShardedServe):
    /// shares the front's estimator pool instead of owning its own.
    pub(crate) fn new_shard(
        engine: &Engine,
        shared: SharedEstimators,
        policy: AdmissionPolicy,
    ) -> Self {
        ServeRegistry {
            clock: engine.clock(),
            metrics: ServeMetrics::register(engine.metrics_hub()),
            engine: engine.clone(),
            policy,
            shared,
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

    /// Registers a plain tenant: a bare stream session with **no**
    /// trigger engine and no listener — its items go unobserved, at zero
    /// per-event overhead, run no safe point, and share no estimator
    /// history. The cheap default for bulk tenants.
    pub fn register(&mut self, skel: &Skel<P, R>) -> TenantId {
        self.insert(self.next_id, skel, None)
    }

    /// Registers an adaptive tenant driving `trigger`'s rules:
    ///
    /// * the tenant's trigger is **warm-started** from the shared pool's
    ///   history for structurally identical programs (only entries the
    ///   trigger does not already hold; see [`SharedEstimators::warm`]),
    ///   and
    /// * the trigger's knowledge is the tenant stream's session listener:
    ///   it hears every event of exactly the items this tenant submits,
    ///   whoever else runs the same `Skel`, and not only what the rules
    ///   read, since its whole estimator history is published. Estimator
    ///   history crosses tenants only through the shared pool.
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
        let stream = StreamSession::new(&self.engine, skel);
        let session = match trigger {
            Some(trigger) => {
                trigger.knowledge().with_estimates(|est| {
                    self.shared.warm(skel.node(), est);
                });
                trigger.attach_metrics(self.engine.metrics_hub());
                // Its knowledge hears everything, not only what the rules
                // read: the whole history is published and prices
                // admission.
                let stream = stream.listener(trigger.knowledge().clone());
                Session::Adaptive(Box::new(Adaptive::over(stream, trigger)))
            }
            None => Session::Plain(stream),
        };
        let cost_ns = self.shared.estimated_cost(skel.node()).map(|c| c.0);
        self.tenants.insert(
            id,
            Tenant {
                session,
                backlog: VecDeque::new(),
                ready: 0,
                submitted: 0,
                completed: 0,
                rejected: 0,
                published: 0,
                cost_ns,
                unstamped: 0,
                fed_at: VecDeque::new(),
                sojourn: None,
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
            for_both!(&mut t.session, s => s.feed(input));
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
    /// the batched path, under the latency gate), and new estimator
    /// history is published to the shared pool. Returns how many
    /// backlogged items were dispatched.
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
            t.publish(&self.shared);
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
        let ready = std::mem::take(&mut t.ready);
        (0..ready)
            .map_while(|_| for_both!(&mut t.session, s => s.next_result()))
            .collect()
    }

    /// The tenant's next result in submission order, blocking until it
    /// is ready; `None` if the tenant is unknown or has nothing
    /// outstanding. Items still in the backlog are **not** waited for —
    /// run [`drain_cycle`](ServeRegistry::drain_cycle) (or
    /// [`quiesce`](ServeRegistry::quiesce)) to dispatch them first.
    pub fn next_result(&mut self, tenant: TenantId) -> Option<Result<R, EngineError>> {
        let t = self.tenants.get_mut(&tenant.0)?;
        let r = for_both!(&mut t.session, s => s.next_result())?;
        if t.ready > 0 {
            t.ready -= 1;
        } else {
            t.completed += 1;
            t.note_sojourns(1, &self.metrics, &*self.clock);
        }
        Some(r)
    }

    /// Dispatches and drains everything the tenant still owes, removes
    /// it from the registry (its trigger hears nothing after), and
    /// returns its remaining results in submission order. The tenant's
    /// final estimator history is published to the shared pool first, so
    /// a successor tenant of the same structure still warm-starts from it.
    pub fn detach(&mut self, tenant: TenantId) -> Option<Vec<Result<R, EngineError>>> {
        let mut t = self.tenants.remove(&tenant.0)?;
        t.publish(&self.shared);
        // Past the registry's gates now: submit the whole backlog (the
        // session's own batched path still bounds pool transactions).
        let backlog: Vec<P> = t.backlog.drain(..).collect();
        t.dispatch(backlog, &self.metrics, &*self.clock);
        let out: Vec<_> =
            std::iter::from_fn(|| for_both!(&mut t.session, s => s.next_result())).collect();
        t.note_sojourns(out.len() - t.ready, &self.metrics, &*self.clock);
        Some(out)
    }

    /// Whether a drain cycle owes nothing: no tenant holds backlogged or
    /// in-flight items, or history the shared pool has not absorbed. A
    /// shard driver sleeps untimed only while this holds.
    pub fn settled(&self) -> bool {
        self.tenants.values().all(|t| {
            t.backlog.is_empty()
                && for_both!(&t.session, s => s.in_flight()) == 0
                && !t.unpublished()
        })
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
            in_flight: for_both!(&t.session, s => s.in_flight()),
            ready: t.ready,
            version: match &t.session {
                Session::Plain(_) => 0,
                Session::Adaptive(a) => a.version(),
            },
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

    /// The admission policy feeds are gated by.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// The tenant's sojourn histogram (submit → harvest, of the items
    /// handed to its session while the metrics hub was enabled); `None`
    /// for an unknown tenant.
    pub fn tenant_sojourn(&self, tenant: TenantId) -> Option<&HistogramSnapshot> {
        static NONE_YET: OnceLock<HistogramSnapshot> = OnceLock::new();
        let t = self.tenants.get(&tenant.0)?;
        let none_yet = || NONE_YET.get_or_init(HistogramSnapshot::new);
        Some(t.sojourn.as_deref().unwrap_or_else(none_yet))
    }

    /// Appends this registry's per-tenant sojourn histograms to `snap`
    /// as `serve_sojourn_ns{tenant="tN"}` (tenants with no recorded
    /// sojourns are skipped). The sharded front merges every shard into
    /// one hub snapshot through this.
    pub(crate) fn append_tenant_histograms(&self, snap: &mut MetricsSnapshot) {
        for (id, t) in &self.tenants {
            if let Some(sojourn) = t.sojourn.as_deref().filter(|s| s.count() > 0) {
                snap.push_histogram(
                    format!("serve_sojourn_ns{{tenant=\"{}\"}}", TenantId(*id)),
                    sojourn.clone(),
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

    /// An adaptive tenant's trigger hears its own items through its
    /// session, with no engine listener registered, and nothing once the
    /// tenant is detached — not even a successor's run of the same tree.
    #[test]
    fn detach_flushes_backlog_and_silences_the_trigger() {
        use askel_skeletons::{map, MuscleId, MuscleRole};

        let engine = Engine::new(1);
        let policy = AdmissionPolicy::default().max_in_flight(1).max_backlog(64);
        let mut reg: ServeRegistry<Vec<i64>, i64> = ServeRegistry::new(&engine).with_policy(policy);
        let program = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0] * 2),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let split = MuscleId::new(program.id(), MuscleRole::Split);
        let parts = |t: &TriggerEngine| t.knowledge().read_estimates(|e| e.cardinality(split));
        let trigger = TriggerEngine::new(0.5);
        let t = reg.register_adaptive(&program, trigger.clone());
        for x in 0..6 {
            reg.feed(t, vec![x, x]);
        }
        let results = reg.detach(t).unwrap();
        assert_eq!(
            results.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            (0..6).map(|x| x * 4).collect::<Vec<_>>()
        );
        assert!(engine.registry().is_empty(), "no engine listener");
        assert_eq!(parts(&trigger), Some(2.0), "heard its own items");

        let next = reg.register_adaptive(&program, TriggerEngine::new(0.5));
        reg.feed(next, vec![1, 2, 3, 4]);
        reg.quiesce();
        assert_eq!(parts(&trigger), Some(2.0), "silent once detached");
        assert_eq!(reg.detach(next).unwrap().len(), 1);
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
