//! Sharded, multi-threaded ingress: N registries, N driver threads,
//! one engine.
//!
//! A single [`ServeRegistry`] multiplexes any number of tenants, but
//! one driver thread owns the whole registry — ingress and drain
//! serialize on one core, the opposite of the paper's goal of exploiting
//! "the maximum number of active threads" the hardware allows.
//! [`ShardedServe`] splits the tenant population over `N` independent
//! `ServeRegistry` shards (by hash of [`TenantId`] — the mapping is
//! pure, so there is never anything to rebalance), each owned by its
//! own **driver thread** running the feed→drain→harvest loop. The
//! autonomic loop of every tenant stays local to its shard; what the
//! shards share is exactly the global capacity plane:
//!
//! * **one [`Engine`] / pool** — all shards submit into the same
//!   workers, so capacity decisions (LP, provisioning) stay global;
//! * **one [`ServeMonitor`]** — still the *single* registered listener;
//!   its route table is shard-aware (each route carries its shard tag)
//!   and delivery walks only the monitor's own lock, so an event can
//!   never serialize two shards on each other;
//! * **one [`SharedEstimators`] pool** — a clonable `Arc`-shared,
//!   lock-guarded handle, so structural twins warm-start each other
//!   *across* shards and the latency-aware admission gate prices every
//!   shard's tenants from the same history.
//!
//! Ingress ([`feed`](ShardedServe::feed) /
//! [`feed_batch`](ShardedServe::feed_batch)) takes only the owning
//! shard's lock: `K` ingress threads feeding tenants on different
//! shards proceed in parallel, and each shard's driver drains
//! concurrently with ingress on every other shard. All registry
//! semantics (admission gates, key-rotating round-robin fairness,
//! per-tenant result order) hold per shard unchanged.
//!
//! A shard is one lock and one condvar, and a driver with nothing owed
//! sleeps on it with no timeout (see [`drive`]): an idle front costs no
//! CPU.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use askel_adapt::TriggerEngine;
use askel_engine::{Engine, EngineError};
use askel_obs::{HistogramSnapshot, MetricsSnapshot};
use askel_skeletons::Skel;

use crate::admission::{Admission, AdmissionPolicy, BatchAdmission};
use crate::estimators::SharedEstimators;
use crate::mux::ServeMonitor;
use crate::registry::{ServeRegistry, TenantId, TenantStats};

/// SplitMix64 — the tenant→shard hash. Any fixed mixing function works
/// (the mapping must only be pure and well-spread); this one is already
/// the repo's standard mixer (`askel-sim`'s tie keys).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A driver's nap while items are in flight: completions ring nobody.
const IN_FLIGHT_NAP: Duration = Duration::from_micros(50);

/// One shard: its registry, and the doorbell its driver sleeps on —
/// a condvar on the registry's own lock.
struct ShardSlot<P, R> {
    registry: Mutex<ServeRegistry<P, R>>,
    doorbell: Condvar,
    #[cfg(test)]
    passes: std::sync::atomic::AtomicUsize,
}

struct Inner<P, R> {
    engine: Engine,
    monitor: Arc<ServeMonitor>,
    shared: SharedEstimators,
    shards: Vec<ShardSlot<P, R>>,
    next_tenant: AtomicU64,
    stop: AtomicBool,
}

impl<P, R> Inner<P, R> {
    /// The index of the shard owning `tenant` (pure hash — stable for the
    /// front's lifetime).
    fn shard_of(&self, tenant: TenantId) -> usize {
        (splitmix64(tenant.0) % self.shards.len() as u64) as usize
    }

    fn slot(&self, tenant: TenantId) -> &ShardSlot<P, R> {
        &self.shards[self.shard_of(tenant)]
    }
}

/// N `ServeRegistry` shards over one shared engine, each driven by its
/// own thread; see the module docs.
pub struct ShardedServe<P, R> {
    inner: Arc<Inner<P, R>>,
    drivers: Vec<JoinHandle<()>>,
}

impl<P, R> ShardedServe<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// `shards` registries (≥ 1) over a non-owning clone of `engine`,
    /// with `policy` applied to every shard, and one driver thread per
    /// shard started immediately. Shutting the engine down remains the
    /// caller's job (after [`quiesce`](Self::quiesce) and drop/
    /// [`join`](Self::join)).
    pub fn new(engine: &Engine, shards: usize, policy: AdmissionPolicy) -> Self {
        let shards = shards.max(1);
        let monitor = ServeMonitor::new();
        let shared = SharedEstimators::new(0.5);
        let slots = (0..shards)
            .map(|_| ShardSlot {
                registry: Mutex::new(ServeRegistry::new_shard(
                    engine,
                    Arc::clone(&monitor),
                    shared.clone(),
                    policy,
                )),
                doorbell: Condvar::new(),
                #[cfg(test)]
                passes: Default::default(),
            })
            .collect();
        let inner = Arc::new(Inner {
            engine: engine.clone(),
            monitor,
            shared,
            shards: slots,
            next_tenant: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let drivers = (0..shards)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("askel-serve-shard-{i}"))
                    .spawn(move || drive(&inner, i))
                    .expect("spawn shard driver")
            })
            .collect();
        ShardedServe { inner, drivers }
    }

    /// Registers a plain tenant on its hash-owned shard (see
    /// [`ServeRegistry::register`]).
    pub fn register(&self, skel: &Skel<P, R>) -> TenantId {
        self.insert(skel, None)
    }

    /// Registers an adaptive tenant on its hash-owned shard: events are
    /// routed through the shared monitor, and the trigger warm-starts
    /// from the global estimator pool — history absorbed on *any* shard
    /// warms structural twins on every shard (see
    /// [`ServeRegistry::register_adaptive`]).
    pub fn register_adaptive(&self, skel: &Skel<P, R>, trigger: Arc<TriggerEngine>) -> TenantId {
        self.insert(skel, Some(trigger))
    }

    /// Ids are allocated here, globally, so that they hash to shards.
    fn insert(&self, skel: &Skel<P, R>, trigger: Option<Arc<TriggerEngine>>) -> TenantId {
        let id = self.inner.next_tenant.fetch_add(1, Ordering::SeqCst);
        let slot = self.inner.slot(TenantId(id));
        slot.registry.lock().insert(id, skel, trigger)
    }

    /// Feeds one item through the owning shard's admission gates and
    /// rings that shard's driver. Only the owning shard's lock is
    /// taken.
    pub fn feed(&self, tenant: TenantId, input: P) -> Admission {
        let slot = self.inner.slot(tenant);
        let out = slot.registry.lock().feed(tenant, input);
        slot.doorbell.notify_one();
        out
    }

    /// Feeds a batch through the owning shard's admission gates (one
    /// depth sample, one pool transaction per admitted chunk) and rings
    /// that shard's driver.
    pub fn feed_batch(&self, tenant: TenantId, inputs: Vec<P>) -> BatchAdmission {
        let slot = self.inner.slot(tenant);
        let out = slot.registry.lock().feed_batch(tenant, inputs);
        slot.doorbell.notify_one();
        out
    }

    /// Takes every result the tenant has finished, in submission order,
    /// without blocking (see [`ServeRegistry::take_ready`]). Rings the
    /// shard's driver only when the harvest left adaptive history for it
    /// to publish; a plain tenant's poll never does.
    pub fn take_ready(&self, tenant: TenantId) -> Vec<Result<R, EngineError>> {
        let slot = self.inner.slot(tenant);
        let mut registry = slot.registry.lock();
        let out = registry.take_ready(tenant);
        if registry.owes_publication(tenant) {
            slot.doorbell.notify_one();
        }
        out
    }

    /// Detaches the tenant from its shard, flushing its backlog and
    /// returning its remaining results (see [`ServeRegistry::detach`]).
    /// Safe to call while the shard's driver is mid-drain: the shard
    /// lock serializes them, and the driver's key-rotating cursor skips
    /// over removed tenants without re-favoring anyone.
    pub fn detach(&self, tenant: TenantId) -> Option<Vec<Result<R, EngineError>>> {
        self.inner.slot(tenant).registry.lock().detach(tenant)
    }

    /// A snapshot of `tenant`'s counters; `None` if unknown.
    pub fn stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.inner.slot(tenant).registry.lock().stats(tenant)
    }

    /// The tenant's sojourn histogram (cloned out of its shard); `None`
    /// for an unknown tenant.
    pub fn tenant_sojourn(&self, tenant: TenantId) -> Option<HistogramSnapshot> {
        self.inner
            .slot(tenant)
            .registry
            .lock()
            .tenant_sojourn(tenant)
            .cloned()
    }

    /// Blocks until every shard is settled (see
    /// [`ServeRegistry::settled`]); every fed item's result is then
    /// harvestable via [`take_ready`](Self::take_ready). The driver
    /// threads do the draining; this only polls, and rings an unsettled
    /// shard's driver out of its in-flight nap.
    pub fn quiesce(&self) {
        loop {
            let mut all = true;
            for slot in &self.inner.shards {
                let settled = slot.registry.lock().settled();
                if !settled {
                    all = false;
                    slot.doorbell.notify_one();
                }
            }
            if all {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// How many tenants are registered, over all shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.registry.lock().len())
            .sum()
    }

    /// Whether no tenants are registered on any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many shards (== driver threads) the front runs.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shared engine (non-owning clone).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The single multiplexed event monitor all shards route through.
    pub fn monitor(&self) -> &Arc<ServeMonitor> {
        &self.inner.monitor
    }

    /// The global cross-shard estimator pool.
    pub fn shared_estimators(&self) -> &SharedEstimators {
        &self.inner.shared
    }

    /// One unified metrics snapshot: the shared hub's series plus every
    /// shard's per-tenant sojourn histograms.
    pub fn export_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.engine.metrics_hub().snapshot();
        for slot in &self.inner.shards {
            slot.registry.lock().append_tenant_histograms(&mut snap);
        }
        snap
    }

    /// Stops and joins the driver threads. In-flight work is not
    /// awaited — call [`quiesce`](Self::quiesce) first if every fed
    /// item must complete. Dropping the front joins implicitly.
    pub fn join(mut self) {
        self.stop_drivers();
    }
}

impl<P, R> ShardedServe<P, R> {
    fn stop_drivers(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        for slot in &self.inner.shards {
            // With the lock, a driver has either yet to look or waits.
            drop(slot.registry.lock());
            slot.doorbell.notify_one();
        }
        for handle in self.drivers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<P, R> Drop for ShardedServe<P, R> {
    fn drop(&mut self) {
        self.stop_drivers();
    }
}

/// One shard's driver: the feed→drain→harvest loop. Holding the shard
/// lock from one look at `stop` to the next, each pass runs one fairness
/// round (`drain_cycle`), then goes again (letting ingress in first) if
/// it dispatched, naps while the shard is not
/// [`settled`](ServeRegistry::settled), or sleeps with no timeout. Every
/// change that can leave the shard owing work — a feed, a take that
/// harvested adaptive history, `stop` — is made under that lock and
/// rings after, so no ring falls between the driver's look and its wait.
fn drive<P, R>(inner: &Inner<P, R>, idx: usize)
where
    P: Send + 'static,
    R: Send + 'static,
{
    let slot = &inner.shards[idx];
    let mut registry = slot.registry.lock();
    while !inner.stop.load(Ordering::Acquire) {
        #[cfg(test)]
        slot.passes.fetch_add(1, Ordering::Relaxed);
        if registry.drain_cycle() > 0 {
            drop(registry);
            registry = slot.registry.lock();
        } else if registry.settled() {
            slot.doorbell.wait(&mut registry);
        } else {
            slot.doorbell.wait_for(&mut registry, IN_FLIGHT_NAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::seq;

    #[test]
    fn tenants_spread_over_shards_and_results_stay_per_tenant() {
        let engine = Engine::new(2);
        let serve: ShardedServe<i64, i64> =
            ShardedServe::new(&engine, 4, AdmissionPolicy::default());
        assert_eq!(serve.shards(), 4);
        let tenants: Vec<TenantId> = (0..16)
            .map(|i| serve.register(&seq(move |x: i64| x * 10 + i)))
            .collect();
        let mut used = std::collections::BTreeSet::new();
        for &t in &tenants {
            used.insert(serve.inner.shard_of(t));
        }
        assert!(used.len() > 1, "16 tenants hash onto more than one shard");
        for (i, &t) in tenants.iter().enumerate() {
            for x in 0..4 {
                assert_ne!(
                    serve.feed(t, x),
                    Admission::Rejected(crate::RejectReason::UnknownTenant),
                    "tenant {i} routed to the wrong shard"
                );
            }
        }
        serve.quiesce();
        for (i, &t) in tenants.iter().enumerate() {
            let got: Vec<i64> = serve
                .take_ready(t)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            let want: Vec<i64> = (0..4).map(|x| x * 10 + i as i64).collect();
            assert_eq!(got, want, "tenant {i}");
        }
        serve.join();
        engine.shutdown();
    }

    #[test]
    fn drivers_dispatch_backlogs_without_explicit_drain_calls() {
        let engine = Engine::new(2);
        // Quota 1 forces nearly everything through the backlog: only
        // the shard drivers can dispatch it.
        let policy = AdmissionPolicy::default().max_in_flight(1).max_backlog(512);
        let serve: ShardedServe<i64, i64> = ShardedServe::new(&engine, 4, policy);
        let t = serve.register(&seq(|x: i64| x + 1));
        let out = serve.feed_batch(t, (0..64).collect());
        assert_eq!(out.submitted + out.queued, 64, "nothing shed");
        serve.quiesce();
        let got: Vec<i64> = serve
            .take_ready(t)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, (1..=64).collect::<Vec<_>>());
        serve.join();
        engine.shutdown();
    }

    /// An idle front sleeps until there is work: once quiesced, each
    /// driver makes at most one more pass (a ring that raced the last
    /// one) in 50 ms, where a 1 ms idle timeout would make about 45.
    #[test]
    fn an_idle_front_makes_no_driver_passes() {
        let engine = Engine::new(2);
        let serve: ShardedServe<i64, i64> =
            ShardedServe::new(&engine, 2, AdmissionPolicy::default());
        for _ in 0..1_000 {
            let t = serve.register(&seq(|x: i64| x + 1));
            serve.feed(t, 1);
        }
        serve.quiesce();
        let passes = || -> Vec<usize> {
            serve
                .inner
                .shards
                .iter()
                .map(|s| s.passes.load(Ordering::Relaxed))
                .collect()
        };
        let before = passes();
        std::thread::sleep(Duration::from_millis(50));
        for (shard, (b, a)) in before.iter().zip(passes()).enumerate() {
            assert!(a - b <= 1, "shard {shard}: {} idle passes in 50 ms", a - b);
        }
        serve.join();
        engine.shutdown();
    }

    #[test]
    fn empty_front_joins_cleanly() {
        let engine = Engine::new(1);
        let serve: ShardedServe<i64, i64> =
            ShardedServe::new(&engine, 2, AdmissionPolicy::default());
        assert!(serve.is_empty());
        serve.quiesce();
        drop(serve); // Drop path joins the drivers
        engine.shutdown();
    }
}
