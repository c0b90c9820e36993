//! The multiplexed monitor: one registered listener for all tenants.
//!
//! Registering every tenant's [`TriggerEngine`] as its own listener on
//! the shared engine would make event delivery O(tenants) — every
//! listener sees every tenant's events and discards the foreign ones.
//! [`ServeMonitor`] inverts that: it is the **single** listener the
//! registry installs, and it routes each event to the trigger engines of
//! the tenants whose tree contains the event's node (an O(1) map
//! lookup). There is no slot for a shared `AutonomicController`: a
//! controller analyses one AST against one WCT goal, so it belongs to a
//! session — whose trigger engine is made for it
//! (`TriggerEngine::for_controller`) and shares its knowledge — not to a
//! front that carries every tenant's events.
//!
//! Routing is by `NodeId`, so tenants running *the same* `Skel` clone
//! (shared identity) both receive events for their shared nodes — the
//! Skandium semantics: shared skeleton objects share estimator history.
//! Tenants with distinct trees never overlap. The registry keeps routes
//! current across safe-point rewrites (a rewrite changes the tree's node
//! set) via its drain cycle.
//!
//! Under a [`ShardedServe`](crate::ShardedServe) the monitor stays the
//! single registered listener for **all** shards: delivery walks only
//! this table's own `RwLock` — a worker thread emitting an event never
//! touches any shard's registry lock, so the event path cannot serialize
//! ingress or drain on another shard. Delivery is a flat `NodeId`
//! lookup: one read lock, under which the node's owner list (an
//! `Arc<[Route]>`) is cloned by reference count — no allocation, and no
//! callback under the lock.
//!
//! The monitor asks engines only for the event positions trigger engines
//! read ([`TriggerEngine::INTEREST`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use askel_adapt::TriggerEngine;
use askel_engine::Engine;
use askel_events::{Event, Interest, Listener, Payload};
use askel_skeletons::{Node, NodeId};

/// One node's route: the owning tenant and its trigger.
#[derive(Clone)]
struct Route {
    tenant: u64,
    trigger: Arc<TriggerEngine>,
}

/// The single serve-layer listener; see the module docs. Created and
/// managed by [`ServeRegistry`](crate::ServeRegistry) /
/// [`ShardedServe`](crate::ShardedServe).
#[derive(Default)]
pub struct ServeMonitor {
    /// Owner lists are immutable and replaced whole, so delivery can take
    /// one by reference count.
    routes: RwLock<HashMap<NodeId, Arc<[Route]>>>,
    /// Whether the monitor is an engine listener yet.
    installed: AtomicBool,
}

impl ServeMonitor {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ServeMonitor::default())
    }

    /// Registers the monitor as `engine`'s listener, once — whichever
    /// shard's first adaptive tenant gets here first.
    pub(crate) fn install(self: &Arc<Self>, engine: &Engine) {
        if !self.installed.swap(true, Ordering::SeqCst) {
            engine.registry().add_listener(Arc::clone(self) as _);
        }
    }

    /// Routes every node of `root`'s tree to `tenant`'s trigger engine,
    /// returning the routed ids (the registry keeps them for unrouting
    /// after a rewrite or a detach).
    pub(crate) fn route(
        &self,
        tenant: u64,
        trigger: &Arc<TriggerEngine>,
        root: &Arc<Node>,
    ) -> Vec<NodeId> {
        let nodes: Vec<NodeId> = root.collect_nodes().iter().map(|n| n.id).collect();
        let mut routes = self.routes.write();
        for &id in &nodes {
            let owners = routes.entry(id).or_insert_with(|| Arc::from([]));
            if !owners.iter().any(|r| r.tenant == tenant) {
                let route = Route {
                    tenant,
                    trigger: Arc::clone(trigger),
                };
                *owners = owners.iter().cloned().chain([route]).collect();
            }
        }
        nodes
    }

    /// Removes `tenant`'s routes for `ids`.
    pub(crate) fn unroute(&self, tenant: u64, ids: &[NodeId]) {
        let mut routes = self.routes.write();
        for id in ids {
            if let Some(owners) = routes.get_mut(id) {
                if owners.iter().any(|r| r.tenant == tenant) {
                    *owners = owners
                        .iter()
                        .filter(|r| r.tenant != tenant)
                        .cloned()
                        .collect();
                }
                if owners.is_empty() {
                    routes.remove(id);
                }
            }
        }
    }

    /// How many node ids currently have at least one route.
    #[cfg(test)]
    pub(crate) fn routed_nodes(&self) -> usize {
        self.routes.read().len()
    }
}

impl Listener for ServeMonitor {
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        // Take the owners under the read lock, deliver outside it: a
        // callback must never run while the table is locked (a rewrite
        // on another thread may be re-routing), and delivery must never
        // wait on a shard's registry lock.
        let owners = self.routes.read().get(&event.node).cloned();
        for route in owners.iter().flat_map(|owners| owners.iter()) {
            route.trigger.on_event(payload, event);
        }
    }

    fn interest(&self) -> Interest {
        TriggerEngine::INTEREST
    }
}
