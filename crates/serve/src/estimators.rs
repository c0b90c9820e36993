//! Cross-tenant estimator sharing, keyed by skeleton structure.
//!
//! An [`EstimatorTable`] is keyed by [`MuscleId`] — a concrete
//! `(NodeId, role)` pair — so two tenants running independently
//! constructed copies of the *same program shape* share no history:
//! every `NodeId` is fresh. [`SharedEstimators`] bridges them
//! positionally: entries are stored per **structure key**
//! ([`Node::structure_key`]) under `(pre-order index, role)` — a
//! coordinate that is identical for every tree of that shape. Absorbing
//! tenant A's table records its observations at those coordinates;
//! warming tenant B's table translates them back onto B's concrete
//! `MuscleId`s.
//!
//! This is what opens the forecast gate early: `predictive_wct` refuses
//! to forecast until the table covers every muscle of the tree, so a
//! cold tenant's forecast-gated rules stay closed for its whole warm-up.
//! Warm-started from a structural twin's history, the gate can open at
//! the tenant's *first* safe point. Structurally different programs
//! never share a key, so their histories never mix.
//!
//! The store is a cheaply-clonable handle over one `Arc`-shared,
//! lock-guarded table: every [`ServeRegistry`](crate::ServeRegistry)
//! shard of a [`ShardedServe`](crate::ShardedServe) clones the same
//! handle, so structural twins warm-start each other **across** shards
//! exactly as they do within one. The pooled history also prices the
//! latency-aware admission gate: [`SharedEstimators::estimated_cost`]
//! folds a structure's pooled durations into one per-item cost figure
//! (see [`AdmissionPolicy::max_queue_cost`]).
//!
//! [`AdmissionPolicy::max_queue_cost`]: crate::AdmissionPolicy::max_queue_cost

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use askel_core::{EstimatorTable, Ewma};
use askel_skeletons::{MuscleId, MuscleRole, Node, TimeNs};

/// One structural coordinate's pooled estimates.
struct PosEstimate {
    duration: Ewma,
    cardinality: Ewma,
}

struct Inner {
    rho: f64,
    groups: HashMap<u64, HashMap<(usize, MuscleRole), PosEstimate>>,
}

/// A positional estimator store pooled across tenants (and shards); see
/// the module docs. Clones share the same underlying table.
#[derive(Clone)]
pub struct SharedEstimators {
    inner: Arc<Mutex<Inner>>,
}

impl SharedEstimators {
    /// An empty store whose pooled EWMAs use weight `rho`.
    pub fn new(rho: f64) -> Self {
        SharedEstimators {
            inner: Arc::new(Mutex::new(Inner {
                rho: rho.clamp(0.0, 1.0),
                groups: HashMap::new(),
            })),
        }
    }

    /// How many distinct program structures hold entries.
    pub fn structures(&self) -> usize {
        self.inner.lock().groups.len()
    }

    /// How many positional entries the structure `key` holds (0 for an
    /// unknown structure).
    pub fn entries(&self, key: u64) -> usize {
        self.inner.lock().groups.get(&key).map_or(0, HashMap::len)
    }

    /// Folds `table`'s entries for the tree rooted at `root` into the
    /// root's structure group, positionally. Returns how many positional
    /// entries were updated.
    pub fn absorb(&self, root: &Arc<Node>, table: &EstimatorTable) -> usize {
        let mut inner = self.inner.lock();
        let rho = inner.rho;
        let group = inner.groups.entry(root.structure_key()).or_default();
        let mut updated = 0;
        for (idx, node) in root.collect_nodes().into_iter().enumerate() {
            for &role in node.own_roles() {
                let id = MuscleId::new(node.id, role);
                let duration = table.duration(id);
                let cardinality = table.cardinality(id);
                if duration.is_none() && cardinality.is_none() {
                    continue;
                }
                let pos = group.entry((idx, role)).or_insert_with(|| PosEstimate {
                    duration: Ewma::new(rho),
                    cardinality: Ewma::new(rho),
                });
                if let Some(d) = duration {
                    pos.duration.observe(d.0 as f64);
                }
                if let Some(c) = cardinality {
                    pos.cardinality.observe(c);
                }
                updated += 1;
            }
        }
        updated
    }

    /// Initializes `table` entries for the tree rooted at `root` from
    /// the root's structure group, positionally. Entries the table
    /// already holds are left untouched (live history beats pooled
    /// history); an unknown structure initializes nothing. Returns how
    /// many entries were initialized.
    pub fn warm(&self, root: &Arc<Node>, table: &mut EstimatorTable) -> usize {
        let inner = self.inner.lock();
        let Some(group) = inner.groups.get(&root.structure_key()) else {
            return 0;
        };
        let mut seeded = 0;
        for (idx, node) in root.collect_nodes().into_iter().enumerate() {
            for &role in node.own_roles() {
                let Some(pos) = group.get(&(idx, role)) else {
                    continue;
                };
                let id = MuscleId::new(node.id, role);
                if table.duration(id).is_none() {
                    if let Some(d) = pos.duration.value() {
                        table.init_duration(id, TimeNs(d.max(0.0) as u64));
                        seeded += 1;
                    }
                }
                if table.cardinality(id).is_none() {
                    if let Some(c) = pos.cardinality.value() {
                        table.init_cardinality(id, c);
                        seeded += 1;
                    }
                }
            }
        }
        seeded
    }

    /// A coarse per-item service-cost estimate (ns) for the structure
    /// rooted at `root`, from its pooled durations: the sum of every
    /// positional duration estimate, with `Execute` muscles weighted by
    /// the structure's largest pooled split cardinality when one is
    /// known (a fan-out runs its body once per sub-problem). `None`
    /// while the structure has no pooled history — the latency-aware
    /// admission gate then degrades to the static quotas.
    ///
    /// This is deliberately cruder than `predictive_wct` (no layout, no
    /// LP, no per-split attribution): admission wants a cheap total-work
    /// price to multiply by the pool's queue depth, not a critical-path
    /// forecast.
    pub(crate) fn estimated_cost(&self, root: &Arc<Node>) -> Option<TimeNs> {
        let inner = self.inner.lock();
        let group = inner.groups.get(&root.structure_key())?;
        if group.is_empty() {
            return None;
        }
        let fanout = group
            .iter()
            .filter(|((_, role), _)| *role == MuscleRole::Split)
            .filter_map(|(_, pos)| pos.cardinality.value())
            .fold(1.0f64, f64::max);
        let mut total = 0.0f64;
        let mut known = false;
        for (&(_, role), pos) in group.iter() {
            let Some(d) = pos.duration.value() else {
                continue;
            };
            known = true;
            let weight = if role == MuscleRole::Execute {
                fanout
            } else {
                1.0
            };
            total += d.max(0.0) * weight;
        }
        known.then_some(TimeNs(total as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::{map, seq, Skel};

    fn fan() -> Skel<Vec<i64>, i64> {
        map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        )
    }

    fn seeded_table(program: &Skel<Vec<i64>, i64>) -> EstimatorTable {
        let mut t = EstimatorTable::new(0.5);
        for m in program.node().collect_muscles() {
            t.init_duration(m.id, TimeNs::from_millis(10));
            if m.id.role == MuscleRole::Split {
                t.init_cardinality(m.id, 4.0);
            }
        }
        t
    }

    #[test]
    fn warm_translates_history_onto_a_structural_twin() {
        let a = fan();
        let b = fan();
        assert_ne!(a.id(), b.id());
        assert_eq!(a.structure_key(), b.structure_key());
        let shared = SharedEstimators::new(0.5);
        shared.absorb(a.node(), &seeded_table(&a));
        let mut fresh = EstimatorTable::new(0.5);
        let seeded = shared.warm(b.node(), &mut fresh);
        assert!(seeded > 0);
        assert!(
            fresh.covers(&b.node().collect_muscles()),
            "the twin's table covers every muscle after warming"
        );
    }

    #[test]
    fn different_structures_never_mix() {
        let a = fan();
        let other = seq(|v: Vec<i64>| v.into_iter().sum::<i64>());
        let shared = SharedEstimators::new(0.5);
        shared.absorb(a.node(), &seeded_table(&a));
        let mut fresh = EstimatorTable::new(0.5);
        assert_eq!(shared.warm(other.node(), &mut fresh), 0);
        assert!(!fresh.covers(&other.node().collect_muscles()));
    }

    #[test]
    fn live_history_beats_pooled_history() {
        let a = fan();
        let b = fan();
        let shared = SharedEstimators::new(0.5);
        shared.absorb(a.node(), &seeded_table(&a));
        let mut table = EstimatorTable::new(0.5);
        let exec = b
            .node()
            .collect_muscles()
            .into_iter()
            .find(|m| m.id.role == MuscleRole::Execute)
            .unwrap()
            .id;
        table.init_duration(exec, TimeNs::from_millis(999));
        shared.warm(b.node(), &mut table);
        assert_eq!(
            table.duration(exec),
            Some(TimeNs::from_millis(999)),
            "warming must not clobber a live entry"
        );
    }

    #[test]
    fn clones_share_one_table() {
        let a = fan();
        let b = fan();
        let shared = SharedEstimators::new(0.5);
        let other_handle = shared.clone();
        shared.absorb(a.node(), &seeded_table(&a));
        let mut fresh = EstimatorTable::new(0.5);
        assert!(
            other_handle.warm(b.node(), &mut fresh) > 0,
            "a clone must see history absorbed through the original"
        );
    }

    #[test]
    fn estimated_cost_weights_fanout_and_tracks_history() {
        let a = fan();
        let shared = SharedEstimators::new(0.5);
        assert_eq!(shared.estimated_cost(a.node()), None, "cold: no price");
        shared.absorb(a.node(), &seeded_table(&a));
        let cost = shared.estimated_cost(a.node()).expect("warm: priced");
        // split + merge + execute×cardinality(4) = 10ms×(1+1+4) = 60ms.
        assert_eq!(cost, TimeNs::from_millis(60));
        // A structurally different program stays unpriced.
        let other = seq(|v: Vec<i64>| v.into_iter().sum::<i64>());
        assert_eq!(shared.estimated_cost(other.node()), None);
    }
}
