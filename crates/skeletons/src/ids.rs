//! Stable identifiers for skeleton nodes, muscles and runtime instances.
//!
//! The autonomic layer keys its estimators by [`MuscleId`], so identifiers
//! must be *stable across executions of the same AST*: a node receives its
//! [`NodeId`] once, when constructed, from a process-wide counter, and keeps
//! it for the lifetime of the program. Re-running the same `Skel` therefore
//! accumulates history in the same estimator slots, which is exactly the
//! "history-based estimation" behaviour of the paper.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of one AST node (one syntactic occurrence of a skeleton).
///
/// Allocated from a process-wide counter at construction time; two distinct
/// `seq(...)` calls produce two distinct `NodeId`s, while cloning a
/// [`Skel`](crate::skel::Skel) (or nesting it twice) shares the id — and
/// therefore shares estimator history, like shared muscle objects do in
/// Skandium.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Allocates the next process-unique node id.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NodeId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of one *runtime instance* of a skeleton: each time an engine
/// begins executing some node on some data item it mints a fresh
/// `InstanceId`.
///
/// This is the event parameter the paper calls `i`: it correlates the
/// `Before` and `After` events of the same muscle execution and is the guard
/// (`[idx == i]`) of the state machines in Figs. 3–4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl InstanceId {
    /// How many ids a thread takes from the process-wide counter at once.
    const BLOCK: u64 = 1024;

    /// Allocates a process-unique, non-zero instance id (`askel-events`'
    /// `EventRecord` encodes "no parent" as 0).
    ///
    /// Each thread takes its ids from a block of 1 024 it reserved from
    /// one process-wide counter, so concurrent workers do not write one
    /// cache line per instance. A thread that is alone in taking ids sees
    /// `1, 2, 3, …`, as with a plain counter.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        thread_local! {
            /// This thread's unused ids: `next..end`.
            static RESERVED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
        }
        RESERVED.with(|block| {
            let (mut next, mut end) = block.get();
            if next == end {
                next = NEXT.fetch_add(Self::BLOCK, Ordering::Relaxed);
                end = next + Self::BLOCK;
            }
            block.set((next + 1, end));
            InstanceId(next)
        })
    }
}

/// A multiplicative hasher for the maps keyed by internal ids
/// ([`InstanceId`], [`NodeId`], [`MuscleId`]). The keys are counters the
/// process made, never chosen by an adversary, so SipHash's protection
/// against crafted keys buys nothing; one rotate-xor-multiply per word
/// (the `FxHash` step) spreads them well enough. Keep the default hasher
/// for keys that come from outside the program.
#[derive(Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by internal ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// The four muscle flavours of the skeleton language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum MuscleRole {
    /// `fe : P → R` — wraps the sequential business logic.
    Execute,
    /// `fs : P → {R}` — divides a problem into sub-problems.
    Split,
    /// `fm : {P} → R` — combines sub-results.
    Merge,
    /// `fc : P → bool` — drives `while`, `if` and `d&C`.
    Condition,
}

impl fmt::Display for MuscleRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MuscleRole::Execute => "fe",
            MuscleRole::Split => "fs",
            MuscleRole::Merge => "fm",
            MuscleRole::Condition => "fc",
        };
        f.write_str(s)
    }
}

/// Identifier of one muscle: the node it belongs to plus its role within
/// that node.
///
/// This is the estimator key: `t(m)` and `|m|` in the paper are functions of
/// the muscle, and a muscle is uniquely determined by (node, role) because no
/// skeleton kind has two muscles of the same role.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MuscleId {
    /// The AST node owning the muscle.
    pub node: NodeId,
    /// The muscle's role within that node.
    pub role: MuscleRole,
}

impl MuscleId {
    /// Convenience constructor.
    pub fn new(node: NodeId, role: MuscleRole) -> Self {
        MuscleId { node, role }
    }
}

impl fmt::Debug for MuscleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.role)
    }
}

impl fmt::Display for MuscleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids_are_unique_and_monotonic() {
        let a = NodeId::fresh();
        let b = NodeId::fresh();
        assert_ne!(a, b);
        assert!(b.0 > a.0);
    }

    #[test]
    fn instance_ids_are_unique() {
        let a = InstanceId::fresh();
        let b = InstanceId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn instance_ids_stay_unique_and_non_zero_across_threads() {
        let per_thread = 3 * InstanceId::BLOCK as usize + 7;
        let barrier = std::sync::Barrier::new(4);
        let taken: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (0..per_thread)
                            .map(|_| InstanceId::fresh().0)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for ids in &taken {
            // One thread's ids only ever grow.
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
        let mut all: Vec<u64> = taken.into_iter().flatten().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * per_thread, "an id was handed out twice");
        assert!(all[0] > 0, "0 is the \"no instance\" id");
    }

    #[test]
    fn a_lone_thread_counts_up_by_one() {
        let ids: Vec<u64> = std::thread::spawn(|| {
            (0..2 * InstanceId::BLOCK)
                .map(|_| InstanceId::fresh().0)
                .collect()
        })
        .join()
        .unwrap();
        // Other tests take ids meanwhile, so a block boundary may jump;
        // within a block the sequence is the plain counter's.
        let steps = ids.windows(2).filter(|w| w[1] != w[0] + 1).count();
        assert!(steps <= 2, "{steps} jumps in two blocks' worth of ids");
    }

    #[test]
    fn id_maps_find_what_they_hold() {
        let mut map: IdMap<MuscleId, u64> = IdMap::default();
        for n in 0..1000 {
            for role in [MuscleRole::Split, MuscleRole::Merge] {
                map.insert(MuscleId::new(NodeId(n), role), n);
            }
        }
        assert_eq!(map.len(), 2000);
        assert_eq!(map[&MuscleId::new(NodeId(417), MuscleRole::Merge)], 417);
        assert!(!map.contains_key(&MuscleId::new(NodeId(1000), MuscleRole::Split)));
    }

    #[test]
    fn muscle_id_display_is_compact() {
        let m = MuscleId::new(NodeId(7), MuscleRole::Split);
        assert_eq!(m.to_string(), "n7.fs");
        assert_eq!(format!("{m:?}"), "n7.fs");
    }

    #[test]
    fn muscle_ids_distinguish_roles() {
        let n = NodeId::fresh();
        assert_ne!(
            MuscleId::new(n, MuscleRole::Split),
            MuscleId::new(n, MuscleRole::Merge)
        );
    }
}
