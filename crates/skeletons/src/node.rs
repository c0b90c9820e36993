//! The type-erased runtime representation of a skeleton program.
//!
//! A [`Node`] is one syntactic occurrence of a skeleton; [`NodeKind`] stores
//! its muscles (type-erased, see [`crate::muscle`]) and nested skeletons.
//! Execution engines interpret this tree; the autonomic layer walks it to
//! enumerate muscles and to predict the activities a not-yet-executed
//! subtree will produce.

use std::sync::Arc;

use crate::ids::{MuscleId, MuscleRole, NodeId};
use crate::muscle::{CondFn, ExecuteFn, MergeFn, SplitFn};

/// Which of the nine skeleton kinds a node is. Carried in events so
/// listeners and state machines can dispatch without touching the AST.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum KindTag {
    /// `seq(fe)` — wraps an execution muscle.
    Seq,
    /// `farm(∆)` — task replication of the nested skeleton.
    Farm,
    /// `pipe(∆1, …, ∆n)` — staged computation.
    Pipe,
    /// `while(fc, ∆)` — iterate while the condition holds.
    While,
    /// `if(fc, ∆true, ∆false)` — conditional branching.
    If,
    /// `for(n, ∆)` — fixed iteration count.
    For,
    /// `map(fs, ∆, fm)` — single instruction, multiple data.
    Map,
    /// `fork(fs, {∆}, fm)` — multiple instructions, multiple data.
    Fork,
    /// `d&C(fc, fs, ∆, fm)` — divide and conquer.
    DivideConquer,
}

impl KindTag {
    /// Canonical lower-case name as used in the paper's grammar.
    pub fn name(self) -> &'static str {
        match self {
            KindTag::Seq => "seq",
            KindTag::Farm => "farm",
            KindTag::Pipe => "pipe",
            KindTag::While => "while",
            KindTag::If => "if",
            KindTag::For => "for",
            KindTag::Map => "map",
            KindTag::Fork => "fork",
            KindTag::DivideConquer => "d&C",
        }
    }
}

impl std::fmt::Display for KindTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Payload of a [`Node`]: muscles and nested skeletons for each kind.
#[derive(Clone)]
pub enum NodeKind {
    /// `seq(fe)`
    Seq {
        /// The execution muscle.
        fe: ExecuteFn,
    },
    /// `farm(∆)`
    Farm {
        /// The replicated skeleton.
        inner: Arc<Node>,
    },
    /// `pipe(∆1, …, ∆n)` — at least two stages.
    Pipe {
        /// Pipeline stages in order.
        stages: Vec<Arc<Node>>,
    },
    /// `while(fc, ∆)`
    While {
        /// Loop condition.
        fc: CondFn,
        /// Loop body (`P → P`).
        inner: Arc<Node>,
    },
    /// `if(fc, ∆true, ∆false)`
    If {
        /// Branch condition.
        fc: CondFn,
        /// Taken when the condition is true.
        then_branch: Arc<Node>,
        /// Taken when the condition is false.
        else_branch: Arc<Node>,
    },
    /// `for(n, ∆)`
    For {
        /// Iteration count.
        n: usize,
        /// Loop body (`P → P`).
        inner: Arc<Node>,
    },
    /// `map(fs, ∆, fm)`
    Map {
        /// Split muscle.
        fs: SplitFn,
        /// Skeleton applied to every sub-problem.
        inner: Arc<Node>,
        /// Merge muscle.
        fm: MergeFn,
    },
    /// `fork(fs, {∆1, …, ∆k}, fm)` — the split must produce exactly `k`
    /// sub-problems.
    Fork {
        /// Split muscle.
        fs: SplitFn,
        /// One skeleton per sub-problem.
        inners: Vec<Arc<Node>>,
        /// Merge muscle.
        fm: MergeFn,
    },
    /// `d&C(fc, fs, ∆, fm)`
    DivideConquer {
        /// "Keep dividing?" condition.
        fc: CondFn,
        /// Divides a problem into sub-problems of the same type.
        fs: SplitFn,
        /// Base-case skeleton.
        inner: Arc<Node>,
        /// Combines sub-results.
        fm: MergeFn,
    },
}

/// One syntactic occurrence of a skeleton in a program.
pub struct Node {
    /// Stable identity (allocated at construction).
    pub id: NodeId,
    /// Optional human-readable label (shows up in traces and logs).
    pub label: Option<Arc<str>>,
    /// Optional placement annotation: the name of the worker node this
    /// subtree's tasks should run on. `None` (the default) means
    /// "anywhere". The threaded engine ignores placement (all its workers
    /// are local); the simulator's worker models honour it (see
    /// `askel-sim::workers::WorkerModel::slot_matches`).
    pub placement: Option<Arc<str>>,
    /// The skeleton kind and its payload.
    pub kind: NodeKind,
}

impl Node {
    /// Builds a node with a fresh id and no label or placement.
    pub fn new(kind: NodeKind) -> Arc<Node> {
        Arc::new(Node {
            id: NodeId::fresh(),
            label: None,
            placement: None,
            kind,
        })
    }

    /// Which of the nine kinds this node is.
    pub fn tag(&self) -> KindTag {
        match &self.kind {
            NodeKind::Seq { .. } => KindTag::Seq,
            NodeKind::Farm { .. } => KindTag::Farm,
            NodeKind::Pipe { .. } => KindTag::Pipe,
            NodeKind::While { .. } => KindTag::While,
            NodeKind::If { .. } => KindTag::If,
            NodeKind::For { .. } => KindTag::For,
            NodeKind::Map { .. } => KindTag::Map,
            NodeKind::Fork { .. } => KindTag::Fork,
            NodeKind::DivideConquer { .. } => KindTag::DivideConquer,
        }
    }

    /// The directly nested skeletons, in syntactic order.
    pub fn children(&self) -> Vec<&Arc<Node>> {
        match &self.kind {
            NodeKind::Seq { .. } => vec![],
            NodeKind::Farm { inner }
            | NodeKind::While { inner, .. }
            | NodeKind::For { inner, .. }
            | NodeKind::Map { inner, .. }
            | NodeKind::DivideConquer { inner, .. } => vec![inner],
            NodeKind::Pipe { stages } => stages.iter().collect(),
            NodeKind::If {
                then_branch,
                else_branch,
                ..
            } => vec![then_branch, else_branch],
            NodeKind::Fork { inners, .. } => inners.iter().collect(),
        }
    }

    /// The muscle roles this node owns (e.g. `map` owns Split and Merge).
    pub fn own_roles(&self) -> &'static [MuscleRole] {
        match &self.kind {
            NodeKind::Seq { .. } => &[MuscleRole::Execute],
            NodeKind::Farm { .. } | NodeKind::Pipe { .. } | NodeKind::For { .. } => &[],
            NodeKind::While { .. } | NodeKind::If { .. } => &[MuscleRole::Condition],
            NodeKind::Map { .. } | NodeKind::Fork { .. } => &[MuscleRole::Split, MuscleRole::Merge],
            NodeKind::DivideConquer { .. } => {
                &[MuscleRole::Condition, MuscleRole::Split, MuscleRole::Merge]
            }
        }
    }

    /// All muscles in the subtree rooted here, parents before children.
    ///
    /// The autonomic controller uses this to decide whether every muscle has
    /// been estimated at least once (the paper's "the system has to wait
    /// until all muscles have been executed at least once").
    pub fn collect_muscles(self: &Arc<Node>) -> Vec<MuscleDescriptor> {
        let mut out = Vec::new();
        self.walk(&mut |node| {
            for &role in node.own_roles() {
                out.push(MuscleDescriptor {
                    id: MuscleId::new(node.id, role),
                    tag: node.tag(),
                    label: node.label.clone(),
                });
            }
        });
        out
    }

    /// All nodes in the subtree, parents before children (pre-order).
    /// A node nested twice (shared `Arc`) is reported once per occurrence.
    pub fn collect_nodes(self: &Arc<Node>) -> Vec<Arc<Node>> {
        let mut out = Vec::new();
        let mut stack = vec![Arc::clone(self)];
        while let Some(n) = stack.pop() {
            out.push(Arc::clone(&n));
            let mut kids: Vec<Arc<Node>> = n.children().into_iter().map(Arc::clone).collect();
            kids.reverse();
            stack.extend(kids);
        }
        out
    }

    /// Looks a node up by id anywhere in the subtree.
    pub fn find(self: &Arc<Node>, id: NodeId) -> Option<Arc<Node>> {
        self.collect_nodes().into_iter().find(|n| n.id == id)
    }

    /// Number of nodes in the subtree (counting shared nodes once per
    /// occurrence).
    pub fn size(self: &Arc<Node>) -> usize {
        self.collect_nodes().len()
    }

    /// Maximum nesting depth (a lone `seq` has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// A structural fingerprint of the subtree: a deterministic hash over
    /// the pre-order sequence of (kind, child count, `for` iteration
    /// count, label), ignoring node identity, muscle functions and
    /// placement annotations.
    ///
    /// Two independently constructed trees share a key **iff** they have
    /// the same shape — this is what lets the serving layer share
    /// estimator history across tenants running structurally identical
    /// programs (different `NodeId`s) while keeping structurally
    /// different programs apart. Labels participate in the key, so a
    /// labelled variant can opt out of sharing with its unlabelled twin.
    pub fn structure_key(self: &Arc<Node>) -> u64 {
        // FNV-1a, folded byte by byte: stable across processes and runs
        // (no per-process seed), unlike `DefaultHasher`.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn fold(h: u64, bytes: &[u8]) -> u64 {
            bytes
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(PRIME))
        }
        let mut h = OFFSET;
        for node in self.collect_nodes() {
            h = fold(h, node.tag().name().as_bytes());
            h = fold(h, &(node.children().len() as u32).to_le_bytes());
            if let NodeKind::For { n, .. } = &node.kind {
                h = fold(h, &(*n as u64).to_le_bytes());
            }
            match &node.label {
                Some(label) => {
                    h = fold(h, &[1]);
                    h = fold(h, label.as_bytes());
                }
                None => h = fold(h, &[0]),
            }
        }
        h
    }

    fn walk(self: &Arc<Node>, f: &mut impl FnMut(&Arc<Node>)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("tag", &self.tag())
            .field("label", &self.label)
            .finish()
    }
}

/// A muscle together with the skeleton kind and label of its owning node.
#[derive(Clone, Debug)]
pub struct MuscleDescriptor {
    /// The muscle's estimator key.
    pub id: MuscleId,
    /// Kind of the owning node.
    pub tag: KindTag,
    /// Label of the owning node, if any.
    pub label: Option<Arc<str>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skel::{map, seq, sfor, sif, swhile};

    fn nested_map() -> Arc<Node> {
        // map(fs, map(fs, seq(fe), fm), fm) — the paper's running example.
        let inner = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v.len() as i64),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        map(
            |v: Vec<i64>| vec![v.clone(), v],
            inner,
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        )
        .into_node()
    }

    #[test]
    fn nested_map_structure() {
        let n = nested_map();
        assert_eq!(n.tag(), KindTag::Map);
        assert_eq!(n.depth(), 3);
        assert_eq!(n.size(), 3);
        let tags: Vec<_> = n.collect_nodes().iter().map(|n| n.tag()).collect();
        assert_eq!(tags, vec![KindTag::Map, KindTag::Map, KindTag::Seq]);
    }

    #[test]
    fn muscle_collection_covers_all_roles() {
        let n = nested_map();
        let muscles = n.collect_muscles();
        // outer map: fs+fm, inner map: fs+fm, seq: fe
        assert_eq!(muscles.len(), 5);
        let roles: Vec<_> = muscles.iter().map(|m| m.id.role).collect();
        assert_eq!(
            roles,
            vec![
                MuscleRole::Split,
                MuscleRole::Merge,
                MuscleRole::Split,
                MuscleRole::Merge,
                MuscleRole::Execute
            ]
        );
    }

    #[test]
    fn own_roles_per_kind() {
        let w = swhile(|x: &i64| *x > 0, seq(|x: i64| x - 1)).into_node();
        assert_eq!(w.own_roles(), &[MuscleRole::Condition]);
        let f = sfor(3, seq(|x: i64| x + 1)).into_node();
        assert!(f.own_roles().is_empty());
        let i = sif(|x: &i64| *x > 0, seq(|x: i64| x), seq(|x: i64| -x)).into_node();
        assert_eq!(i.own_roles(), &[MuscleRole::Condition]);
    }

    #[test]
    fn find_locates_nested_nodes() {
        let n = nested_map();
        let inner_seq = n.collect_nodes()[2].clone();
        assert_eq!(n.find(inner_seq.id).unwrap().id, inner_seq.id);
        assert!(n.find(NodeId(u64::MAX)).is_none());
    }

    #[test]
    fn structure_key_matches_shape_not_identity() {
        use crate::skel::pipe;
        // Two independently built copies of the same shape share a key…
        let a = pipe(seq(|x: i64| x + 1), seq(|x: i64| x * 2)).into_node();
        let b = pipe(seq(|x: i64| x + 9), seq(|x: i64| x * 7)).into_node();
        assert_ne!(a.id, b.id, "identities differ");
        assert_eq!(a.structure_key(), b.structure_key());
        // …while different shapes do not.
        let three = pipe(seq(|x: i64| x), pipe(seq(|x: i64| x), seq(|x: i64| x))).into_node();
        assert_ne!(a.structure_key(), three.structure_key());
        let lone = seq(|x: i64| x).into_node();
        assert_ne!(a.structure_key(), lone.structure_key());
    }

    #[test]
    fn structure_key_sees_for_count_and_label() {
        let twice = sfor(2, seq(|x: i64| x + 1)).into_node();
        let thrice = sfor(3, seq(|x: i64| x + 1)).into_node();
        assert_ne!(twice.structure_key(), thrice.structure_key());
        let plain = seq(|x: i64| x);
        let labelled = seq(|x: i64| x).labeled("special");
        assert_ne!(
            plain.into_node().structure_key(),
            labelled.into_node().structure_key(),
            "a label opts out of sharing with the unlabelled twin"
        );
    }

    #[test]
    fn pre_order_visits_pipe_stages_in_order() {
        use crate::skel::pipe;
        let p = pipe(seq(|x: i64| x + 1), seq(|x: i64| x * 2)).into_node();
        let nodes = p.collect_nodes();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].tag(), KindTag::Pipe);
        // Stage order must be preserved.
        assert!(nodes[1].id < nodes[2].id);
    }
}
