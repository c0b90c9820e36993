//! A skeleton program laid out for execution: every node occurrence in
//! one table, addressed by index.
//!
//! An engine step names the node it runs by its index in the plan rather
//! than by holding an `Arc<Node>` of its own. Instances of one program
//! running on several workers then only *read* the shared tree: no
//! reference count moves per step, so no cache line bounces between the
//! workers. A [`Skel`](crate::Skel) builds its plan once, when it is
//! constructed, and every submission of it reads the same table.
//!
//! The table is in breadth-first order, so a node's children sit next to
//! each other and child `k` of entry `at` is `first[at] + k`. A node
//! nested twice (a shared `Arc`) has one entry per occurrence, as it has
//! one instance per occurrence at run time. The plan points down into the
//! tree only; nothing in a [`Node`] points back at a plan.
//!
//! What the structure alone says about an entry is worked out here, once
//! per program: whether its subtree holds a fan-out
//! ([`Plan::fanless`]).

use std::sync::Arc;

use crate::node::{KindTag, Node};

/// A program's node occurrences, indexed; the root is entry
/// [`Plan::ROOT`].
pub struct Plan {
    nodes: Box<[Arc<Node>]>,
    /// Per entry, the index of its first child.
    first: Box<[usize]>,
    /// Per entry, whether no `map`, `fork` or `d&C` sits at or below it.
    fanless: Box<[bool]>,
}

impl Plan {
    /// The root's index.
    pub const ROOT: usize = 0;

    /// Lays out the tree under `root`.
    pub(crate) fn new(root: Arc<Node>) -> Plan {
        let mut nodes = vec![root];
        let mut first = Vec::new();
        let mut at = 0;
        while at < nodes.len() {
            first.push(nodes.len());
            let node = Arc::clone(&nodes[at]);
            nodes.extend(node.children().into_iter().cloned());
            at += 1;
        }
        let mut plan = Plan {
            nodes: nodes.into_boxed_slice(),
            first: first.into_boxed_slice(),
            fanless: Box::default(),
        };
        // Bottom-up: every child's entry is decided before its parent's.
        let mut fanless = vec![false; plan.entries()];
        for at in (0..plan.entries()).rev() {
            let fans_out = matches!(
                plan.nodes[at].tag(),
                KindTag::Map | KindTag::Fork | KindTag::DivideConquer
            );
            fanless[at] = !fans_out && plan.kids(at).all(|kid| fanless[kid]);
        }
        plan.fanless = fanless.into_boxed_slice();
        plan
    }

    /// The root node.
    pub(crate) fn root(&self) -> &Arc<Node> {
        &self.nodes[Self::ROOT]
    }

    /// The node at entry `at`.
    pub fn node(&self, at: usize) -> &Node {
        &self.nodes[at]
    }

    /// The entry of child `k` of entry `at`, in [`Node::children`] order.
    pub fn kid(&self, at: usize, k: usize) -> usize {
        self.first[at] + k
    }

    /// How many entries the plan has: one per node occurrence.
    pub fn entries(&self) -> usize {
        self.nodes.len()
    }

    /// The entries of entry `at`'s children. They all come after `at`,
    /// so a walk from the last entry to the root meets every child before
    /// its parent.
    pub fn kids(&self, at: usize) -> std::ops::Range<usize> {
        let end = self.first.get(at + 1).copied().unwrap_or(self.nodes.len());
        self.first[at]..end
    }

    /// Whether the subtree at entry `at` holds no fan-out: only `seq`,
    /// `farm`, `pipe`, `if`, `for` and `while`. Such a subtree has no
    /// parallelism to lose by running on one thread.
    pub fn fanless(&self, at: usize) -> bool {
        self.fanless[at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skel::{dac, map, pipe, seq, sfor, sif, swhile};

    #[test]
    fn children_are_addressed_in_syntactic_order() {
        let leaf = seq(|x: i64| x);
        let program = pipe(
            sif(|x: &i64| *x > 0, leaf.clone(), seq(|x: i64| -x)),
            sfor(3, leaf.clone()),
        );
        let plan = Plan::new(Arc::clone(program.node()));
        let root = Plan::ROOT;
        assert_eq!(plan.node(root).tag(), KindTag::Pipe);
        let (branch, looped) = (plan.kid(root, 0), plan.kid(root, 1));
        assert_eq!(plan.node(branch).tag(), KindTag::If);
        assert_eq!(plan.node(looped).tag(), KindTag::For);
        // The shared leaf has one entry per occurrence, same identity.
        let (then_leaf, body) = (plan.kid(branch, 0), plan.kid(looped, 0));
        assert_ne!(then_leaf, body);
        assert_eq!(plan.node(then_leaf).id, leaf.id());
        assert_eq!(plan.node(body).id, leaf.id());
        assert_ne!(plan.node(plan.kid(branch, 1)).id, leaf.id());
        assert_eq!(plan.kids(root), branch..looped + 1);
        assert_eq!(plan.kids(branch).len(), 2);
        assert!(plan.kids(body).is_empty());
        assert_eq!(plan.entries(), program.node().size());
    }

    #[test]
    fn a_plan_holds_each_occurrence_once() {
        let leaf = seq(|v: Vec<i64>| v[0]);
        let program = map(|v: Vec<i64>| vec![v], leaf.clone(), |p: Vec<i64>| p[0]);
        let plan = Plan::new(Arc::clone(program.node()));
        assert_eq!(plan.nodes.len(), program.node().size());
        assert!(Arc::ptr_eq(plan.root(), program.node()));
        assert!(std::ptr::eq(
            plan.node(plan.kid(Plan::ROOT, 0)),
            &**leaf.node()
        ));
    }

    #[test]
    fn a_subtree_is_fanless_when_no_map_fork_or_dac_sits_in_it() {
        let leaf = seq(|x: i64| x + 1);
        let branch = sif(|x: &i64| *x > 0, leaf.clone(), seq(|x: i64| -x));
        let looped = sfor(3, swhile(|x: &i64| *x < 0, leaf.clone()));
        let program = pipe(branch, looped);
        let plan = Plan::new(Arc::clone(program.node()));
        assert!((0..plan.entries()).all(|at| plan.fanless(at)));

        let split = |x: i64| vec![x, x];
        let sum = |parts: Vec<i64>| parts.into_iter().sum::<i64>();
        let fanned = map(split, leaf.clone(), sum);
        let plan = Plan::new(Arc::clone(fanned.node()));
        assert!(!plan.fanless(Plan::ROOT));
        assert!(plan.fanless(plan.kid(Plan::ROOT, 0)), "its seq body");

        let looped = sfor(4, map(split, leaf.clone(), sum));
        let plan = Plan::new(Arc::clone(looped.node()));
        assert!(!plan.fanless(Plan::ROOT), "a map below");
        assert!(!plan.fanless(plan.kid(Plan::ROOT, 0)));

        let halved = dac(|x: &i64| *x > 1, |x: i64| vec![x / 2, x - x / 2], leaf, sum);
        let plan = Plan::new(Arc::clone(halved.node()));
        assert!(!plan.fanless(Plan::ROOT));
    }
}
