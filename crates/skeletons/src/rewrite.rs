//! Structural rewriting of skeleton trees.
//!
//! Self-configuration (the `askel-adapt` crate) adapts the *structure* of a
//! running skeleton: promoting a sequential leaf to a data-parallel pattern,
//! swapping a fragile muscle for a fallback, and so on. The mechanism lives
//! here, at the bottom of the stack, because it is a pure tree operation:
//! [`Node::replace_subtree`] builds a new tree with one subtree substituted,
//! **sharing** every untouched subtree with the original (persistent-tree
//! style) and **preserving the ids and labels of rebuilt ancestors** so that
//! estimator history keyed by [`MuscleId`](crate::ids::MuscleId) survives the
//! rewrite.
//!
//! The original tree is never mutated: in-flight executions keep their
//! `Arc`'d version while new submissions use the rewritten one — which is
//! exactly what makes safe-point application in a stream session trivially
//! race-free.

use std::sync::Arc;

use crate::ids::NodeId;
use crate::node::{Node, NodeKind};
use crate::skel::Skel;

impl Node {
    /// Returns a new tree in which every occurrence of the node `target`
    /// is replaced by `replacement`, or `None` if `target` does not occur
    /// in this subtree.
    ///
    /// Untouched subtrees are shared with `self`; ancestors on the path to
    /// the replacement are rebuilt with their original id and label (their
    /// estimator history stays addressable). A node nested twice (shared
    /// `Arc`) is replaced at every occurrence, consistent with shared
    /// identity sharing estimator history.
    pub fn replace_subtree(
        self: &Arc<Node>,
        target: NodeId,
        replacement: &Arc<Node>,
    ) -> Option<Arc<Node>> {
        if self.id == target {
            return Some(Arc::clone(replacement));
        }
        // Rebuild one child slot; `None` means the target is not below it.
        let swap = |child: &Arc<Node>| child.replace_subtree(target, replacement);
        // Rebuild a child vector, reporting whether anything changed.
        let swap_vec = |children: &[Arc<Node>]| -> Option<Vec<Arc<Node>>> {
            let mut changed = false;
            let rebuilt: Vec<Arc<Node>> = children
                .iter()
                .map(|c| match swap(c) {
                    Some(new) => {
                        changed = true;
                        new
                    }
                    None => Arc::clone(c),
                })
                .collect();
            changed.then_some(rebuilt)
        };
        let kind = match &self.kind {
            NodeKind::Seq { .. } => return None,
            NodeKind::Farm { inner } => NodeKind::Farm {
                inner: swap(inner)?,
            },
            NodeKind::Pipe { stages } => NodeKind::Pipe {
                stages: swap_vec(stages)?,
            },
            NodeKind::While { fc, inner } => NodeKind::While {
                fc: fc.clone(),
                inner: swap(inner)?,
            },
            NodeKind::If {
                fc,
                then_branch,
                else_branch,
            } => {
                let new_then = swap(then_branch);
                let new_else = swap(else_branch);
                if new_then.is_none() && new_else.is_none() {
                    return None;
                }
                NodeKind::If {
                    fc: fc.clone(),
                    then_branch: new_then.unwrap_or_else(|| Arc::clone(then_branch)),
                    else_branch: new_else.unwrap_or_else(|| Arc::clone(else_branch)),
                }
            }
            NodeKind::For { n, inner } => NodeKind::For {
                n: *n,
                inner: swap(inner)?,
            },
            NodeKind::Map { fs, inner, fm } => NodeKind::Map {
                fs: fs.clone(),
                inner: swap(inner)?,
                fm: fm.clone(),
            },
            NodeKind::Fork { fs, inners, fm } => NodeKind::Fork {
                fs: fs.clone(),
                inners: swap_vec(inners)?,
                fm: fm.clone(),
            },
            NodeKind::DivideConquer { fc, fs, inner, fm } => NodeKind::DivideConquer {
                fc: fc.clone(),
                fs: fs.clone(),
                inner: swap(inner)?,
                fm: fm.clone(),
            },
        };
        Some(Arc::new(Node {
            id: self.id,
            label: self.label.clone(),
            placement: self.placement.clone(),
            kind,
        }))
    }

    /// Returns a copy of this subtree with **every** node's placement
    /// annotation set to `node_name` (ids and labels preserved, so
    /// estimator history keyed by [`MuscleId`](crate::ids::MuscleId)
    /// survives). The original tree is untouched.
    ///
    /// Placement is set deeply because the engines schedule each nested
    /// skeleton's tasks from its *own* node: annotating only the subtree
    /// root would leave its children free to run anywhere.
    pub(crate) fn with_placement(self: &Arc<Node>, node_name: &Arc<str>) -> Arc<Node> {
        let place = |child: &Arc<Node>| child.with_placement(node_name);
        let place_vec =
            |children: &[Arc<Node>]| -> Vec<Arc<Node>> { children.iter().map(place).collect() };
        let kind = match &self.kind {
            NodeKind::Seq { fe } => NodeKind::Seq { fe: fe.clone() },
            NodeKind::Farm { inner } => NodeKind::Farm {
                inner: place(inner),
            },
            NodeKind::Pipe { stages } => NodeKind::Pipe {
                stages: place_vec(stages),
            },
            NodeKind::While { fc, inner } => NodeKind::While {
                fc: fc.clone(),
                inner: place(inner),
            },
            NodeKind::If {
                fc,
                then_branch,
                else_branch,
            } => NodeKind::If {
                fc: fc.clone(),
                then_branch: place(then_branch),
                else_branch: place(else_branch),
            },
            NodeKind::For { n, inner } => NodeKind::For {
                n: *n,
                inner: place(inner),
            },
            NodeKind::Map { fs, inner, fm } => NodeKind::Map {
                fs: fs.clone(),
                inner: place(inner),
                fm: fm.clone(),
            },
            NodeKind::Fork { fs, inners, fm } => NodeKind::Fork {
                fs: fs.clone(),
                inners: place_vec(inners),
                fm: fm.clone(),
            },
            NodeKind::DivideConquer { fc, fs, inner, fm } => NodeKind::DivideConquer {
                fc: fc.clone(),
                fs: fs.clone(),
                inner: place(inner),
                fm: fm.clone(),
            },
        };
        Arc::new(Node {
            id: self.id,
            label: self.label.clone(),
            placement: Some(Arc::clone(node_name)),
            kind,
        })
    }
}

impl<P, R> Skel<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// Returns a new skeleton with the subtree rooted at `target` replaced
    /// by `replacement`, or `None` if `target` does not occur.
    ///
    /// Like `Skel::from_node`, the caller asserts that `replacement`
    /// computes the same input/output types as the node it replaces — the
    /// typed rule constructors in `askel-adapt` cannot get this wrong. The
    /// original skeleton is untouched (in-flight executions are unaffected).
    pub fn rewritten(&self, target: NodeId, replacement: &Arc<Node>) -> Option<Skel<P, R>> {
        self.node()
            .replace_subtree(target, replacement)
            .map(Skel::from_node)
    }

    /// Returns a new skeleton in which the subtree rooted at `target`
    /// carries the placement annotation `node_name` on every node
    /// (ancestors rebuilt, ids preserved; placement is set deeply because
    /// the engines schedule each nested skeleton's tasks from its *own*
    /// node), or `None` if `target` does not occur.
    ///
    /// Placement is purely a scheduling hint: results are identical
    /// wherever the subtree runs, which is what makes an `Offload`
    /// rewrite result-invariant by construction.
    pub fn placed_at(&self, target: NodeId, node_name: &str) -> Option<Skel<P, R>> {
        let name: Arc<str> = Arc::from(node_name);
        let placed = self.node().find(target)?.with_placement(&name);
        self.rewritten(target, &placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skel::{map, pipe, seq, sif};

    fn counting_map() -> Skel<Vec<i64>, i64> {
        map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        )
    }

    #[test]
    fn replacing_a_leaf_rebuilds_only_the_path() {
        let program = counting_map();
        let leaf = Arc::clone(program.node().children()[0]);
        let replacement = seq(|v: Vec<i64>| v[0] * 10);
        let new = program.rewritten(leaf.id, replacement.node()).unwrap();
        // Root id and label survive; the leaf is the replacement.
        assert_eq!(new.id(), program.id());
        assert_eq!(new.node().children()[0].id, replacement.id());
        // Semantics: every element now scaled by 10.
        assert_eq!(new.apply(vec![1, 2, 3]), 60);
        assert_eq!(program.apply(vec![1, 2, 3]), 6, "original untouched");
    }

    #[test]
    fn replacing_the_root_returns_the_replacement() {
        let program = counting_map();
        let replacement = seq(|v: Vec<i64>| v.len() as i64);
        let new = program.rewritten(program.id(), replacement.node()).unwrap();
        assert_eq!(new.id(), replacement.id());
        assert_eq!(new.apply(vec![5, 5, 5]), 3);
    }

    #[test]
    fn missing_target_returns_none() {
        let program = counting_map();
        let replacement = seq(|v: Vec<i64>| v[0]);
        assert!(program
            .rewritten(NodeId(u64::MAX - 1), replacement.node())
            .is_none());
    }

    #[test]
    fn pipe_stage_replacement_keeps_sibling_shared() {
        let first = seq(|x: i64| x + 1);
        let second = seq(|x: i64| x * 2);
        let program = pipe(first.clone(), second.clone());
        let replacement = seq(|x: i64| x + 100);
        let new = program.rewritten(first.id(), replacement.node()).unwrap();
        // Untouched sibling is the same Arc.
        assert!(Arc::ptr_eq(new.node().children()[1], second.node()));
        assert_eq!(new.apply(1), 202);
        assert_eq!(program.apply(1), 4);
    }

    #[test]
    fn shared_node_is_replaced_at_every_occurrence() {
        let shared = seq(|x: i64| x + 1);
        let program = sif(|x: &i64| *x > 0, shared.clone(), shared.clone());
        let replacement = seq(|x: i64| x - 1);
        let new = program.rewritten(shared.id(), replacement.node()).unwrap();
        assert_eq!(new.apply(5), 4);
        assert_eq!(new.apply(-5), -6);
    }

    #[test]
    fn placed_at_annotates_the_whole_subtree_and_preserves_ids() {
        let program = counting_map();
        let leaf_id = program.node().children()[0].id;
        let placed = program.placed_at(program.id(), "worker-9").unwrap();
        // Every node of the placed subtree carries the annotation...
        for n in placed.node().collect_nodes() {
            assert_eq!(n.placement.as_deref(), Some("worker-9"), "{n:?}");
        }
        // ...with ids preserved (estimator history survives).
        assert_eq!(placed.id(), program.id());
        assert_eq!(placed.node().children()[0].id, leaf_id);
        // The original is untouched and results are identical.
        assert!(program.node().placement.is_none());
        assert_eq!(placed.apply(vec![1, 2, 3]), program.apply(vec![1, 2, 3]));
    }

    #[test]
    fn placed_at_nested_target_leaves_ancestors_unplaced() {
        let program = counting_map();
        let leaf_id = program.node().children()[0].id;
        let placed = program.placed_at(leaf_id, "remote").unwrap();
        assert!(placed.node().placement.is_none(), "root not annotated");
        assert_eq!(
            placed.node().children()[0].placement.as_deref(),
            Some("remote")
        );
        assert_eq!(placed.id(), program.id());
        assert!(placed.placed_at(NodeId(u64::MAX - 3), "x").is_none());
    }

    #[test]
    fn replace_subtree_preserves_ancestor_placement() {
        let program = counting_map().placed_at(counting_map().id(), "ignored");
        // placed_at on a *different* tree's id: None. Use a real one.
        assert!(program.is_none());
        let base = counting_map();
        let placed = base.placed_at(base.id(), "hub").unwrap();
        let leaf = Arc::clone(placed.node().children()[0]);
        let replacement = seq(|v: Vec<i64>| v[0] * 10);
        let new = placed.rewritten(leaf.id, replacement.node()).unwrap();
        assert_eq!(
            new.node().placement.as_deref(),
            Some("hub"),
            "rebuilt ancestors keep their placement"
        );
        // The replacement subtree carries its own (absent) placement.
        assert!(new.node().children()[0].placement.is_none());
    }

    #[test]
    fn nested_replacement_preserves_ancestor_ids() {
        let inner = counting_map();
        let inner_id = inner.id();
        let leaf = Arc::clone(inner.node().children()[0]);
        let program = map(
            |v: Vec<Vec<i64>>| v,
            inner,
            |parts: Vec<i64>| parts.into_iter().sum::<i64>(),
        );
        let replacement = seq(|v: Vec<i64>| v[0] * 2);
        let new = program.rewritten(leaf.id, replacement.node()).unwrap();
        assert_eq!(new.id(), program.id());
        assert_eq!(new.node().children()[0].id, inner_id);
        assert_eq!(new.apply(vec![vec![1, 2], vec![3]]), 12);
    }
}
