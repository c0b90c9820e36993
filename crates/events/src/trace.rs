//! Skeleton traces: the runtime path from the root skeleton instance to the
//! instance that raised an event.
//!
//! The paper's listeners receive a `Skeleton[]` trace; ours additionally
//! carries the *instance* id of every level, which is what lets the
//! autonomic state-machine tracker route an event to the state machine of
//! the right skeleton instance (the `[idx == i]` guards of Figs. 3–4 need
//! the parent instance, not just the parent node).

use std::sync::Arc;

use askel_skeletons::{InstanceId, KindTag, NodeId};

/// One level of a trace: a node plus the runtime instance of it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceEntry {
    /// The AST node.
    pub node: NodeId,
    /// Which runtime instance of that node.
    pub instance: InstanceId,
    /// The node's kind (carried so listeners need not consult the AST).
    pub kind: KindTag,
}

/// An immutable path of [`TraceEntry`] values from the root instance
/// (first) to the raising instance (last).
///
/// Stored as a shared path plus, optionally, one more entry kept inline:
/// [`child`](Trace::child) of a trace with no inline entry shares its
/// path and allocates nothing. The interpreter folds the inline entry of
/// every instance that has children into a path of its own, once, so a
/// loop's or a fan-out's children all share their parent's path. Cloning
/// is an `Arc` bump.
#[derive(Clone, Debug)]
pub struct Trace {
    path: Arc<[TraceEntry]>,
    leaf: Option<TraceEntry>,
}

impl Trace {
    /// A trace containing only the root instance.
    pub fn root(node: NodeId, instance: InstanceId, kind: KindTag) -> Self {
        Trace::empty().child(node, instance, kind)
    }

    /// The empty trace: the path above every root instance. A threaded
    /// submission allocates one at submit; if the submission is observed,
    /// its root instance's trace is this one's [`child`](Trace::child).
    pub fn empty() -> Self {
        Trace {
            path: Arc::from([]),
            leaf: None,
        }
    }

    /// The trace extended with one more (deeper) level. Allocates only if
    /// this trace holds an entry inline, to join it into the path.
    pub fn child(&self, node: NodeId, instance: InstanceId, kind: KindTag) -> Self {
        let path = match self.leaf {
            None => Arc::clone(&self.path),
            Some(_) => self.clone().joined().path,
        };
        Trace {
            path,
            leaf: Some(TraceEntry {
                node,
                instance,
                kind,
            }),
        }
    }

    /// The same trace with its entries in one shared path, so that every
    /// [`child`](Trace::child) of it shares that path. Copies the (short)
    /// path once, into one allocation, unless it is joined already.
    pub(crate) fn joined(self) -> Self {
        match self.leaf {
            None => self,
            Some(leaf) => Trace {
                // An exact-size iterator: the `Arc<[_]>` is allocated
                // once, at its final length, and filled in place.
                path: self.path.iter().copied().chain([leaf]).collect(),
                leaf: None,
            },
        }
    }

    /// The entries, root first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.path.iter().chain(&self.leaf)
    }

    /// The innermost (raising) entry; `None` for the empty trace.
    pub fn leaf(&self) -> Option<&TraceEntry> {
        self.leaf.as_ref().or(self.path.last())
    }

    /// The entry one above the leaf, i.e. the parent instance.
    pub fn parent(&self) -> Option<&TraceEntry> {
        let above = self.depth().checked_sub(2)?;
        self.path.get(above)
    }

    /// Nesting depth of the raising instance (root = 1).
    pub fn depth(&self) -> usize {
        self.path.len() + usize::from(self.leaf.is_some())
    }
}

impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.entries().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            write!(f, "{}[{}#{}]", e.kind, e.node, e.instance)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_ids(t: &Trace) -> Vec<u64> {
        t.entries().map(|e| e.instance.0).collect()
    }

    #[test]
    fn child_extends_without_mutating_parent() {
        let root = Trace::root(NodeId(1), InstanceId(10), KindTag::Map);
        let deeper = root.child(NodeId(2), InstanceId(11), KindTag::Seq);
        assert_eq!(entry_ids(&root), vec![10]);
        assert_eq!(entry_ids(&deeper), vec![10, 11]);
        assert_eq!(deeper.parent().unwrap().instance, InstanceId(10));
        assert_eq!(deeper.leaf().unwrap().instance, InstanceId(11));
        assert_eq!(deeper.depth(), 2);
    }

    #[test]
    fn a_joined_trace_reads_the_same_and_lends_its_path() {
        let root = Trace::root(NodeId(1), InstanceId(10), KindTag::For).joined();
        let mid = root.child(NodeId(2), InstanceId(11), KindTag::Map);
        let joined = mid.clone().joined();
        for t in [&mid, &joined] {
            assert_eq!(entry_ids(t), vec![10, 11]);
            assert_eq!(t.depth(), 2);
            assert_eq!(t.parent().unwrap().instance, InstanceId(10));
            assert_eq!(t.leaf().unwrap().instance, InstanceId(11));
            assert_eq!(t.to_string(), "for[n1#i10]/map[n2#i11]");
        }
        // Children of a joined trace share its path; the root's children
        // share the root's.
        let (a, b) = (
            joined.child(NodeId(3), InstanceId(12), KindTag::Seq),
            joined.child(NodeId(3), InstanceId(13), KindTag::Seq),
        );
        assert!(Arc::ptr_eq(&a.path, &b.path));
        assert!(Arc::ptr_eq(&a.path, &joined.path));
        assert_eq!(entry_ids(&b), vec![10, 11, 13]);
        assert_eq!(b.parent().unwrap().instance, InstanceId(11));
        assert!(Arc::ptr_eq(&mid.path, &root.path));
    }

    #[test]
    fn display_is_readable() {
        let t = Trace::root(NodeId(1), InstanceId(10), KindTag::Map).child(
            NodeId(2),
            InstanceId(11),
            KindTag::Seq,
        );
        assert_eq!(t.to_string(), "map[n1#i10]/seq[n2#i11]");
    }

    #[test]
    fn empty_trace_has_no_leaf() {
        let t = Trace::empty();
        assert!(t.leaf().is_none());
        assert!(t.parent().is_none());
        assert_eq!(t.depth(), 0);
    }
}
