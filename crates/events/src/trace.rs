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
/// Cloning is an `Arc` bump; extending copies the (short) path once, into
/// one allocation.
#[derive(Clone, Debug)]
pub struct Trace(Arc<[TraceEntry]>);

impl Trace {
    /// A trace containing only the root instance.
    pub fn root(node: NodeId, instance: InstanceId, kind: KindTag) -> Self {
        Trace(Arc::from([TraceEntry {
            node,
            instance,
            kind,
        }]))
    }

    /// An empty trace (used only as a neutral placeholder in tests).
    pub fn empty() -> Self {
        Trace(Arc::from([]))
    }

    /// The trace extended with one more (deeper) level.
    pub fn child(&self, node: NodeId, instance: InstanceId, kind: KindTag) -> Self {
        let leaf = TraceEntry {
            node,
            instance,
            kind,
        };
        // An exact-size iterator: the `Arc<[_]>` is allocated once, at
        // its final length, and filled in place.
        Trace(
            self.0
                .iter()
                .copied()
                .chain(std::iter::once(leaf))
                .collect(),
        )
    }

    /// The entries, root first.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.0
    }

    /// The innermost (raising) entry; `None` for the empty trace.
    pub fn leaf(&self) -> Option<&TraceEntry> {
        self.0.last()
    }

    /// The entry one above the leaf, i.e. the parent instance.
    pub fn parent(&self) -> Option<&TraceEntry> {
        self.0.len().checked_sub(2).map(|i| &self.0[i])
    }

    /// Nesting depth of the raising instance (root = 1).
    pub fn depth(&self) -> usize {
        self.0.len()
    }
}

impl std::fmt::Display for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
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
        t.entries().iter().map(|e| e.instance.0).collect()
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
