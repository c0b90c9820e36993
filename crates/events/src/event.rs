//! Event values raised during skeleton execution.
//!
//! The paper writes events as `∆@event(information)`; ours are structured as
//! *(when, where)* pairs relative to a skeleton instance, so the full event
//! vocabulary is:
//!
//! | skeleton | events (paper notation → ours) |
//! |----------|--------------------------------|
//! | `seq`    | `@b`/`@a` → (Before/After, Skeleton) |
//! | `map`    | `@b`, `@bs`/`@as`, nested before/after, `@bm`/`@am`, `@a` → (Before/After, Skeleton / Split / NestedSkeleton / Merge) |
//! | `while`, `if`, `d&C` | additionally (Before/After, Condition) per test |
//! | all others | (Before/After, Skeleton) plus their muscles' pairs |
//!
//! Every event carries the instance index `i` (see
//! [`askel_skeletons::InstanceId`]), the trace, a timestamp from
//! the engine's [`Clock`](askel_skeletons::Clock), and the extra runtime
//! information the paper mentions (e.g. "Map After Split provides the number
//! of sub-problems created").

use askel_skeletons::{InstanceId, KindTag, NodeId, TimeNs};

use crate::trace::Trace;

/// Is the event raised before or after the thing it brackets?
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum When {
    /// Raised immediately before (muscle about to run on this thread).
    Before,
    /// Raised immediately after (muscle just ran on this thread).
    After,
}

impl std::fmt::Display for When {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            When::Before => "before",
            When::After => "after",
        })
    }
}

/// Which part of the skeleton instance the event brackets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Where {
    /// The whole skeleton instance (its begin/end).
    Skeleton,
    /// The split muscle.
    Split,
    /// The merge muscle.
    Merge,
    /// The condition muscle.
    Condition,
    /// One nested-skeleton execution (the parent's view of a child).
    NestedSkeleton,
    /// A structural self-configuration: the skeleton was rewritten at a
    /// safe point (the `askel-adapt` runtime emits these with
    /// [`When::After`] once the new version is in place for subsequent
    /// submissions).
    Reconfigured,
}

impl std::fmt::Display for Where {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Where::Skeleton => "skeleton",
            Where::Split => "split",
            Where::Merge => "merge",
            Where::Condition => "condition",
            Where::NestedSkeleton => "nested",
            Where::Reconfigured => "reconfigured",
        })
    }
}

/// Extra runtime information attached to specific events.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EventInfo {
    /// No extra information.
    #[default]
    None,
    /// `(After, Split)`: number of sub-problems produced (the paper's
    /// `fsCard` parameter of `map(...)@as(i, fsCard)`).
    SplitCardinality(usize),
    /// `(After, Condition)`: the condition muscle's verdict.
    ConditionResult(bool),
    /// `(Before/After, NestedSkeleton)`: which child (0-based) of the
    /// parent instance this is.
    ChildIndex(usize),
    /// `(Before/After, Skeleton)` on a `for` node: which iteration is
    /// bracketed.
    Iteration(usize),
    /// `(After, Reconfigured)`: a structural rewrite was applied at a safe
    /// point; `version` is the skeleton version the rewrite produced (the
    /// first rewrite of a session produces version 1).
    Reconfigured {
        /// Version of the skeleton after this rewrite.
        version: u64,
    },
}

impl EventInfo {
    /// The split cardinality, if this is that kind of info.
    pub fn split_cardinality(&self) -> Option<usize> {
        match self {
            EventInfo::SplitCardinality(n) => Some(*n),
            _ => None,
        }
    }

    /// The condition verdict, if this is that kind of info.
    pub fn condition_result(&self) -> Option<bool> {
        match self {
            EventInfo::ConditionResult(b) => Some(*b),
            _ => None,
        }
    }

    /// The post-rewrite skeleton version, if this is that kind of info.
    pub fn reconfigured_version(&self) -> Option<u64> {
        match self {
            EventInfo::Reconfigured { version } => Some(*version),
            _ => None,
        }
    }
}

/// One event raised during skeleton execution.
#[derive(Clone, Debug)]
pub struct Event {
    /// Node that raised the event.
    pub node: NodeId,
    /// Kind of that node (so listeners can dispatch without the AST).
    pub kind: KindTag,
    /// Before or after.
    pub when: When,
    /// Which part of the instance.
    pub wher: Where,
    /// The instance index `i`, correlating Before/After pairs and state
    /// machine transitions.
    pub index: InstanceId,
    /// Path from the root instance to the raising instance.
    pub trace: Trace,
    /// Engine timestamp (real or virtual nanoseconds).
    pub timestamp: TimeNs,
    /// Extra runtime information.
    pub info: EventInfo,
}

/// Everything an [`Event`] carries except its [`Trace`], as plain data:
/// what the event-driven state machines need to replay an event later,
/// on another thread. Of the trace it keeps only what they read — the
/// parent instance and the nesting depth (saturating at 255). Small
/// (48 bytes) and `Copy`, so a listener can append it to a log on the
/// muscle's thread and return.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EventRecord {
    /// Node that raised the event.
    pub node: NodeId,
    /// The instance index `i`.
    pub index: InstanceId,
    /// Engine timestamp (real or virtual nanoseconds).
    pub timestamp: TimeNs,
    // `InstanceId::fresh` starts at 1, so 0 encodes "no parent" without
    // the 8 bytes an `Option` would add.
    parent: u64,
    // `EventInfo` flattened to a tag byte plus one word.
    info_value: u64,
    info_tag: u8,
    /// Kind of that node.
    pub kind: KindTag,
    /// Before or after.
    pub when: When,
    /// Which part of the instance.
    pub wher: Where,
    /// Nesting depth of the raising instance (root = 1), saturating.
    pub depth: u8,
}

impl EventRecord {
    /// The enclosing instance, if any.
    pub fn parent(&self) -> Option<InstanceId> {
        (self.parent != 0).then_some(InstanceId(self.parent))
    }

    /// The event's extra runtime information.
    pub fn info(&self) -> EventInfo {
        match self.info_tag {
            1 => EventInfo::SplitCardinality(self.info_value as usize),
            2 => EventInfo::ConditionResult(self.info_value != 0),
            3 => EventInfo::ChildIndex(self.info_value as usize),
            4 => EventInfo::Iteration(self.info_value as usize),
            5 => EventInfo::Reconfigured {
                version: self.info_value,
            },
            _ => EventInfo::None,
        }
    }

    /// `true` for an event of a root submission (trace depth 1).
    pub fn is_root(&self) -> bool {
        self.depth == 1
    }
}

impl From<&Event> for EventRecord {
    fn from(e: &Event) -> Self {
        let (info_tag, info_value) = match e.info {
            EventInfo::None => (0, 0),
            EventInfo::SplitCardinality(n) => (1, n as u64),
            EventInfo::ConditionResult(b) => (2, b as u64),
            EventInfo::ChildIndex(k) => (3, k as u64),
            EventInfo::Iteration(k) => (4, k as u64),
            EventInfo::Reconfigured { version } => (5, version),
        };
        EventRecord {
            node: e.node,
            index: e.index,
            timestamp: e.timestamp,
            parent: e.trace.parent().map_or(0, |p| p.instance.0),
            info_value,
            info_tag,
            kind: e.kind,
            when: e.when,
            wher: e.wher,
            depth: e.trace.depth().min(u8::MAX as usize) as u8,
        }
    }
}

impl Event {
    /// The `(After, Reconfigured)` event announcing that the skeleton
    /// rooted at `node` (of kind `kind`) reached `version` at `at`: a root
    /// trace whose instance index is the version.
    pub fn reconfigured(node: NodeId, kind: KindTag, version: u64, at: TimeNs) -> Event {
        let index = InstanceId(version);
        Event {
            node,
            kind,
            when: When::After,
            wher: Where::Reconfigured,
            index,
            trace: Trace::root(node, index, kind),
            timestamp: at,
            info: EventInfo::Reconfigured { version },
        }
    }

    /// `true` if this is the event `(when, wher)` on a node of `kind`.
    pub fn is(&self, kind: KindTag, when: When, wher: Where) -> bool {
        self.kind == kind && self.when == when && self.wher == wher
    }

    /// Paper-style rendering, e.g. `map@as(i42, card=3)`.
    pub fn paper_notation(&self) -> String {
        let suffix = match (self.when, self.wher) {
            (When::Before, Where::Skeleton) => "b".to_string(),
            (When::After, Where::Skeleton) => "a".to_string(),
            (When::Before, Where::Split) => "bs".to_string(),
            (When::After, Where::Split) => "as".to_string(),
            (When::Before, Where::Merge) => "bm".to_string(),
            (When::After, Where::Merge) => "am".to_string(),
            (When::Before, Where::Condition) => "bc".to_string(),
            (When::After, Where::Condition) => "ac".to_string(),
            (When::Before, Where::NestedSkeleton) => "bn".to_string(),
            (When::After, Where::NestedSkeleton) => "an".to_string(),
            (When::Before, Where::Reconfigured) => "brc".to_string(),
            (When::After, Where::Reconfigured) => "rc".to_string(),
        };
        let mut s = format!("{}@{}({}", self.kind, suffix, self.index);
        match self.info {
            EventInfo::None => {}
            EventInfo::SplitCardinality(n) => s.push_str(&format!(", card={n}")),
            EventInfo::ConditionResult(b) => s.push_str(&format!(", cond={b}")),
            EventInfo::ChildIndex(k) => s.push_str(&format!(", child={k}")),
            EventInfo::Iteration(k) => s.push_str(&format!(", iter={k}")),
            EventInfo::Reconfigured { version } => s.push_str(&format!(", v={version}")),
        }
        s.push(')');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: KindTag, when: When, wher: Where, info: EventInfo) -> Event {
        Event {
            node: NodeId(1),
            kind,
            when,
            wher,
            index: InstanceId(42),
            trace: Trace::root(NodeId(1), InstanceId(42), kind),
            timestamp: TimeNs::from_millis(5),
            info,
        }
    }

    #[test]
    fn paper_notation_matches_the_paper() {
        let e = event(
            KindTag::Map,
            When::After,
            Where::Split,
            EventInfo::SplitCardinality(3),
        );
        assert_eq!(e.paper_notation(), "map@as(i42, card=3)");

        let e = event(KindTag::Seq, When::Before, Where::Skeleton, EventInfo::None);
        assert_eq!(e.paper_notation(), "seq@b(i42)");
    }

    #[test]
    fn is_matches_exactly() {
        let e = event(KindTag::Map, When::After, Where::Split, EventInfo::None);
        assert!(e.is(KindTag::Map, When::After, Where::Split));
        assert!(!e.is(KindTag::Map, When::Before, Where::Split));
        assert!(!e.is(KindTag::Seq, When::After, Where::Split));
    }

    #[test]
    fn reconfigured_notation_and_accessor() {
        let e = Event::reconfigured(NodeId(1), KindTag::Map, 42, TimeNs::from_millis(5));
        assert!(e.is(KindTag::Map, When::After, Where::Reconfigured));
        assert_eq!(e.trace.depth(), 1);
        assert_eq!(e.paper_notation(), "map@rc(i42, v=42)");
        let e = event(
            KindTag::Map,
            When::After,
            Where::Reconfigured,
            EventInfo::Reconfigured { version: 2 },
        );
        assert_eq!(e.paper_notation(), "map@rc(i42, v=2)");
        assert_eq!(e.info.reconfigured_version(), Some(2));
        assert_eq!(EventInfo::None.reconfigured_version(), None);
    }

    #[test]
    fn record_keeps_what_the_state_machines_read() {
        assert!(std::mem::size_of::<EventRecord>() <= 48);
        let infos = [
            EventInfo::None,
            EventInfo::SplitCardinality(7),
            EventInfo::ConditionResult(true),
            EventInfo::ConditionResult(false),
            EventInfo::ChildIndex(3),
            EventInfo::Iteration(9),
            EventInfo::Reconfigured { version: 2 },
        ];
        for info in infos {
            let mut e = event(KindTag::Map, When::After, Where::Split, info);
            let r = EventRecord::from(&e);
            assert_eq!(r.info(), info);
            assert_eq!(
                (r.node, r.index, r.timestamp),
                (e.node, e.index, e.timestamp)
            );
            assert_eq!((r.kind, r.when, r.wher), (e.kind, e.when, e.wher));
            assert_eq!(r.parent(), None);
            assert!(r.is_root());
            e.trace = e.trace.child(NodeId(2), InstanceId(43), KindTag::Seq);
            let r = EventRecord::from(&e);
            assert_eq!(r.parent(), Some(InstanceId(42)));
            assert_eq!(r.depth, 2);
        }
    }

    #[test]
    fn info_accessors() {
        assert_eq!(EventInfo::SplitCardinality(7).split_cardinality(), Some(7));
        assert_eq!(EventInfo::None.split_cardinality(), None);
        assert_eq!(
            EventInfo::ConditionResult(true).condition_result(),
            Some(true)
        );
        assert_eq!(EventInfo::ChildIndex(1).condition_result(), None);
    }
}
