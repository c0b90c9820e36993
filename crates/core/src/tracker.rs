//! Event-driven state machines tracking skeleton execution.
//!
//! The paper (Figs. 3–4) tracks execution with one state machine per
//! skeleton *instance*, fed by events and guarded by the instance index
//! (`[idx == i]`). The state machines have two jobs:
//!
//! 1. **update the estimators** — e.g. the Map machine updates `t(fs)` and
//!    `|fs|` on `map@as(i, fsCard)`, `t(fm)` on `map@am(i)`; the Seq machine
//!    updates `t(fe)` on `seq@a(i)`;
//! 2. **maintain the live execution record** the ADG is built from: which
//!    instances exist, which muscle executions started/finished when, what
//!    each split produced, how often each `while` condition held, how deep
//!    each `d&C` recursion went.
//!
//! [`SmTracker`] implements both for all nine skeleton kinds (the paper
//! gives Seq and Map and leaves If/Fork "under construction"; supporting
//! them is part of this reproduction's realized future work).
//!
//! The tracker is a plain state container. The knowledge base
//! ([`crate::knowledge`]) owns one, logs events for it and folds them in
//! under one lock with the controller's analysis; the controller and the
//! trigger engine read it there.

use std::collections::VecDeque;

use askel_events::{EventInfo, EventRecord, Interest, When, Where};
use askel_skeletons::{IdMap, InstanceId, KindTag, MuscleId, MuscleRole, NodeId, TimeNs};

use crate::estimate::EstimatorTable;

/// One muscle execution observed at runtime (possibly still running).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// When the muscle started (its Before event).
    pub started: TimeNs,
    /// When it finished (its After event), if it has.
    pub finished: Option<TimeNs>,
}

impl Span {
    fn start(t: TimeNs) -> Self {
        Span {
            started: t,
            finished: None,
        }
    }
}

/// One observed condition evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CondSpan {
    /// The evaluation's span.
    pub span: Span,
    /// Its verdict, known at the After event.
    pub verdict: Option<bool>,
}

/// Everything known about one skeleton instance.
#[derive(Clone, Debug)]
pub struct InstanceRecord {
    /// The AST node this is an instance of.
    pub node: NodeId,
    /// The node's kind.
    pub kind: KindTag,
    /// The instance index `i`.
    pub id: InstanceId,
    /// The enclosing instance, if any.
    pub parent: Option<InstanceId>,
    /// When the instance began (its skeleton-Before event).
    pub started: TimeNs,
    /// When it ended (its skeleton-After event).
    pub finished: Option<TimeNs>,
    /// The split muscle execution, if the kind has one and it started.
    pub split: Option<Span>,
    /// What the split produced (`fsCard`), known at split-After.
    pub split_card: Option<usize>,
    /// The merge muscle execution.
    pub merge: Option<Span>,
    /// Condition evaluations, in order (`while` has many).
    pub conds: Vec<CondSpan>,
    /// Child instances, in arrival order of their skeleton-Before events.
    pub children: Vec<InstanceId>,
    /// How many condition evaluations returned `true` so far.
    pub cond_trues: usize,
    /// Recursion depth for `d&C` instances (root = 1); 1 otherwise.
    pub dc_depth: usize,
    /// For the root instance of a `d&C` recursion: deepest instance seen.
    pub dc_max_depth: usize,
}

impl InstanceRecord {
    /// `true` once the skeleton-After event arrived.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }
}

/// Event-driven execution tracker + estimator updater.
pub struct SmTracker {
    estimates: EstimatorTable,
    instances: IdMap<InstanceId, InstanceRecord>,
    /// Root instances in arrival order; the last is the current submission.
    roots: VecDeque<InstanceId>,
    /// Instances whose parent was unknown when they began (it was pruned,
    /// or its Before event never arrived): reachable from no root, so
    /// [`prune_finished`](SmTracker::prune_finished) drops them by name.
    orphans: Vec<InstanceId>,
    /// Whether an instance's record outlives the instance. The ADG is
    /// built from finished records; the estimators never read one.
    keep_finished: bool,
    /// See [`revision`](SmTracker::revision).
    revision: u64,
    /// Ended roots' spans, oldest first, until taken.
    finished_roots: VecDeque<Span>,
}

/// Unfinished roots kept across prunes — the newest this many. An item
/// that never completes (a poisoned run) ages out instead of leaking.
/// Ended roots nobody has taken are kept up to the same count.
const MAX_LIVE_ROOTS: usize = 1024;

impl SmTracker {
    /// The event positions the state machines read: not the nesting
    /// markers (children announce themselves), nor rewrite announcements.
    pub const INTEREST: Interest = Interest::ALL
        .without(Interest::at(Where::NestedSkeleton))
        .without(Interest::at(Where::Reconfigured));

    /// A tracker with a fresh estimator table using weight `rho`.
    pub fn new(rho: f64) -> Self {
        SmTracker {
            estimates: EstimatorTable::new(rho),
            instances: IdMap::default(),
            roots: VecDeque::new(),
            orphans: Vec::new(),
            keep_finished: true,
            revision: 0,
            finished_roots: VecDeque::new(),
        }
    }

    /// A tracker that serves only its estimator table: every instance's
    /// record is dropped the moment the instance ends, so memory follows
    /// the instances *running*, not the items in flight. No ADG can be
    /// built from it.
    pub(crate) fn estimators_only(rho: f64) -> Self {
        SmTracker {
            keep_finished: false,
            ..Self::new(rho)
        }
    }

    /// The estimator table (shared view).
    pub fn estimates(&self) -> &EstimatorTable {
        &self.estimates
    }

    /// Mutable access to the estimator table (for initialization).
    pub fn estimates_mut(&mut self) -> &mut EstimatorTable {
        self.revision += 1;
        &mut self.estimates
    }

    /// A counter that moves whenever a record or an estimator may have:
    /// on every event [`observe`](SmTracker::observe) acts on, every
    /// [`estimates_mut`](SmTracker::estimates_mut) and every
    /// [`prune_finished`](SmTracker::prune_finished). While it stands,
    /// anything derived from this tracker — an ADG, an analysis — would
    /// come out as it last did. The two positions `observe` ignores leave
    /// it alone, which is what lets the controller replay an analysis
    /// instead of repeating it.
    pub(crate) fn revision(&self) -> u64 {
        self.revision
    }

    /// Removes and returns the spans of the root instances that ended
    /// since the last call, in the order they ended — the realized WCT
    /// of each item. The newest 1 024 are kept meanwhile.
    pub fn take_finished_roots(&mut self) -> impl Iterator<Item = Span> + '_ {
        self.finished_roots.drain(..)
    }

    /// How many instance records, orphans and live roots the tracker
    /// holds: what a long stream must keep bounded.
    pub fn footprint(&self) -> (usize, usize, usize) {
        (self.instances.len(), self.orphans.len(), self.roots.len())
    }

    /// The current (most recent) root instance.
    pub fn current_root(&self) -> Option<&InstanceRecord> {
        self.roots.back().and_then(|id| self.instances.get(id))
    }

    /// Looks an instance up.
    pub fn instance(&self, id: InstanceId) -> Option<&InstanceRecord> {
        self.instances.get(&id)
    }

    /// Drops the records of finished roots and of orphans (estimates are
    /// kept), so memory stays bounded on long-lived engines. Every
    /// unfinished root keeps its whole subtree — with several items in
    /// flight, each one's later events still find their records. Costs
    /// O(roots kept + records dropped).
    pub fn prune_finished(&mut self) {
        self.revision += 1;
        let mut roots = std::mem::take(&mut self.roots);
        roots.retain(|&root| {
            let live = self.instances.get(&root).is_some_and(|r| !r.is_finished());
            if !live {
                self.drop_subtree(root);
            }
            live
        });
        while roots.len() > MAX_LIVE_ROOTS {
            let oldest = roots.pop_front().expect("len checked");
            self.drop_subtree(oldest);
        }
        self.roots = roots;
        for orphan in std::mem::take(&mut self.orphans) {
            self.drop_subtree(orphan);
        }
    }

    /// Removes `top` and everything below it, walking the child links.
    fn drop_subtree(&mut self, top: InstanceId) {
        let Some(rec) = self.instances.remove(&top) else {
            return;
        };
        let mut pending = rec.children;
        while let Some(id) = pending.pop() {
            if let Some(rec) = self.instances.remove(&id) {
                pending.extend(rec.children);
            }
        }
    }

    /// Feeds one event through the state machines: an `&Event` as it is
    /// raised, or the [`EventRecord`] a listener kept of it. A span
    /// ([`EventRecord::span_start`]) is a finished `seq` instance's two
    /// events at once, and leaves what they would.
    pub fn observe(&mut self, event: impl Into<EventRecord>) {
        let event = &event.into();
        if let Some(started) = event.span_start() {
            return self.on_span(event, started);
        }
        match (event.when, event.wher) {
            (When::Before, Where::Skeleton) => self.on_instance_begin(event),
            (When::After, Where::Skeleton) => self.on_instance_end(event),
            (When::Before, Where::Split) => self.on_muscle_begin(event, MuscleRole::Split),
            (When::After, Where::Split) => self.on_split_end(event),
            (When::Before, Where::Merge) => self.on_muscle_begin(event, MuscleRole::Merge),
            (When::After, Where::Merge) => self.on_merge_end(event),
            (When::Before, Where::Condition) => self.on_cond_begin(event),
            (When::After, Where::Condition) => self.on_cond_end(event),
            // Children announce themselves through their own Skeleton
            // events; the parent-side nesting events carry no extra state.
            // Structural rewrites (askel-adapt) are session-level
            // announcements, not muscle executions: nothing to estimate.
            // Neither changes anything, so neither may look like a change.
            (_, Where::NestedSkeleton | Where::Reconfigured) => return,
        }
        self.revision += 1;
    }

    /// A `seq` instance that began at `started` and ended at `span`'s
    /// timestamp. A tracker that keeps records begins and ends it; one
    /// that does not keeps of it what its two events would leave — the
    /// `t(fe)` update and, for a root, its place among the roots and its
    /// span — without making the record it would drop straight away.
    fn on_span(&mut self, span: &EventRecord, started: TimeNs) {
        self.revision += 2;
        if self.keep_finished {
            let mut begin = *span;
            (begin.when, begin.timestamp) = (When::Before, started);
            self.on_instance_begin(&begin);
            return self.on_instance_end(span);
        }
        let dur = span.timestamp.saturating_sub(started);
        self.estimates
            .observe_duration(MuscleId::new(span.node, MuscleRole::Execute), dur);
        if span.parent().is_none() {
            self.roots.push_back(span.index);
            self.end_root(Span {
                started,
                finished: Some(span.timestamp),
            });
        }
    }

    /// Keeps an ended root's span until taken, the newest
    /// [`MAX_LIVE_ROOTS`] at most.
    fn end_root(&mut self, span: Span) {
        if self.finished_roots.len() == MAX_LIVE_ROOTS {
            self.finished_roots.pop_front();
        }
        self.finished_roots.push_back(span);
    }

    fn on_instance_begin(&mut self, event: &EventRecord) {
        let parent = event.parent();
        let dc_depth = if event.kind == KindTag::DivideConquer {
            match parent.and_then(|p| self.instances.get(&p)) {
                Some(pr) if pr.node == event.node => pr.dc_depth + 1,
                _ => 1,
            }
        } else {
            1
        };
        let record = InstanceRecord {
            node: event.node,
            kind: event.kind,
            id: event.index,
            parent,
            started: event.timestamp,
            finished: None,
            split: None,
            split_card: None,
            merge: None,
            conds: Vec::new(),
            children: Vec::new(),
            cond_trues: 0,
            dc_depth,
            dc_max_depth: dc_depth,
        };
        if let Some(p) = parent {
            match self.instances.get_mut(&p) {
                Some(pr) => pr.children.push(event.index),
                None => self.orphans.push(event.index),
            }
        }
        // Propagate d&C depth to the recursion root.
        if event.kind == KindTag::DivideConquer {
            let mut cur = parent;
            let mut root = None;
            while let Some(c) = cur {
                match self.instances.get(&c) {
                    Some(r) if r.node == event.node => {
                        root = Some(c);
                        cur = r.parent;
                    }
                    _ => break,
                }
            }
            if let Some(root) = root {
                if let Some(rr) = self.instances.get_mut(&root) {
                    rr.dc_max_depth = rr.dc_max_depth.max(dc_depth);
                }
            }
        }
        if parent.is_none() {
            self.roots.push_back(event.index);
        }
        self.instances.insert(event.index, record);
    }

    fn on_instance_end(&mut self, event: &EventRecord) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        rec.finished = Some(event.timestamp);
        match rec.kind {
            KindTag::Seq => {
                // Fig. 3: t(fe) updated at seq@a with (now − eti).
                let dur = event.timestamp.saturating_sub(rec.started);
                self.estimates
                    .observe_duration(MuscleId::new(event.node, MuscleRole::Execute), dur);
            }
            // A loop whose condition went unheard (a listener reading a
            // muscle below it keeps only its brackets) leaves |fc| alone.
            KindTag::While if rec.conds.is_empty() => {}
            KindTag::While => {
                // |fc| of a while = number of `true` verdicts this run.
                let trues = rec.cond_trues as f64;
                self.estimates
                    .observe_cardinality(MuscleId::new(event.node, MuscleRole::Condition), trues);
            }
            KindTag::DivideConquer if rec.dc_depth == 1 => {
                // |fc| of a d&C = depth of the recursion tree.
                let depth = rec.dc_max_depth as f64;
                self.estimates
                    .observe_cardinality(MuscleId::new(event.node, MuscleRole::Condition), depth);
            }
            _ => {}
        }
        if rec.parent.is_none() {
            let span = Span {
                started: rec.started,
                finished: rec.finished,
            };
            self.end_root(span);
        }
        if !self.keep_finished {
            self.instances.remove(&event.index);
        }
    }

    fn on_muscle_begin(&mut self, event: &EventRecord, role: MuscleRole) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        let span = Span::start(event.timestamp);
        match role {
            MuscleRole::Split => rec.split = Some(span),
            MuscleRole::Merge => rec.merge = Some(span),
            _ => unreachable!("on_muscle_begin only handles split/merge"),
        }
    }

    fn on_split_end(&mut self, event: &EventRecord) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        let started = match rec.split {
            Some(s) => s.started,
            None => rec.started,
        };
        rec.split = Some(Span {
            started,
            finished: Some(event.timestamp),
        });
        let muscle = MuscleId::new(event.node, MuscleRole::Split);
        self.estimates
            .observe_duration(muscle, event.timestamp.saturating_sub(started));
        if let EventInfo::SplitCardinality(card) = event.info() {
            rec.split_card = Some(card);
            self.estimates.observe_cardinality(muscle, card as f64);
        }
    }

    fn on_merge_end(&mut self, event: &EventRecord) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        let started = match rec.merge {
            Some(s) => s.started,
            None => rec.started,
        };
        rec.merge = Some(Span {
            started,
            finished: Some(event.timestamp),
        });
        self.estimates.observe_duration(
            MuscleId::new(event.node, MuscleRole::Merge),
            event.timestamp.saturating_sub(started),
        );
    }

    fn on_cond_begin(&mut self, event: &EventRecord) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        rec.conds.push(CondSpan {
            span: Span::start(event.timestamp),
            verdict: None,
        });
    }

    fn on_cond_end(&mut self, event: &EventRecord) {
        let Some(rec) = self.instances.get_mut(&event.index) else {
            return;
        };
        let verdict = event.info().condition_result();
        let started = match rec.conds.last_mut() {
            Some(c) => {
                c.span.finished = Some(event.timestamp);
                c.verdict = verdict;
                c.span.started
            }
            None => {
                rec.conds.push(CondSpan {
                    span: Span {
                        started: rec.started,
                        finished: Some(event.timestamp),
                    },
                    verdict,
                });
                rec.started
            }
        };
        if verdict == Some(true) {
            rec.cond_trues += 1;
        }
        self.estimates.observe_duration(
            MuscleId::new(event.node, MuscleRole::Condition),
            event.timestamp.saturating_sub(started),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_events::{Event, Trace};

    /// An event of the last instance of `path` — `(node, kind, instance)`
    /// from the root down.
    fn ev(
        path: &[(u64, KindTag, u64)],
        when: When,
        wher: Where,
        at: u64,
        info: EventInfo,
    ) -> Event {
        let (node, kind, index) = *path.last().expect("a path names an instance");
        let (root, rest) = path.split_first().expect("a path names an instance");
        let trace = rest.iter().fold(
            Trace::root(NodeId(root.0), InstanceId(root.2), root.1),
            |trace, &(n, k, i)| trace.child(NodeId(n), InstanceId(i), k),
        );
        Event {
            node: NodeId(node),
            kind,
            when,
            wher,
            index: InstanceId(index),
            trace,
            timestamp: TimeNs(at),
            info,
        }
    }

    /// A skeleton event of root `seq` instance `index` of node 1.
    fn seq(index: u64, when: When, at: u64) -> Event {
        ev(
            &[(1, KindTag::Seq, index)],
            when,
            Where::Skeleton,
            at,
            EventInfo::None,
        )
    }

    #[test]
    fn seq_machine_updates_t_fe() {
        // Fig. 3 exactly: @b stores eti, @a updates t(fe) = ρ(now−eti)+(1−ρ)t(fe).
        let mut t = SmTracker::new(0.5);
        t.observe(&seq(10, When::Before, 100));
        t.observe(&seq(10, When::After, 160));
        let fe = MuscleId::new(NodeId(1), MuscleRole::Execute);
        assert_eq!(t.estimates().duration(fe), Some(TimeNs(60)));
        // Second run: 100ns → estimate (60+100)/2 = 80.
        t.observe(&seq(11, When::Before, 200));
        t.observe(&seq(11, When::After, 300));
        assert_eq!(t.estimates().duration(fe), Some(TimeNs(80)));
    }

    #[test]
    fn map_machine_updates_split_card_and_merge() {
        // Fig. 4: t(fs), |fs| at @as; t(fm) at @am.
        let mut t = SmTracker::new(0.5);
        let map = |when, wher, at, info| ev(&[(5, KindTag::Map, 20)], when, wher, at, info);
        t.observe(&map(When::Before, Where::Skeleton, 0, EventInfo::None));
        t.observe(&map(When::Before, Where::Split, 0, EventInfo::None));
        let card = EventInfo::SplitCardinality(3);
        t.observe(&map(When::After, Where::Split, 10, card));
        t.observe(&map(When::Before, Where::Merge, 65, EventInfo::None));
        t.observe(&map(When::After, Where::Merge, 70, EventInfo::None));
        t.observe(&map(When::After, Where::Skeleton, 70, EventInfo::None));
        let fs = MuscleId::new(NodeId(5), MuscleRole::Split);
        let fm = MuscleId::new(NodeId(5), MuscleRole::Merge);
        assert_eq!(t.estimates().duration(fs), Some(TimeNs(10)));
        assert_eq!(t.estimates().cardinality(fs), Some(3.0));
        assert_eq!(t.estimates().duration(fm), Some(TimeNs(5)));
        let root = t.current_root().unwrap();
        assert!(root.is_finished());
        assert_eq!(root.split_card, Some(3));
    }

    #[test]
    fn children_attach_to_parents_in_order() {
        let mut t = SmTracker::new(0.5);
        let map = (5, KindTag::Map, 20);
        t.observe(&ev(
            &[map],
            When::Before,
            Where::Skeleton,
            0,
            EventInfo::None,
        ));
        for (i, at) in [(30u64, 10u64), (31, 10), (32, 65)] {
            let child = [map, (6, KindTag::Seq, i)];
            t.observe(&ev(
                &child,
                When::Before,
                Where::Skeleton,
                at,
                EventInfo::None,
            ));
        }
        let root = t.current_root().unwrap();
        assert_eq!(
            root.children,
            vec![InstanceId(30), InstanceId(31), InstanceId(32)]
        );
        let child = t.instance(InstanceId(31)).unwrap();
        assert_eq!(child.parent, Some(InstanceId(20)));
        assert!(!child.is_finished());
    }

    #[test]
    fn while_counts_trues_and_updates_cardinality() {
        let mut t = SmTracker::new(0.5);
        let w = |when, wher, at, info| ev(&[(7, KindTag::While, 40)], when, wher, at, info);
        t.observe(&w(When::Before, Where::Skeleton, 0, EventInfo::None));
        for (k, verdict) in [true, true, true, false].iter().enumerate() {
            let at = (k as u64) * 10;
            t.observe(&w(When::Before, Where::Condition, at, EventInfo::None));
            let verdict = EventInfo::ConditionResult(*verdict);
            t.observe(&w(When::After, Where::Condition, at + 2, verdict));
        }
        t.observe(&w(When::After, Where::Skeleton, 40, EventInfo::None));
        let fc = MuscleId::new(NodeId(7), MuscleRole::Condition);
        assert_eq!(t.estimates().cardinality(fc), Some(3.0));
        assert_eq!(t.estimates().duration(fc), Some(TimeNs(2)));
        assert_eq!(t.current_root().unwrap().conds.len(), 4);
    }

    #[test]
    fn dac_depth_reaches_the_recursion_root() {
        let mut t = SmTracker::new(0.5);
        // Root d&C instance 50 → child 51 → grandchild 52 (same node 9).
        let path: Vec<_> = (50..53).map(|i| (9, KindTag::DivideConquer, i)).collect();
        for depth in 1..=3 {
            let at = 10 * depth as u64;
            t.observe(&ev(
                &path[..depth],
                When::Before,
                Where::Skeleton,
                at,
                EventInfo::None,
            ));
        }
        assert_eq!(t.instance(InstanceId(52)).unwrap().dc_depth, 3);
        assert_eq!(t.instance(InstanceId(50)).unwrap().dc_max_depth, 3);
        // Root completion records |fc| = 3.
        t.observe(&ev(
            &path[..1],
            When::After,
            Where::Skeleton,
            99,
            EventInfo::None,
        ));
        let fc = MuscleId::new(NodeId(9), MuscleRole::Condition);
        assert_eq!(t.estimates().cardinality(fc), Some(3.0));
    }

    #[test]
    fn new_root_becomes_current() {
        let mut t = SmTracker::new(0.5);
        t.observe(&seq(60, When::Before, 0));
        t.observe(&seq(60, When::After, 5));
        t.observe(&seq(61, When::Before, 10));
        assert_eq!(t.current_root().unwrap().id, InstanceId(61));
    }

    #[test]
    fn prune_keeps_live_root_only() {
        let mut t = SmTracker::new(0.5);
        t.observe(&seq(70, When::Before, 0));
        t.observe(&seq(70, When::After, 5));
        t.observe(&seq(71, When::Before, 10));
        assert_eq!(t.instances.len(), 2);
        t.prune_finished();
        assert_eq!(t.instances.len(), 1);
        assert_eq!(t.current_root().unwrap().id, InstanceId(71));
        // Estimates survive pruning.
        assert!(t
            .estimates()
            .duration(MuscleId::new(NodeId(1), MuscleRole::Execute))
            .is_some());
    }

    #[test]
    fn prune_keeps_every_unfinished_root() {
        // Two `map` items in flight at once (a stream window > 1): the
        // prune that runs when the second begins must not cost the first
        // its record, or its merge is never observed.
        let mut t = SmTracker::new(0.5);
        let map =
            |inst, when, wher, at| ev(&[(5, KindTag::Map, inst)], when, wher, at, EventInfo::None);
        for (inst, at) in [(20, 0), (21, 1)] {
            t.prune_finished();
            t.observe(&map(inst, When::Before, Where::Skeleton, at));
            let child = [(5, KindTag::Map, inst), (6, KindTag::Seq, inst + 10)];
            t.observe(&ev(
                &child,
                When::Before,
                Where::Skeleton,
                at,
                EventInfo::None,
            ));
        }
        assert_eq!(t.instances.len(), 4);
        t.observe(&map(20, When::Before, Where::Merge, 10));
        t.observe(&map(20, When::After, Where::Merge, 15));
        t.observe(&map(21, When::Before, Where::Merge, 20));
        t.observe(&map(21, When::After, Where::Merge, 35));
        let fm = MuscleId::new(NodeId(5), MuscleRole::Merge);
        assert_eq!(
            t.estimates().duration(fm),
            Some(TimeNs(10)),
            "EWMA of 5 and 15"
        );
        // Finished roots go, with their subtrees; the live one stays whole.
        t.observe(&map(20, When::After, Where::Skeleton, 40));
        t.prune_finished();
        assert_eq!(t.instances.len(), 2);
        assert_eq!(t.current_root().unwrap().id, InstanceId(21));
        assert!(t.instance(InstanceId(31)).is_some());
    }

    #[test]
    fn estimators_only_keeps_no_finished_record() {
        let mut t = SmTracker::estimators_only(0.5);
        let map = |when, wher, at, info| ev(&[(5, KindTag::Map, 20)], when, wher, at, info);
        t.observe(&map(When::Before, Where::Skeleton, 0, EventInfo::None));
        t.observe(&map(When::Before, Where::Split, 0, EventInfo::None));
        let card = EventInfo::SplitCardinality(2);
        t.observe(&map(When::After, Where::Split, 10, card));
        for (inst, from, to) in [(30, 10, 40), (31, 12, 32)] {
            let path = [(5, KindTag::Map, 20), (6, KindTag::Seq, inst)];
            let seq = |when, at| ev(&path, when, Where::Skeleton, at, EventInfo::None);
            t.observe(&seq(When::Before, from));
            assert!(t.instance(InstanceId(inst)).is_some());
            t.observe(&seq(When::After, to));
            assert!(t.instance(InstanceId(inst)).is_none());
        }
        assert_eq!(t.instances.len(), 1, "only the running map is left");
        t.observe(&map(When::Before, Where::Merge, 40, EventInfo::None));
        t.observe(&map(When::After, Where::Merge, 45, EventInfo::None));
        t.observe(&map(When::After, Where::Skeleton, 45, EventInfo::None));
        assert_eq!(t.instances.len(), 0);
        t.prune_finished();
        // Every estimate a full tracker would hold is there.
        let fe = MuscleId::new(NodeId(6), MuscleRole::Execute);
        let fs = MuscleId::new(NodeId(5), MuscleRole::Split);
        let fm = MuscleId::new(NodeId(5), MuscleRole::Merge);
        assert_eq!(
            t.estimates().duration(fe),
            Some(TimeNs(25)),
            "EWMA of 30 and 20"
        );
        assert_eq!(t.estimates().duration(fs), Some(TimeNs(10)));
        assert_eq!(t.estimates().cardinality(fs), Some(2.0));
        assert_eq!(t.estimates().duration(fm), Some(TimeNs(5)));
        // The root's span outlives its record, for the realized-WCT audit.
        let ended: Vec<Span> = t.take_finished_roots().collect();
        assert_eq!(
            ended,
            [Span {
                started: TimeNs(0),
                finished: Some(TimeNs(45))
            }]
        );
        assert_eq!(t.take_finished_roots().count(), 0, "taken once");
    }

    #[test]
    fn prune_drops_orphans_and_caps_unfinished_roots() {
        let mut t = SmTracker::new(0.5);
        // A child whose parent was never seen, and its own child.
        let orphan = [
            (5, KindTag::Map, 89),
            (6, KindTag::Map, 90),
            (7, KindTag::Seq, 91),
        ];
        t.observe(&ev(
            &orphan[..2],
            When::Before,
            Where::Skeleton,
            0,
            EventInfo::None,
        ));
        t.observe(&ev(
            &orphan,
            When::Before,
            Where::Skeleton,
            1,
            EventInfo::None,
        ));
        assert_eq!(t.instances.len(), 2);
        t.prune_finished();
        assert_eq!(t.instances.len(), 0);
        // Roots that never finish age out, oldest first.
        for i in 0..(MAX_LIVE_ROOTS as u64 + 5) {
            t.observe(&seq(1000 + i, When::Before, i));
        }
        t.prune_finished();
        assert_eq!(t.instances.len(), MAX_LIVE_ROOTS);
        assert!(t.instance(InstanceId(1004)).is_none());
        assert!(t.instance(InstanceId(1005)).is_some());
    }

    #[test]
    fn stray_after_events_are_tolerated() {
        let mut t = SmTracker::new(0.5);
        // After without Before: no panic, no record.
        t.observe(&seq(80, When::After, 5));
        assert!(t.current_root().is_none());
    }
}
