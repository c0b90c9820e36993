//! The paper's worked example (Figs. 1–2) as a reusable fixture: the
//! nested map `map(fs, map(fs, seq(fe), fm), fm)` with estimates
//! `t(fs)=10, t(fe)=15, t(fm)=5, |fs|=3`, executed with LP 2 and
//! snapshotted at WCT 70.

use askel_core::SmTracker;
use askel_events::{Event, EventInfo, Trace, When, Where};
use askel_skeletons::{map, seq, InstanceId, KindTag, MuscleId, MuscleRole, NodeId, Skel, TimeNs};

/// Seconds in the worked example's abstract time unit.
pub fn sec(units: u64) -> TimeNs {
    TimeNs::from_secs(units)
}

/// The worked-example skeleton plus its node identities.
pub struct Fig1Fixture {
    /// `map(fs, map(fs, seq(fe), fm), fm)`.
    pub skel: Skel<Vec<i64>, i64>,
    /// Outer map node.
    pub outer: NodeId,
    /// Inner map node.
    pub inner: NodeId,
    /// Leaf `seq` node.
    pub leaf: NodeId,
}

impl Fig1Fixture {
    /// Builds the skeleton.
    pub fn new() -> Self {
        let inner = map(
            |v: Vec<i64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
            seq(|v: Vec<i64>| v[0]),
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        );
        let inner_id = inner.id();
        let leaf_id = inner.node().children()[0].id;
        let skel = map(
            |v: Vec<i64>| vec![v.clone(), v.clone(), v],
            inner,
            |p: Vec<i64>| p.into_iter().sum::<i64>(),
        );
        let outer_id = skel.id();
        Fig1Fixture {
            skel,
            outer: outer_id,
            inner: inner_id,
            leaf: leaf_id,
        }
    }

    /// A tracker holding the paper's WCT-70 execution state with the
    /// paper's estimates initialized.
    pub fn tracker_at_70(&self) -> SmTracker {
        let mut tracker = SmTracker::new(0.5);
        {
            let est = tracker.estimates_mut();
            for node in [self.outer, self.inner] {
                est.init_duration(MuscleId::new(node, MuscleRole::Split), sec(10));
                est.init_duration(MuscleId::new(node, MuscleRole::Merge), sec(5));
                est.init_cardinality(MuscleId::new(node, MuscleRole::Split), 3.0);
            }
            est.init_duration(MuscleId::new(self.leaf, MuscleRole::Execute), sec(15));
        }
        self.feed_history(|e| tracker.observe(&e));
        tracker
    }

    /// Feeds the WCT-70 event history (LP 2) into `sink`:
    /// root split \[0,10\]·card 3; inner splits A,B \[10,20\]·card 3;
    /// six fe's two-at-a-time over \[20,65\]; A's merge \[65,70\]; C's
    /// split running from 65.
    pub fn feed_history(&self, mut sink: impl FnMut(Event)) {
        const O: u64 = 9_000_100;
        const A: u64 = 9_000_101;
        const B: u64 = 9_000_102;
        const C: u64 = 9_000_103;
        let root_trace = |inst: u64| Trace::root(self.outer, InstanceId(inst), KindTag::Map);
        let inner_trace = |root: u64, inst: u64| {
            root_trace(root).child(self.inner, InstanceId(inst), KindTag::Map)
        };
        let leaf_trace = |root: u64, parent: u64, inst: u64| {
            inner_trace(root, parent).child(self.leaf, InstanceId(inst), KindTag::Seq)
        };
        let ev = |node: NodeId,
                  kind: KindTag,
                  when: When,
                  wher: Where,
                  inst: u64,
                  trace: Trace,
                  at: TimeNs,
                  info: EventInfo| Event {
            node,
            kind,
            when,
            wher,
            index: InstanceId(inst),
            trace,
            timestamp: at,
            info,
        };

        sink(ev(
            self.outer,
            KindTag::Map,
            When::Before,
            Where::Skeleton,
            O,
            root_trace(O),
            sec(0),
            EventInfo::None,
        ));
        sink(ev(
            self.outer,
            KindTag::Map,
            When::Before,
            Where::Split,
            O,
            root_trace(O),
            sec(0),
            EventInfo::None,
        ));
        sink(ev(
            self.outer,
            KindTag::Map,
            When::After,
            Where::Split,
            O,
            root_trace(O),
            sec(10),
            EventInfo::SplitCardinality(3),
        ));
        for inst in [A, B] {
            sink(ev(
                self.inner,
                KindTag::Map,
                When::Before,
                Where::Skeleton,
                inst,
                inner_trace(O, inst),
                sec(10),
                EventInfo::None,
            ));
            sink(ev(
                self.inner,
                KindTag::Map,
                When::Before,
                Where::Split,
                inst,
                inner_trace(O, inst),
                sec(10),
                EventInfo::None,
            ));
            sink(ev(
                self.inner,
                KindTag::Map,
                When::After,
                Where::Split,
                inst,
                inner_trace(O, inst),
                sec(20),
                EventInfo::SplitCardinality(3),
            ));
        }
        for (k, (start, end)) in [(20u64, 35u64), (35, 50), (50, 65)].iter().enumerate() {
            for (parent, leaf_inst) in [(A, 9_000_110 + k as u64), (B, 9_000_120 + k as u64)] {
                let tr = leaf_trace(O, parent, leaf_inst);
                sink(ev(
                    self.leaf,
                    KindTag::Seq,
                    When::Before,
                    Where::Skeleton,
                    leaf_inst,
                    tr.clone(),
                    sec(*start),
                    EventInfo::None,
                ));
                sink(ev(
                    self.leaf,
                    KindTag::Seq,
                    When::After,
                    Where::Skeleton,
                    leaf_inst,
                    tr,
                    sec(*end),
                    EventInfo::None,
                ));
            }
        }
        sink(ev(
            self.inner,
            KindTag::Map,
            When::Before,
            Where::Merge,
            A,
            inner_trace(O, A),
            sec(65),
            EventInfo::None,
        ));
        sink(ev(
            self.inner,
            KindTag::Map,
            When::After,
            Where::Merge,
            A,
            inner_trace(O, A),
            sec(70),
            EventInfo::None,
        ));
        sink(ev(
            self.inner,
            KindTag::Map,
            When::After,
            Where::Skeleton,
            A,
            inner_trace(O, A),
            sec(70),
            EventInfo::None,
        ));
        sink(ev(
            self.inner,
            KindTag::Map,
            When::Before,
            Where::Skeleton,
            C,
            inner_trace(O, C),
            sec(65),
            EventInfo::None,
        ));
        sink(ev(
            self.inner,
            KindTag::Map,
            When::Before,
            Where::Split,
            C,
            inner_trace(O, C),
            sec(65),
            EventInfo::None,
        ));
    }
}

impl Default for Fig1Fixture {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_core::{best_effort, limited_lp, AdgWorkspace};

    #[test]
    fn fixture_reproduces_the_paper_numbers() {
        let f = Fig1Fixture::new();
        let tracker = f.tracker_at_70();
        let adg = AdgWorkspace::new(f.skel.node()).build(&tracker).clone();
        assert_eq!(best_effort(&adg, sec(70)).finish, sec(100));
        assert_eq!(limited_lp(&adg, sec(70), 2).finish, sec(115));
    }
}
