//! Listeners: the non-functional code attached to skeleton events.
//!
//! A [`Listener`] runs synchronously on the thread that executes the related
//! muscle (the paper guarantees exactly this: "the handler is executed on
//! the same thread than the related muscle"). It receives the partial
//! solution through a [`Payload`] and may *transform* it in place — the
//! paper's motivating example is encrypting partial solutions before they
//! cross a communication boundary.

use askel_skeletons::{Data, KindTag, MuscleId, MuscleRole, Node, NodeId, Plan};

use crate::event::{Event, When, Where};

/// Mutable view of the partial solution at the event point.
///
/// * `Single` — one value (before/after execute, before split, after merge,
///   around conditions and nested skeletons);
/// * `Many` — the sub-problem (or sub-result) list (after split, before
///   merge);
/// * `None` — no data is in flight at this point.
pub enum Payload<'a> {
    /// One value in flight.
    Single(&'a mut Data),
    /// A list of values in flight.
    Many(&'a mut Vec<Data>),
    /// No data at this event point.
    None,
}

impl<'a> Payload<'a> {
    /// Typed read access to a `Single` payload.
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        match self {
            Payload::Single(d) => d.downcast_ref::<T>(),
            _ => None,
        }
    }

    /// Typed write access to a `Single` payload.
    pub fn downcast_mut<T: 'static>(&mut self) -> Option<&mut T> {
        match self {
            Payload::Single(d) => d.downcast_mut::<T>(),
            _ => None,
        }
    }

    /// Replaces a `Single` payload with a new value of the *same* type
    /// (replacing with a different type would break the skeleton's typing;
    /// the old value is returned so the caller can decide).
    ///
    /// Returns `Err(new_value)` if the payload is not `Single` or the
    /// current value is not a `T`.
    pub fn replace<T: Send + 'static>(&mut self, new_value: T) -> Result<T, T> {
        match self {
            Payload::Single(d) if d.is::<T>() => {
                let old = std::mem::replace(*d, Box::new(new_value));
                Ok(*old.downcast::<T>().expect("checked by is::<T>"))
            }
            _ => Err(new_value),
        }
    }

    /// Number of values in flight (1 for `Single`, list length for `Many`,
    /// 0 for `None`).
    pub fn len(&self) -> usize {
        match self {
            Payload::Single(_) => 1,
            Payload::Many(v) => v.len(),
            Payload::None => 0,
        }
    }

    /// `true` if no data is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A set of `(When, Where)` event positions, one bit each.
///
/// This is the part of a listener's filter that engines can test
/// *before* building an event: positions nobody is interested in cost a
/// submission one bit test — no clock read, no trace clone, no dispatch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest(u16);

impl Interest {
    /// No position.
    pub const NONE: Interest = Interest(0);
    /// Every position (what a *generic listener* wants).
    pub const ALL: Interest = Interest((1 << 12) - 1);

    const fn bit(when: When, wher: Where) -> u16 {
        1 << (wher as u16 * 2 + when as u16)
    }

    /// Both the Before and the After position of `wher`.
    pub const fn at(wher: Where) -> Interest {
        Interest(Self::bit(When::Before, wher) | Self::bit(When::After, wher))
    }

    /// Every `wher` position of one `when`.
    pub const fn when(when: When) -> Interest {
        let mut bits = 0;
        let mut w = 0;
        while w < 6 {
            bits |= 1 << (w * 2 + when as u16);
            w += 1;
        }
        Interest(bits)
    }

    /// Positions in either set.
    pub(crate) const fn union(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Positions in both sets.
    pub const fn intersect(self, other: Interest) -> Interest {
        Interest(self.0 & other.0)
    }

    /// Positions of `self` not in `other`.
    pub const fn without(self, other: Interest) -> Interest {
        Interest(self.0 & !other.0)
    }

    /// Is the position `(when, wher)` in the set?
    pub const fn contains(self, when: When, wher: Where) -> bool {
        self.0 & Self::bit(when, wher) != 0
    }

    /// `true` for the empty set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Which events of a program a listener reads, by node: the other half
/// of its filter beside [`Interest`]'s positions.
///
/// A muscle's estimates come from its own node's events alone, so a
/// listener that reads a few muscles' estimates names those muscles; a
/// submission compiles the names against its program
/// and raises nothing anywhere else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reads {
    /// Every event of every node: what a listener that declares nothing
    /// reads.
    All,
    /// The events the named muscles' estimates are made from, and — with
    /// `root` — the root instance's skeleton brackets (its span).
    Only {
        /// The muscles read.
        muscles: Vec<MuscleId>,
        /// Whether the root's span is read.
        root: bool,
    },
}

impl Reads {
    /// Nothing at all.
    pub const NOTHING: Reads = Reads::Only {
        muscles: Vec::new(),
        root: false,
    };

    /// The events of one muscle.
    pub fn muscle(m: MuscleId) -> Reads {
        Reads::Only {
            muscles: vec![m],
            root: false,
        }
    }

    /// What either reads.
    pub fn union(self, other: Reads) -> Reads {
        match (self, other) {
            (Reads::All, _) | (_, Reads::All) => Reads::All,
            (
                Reads::Only { mut muscles, root },
                Reads::Only {
                    muscles: more,
                    root: also,
                },
            ) => {
                for m in more {
                    if !muscles.contains(&m) {
                        muscles.push(m);
                    }
                }
                Reads::Only {
                    muscles,
                    root: root || also,
                }
            }
        }
    }

    /// The positions read at each entry of `plan`.
    ///
    /// A read muscle contributes its own positions plus its node's
    /// skeleton brackets, which the state machines keep its instance's
    /// record by; a muscle the plan's node does not have (the split of a
    /// `for`, a node elsewhere) contributes nothing. Every ancestor of an
    /// entry read keeps its skeleton brackets, so an instance read always
    /// hangs under instances whose beginning was heard.
    pub(crate) fn compile(&self, plan: &Plan) -> Vec<Interest> {
        let n = plan.entries();
        let Reads::Only { muscles, root } = self else {
            return vec![Interest::ALL; n];
        };
        let brackets = Interest::at(Where::Skeleton);
        let mut out: Vec<Interest> = (0..n)
            .map(|at| {
                let node = plan.node(at);
                muscles
                    .iter()
                    .filter(|m| m.node == node.id)
                    .fold(Interest::NONE, |acc, m| acc.union(positions(node, m.role)))
            })
            .collect();
        if *root {
            out[Plan::ROOT] = out[Plan::ROOT].union(brackets);
        }
        for at in (0..n).rev() {
            if plan.kids(at).any(|kid| !out[kid].is_empty()) {
                out[at] = out[at].union(brackets);
            }
        }
        out
    }
}

/// The positions `node`'s muscle `role` raises, with the node's skeleton
/// brackets; none for a role the node does not own.
fn positions(node: &Node, role: MuscleRole) -> Interest {
    if !node.own_roles().contains(&role) {
        return Interest::NONE;
    }
    let wher = match role {
        MuscleRole::Execute => Where::Skeleton,
        MuscleRole::Split => Where::Split,
        MuscleRole::Merge => Where::Merge,
        MuscleRole::Condition => Where::Condition,
    };
    Interest::at(wher).union(Interest::at(Where::Skeleton))
}

/// Non-functional code attached to skeleton events.
pub trait Listener: Send + Sync {
    /// Handles one event. Runs on the muscle's thread; keep it fast.
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event);

    /// The event positions this listener wants; everything by default.
    ///
    /// A listener that ignores some positions should say so here: the
    /// registry intersects this with the registration filter, and an
    /// engine skips — before reading the clock or building the event —
    /// every position no registered listener wants. Events outside the
    /// set are never delivered through a registry. Like
    /// [`reads`](Listener::reads), the answer **changes only between
    /// items**: it is asked when a submission's listeners are compiled
    /// against its program, and asked again once
    /// [`reads_version`](Listener::reads_version) has moved.
    fn interest(&self) -> Interest {
        Interest::ALL
    }

    /// Which nodes' events this listener reads; everything by default.
    ///
    /// A submission compiles the answer against its program, with
    /// [`interest`](Listener::interest) and the registration filter,
    /// into one mask per plan entry: an instance whose subtree nobody
    /// reads carries no trace and raises nothing, and a submission
    /// nobody reads anything of goes unobserved (see
    /// [`crate::interp`]). The answer **changes only between items**: a
    /// submission keeps the masks it was compiled with, and asks again
    /// only when [`reads_version`](Listener::reads_version) has moved.
    fn reads(&self) -> Reads {
        Reads::All
    }

    /// Moves whenever [`reads`](Listener::reads) may answer differently;
    /// a listener whose reads never change keeps the default.
    fn reads_version(&self) -> u64 {
        0
    }

    /// Whether this listener takes a finished `seq` instance as one
    /// event, no by default: where every listener of a submission says
    /// yes, a `seq` raises no `Before` (nor its payload) and one `After`
    /// carrying [`EventInfo::Started`](crate::EventInfo::Started) (see
    /// [`crate::interp`]). The answer must not change once registered.
    fn accepts_spans(&self) -> bool {
        false
    }
}

/// Adapter turning a closure into a [`Listener`].
pub struct FnListener<F>(pub F);

impl<F> Listener for FnListener<F>
where
    F: Fn(&mut Payload<'_>, &Event) + Send + Sync,
{
    fn on_event(&self, payload: &mut Payload<'_>, event: &Event) {
        (self.0)(payload, event)
    }
}

/// Registration-time filter: a listener only sees events matching every
/// populated field (Skandium's `addListener` variants offer the same
/// narrowing).
#[derive(Clone, Copy, Default, Debug)]
pub struct EventFilter {
    /// Only events from this node.
    pub node: Option<NodeId>,
    /// Only events from nodes of this kind.
    pub kind: Option<KindTag>,
    /// Only Before or only After events.
    pub when: Option<When>,
    /// Only events at this position.
    pub wher: Option<Where>,
}

impl EventFilter {
    /// Matches every event (a *generic listener* in the paper's terms).
    pub fn all() -> Self {
        EventFilter::default()
    }

    /// Restricts to one node.
    pub fn node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// Restricts to one skeleton kind.
    pub fn kind(mut self, kind: KindTag) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Restricts to Before or After.
    pub fn when(mut self, when: When) -> Self {
        self.when = Some(when);
        self
    }

    /// Restricts to one event position.
    pub fn wher(mut self, wher: Where) -> Self {
        self.wher = Some(wher);
        self
    }

    /// The positions the filter can match — its `when`/`wher` part; the
    /// `node`/`kind` part needs the event itself ([`matches`](Self::matches)).
    pub fn interest(&self) -> Interest {
        let when = self.when.map_or(Interest::ALL, Interest::when);
        let wher = self.wher.map_or(Interest::ALL, Interest::at);
        when.intersect(wher)
    }

    /// Does the event pass the filter?
    pub fn matches(&self, e: &Event) -> bool {
        self.node.is_none_or(|n| e.node == n)
            && self.kind.is_none_or(|k| e.kind == k)
            && self.when.is_none_or(|w| e.when == w)
            && self.wher.is_none_or(|w| e.wher == w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use askel_skeletons::{InstanceId, TimeNs};

    fn sample_event() -> Event {
        Event {
            node: NodeId(3),
            kind: KindTag::Map,
            when: When::After,
            wher: Where::Split,
            index: InstanceId(1),
            trace: Trace::root(NodeId(3), InstanceId(1), KindTag::Map),
            timestamp: TimeNs::ZERO,
            info: Default::default(),
        }
    }

    #[test]
    fn filter_all_matches_everything() {
        assert!(EventFilter::all().matches(&sample_event()));
    }

    #[test]
    fn filter_fields_narrow() {
        let e = sample_event();
        assert!(EventFilter::all().node(NodeId(3)).matches(&e));
        assert!(!EventFilter::all().node(NodeId(4)).matches(&e));
        assert!(EventFilter::all().kind(KindTag::Map).matches(&e));
        assert!(!EventFilter::all().kind(KindTag::Seq).matches(&e));
        assert!(EventFilter::all().when(When::After).matches(&e));
        assert!(!EventFilter::all().when(When::Before).matches(&e));
        assert!(EventFilter::all().wher(Where::Split).matches(&e));
        assert!(!EventFilter::all().wher(Where::Merge).matches(&e));
        assert!(EventFilter::all()
            .node(NodeId(3))
            .kind(KindTag::Map)
            .when(When::After)
            .wher(Where::Split)
            .matches(&e));
    }

    #[test]
    fn interest_is_the_when_where_part_of_a_filter() {
        let all = [
            Where::Skeleton,
            Where::Split,
            Where::Merge,
            Where::Condition,
            Where::NestedSkeleton,
            Where::Reconfigured,
        ];
        for wher in all {
            for when in [When::Before, When::After] {
                assert!(Interest::ALL.contains(when, wher));
                assert!(!Interest::NONE.contains(when, wher));
                assert!(EventFilter::all().interest().contains(when, wher));
                let f = EventFilter::all().when(When::After).wher(Where::Split);
                assert_eq!(
                    f.interest().contains(when, wher),
                    when == When::After && wher == Where::Split
                );
            }
        }
        let no_nested = Interest::ALL.without(Interest::at(Where::NestedSkeleton));
        assert!(!no_nested.contains(When::Before, Where::NestedSkeleton));
        assert!(no_nested.contains(When::Before, Where::Merge));
        assert_eq!(
            no_nested.union(Interest::at(Where::NestedSkeleton)),
            Interest::ALL
        );
        // node/kind narrowing cannot be expressed as positions.
        assert_eq!(EventFilter::all().node(NodeId(3)).interest(), Interest::ALL);
    }

    /// What `reads` compiles to at each entry of `program`'s plan.
    fn compiled<P: Send + 'static, R: Send + 'static>(
        reads: &Reads,
        program: &askel_skeletons::Skel<P, R>,
    ) -> Vec<Interest> {
        reads.compile(program.plan())
    }

    #[test]
    fn a_read_muscle_brings_its_positions_and_its_ancestors_brackets() {
        use askel_skeletons::{dac, map, seq, sfor};
        let brackets = Interest::at(Where::Skeleton);
        let split = Interest::at(Where::Split).union(brackets);
        let leaf = seq(|v: Vec<i64>| v.len() as i64);
        let program = map(|v: Vec<i64>| vec![v], leaf.clone(), |p: Vec<i64>| p[0]);
        let fs = MuscleId::new(program.id(), MuscleRole::Split);
        let fe = MuscleId::new(leaf.id(), MuscleRole::Execute);
        // The split: its two positions and the map's brackets, nothing below.
        assert_eq!(
            compiled(&Reads::muscle(fs), &program),
            [split, Interest::NONE]
        );
        // The leaf: its brackets, and the map's above it.
        assert_eq!(compiled(&Reads::muscle(fe), &program), [brackets, brackets]);
        // A `for` has no split, and a muscle elsewhere is no muscle here.
        let looped = sfor(4, seq(|x: i64| x));
        let none = [Interest::NONE, Interest::NONE];
        let no_split = MuscleId::new(looped.id(), MuscleRole::Split);
        assert_eq!(compiled(&Reads::muscle(no_split), &looped), none);
        assert_eq!(compiled(&Reads::muscle(fe), &looped), none);
        assert_eq!(compiled(&Reads::NOTHING, &looped), none);
        // The root's span alone, and everything.
        let root = Reads::Only {
            muscles: Vec::new(),
            root: true,
        };
        assert_eq!(compiled(&root, &looped), [brackets, Interest::NONE]);
        assert_eq!(compiled(&Reads::All, &looped), [Interest::ALL; 2]);
        // A d&C's leaf keeps the recursion's brackets (one entry for
        // every level) and not its condition.
        let sort = dac(
            |v: &Vec<i64>| v.len() > 2,
            |v: Vec<i64>| vec![v[..1].to_vec(), v[1..].to_vec()],
            leaf.clone(),
            |p: Vec<i64>| p.iter().sum(),
        );
        assert_eq!(compiled(&Reads::muscle(fe), &sort), [brackets, brackets]);
        let fc = MuscleId::new(sort.id(), MuscleRole::Condition);
        let cond = Interest::at(Where::Condition).union(brackets);
        assert_eq!(
            compiled(&Reads::muscle(fc).union(Reads::muscle(fe)), &sort),
            [cond, brackets]
        );
    }

    #[test]
    fn reads_unite_muscles_once_and_all_absorbs() {
        let m = |n| MuscleId::new(NodeId(n), MuscleRole::Execute);
        let both = Reads::muscle(m(1)).union(Reads::muscle(m(2)));
        let again = both.clone().union(Reads::muscle(m(1)));
        assert_eq!(again, both);
        assert_eq!(both.union(Reads::All), Reads::All);
        assert_eq!(Reads::NOTHING.union(Reads::NOTHING), Reads::NOTHING);
    }

    #[test]
    fn payload_typed_access() {
        let mut d: Data = Box::new(10i64);
        let mut p = Payload::Single(&mut d);
        assert_eq!(p.downcast_ref::<i64>(), Some(&10));
        *p.downcast_mut::<i64>().unwrap() += 1;
        assert_eq!(p.downcast_ref::<i64>(), Some(&11));
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn payload_replace_same_type() {
        let mut d: Data = Box::new(10i64);
        let mut p = Payload::Single(&mut d);
        let old = p.replace(99i64).unwrap();
        assert_eq!(old, 10);
        assert_eq!(*d.downcast::<i64>().unwrap(), 99);
    }

    #[test]
    fn payload_replace_wrong_type_is_refused() {
        let mut d: Data = Box::new(10i64);
        let mut p = Payload::Single(&mut d);
        assert!(p.replace("nope").is_err());
        assert_eq!(*d.downcast::<i64>().unwrap(), 10);
    }

    #[test]
    fn payload_many_and_none() {
        let mut v: Vec<Data> = vec![Box::new(1i64), Box::new(2i64)];
        let p = Payload::Many(&mut v);
        assert_eq!(p.len(), 2);
        assert!(p.downcast_ref::<i64>().is_none());
        let p = Payload::None;
        assert!(p.is_empty());
    }

    #[test]
    fn fn_listener_runs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let l = FnListener(|_p: &mut Payload<'_>, _e: &Event| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        l.on_event(&mut Payload::None, &sample_event());
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }
}
