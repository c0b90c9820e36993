//! Listeners: the non-functional code attached to skeleton events.
//!
//! A [`Listener`] runs synchronously on the thread that executes the related
//! muscle (the paper guarantees exactly this: "the handler is executed on
//! the same thread than the related muscle"). It receives the partial
//! solution through a [`Payload`] and may *transform* it in place — the
//! paper's motivating example is encrypting partial solutions before they
//! cross a communication boundary.

use askel_skeletons::{Data, KindTag, NodeId};

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
    /// set are never delivered through a registry. The registry reads
    /// this once, when the listener is registered: the answer must not
    /// depend on state that changes afterwards.
    fn interest(&self) -> Interest {
        Interest::ALL
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
