//! An append log for listeners that keep state: where `on_event` leaves
//! an event for whoever next reads or advances that state to replay.
//!
//! Events arrive on the muscles' threads, many per microsecond; a
//! listener's state is read far less often (the trigger engine's at safe
//! points, once per item) or can be advanced by one thread on behalf of
//! all (the controller's). So such a listener does not update state in
//! `on_event`: it appends a 48-byte [`EventRecord`] to a log and returns,
//! and whoever holds the state next replays ("folds") the log first.
//! Both halves are written here once — [`EventLog::log`] for `on_event`,
//! [`EventLog::fold`] for whoever holds the state — and a listener keeps
//! only what differs: when it folds, and what applying a record means.
//! Lock order, for every listener: its own state, then the log's shards.
//! `fold` is therefore called with the state locked, and the `make_room`
//! a listener hands to `log` locks the state to fold — so `on_event` must
//! never run under that lock.
//!
//! The log is sharded by thread, so that in the steady state two workers
//! never write the same cache line: each live thread owns a small dense
//! slot (recycled when the thread exits) that picks its shard, and a
//! shard is a mutex nobody else takes between folds. Nothing is allocated
//! until a trigger engine's first event; a shard's buffer is allocated at
//! that shard's first event, at its fixed capacity.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use parking_lot::Mutex;

use crate::event::{Event, EventRecord, When};
use crate::listener::Interest;

/// Shards per log. More live emitting threads than this share shards,
/// which costs contention, not correctness.
pub const SHARDS: usize = 8;

/// Records a shard holds before its next push must fold first.
pub const SHARD_CAPACITY: usize = 256;

/// One thread's part of the log, on its own cache line.
#[repr(align(64))]
#[derive(Default)]
struct Shard(Mutex<Vec<EventRecord>>);

/// See the module docs.
#[derive(Default)]
pub struct EventLog {
    shards: OnceLock<Box<[Shard; SHARDS]>>,
}

impl EventLog {
    /// `on_event`'s half: appends `event` if `interest` holds its
    /// position (a registry filters by interest already; a direct caller
    /// might not) and says whether it did. A full shard calls
    /// `make_room`, which must [`fold`](EventLog::fold) this log, and
    /// tries again. Below capacity this takes one lock no other thread
    /// is waiting for and allocates nothing (after the thread's first
    /// event).
    pub fn log(&self, event: &Event, interest: Interest, mut make_room: impl FnMut()) -> bool {
        if !interest.contains(event.when, event.wher) {
            return false;
        }
        let record = EventRecord::from(event);
        while !self.try_push(record) {
            make_room();
        }
        true
    }

    /// The state holder's half, called with `state` locked: takes the
    /// buffer `buf` finds in it (empty between folds, kept for its
    /// capacity), gathers every logged record there, hands them to
    /// `apply` in replay order (see [`drain_into`](EventLog::drain_into))
    /// and puts the buffer back.
    pub fn fold<S>(
        &self,
        state: &mut S,
        buf: impl Fn(&mut S) -> &mut Vec<EventRecord>,
        mut apply: impl FnMut(&mut S, EventRecord),
    ) {
        let mut records = std::mem::take(buf(state));
        self.drain_into(&mut records);
        for record in records.drain(..) {
            apply(state, record);
        }
        *buf(state) = records;
    }

    /// Appends `record` to the calling thread's shard; `false` — and
    /// nothing appended — when that shard is at capacity: the caller
    /// folds the log and tries again, so no event is ever dropped and
    /// the log never grows past `SHARDS * SHARD_CAPACITY` records.
    pub fn try_push(&self, record: EventRecord) -> bool {
        self.try_push_to(thread_slot() % SHARDS, record)
    }

    /// [`try_push`](EventLog::try_push) to a named shard (`< SHARDS`):
    /// tests deal one stream over several threads' shards with this.
    pub fn try_push_to(&self, shard: usize, record: EventRecord) -> bool {
        let shards = self.shards.get_or_init(Default::default);
        let mut buf = shards[shard].0.lock();
        if buf.len() == SHARD_CAPACITY {
            return false;
        }
        if buf.capacity() == 0 {
            buf.reserve_exact(SHARD_CAPACITY);
        }
        buf.push(record);
        true
    }

    /// `true` when no shard holds a record. A folder calls this after
    /// letting go of its state (see the controller's fold protocol): it
    /// takes each shard's lock in turn, so a push it does not see
    /// happened after the caller's last unlock.
    pub fn is_empty(&self) -> bool {
        self.shards
            .get()
            .is_none_or(|shards| shards.iter().all(|shard| shard.0.lock().is_empty()))
    }

    /// Moves every logged record onto the end of `out`, in the order
    /// they must be replayed.
    ///
    /// All shards are locked together, so the records taken are a
    /// consistent cut: if one of them happened after some other event
    /// was logged, that event is taken too. One shard alone is already in
    /// happens-before order. Several are merged by timestamp; equal
    /// timestamps put `Before` ahead of `After`, outer `Before` first and
    /// inner `After` first — an instance begins after its parent and
    /// ends before it — and otherwise keep shard order.
    pub fn drain_into(&self, out: &mut Vec<EventRecord>) {
        let Some(shards) = self.shards.get() else {
            return;
        };
        let start = out.len();
        let mut sources = 0;
        {
            let mut guards: [_; SHARDS] = std::array::from_fn(|i| shards[i].0.lock());
            for buf in guards.iter_mut().filter(|buf| !buf.is_empty()) {
                sources += 1;
                out.extend_from_slice(buf);
                buf.clear();
            }
        }
        if sources > 1 {
            out[start..].sort_by_key(|r| {
                let rank = match r.when {
                    When::Before => r.depth as u16,
                    When::After => 0x100 + (u8::MAX - r.depth) as u16,
                };
                (r.timestamp, rank)
            });
        }
    }
}

/// A small index unique among the threads alive right now: handed out
/// lowest-free-first at a thread's first event and returned when the
/// thread exits, so a process that keeps replacing its worker threads
/// still spreads the live ones over distinct shards.
fn thread_slot() -> usize {
    /// Returned slots (lowest pops first, which keeps the slots in use
    /// dense) and the next never-used one.
    static FREE: Mutex<(BinaryHeap<Reverse<usize>>, usize)> = Mutex::new((BinaryHeap::new(), 0));
    struct Slot(usize);
    impl Drop for Slot {
        fn drop(&mut self) {
            FREE.lock().0.push(Reverse(self.0));
        }
    }
    thread_local! {
        static SLOT: Slot = {
            let (released, next) = &mut *FREE.lock();
            Slot(match released.pop() {
                Some(Reverse(slot)) => slot,
                None => {
                    *next += 1;
                    *next - 1
                }
            })
        };
    }
    // A thread already tearing down its locals emits nothing we could
    // attribute; any shard is correct for it.
    SLOT.try_with(|slot| slot.0).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, EventInfo, Trace, Where};
    use askel_skeletons::{InstanceId, KindTag, NodeId, TimeNs};

    /// An event of instance `depth` of a chain `#1/#2/…`, at time `at`.
    fn rec(depth: u64, when: When, at: u64) -> EventRecord {
        let mut trace = Trace::root(NodeId(1), InstanceId(1), KindTag::Map);
        for d in 2..=depth {
            trace = trace.child(NodeId(d), InstanceId(d), KindTag::Map);
        }
        EventRecord::from(&Event {
            node: NodeId(depth),
            kind: KindTag::Map,
            when,
            wher: Where::Skeleton,
            index: InstanceId(depth),
            trace,
            timestamp: TimeNs(at),
            info: EventInfo::None,
        })
    }

    fn drained(log: &EventLog) -> Vec<(u64, When, u64)> {
        let mut out = Vec::new();
        log.drain_into(&mut out);
        out.iter()
            .map(|r| (r.index.0, r.when, r.timestamp.0))
            .collect()
    }

    #[test]
    fn an_untouched_log_holds_nothing_and_allocates_nothing() {
        let log = EventLog::default();
        assert!(log.shards.get().is_none());
        assert!(log.is_empty());
        assert!(drained(&log).is_empty());
        assert!(log.shards.get().is_none());
        // Held by any shard, a record shows; drained, it is gone.
        assert!(log.try_push_to(SHARDS - 1, rec(1, When::Before, 1)));
        assert!(!log.is_empty());
        assert_eq!(drained(&log).len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn one_shard_replays_in_arrival_order_whatever_the_timestamps() {
        let log = EventLog::default();
        for r in [
            rec(1, When::After, 9),
            rec(2, When::Before, 3),
            rec(1, When::Before, 3),
        ] {
            assert!(log.try_push_to(4, r));
        }
        assert_eq!(
            drained(&log),
            vec![
                (1, When::After, 9),
                (2, When::Before, 3),
                (1, When::Before, 3)
            ]
        );
        assert!(drained(&log).is_empty());
    }

    #[test]
    fn equal_timestamps_fold_before_first_outer_in_inner_out() {
        // Everything at t=5, spread over two shards in the worst order.
        let log = EventLog::default();
        log.try_push_to(0, rec(2, When::After, 5));
        log.try_push_to(0, rec(3, When::Before, 5));
        log.try_push_to(0, rec(1, When::After, 5));
        log.try_push_to(1, rec(3, When::After, 5));
        log.try_push_to(1, rec(2, When::Before, 5));
        log.try_push_to(1, rec(1, When::Before, 5));
        // An earlier and a later event keep their places around the tie.
        log.try_push_to(1, rec(1, When::After, 7));
        log.try_push_to(0, rec(1, When::Before, 2));
        assert_eq!(
            drained(&log),
            vec![
                (1, When::Before, 2),
                (1, When::Before, 5),
                (2, When::Before, 5),
                (3, When::Before, 5),
                (3, When::After, 5),
                (2, When::After, 5),
                (1, When::After, 5),
                (1, When::After, 7),
            ]
        );
    }

    #[test]
    fn a_childs_end_folds_before_its_parents_marker_for_it() {
        // A threaded engine stamps the marker with the child's own
        // timestamp; were the two ever logged by different threads, the
        // child (the inner `After`) still comes first.
        let log = EventLog::default();
        let mut marker = rec(1, When::After, 5);
        marker.wher = Where::NestedSkeleton;
        log.try_push_to(0, marker);
        log.try_push_to(1, rec(2, When::After, 5));
        assert_eq!(
            drained(&log),
            vec![(2, When::After, 5), (1, When::After, 5)]
        );
    }

    #[test]
    fn full_ties_keep_shard_then_arrival_order() {
        let log = EventLog::default();
        let tagged = |inst: u64| {
            let mut r = rec(1, When::After, 5);
            r.index = InstanceId(inst);
            r
        };
        log.try_push_to(3, tagged(30));
        log.try_push_to(3, tagged(31));
        log.try_push_to(2, tagged(20));
        let order: Vec<u64> = drained(&log).iter().map(|r| r.0).collect();
        assert_eq!(order, vec![20, 30, 31]);
    }

    #[test]
    fn a_full_shard_refuses_until_drained() {
        let log = EventLog::default();
        for at in 0..SHARD_CAPACITY as u64 {
            assert!(log.try_push_to(0, rec(1, When::Before, at)));
        }
        assert!(!log.try_push_to(0, rec(1, When::Before, 999)));
        assert!(
            log.try_push_to(1, rec(1, When::Before, 999)),
            "other shards have room"
        );
        assert_eq!(drained(&log).len(), SHARD_CAPACITY + 1);
        assert!(log.try_push_to(0, rec(1, When::Before, 1000)));
    }

    #[test]
    fn live_threads_get_distinct_slots_and_exited_threads_return_theirs() {
        use std::sync::{Arc, Barrier};
        let mine = thread_slot();
        assert_eq!(thread_slot(), mine, "stable for a thread's life");
        // Other tests' threads come and go concurrently, so only claims
        // that hold regardless are made: threads alive together differ.
        let gate = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    let slot = thread_slot();
                    gate.wait();
                    slot
                })
            })
            .collect();
        let mut slots: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        slots.push(mine);
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 5);
    }
}
