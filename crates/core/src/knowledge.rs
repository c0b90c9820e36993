//! The knowledge both autonomic properties decide from: MAPE-K's K.
//!
//! [`Knowledge`] is the paper's one event monitor and what it feeds: the
//! state machines ([`SmTracker`]) with their estimator table, the
//! [`EventLog`] workers append to, the fold that replays the log into
//! them and — when a controller analyses — the controller's analysis,
//! which holds the live tree. An [`AutonomicController`] owns one; a
//! trigger engine owns one no controller analyses, or shares a
//! controller's ([`Knowledge::sharing`]: one listener, one fold). A
//! rewrite tells it once ([`Knowledge::invalidate_estimates_for`]).
//!
//! # The fold protocol
//!
//! `on_event` appends a 48-byte [`EventRecord`] to the log and touches no
//! state; whoever holds the state next replays ("folds") the log in order
//! through the tracker, running the controller's analysis after each
//! `After`. A knowledge no controller analyses never reads a running
//! instance, so it [accepts spans](Listener::accepts_spans): where it is
//! all a submission dispatches to, each finished `seq` instance arrives
//! as one event, logged as one record that the tracker replays as both
//! (see [`askel_events::interp`]). A controller's knowledge does not,
//! since its analysis runs at every `After` and reads the instances
//! still running.
//!
//! If a controller analyses, an `After` event *tries* the state
//! lock and folds if it gets it — a worker that does not goes back to its
//! muscle — and every holder (worker, accessor, a trigger's safe point)
//! looks at the log once more after letting go, so every `After` is
//! analysed once, in order, whoever folds. Otherwise events wait for the
//! next reader: rules run at safe points only. Every reader folds first.
//!
//! Lock order: the state, then the log's shards; the trigger engine's own
//! lock after the state. A full shard is folded by the thread that found
//! it full, so `on_event` never runs under the state lock.

use std::sync::Arc;

use parking_lot::Mutex;

use askel_events::{Event, EventLog, EventRecord, Interest, Listener, Payload, When, Where};
use askel_skeletons::{Node, NodeId};

use crate::controller::{Analysis, AutonomicController};
use crate::estimate::EstimatorTable;
use crate::tracker::SmTracker;

/// What the fold advances.
pub(crate) struct State {
    pub(crate) tracker: SmTracker,
    /// The controller's analysis, when one analyses.
    pub(crate) analysis: Option<Box<Analysis>>,
    /// Where a fold gathers the log's records; kept for its capacity.
    fold_buf: Vec<EventRecord>,
}

impl State {
    /// Replays every logged record, in order (see
    /// [`EventLog::drain_into`]).
    fn fold(&mut self, log: &EventLog) {
        let mut records = std::mem::take(&mut self.fold_buf);
        log.drain_into(&mut records);
        for event in records.drain(..) {
            match &mut self.analysis {
                Some(analysis) => analysis.replay(&mut self.tracker, event),
                None => {
                    // A new root (a span begins one too): drop finished
                    // records, keep estimates.
                    if event.wher == Where::Skeleton
                        && (event.when == When::Before || event.span_start().is_some())
                        && event.is_root()
                    {
                        self.tracker.prune_finished();
                    }
                    self.tracker.observe(event);
                }
            }
        }
        self.fold_buf = records;
    }
}

/// See the module docs. Register it, or the one controller or trigger
/// engine holding it, as a listener once.
pub struct Knowledge {
    state: Mutex<State>,
    hot: EventPath,
}

/// What every event reads, a cache line's worth of bytes clear of
/// anything else on either side: no write to the state, or to whatever
/// the allocator puts next, evicts it from a worker's cache.
#[repr(C)]
struct EventPath {
    _before: [u8; 64],
    /// The knowledge this one stands for (see [`Knowledge::sharing`]).
    of: Option<Arc<Knowledge>>,
    log: EventLog,
    /// Whether a controller analyses: fixed at construction.
    analyses: bool,
    _after: [u8; 63],
}

impl Knowledge {
    /// Knowledge no controller analyses, with estimators of weight `rho`
    /// and no record of an instance that has ended.
    pub fn new(rho: f64) -> Self {
        Self::over(SmTracker::estimators_only(rho), None)
    }

    /// Knowledge that stands for `knowledge` — a controller's, for a
    /// trigger engine made for it: every read, edit and event goes there
    /// (its own state stays empty).
    pub fn sharing(knowledge: &Arc<Knowledge>) -> Self {
        let mut this = Self::new(0.5);
        let of = knowledge.hot.of.as_ref().unwrap_or(knowledge);
        this.hot.of = Some(Arc::clone(of));
        this
    }

    /// Knowledge over `tracker` that a controller's `analysis`, if any,
    /// advances at every `After`.
    pub(crate) fn over(tracker: SmTracker, analysis: Option<Box<Analysis>>) -> Self {
        Knowledge {
            hot: EventPath {
                _before: [0; 64],
                of: None,
                log: EventLog::default(),
                analyses: analysis.is_some(),
                _after: [0; 63],
            },
            state: Mutex::new(State {
                tracker,
                analysis,
                fold_buf: Vec::new(),
            }),
        }
    }

    /// Folds every logged event and hands `f` the state; after letting
    /// go, folds what was logged meanwhile if a controller analyses.
    pub(crate) fn with_state<T>(&self, f: impl FnOnce(&mut State) -> T) -> T {
        let this = self.resolved();
        let mut state = this.state.lock();
        state.fold(&this.hot.log);
        let out = f(&mut state);
        drop(state);
        if this.hot.analyses && !this.hot.log.is_empty() {
            this.fold_while_free();
        }
        out
    }

    /// Folds every logged event and hands `f` the tracker: what a
    /// trigger engine's safe point reads.
    pub fn with_tracker<T>(&self, f: impl FnOnce(&mut SmTracker) -> T) -> T {
        self.with_state(|state| f(&mut state.tracker))
    }

    /// Read access to the live estimator table. The state lock is held
    /// for the duration of `f`; keep it short.
    pub fn read_estimates<T>(&self, f: impl FnOnce(&EstimatorTable) -> T) -> T {
        self.with_tracker(|tracker| f(tracker.estimates()))
    }

    /// Edits the estimator table (initialization, tests, benches).
    pub fn with_estimates(&self, f: impl FnOnce(&mut EstimatorTable)) {
        self.with_tracker(|tracker| f(tracker.estimates_mut()))
    }

    /// What a rewrite tells the knowledge: the estimator history of the
    /// `removed` nodes' muscles goes, so no forecast or analysis prices a
    /// tree that no longer exists, and `tree` becomes the live tree a
    /// controller analyses. Returns how many positional (duration and
    /// cardinality) entries went; group fallbacks and aliases go too.
    pub fn invalidate_estimates_for(&self, removed: &[NodeId], tree: &Arc<Node>) -> usize {
        self.with_state(|state| {
            // The revision moves: no analysis of the old tree is replayed.
            if let Some(analysis) = &mut state.analysis {
                analysis.workspace.retarget(tree);
            }
            state.tracker.estimates_mut().invalidate_nodes(removed)
        })
    }

    /// The log `on_event` appends to (tests deal records over its
    /// shards).
    pub fn log(&self) -> &EventLog {
        &self.resolved().hot.log
    }

    /// This knowledge, or the one it stands for.
    fn resolved(&self) -> &Knowledge {
        self.hot.of.as_deref().unwrap_or(self)
    }

    /// Folds for as long as the state is free and the log is not empty.
    fn fold_while_free(&self) {
        while let Some(mut state) = self.state.try_lock() {
            state.fold(&self.hot.log);
            drop(state);
            // An event logged while the fold was applying the ones before
            // it found the lock taken and left; it is ours to fold. One
            // logged after this look finds the lock free.
            if self.hot.log.is_empty() {
                return;
            }
        }
    }
}

impl Listener for Knowledge {
    /// Logs the event; an `After` event then folds the log if a
    /// controller analyses and nobody else is folding.
    fn on_event(&self, _payload: &mut Payload<'_>, event: &Event) {
        let this = self.resolved();
        let logged = this.hot.log.log(event, this.interest(), || {
            this.state.lock().fold(&this.hot.log);
        });
        if logged && this.hot.analyses && event.when == When::After {
            this.fold_while_free();
        }
    }

    fn interest(&self) -> Interest {
        if self.resolved().hot.analyses {
            AutonomicController::INTEREST
        } else {
            SmTracker::INTEREST
        }
    }

    /// Yes when no controller analyses: an analysis reads running
    /// instances at every `After`.
    fn accepts_spans(&self) -> bool {
        !self.resolved().hot.analyses
    }
}
