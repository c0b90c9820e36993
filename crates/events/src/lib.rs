//! Event-driven separation of concerns for algorithmic skeletons.
//!
//! This crate implements the event layer of Pabón & Leyton (PDP 2012) that
//! Pabón & Henrio's autonomic skeletons (PMAM 2014) are built on. Skeletons
//! use inversion of control, which hides the execution flow from the
//! programmer; events give that flow back *without* weaving non-functional
//! code into the muscles:
//!
//! * every skeleton kind has a statically-defined set of events (e.g. `seq`
//!   has `seq(fe)@b(i)` and `seq(fe)@a(i)`; `map` has eight — skeleton
//!   begin/end, split before/after, nested-skeleton before/after, merge
//!   before/after);
//! * events carry the *skeleton trace* (the path of `(node, instance)` pairs
//!   from the root), the instance index `i` correlating Before/After pairs,
//!   a timestamp, and extra runtime information such as the split
//!   cardinality;
//! * listeners are registered on a [`registry::ListenerRegistry`], run
//!   **synchronously on the thread that executes the related muscle**, and
//!   may inspect *and transform* the partial solution (the paper's example:
//!   encrypting partial results in flight).
//!
//! The autonomic layer (`askel-core`) is just a listener; so are the logger
//! and collector utilities in [`util`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod event_log;
pub mod interp;
pub mod listener;
pub mod registry;
pub mod stream;
pub mod trace;
pub mod util;

pub use event::{Event, EventInfo, EventRecord, When, Where};
pub use event_log::EventLog;
pub use listener::{EventFilter, FnListener, Interest, Listener, Payload};
pub use registry::{ListenerRegistry, ListenerSnapshot};
pub use stream::{StreamRuntime, StreamTypes};
pub use trace::{Trace, TraceEntry};
