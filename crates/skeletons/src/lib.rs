//! Skandium-style nestable algorithmic skeletons.
//!
//! This crate is the bottom layer of the `autonomic-skeletons` workspace: it
//! defines the skeleton *language* of Pabón & Henrio (PMAM 2014), which is the
//! language of the Skandium Java library:
//!
//! ```text
//! ∆ ::= seq(fe) | farm(∆) | pipe(∆1,∆2) | while(fc,∆) | if(fc,∆t,∆f)
//!     | for(n,∆) | map(fs,∆,fm) | fork(fs,{∆},fm) | d&C(fc,fs,∆,fm)
//! ```
//!
//! Skeletons are parallelism *patterns*; the sequential blocks that fill them
//! with application logic are called **muscles** and come in four flavours
//! (see [`muscle`]):
//!
//! * Execute  `fe: P → R`
//! * Split    `fs: P → {R}`
//! * Merge    `fm: {P} → R`
//! * Condition `fc: P → bool`
//!
//! The public API is the typed [`Skel<P, R>`](skel::Skel) handle and its
//! constructor functions ([`seq`](skel::seq()), [`map`](skel::map()), …), which
//! enforce muscle/skeleton type agreement at compile time and then erase into
//! the runtime representation ([`node::Node`]) that the execution engines
//! (`askel-engine`, `askel-sim`) interpret.
//!
//! The crate also ships a **sequential reference interpreter**
//! ([`Skel::apply`](skel::Skel::apply)) that defines the functional semantics every engine must
//! agree with; the engines are property-tested against it.
//!
//! Nothing in this crate spawns threads or measures time; those concerns live
//! in the upper crates so that the same AST can run on a real thread pool or
//! inside the deterministic simulator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod display;
pub mod ids;
pub mod muscle;
pub mod node;
pub mod rewrite;
pub mod seq_eval;
pub mod skel;
pub mod time;

pub use ids::{InstanceId, MuscleId, MuscleRole, NodeId};
pub use muscle::{Condition, Data, Execute, Merge, Split};
pub use node::{KindTag, MuscleDescriptor, Node, NodeKind};
pub use seq_eval::EvalError;
pub use skel::{dac, farm, fork, map, pipe, seq, sfor, sif, swhile, Skel};
pub use time::{Clock, ManualClock, RealClock, TimeNs};
