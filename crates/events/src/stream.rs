//! What a stream of items needs from whatever executes it — one level
//! above [`interp`](crate::interp)'s `Runtime`, and likewise statically
//! dispatched. The adaptive session (`askel-adapt`) is written once over
//! [`StreamRuntime`]; `askel-engine`'s `StreamSession` implements it on
//! pool threads (blocking parks the caller), `askel-sim`'s `SimStream`
//! on one simulated machine (blocking is what advances virtual time).
//! A safe point reads what it rewrites and its runtime facts — the
//! skeleton, registry, time, LP — from the stream it runs on, so no
//! session carries a copy of them.

use askel_skeletons::{Skel, TimeNs};

use crate::registry::ListenerRegistry;

/// What a stream is fed, yields and fails with. Apart from its
/// operations, so that a type built on them is well-formed wherever the
/// stream type is: `StreamSession<P, R>` names its types for every `P`,
/// `R` but only runs for `Send + 'static` ones.
pub trait StreamTypes {
    /// What is fed.
    type In;
    /// What a successful item yields.
    type Out;
    /// How an item fails.
    type Error;
}

/// An ordered stream of inputs through one swappable skeleton.
pub trait StreamRuntime: StreamTypes {
    /// The skeleton the next submission runs; a safe point rewrites it.
    fn skel(&self) -> &Skel<Self::In, Self::Out>;

    /// Swaps the skeleton *subsequent* submissions run; items in flight
    /// finish on the tree they were submitted with.
    fn swap_skel(&mut self, skel: &Skel<Self::In, Self::Out>);

    /// Submits one input on the current skeleton.
    fn feed(&mut self, input: Self::In);

    /// Submits several inputs in order (override for a bulk path).
    fn feed_batch(&mut self, inputs: Vec<Self::In>) {
        for input in inputs {
            self.feed(input);
        }
    }

    /// Counts, without blocking, every finished item at the head of the
    /// stream, including any an earlier call counted that nobody has
    /// collected yet: that many `next_result` calls then return at once.
    fn poll_ready(&mut self) -> usize;

    /// The oldest uncollected result, waiting for it if need be; `None`
    /// once every submitted item has been collected.
    fn next_result(&mut self) -> Option<Result<Self::Out, Self::Error>>;

    /// Items submitted and not yet collected (those `poll_ready` has
    /// counted may be left out).
    fn in_flight(&self) -> usize;

    /// The registry the runtime emits through; a safe point announces
    /// its rewrites here.
    fn registry(&self) -> &ListenerRegistry;

    /// The runtime clock's current time.
    fn now(&self) -> TimeNs;

    /// The runtime's current level of parallelism, which width rules
    /// scale to.
    fn lp(&self) -> usize;
}
