//! The machine's push stream, typed and collected in submission order.

use std::collections::VecDeque;

use askel_events::{ListenerRegistry, StreamRuntime, StreamTypes};
use askel_skeletons::{Clock, Skel, TimeNs};

use crate::rt::Finished;
use crate::{typed, SimEngine, SimError};

/// The simulator's [`StreamRuntime`], as `askel_engine::StreamSession` is
/// the pool's: an ordered stream through one swappable skeleton on one
/// persistent machine (occupancy, in-flight chains and muscle invocation
/// counters carry over from item to item). Its registry, clock and LP
/// are the simulator's: [`SimEngine::registry`], the virtual clock and
/// [`SimEngine::lp`].
///
/// Feeding runs nothing: virtual time advances only while `next_result`
/// waits for the oldest uncollected item, and `poll_ready` sees what
/// finished during earlier waits. A failure fails every item then in
/// flight (see [`SimEngine::run_stream`]).
pub struct SimStream<P, R> {
    sim: SimEngine,
    skel: Skel<P, R>,
    /// Submitted, uncollected items in order; `None` while in flight.
    slots: VecDeque<Option<Result<R, SimError>>>,
    /// The machine's index for `slots[0]`.
    base: usize,
}

impl<P, R> SimStream<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// A stream feeding `skel` on `sim`.
    pub fn new(sim: SimEngine, skel: &Skel<P, R>) -> Self {
        SimStream {
            sim,
            skel: skel.clone(),
            slots: VecDeque::new(),
            base: 0,
        }
    }

    /// The underlying simulator (registry, clock, telemetry).
    pub fn sim(&self) -> &SimEngine {
        &self.sim
    }

    fn place(&mut self, (index, outcome): Finished) {
        self.slots[index - self.base] = Some(typed(outcome));
    }
}

impl<P, R> StreamTypes for SimStream<P, R> {
    type In = P;
    type Out = R;
    type Error = SimError;
}

impl<P, R> StreamRuntime for SimStream<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    fn skel(&self) -> &Skel<P, R> {
        &self.skel
    }

    fn swap_skel(&mut self, skel: &Skel<P, R>) {
        self.skel = skel.clone();
    }

    fn feed(&mut self, input: P) {
        let index = self.sim.rt.submit(self.skel.plan(), Box::new(input));
        if self.slots.is_empty() {
            self.base = index;
        }
        self.slots.push_back(None);
    }

    fn poll_ready(&mut self) -> usize {
        while let Some(finished) = self.sim.rt.try_next() {
            self.place(finished);
        }
        self.slots.iter().take_while(|slot| slot.is_some()).count()
    }

    fn next_result(&mut self) -> Option<Result<R, SimError>> {
        while self.slots.front()?.is_none() {
            let finished = self.sim.rt.wait().expect("an empty slot is in flight");
            self.place(finished);
        }
        self.base += 1;
        self.slots.pop_front().flatten()
    }

    fn in_flight(&self) -> usize {
        self.slots.len()
    }

    fn registry(&self) -> &ListenerRegistry {
        self.sim.registry()
    }

    fn now(&self) -> TimeNs {
        self.sim.clock().now()
    }

    fn lp(&self) -> usize {
        self.sim.lp()
    }
}
