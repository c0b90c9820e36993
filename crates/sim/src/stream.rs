//! The machine's push stream, typed and collected in submission order.

use std::collections::VecDeque;

use askel_events::{StreamRuntime, StreamTypes};
use askel_skeletons::Skel;

use crate::components::Component;
use crate::rt::Finished;
use crate::{typed, SimEngine, SimError, StreamReport};

/// The simulator's [`StreamRuntime`], as `askel_engine::StreamSession` is
/// the pool's: an ordered stream through one swappable skeleton on one
/// persistent machine (occupancy, in-flight chains and muscle invocation
/// counters carry over from item to item).
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
    report: Option<StreamReport>,
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
            report: None,
        }
    }

    /// Starts a fresh run of the machine, as each
    /// [`SimEngine::run_stream`] call does; `components` tick on its
    /// virtual time until [`close`](SimStream::close).
    pub fn open(&mut self, components: &mut [Box<dyn Component>]) {
        self.slots.clear();
        self.sim.rt.begin(components);
    }

    /// Hands the components back and keeps the totals since `open`.
    pub fn close(&mut self, components: &mut [Box<dyn Component>]) {
        self.report = Some(self.sim.rt.end(components));
    }

    /// Totals of the most recently closed run.
    pub fn report(&self) -> Option<StreamReport> {
        self.report
    }

    /// The underlying simulator (registry, clock, telemetry).
    pub fn sim(&self) -> &SimEngine {
        &self.sim
    }

    /// Mutable access to the simulator (e.g. `set_lp` between items).
    pub fn sim_mut(&mut self) -> &mut SimEngine {
        &mut self.sim
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
    fn swap_skel(&mut self, skel: &Skel<P, R>) {
        self.skel = skel.clone();
    }

    fn feed(&mut self, input: P) {
        let index = self.sim.rt.submit(self.skel.node(), Box::new(input));
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
}
