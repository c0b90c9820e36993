//! Scheduler components: periodic actors that tick on virtual time.
//!
//! A [`Component`] is anything that wants to run *between* muscle
//! completions — a telemetry sampler, a fault injector. (Capacity is not
//! one: `askel_dist::ProvisioningPolicy` is a rule, evaluated at stream
//! safe points.) The scheduler asks each component when it next wants to
//! run ([`Component::next_tick`]) and, once virtual time reaches that
//! instant, calls [`Component::tick`]. Ticks happen *before* any
//! completion carrying the same timestamp, so a component observes the
//! world as of strictly-earlier events.
//!
//! Components only tick while the machine has work in flight: an idle
//! simulated cluster costs nothing, and a simulation with no pending
//! completions terminates regardless of what components would like to do
//! next.

use askel_skeletons::TimeNs;

/// An effect a component asks the scheduler to apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Change the simulated worker capacity (level of parallelism), as
    /// if an external controller had called `SimLpControl::request`.
    RequestLp(usize),
}

/// A periodic actor driven by the discrete-event scheduler.
///
/// Contract: after `tick(now)` returns, `next_tick(now)` must be
/// strictly greater than `now` (or `None`) — otherwise the scheduler
/// would loop forever at one instant. Components are only consulted
/// while completions are pending, so an idle machine never ticks.
pub trait Component: Send {
    /// The next virtual instant this component wants to run, if any.
    fn next_tick(&self, now: TimeNs) -> Option<TimeNs>;

    /// Runs the component at virtual time `now`, returning any commands
    /// for the scheduler to apply before resuming dispatch.
    fn tick(&mut self, now: TimeNs) -> Vec<Command>;
}
