//! Time representation shared by the real engine and the simulator.
//!
//! The paper's autonomic machinery is defined over *wall-clock time* but is
//! otherwise platform independent; we make that explicit by routing every
//! timestamp through the [`Clock`] trait. The threaded engine uses
//! [`RealClock`] (monotonic, nanoseconds since engine start) while the
//! discrete-event simulator drives a [`ManualClock`] forward in virtual time.
//! All autonomic computations (`askel-core`) are pure functions of `TimeNs`
//! values and therefore behave identically under either clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A point in time (or a duration), in integer nanoseconds.
///
/// One type serves for both points and durations — the autonomic formulas of
/// the paper (`tf = ti + t(m)`) freely mix the two, and keeping a single
/// integer representation makes schedules exactly reproducible (no float
/// drift in comparisons).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TimeNs(pub u64);

impl TimeNs {
    /// The zero time (engine start / simulation start).
    pub const ZERO: TimeNs = TimeNs(0);

    /// Largest representable time; used as "+∞" by the schedulers.
    pub const MAX: TimeNs = TimeNs(u64::MAX);

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        TimeNs(s * 1_000_000_000)
    }

    /// Builds a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        TimeNs(ms * 1_000_000)
    }

    /// Builds a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        TimeNs(us * 1_000)
    }

    /// Builds a time from fractional seconds (clamped at zero).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return TimeNs(0);
        }
        TimeNs((s * 1e9).round() as u64)
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction (`self - rhs`, floored at zero).
    pub fn saturating_sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0.saturating_add(rhs.0))
    }

    /// The later of two times (the schedulers' `max` over predecessors).
    pub fn max(self, rhs: TimeNs) -> TimeNs {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// The earlier of two times.
    pub fn min(self, rhs: TimeNs) -> TimeNs {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for TimeNs {
    type Output = TimeNs;
    fn add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeNs {
    fn add_assign(&mut self, rhs: TimeNs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeNs {
    type Output = TimeNs;
    fn sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 - rhs.0)
    }
}

impl fmt::Debug for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Source of timestamps for event emission and autonomic analysis.
///
/// Implementations must be monotonic: `now()` never decreases.
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> TimeNs;
}

/// Monotonic wall-clock, reporting nanoseconds since its creation.
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Creates a clock whose zero is "now".
    pub fn new() -> Self {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> TimeNs {
        let d = self.epoch.elapsed();
        TimeNs(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

/// A clock advanced explicitly by its owner; the simulator's virtual time.
///
/// `advance_to` is monotone: attempts to move backwards are ignored, so the
/// clock can be shared freely between the simulator loop and listeners.
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock {
            now: AtomicU64::new(0),
        })
    }

    /// Moves the clock forward to `t`; ignored if `t` is in the past.
    pub fn advance_to(&self, t: TimeNs) {
        self.now.fetch_max(t.0, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> TimeNs {
        TimeNs(self.now.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(TimeNs::from_secs(3).as_secs_f64(), 3.0);
        assert_eq!(TimeNs::from_millis(1500), TimeNs::from_secs_f64(1.5));
        assert_eq!(TimeNs::from_micros(2_000), TimeNs::from_millis(2));
    }

    #[test]
    fn from_secs_f64_clamps_garbage() {
        assert_eq!(TimeNs::from_secs_f64(-1.0), TimeNs::ZERO);
        assert_eq!(TimeNs::from_secs_f64(f64::NAN), TimeNs::ZERO);
        assert_eq!(TimeNs::from_secs_f64(f64::NEG_INFINITY), TimeNs::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = TimeNs::from_secs(2);
        let b = TimeNs::from_secs(5);
        assert_eq!(a + b, TimeNs::from_secs(7));
        assert_eq!(b - a, TimeNs::from_secs(3));
        assert_eq!(a.saturating_sub(b), TimeNs::ZERO);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let t1 = c.now();
        let t2 = c.now();
        assert!(t2 >= t1);
    }

    #[test]
    fn manual_clock_never_goes_backwards() {
        let c = ManualClock::new();
        c.advance_to(TimeNs(100));
        c.advance_to(TimeNs(40));
        assert_eq!(c.now(), TimeNs(100));
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(TimeNs::from_secs(2).to_string(), "2.000s");
        assert_eq!(TimeNs::from_millis(5).to_string(), "5.000ms");
        assert_eq!(TimeNs(120).to_string(), "120ns");
    }
}
