//! The host's core clock, probed in-run, and times scaled to a nominal
//! clock.
//!
//! The 2-vCPU host this benchmark was built on changes each vCPU's clock
//! on its own, in steps, every few seconds: a dependent-multiply chain
//! (a fixed number of cycles per iteration, so its rate *is* the clock)
//! reads 470–530 iterations/µs most of the time and 600 for stretches of
//! seconds, independently per vCPU. Every CPU-bound figure follows it:
//! identical runs gave medians 28 % apart depending on which mode the
//! run mostly sat in, which no regression bound survives. Steps lasting
//! seconds cannot be averaged out inside a 20-s run, so the benchmark
//! probes the clock between repetitions and reports every time **scaled
//! to the nominal clock**: `time × clock`, `rate ÷ clock`, with `clock`
//! relative to [`NOMINAL_RATE`]. The unscaled samples and every probe
//! stay in the per-run JSON.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use askel_pool::{ResizablePool, Task};

use crate::report::Report;
use crate::util::{median, now_ns};

/// Probe iterations per µs that count as clock 1.0: the mode the
/// recording host spends most of its time in (about 2.5 GHz at 5 cycles
/// per iteration). Only a scale: it cancels in any comparison of two
/// runs of this benchmark.
pub const NOMINAL_RATE: f64 = 500.0;

const BURST: u64 = 10_000;

/// One burst of the chain, in iterations per µs.
fn burst() -> f64 {
    let started = now_ns();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..BURST {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(1);
    }
    std::hint::black_box(x);
    BURST as f64 * 1e3 / (now_ns() - started).max(1) as f64
}

/// The calling thread's clock relative to nominal: the fastest of the
/// ~20-µs bursts that fit in `for_ns`, so a preemption or an interrupt
/// in some bursts does not lower the reading.
pub fn clock_here(for_ns: u64) -> f64 {
    let until = now_ns() + for_ns;
    let mut best = burst();
    while now_ns() < until {
        best = best.max(burst());
    }
    best / NOMINAL_RATE
}

/// Who does the work whose speed a workload reports.
pub enum Probe<'a> {
    /// The generator thread alone (`sim_goal`).
    Main,
    /// The pool's workers, all at once, so that on a host with one vCPU
    /// per worker every vCPU is read; the generator sleeps meanwhile.
    Pool(&'a ResizablePool, usize),
}

impl Probe<'_> {
    /// Mean clock, relative to nominal, of the threads that do the work.
    pub fn clock(&self) -> f64 {
        const FOR_NS: u64 = 250_000;
        match self {
            Probe::Main => clock_here(FOR_NS),
            Probe::Pool(pool, workers) => {
                let sum = Arc::new(AtomicU64::new(0));
                let done = Arc::new(AtomicU64::new(0));
                let tasks: Vec<Task> = (0..*workers)
                    .map(|_| {
                        let (sum, done) = (Arc::clone(&sum), Arc::clone(&done));
                        Box::new(move || {
                            let milli = (clock_here(FOR_NS) * 1e3) as u64;
                            sum.fetch_add(milli, Ordering::Relaxed);
                            done.fetch_add(1, Ordering::Release);
                        }) as Task
                    })
                    .collect();
                pool.submit_batch(tasks);
                while done.load(Ordering::Acquire) < *workers as u64 {
                    std::thread::sleep(Duration::from_micros(100));
                }
                sum.load(Ordering::Relaxed) as f64 / 1e3 / *workers as f64
            }
        }
    }
}

/// Probes before and after a stretch of work; the stretch's clock is the
/// mean of the two. `lap` closes one stretch and opens the next with the
/// same probe.
pub struct Laps<'a> {
    probe: Probe<'a>,
    last: f64,
    pub seen: Vec<f64>,
}

impl<'a> Laps<'a> {
    pub fn start(probe: Probe<'a>) -> Self {
        let last = probe.clock();
        Laps {
            probe,
            last,
            seen: vec![last],
        }
    }

    /// The clock over the stretch since `start` or the previous `lap`.
    pub fn lap(&mut self) -> f64 {
        let now = self.probe.clock();
        let clock = (self.last + now) / 2.0;
        self.last = now;
        self.seen.push(now);
        clock
    }

    /// The latest reading, without probing again.
    pub fn latest(&self) -> f64 {
        self.last
    }
}

/// Builds `reps` times, tearing each product down before the next is
/// built, and reports the median build time (at the nominal clock, as
/// read on the generator thread) as `setup_s`. Returns the last product.
pub fn timed_setup<T>(
    report: &mut Report,
    reps: usize,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> T {
    let mut laps = Laps::start(Probe::Main);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(old) = last.take() {
            teardown(old);
            laps.lap();
        }
        let started = now_ns();
        last = Some(build());
        times.push((now_ns() - started) as f64 * laps.lap() / 1e9);
    }
    report.set("setup_s", median(&times));
    report.raw_nums("setup_s", &times);
    last.expect("at least one set-up ran")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_reads_a_plausible_clock() {
        // 0.5–8 GHz at 5 cycles per iteration.
        let c = clock_here(200_000);
        assert!((0.2..3.2).contains(&c), "clock {c}");
    }

    #[test]
    fn a_lap_is_the_mean_of_its_two_probes() {
        let mut laps = Laps::start(Probe::Main);
        let first = laps.latest();
        let lap = laps.lap();
        assert_eq!(lap, (first + laps.latest()) / 2.0);
        assert_eq!(laps.seen.len(), 2);
    }

    #[test]
    fn the_pool_probe_reads_every_worker() {
        let pool = ResizablePool::new(2);
        let c = Probe::Pool(&pool, 2).clock();
        pool.shutdown_and_join();
        assert!((0.2..3.2).contains(&c), "clock {c}");
    }
}
