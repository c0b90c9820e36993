//! Pool telemetry: the "Number of Active Threads vs Wall Clock Time" data
//! behind Figures 5–7 of the paper.
//!
//! The hot counters are lock-free and always run. The timeline is opt-in
//! ([`PoolTelemetry::set_recording`]): while nobody asked for it the pool
//! reads no clock and retains nothing per task; once on, each sample takes
//! a short mutex to append.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use askel_skeletons::{TimeNs, TimelinePoint};

/// One timestamped telemetry sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetrySample {
    /// A task began executing; `active` is the count *including* it.
    TaskStart {
        /// When.
        at: TimeNs,
        /// Active tasks after the start.
        active: usize,
    },
    /// A task finished; `active` is the count *excluding* it.
    TaskEnd {
        /// When.
        at: TimeNs,
        /// Active tasks after the end.
        active: usize,
        /// Did the task panic?
        panicked: bool,
    },
    /// The worker target (LP) changed.
    TargetChange {
        /// When.
        at: TimeNs,
        /// The new target.
        target: usize,
    },
}

impl TelemetrySample {
    /// The sample's timestamp.
    pub fn at(&self) -> TimeNs {
        match self {
            TelemetrySample::TaskStart { at, .. }
            | TelemetrySample::TaskEnd { at, .. }
            | TelemetrySample::TargetChange { at, .. } => *at,
        }
    }
}

/// Shared telemetry for one pool.
///
/// The hot counters are all lock-free: the monotonic `started`/`finished`
/// pair is what the pool's queue accounting and idle detection build on.
/// Tasks run from a worker's TLS next-task slot (`submit_next`) are
/// recorded here exactly like queued tasks — the slot changes where a
/// task waits, never whether it is counted — so `wait_idle`'s
/// quiescence proof and `queued_tasks` stay exact under inline
/// continuation chains. `active` is an exact concurrency counter
/// maintained on its own —
/// deriving it from two separate loads of `started` and `finished` could
/// transiently undercount and make `peak` miss a momentary maximum, and
/// the peak is the paper's "maximum number of active threads" figure.
#[derive(Default)]
pub struct PoolTelemetry {
    peak: AtomicUsize,
    active: AtomicUsize,
    started: AtomicUsize,
    finished: AtomicUsize,
    panics: AtomicUsize,
    recording: AtomicBool,
    samples: Mutex<Vec<TelemetrySample>>,
}

impl PoolTelemetry {
    /// Fresh telemetry: counters at zero, timeline not recording.
    pub fn new() -> Self {
        PoolTelemetry::default()
    }

    /// Enables or disables timeline sample recording (counters always
    /// run). Off until a reader of [`samples`](Self::samples) or the
    /// timelines switches it on: two samples per task, kept for the
    /// pool's lifetime.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Whether timeline samples are being recorded. The pool checks this
    /// to skip clock reads entirely on the hot path when recording is
    /// off (the counters don't need timestamps).
    pub fn is_recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Tasks currently executing (exact: its own counter, incremented at
    /// pick-up and decremented at completion).
    #[cfg(test)]
    pub(crate) fn active_now(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Highest concurrent task count observed (the paper's "maximum number
    /// of active threads").
    pub fn peak_active(&self) -> usize {
        self.peak.load(Ordering::Acquire)
    }

    /// Tasks started so far (monotonic; the pool's queue accounting and
    /// idle detection compare this against its submitted count).
    pub fn tasks_started(&self) -> usize {
        self.started.load(Ordering::SeqCst)
    }

    /// `tasks_started` with a `Relaxed` load: may lag concurrent
    /// pick-ups by a few tasks. Backs the pool's cheap queue-depth
    /// read ([`ResizablePool::queue_depth_hint`]) for hot admission
    /// paths that tolerate a slightly stale depth.
    ///
    /// [`ResizablePool::queue_depth_hint`]: crate::ResizablePool::queue_depth_hint
    pub(crate) fn tasks_started_hint(&self) -> usize {
        self.started.load(Ordering::Relaxed)
    }

    /// Tasks finished so far (monotonic).
    pub fn tasks_finished(&self) -> usize {
        self.finished.load(Ordering::SeqCst)
    }

    /// Tasks that panicked.
    #[cfg(test)]
    pub(crate) fn panics(&self) -> usize {
        self.panics.load(Ordering::Acquire)
    }

    /// Records a task start (engine-internal). `now` is read only while
    /// recording.
    pub fn record_task_start(&self, now: impl FnOnce() -> TimeNs) {
        self.started.fetch_add(1, Ordering::SeqCst);
        let active = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        // Steady-state fast path: one load instead of a fetch_max.
        if active > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(active, Ordering::AcqRel);
        }
        self.sample(|| TelemetrySample::TaskStart { at: now(), active });
    }

    /// Records a task end (engine-internal). `now` is read only while
    /// recording.
    ///
    /// The `active` decrement runs before the `finished` increment so a
    /// racing `active_now` can only see the task as still active, never
    /// as both finished and active. The end sample, if any, is pushed
    /// before `finished` moves: whoever sees the task finished
    /// (`wait_idle`) sees its sample too, and a task that finished before
    /// [`set_recording`](Self::set_recording) switched the timeline on
    /// leaves nothing in it.
    pub fn record_task_end(&self, now: impl FnOnce() -> TimeNs, panicked: bool) {
        let active = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        if panicked {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        self.sample(|| TelemetrySample::TaskEnd {
            at: now(),
            active,
            panicked,
        });
        self.finished.fetch_add(1, Ordering::SeqCst);
    }

    /// Records a target (LP) change (engine-internal). `now` is read only
    /// while recording.
    pub fn record_target(&self, now: impl FnOnce() -> TimeNs, target: usize) {
        self.sample(|| TelemetrySample::TargetChange { at: now(), target });
    }

    /// Appends `sample()` to the timeline if recording: one load decides
    /// both whether the clock is read and whether the sample is kept.
    fn sample(&self, sample: impl FnOnce() -> TelemetrySample) {
        if self.recording.load(Ordering::Relaxed) {
            let sample = sample();
            self.samples.lock().push(sample);
        }
    }

    /// Raw samples in recording order.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        self.samples.lock().clone()
    }

    /// The active-task step function over time — the series plotted in
    /// Figures 5–7 ("Number of Active Threads" vs "Wall Clock Time").
    ///
    /// Consecutive samples at the same timestamp are collapsed to the last
    /// value at that instant.
    pub fn active_timeline(&self) -> Vec<TimelinePoint> {
        let samples = self.samples.lock();
        let mut out: Vec<TimelinePoint> = Vec::with_capacity(samples.len() + 1);
        out.push(TimelinePoint {
            at: TimeNs::ZERO,
            active: 0,
        });
        for s in samples.iter() {
            let active = match s {
                TelemetrySample::TaskStart { active, .. } => *active,
                TelemetrySample::TaskEnd { active, .. } => *active,
                TelemetrySample::TargetChange { .. } => continue,
            };
            let at = s.at();
            match out.last_mut() {
                Some(last) if last.at == at => last.active = active,
                _ => out.push(TimelinePoint { at, active }),
            }
        }
        out
    }

    /// The LP-target step function over time.
    pub fn target_timeline(&self) -> Vec<TimelinePoint> {
        let samples = self.samples.lock();
        let mut out = Vec::new();
        for s in samples.iter() {
            if let TelemetrySample::TargetChange { at, target } = s {
                out.push(TimelinePoint {
                    at: *at,
                    active: *target,
                });
            }
        }
        out
    }
}

/// Renders a telemetry sample stream onto a Chrome trace as two counter
/// tracks: `active` (tasks running, from start/end samples) and
/// `target_workers` (LP retargets) — the paper's "Number of Active
/// Threads vs Wall Clock Time" figures as a zoomable timeline. Panicking
/// task ends additionally drop an instant marker. Feed it
/// [`PoolTelemetry::samples`] (or a simulator's recorded stream);
/// combine with `askel_adapt::decision_log_to_chrome` for rule fires on
/// the same timeline.
pub fn telemetry_to_chrome(samples: &[TelemetrySample], trace: &mut askel_obs::ChromeTrace) {
    for s in samples {
        match *s {
            TelemetrySample::TaskStart { at, active } => {
                trace.counter(at, "active", active as f64);
            }
            TelemetrySample::TaskEnd {
                at,
                active,
                panicked,
            } => {
                trace.counter(at, "active", active as f64);
                if panicked {
                    trace.instant(at, "task panicked", "pool");
                }
            }
            TelemetrySample::TargetChange { at, target } => {
                trace.counter(at, "target_workers", target as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> PoolTelemetry {
        let t = PoolTelemetry::new();
        t.set_recording(true);
        t
    }

    #[test]
    fn counters_track_start_end() {
        let t = PoolTelemetry::new();
        t.record_task_start(|| TimeNs(10));
        t.record_task_start(|| TimeNs(20));
        assert_eq!(t.active_now(), 2);
        assert_eq!(t.peak_active(), 2);
        t.record_task_end(|| TimeNs(30), false);
        assert_eq!(t.active_now(), 1);
        assert_eq!(t.peak_active(), 2);
        assert_eq!(t.tasks_started(), 2);
        assert_eq!(t.tasks_finished(), 1);
    }

    #[test]
    fn timeline_is_a_step_function() {
        let t = recording();
        t.record_task_start(|| TimeNs(10));
        t.record_target(|| TimeNs(15), 4);
        t.record_task_start(|| TimeNs(20));
        t.record_task_end(|| TimeNs(30), false);
        t.record_task_end(|| TimeNs(40), false);
        let tl = t.active_timeline();
        assert_eq!(
            tl,
            vec![
                TimelinePoint {
                    at: TimeNs(0),
                    active: 0
                },
                TimelinePoint {
                    at: TimeNs(10),
                    active: 1
                },
                TimelinePoint {
                    at: TimeNs(20),
                    active: 2
                },
                TimelinePoint {
                    at: TimeNs(30),
                    active: 1
                },
                TimelinePoint {
                    at: TimeNs(40),
                    active: 0
                },
            ]
        );
        assert_eq!(
            t.target_timeline(),
            vec![TimelinePoint {
                at: TimeNs(15),
                active: 4
            }]
        );
    }

    #[test]
    fn same_instant_samples_collapse() {
        let t = recording();
        t.record_task_start(|| TimeNs(10));
        t.record_task_end(|| TimeNs(10), false);
        let tl = t.active_timeline();
        assert_eq!(
            tl,
            vec![
                TimelinePoint {
                    at: TimeNs(0),
                    active: 0
                },
                TimelinePoint {
                    at: TimeNs(10),
                    active: 0
                },
            ]
        );
    }

    #[test]
    fn recording_can_be_disabled() {
        let t = PoolTelemetry::new();
        assert!(!t.is_recording() && !PoolTelemetry::default().is_recording());
        t.record_target(|| TimeNs(5), 2);
        t.record_task_start(|| TimeNs(10));
        assert!(t.samples().is_empty());
        t.set_recording(true);
        t.record_task_end(|| TimeNs(20), false);
        assert_eq!(t.samples().len(), 1);
        t.set_recording(false);
        t.record_task_start(|| TimeNs(30));
        assert_eq!(t.samples().len(), 1);
        // Counters run either way.
        assert_eq!((t.tasks_started(), t.tasks_finished()), (2, 1));
    }

    #[test]
    fn panics_are_counted() {
        let t = PoolTelemetry::new();
        t.record_task_start(|| TimeNs(1));
        t.record_task_end(|| TimeNs(2), true);
        assert_eq!(t.panics(), 1);
    }

    #[test]
    fn samples_render_as_chrome_counter_tracks() {
        use askel_obs::Json;

        let t = recording();
        t.record_task_start(|| TimeNs(10_000));
        t.record_target(|| TimeNs(15_000), 4);
        t.record_task_end(|| TimeNs(20_000), true);
        let mut trace = askel_obs::ChromeTrace::new();
        telemetry_to_chrome(&t.samples(), &mut trace);
        // start + target + end + panic marker
        assert_eq!(trace.len(), 4);
        let json = Json::parse(&trace.render()).unwrap();
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("active"));
        assert_eq!(
            events[0]
                .get("args")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("target_workers")
        );
        let names: Vec<_> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert!(names.contains(&"task panicked".to_string()));
    }
}
