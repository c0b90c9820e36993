//! Scheduling strategies over the ADG: the paper's **best effort** and
//! **limited LP** estimators, the **optimal LP** computation, and the
//! active-thread timeline of Fig. 2.
//!
//! Formulas (§4):
//!
//! * best effort assumes infinite LP: `ti = max(pred tf)`, `tf = ti + t(m)`,
//!   and both are clamped to `currentTime` when they fall in the past;
//! * limited LP adds the constraint that at no instant more than `lp`
//!   activities run; we realize it as greedy non-idling list scheduling
//!   with a LIFO-flavoured tie-break (highest activity index first), which
//!   mirrors the runtime's LIFO ready stack;
//! * the optimal LP is the maximum concurrency of the best-effort timeline
//!   (Fig. 2: "a maximum requirement of 3 active threads … therefore the
//!   optimal LP is 3").

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use askel_skeletons::TimeNs;

use crate::adg::{ActState, Adg};

/// A laid-out ADG: one `[start, end)` span per activity (index-aligned).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Per-activity spans, aligned with `Adg::activities`.
    pub spans: Vec<(TimeNs, TimeNs)>,
    /// Completion time of the whole graph (`max end`); this is the
    /// estimated WCT measured from the submission's time origin.
    pub finish: TimeNs,
}

impl Schedule {
    /// The active-activity step function: how many activities run at each
    /// instant (zero-duration activities are skipped). This is the series
    /// plotted in Fig. 2.
    pub fn timeline(&self) -> Vec<TimelinePoint> {
        let mut deltas: Vec<(TimeNs, i64)> = Vec::with_capacity(self.spans.len() * 2);
        for &(s, e) in &self.spans {
            if e > s {
                deltas.push((s, 1));
                deltas.push((e, -1));
            }
        }
        deltas.sort_by_key(|&(t, d)| (t, d));
        let mut out: Vec<TimelinePoint> = vec![TimelinePoint {
            at: TimeNs::ZERO,
            active: 0,
        }];
        let mut active: i64 = 0;
        for (t, d) in deltas {
            active += d;
            match out.last_mut() {
                Some(last) if last.at == t => last.active = active as usize,
                _ => out.push(TimelinePoint {
                    at: t,
                    active: active as usize,
                }),
            }
        }
        // Collapse consecutive equal values for readability.
        out.dedup_by(|b, a| a.active == b.active);
        out
    }

    /// Maximum concurrency over the whole timeline (the paper's optimal
    /// LP when applied to the best-effort schedule).
    pub fn max_concurrency(&self) -> usize {
        self.timeline().iter().map(|p| p.active).max().unwrap_or(0)
    }

    /// Maximum concurrency at or after `t` — the forward-looking variant
    /// the controller uses (history cannot be rescheduled).
    pub fn max_concurrency_from(&self, t: TimeNs) -> usize {
        max_concurrency_from(&self.spans, t, &mut Vec::new())
    }
}

/// A point of a concurrency timeline: from `at` on, `active` activities
/// run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Interval start.
    pub at: TimeNs,
    /// Concurrency during the interval.
    pub active: usize,
}

/// Maximum concurrency of `spans` at or after `t`; `deltas` is scratch.
fn max_concurrency_from(
    spans: &[(TimeNs, TimeNs)],
    t: TimeNs,
    deltas: &mut Vec<(TimeNs, i64)>,
) -> usize {
    deltas.clear();
    let mut at_t: i64 = 0;
    for &(s, e) in spans {
        if e <= s || e <= t {
            continue;
        }
        if s <= t {
            at_t += 1;
        } else {
            deltas.push((s, 1));
        }
        deltas.push((e, -1));
    }
    deltas.sort_unstable();
    let mut max = at_t;
    let mut cur = at_t;
    for &(_, d) in deltas.iter() {
        cur += d;
        max = max.max(cur);
    }
    max.max(0) as usize
}

/// Best-effort schedule: infinite LP.
pub fn best_effort(adg: &Adg, now: TimeNs) -> Schedule {
    let mut scheduler = Scheduler::default();
    let finish = scheduler.on(adg, now).best_effort();
    Schedule {
        spans: scheduler.best_effort_spans,
        finish,
    }
}

/// Limited-LP schedule: greedy list scheduling with at most `lp`
/// concurrently running activities from `now` on. Already-running
/// activities keep their workers (no preemption); `lp == 0` with pending
/// work yields `finish == TimeNs::MAX`.
///
/// Note that greedy list scheduling is subject to *Graham's anomaly*: on
/// adversarial DAGs a larger `lp` can occasionally produce a slightly
/// later finish. The paper assumes non-decreasing speedup ("for
/// simplicity … we assume that the LP produces a non-strictly increasing
/// speedup", §4) and so does the controller's binary search; Graham's
/// bound still guarantees every `lp ≥ 1` is at least as good as serial
/// execution (property-tested in `tests/strategy_properties.rs`).
pub fn limited_lp(adg: &Adg, now: TimeNs, lp: usize) -> Schedule {
    let mut scheduler = Scheduler::default();
    let finish = scheduler.on(adg, now).limited_lp(lp);
    Schedule {
        spans: scheduler.spans,
        finish,
    }
}

type Completion = Reverse<(TimeNs, u32)>;

/// Ends a successor list.
const NO_EDGE: u32 = u32::MAX;

/// The buffers the layouts work in. The controller keeps one for its
/// lifetime, so that laying a graph out allocates nothing once they have
/// grown to its size; [`best_effort`] and [`limited_lp`] use one apiece.
#[derive(Debug, Default)]
pub struct Scheduler {
    // What every layout of one graph at one instant starts from, gathered
    // in one pass (`Layouts::prepare`).
    prepared: bool,
    /// Latest end among the `Done` and `Running` activities.
    fixed_finish: TimeNs,
    /// How many activities are pending, and their summed durations.
    pending: usize,
    pending_work: TimeNs,
    /// Per pending activity: how many predecessors are not `Done`.
    waits: Vec<u32>,
    /// Per pending activity: `now` or the latest end among its `Done`
    /// predecessors, whichever is later — when it is ready once the
    /// others have ended (they all have by the instant the last does).
    ready_at: Vec<TimeNs>,
    /// The pending successors of activity `i`, one entry per edge: a
    /// list through `succ` (`(successor, next entry)`) that starts at
    /// `succ_head[i]`. Edges out of `Done` activities are left out (they
    /// are counted in nobody's `waits`).
    succ_head: Vec<u32>,
    succ: Vec<(u32, u32)>,
    /// Pending activities that wait for nothing.
    ready: Vec<u32>,
    /// When each `Running` activity is expected to complete.
    running: Vec<(TimeNs, u32)>,
    /// Best effort needs no layout of its own: each pending activity
    /// starts once its predecessors have ended, all known by its turn.
    best_effort_finish: TimeNs,
    best_effort_spans: Vec<(TimeNs, TimeNs)>,
    /// Limited-LP finishes already laid out for this graph, by `lp`.
    finishes: Vec<(usize, TimeNs)>,

    // One limited-LP layout. `prepare` fills in the spans history fixes
    // (`Done`, `Running`) and zeroes the rest; a layout assigns every
    // pending activity's and touches no other.
    spans: Vec<(TimeNs, TimeNs)>,
    missing: Vec<u32>,
    /// Startable now; the highest index goes first (mirrors the
    /// runtime's LIFO stack on ties).
    eligible: ReadySet,
    /// Waiting for nothing but the clock: ready at a time still ahead.
    later: BinaryHeap<Completion>,
    completions: BinaryHeap<Completion>,

    deltas: Vec<(TimeNs, i64)>,
}

impl Scheduler {
    /// Starts laying `adg` out as of `now`. No layout is computed twice
    /// through the handle returned: best effort is kept, and so is the
    /// limited-LP finish of every `lp` asked for.
    pub fn on<'a>(&'a mut self, adg: &'a Adg, now: TimeNs) -> Layouts<'a> {
        self.prepared = false;
        self.finishes.clear();
        Layouts {
            adg,
            now,
            buffers: self,
        }
    }
}

/// The layouts of one graph at one instant, over a [`Scheduler`]'s
/// buffers.
pub struct Layouts<'a> {
    adg: &'a Adg,
    now: TimeNs,
    buffers: &'a mut Scheduler,
}

impl Layouts<'_> {
    /// Completion time of the best-effort (infinite-LP) layout.
    pub fn best_effort(&mut self) -> TimeNs {
        self.prepare();
        self.buffers.best_effort_finish
    }

    /// Maximum concurrency of the best-effort layout at or after `t` —
    /// the forward-looking optimal LP (history cannot be rescheduled).
    pub fn best_effort_concurrency_from(&mut self, t: TimeNs) -> usize {
        self.prepare();
        let Scheduler {
            best_effort_spans,
            deltas,
            ..
        } = &mut *self.buffers;
        max_concurrency_from(best_effort_spans, t, deltas)
    }

    /// Completion time of the limited-LP layout with `lp` workers (see
    /// [`limited_lp`]).
    pub fn limited_lp(&mut self, lp: usize) -> TimeNs {
        if let Some(&(_, finish)) = self.buffers.finishes.iter().find(|&&(l, _)| l == lp) {
            return finish;
        }
        let finish = self.lay_out(lp);
        self.buffers.finishes.push((lp, finish));
        finish
    }

    /// [`limited_lp`](Self::limited_lp) if it is no later than `target`.
    /// `None` without a layout when [`finish_bound`](Self::finish_bound)
    /// already exceeds `target` — the usual answer to "would half the LP
    /// still meet the goal?".
    pub(crate) fn limited_lp_within(&mut self, lp: usize, target: TimeNs) -> Option<TimeNs> {
        if self.finish_bound(lp) > target {
            return None;
        }
        Some(self.limited_lp(lp)).filter(|&finish| finish <= target)
    }

    /// A lower bound on the limited-LP finish with `lp` workers: no
    /// layout beats best effort, and from `now` on the pending work runs
    /// on at most `lp` workers at a time. Pending work only: the
    /// `Running` activities may outnumber `lp` (after a decrease), and
    /// their ends are in best effort already.
    fn finish_bound(&mut self, lp: usize) -> TimeNs {
        let best_effort = self.best_effort();
        let s = &*self.buffers;
        match s.pending_work.0.checked_div(lp as u64) {
            Some(share) if s.pending > 0 => best_effort.max(self.now + TimeNs(share)),
            _ => best_effort,
        }
    }

    /// Everything about the graph that does not depend on `lp`, in one
    /// pass: the best-effort spans and finish, the spans history fixes,
    /// how much work is pending, which pending activities wait for how
    /// many others and from when, and who follows whom.
    fn prepare(&mut self) {
        if self.buffers.prepared {
            return;
        }
        let (adg, now) = (self.adg, self.now);
        let s = &mut *self.buffers;
        let n = adg.len();
        s.spans.clear();
        s.spans.resize(n, (TimeNs::ZERO, TimeNs::ZERO));
        s.best_effort_spans.clear();
        s.best_effort_spans.reserve(n);
        s.waits.clear();
        s.waits.resize(n, 0);
        s.ready_at.clear();
        s.ready_at.resize(n, now);
        s.succ_head.clear();
        s.succ_head.resize(n, NO_EDGE);
        s.succ.clear();
        s.ready.clear();
        s.running.clear();
        s.fixed_finish = TimeNs::ZERO;
        s.best_effort_finish = TimeNs::ZERO;
        s.pending = 0;
        s.pending_work = TimeNs::ZERO;
        for (i, a) in adg.activities.iter().enumerate() {
            let span = match a.state {
                ActState::Done { start, end } => {
                    s.spans[i] = (start, end);
                    s.fixed_finish = s.fixed_finish.max(end);
                    (start, end)
                }
                ActState::Running { start } => {
                    let end = (start + a.est).max(now);
                    s.spans[i] = (start, end);
                    s.fixed_finish = s.fixed_finish.max(end);
                    s.running.push((end, i as u32));
                    (start, end)
                }
                ActState::Pending => {
                    s.pending += 1;
                    s.pending_work += a.est;
                    // past-clamp: ti ≥ now
                    let mut ti = now;
                    let mut ready_at = now;
                    for &p in adg.pred_slice(i) {
                        ti = ti.max(s.best_effort_spans[p as usize].1);
                        match adg.activities[p as usize].state {
                            ActState::Done { end, .. } => ready_at = ready_at.max(end),
                            _ => {
                                s.waits[i] += 1;
                                s.succ.push((i as u32, s.succ_head[p as usize]));
                                s.succ_head[p as usize] = (s.succ.len() - 1) as u32;
                            }
                        }
                    }
                    s.ready_at[i] = ready_at;
                    if s.waits[i] == 0 {
                        s.ready.push(i as u32);
                    }
                    (ti, ti + a.est)
                }
            };
            s.best_effort_finish = s.best_effort_finish.max(span.1);
            s.best_effort_spans.push(span);
        }
        s.prepared = true;
    }

    /// One limited-LP layout into `spans`: an event-driven list
    /// scheduler, O((n + e) log n).
    fn lay_out(&mut self, lp: usize) -> TimeNs {
        self.prepare();
        let (adg, now) = (self.adg, self.now);
        let s = &mut *self.buffers;
        if s.pending > 0 && lp == 0 {
            return TimeNs::MAX;
        }
        s.missing.clear();
        s.missing.extend_from_slice(&s.waits);
        s.eligible.reset(adg.len());
        s.later.clear();
        for &i in &s.ready {
            let ready_time = s.ready_at[i as usize];
            if ready_time <= now {
                s.eligible.insert(i);
            } else {
                s.later.push(Reverse((ready_time, i)));
            }
        }
        s.completions.clear();
        s.completions.extend(s.running.iter().map(|&c| Reverse(c)));
        let mut in_use = s.running.len();
        let mut pending_left = s.pending;
        let mut finish = s.fixed_finish;

        // `i` completed: its successors wait for one activity fewer.
        // Whoever waits for none is ready once its last predecessor ends
        // — now, unless a `Done` one is recorded as ending in the future.
        let mut release =
            |i: u32, t: TimeNs, eligible: &mut ReadySet, later: &mut BinaryHeap<Completion>| {
                let mut edge = s.succ_head[i as usize];
                while edge != NO_EDGE {
                    let (next, after) = s.succ[edge as usize];
                    edge = after;
                    s.missing[next as usize] -= 1;
                    if s.missing[next as usize] == 0 {
                        let ready_time = s.ready_at[next as usize];
                        if ready_time <= t {
                            eligible.insert(next);
                        } else {
                            later.push(Reverse((ready_time, next)));
                        }
                    }
                }
            };

        let mut t = now;
        loop {
            while let Some(&Reverse((ready_time, i))) = s.later.peek() {
                if ready_time > t {
                    break;
                }
                s.later.pop();
                s.eligible.insert(i);
            }
            // Start everything ready and startable at time t.
            while in_use < lp {
                let Some(i) = s.eligible.pop_max() else { break };
                let est = adg.activities[i as usize].est;
                s.spans[i as usize] = (t, t + est);
                finish = finish.max(t + est);
                pending_left -= 1;
                if est.0 == 0 {
                    // Zero-duration activities complete instantly and do
                    // not occupy a worker.
                    release(i, t, &mut s.eligible, &mut s.later);
                } else {
                    in_use += 1;
                    s.completions.push(Reverse((t + est, i)));
                }
            }
            if pending_left == 0 && s.completions.is_empty() {
                break;
            }
            // Advance to the next completion.
            let Some(Reverse((at, i))) = s.completions.pop() else {
                // No running activity but work left: everything ready is
                // ready in the future — advance to the earliest.
                let Some(&Reverse((ready_time, _))) = s.later.peek() else {
                    break;
                };
                t = t.max(ready_time);
                continue;
            };
            t = t.max(at);
            in_use -= 1;
            release(i, t, &mut s.eligible, &mut s.later);
            // Drain simultaneous completions.
            while let Some(&Reverse((at, j))) = s.completions.peek() {
                if at != t {
                    break;
                }
                s.completions.pop();
                in_use -= 1;
                release(j, t, &mut s.eligible, &mut s.later);
            }
        }
        finish
    }
}

/// A set of activity indices that gives up its highest first: one bit
/// per activity, and a summary bit per word saying that word is not
/// empty, so a pop looks at one summary word per 4 096 activities.
#[derive(Debug, Default)]
struct ReadySet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl ReadySet {
    /// Empties the set and sizes it for indices below `n`.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.summary.clear();
        self.summary.resize(self.words.len().div_ceil(64), 0);
    }

    fn insert(&mut self, i: u32) {
        let w = i as usize / 64;
        self.words[w] |= 1 << (i % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    fn pop_max(&mut self) -> Option<u32> {
        let top = self.summary.iter().rposition(|&bits| bits != 0)?;
        let w = top * 64 + 63 - self.summary[top].leading_zeros() as usize;
        let bit = 63 - self.words[w].leading_zeros();
        self.words[w] &= !(1 << bit);
        if self.words[w] == 0 {
            self.summary[top] &= !(1 << (w % 64));
        }
        Some((w * 64) as u32 + bit)
    }
}

/// The paper's optimal LP: the maximum concurrency of the best-effort
/// schedule.
pub fn optimal_lp(adg: &Adg, now: TimeNs) -> usize {
    best_effort(adg, now).max_concurrency()
}

/// Cold predictive completion estimate: expands the purely-predictive ADG
/// of `root` from `estimates` and lays it out at `lp` — the WCT one
/// submission of `root` is forecast to take from scratch.
///
/// `None` when `estimates` does not cover every muscle of `root` (the
/// same analysis gate the controller applies: never decide from a guess)
/// or when the tree expands to an empty graph. This is the read path the
/// self-configuration layer's forecast-gated rules share with the
/// controller ([`AutonomicController::forecast_wct`](crate::controller::AutonomicController::forecast_wct)).
pub fn predictive_wct(
    estimates: &crate::estimate::EstimatorTable,
    root: &std::sync::Arc<askel_skeletons::Node>,
    lp: usize,
) -> Option<TimeNs> {
    let mut workspace = crate::adg::AdgWorkspace::new(root);
    if !workspace.refresh(estimates) {
        return None;
    }
    let adg = workspace.predict_refreshed();
    if adg.is_empty() {
        return None;
    }
    Some(
        Scheduler::default()
            .on(adg, TimeNs::ZERO)
            .limited_lp(lp.max(1)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::{MuscleId, MuscleRole, NodeId};

    /// A graph of `(state, est, preds)` activities.
    fn adg_of(activities: &[(ActState, u64, &[usize])]) -> Adg {
        let mut adg = Adg::default();
        for &(state, est, preds) in activities {
            let muscle = MuscleId::new(NodeId(1), MuscleRole::Execute);
            adg.push(muscle, state, TimeNs(est), preds);
        }
        adg
    }

    /// split(10) → 3 × fe(15) → merge(5), nothing started.
    fn fan_adg() -> Adg {
        adg_of(&[
            (ActState::Pending, 10, &[]),
            (ActState::Pending, 15, &[0]),
            (ActState::Pending, 15, &[0]),
            (ActState::Pending, 15, &[0]),
            (ActState::Pending, 5, &[1, 2, 3]),
        ])
    }

    #[test]
    fn best_effort_is_critical_path() {
        let s = best_effort(&fan_adg(), TimeNs::ZERO);
        assert_eq!(s.finish, TimeNs(30));
        assert_eq!(s.max_concurrency(), 3);
    }

    #[test]
    fn limited_lp_serializes() {
        let s = limited_lp(&fan_adg(), TimeNs::ZERO, 1);
        assert_eq!(s.finish, TimeNs(10 + 45 + 5));
        let s2 = limited_lp(&fan_adg(), TimeNs::ZERO, 2);
        assert_eq!(s2.finish, TimeNs(10 + 30 + 5));
    }

    #[test]
    fn limited_lp_with_big_lp_equals_best_effort() {
        let be = best_effort(&fan_adg(), TimeNs::ZERO);
        let ll = limited_lp(&fan_adg(), TimeNs::ZERO, 64);
        assert_eq!(be.finish, ll.finish);
    }

    #[test]
    fn running_activities_hold_their_workers() {
        // Two running activities (est 10, started at 0), one pending (5),
        // LP 2, now = 2: the pending one must wait until 10.
        let adg = adg_of(&[
            (ActState::Running { start: TimeNs(0) }, 10, &[]),
            (ActState::Running { start: TimeNs(0) }, 10, &[]),
            (ActState::Pending, 5, &[]),
        ]);
        let s = limited_lp(&adg, TimeNs(2), 2);
        assert_eq!(s.spans[2], (TimeNs(10), TimeNs(15)));
        assert_eq!(s.finish, TimeNs(15));
    }

    #[test]
    fn overdue_running_activity_is_clamped_to_now() {
        // Started at 0 with est 10, but now = 25: tf = now (paper rule).
        let adg = adg_of(&[(ActState::Running { start: TimeNs(0) }, 10, &[])]);
        let s = best_effort(&adg, TimeNs(25));
        assert_eq!(s.spans[0], (TimeNs(0), TimeNs(25)));
    }

    #[test]
    fn pending_start_is_clamped_to_now() {
        // Pred finished at 5, now = 20: the pending activity starts at 20.
        let adg = adg_of(&[
            (
                ActState::Done {
                    start: TimeNs(0),
                    end: TimeNs(5),
                },
                5,
                &[],
            ),
            (ActState::Pending, 10, &[0]),
        ]);
        let s = best_effort(&adg, TimeNs(20));
        assert_eq!(s.spans[1], (TimeNs(20), TimeNs(30)));
        let s = limited_lp(&adg, TimeNs(20), 1);
        assert_eq!(s.spans[1], (TimeNs(20), TimeNs(30)));
    }

    #[test]
    fn done_history_is_preserved_and_does_not_take_capacity() {
        let adg = adg_of(&[
            (
                ActState::Done {
                    start: TimeNs(0),
                    end: TimeNs(100),
                },
                100,
                &[],
            ),
            (ActState::Pending, 10, &[]),
        ]);
        let s = limited_lp(&adg, TimeNs(100), 1);
        assert_eq!(s.spans[0], (TimeNs(0), TimeNs(100)));
        assert_eq!(s.spans[1], (TimeNs(100), TimeNs(110)));
    }

    #[test]
    fn zero_lp_with_pending_work_never_finishes() {
        let s = limited_lp(&fan_adg(), TimeNs::ZERO, 0);
        assert_eq!(s.finish, TimeNs::MAX);
    }

    #[test]
    fn zero_duration_activities_do_not_occupy_workers() {
        // Three zero-cost activities + one real one, LP 1: all zero-cost
        // ones run "instantly" alongside.
        let adg = adg_of(&[
            (ActState::Pending, 0, &[]),
            (ActState::Pending, 0, &[0]),
            (ActState::Pending, 7, &[1]),
            (ActState::Pending, 0, &[2]),
        ]);
        let s = limited_lp(&adg, TimeNs::ZERO, 1);
        assert_eq!(s.finish, TimeNs(7));
    }

    #[test]
    fn timeline_shows_the_fan() {
        let s = best_effort(&fan_adg(), TimeNs::ZERO);
        let tl = s.timeline();
        assert_eq!(
            tl,
            vec![
                TimelinePoint {
                    at: TimeNs(0),
                    active: 1
                },
                TimelinePoint {
                    at: TimeNs(10),
                    active: 3
                },
                TimelinePoint {
                    at: TimeNs(25),
                    active: 1
                },
                TimelinePoint {
                    at: TimeNs(30),
                    active: 0
                },
            ]
        );
        assert_eq!(s.max_concurrency_from(TimeNs(26)), 1);
        assert_eq!(s.max_concurrency_from(TimeNs(10)), 3);
    }

    #[test]
    fn optimal_lp_matches_max_concurrency() {
        assert_eq!(optimal_lp(&fan_adg(), TimeNs::ZERO), 3);
    }

    /// A small graph of mixed states, and `now`: `Running` activities
    /// that may outnumber the LP, `Done` ones that may end after `now`,
    /// zero durations — or, with `all_done`, nothing pending at all, often
    /// with every end before `now`.
    fn bound_spec() -> impl proptest::strategy::Strategy<Value = (Adg, TimeNs)> {
        use proptest::prelude::*;
        (1usize..16, any::<bool>())
            .prop_flat_map(|(n, all_done)| {
                let activity = (0u8..4, 0u64..5, 0u64..8, 0u64..5);
                let preds = proptest::collection::vec(any::<u32>(), 0..3);
                (
                    proptest::collection::vec(activity, n),
                    proptest::collection::vec(preds, n),
                    0u64..16,
                    Just(all_done),
                )
            })
            .prop_map(|(activities, pred_seeds, now, all_done)| {
                let mut adg = Adg::default();
                for (i, ((kind, est, start, len), seeds)) in
                    activities.into_iter().zip(pred_seeds).enumerate()
                {
                    let start = TimeNs(start * 1_000);
                    let state = match kind {
                        _ if all_done || kind == 0 => ActState::Done {
                            start,
                            end: start + TimeNs(len * 1_000),
                        },
                        1 => ActState::Running { start },
                        _ => ActState::Pending,
                    };
                    let preds: Vec<usize> = match i {
                        0 => vec![],
                        _ => seeds.iter().map(|&s| s as usize % i).collect(),
                    };
                    let muscle = MuscleId::new(NodeId(i as u64 + 1), MuscleRole::Execute);
                    adg.push(muscle, state, TimeNs(est * 1_000), &preds);
                }
                (adg, TimeNs(now * 1_000))
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..Default::default()
        })]

        /// The bound that lets the controller skip a layout never exceeds
        /// the finish that layout would have computed.
        #[test]
        fn the_finish_bound_never_exceeds_the_layout((adg, now) in bound_spec()) {
            let mut scheduler = Scheduler::default();
            let mut layouts = scheduler.on(&adg, now);
            for lp in 1..=adg.len() {
                let bound = layouts.finish_bound(lp);
                let finish = layouts.limited_lp(lp);
                proptest::prop_assert!(
                    bound <= finish,
                    "lp {}: bound {:?} > finish {:?}",
                    lp,
                    bound,
                    finish
                );
                proptest::prop_assert_eq!(layouts.limited_lp_within(lp, finish), Some(finish));
                if finish > TimeNs::ZERO {
                    let early = finish - TimeNs(1);
                    proptest::prop_assert_eq!(layouts.limited_lp_within(lp, early), None);
                }
            }
        }
    }

    #[test]
    fn the_finish_bound_spreads_pending_work_over_the_lp() {
        // Four pending activities of 10 on one worker: at least 40 from
        // `now`, though best effort reads 10.
        let adg = adg_of(&[
            (ActState::Pending, 10, &[]),
            (ActState::Pending, 10, &[]),
            (ActState::Pending, 10, &[]),
            (ActState::Pending, 10, &[]),
        ]);
        let mut scheduler = Scheduler::default();
        let mut layouts = scheduler.on(&adg, TimeNs(3));
        assert_eq!(layouts.best_effort(), TimeNs(13));
        assert_eq!(layouts.finish_bound(1), TimeNs(43));
        assert_eq!(layouts.finish_bound(3), TimeNs(16));
        assert_eq!(layouts.limited_lp_within(1, TimeNs(42)), None);
        assert_eq!(layouts.limited_lp_within(2, TimeNs(23)), Some(TimeNs(23)));
    }

    #[test]
    fn wct_is_monotonically_nonincreasing_in_lp() {
        let adg = fan_adg();
        let mut prev = limited_lp(&adg, TimeNs::ZERO, 1).finish;
        for lp in 2..8 {
            let cur = limited_lp(&adg, TimeNs::ZERO, lp).finish;
            assert!(cur <= prev, "lp {lp}: {cur:?} > {prev:?}");
            prev = cur;
        }
    }
}
