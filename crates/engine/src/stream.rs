//! Stream processing: many inputs through one skeleton.
//!
//! Skandium's `farm` and `pipe` earn their parallelism from *streams*: a
//! farm replicates its nested skeleton across concurrent inputs, and a
//! pipe overlaps different inputs' stages. The engine supports this
//! naturally (every submission is independent); [`StreamSession`] packages
//! the pattern: feed inputs as they arrive, bound how many are in flight,
//! and collect results **in submission order**.

use std::collections::VecDeque;

use askel_events::{StreamRuntime, StreamTypes};
use askel_skeletons::Skel;

use crate::error::EngineError;
use crate::future::SkelFuture;
use crate::Engine;

/// An ordered stream of inputs through one skeleton.
///
/// **Listener snapshots are per item, not per session.** Each
/// [`feed`](StreamSession::feed) is an independent [`Engine::submit`],
/// which re-samples the listener registry: a listener registered *after*
/// the first feed observes every item fed afterwards (regression-tested
/// below). Only the item in flight at registration time keeps its original
/// (possibly empty) snapshot — register listeners before feeding when every
/// item must be observed.
///
/// The skeleton itself may be swapped between items with
/// [`swap_skel`](StreamSession::swap_skel): subsequent feeds use the new
/// version while in-flight items finish on the old one. This is the
/// safe-point primitive the self-configuration runtime (`askel-adapt`)
/// builds on.
///
/// ```
/// use askel_engine::{Engine, StreamSession};
/// use askel_skeletons::{farm, seq};
///
/// let engine = Engine::new(2);
/// let program = farm(seq(|x: i64| x * 2));
/// let mut stream = StreamSession::new(&engine, &program).max_in_flight(8);
/// for x in 0..100 {
///     stream.feed(x);
/// }
/// let doubled: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
/// assert_eq!(doubled[99], 198);
/// engine.shutdown();
/// ```
pub struct StreamSession<P, R> {
    engine: Engine,
    skel: Skel<P, R>,
    in_flight: VecDeque<SkelFuture<R>>,
    ready: VecDeque<Result<R, EngineError>>,
    max_in_flight: usize,
    fed: usize,
}

impl<P, R> StreamSession<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    /// A session feeding `skel` on `engine`, with unbounded in-flight
    /// inputs by default.
    ///
    /// The session keeps an owned (non-owning) clone of the engine, so
    /// it can outlive the caller's borrow and be moved across threads —
    /// many sessions may share one engine (the serving layer's tenant
    /// registry does exactly that).
    pub fn new(engine: &Engine, skel: &Skel<P, R>) -> Self {
        StreamSession {
            engine: engine.clone(),
            skel: skel.clone(),
            in_flight: VecDeque::new(),
            ready: VecDeque::new(),
            max_in_flight: usize::MAX,
            fed: 0,
        }
    }

    /// Bounds how many inputs may be in flight; `feed` blocks on the
    /// oldest submission when the bound is reached (backpressure).
    pub fn max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n.max(1);
        self
    }

    /// Atomically swaps the skeleton used by *subsequent* feeds. Items
    /// already in flight keep executing their original (shared, immutable)
    /// skeleton version — a swap between two feeds can therefore never be
    /// observed mid-item. Results still arrive in submission order.
    ///
    /// The caller asserts the new skeleton computes the same `P → R`
    /// signature, which the type parameters enforce.
    pub fn swap_skel(&mut self, skel: &Skel<P, R>) {
        self.skel = skel.clone();
    }

    /// The skeleton that the next [`feed`](StreamSession::feed) will use.
    pub fn skel(&self) -> &Skel<P, R> {
        &self.skel
    }

    /// Non-blocking harvest: moves every already-finished leading
    /// submission (in submission order, stopping at the first unfinished
    /// one) into the internal ready buffer, where
    /// [`next_result`](StreamSession::next_result) pops it without
    /// blocking. Returns how many results were buffered by this call.
    pub fn poll_ready(&mut self) -> usize {
        let mut buffered = 0;
        while self.in_flight.front().is_some_and(SkelFuture::is_ready) {
            let f = self.in_flight.pop_front().expect("checked non-empty");
            self.ready.push_back(f.get());
            buffered += 1;
        }
        buffered
    }

    /// Submits one input. Blocks only when the in-flight bound is hit.
    pub fn feed(&mut self, input: P) {
        while self.in_flight.len() >= self.max_in_flight {
            let oldest = self.in_flight.pop_front().expect("non-empty by bound");
            self.ready.push_back(oldest.get());
        }
        self.in_flight
            .push_back(self.engine.submit(&self.skel, input));
        self.fed += 1;
    }

    /// Submits a batch of inputs through [`Engine::submit_batch`]: one
    /// pool transaction per chunk instead of one per item, amortizing
    /// the per-submission dispatch floor. Result order is unchanged —
    /// batched items collect in submission order, exactly as if fed one
    /// by one.
    ///
    /// The in-flight bound still holds: a batch larger than the
    /// remaining room is split into bound-sized chunks, blocking on the
    /// oldest submission between chunks (backpressure).
    pub fn feed_batch(&mut self, inputs: Vec<P>) {
        let mut inputs = inputs;
        while !inputs.is_empty() {
            while self.in_flight.len() >= self.max_in_flight {
                let oldest = self.in_flight.pop_front().expect("non-empty by bound");
                self.ready.push_back(oldest.get());
            }
            let room = self.max_in_flight - self.in_flight.len();
            let rest = if inputs.len() > room {
                inputs.split_off(room)
            } else {
                Vec::new()
            };
            self.fed += inputs.len();
            self.in_flight
                .extend(self.engine.submit_batch(&self.skel, inputs));
            inputs = rest;
        }
    }

    /// The next result in submission order, blocking until it is ready.
    /// `None` once every fed input has been collected.
    pub fn next_result(&mut self) -> Option<Result<R, EngineError>> {
        if let Some(r) = self.ready.pop_front() {
            return Some(r);
        }
        let f = self.in_flight.pop_front()?;
        Some(f.get())
    }

    /// Blocks for every outstanding result, in submission order.
    pub fn drain(mut self) -> impl Iterator<Item = Result<R, EngineError>> {
        let mut out: Vec<Result<R, EngineError>> = Vec::new();
        while let Some(r) = self.next_result() {
            out.push(r);
        }
        out.into_iter()
    }

    /// Inputs fed so far.
    pub fn fed(&self) -> usize {
        self.fed
    }

    /// Inputs currently in flight (submitted, not yet collected or
    /// buffered).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

impl<P, R> StreamTypes for StreamSession<P, R> {
    type In = P;
    type Out = R;
    type Error = EngineError;
}

/// The threaded stream runtime: every call is the inherent method of
/// the same name.
impl<P, R> StreamRuntime for StreamSession<P, R>
where
    P: Send + 'static,
    R: Send + 'static,
{
    fn swap_skel(&mut self, skel: &Skel<P, R>) {
        StreamSession::swap_skel(self, skel);
    }

    fn feed(&mut self, input: P) {
        StreamSession::feed(self, input);
    }

    fn feed_batch(&mut self, inputs: Vec<P>) {
        StreamSession::feed_batch(self, inputs);
    }

    fn poll_ready(&mut self) -> usize {
        StreamSession::poll_ready(self)
    }

    fn next_result(&mut self) -> Option<Result<R, EngineError>> {
        StreamSession::next_result(self)
    }

    fn in_flight(&self) -> usize {
        StreamSession::in_flight(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use askel_skeletons::{farm, pipe, seq};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_submission_order() {
        let engine = Engine::new(3);
        // Earlier inputs sleep longer: completion order ≠ submission order.
        let program = farm(seq(|x: i64| {
            std::thread::sleep(Duration::from_millis((20 - x).max(0) as u64));
            x * 10
        }));
        let mut stream = StreamSession::new(&engine, &program);
        for x in 0..20 {
            stream.feed(x);
        }
        let got: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..20).map(|x| x * 10).collect::<Vec<_>>());
        engine.shutdown();
    }

    #[test]
    fn pipe_stages_overlap_across_stream_items() {
        // With 2 workers and a 2-stage pipe, both stages must be busy
        // simultaneously for different items at some point.
        let engine = Engine::new(2);
        let program = pipe(
            seq(|x: i64| {
                std::thread::sleep(Duration::from_millis(3));
                x + 1
            }),
            seq(|x: i64| {
                std::thread::sleep(Duration::from_millis(3));
                x * 2
            }),
        );
        let mut stream = StreamSession::new(&engine, &program);
        for x in 0..16 {
            stream.feed(x);
        }
        let got: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..16).map(|x| (x + 1) * 2).collect::<Vec<_>>());
        assert!(
            engine.pool().telemetry().peak_active() >= 2,
            "stages of different items should overlap"
        );
        engine.shutdown();
    }

    #[test]
    fn backpressure_bounds_in_flight() {
        let engine = Engine::new(1);
        let running = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&running);
        let program = farm(seq(move |x: i64| {
            r.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            x
        }));
        let mut stream = StreamSession::new(&engine, &program).max_in_flight(4);
        for x in 0..32 {
            stream.feed(x);
            assert!(stream.in_flight() <= 4, "bound violated");
        }
        let got: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 32);
        assert_eq!(running.load(Ordering::SeqCst), 32);
        engine.shutdown();
    }

    #[test]
    fn a_poisoned_item_does_not_poison_its_neighbours() {
        let engine = Engine::new(2);
        let program = farm(seq(|x: i64| {
            if x == 7 {
                panic!("item 7 is cursed");
            }
            x
        }));
        let mut stream = StreamSession::new(&engine, &program);
        for x in 0..10 {
            stream.feed(x);
        }
        let results: Vec<Result<i64, EngineError>> = stream.drain().collect();
        assert_eq!(results.len(), 10);
        for (i, r) in results.iter().enumerate() {
            if i == 7 {
                assert!(r.is_err());
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as i64);
            }
        }
        engine.shutdown();
    }

    #[test]
    fn listener_registered_after_first_feed_sees_later_items() {
        use askel_events::{Event, FnListener, Payload, When, Where};
        use askel_skeletons::KindTag;

        let engine = Engine::new(1);
        let program = farm(seq(|x: i64| x + 1));
        let mut stream = StreamSession::new(&engine, &program);
        stream.feed(0);
        // Let the first item finish so it cannot race the registration.
        assert_eq!(stream.next_result().unwrap().unwrap(), 1);

        let seen = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&seen);
        engine.registry().add_listener(Arc::new(FnListener(
            move |_: &mut Payload<'_>, e: &Event| {
                if e.is(KindTag::Seq, When::After, Where::Skeleton) {
                    s.fetch_add(1, Ordering::SeqCst);
                }
            },
        )));

        for x in 1..=5 {
            stream.feed(x);
        }
        let got: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![2, 3, 4, 5, 6]);
        assert_eq!(
            seen.load(Ordering::SeqCst),
            5,
            "each feed re-samples the registry, so all 5 post-registration items emit"
        );
        engine.shutdown();
    }

    #[test]
    fn swap_skel_applies_to_subsequent_feeds_only() {
        let engine = Engine::new(2);
        let v1 = farm(seq(|x: i64| x + 1));
        let v2 = farm(seq(|x: i64| x + 100));
        let mut stream = StreamSession::new(&engine, &v1);
        stream.feed(0);
        stream.feed(1);
        stream.swap_skel(&v2);
        stream.feed(2);
        let got: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![1, 2, 102]);
        engine.shutdown();
    }

    #[test]
    fn poll_ready_buffers_finished_leading_items_without_blocking() {
        let engine = Engine::new(1);
        let program = farm(seq(|x: i64| x));
        let mut stream = StreamSession::new(&engine, &program);
        assert_eq!(stream.poll_ready(), 0, "empty session has nothing ready");
        for x in 0..4 {
            stream.feed(x);
        }
        // Wait for everything to finish, then harvest without blocking.
        engine.pool().wait_idle();
        assert_eq!(stream.poll_ready(), 4);
        assert_eq!(stream.in_flight(), 0);
        let got: Vec<i64> = stream.drain().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
        engine.shutdown();
    }

    #[test]
    fn feed_batch_matches_item_feeds_under_a_bound() {
        let engine = Engine::new(2);
        let program = farm(seq(|x: i64| x * 3));
        let mut batched = StreamSession::new(&engine, &program).max_in_flight(4);
        let mut plain = StreamSession::new(&engine, &program).max_in_flight(4);
        batched.feed_batch((0..32).collect());
        assert!(batched.in_flight() <= 4, "bound holds across chunks");
        for x in 0..32 {
            plain.feed(x);
        }
        let b: Vec<i64> = batched.drain().map(|r| r.unwrap()).collect();
        let p: Vec<i64> = plain.drain().map(|r| r.unwrap()).collect();
        assert_eq!(b, p);
        assert_eq!(b, (0..32).map(|x| x * 3).collect::<Vec<_>>());
        engine.shutdown();
    }

    #[test]
    fn a_batched_poisoned_item_stays_contained() {
        let engine = Engine::new(2);
        let program = farm(seq(|x: i64| {
            if x == 3 {
                panic!("cursed");
            }
            x
        }));
        let mut stream = StreamSession::new(&engine, &program);
        stream.feed_batch((0..6).collect());
        let results: Vec<Result<i64, EngineError>> = stream.drain().collect();
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                assert!(r.is_err());
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as i64);
            }
        }
        engine.shutdown();
    }

    #[test]
    fn owned_session_moves_across_threads_and_outlives_the_borrow() {
        let engine = Engine::new(2);
        let program = farm(seq(|x: i64| x + 1));
        let mut stream = StreamSession::new(&engine, &program);
        stream.feed(41);
        let handle = std::thread::spawn(move || {
            stream.feed(1);
            stream.drain().map(|r| r.unwrap()).sum::<i64>()
        });
        assert_eq!(handle.join().unwrap(), 44);
        engine.shutdown();
    }

    #[test]
    fn interleaved_feed_and_collect() {
        let engine = Engine::new(2);
        let program = farm(seq(|x: i64| x + 100));
        let mut stream = StreamSession::new(&engine, &program);
        stream.feed(1);
        stream.feed(2);
        assert_eq!(stream.next_result().unwrap().unwrap(), 101);
        stream.feed(3);
        assert_eq!(stream.next_result().unwrap().unwrap(), 102);
        assert_eq!(stream.next_result().unwrap().unwrap(), 103);
        assert!(stream.next_result().is_none());
        assert_eq!(stream.fed(), 3);
        engine.shutdown();
    }
}
