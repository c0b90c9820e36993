//! The result future returned by [`Engine::submit`](crate::Engine::submit).

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::EngineError;

/// How many lock-check/yield rounds [`SkelFuture::get`] spins before
/// parking on the condvar.
const SPIN_CHECKS: u32 = 32;

struct Shared<R> {
    slot: Mutex<Option<Result<R, EngineError>>>,
    cond: Condvar,
}

/// A blocking future for one skeleton submission — the Rust shape of the
/// paper's `Future<R> future = skeleton.input(p); … R r = future.get();`.
pub struct SkelFuture<R> {
    shared: Arc<Shared<R>>,
}

/// The write side handed to the engine internals. The first `fulfill` or
/// `fail` wins; later calls are ignored (a poisoned submission may race its
/// own completion).
pub(crate) struct Promise<R> {
    shared: Arc<Shared<R>>,
}

impl<R> Clone for Promise<R> {
    fn clone(&self) -> Self {
        Promise {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Creates a connected (future, promise) pair.
pub(crate) fn pair<R>() -> (SkelFuture<R>, Promise<R>) {
    let shared = Arc::new(Shared {
        slot: Mutex::new(None),
        cond: Condvar::new(),
    });
    (
        SkelFuture {
            shared: Arc::clone(&shared),
        },
        Promise { shared },
    )
}

impl<R> Promise<R> {
    /// Resolves the future with a value (first write wins).
    pub(crate) fn fulfill(&self, value: R) {
        self.set(Ok(value));
    }

    /// Resolves the future with an error (first write wins).
    pub(crate) fn fail(&self, err: EngineError) {
        self.set(Err(err));
    }

    fn set(&self, result: Result<R, EngineError>) {
        let mut slot = self.shared.slot.lock();
        if slot.is_none() {
            *slot = Some(result);
            self.shared.cond.notify_all();
        }
    }
}

impl<R> std::fmt::Debug for SkelFuture<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkelFuture")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl<R> SkelFuture<R> {
    /// Blocks until the submission finishes; returns the result or the
    /// failure that poisoned it.
    ///
    /// Briefly spins (yielding the core to the workers) before blocking
    /// on the condvar: short skeletons resolve within microseconds, and
    /// skipping the futex sleep/wake round-trip for them measurably
    /// lowers engine latency; long runs park as before.
    pub fn get(self) -> Result<R, EngineError> {
        for _ in 0..SPIN_CHECKS {
            {
                let mut slot = self.shared.slot.lock();
                if slot.is_some() {
                    return slot.take().expect("checked above");
                }
            }
            std::thread::yield_now();
        }
        let mut slot = self.shared.slot.lock();
        while slot.is_none() {
            self.shared.cond.wait(&mut slot);
        }
        slot.take().expect("checked by loop")
    }

    /// Blocks up to `timeout`; `Err(self)` gives the future back on
    /// timeout so the caller can keep waiting.
    ///
    /// Waits against a deadline, re-arming the condition wait until the
    /// full `timeout` has elapsed: a spurious wakeup (or a `notify` that
    /// lost the race with a concurrent resolution) re-checks the slot
    /// and keeps waiting for the remaining time instead of returning
    /// `Err(self)` early.
    pub fn get_timeout(self, timeout: Duration) -> Result<Result<R, EngineError>, Self> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.slot.lock();
        while slot.is_none() {
            let now = Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            self.shared.cond.wait_for(&mut slot, remaining);
        }
        match slot.take() {
            Some(r) => Ok(r),
            None => {
                drop(slot);
                Err(self)
            }
        }
    }

    /// `true` once the submission has finished (ok or poisoned).
    pub(crate) fn is_ready(&self) -> bool {
        self.shared.slot.lock().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fulfilled_future_returns_value() {
        let (f, p) = pair::<i32>();
        assert!(!f.is_ready());
        p.fulfill(7);
        assert!(f.is_ready());
        assert_eq!(f.get().unwrap(), 7);
    }

    #[test]
    fn first_resolution_wins() {
        let (f, p) = pair::<i32>();
        p.fail(EngineError::MusclePanic("first".into()));
        p.fulfill(7);
        match f.get() {
            Err(EngineError::MusclePanic(m)) => assert_eq!(m, "first"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_blocks_until_resolution_from_another_thread() {
        let (f, p) = pair::<String>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p.fulfill("done".into());
        });
        assert_eq!(f.get().unwrap(), "done");
        t.join().unwrap();
    }

    #[test]
    fn get_timeout_returns_future_on_timeout() {
        let (f, p) = pair::<i32>();
        let f = match f.get_timeout(Duration::from_millis(10)) {
            Err(f) => f,
            Ok(_) => panic!("should have timed out"),
        };
        p.fulfill(1);
        assert_eq!(f.get_timeout(Duration::from_secs(5)).unwrap().unwrap(), 1);
    }

    #[test]
    fn get_timeout_survives_spurious_wakeups() {
        // Pound the condvar with notifications that resolve nothing: a
        // single `wait_for` would wake on the first notify and return
        // `Err(self)` long before the timeout. The documented contract
        // is "blocks up to `timeout`", so the deadline loop must absorb
        // them and keep waiting.
        let (f, _p) = pair::<i32>();
        let shared = Arc::clone(&f.shared);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let noise = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::SeqCst) {
                shared.cond.notify_all();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let timeout = Duration::from_millis(250);
        let start = Instant::now();
        let result = f.get_timeout(timeout);
        let elapsed = start.elapsed();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        noise.join().unwrap();
        assert!(result.is_err(), "nothing resolved the future");
        assert!(
            elapsed >= timeout,
            "returned after {elapsed:?}, before the {timeout:?} timeout elapsed"
        );
    }
}
