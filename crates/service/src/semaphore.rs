//! A FIFO counting semaphore with bounded waiting.
//!
//! Admission control needs three properties std's primitives don't give
//! directly: a cap on concurrent holders, *first-come-first-served* granting
//! (a condvar alone wakes waiters in arbitrary order, so a heavy stream of
//! short queries could starve an early long one), and a bound on both how
//! many callers may wait and how long each waits. Tickets make FIFO
//! explicit: every waiter takes a ticket into a queue and only the front
//! ticket may claim a free permit.
//!
//! Built on `std::sync::{Mutex, Condvar}` — the in-repo `parking_lot` shim
//! intentionally has no condvar.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct SemState {
    /// Permits not currently held.
    available: usize,
    /// Tickets of callers waiting for a permit, in arrival order.
    queue: VecDeque<u64>,
    /// Next ticket to hand out.
    next_ticket: u64,
}

/// A fair (FIFO) counting semaphore. See the module docs.
#[derive(Debug)]
pub struct FifoSemaphore {
    state: Mutex<SemState>,
    cv: Condvar,
    permits: usize,
}

/// Why [`FifoSemaphore::acquire_timeout`] refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireError {
    /// The wait queue was at capacity — shed without waiting.
    QueueFull,
    /// The timeout elapsed while waiting in the queue.
    TimedOut,
}

impl FifoSemaphore {
    /// A semaphore with `permits` concurrent holders.
    pub fn new(permits: usize) -> FifoSemaphore {
        FifoSemaphore {
            state: Mutex::new(SemState {
                available: permits,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
            permits,
        }
    }

    /// Total permits this semaphore was built with.
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Permits not currently held. Equal to [`FifoSemaphore::permits`] when
    /// the service is idle — the permit-leak check in tests.
    pub fn available(&self) -> usize {
        self.lock().available
    }

    /// Callers currently waiting in the queue.
    pub fn waiters(&self) -> usize {
        self.lock().queue.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SemState> {
        // The lock is only held for queue bookkeeping in this module, never
        // across user code, so a poisoned lock still has consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait at most `timeout` for a permit, joining a wait queue capped at
    /// `queue_capacity`. Returns a RAII [`Permit`] that releases on drop.
    pub fn acquire_timeout(
        &self,
        timeout: Duration,
        queue_capacity: usize,
    ) -> Result<Permit<'_>, AcquireError> {
        let mut st = self.lock();
        // Fast path: a free permit and nobody ahead of us — no queueing,
        // so `queue_capacity: 0` still admits up to `permits` callers.
        if st.available > 0 && st.queue.is_empty() {
            st.available -= 1;
            return Ok(Permit { sem: self });
        }
        if st.queue.len() >= queue_capacity {
            return Err(AcquireError::QueueFull);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        let deadline = Instant::now() + timeout;
        loop {
            if st.available > 0 && st.queue.front() == Some(&ticket) {
                st.available -= 1;
                st.queue.pop_front();
                drop(st);
                // The new front may also have a free permit to claim.
                self.cv.notify_all();
                return Ok(Permit { sem: self });
            }
            let now = Instant::now();
            if now >= deadline {
                st.queue.retain(|&t| t != ticket);
                drop(st);
                // Our departure may have made another waiter the front.
                self.cv.notify_all();
                return Err(AcquireError::TimedOut);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }
}

/// A held permit; dropping it releases the slot and wakes the waiters, if
/// any wait.
#[derive(Debug)]
pub struct Permit<'a> {
    sem: &'a FifoSemaphore,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.sem.lock();
        st.available += 1;
        // A waiter joins the queue under this lock before it sleeps, so an
        // empty queue here means nobody can miss this release — and the
        // uncontended release skips the wake-up syscall.
        let waiting = !st.queue.is_empty();
        drop(st);
        if waiting {
            self.sem.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const LONG: Duration = Duration::from_secs(5);

    #[test]
    fn permits_bound_concurrency_and_release_on_drop() {
        let sem = FifoSemaphore::new(2);
        assert_eq!(sem.permits(), 2);
        let a = sem.acquire_timeout(LONG, 8).unwrap();
        let b = sem.acquire_timeout(LONG, 8).unwrap();
        assert_eq!(sem.available(), 0);
        assert_eq!(
            sem.acquire_timeout(Duration::ZERO, 8).unwrap_err(),
            AcquireError::TimedOut
        );
        drop(a);
        assert_eq!(sem.available(), 1);
        let c = sem.acquire_timeout(LONG, 8).unwrap();
        drop(b);
        drop(c);
        assert_eq!(sem.available(), 2, "all permits returned");
        assert_eq!(sem.waiters(), 0);
    }

    #[test]
    fn queue_capacity_sheds_instantly() {
        let sem = FifoSemaphore::new(1);
        let _held = sem.acquire_timeout(LONG, 0).unwrap();
        // Queue capacity 0: no waiting allowed at all once permits are out.
        assert_eq!(
            sem.acquire_timeout(LONG, 0).unwrap_err(),
            AcquireError::QueueFull
        );
    }

    #[test]
    fn grants_are_fifo() {
        let sem = Arc::new(FifoSemaphore::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let held = sem.acquire_timeout(LONG, 16).unwrap();
        let mut handles = Vec::new();
        // Queue four waiters one at a time (waiters() observes each join
        // the queue before the next thread starts), then release.
        for i in 0..4usize {
            let (worker_sem, order) = (sem.clone(), order.clone());
            handles.push(std::thread::spawn(move || {
                let _p = worker_sem.acquire_timeout(LONG, 16).unwrap();
                order.lock().unwrap().push(i);
            }));
            while sem.waiters() != i + 1 {
                std::thread::yield_now();
            }
        }
        drop(held);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3], "FIFO grant order");
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn a_queued_waiter_is_granted_as_soon_as_the_holder_drops() {
        // A release notifies only when the queue is non-empty: a waiter
        // that joined it must never sleep through the release that frees
        // its permit (it would wait out its 5 s timeout).
        let sem = Arc::new(FifoSemaphore::new(1));
        for round in 0..1_000 {
            let held = sem.acquire_timeout(LONG, 1).unwrap();
            let waiter = {
                let sem = Arc::clone(&sem);
                std::thread::spawn(move || {
                    let started = Instant::now();
                    let granted = sem.acquire_timeout(LONG, 1).is_ok();
                    (granted, started.elapsed())
                })
            };
            while sem.waiters() != 1 {
                std::thread::yield_now();
            }
            drop(held);
            let (granted, waited) = waiter.join().unwrap();
            assert!(granted, "round {round}: the waiter timed out");
            assert!(waited < LONG / 2, "round {round}: waited {waited:?}");
        }
        assert_eq!(sem.available(), 1);
        assert_eq!(sem.waiters(), 0);
    }

    #[test]
    fn timed_out_waiter_leaves_the_queue() {
        let sem = FifoSemaphore::new(1);
        let held = sem.acquire_timeout(LONG, 8).unwrap();
        assert_eq!(
            sem.acquire_timeout(Duration::from_millis(10), 8)
                .unwrap_err(),
            AcquireError::TimedOut
        );
        assert_eq!(sem.waiters(), 0, "no ghost ticket left behind");
        drop(held);
        assert!(sem.acquire_timeout(Duration::ZERO, 8).is_ok());
    }
}
