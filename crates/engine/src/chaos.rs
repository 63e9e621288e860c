//! Deterministic panic injection for fault-tolerance tests.
//!
//! Panic isolation (workers caught at the thread boundary, queries caught
//! at the engine boundary) is only trustworthy if tests can make real code
//! panic at realistic points. A [`PanicInjector`] attached to a
//! [`crate::ResourceGuard`] is ticked from that guard's `charge` — i.e. at
//! every morsel boundary of every scan running under it, and under the
//! per-query guards derived from it — so an armed panic fires inside a
//! genuine worker hot loop, not in a synthetic closure.
//!
//! An injector is a handle a test owns: queries under other guards never
//! tick it, so tests arming their own injectors run side by side, and a
//! guard with none attached does nothing at all for it.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Message carried by injected panics, so tests can assert the payload
/// round-trips into `WorkerPanicked { payload }`.
pub const CHAOS_PANIC_MSG: &str = "injected chaos panic";

/// A countdown to one injected panic, shared by its clones. Disarmed until
/// [`PanicInjector::arm`] is called.
#[derive(Debug, Clone, Default)]
pub struct PanicInjector {
    /// Ticks until the panic, counting the one that fires; `<= 0` is
    /// disarmed.
    remaining: Arc<AtomicI64>,
}

impl PanicInjector {
    /// Arm the trigger: the `ticks`-th subsequent tick panics (0 = the very
    /// next one). Overwrites any previous arming.
    pub fn arm(&self, ticks: u64) {
        let remaining = ticks.min(i64::MAX as u64 - 1) as i64 + 1;
        self.remaining.store(remaining, Ordering::SeqCst);
    }

    /// Disarm the trigger. Idempotent.
    pub fn disarm(&self) {
        self.remaining.store(0, Ordering::SeqCst);
    }

    /// Whether a panic is currently armed.
    pub fn is_armed(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) > 0
    }

    /// Count one trigger point; panics when the armed countdown runs out.
    /// Called from `ResourceGuard::charge`, i.e. once per morsel.
    #[inline]
    pub(crate) fn tick(&self) {
        if self.remaining.load(Ordering::Relaxed) <= 0 {
            return;
        }
        // Slow path only while armed. fetch_sub hands exactly one thread the
        // last tick; concurrent tickers drive the counter negative, which
        // reads as disarmed.
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            panic!("{CHAOS_PANIC_MSG}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_counts_down_and_disarms() {
        let chaos = PanicInjector::default();
        assert!(!chaos.is_armed());
        chaos.tick(); // disarmed: no-op
        chaos.arm(2);
        assert!(chaos.is_armed());
        assert!(chaos.clone().is_armed(), "clones share the countdown");
        chaos.tick();
        chaos.tick();
        let caught = std::panic::catch_unwind(|| chaos.tick());
        let payload = caught.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(CHAOS_PANIC_MSG)
        );
        assert!(!chaos.is_armed(), "firing consumes the arming");
        chaos.tick(); // and stays disarmed
        chaos.arm(5);
        chaos.disarm();
        assert!(!chaos.is_armed());
    }
}
