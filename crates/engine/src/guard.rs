//! Resource guarding: row budgets, wall-clock deadlines, and cooperative
//! cancellation.
//!
//! A percentage query can explode quietly — a skewed join key turns the
//! `Fk ⋈ Fj` probe into a cross product, a high-cardinality BY list turns
//! the `Hpct` pivot into millions of groups — and the first symptom is the
//! allocator failing. [`ResourceGuard`] puts a ceiling in front of that: hot
//! loops charge the rows they scan and materialize against a shared budget
//! and bail out with a typed [`EngineError::BudgetExceeded`],
//! [`EngineError::DeadlineExceeded`], or [`EngineError::Cancelled`] long
//! before memory does.
//!
//! All three limits are observed at the same points — every
//! [`ResourceGuard::charge`] call, i.e. once per scan morsel — so a
//! deadline or cancellation lands within one morsel of being due, on every
//! worker thread, without any operator knowing deadlines exist. Time is
//! read through the injectable [`Clock`] so deadline tests are
//! deterministic.
//!
//! The guard is a cheap clonable handle; all clones share one counter, so a
//! plan that fans out over several operators still observes a single global
//! budget. The default guard is unlimited and compiles down to a null check
//! in the hot path.

use crate::chaos::PanicInjector;
use crate::clock::{Clock, SystemClock};
use crate::error::{EngineError, Result};
use pa_obs::{SpanHandle, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How many loop iterations pass between cooperative cancellation checks in
/// operator hot loops. A power of two so the modulo folds to a mask.
pub const CANCEL_CHECK_INTERVAL: usize = 1024;

/// A wall-clock allowance paired with the clock that measures it. The
/// countdown starts when the deadline is attached to a guard (or when a
/// per-query guard is derived), not when the value is constructed.
#[derive(Debug, Clone)]
pub struct Deadline {
    allow: Duration,
    clock: Arc<dyn Clock>,
}

impl Deadline {
    /// An allowance measured on the real monotonic clock.
    pub fn new(allow: Duration) -> Deadline {
        Deadline {
            allow,
            clock: SystemClock::shared(),
        }
    }

    /// An allowance measured on an injected clock (deterministic tests).
    pub fn with_clock(allow: Duration, clock: Arc<dyn Clock>) -> Deadline {
        Deadline { allow, clock }
    }

    /// The configured allowance.
    pub fn allowance(&self) -> Duration {
        self.allow
    }
}

/// A deadline armed on a specific guard: allowance plus start time.
#[derive(Debug)]
struct DeadlineState {
    allow: Duration,
    start: Duration,
    clock: Arc<dyn Clock>,
}

impl DeadlineState {
    fn arm(d: &Deadline) -> DeadlineState {
        DeadlineState {
            allow: d.allow,
            start: d.clock.now(),
            clock: Arc::clone(&d.clock),
        }
    }

    /// `Some((elapsed_ms, limit_ms))` once the allowance is spent.
    fn exceeded(&self) -> Option<(u64, u64)> {
        let elapsed = self.clock.now().saturating_sub(self.start);
        (elapsed > self.allow)
            .then_some((elapsed.as_millis() as u64, self.allow.as_millis() as u64))
    }
}

#[derive(Debug)]
struct GuardInner {
    /// Maximum rows (scanned + materialized) this guard admits, if bounded.
    row_budget: Option<u64>,
    /// Rows charged so far, shared across clones.
    rows: AtomicU64,
    /// Cooperative cancellation flag.
    cancelled: AtomicBool,
    /// Wall-clock allowance, checked at every charge boundary. Enforced on
    /// this guard only; derived guards re-arm with a fresh start.
    deadline: Option<DeadlineState>,
    /// The guard this one was derived from via [`ResourceGuard::per_query`].
    /// Charges roll up the chain for metering (without budget enforcement
    /// there), and cancellation anywhere up the chain stops this guard too.
    parent: Option<Arc<GuardInner>>,
}

impl GuardInner {
    fn chain_cancelled(&self) -> bool {
        let mut cur = Some(self);
        while let Some(inner) = cur {
            if inner.cancelled.load(Ordering::Relaxed) {
                return true;
            }
            cur = inner.parent.as_deref();
        }
        false
    }

    fn deadline_check(&self) -> Result<()> {
        if let Some(dl) = &self.deadline {
            if let Some((elapsed_ms, limit_ms)) = dl.exceeded() {
                return Err(EngineError::DeadlineExceeded {
                    elapsed_ms,
                    limit_ms,
                });
            }
        }
        Ok(())
    }
}

/// A shared handle enforcing a row budget, a wall-clock deadline, and a
/// cancellation flag over the operators of one plan.
///
/// ```
/// use pa_engine::{EngineError, ResourceGuard};
///
/// let guard = ResourceGuard::with_row_budget(10);
/// assert!(guard.charge(8).is_ok());
/// let err = guard.clone().charge(5).unwrap_err(); // clones share the meter
/// assert!(matches!(err, EngineError::BudgetExceeded { budget: 10, .. }));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResourceGuard {
    inner: Option<Arc<GuardInner>>,
    /// Span tracer riding on the guard — the one handle every operator
    /// already receives. Disabled by default, so untraced queries pay one
    /// `Option` branch per span-open and nothing per row.
    tracer: Tracer,
    /// Fault injection for tests, riding the same way: ticked once per
    /// [`ResourceGuard::charge`] when attached, one `Option` branch when
    /// not.
    injector: Option<PanicInjector>,
}

impl ResourceGuard {
    /// A guard that admits everything. `charge` and `check` are near-free.
    pub const fn unlimited() -> ResourceGuard {
        ResourceGuard {
            inner: None,
            tracer: Tracer::disabled(),
            injector: None,
        }
    }

    /// A guard admitting at most `rows` rows of work (scanned plus
    /// materialized) before operators return
    /// [`EngineError::BudgetExceeded`].
    pub fn with_row_budget(rows: u64) -> ResourceGuard {
        ResourceGuard::with_limits(Some(rows), None)
    }

    /// A guard enforcing only a wall-clock deadline, counted from now.
    ///
    /// ```
    /// use pa_engine::clock::TestClock;
    /// use pa_engine::{Deadline, EngineError, ResourceGuard};
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let clock = Arc::new(TestClock::new());
    /// let guard = ResourceGuard::with_deadline(Deadline::with_clock(
    ///     Duration::from_millis(10),
    ///     clock.clone(),
    /// ));
    /// assert!(guard.charge(1).is_ok());
    /// clock.advance(Duration::from_millis(11));
    /// assert!(matches!(
    ///     guard.charge(1),
    ///     Err(EngineError::DeadlineExceeded { limit_ms: 10, .. })
    /// ));
    /// ```
    pub fn with_deadline(deadline: Deadline) -> ResourceGuard {
        ResourceGuard::with_limits(None, Some(deadline))
    }

    /// A guard with any combination of limits. Both `None` yields the
    /// unlimited guard.
    pub fn with_limits(row_budget: Option<u64>, deadline: Option<Deadline>) -> ResourceGuard {
        if row_budget.is_none() && deadline.is_none() {
            return ResourceGuard::unlimited();
        }
        ResourceGuard::unlimited().per_query_limited(row_budget, deadline)
    }

    /// A guard with no limits that still meters [`rows_charged`] and
    /// honours [`cancel`].
    ///
    /// [`rows_charged`]: ResourceGuard::rows_charged
    /// [`cancel`]: ResourceGuard::cancel
    pub fn counting() -> ResourceGuard {
        ResourceGuard::unlimited().per_query()
    }

    /// Derive a child guard with the same limits but a fresh meter and a
    /// freshly started deadline — the engine calls this once per top-level
    /// query, so the budget and allowance bound each query rather than
    /// accumulating over the engine's lifetime. The child still rolls its
    /// charges up to this guard (so [`rows_charged`] on the attached handle
    /// meters total work) and observes [`cancel`] requested on it;
    /// cancelling the child affects only the child.
    ///
    /// [`rows_charged`]: ResourceGuard::rows_charged
    /// [`cancel`]: ResourceGuard::cancel
    pub fn per_query(&self) -> ResourceGuard {
        self.per_query_with(None)
    }

    /// [`ResourceGuard::per_query`] with a deadline override: `Some`
    /// replaces (or adds) the allowance for this query only; `None`
    /// inherits the parent's allowance, restarted now. Works from the
    /// unlimited guard too, yielding a deadline-only child.
    pub fn per_query_with(&self, deadline: Option<Deadline>) -> ResourceGuard {
        self.per_query_limited(None, deadline)
    }

    /// The most general per-query derivation: either limit can be
    /// overridden for this query (`Some`) or inherited from this guard
    /// (`None`). The child keeps the roll-up/cancellation link to this
    /// guard when this guard is bounded; from the unlimited guard the
    /// overrides are the child's only limits. With no limit at all the
    /// child still meters — a query's `rows_charged` reports its cost, and
    /// a panic can cancel its surviving workers — and whatever rides on
    /// this guard (tracer, injector) rides on the child.
    pub fn per_query_limited(
        &self,
        row_budget: Option<u64>,
        deadline: Option<Deadline>,
    ) -> ResourceGuard {
        let inherited = self.inner.as_deref();
        let armed = match &deadline {
            Some(d) => Some(DeadlineState::arm(d)),
            None => inherited.and_then(|i| i.deadline.as_ref()).map(|dl| {
                DeadlineState::arm(&Deadline {
                    allow: dl.allow,
                    clock: Arc::clone(&dl.clock),
                })
            }),
        };
        ResourceGuard {
            inner: Some(Arc::new(GuardInner {
                row_budget: row_budget.or(inherited.and_then(|i| i.row_budget)),
                rows: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                deadline: armed,
                parent: self.inner.clone(),
            })),
            tracer: self.tracer.clone(),
            injector: self.injector.clone(),
        }
    }

    /// Attach a [`Tracer`]: spans opened via [`ResourceGuard::span`] on
    /// this guard (and every guard derived from it) record to `tracer`.
    /// Limits, meters, and roll-up links are untouched.
    pub fn with_tracer(mut self, tracer: Tracer) -> ResourceGuard {
        self.tracer = tracer;
        self
    }

    /// Attach a [`PanicInjector`]: every [`ResourceGuard::charge`] on this
    /// guard (and on every guard derived from it) ticks `injector` first.
    pub fn with_injector(mut self, injector: PanicInjector) -> ResourceGuard {
        self.injector = Some(injector);
        self
    }

    /// The tracer riding on this guard (disabled unless one was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Open an operator span on this guard's tracer. A no-op handle when
    /// no tracer is attached — operators call this unconditionally.
    pub fn span(&self, label: &'static str) -> SpanHandle {
        self.tracer.span(label)
    }

    /// Whether this guard enforces anything at all.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// The configured row budget, if any.
    pub fn row_budget(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|i| i.row_budget)
    }

    /// The configured wall-clock allowance, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.inner
            .as_ref()
            .and_then(|i| i.deadline.as_ref().map(|d| d.allow))
    }

    /// Rows charged so far across all clones of this guard.
    pub fn rows_charged(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.rows.load(Ordering::Relaxed))
    }

    /// Request cooperative cancellation: every subsequent `charge`/`check`
    /// (on any clone) fails with [`EngineError::Cancelled`].
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether cancellation has been requested, on this guard or any guard
    /// it was derived from.
    pub fn is_cancelled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.chain_cancelled())
    }

    /// Fail if cancellation was requested or the deadline has passed.
    /// Called periodically from loops whose row charges were prepaid in
    /// bulk.
    pub fn check(&self) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.chain_cancelled() {
            return Err(EngineError::Cancelled);
        }
        inner.deadline_check()
    }

    /// Charge `rows` rows of work against the budget.
    ///
    /// Fails with [`EngineError::BudgetExceeded`] when the running total
    /// would pass the budget (the charge still registers, so every clone
    /// fails consistently afterwards), with [`EngineError::DeadlineExceeded`]
    /// once the wall-clock allowance is spent, and with
    /// [`EngineError::Cancelled`] when cancellation was requested. The
    /// charge also rolls up to every ancestor guard for metering; only this
    /// guard's limits are enforced.
    pub fn charge(&self, rows: u64) -> Result<()> {
        if let Some(injector) = &self.injector {
            injector.tick();
        }
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.chain_cancelled() {
            return Err(EngineError::Cancelled);
        }
        inner.deadline_check()?;
        let mut ancestor = inner.parent.as_deref();
        while let Some(a) = ancestor {
            a.rows.fetch_add(rows, Ordering::Relaxed);
            ancestor = a.parent.as_deref();
        }
        let total = inner.rows.fetch_add(rows, Ordering::Relaxed) + rows;
        if let Some(budget) = inner.row_budget {
            if total > budget {
                return Err(EngineError::BudgetExceeded {
                    budget,
                    attempted: total,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    #[test]
    fn unlimited_admits_everything() {
        let g = ResourceGuard::unlimited();
        assert!(g.is_unlimited());
        assert!(g.charge(u64::MAX).is_ok());
        assert!(g.check().is_ok());
        assert_eq!(g.rows_charged(), 0, "nothing metered");
        assert_eq!(g.row_budget(), None);
        assert_eq!(g.deadline(), None);
        g.cancel(); // no-op on the unlimited guard
        assert!(!g.is_cancelled());
        assert!(ResourceGuard::default().is_unlimited());
        assert!(ResourceGuard::with_limits(None, None).is_unlimited());
    }

    #[test]
    fn budget_exceeded_reports_numbers() {
        let g = ResourceGuard::with_row_budget(100);
        assert!(g.charge(100).is_ok(), "budget is inclusive");
        let err = g.charge(1).unwrap_err();
        match err {
            EngineError::BudgetExceeded { budget, attempted } => {
                assert_eq!(budget, 100);
                assert_eq!(attempted, 101);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn clones_share_the_meter() {
        let g = ResourceGuard::with_row_budget(10);
        let h = g.clone();
        g.charge(6).unwrap();
        assert_eq!(h.rows_charged(), 6);
        assert!(h.charge(6).is_err(), "clone sees the same running total");
    }

    #[test]
    fn per_query_guard_resets_the_meter_and_rolls_up() {
        let engine_guard = ResourceGuard::with_row_budget(10);
        // Two derived "queries", each within budget individually but over
        // it cumulatively: both must pass.
        for _ in 0..2 {
            let q = engine_guard.per_query();
            assert!(q.charge(8).is_ok());
        }
        // The attached handle still meters the total work.
        assert_eq!(engine_guard.rows_charged(), 16);
        // The parent's own budget is not enforced by child roll-ups: a
        // third small query still runs.
        assert!(engine_guard.per_query().charge(8).is_ok());
        // But each child enforces the budget for itself.
        let q = engine_guard.per_query();
        assert!(q.charge(8).is_ok());
        assert!(matches!(
            q.charge(8),
            Err(EngineError::BudgetExceeded { budget: 10, .. })
        ));
        // Deriving from the unlimited guard adds no limit, and meters.
        let q = ResourceGuard::unlimited().per_query();
        assert_eq!((q.row_budget(), q.deadline()), (None, None));
        q.charge(8).unwrap();
        assert_eq!(q.rows_charged(), 8);
    }

    #[test]
    fn cancelling_the_parent_stops_derived_guards() {
        let engine_guard = ResourceGuard::with_row_budget(1000);
        let q = engine_guard.per_query();
        engine_guard.cancel();
        assert!(q.is_cancelled());
        assert!(matches!(q.charge(1), Err(EngineError::Cancelled)));
        assert!(matches!(q.check(), Err(EngineError::Cancelled)));
        // The reverse does not hold: a cancelled child leaves the parent
        // (and sibling queries) running.
        let parent = ResourceGuard::with_row_budget(1000);
        let child = parent.per_query();
        child.cancel();
        assert!(!parent.is_cancelled());
        assert!(parent.per_query().charge(1).is_ok());
    }

    #[test]
    fn cancellation_wins_over_budget() {
        let g = ResourceGuard::with_row_budget(1_000_000);
        let h = g.clone();
        h.cancel();
        assert!(g.is_cancelled());
        assert!(matches!(g.check(), Err(EngineError::Cancelled)));
        assert!(matches!(g.charge(1), Err(EngineError::Cancelled)));
    }

    #[test]
    fn deadline_trips_exactly_when_the_clock_passes_it() {
        let clock = Arc::new(TestClock::new());
        let g = ResourceGuard::with_deadline(Deadline::with_clock(
            Duration::from_millis(10),
            clock.clone(),
        ));
        assert_eq!(g.deadline(), Some(Duration::from_millis(10)));
        assert_eq!(g.row_budget(), None);
        clock.advance(Duration::from_millis(10));
        assert!(g.charge(1).is_ok(), "the allowance is inclusive");
        assert!(g.check().is_ok());
        clock.advance(Duration::from_millis(1));
        let err = g.charge(1).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::DeadlineExceeded {
                    elapsed_ms: 11,
                    limit_ms: 10,
                }
            ),
            "{err:?}"
        );
        assert!(matches!(
            g.check(),
            Err(EngineError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn per_query_restarts_the_deadline() {
        let clock = Arc::new(TestClock::new());
        let engine_guard = ResourceGuard::with_limits(
            Some(1_000),
            Some(Deadline::with_clock(
                Duration::from_millis(5),
                clock.clone(),
            )),
        );
        clock.advance(Duration::from_millis(100)); // engine idles past its own allowance
        let q = engine_guard.per_query();
        assert!(
            q.charge(1).is_ok(),
            "fresh start: the query has 5ms from now"
        );
        clock.advance(Duration::from_millis(6));
        assert!(matches!(
            q.charge(1),
            Err(EngineError::DeadlineExceeded { .. })
        ));
        // The next query starts fresh again.
        assert!(engine_guard.per_query().charge(1).is_ok());
    }

    #[test]
    fn per_query_with_overrides_and_adds_deadlines() {
        let clock = Arc::new(TestClock::new());
        // Override on a budget-only guard: the child gains a deadline.
        let g = ResourceGuard::with_row_budget(100);
        let q = g.per_query_with(Some(Deadline::with_clock(
            Duration::from_millis(2),
            clock.clone(),
        )));
        assert_eq!(q.deadline(), Some(Duration::from_millis(2)));
        assert_eq!(q.row_budget(), Some(100), "budget still inherited");
        clock.advance(Duration::from_millis(3));
        assert!(matches!(
            q.charge(1),
            Err(EngineError::DeadlineExceeded { .. })
        ));
        // Override from the unlimited guard: deadline-only child, armed
        // from the moment of derivation.
        let q = ResourceGuard::unlimited().per_query_with(Some(Deadline::with_clock(
            Duration::from_millis(2),
            clock.clone(),
        )));
        assert!(!q.is_unlimited());
        assert!(q.check().is_ok(), "fresh start at derivation time");
        clock.advance(Duration::from_millis(3));
        assert!(matches!(
            q.check(),
            Err(EngineError::DeadlineExceeded { .. })
        ));
        // None override inherits the parent allowance.
        let g = ResourceGuard::with_deadline(Deadline::with_clock(
            Duration::from_millis(7),
            clock.clone(),
        ));
        assert_eq!(g.per_query().deadline(), Some(Duration::from_millis(7)));
    }

    #[test]
    fn per_query_limited_overrides_the_row_budget() {
        let engine_guard = ResourceGuard::with_row_budget(1_000);
        // Tighter per-call budget wins for this query only.
        let q = engine_guard.per_query_limited(Some(5), None);
        assert_eq!(q.row_budget(), Some(5));
        assert!(q.charge(5).is_ok());
        assert!(matches!(
            q.charge(1),
            Err(EngineError::BudgetExceeded { budget: 5, .. })
        ));
        // The roll-up link to the engine guard is preserved.
        assert_eq!(engine_guard.rows_charged(), 6);
        // And the engine guard's own limits are untouched for later queries.
        assert!(engine_guard.per_query().charge(900).is_ok());
        // From the unlimited guard, the overrides are the only limits.
        let q = ResourceGuard::unlimited().per_query_limited(Some(2), None);
        assert_eq!(q.row_budget(), Some(2));
        let q = ResourceGuard::unlimited().per_query_limited(None, None);
        assert_eq!((q.row_budget(), q.deadline()), (None, None));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let clock = Arc::new(TestClock::new());
        let g = ResourceGuard::with_deadline(Deadline::with_clock(Duration::ZERO, clock.clone()));
        clock.advance(Duration::from_millis(1));
        g.cancel();
        assert!(matches!(g.charge(1), Err(EngineError::Cancelled)));
    }

    #[test]
    fn tracer_rides_along_per_query_derivation() {
        let clock = Arc::new(TestClock::with_auto_step(Duration::from_nanos(1)));
        let tracer = Tracer::enabled(clock);
        let root = tracer.span("query");
        let g = ResourceGuard::with_row_budget(100).with_tracer(tracer.clone());
        assert!(g.tracer().is_enabled());
        // Both the bounded and the unlimited derivation paths propagate it.
        let q = g.per_query();
        assert!(q.tracer().is_enabled());
        let u = ResourceGuard::unlimited()
            .with_tracer(tracer.clone())
            .per_query_limited(Some(5), None);
        assert!(u.tracer().is_enabled());
        q.span("aggregate").finish();
        root.finish();
        let report = tracer.take_report();
        assert_eq!(report.spans().len(), 2);
        assert_eq!(report.spans()[1].label, "aggregate");
        // Untraced guards open no-op spans.
        assert!(!ResourceGuard::unlimited().span("x").is_enabled());
    }

    #[test]
    fn injector_rides_along_per_query_derivation() {
        let fires_on_next_charge = |g: &ResourceGuard| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.charge(1))).is_err()
        };
        let chaos = PanicInjector::default();
        // The bounded derivation, and the unlimited guard's metering child.
        let bounded = ResourceGuard::with_row_budget(100).with_injector(chaos.clone());
        let unlimited = ResourceGuard::unlimited().with_injector(chaos.clone());
        for q in [
            bounded.per_query_limited(Some(5), None),
            unlimited.per_query(),
        ] {
            chaos.arm(1);
            assert!(q.charge(1).is_ok(), "one tick left");
            assert!(fires_on_next_charge(&q));
            assert!(!chaos.is_armed(), "firing consumes the arming");
            assert!(q.charge(1).is_ok());
        }
        // A guard without an injector never ticks one.
        chaos.arm(0);
        ResourceGuard::unlimited().charge(1).unwrap();
        ResourceGuard::with_row_budget(100)
            .per_query()
            .charge(1)
            .unwrap();
        ResourceGuard::counting().charge(1).unwrap();
        assert!(chaos.is_armed(), "still waiting for its own guard");
        assert!(fires_on_next_charge(&unlimited));
    }

    #[test]
    fn real_clock_deadline_expires() {
        let g = ResourceGuard::with_deadline(Deadline::new(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            g.charge(1),
            Err(EngineError::DeadlineExceeded { .. })
        ));
    }
}
