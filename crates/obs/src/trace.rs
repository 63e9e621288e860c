//! Span-based operator tracing with zero cost when disabled.
//!
//! A [`Tracer`] is a cheap clonable handle, `None` inside when disabled:
//! opening a span against a disabled tracer reads no clock, allocates no
//! id, and takes no lock — the whole facility costs one pointer-sized
//! `Option` branch per span on the off path, which is why it can ride on
//! the `ResourceGuard` that every operator already receives.
//!
//! When enabled, a [`SpanHandle`] stamps its open time from the injectable
//! [`Clock`], accumulates row/morsel counts in plain (thread-local) fields,
//! and pushes one [`SpanRecord`] into the shared buffer when it closes —
//! the buffer's mutex is touched once per span close, never per row. The
//! first span opened is the root (the query); later spans opened from the
//! tracer parent to it, and [`SpanHandle::child`] opens explicit children
//! (parallel workers use their worker index as the child ordinal, so the
//! merged report orders workers deterministically even though they close
//! in racy order).

use crate::clock::Clock;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// One closed span: an operator (or worker) with timestamps and work counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within this trace (root is 0).
    pub id: u32,
    /// Parent span id; `None` only for the root.
    pub parent: Option<u32>,
    /// Operator label (`"aggregate"`, `"join"`, `"worker"`, ...).
    pub label: &'static str,
    /// Deterministic ordering key among siblings (worker index); `None`
    /// for spans ordered by open order.
    pub ordinal: Option<u32>,
    /// Open timestamp, nanoseconds from the tracer clock's epoch.
    pub start_ns: u64,
    /// Close timestamp, nanoseconds from the tracer clock's epoch.
    pub end_ns: u64,
    /// Rows this span processed (not including child spans).
    pub rows: u64,
    /// Morsels this span processed (not including child spans).
    pub morsels: u64,
    /// Free-form execution detail (e.g. the kernel path an aggregation
    /// chose: `"vectorized"`, `"scalar"`, `"mixed"`); `None` when the
    /// operator recorded nothing.
    pub detail: Option<&'static str>,
    /// For the pass that evaluated a predicate (`select`) and for every
    /// scan that read its input through the selection: how the predicate
    /// ran (`"compiled"` / `"scalar"`) and how many rows it selected.
    pub selection: Option<(&'static str, u64)>,
}

impl SpanRecord {
    /// Display name: the label, with the ordinal appended for workers.
    pub fn name(&self) -> String {
        match self.ordinal {
            Some(i) => format!("{}#{i}", self.label),
            None => self.label.to_string(),
        }
    }

    /// Wall-clock nanoseconds between open and close.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct TracerInner {
    clock: Arc<dyn Clock>,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Handle for recording operator spans; disabled by default.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The no-op tracer: spans opened on it record nothing.
    pub const fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A recording tracer stamping spans from `clock`.
    pub fn enabled(clock: Arc<dyn Clock>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                clock,
                next_id: AtomicU32::new(0),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether spans opened on this tracer are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span. The first span opened on a tracer is the trace root;
    /// every later top-level span becomes a child of the root, so operator
    /// spans opened during a query nest under the query span without
    /// threading handles through every call.
    pub fn span(&self, label: &'static str) -> SpanHandle {
        let Some(inner) = &self.inner else {
            return SpanHandle::noop(label);
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        SpanHandle {
            tracer: self.clone(),
            id,
            parent: (id != 0).then_some(0),
            label,
            ordinal: None,
            start_ns: inner.clock.now().as_nanos() as u64,
            rows: 0,
            morsels: 0,
            detail: None,
            selection: None,
            done: false,
        }
    }

    /// Drain everything recorded so far into a report. Spans are ordered
    /// deterministically: parents before children, siblings by ordinal
    /// (worker index) and then by open order.
    pub fn take_report(&self) -> TraceReport {
        let mut spans = match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.spans.lock().unwrap()),
            None => Vec::new(),
        };
        spans.sort_by_key(|s| (s.parent.map_or(0, |p| p + 1), s.ordinal, s.id));
        TraceReport { spans }
    }
}

/// An open span. Closing (explicitly via [`SpanHandle::finish`] or by drop,
/// including during unwinding) records it on the tracer.
#[derive(Debug)]
pub struct SpanHandle {
    tracer: Tracer,
    id: u32,
    parent: Option<u32>,
    label: &'static str,
    ordinal: Option<u32>,
    start_ns: u64,
    rows: u64,
    morsels: u64,
    detail: Option<&'static str>,
    selection: Option<(&'static str, u64)>,
    done: bool,
}

impl SpanHandle {
    fn noop(label: &'static str) -> SpanHandle {
        SpanHandle {
            tracer: Tracer::disabled(),
            id: 0,
            parent: None,
            label,
            ordinal: None,
            start_ns: 0,
            rows: 0,
            morsels: 0,
            detail: None,
            selection: None,
            done: true,
        }
    }

    /// Whether this span will be recorded.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Open a child of this span. `ordinal` keys deterministic sibling
    /// order in the report (parallel workers pass their worker index).
    pub fn child(&self, label: &'static str, ordinal: u32) -> SpanHandle {
        let Some(inner) = &self.tracer.inner else {
            return SpanHandle::noop(label);
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        SpanHandle {
            tracer: self.tracer.clone(),
            id,
            parent: Some(self.id),
            label,
            ordinal: Some(ordinal),
            start_ns: inner.clock.now().as_nanos() as u64,
            rows: 0,
            morsels: 0,
            detail: None,
            selection: None,
            done: false,
        }
    }

    /// Count `n` rows of work against this span.
    pub fn add_rows(&mut self, n: u64) {
        self.rows += n;
    }

    /// Count `n` morsels of work against this span.
    pub fn add_morsels(&mut self, n: u64) {
        self.morsels += n;
    }

    /// Attach an execution detail (e.g. the chosen kernel path). Last
    /// write wins; recorded on the closed span and surfaced in
    /// [`TraceReport::to_json`].
    pub fn set_detail(&mut self, detail: &'static str) {
        self.detail = Some(detail);
    }

    /// Record the selection this span computed, or read its input through.
    pub fn set_selection(&mut self, mode: &'static str, selected: u64) {
        self.selection = Some((mode, selected));
    }

    /// Close the span now, recording it.
    pub fn finish(self) {
        // Drop does the work; `finish` just names the intent at call sites.
        drop(self);
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        if let Some(inner) = &self.tracer.inner {
            let end_ns = inner.clock.now().as_nanos() as u64;
            inner.spans.lock().unwrap().push(SpanRecord {
                id: self.id,
                parent: self.parent,
                label: self.label,
                ordinal: self.ordinal,
                start_ns: self.start_ns,
                end_ns,
                rows: self.rows,
                morsels: self.morsels,
                detail: self.detail,
                selection: self.selection,
            });
        }
    }
}

/// A drained trace: closed spans in deterministic order.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    spans: Vec<SpanRecord>,
}

impl TraceReport {
    /// All spans, parents before children, siblings in deterministic order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The root span (the query), if one was recorded.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Total traced wall-clock time: the root span's duration.
    pub fn total_ns(&self) -> u64 {
        self.root().map_or(0, SpanRecord::duration_ns)
    }

    /// Direct children of `id`, in report order.
    pub fn children(&self, id: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Rows counted by `id` and every span below it (parallel operators
    /// count their rows on worker child spans; this folds them back in).
    pub fn rows_inclusive(&self, id: u32) -> u64 {
        let own = self.spans.iter().find(|s| s.id == id).map_or(0, |s| s.rows);
        own + self
            .children(id)
            .map(|c| self.rows_inclusive(c.id))
            .sum::<u64>()
    }

    /// Morsels counted by `id` and every span below it.
    pub fn morsels_inclusive(&self, id: u32) -> u64 {
        let own = self
            .spans
            .iter()
            .find(|s| s.id == id)
            .map_or(0, |s| s.morsels);
        own + self
            .children(id)
            .map(|c| self.morsels_inclusive(c.id))
            .sum::<u64>()
    }

    /// Serialize as a JSON array of span objects (stable key order), for
    /// the bench binaries' `results/BENCH_*.json` breakdowns.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let mut detail = match s.detail {
                Some(d) => format!(",\"detail\":\"{d}\""),
                None => String::new(),
            };
            if let Some((mode, selected)) = s.selection {
                detail.push_str(&format!(",\"where\":\"{mode}\",\"selected\":{selected}"));
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"rows\":{},\"morsels\":{}{}}}",
                s.id,
                parent,
                s.name(),
                s.start_ns,
                s.end_ns,
                s.rows,
                s.morsels,
                detail
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use std::time::Duration;

    fn stepping_tracer() -> Tracer {
        Tracer::enabled(Arc::new(TestClock::with_auto_step(Duration::from_nanos(
            10,
        ))))
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let mut s = t.span("aggregate");
        assert!(!s.is_enabled());
        s.add_rows(100);
        s.add_morsels(1);
        let c = s.child("worker", 0);
        drop(c);
        s.finish();
        assert!(t.take_report().spans().is_empty());
        assert_eq!(t.take_report().total_ns(), 0);
    }

    #[test]
    fn first_span_is_root_and_later_spans_nest_under_it() {
        let t = stepping_tracer();
        let root = t.span("query");
        let mut agg = t.span("aggregate");
        agg.add_rows(42);
        agg.add_morsels(2);
        agg.finish();
        root.finish();
        let report = t.take_report();
        let spans = report.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].label, "query");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].label, "aggregate");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rows, 42);
        assert_eq!(spans[1].morsels, 2);
        assert!(spans[1].duration_ns() > 0, "auto-step clock moved");
        assert!(report.total_ns() >= spans[1].duration_ns());
    }

    #[test]
    fn worker_children_merge_in_ordinal_order() {
        let t = stepping_tracer();
        let root = t.span("query");
        let op = t.span("aggregate");
        // Close workers in reverse order to prove ordering comes from the
        // ordinal, not the close (or open) race.
        let mut w1 = op.child("worker", 1);
        let mut w0 = op.child("worker", 0);
        w0.add_rows(10);
        w1.add_rows(20);
        drop(w1);
        drop(w0);
        op.finish();
        root.finish();
        let report = t.take_report();
        let workers: Vec<_> = report.children(1).collect();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].name(), "worker#0");
        assert_eq!(workers[0].rows, 10);
        assert_eq!(workers[1].name(), "worker#1");
        assert_eq!(workers[1].rows, 20);
        assert_eq!(report.rows_inclusive(1), 30, "op folds worker rows");
    }

    #[test]
    fn drop_during_unwind_still_records() {
        let t = stepping_tracer();
        let root = t.span("query");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = t.span("aggregate");
            s.add_rows(5);
            panic!("worker died");
        }));
        assert!(caught.is_err());
        root.finish();
        let report = t.take_report();
        assert!(
            report
                .spans()
                .iter()
                .any(|s| s.label == "aggregate" && s.rows == 5),
            "span closed by unwinding drop"
        );
    }

    #[test]
    fn json_dump_is_wellformed_and_complete() {
        let t = stepping_tracer();
        let root = t.span("query");
        let op = t.span("pivot");
        let mut w = op.child("worker", 0);
        w.add_rows(3);
        w.add_morsels(1);
        drop(w);
        op.finish();
        root.finish();
        let json = t.take_report().to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"op\":\"query\""));
        assert!(json.contains("\"op\":\"pivot\""));
        assert!(json.contains("\"op\":\"worker#0\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"rows\":3"));
        assert_eq!(json.matches("{\"id\":").count(), 3);
    }

    #[test]
    fn take_report_drains() {
        let t = stepping_tracer();
        t.span("query").finish();
        assert_eq!(t.take_report().spans().len(), 1);
        assert!(t.take_report().spans().is_empty(), "second take is empty");
    }
}
