//! The load generator: closed-loop query clients (each waits for its reply,
//! like a dashboard) and, on `ingest`, one open-loop writer on a fixed
//! schedule. One call runs one round; the caller strings rounds together.

use crate::data::to_values;
use crate::host::Calibrator;
use crate::workloads::{ingest_batch, ingest_update, Kind, Plan};
use percentage_aggregations::service::{QueryService, ServiceError};
use percentage_aggregations::storage::{Catalog, Value};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The writer sends a batch every 100 ms whether or not the last one has
/// been acknowledged.
pub const WRITE_PERIOD: Duration = Duration::from_millis(100);

/// A client reads the calibration kernel before a query when its last
/// reading is older than this: every query on `scan`, every fifth to eighth on
/// `small`, a few percent of the client's time either way.
const CAL_PERIOD: Duration = Duration::from_millis(4);

/// Force the WAL to its device. A write is acknowledged only after this
/// returns, so everything acknowledged lies below the log's durable mark.
pub fn sync_wal(catalog: &Catalog) -> bool {
    catalog.with_wal(|w| w.sync()).is_ok()
}

/// One acknowledged (or failed) write: batch `seq` appended, then one cell
/// updated, then the log synced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteAck {
    pub seq: u64,
    pub appended: bool,
    pub updated: bool,
}

/// What must survive across rounds: where each client is in the statement
/// cycle, and the writer's sequence number and acknowledgements.
#[derive(Debug)]
pub struct LoadState {
    /// Statement texts in issue order.
    pub sql: Vec<String>,
    /// Rows of the table each statement reads.
    pub rows: Vec<usize>,
    cursors: Vec<usize>,
    pub seed: u64,
    pub next_seq: u64,
    pub table_rows: usize,
    pub acks: Vec<WriteAck>,
    /// Mutations the writer has applied so far, and the count each
    /// statement last ran against: a statement that meets a new count runs
    /// on invalidated caches.
    writes: AtomicU64,
    seen: Vec<AtomicU64>,
}

impl LoadState {
    pub fn new(plan: &Plan, seed: u64) -> LoadState {
        let n = plan.order.len();
        let issued = || plan.order.iter().map(|&i| &plan.stmts[i]);
        LoadState {
            sql: issued().map(|s| s.sql()).collect(),
            rows: issued().map(|s| plan.table(&s.table).rows()).collect(),
            cursors: (0..plan.clients).map(|i| i * n / plan.clients).collect(),
            seed,
            next_seq: 0,
            table_rows: if plan.kind == Kind::Ingest {
                plan.table("g").rows()
            } else {
                0
            },
            acks: Vec::new(),
            writes: AtomicU64::new(0),
            seen: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One completed query.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Statement (index in issue order) and whether a write landed since it
    /// last ran. `ingest` reads cost 1 ms warm and 10-20 ms cold, and which
    /// share of them is cold follows the read rate; keyed apart, each half
    /// has one price.
    pub stmt: usize,
    pub cold: bool,
    pub ms: f64,
    /// The calibration kernel on this client's thread, ms: mean of the
    /// readings before and after the query.
    pub cal_ms: f64,
}

#[derive(Debug, Default, Clone)]
pub struct RoundOut {
    /// Completed query latencies, ms, sorted.
    pub query_ms: Vec<f64>,
    /// The same queries, one by one, with their calibration readings.
    pub samples: Vec<Sample>,
    /// Sum over completed queries of the rows in the table queried.
    pub rows_queried: f64,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub errors: u64,
    pub shed: u64,
    /// Write latencies from the due time, ms, sorted.
    pub write_ms: Vec<f64>,
    pub write_errors: u64,
    /// How late the generator sent its latest batch, ms (worst case).
    pub writer_lag_ms: f64,
}

struct ClientOut {
    samples: Vec<Sample>,
    rows: f64,
    errors: u64,
    shed: u64,
    cursor: usize,
}

fn client(
    svc: &QueryService<'_>,
    state: &LoadState,
    mut cursor: usize,
    until: Instant,
) -> ClientOut {
    let mut out = ClientOut {
        samples: Vec::new(),
        rows: 0.0,
        errors: 0,
        shed: 0,
        cursor,
    };
    let n = state.sql.len();
    let mut calibrator = Calibrator::new();
    let mut readings = vec![calibrator.read()];
    let mut read_at = Instant::now();
    // (sample, index of the reading before it)
    let mut before: Vec<usize> = Vec::new();
    while Instant::now() < until {
        if read_at.elapsed() >= CAL_PERIOD {
            readings.push(calibrator.read());
            read_at = Instant::now();
        }
        let i = cursor % n;
        let writes = state.writes.load(Ordering::Relaxed);
        let cold = state.seen[i].swap(writes, Ordering::Relaxed) != writes;
        let t0 = Instant::now();
        match svc.execute_sql(&state.sql[i]) {
            Ok(resp) => {
                black_box(&resp);
                out.samples.push(Sample {
                    stmt: i,
                    cold,
                    ms: t0.elapsed().as_secs_f64() * 1e3,
                    cal_ms: 0.0,
                });
                before.push(readings.len() - 1);
                out.rows += state.rows[i] as f64;
            }
            Err(ServiceError::Overloaded { .. }) => out.shed += 1,
            Err(_) => out.errors += 1,
        }
        cursor += 1;
    }
    readings.push(calibrator.read());
    for (s, j) in out.samples.iter_mut().zip(before) {
        s.cal_ms = (readings[j] + readings[j + 1]) / 2.0;
    }
    out.cursor = cursor;
    out
}

struct WriterOut {
    ms: Vec<f64>,
    errors: u64,
    lag_ms: f64,
    acks: Vec<WriteAck>,
    next_seq: u64,
    table_rows: usize,
}

fn writer(svc: &QueryService<'_>, plan: &Plan, state: &LoadState, until: Instant) -> WriterOut {
    let engine = svc.engine();
    let amt = plan.table("g").col_index("amt");
    let mut out = WriterOut {
        ms: Vec::new(),
        errors: 0,
        lag_ms: 0.0,
        acks: Vec::new(),
        next_seq: state.next_seq,
        table_rows: state.table_rows,
    };
    let start = Instant::now();
    for k in 0u32.. {
        let due = start + WRITE_PERIOD * k;
        if due >= until {
            break;
        }
        // Build the batch before it is due: generating rows is the
        // harness's work, not the system's.
        let seq = out.next_seq;
        let rows = to_values(&ingest_batch(state.seed, seq, plan.batch_rows));
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        out.lag_ms = out.lag_ms.max((sent - due).as_secs_f64() * 1e3);
        let appended = engine.append_rows("g", &rows).is_ok();
        if appended {
            out.table_rows += plan.batch_rows;
        }
        state.writes.fetch_add(1, Ordering::Relaxed);
        let (row, value) = ingest_update(state.seed, seq, out.table_rows);
        let updated = engine
            .update_cells("g", row, &[amt], &[Value::Float(value)])
            .is_ok();
        state.writes.fetch_add(1, Ordering::Relaxed);
        let synced = sync_wal(engine.catalog());
        // Open loop: a stall delays every later send, so latency counts
        // from when the batch was due, not from when it got its turn.
        let ms = due.elapsed().as_secs_f64() * 1e3;
        out.ms.push(ms);
        if !(appended && updated && synced) {
            out.errors += 1;
        }
        // Without the sync nothing was acknowledged, whatever was applied.
        out.acks.push(WriteAck {
            seq,
            appended: appended && synced,
            updated: updated && synced,
        });
        out.next_seq += 1;
    }
    out
}

/// Run every client (and the writer, on `ingest`) for `len`.
pub fn run_round(
    svc: &QueryService<'_>,
    plan: &Plan,
    state: &mut LoadState,
    len: Duration,
) -> RoundOut {
    let t0 = Instant::now();
    let until = t0 + len;
    let shared: &LoadState = state;
    let (clients, written) = std::thread::scope(|scope| {
        let handles: Vec<_> = shared
            .cursors
            .iter()
            .map(|&cursor| scope.spawn(move || client(svc, shared, cursor, until)))
            .collect();
        let w = (plan.kind == Kind::Ingest)
            .then(|| scope.spawn(move || writer(svc, plan, shared, until)));
        let clients: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect();
        let written = w.map(|h| h.join().expect("writer panicked"));
        (clients, written)
    });
    let mut out = RoundOut {
        elapsed_s: t0.elapsed().as_secs_f64(),
        ..RoundOut::default()
    };
    for (cursor, c) in state.cursors.iter_mut().zip(clients) {
        *cursor = c.cursor;
        out.attempted += c.samples.len() as u64 + c.errors + c.shed;
        out.errors += c.errors;
        out.shed += c.shed;
        out.rows_queried += c.rows;
        out.query_ms.extend(c.samples.iter().map(|s| s.ms));
        out.samples.extend(c.samples);
    }
    out.query_ms.sort_by(f64::total_cmp);
    if let Some(w) = written {
        out.attempted += w.ms.len() as u64;
        out.write_errors = w.errors;
        out.writer_lag_ms = w.lag_ms;
        out.write_ms = w.ms;
        out.write_ms.sort_by(f64::total_cmp);
        state.next_seq = w.next_seq;
        state.table_rows = w.table_rows;
        state.acks.extend(w.acks);
    }
    out
}
