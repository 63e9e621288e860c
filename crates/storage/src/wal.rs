//! Write-ahead log: checksummed frames over a pluggable byte device.
//!
//! The paper's Table 4 shows INSERT-based materialization of `FV` beating
//! UPDATE-in-place by an order of magnitude when `|FV| ≈ |F|`. That asymmetry
//! comes from the DBMS write path: an UPDATE logs a before/after row image
//! and touches rows one at a time, while INSERT..SELECT appends in bulk. This
//! module reproduces the mechanism: updates serialize one record per row;
//! bulk inserts serialize whole row batches under one record header.
//!
//! Records are framed for crash safety:
//!
//! ```text
//! frame    := [len: u32 le] [crc32: u32 le] [payload]
//! payload  := [version: u8] [kind: u8] [lsn: u64 le] [name_len: u32 le] [name] [body]
//! ```
//!
//! `len` counts payload bytes; `crc32` (IEEE) covers the payload. Records
//! are self-describing — `CreateTable` carries the schema, `BulkInsert`
//! carries materialized row values (dictionary codes resolved) — so
//! [`scan_log`] can rebuild tables from bytes alone. A torn or corrupt
//! frame ends the valid prefix: recovery replays everything before it and
//! truncates the rest (truncate-tail policy).
//!
//! The bytes live in a [`LogStore`]: a bounded in-memory buffer by default
//! (recycled FIFO on frame boundaries, like a fixed set of log files), or a
//! real file via [`crate::log::FileLogStore`]. Total bytes and record
//! counts are tracked so benches and tests can assert on the work performed.
//!
//! Records are appended by one caller only: the `log_*` encoders are
//! crate-private and [`crate::Catalog::write`] is the function that calls
//! them, each time before it applies the change the record describes.

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::log::{LogStore, MemLogStore};
use crate::partial::{
    codec_err, put_dtype, put_f64, put_i64, put_string, put_u32, put_u64, put_value, Cursor,
};
use crate::retry::RetryPolicy;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::Value;
use pa_obs::{Counter, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::Arc;

/// On-disk format version stamped into every frame.
///
/// v2: `UpdateRow` carries the touched column indices interleaved with the
/// before/after images, so partial-column updates (the production write
/// paths log only the SET-clause columns) replay into the right columns.
///
/// v3: every record carries its log sequence number (LSN) so
/// checkpoint-aware recovery can skip records already captured by a
/// checkpoint image, and [`Wal::compact`] can truncate the log prefix a
/// checkpoint made redundant.
///
/// v4: adds the `TermBump` record kind — a monotonic replication
/// term/epoch written at promotion time, so a replica can refuse frames
/// shipped by a deposed primary (split-brain fencing) and recovery can
/// restore the term a catalog held when it crashed.
pub const FORMAT_VERSION: u8 = 4;

/// Byte offset of the LSN field inside a payload (after version + kind).
const LSN_OFFSET: usize = 2;

/// Frame header size: length word + checksum word.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame's payload: appends past it are refused at
/// write time, and scanned frames declaring more are treated as corruption
/// rather than allocated.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Default retained-log capacity: 64 MiB.
pub const DEFAULT_CAPACITY: usize = 64 << 20;

/// Retained bytes of the default *in-memory* log ([`Wal::default`], so
/// [`crate::Catalog::new`]): 16 MiB. What such a log retains is resident
/// memory and nothing else — it survives no crash — so a process's
/// footprint would otherwise grow by every byte its writes ever logged, up
/// to [`DEFAULT_CAPACITY`]. A log over a device keeps that constant.
const DEFAULT_MEM_CAPACITY: usize = 16 << 20;

/// Record kinds, tagged in the log stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// One batch of appended rows.
    BulkInsert = 1,
    /// One updated row (before + after images).
    UpdateRow = 2,
    /// Table created (payload carries the schema).
    CreateTable = 3,
    /// Table dropped.
    DropTable = 4,
    /// Replication term raised (payload carries the new term).
    TermBump = 5,
}

impl RecordKind {
    fn from_u8(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::BulkInsert),
            2 => Some(RecordKind::UpdateRow),
            3 => Some(RecordKind::CreateTable),
            4 => Some(RecordKind::DropTable),
            5 => Some(RecordKind::TermBump),
            _ => None,
        }
    }
}

/// Counters describing the work the log has absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since creation.
    pub records: u64,
    /// Frame bytes serialized since creation (monotonic, not buffer size).
    pub bytes_written: u64,
    /// Appends refused by the log device (the in-memory state proceeds;
    /// the loss surfaces at recovery, as on a real sick disk).
    pub write_errors: u64,
    /// Transient device errors absorbed by the retry policy (the append
    /// eventually succeeded; without retries these would be write errors).
    pub retries: u64,
}

/// What one write put in the log — per call, so a caller never has to
/// difference [`WalStats`] snapshots that other writers move too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteReceipt {
    /// LSN of the last record the write appended (0: nothing was logged).
    pub lsn: u64,
    /// Records appended.
    pub records: u64,
    /// Frame bytes appended (header + payload).
    pub bytes: u64,
    /// Rows the written table holds afterwards (0 for a drop or a term).
    pub rows: u64,
}

impl std::ops::AddAssign for WriteReceipt {
    fn add_assign(&mut self, later: WriteReceipt) {
        self.lsn = self.lsn.max(later.lsn);
        self.records += later.records;
        self.bytes += later.bytes;
    }
}

/// The rows of an append, in whichever form the caller already holds.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Row-major values: `append_rows`, a shipped or replayed `BulkInsert`.
    Values(&'a [Vec<Value>]),
    /// An already columnar source — `INSERT .. SELECT`, the rows a table
    /// is created with. Logged cell by cell off the columns; nothing
    /// converts it to values first.
    Table(&'a Table),
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::Values(rows) => rows.len(),
            Rows::Table(t) => t.num_rows(),
        }
    }
}

// ---- CRC32 (IEEE 802.3, reflected) ---------------------------------------

/// Slicing-by-8 tables: `TABLES[t][b]` is the CRC contribution of byte `b`
/// sitting `t` positions deep in an 8-byte window, so eight bytes fold in
/// one step instead of eight dependent table lookups. Multi-megabyte
/// checkpoint images make the checksum a measurable slice of recovery; the
/// classic per-byte loop tops out near 400 MB/s while this runs in the
/// gigabytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC32 of `data` (reflected, 802.3 polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

// ---- payload codec -------------------------------------------------------

/// `put_value(buf, &col.get(row))` without materializing the [`Value`]
/// (for a string cell: without the refcount round trip on its `Arc`).
fn put_cell(buf: &mut Vec<u8>, col: &Column, row: usize) {
    if !col.is_valid(row) {
        return buf.push(0);
    }
    match col {
        Column::Int { data, .. } => {
            buf.push(1);
            put_i64(buf, data[row]);
        }
        Column::Float { data, .. } => {
            buf.push(2);
            put_f64(buf, data[row]);
        }
        Column::Str { dict, codes, .. } => {
            buf.push(3);
            put_string(buf, dict.resolve(codes[row]));
        }
    }
}

/// One decoded log record, self-contained enough to replay.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Create (or replace) a table with this schema.
    CreateTable {
        /// Table name.
        name: String,
        /// Full column schema.
        schema: Schema,
    },
    /// Drop a table.
    DropTable {
        /// Table name.
        name: String,
    },
    /// Append these rows (values materialized, dictionary codes resolved).
    BulkInsert {
        /// Table name.
        name: String,
        /// Appended rows, row-major.
        rows: Vec<Vec<Value>>,
    },
    /// Overwrite the listed columns of one row in place. `cols`, `before`
    /// and `after` are parallel: `after[i]` replaces column `cols[i]`, whose
    /// prior value was `before[i]`. Updates touch only the SET-clause
    /// columns, so the record names them explicitly instead of assuming
    /// full-row images.
    UpdateRow {
        /// Table name.
        name: String,
        /// Target row index.
        row: u64,
        /// Touched column indices, parallel to `before`/`after`.
        cols: Vec<u32>,
        /// Images of the touched columns before the update.
        before: Vec<Value>,
        /// Images of the touched columns after the update.
        after: Vec<Value>,
    },
    /// The replication term was raised to `term`. Written when a node is
    /// promoted to primary; replicas refuse streams whose term regresses
    /// (split-brain fencing), and recovery restores the largest term seen.
    TermBump {
        /// The new (strictly larger) term.
        term: u64,
    },
}

impl WalRecord {
    /// The table this record concerns (empty for table-less records such
    /// as [`WalRecord::TermBump`]).
    pub fn table_name(&self) -> &str {
        match self {
            WalRecord::CreateTable { name, .. }
            | WalRecord::DropTable { name }
            | WalRecord::BulkInsert { name, .. }
            | WalRecord::UpdateRow { name, .. } => name,
            WalRecord::TermBump { .. } => "",
        }
    }
}

fn decode_payload(payload: &[u8]) -> Result<(u64, WalRecord)> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != FORMAT_VERSION {
        return Err(codec_err(format!("unsupported format version {version}")));
    }
    let kind = c.u8()?;
    let kind = RecordKind::from_u8(kind)
        .ok_or_else(|| codec_err(format!("unknown record kind {kind}")))?;
    let lsn = c.u64()?;
    let name = c.string()?;
    let record = match kind {
        RecordKind::CreateTable => {
            let ncols = c.u32()? as usize;
            let mut fields = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let fname = c.string()?;
                let dtype = c.dtype()?;
                fields.push(Field::new(fname, dtype));
            }
            let schema = Schema::new(fields).map_err(|e| codec_err(format!("bad schema: {e}")))?;
            WalRecord::CreateTable { name, schema }
        }
        RecordKind::DropTable => WalRecord::DropTable { name },
        RecordKind::BulkInsert => {
            let nrows = c.u64()? as usize;
            let ncols = c.u32()? as usize;
            if nrows
                .checked_mul(ncols)
                .is_none_or(|cells| cells > payload.len())
            {
                return Err(codec_err(format!(
                    "implausible bulk insert: {nrows} x {ncols} cells"
                )));
            }
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let mut row = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    row.push(c.value()?);
                }
                rows.push(row);
            }
            WalRecord::BulkInsert { name, rows }
        }
        RecordKind::UpdateRow => {
            let row = c.u64()?;
            let ncols = c.u32()? as usize;
            if ncols > payload.len() {
                return Err(codec_err(format!("implausible update arity {ncols}")));
            }
            let mut cols = Vec::with_capacity(ncols);
            let mut before = Vec::with_capacity(ncols);
            let mut after = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                cols.push(c.u32()?);
                before.push(c.value()?);
                after.push(c.value()?);
            }
            WalRecord::UpdateRow {
                name,
                row,
                cols,
                before,
                after,
            }
        }
        RecordKind::TermBump => WalRecord::TermBump { term: c.u64()? },
    };
    c.finish()?;
    Ok((lsn, record))
}

/// Result of scanning raw log bytes for valid frames.
#[derive(Debug)]
pub struct LogScan {
    /// Records decoded from the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix (everything after is torn or
    /// corrupt and must be truncated).
    pub valid_len: u64,
    /// Total bytes presented for scanning.
    pub total_len: u64,
    /// Why scanning stopped before the end, if it did.
    pub corruption: Option<String>,
    /// Byte size of each valid frame, in log order (header included).
    pub frame_lens: Vec<u64>,
    /// LSN of each valid frame, parallel to `frame_lens` / `records`.
    pub lsns: Vec<u64>,
}

impl LogScan {
    /// The LSN the next append should use: one past the largest scanned
    /// LSN, or `floor` (the checkpoint's LSN, when recovering from one)
    /// if that is larger or the log is empty.
    pub fn next_lsn(&self, floor: u64) -> u64 {
        self.lsns
            .iter()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(floor)
            .max(floor)
    }
}

/// Decode frames from `data` until the end or the first torn / corrupt
/// frame (truncate-tail policy: nothing after a bad frame is trusted).
pub fn scan_log(data: &[u8]) -> LogScan {
    let mut records = Vec::new();
    let mut frame_lens = Vec::new();
    let mut lsns = Vec::new();
    let mut pos = 0usize;
    let mut corruption = None;
    while pos < data.len() {
        let remaining = data.len() - pos;
        if remaining < FRAME_HEADER {
            corruption = Some(format!(
                "torn frame header at offset {pos}: {remaining} of {FRAME_HEADER} bytes"
            ));
            break;
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            corruption = Some(format!("implausible frame length {len} at offset {pos}"));
            break;
        }
        let body_start = pos + FRAME_HEADER;
        let body_end = body_start + len as usize;
        if body_end > data.len() {
            corruption = Some(format!(
                "torn frame at offset {pos}: declared {len} payload bytes, {} available",
                data.len() - body_start
            ));
            break;
        }
        let payload = &data[body_start..body_end];
        let actual_crc = crc32(payload);
        if actual_crc != crc {
            corruption = Some(format!(
                "checksum mismatch at offset {pos}: stored {crc:#010x}, computed {actual_crc:#010x}"
            ));
            break;
        }
        match decode_payload(payload) {
            Ok((lsn, record)) => {
                records.push(record);
                lsns.push(lsn);
            }
            Err(why) => {
                corruption = Some(format!("undecodable record at offset {pos}: {why}"));
                break;
            }
        }
        frame_lens.push((body_end - pos) as u64);
        pos = body_end;
    }
    LogScan {
        records,
        valid_len: pos as u64,
        total_len: data.len() as u64,
        corruption,
        frame_lens,
        lsns,
    }
}

// ---- the WAL -------------------------------------------------------------

/// Counter handles mirroring [`WalStats`] into a [`MetricsRegistry`], so
/// the service's Prometheus endpoint sees absorbed retries and write errors
/// without polling every catalog's WAL.
#[derive(Debug)]
struct WalMetrics {
    records: Arc<Counter>,
    bytes: Arc<Counter>,
    write_errors: Arc<Counter>,
    retries: Arc<Counter>,
}

impl WalMetrics {
    fn register(registry: &MetricsRegistry) -> WalMetrics {
        WalMetrics {
            records: registry.counter("pa_storage_wal_records_total", "WAL records appended"),
            bytes: registry.counter(
                "pa_storage_wal_bytes_total",
                "WAL frame bytes appended (header + payload)",
            ),
            write_errors: registry.counter(
                "pa_storage_wal_write_errors_total",
                "WAL appends lost after exhausting retries (or refused)",
            ),
            retries: registry.counter(
                "pa_storage_wal_retries_total",
                "Transient WAL append errors absorbed by the retry policy",
            ),
        }
    }
}

/// Write-ahead log: framed, checksummed records over a [`LogStore`].
#[derive(Debug)]
pub struct Wal {
    store: Box<dyn LogStore>,
    capacity: usize,
    enabled: bool,
    stats: WalStats,
    record_latency: std::time::Duration,
    /// Retained frames, oldest first, as `(lsn, byte size)` pairs, so both
    /// recycling and checkpoint compaction cut on frame boundaries and the
    /// retained log always starts at a frame.
    frames: VecDeque<(u64, u64)>,
    /// Byte size of `frames` summed, kept beside it: a log of per-row
    /// update records retains ~10^5 frames, too many to add up per append.
    retained: u64,
    /// LSN the next appended record will carry. Starts at 1 so LSN 0 can
    /// mean "before everything" (the no-checkpoint floor).
    next_lsn: u64,
    /// Retry policy for transient device errors on the append path.
    retry: RetryPolicy,
    /// Registered counter handles, when a registry is attached.
    metrics: Option<WalMetrics>,
}

impl Default for Wal {
    fn default() -> Self {
        Wal::new(DEFAULT_MEM_CAPACITY)
    }
}

impl Wal {
    /// In-memory log retaining at most `capacity` buffered bytes.
    pub fn new(capacity: usize) -> Wal {
        Wal::with_store(Box::new(MemLogStore::new()), capacity)
    }

    /// Log over any byte device, retaining at most `capacity` bytes.
    pub fn with_store(store: Box<dyn LogStore>, capacity: usize) -> Wal {
        Wal {
            store,
            capacity,
            enabled: true,
            stats: WalStats::default(),
            record_latency: std::time::Duration::ZERO,
            frames: VecDeque::new(),
            retained: 0,
            next_lsn: 1,
            retry: RetryPolicy::default(),
            metrics: None,
        }
    }

    /// A no-op log (ablation: "WAL off").
    pub fn disabled() -> Wal {
        Wal {
            store: Box::new(MemLogStore::new()),
            capacity: 0,
            enabled: false,
            stats: WalStats::default(),
            record_latency: std::time::Duration::ZERO,
            frames: VecDeque::new(),
            retained: 0,
            next_lsn: 1,
            retry: RetryPolicy::none(),
            metrics: None,
        }
    }

    /// Resume logging onto a store whose valid prefix was just recovered:
    /// `frames` are the retained `(lsn, byte size)` pairs, `stats` the
    /// counters carried over from the scan, `next_lsn` one past the
    /// largest recovered LSN (checkpoint floor included).
    pub(crate) fn resume(
        store: Box<dyn LogStore>,
        capacity: usize,
        stats: WalStats,
        frames: VecDeque<(u64, u64)>,
        next_lsn: u64,
    ) -> Wal {
        Wal {
            store,
            capacity,
            enabled: true,
            stats,
            record_latency: std::time::Duration::ZERO,
            retained: frames.iter().map(|&(_, len)| len).sum(),
            frames,
            next_lsn: next_lsn.max(1),
            retry: RetryPolicy::default(),
            metrics: None,
        }
    }

    /// Simulate a log device that forces every record to stable storage
    /// with the given latency (spin-wait per record). The papers ran on a
    /// disk-based DBMS whose per-row UPDATE logging paid exactly this; the
    /// in-memory engine exposes it as an explicit, opt-in simulation so
    /// the INSERT-vs-UPDATE asymmetry of SIGMOD Table 4 can be studied at
    /// any assumed device speed. Zero (the default) disables it.
    pub fn set_record_latency(&mut self, latency: std::time::Duration) {
        self.record_latency = latency;
    }

    /// Whether records are being written.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Replace the transient-error retry policy on the append path
    /// ([`RetryPolicy::none`] restores fail-fast semantics).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The active transient-error retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Work counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Mirror this log's counters into `registry` (Prometheus names
    /// `pa_storage_wal_*`). Counters are cumulative across every WAL that
    /// attaches to the same registry; increments happen on the append path
    /// alongside [`WalStats`], one relaxed atomic each.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(WalMetrics::register(registry));
    }

    /// Bytes currently retained by the store.
    pub fn retained_bytes(&mut self) -> Result<u64> {
        self.store.len()
    }

    /// A copy of the retained log bytes — e.g. a crash image for recovery
    /// tests.
    pub fn snapshot(&mut self) -> Result<Vec<u8>> {
        self.store.read_all()
    }

    /// Force buffered bytes to the device.
    pub fn sync(&mut self) -> Result<()> {
        self.store.sync()
    }

    /// Frame `payload` and append it. On store failure the record is lost
    /// (counted in `write_errors`) and the error propagates. Payloads past
    /// [`MAX_FRAME_LEN`] are refused at write time — `scan_log` would treat
    /// such a frame as corruption and truncate it plus everything after it,
    /// so letting one through would poison the log tail.
    fn append_payload(&mut self, mut payload: Vec<u8>) -> Result<WriteReceipt> {
        if payload.len() > MAX_FRAME_LEN as usize {
            self.stats.write_errors += 1;
            if let Some(m) = &self.metrics {
                m.write_errors.inc();
            }
            return Err(StorageError::Wal(format!(
                "record payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit",
                payload.len()
            )));
        }
        // Stamp this record's LSN over the placeholder the header writer
        // left, before the checksum is computed.
        let lsn = self.next_lsn;
        if payload.len() >= LSN_OFFSET + 8 {
            payload[LSN_OFFSET..LSN_OFFSET + 8].copy_from_slice(&lsn.to_le_bytes());
        }
        // The header goes in front of the payload in place: a second
        // buffer the size of a bulk insert costs more than the shift.
        let mut header = [0u8; FRAME_HEADER];
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(&payload).to_le_bytes());
        payload.splice(..0, header);
        let frame = payload;

        // Whole-frame appends are safe to retry: a transient error means the
        // device refused the operation before accepting bytes, so the retry
        // writes the identical frame, never a duplicate prefix. Permanent
        // errors (offline device, short append) fail fast with the original
        // typed error.
        let store = &mut self.store;
        let (outcome, retries) = self.retry.run_counted(&mut || match store.append(&frame) {
            Ok(n) if n == frame.len() => Ok(()),
            Ok(n) => Err(StorageError::Wal(format!(
                "short append: {n} of {} frame bytes persisted",
                frame.len()
            ))),
            Err(e) => Err(e),
        });
        self.stats.retries += u64::from(retries);
        if let Some(m) = &self.metrics {
            m.retries.add(u64::from(retries));
        }
        if let Err(e) = outcome {
            self.stats.write_errors += 1;
            if let Some(m) = &self.metrics {
                m.write_errors.inc();
            }
            return Err(e);
        }
        self.frames.push_back((lsn, frame.len() as u64));
        self.retained += frame.len() as u64;
        self.next_lsn = lsn + 1;
        self.stats.records += 1;
        self.stats.bytes_written += frame.len() as u64;
        if let Some(m) = &self.metrics {
            m.records.inc();
            m.bytes.add(frame.len() as u64);
        }

        if !self.record_latency.is_zero() {
            // Spin-wait: simulated forced write of this record.
            let t0 = std::time::Instant::now();
            while t0.elapsed() < self.record_latency {
                std::hint::spin_loop();
            }
        }
        self.recycle()?;
        Ok(WriteReceipt {
            lsn,
            records: 1,
            bytes: frame.len() as u64,
            rows: 0,
        })
    }

    /// Recycle: drop oldest whole frames once retained bytes exceed
    /// capacity, down to half capacity (like rotating a fixed set of log
    /// files). The newest frame is never dropped.
    fn recycle(&mut self) -> Result<()> {
        if self.retained <= self.capacity as u64 {
            return Ok(());
        }
        let target = (self.capacity / 2) as u64;
        let mut cut = 0u64;
        while self.retained > target && self.frames.len() > 1 {
            let (_, oldest) = self.frames.pop_front().expect("len checked > 1");
            cut += oldest;
            self.retained -= oldest;
        }
        if cut > 0 {
            self.store.discard_front(cut)?;
        }
        Ok(())
    }

    /// The LSN the next appended record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Drop every retained frame whose LSN is below `upto_lsn` — the
    /// prefix a checkpoint at `upto_lsn` made redundant. Unlike
    /// [`Wal::recycle`] this may empty the log entirely (the checkpoint
    /// image carries the state). Returns the number of bytes discarded.
    pub fn compact(&mut self, upto_lsn: u64) -> Result<u64> {
        let mut cut = 0u64;
        while let Some(&(lsn, len)) = self.frames.front() {
            if lsn >= upto_lsn {
                break;
            }
            self.frames.pop_front();
            cut += len;
        }
        self.retained -= cut;
        if cut > 0 {
            self.store.discard_front(cut)?;
        }
        Ok(cut)
    }

    fn payload_header(kind: RecordKind, name: &str) -> Vec<u8> {
        let mut payload = Vec::with_capacity(24 + name.len());
        payload.push(FORMAT_VERSION);
        payload.push(kind as u8);
        put_u64(&mut payload, 0); // LSN placeholder, stamped at append time
        put_string(&mut payload, name);
        payload
    }

    /// Log a table creation, capturing the schema for replay.
    pub(crate) fn log_create_table(&mut self, name: &str, schema: &Schema) -> Result<WriteReceipt> {
        if !self.enabled {
            return Ok(WriteReceipt::default());
        }
        let mut payload = Self::payload_header(RecordKind::CreateTable, name);
        put_u32(&mut payload, schema.len() as u32);
        for field in schema.fields() {
            put_string(&mut payload, &field.name);
            put_dtype(&mut payload, field.dtype);
        }
        self.append_payload(payload)
    }

    /// Log a table drop.
    pub(crate) fn log_drop_table(&mut self, name: &str) -> Result<WriteReceipt> {
        if !self.enabled {
            return Ok(WriteReceipt::default());
        }
        let payload = Self::payload_header(RecordKind::DropTable, name);
        self.append_payload(payload)
    }

    /// Log a batch of `rows` bound for `target`: one record header, the
    /// whole batch as its payload (the cheap bulk path). `rows` must
    /// already be validated against `target`; each cell is written as the
    /// value `target`'s column will hold, so an `Int` bound for a `Float`
    /// column is logged as the float it widens to and both sources of the
    /// same rows encode the same bytes.
    pub(crate) fn log_bulk_insert(
        &mut self,
        name: &str,
        rows: Rows<'_>,
        target: &Table,
    ) -> Result<WriteReceipt> {
        if !self.enabled {
            return Ok(WriteReceipt::default());
        }
        let (n, ncols) = (rows.len(), target.num_columns());
        let mut payload = Self::payload_header(RecordKind::BulkInsert, name);
        // Tag + 8 bytes is every numeric cell and most dictionary strings:
        // one allocation for the usual batch instead of a doubling series.
        payload.reserve(FRAME_HEADER + 12 + n * ncols * 9);
        put_u64(&mut payload, n as u64);
        put_u32(&mut payload, ncols as u32);
        match rows {
            Rows::Table(source) => {
                for row in 0..n {
                    for col in source.columns() {
                        put_cell(&mut payload, col, row);
                    }
                }
            }
            Rows::Values(rows) => {
                for row in rows {
                    for (col, value) in target.columns().iter().zip(row) {
                        match (col, value) {
                            (Column::Float { .. }, Value::Int(i)) => {
                                put_value(&mut payload, &Value::Float(*i as f64))
                            }
                            _ => put_value(&mut payload, value),
                        }
                    }
                }
            }
        }
        self.append_payload(payload)
    }

    /// Log one in-place row update with before and after images of the
    /// touched columns (the expensive per-row path). `cols`, `before` and
    /// `after` must be parallel: `after[i]` replaces column `cols[i]`.
    pub(crate) fn log_update(
        &mut self,
        name: &str,
        row: usize,
        cols: &[usize],
        before: &[Value],
        after: &[Value],
    ) -> Result<WriteReceipt> {
        if !self.enabled {
            return Ok(WriteReceipt::default());
        }
        if cols.len() != before.len() || cols.len() != after.len() {
            return Err(StorageError::Wal(format!(
                "update image arity mismatch: {} columns, {} before, {} after",
                cols.len(),
                before.len(),
                after.len()
            )));
        }
        let mut payload = Self::payload_header(RecordKind::UpdateRow, name);
        put_u64(&mut payload, row as u64);
        put_u32(&mut payload, cols.len() as u32);
        for ((&col, b), a) in cols.iter().zip(before).zip(after) {
            put_u32(&mut payload, col as u32);
            put_value(&mut payload, b);
            put_value(&mut payload, a);
        }
        self.append_payload(payload)
    }

    /// Log a replication-term raise (promotion fencing; see
    /// [`WalRecord::TermBump`]).
    pub(crate) fn log_term_bump(&mut self, term: u64) -> Result<WriteReceipt> {
        if !self.enabled {
            return Ok(WriteReceipt::default());
        }
        let mut payload = Self::payload_header(RecordKind::TermBump, "");
        put_u64(&mut payload, term);
        self.append_payload(payload)
    }

    /// Oldest LSN still retained by the log, `None` when no frames are
    /// retained (empty, recycled, or compacted away).
    pub fn oldest_retained_lsn(&self) -> Option<u64> {
        self.frames.front().map(|&(lsn, _)| lsn)
    }

    /// Copy every retained frame with LSN `>= from_lsn`, header included,
    /// for shipping to a replica. Returns `None` when the request reaches
    /// below the retained window (the prefix was recycled or compacted
    /// away) — the caller must bootstrap from a checkpoint image instead.
    /// `Some(vec![])` means the replica is already caught up.
    pub fn ship_since(&mut self, from_lsn: u64) -> Result<Option<Vec<ShippedFrame>>> {
        let Some(&(oldest, _)) = self.frames.front() else {
            // Nothing retained: fine if the caller is at (or past) the next
            // LSN, otherwise the history it needs is gone.
            return Ok((from_lsn >= self.next_lsn).then(Vec::new));
        };
        if from_lsn < oldest {
            return Ok(None);
        }
        let data = self.store.read_all()?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        for &(lsn, len) in &self.frames {
            let end = pos + len as usize;
            if end > data.len() {
                return Err(StorageError::Wal(format!(
                    "retained frame index runs past the store: frame at lsn {lsn} \
                     ends at byte {end}, store holds {}",
                    data.len()
                )));
            }
            if lsn >= from_lsn {
                out.push(ShippedFrame {
                    lsn,
                    bytes: data[pos..end].to_vec(),
                });
            }
            pos = end;
        }
        Ok(Some(out))
    }
}

/// One WAL frame copied out for replication: the full frame bytes
/// (length + checksum header included, so the replica re-verifies the CRC
/// on apply) plus the LSN the primary recorded for it. The LSN rides
/// outside the bytes purely as transport metadata — the replica trusts
/// only the LSN it decodes from the checksummed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedFrame {
    /// LSN the primary stamped into this frame.
    pub lsn: u64,
    /// The whole frame: `[len][crc32][payload]`.
    pub bytes: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn log_table(wal: &mut Wal, name: &str, t: &Table) -> Result<WriteReceipt> {
        wal.log_bulk_insert(name, Rows::Table(t), t)
    }

    fn small_table(rows: usize) -> Table {
        let schema = Schema::from_pairs(&[("d", DataType::Int), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        let mut t = Table::empty(schema);
        for i in 0..rows {
            t.push_row(&[Value::Int(i as i64), Value::Float(i as f64)])
                .unwrap();
        }
        t
    }

    #[test]
    fn bulk_insert_is_one_record() {
        let mut wal = Wal::default();
        let t = small_table(100);
        log_table(&mut wal, "t", &t).unwrap();
        assert_eq!(wal.stats().records, 1);
        assert!(wal.stats().bytes_written > 100 * 8);
    }

    #[test]
    fn attached_registry_mirrors_wal_counters() {
        use crate::fault::{FaultInjector, FaultPlan};
        let reg = MetricsRegistry::new();
        let plan = FaultPlan {
            error_on_op: Some(0),
            ..FaultPlan::default()
        };
        let store = FaultInjector::new(MemLogStore::new(), plan);
        let mut wal = Wal::with_store(Box::new(store), DEFAULT_CAPACITY);
        wal.set_retry_policy(RetryPolicy {
            base_delay: std::time::Duration::ZERO,
            max_delay: std::time::Duration::ZERO,
            ..RetryPolicy::seeded(1)
        });
        wal.attach_metrics(&reg);
        log_table(&mut wal, "t", &small_table(5)).unwrap();
        wal.log_update("t", 0, &[0], &[Value::Int(0)], &[Value::Int(9)])
            .unwrap();
        let stats = wal.stats();
        let text = reg.render();
        assert!(text.contains(&format!("pa_storage_wal_records_total {}", stats.records)));
        assert!(text.contains(&format!(
            "pa_storage_wal_bytes_total {}",
            stats.bytes_written
        )));
        assert!(
            text.contains(&format!("pa_storage_wal_retries_total {}", stats.retries)),
            "absorbed retry is visible: {text}"
        );
        assert!(stats.retries >= 1, "the injected hiccup was retried");
        assert!(text.contains("pa_storage_wal_write_errors_total 0"));
    }

    #[test]
    fn updates_are_one_record_per_row() {
        let mut wal = Wal::default();
        for row in 0..50 {
            wal.log_update("t", row, &[0], &[Value::Int(1)], &[Value::Float(0.5)])
                .unwrap();
        }
        assert_eq!(wal.stats().records, 50);
    }

    #[test]
    fn per_row_updates_cost_more_bytes_than_bulk_for_same_rows() {
        let t = small_table(1000);
        let mut bulk = Wal::default();
        log_table(&mut bulk, "t", &t).unwrap();

        let mut upd = Wal::default();
        for row in 0..1000 {
            let img = t.row(row).unwrap();
            upd.log_update("t", row, &[0, 1], &img, &img).unwrap();
        }
        assert!(
            upd.stats().bytes_written > bulk.stats().bytes_written,
            "update logging ({}) must exceed bulk logging ({})",
            upd.stats().bytes_written,
            bulk.stats().bytes_written
        );
        assert_eq!(upd.stats().records, 1000);
        assert_eq!(bulk.stats().records, 1);
    }

    #[test]
    fn transient_append_error_is_absorbed_by_retry() {
        use crate::fault::{FaultInjector, FaultPlan};
        let plan = FaultPlan {
            error_on_op: Some(0),
            ..FaultPlan::default()
        };
        let store = FaultInjector::new(MemLogStore::new(), plan);
        let mut wal = Wal::with_store(Box::new(store), DEFAULT_CAPACITY);
        wal.set_retry_policy(RetryPolicy {
            base_delay: std::time::Duration::ZERO,
            max_delay: std::time::Duration::ZERO,
            ..RetryPolicy::seeded(1)
        });
        log_table(&mut wal, "t", &small_table(5)).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.records, 1, "the append eventually landed");
        assert_eq!(stats.write_errors, 0, "the hiccup never surfaced");
        assert_eq!(stats.retries, 1, "one absorbed retry");
    }

    #[test]
    fn permanent_append_error_fails_fast_with_the_typed_error() {
        use crate::fault::{FaultInjector, FaultPlan};
        let plan = FaultPlan {
            torn_write_at: Some(0), // first append tears → device offline
            ..FaultPlan::default()
        };
        let store = FaultInjector::new(MemLogStore::new(), plan);
        let mut wal = Wal::with_store(Box::new(store), DEFAULT_CAPACITY);
        let err = log_table(&mut wal, "t", &small_table(5)).unwrap_err();
        assert!(
            matches!(err, StorageError::Io(_)) && !err.is_transient(),
            "permanent corruption keeps its typed error: {err}"
        );
        assert_eq!(wal.stats().write_errors, 1);
        assert_eq!(wal.stats().retries, 0, "no retry against a dead device");
    }

    #[test]
    fn retry_policy_round_trips() {
        let mut wal = Wal::default();
        assert_eq!(wal.retry_policy(), RetryPolicy::default());
        wal.set_retry_policy(RetryPolicy::none());
        assert_eq!(wal.retry_policy(), RetryPolicy::none());
        assert_eq!(
            Wal::disabled().retry_policy(),
            RetryPolicy::none(),
            "a disabled log never sleeps"
        );
    }

    #[test]
    fn disabled_wal_counts_nothing() {
        let mut wal = Wal::disabled();
        let t = small_table(10);
        log_table(&mut wal, "t", &t).unwrap();
        wal.log_update("t", 0, &[0], &[Value::Int(1)], &[Value::Int(2)])
            .unwrap();
        assert_eq!(wal.stats(), WalStats::default());
    }

    #[test]
    fn record_latency_simulation_slows_per_record() {
        let mut wal = Wal::default();
        wal.set_record_latency(std::time::Duration::from_micros(200));
        let t0 = std::time::Instant::now();
        for row in 0..20 {
            wal.log_update("t", row, &[0], &[Value::Int(1)], &[Value::Int(2)])
                .unwrap();
        }
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(4),
            "20 records × 200µs ≥ 4ms, got {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn values_and_columns_of_the_same_rows_log_the_same_bytes() {
        // NULLs, a dictionary string, and an Int bound for the Float
        // column: logged as the float the column will hold.
        let schema = Schema::from_pairs(&[("s", DataType::Str), ("a", DataType::Float)])
            .unwrap()
            .into_shared();
        let rows = [
            vec![Value::str("CA"), Value::Int(3)],
            vec![Value::Null, Value::Float(0.5)],
            vec![Value::str("höuston"), Value::Null],
        ];
        let target = Table::empty(schema.clone());
        let mut columnar = Table::empty(schema);
        columnar.push_rows(&rows).unwrap();

        let (mut by_value, mut by_column) = (Wal::default(), Wal::default());
        let receipt = by_value
            .log_bulk_insert("t", Rows::Values(&rows), &target)
            .unwrap();
        log_table(&mut by_column, "t", &columnar).unwrap();
        let bytes = by_value.snapshot().unwrap();
        assert_eq!(bytes, by_column.snapshot().unwrap());
        assert_eq!(
            (receipt.lsn, receipt.records, receipt.bytes),
            (1, 1, bytes.len() as u64),
            "the receipt is what this append put in the log"
        );
        match &scan_log(&bytes).records[0] {
            WalRecord::BulkInsert { rows, .. } => assert_eq!(rows[0][1], Value::Float(3.0)),
            other => panic!("expected BulkInsert, got {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip_through_scan() {
        let mut wal = Wal::default();
        let t = small_table(3);
        wal.log_create_table("t", t.schema()).unwrap();
        log_table(&mut wal, "t", &t).unwrap();
        wal.log_update(
            "t",
            1,
            &[0, 1],
            &[Value::Int(1), Value::Float(1.0)],
            &[Value::Int(9), Value::Null],
        )
        .unwrap();
        wal.log_drop_table("t").unwrap();

        let scan = scan_log(&wal.snapshot().unwrap());
        assert!(scan.corruption.is_none(), "{:?}", scan.corruption);
        assert_eq!(scan.valid_len, scan.total_len);
        assert_eq!(scan.records.len(), 4);
        match &scan.records[0] {
            WalRecord::CreateTable { name, schema } => {
                assert_eq!(name, "t");
                assert_eq!(schema, t.schema().as_ref());
            }
            other => panic!("expected CreateTable, got {other:?}"),
        }
        match &scan.records[1] {
            WalRecord::BulkInsert { rows, .. } => {
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[2], vec![Value::Int(2), Value::Float(2.0)]);
            }
            other => panic!("expected BulkInsert, got {other:?}"),
        }
        match &scan.records[2] {
            WalRecord::UpdateRow {
                row, cols, after, ..
            } => {
                assert_eq!(*row, 1);
                assert_eq!(cols, &vec![0, 1]);
                assert_eq!(after, &vec![Value::Int(9), Value::Null]);
            }
            other => panic!("expected UpdateRow, got {other:?}"),
        }
        assert_eq!(scan.records[3], WalRecord::DropTable { name: "t".into() });
    }

    #[test]
    fn torn_tail_stops_scan_at_last_whole_frame() {
        let mut wal = Wal::default();
        wal.log_update("t", 0, &[0], &[Value::Int(1)], &[Value::Int(2)])
            .unwrap();
        wal.log_update("t", 1, &[0], &[Value::Int(3)], &[Value::Int(4)])
            .unwrap();
        let bytes = wal.snapshot().unwrap();
        let first_frame = (wal.stats().bytes_written / 2) as usize;

        for cut in [bytes.len() - 1, first_frame + 5, first_frame + 9] {
            let scan = scan_log(&bytes[..cut]);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len as usize, first_frame);
            assert!(scan.corruption.is_some());
        }
        // Cutting inside the first frame leaves nothing valid.
        let scan = scan_log(&bytes[..first_frame - 1]);
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn checksum_failure_stops_scan() {
        let mut wal = Wal::default();
        wal.log_update("t", 0, &[0], &[Value::Int(1)], &[Value::Int(2)])
            .unwrap();
        wal.log_update("t", 1, &[0], &[Value::Int(3)], &[Value::Int(4)])
            .unwrap();
        let mut bytes = wal.snapshot().unwrap();
        let second_frame_payload = (wal.stats().bytes_written / 2) as usize + FRAME_HEADER;
        bytes[second_frame_payload + 3] ^= 0x40; // flip a bit in frame 2

        let scan = scan_log(&bytes);
        assert_eq!(scan.records.len(), 1, "only the intact frame survives");
        assert!(
            scan.corruption.as_deref().unwrap().contains("checksum"),
            "{:?}",
            scan.corruption
        );
        assert!(scan.valid_len < scan.total_len);
    }

    #[test]
    fn recycling_keeps_frame_boundaries_and_monotonic_stats() {
        let mut wal = Wal::new(4096);
        let t = small_table(16);
        let mut last_bytes = 0;
        for i in 0..100 {
            log_table(&mut wal, "t", &t).unwrap();
            let stats = wal.stats();
            assert_eq!(stats.records, i + 1, "records stay monotonic");
            assert!(stats.bytes_written > last_bytes, "bytes stay monotonic");
            last_bytes = stats.bytes_written;
        }
        assert!(
            wal.retained_bytes().unwrap() <= 4096,
            "retained window bounded: {}",
            wal.retained_bytes().unwrap()
        );
        // The retained log still parses cleanly from its first byte.
        let scan = scan_log(&wal.snapshot().unwrap());
        assert!(scan.corruption.is_none(), "{:?}", scan.corruption);
        assert!(!scan.records.is_empty());
        assert_eq!(scan.valid_len, scan.total_len);
    }

    #[test]
    fn oversized_single_frame_is_never_dropped() {
        let mut wal = Wal::new(64); // capacity smaller than one frame
        let t = small_table(32);
        log_table(&mut wal, "t", &t).unwrap();
        let scan = scan_log(&wal.snapshot().unwrap());
        assert_eq!(scan.records.len(), 1, "newest frame survives recycling");
    }

    #[test]
    fn update_images_round_trip_at_size_extremes() {
        // Zero-column (no-op), single-column partial, and 64-column-wide
        // updates all round trip, carrying their column indices; the column
        // set need not start at 0 or be contiguous.
        let wide: Vec<Value> = (0..64).map(Value::Int).collect();
        let wide_cols: Vec<usize> = (0..64).collect();
        let mut wal = Wal::default();
        wal.log_update("t", 0, &[], &[], &[]).unwrap();
        wal.log_update("t", 1, &[5], &[Value::Int(1)], &[Value::Int(2)])
            .unwrap();
        wal.log_update("t", 3, &wide_cols, &wide, &wide).unwrap();

        let scan = scan_log(&wal.snapshot().unwrap());
        assert!(scan.corruption.is_none(), "{:?}", scan.corruption);
        let images: Vec<(Vec<u32>, usize, usize)> = scan
            .records
            .iter()
            .map(|r| match r {
                WalRecord::UpdateRow {
                    cols,
                    before,
                    after,
                    ..
                } => (cols.clone(), before.len(), after.len()),
                other => panic!("expected UpdateRow, got {other:?}"),
            })
            .collect();
        assert_eq!(images[0], (vec![], 0, 0));
        assert_eq!(images[1], (vec![5], 1, 1));
        assert_eq!(images[2].0, (0..64).collect::<Vec<u32>>());
        assert_eq!((images[2].1, images[2].2), (64, 64));
    }

    #[test]
    fn mismatched_update_image_arity_refused_at_write() {
        let mut wal = Wal::default();
        let err = wal
            .log_update("t", 0, &[0, 1], &[Value::Int(1)], &[Value::Int(2)])
            .unwrap_err();
        assert!(err.to_string().contains("arity mismatch"), "{err}");
        assert_eq!(wal.stats().records, 0, "nothing was framed");
    }

    #[test]
    fn oversized_payload_refused_at_write() {
        // A payload past MAX_FRAME_LEN must fail the append instead of
        // writing a frame recovery would reject as corrupt. Build the
        // payload directly — materializing a >1 GiB table would dwarf the
        // test — and check the framing layer's bound.
        let mut wal = Wal::default();
        let before = wal.stats();
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let err = wal.append_payload(payload).unwrap_err();
        assert!(err.to_string().contains("frame limit"), "{err}");
        assert_eq!(wal.stats().records, before.records, "record not counted");
        assert_eq!(wal.stats().write_errors, 1, "loss is visible in stats");
        assert_eq!(wal.retained_bytes().unwrap(), 0, "log tail unpoisoned");
    }

    #[test]
    fn implausible_update_arity_stops_the_scan() {
        // A frame whose checksum is valid but whose before-image claims
        // more values than the payload could hold must be rejected at
        // decode, truncating the tail like any other corruption.
        let mut wal = Wal::default();
        wal.log_update("t", 0, &[0], &[Value::Int(1)], &[Value::Int(2)])
            .unwrap();
        let mut bytes = wal.snapshot().unwrap();
        let good_len = bytes.len();

        let mut payload = Wal::payload_header(RecordKind::UpdateRow, "t");
        put_u64(&mut payload, 7); // row
        put_u32(&mut payload, u32::MAX); // absurd before-image arity
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        bytes.extend_from_slice(&frame);

        let scan = scan_log(&bytes);
        assert_eq!(scan.records.len(), 1, "only the honest frame survives");
        assert_eq!(scan.valid_len as usize, good_len);
        assert!(
            scan.corruption.as_deref().unwrap().contains("implausible"),
            "{:?}",
            scan.corruption
        );
    }

    #[test]
    fn lsns_are_stamped_monotonically_and_survive_scan() {
        let mut wal = Wal::default();
        let t = small_table(2);
        wal.log_create_table("t", t.schema()).unwrap();
        log_table(&mut wal, "t", &t).unwrap();
        wal.log_drop_table("t").unwrap();
        assert_eq!(wal.next_lsn(), 4, "three records consumed LSNs 1..=3");

        let scan = scan_log(&wal.snapshot().unwrap());
        assert!(scan.corruption.is_none(), "{:?}", scan.corruption);
        assert_eq!(scan.lsns, vec![1, 2, 3]);
        assert_eq!(scan.next_lsn(1), 4);
        assert_eq!(scan_log(&[]).next_lsn(7), 7, "empty log yields the floor");
    }

    #[test]
    fn compact_drops_exactly_the_prefix_below_the_lsn() {
        let mut wal = Wal::default();
        for row in 0..5 {
            wal.log_update("t", row, &[0], &[Value::Int(1)], &[Value::Int(2)])
                .unwrap();
        }
        let cut = wal.compact(4).unwrap(); // drop LSNs 1..=3
        assert!(cut > 0);
        let scan = scan_log(&wal.snapshot().unwrap());
        assert!(scan.corruption.is_none(), "{:?}", scan.corruption);
        assert_eq!(scan.lsns, vec![4, 5], "suffix at or past the LSN survives");
        assert_eq!(wal.compact(4).unwrap(), 0, "idempotent");

        // Compacting past the end may empty the log entirely — the
        // checkpoint image carries the state.
        wal.compact(u64::MAX).unwrap();
        assert_eq!(wal.retained_bytes().unwrap(), 0);
        // Appends resume with the next LSN, never reusing a compacted one.
        wal.log_update("t", 9, &[0], &[Value::Int(1)], &[Value::Int(2)])
            .unwrap();
        let scan = scan_log(&wal.snapshot().unwrap());
        assert_eq!(scan.lsns, vec![6]);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slicing_matches_bytewise_reference_at_every_length() {
        // The 8-byte slicing fold must agree with the canonical per-byte
        // loop for every remainder length and across chunk boundaries.
        fn reference(data: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = (c >> 8) ^ CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize];
            }
            !c
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }
}
