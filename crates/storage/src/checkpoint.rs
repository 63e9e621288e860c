//! Crash-consistent catalog checkpoints.
//!
//! A checkpoint is a full materialized image of the catalog — schemas,
//! columns, dictionaries — captured at one WAL LSN. Recovery loads the
//! newest *valid* image and replays only the WAL suffix past its LSN, so
//! restart time is bounded by write traffic since the last checkpoint, not
//! by total history; [`crate::Wal::compact`] then truncates the redundant
//! log prefix.
//!
//! The image is one checksummed, length-prefixed frame, identical framing
//! to the WAL:
//!
//! ```text
//! frame    := [len: u32 le] [crc32: u32 le] [payload]
//! payload  := [magic u32] [version u8] [epoch u64] [lsn u64] [ntables u32] table*
//! table    := [name str] [ncols u32] ([fname str] [dtype u8])* [nrows u64] column*
//! column   := Int   → [min i64 le] [width u8] [offset, width bytes le × n] validity
//!           | Float → [f64 le × n] validity
//!           | Str   → [ndict u32] [str × ndict] [width u8] [code, width bytes le × n] validity
//! validity := [1] (all rows valid) | [0] [u64 le × ceil(n/64) packed bits]
//! str      := [len u32 le] [utf-8 bytes]
//! ```
//!
//! An integer is stored as its offset from the column's minimum, and a
//! string code as itself, each in the fewest whole bytes — 1, 2, 4 or 8 —
//! that hold the column's range or its dictionary's codes (every cell,
//! those under a NULL included, so a column decodes to the very values it
//! held). Version 1 wrote every integer in 8 bytes and every code in 4
//! (`column := Int → [i64 le × n] validity | .. | Str → [ndict u32] [str ×
//! ndict] [u32 le × n codes] validity`); it still decodes, because the log
//! below an image's fence is compacted away once the image lands.
//!
//! Durability is the store's problem, behind [`CheckpointStore`]:
//! [`FileCheckpointStore`] writes a temp file, syncs it, renames over the
//! live name and fsyncs the parent directory (atomic-replace);
//! [`LogCheckpointStore`] appends the new frame to any [`LogStore`] — a
//! seeded [`crate::FaultInjector`] included — and only discards the old
//! image after the append lands, so a torn checkpoint write leaves the
//! previous image decodable (newest-valid-wins on read). A checkpoint
//! failure is therefore never fatal: recovery falls back to the previous
//! image + full WAL replay.

use crate::column::Column;
use crate::dictionary::Dictionary;
use crate::error::{Result, StorageError};
use crate::log::LogStore;
use crate::partial::{codec_err, put_dtype, put_string, put_u32, put_u64, put_validity, Cursor};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use crate::wal::{crc32, FRAME_HEADER, MAX_FRAME_LEN};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic word opening every checkpoint payload ("PAC1" little-endian).
pub const CHECKPOINT_MAGIC: u32 = 0x3143_4150;

/// Checkpoint payload format version: 2 packs integers and string codes
/// into the fewest bytes that hold them; 1 still decodes.
pub const CHECKPOINT_VERSION: u8 = 2;

// ---- policy ---------------------------------------------------------------

/// When the catalog should cut a checkpoint, measured in WAL traffic since
/// the last one. `None` on both axes disables automatic checkpoints
/// (explicit [`crate::Catalog::checkpoint_now`] still works).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many WAL records.
    pub every_records: Option<u64>,
    /// Checkpoint after this many WAL frame bytes.
    pub every_bytes: Option<u64>,
}

impl CheckpointPolicy {
    /// Never checkpoint automatically.
    pub fn disabled() -> CheckpointPolicy {
        CheckpointPolicy::default()
    }

    /// Checkpoint every `n` WAL records.
    pub fn every_records(n: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every_records: Some(n.max(1)),
            every_bytes: None,
        }
    }

    /// Checkpoint every `n` WAL frame bytes.
    pub fn every_bytes(n: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every_records: None,
            every_bytes: Some(n.max(1)),
        }
    }

    /// Whether a checkpoint is due after `records` / `bytes` of WAL
    /// traffic since the last one.
    pub fn due(&self, records: u64, bytes: u64) -> bool {
        self.every_records.is_some_and(|n| records >= n)
            || self.every_bytes.is_some_and(|n| bytes >= n)
    }
}

// ---- stores ---------------------------------------------------------------

/// Where checkpoint frames live. `save` must leave *some* valid image
/// readable even when it fails partway (the caller treats any error as
/// "previous checkpoint still stands").
pub trait CheckpointStore: fmt::Debug + Send {
    /// Persist `frame` (a full `[len][crc][payload]` frame) as the newest
    /// image.
    fn save(&mut self, frame: &[u8]) -> Result<()>;

    /// Read the raw retained bytes (zero or more frames; the newest valid
    /// one wins at decode). An empty vector means "no checkpoint yet".
    fn read_raw(&mut self) -> Result<Vec<u8>>;
}

/// In-memory checkpoint slot; `save` replaces the image atomically.
#[derive(Debug, Default, Clone)]
pub struct MemCheckpointStore {
    buf: Vec<u8>,
}

impl MemCheckpointStore {
    /// Empty store (no checkpoint yet).
    pub fn new() -> MemCheckpointStore {
        MemCheckpointStore::default()
    }

    /// Store pre-loaded with `bytes` — e.g. a crash image for recovery
    /// tests.
    pub fn from_bytes(bytes: Vec<u8>) -> MemCheckpointStore {
        MemCheckpointStore { buf: bytes }
    }

    /// Borrow the retained bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

impl CheckpointStore for MemCheckpointStore {
    fn save(&mut self, frame: &[u8]) -> Result<()> {
        self.buf = frame.to_vec();
        Ok(())
    }

    fn read_raw(&mut self) -> Result<Vec<u8>> {
        Ok(self.buf.clone())
    }
}

/// Checkpoint frames over any [`LogStore`] byte device — including a
/// seeded [`crate::FaultInjector`], which is how the chaos tests tear
/// checkpoint writes. The new frame is appended *before* the old image is
/// discarded, so a torn append leaves the previous image intact and the
/// newest-valid-wins scan falls back to it.
#[derive(Debug)]
pub struct LogCheckpointStore {
    inner: Box<dyn LogStore>,
}

impl LogCheckpointStore {
    /// Wrap a byte device.
    pub fn new(inner: Box<dyn LogStore>) -> LogCheckpointStore {
        LogCheckpointStore { inner }
    }
}

impl CheckpointStore for LogCheckpointStore {
    fn save(&mut self, frame: &[u8]) -> Result<()> {
        let old = self.inner.len()?;
        let written = self.inner.append(frame)?;
        if written != frame.len() {
            return Err(StorageError::Checkpoint(format!(
                "torn checkpoint append: {written} of {} bytes persisted",
                frame.len()
            )));
        }
        self.inner.sync()?;
        // Only now is the previous image redundant.
        self.inner.discard_front(old)?;
        Ok(())
    }

    fn read_raw(&mut self) -> Result<Vec<u8>> {
        self.inner.read_all()
    }
}

/// File-backed checkpoint: atomic replace via write-temp → sync → rename,
/// then fsync of the parent directory so a power loss can neither drop the
/// renamed image nor resurrect the temp.
pub struct FileCheckpointStore {
    dir: PathBuf,
    name: String,
}

impl FileCheckpointStore {
    /// Checkpoints live at `dir/name`; the directory is created if absent.
    pub fn open(dir: impl AsRef<Path>, name: impl Into<String>) -> Result<FileCheckpointStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        sync_dir(&dir)?;
        Ok(FileCheckpointStore {
            dir,
            name: name.into(),
        })
    }

    /// Path of the live checkpoint file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(&self.name)
    }
}

impl fmt::Debug for FileCheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileCheckpointStore")
            .field("path", &self.path())
            .finish()
    }
}

/// Fsync a directory so renames/creates/unlinks inside it are durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    let d = fs::File::open(dir)?;
    d.sync_all()?;
    Ok(())
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&mut self, frame: &[u8]) -> Result<()> {
        let tmp = self.dir.join(format!("{}.tmp", self.name));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(frame)?;
        f.sync_data()?;
        drop(f);
        fs::rename(&tmp, self.path())?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    fn read_raw(&mut self) -> Result<Vec<u8>> {
        match fs::read(self.path()) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }
}

// ---- image codec ----------------------------------------------------------

/// A decoded checkpoint: the catalog's tables as of `lsn`.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// Snapshot epoch counter at capture time.
    pub epoch: u64,
    /// WAL fence: every record with LSN below this is inside the image.
    pub lsn: u64,
    /// Materialized tables, in catalog (sorted-name) order.
    pub tables: Vec<(String, Table)>,
}

/// The fewest whole bytes — 1, 2, 4 or 8 — that hold `max`.
fn width_of(max: u64) -> u8 {
    match max {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

/// `[width u8]`, then each of `values` — none above `max` — in its low
/// `width_of(max)` bytes, little endian.
fn put_packed(buf: &mut Vec<u8>, max: u64, values: impl Iterator<Item = u64>) {
    let width = width_of(max);
    buf.push(width);
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes()[..width as usize]);
    }
}

/// `rows` values written by [`put_packed`].
fn read_packed<'a>(r: &mut Cursor<'a>, rows: usize) -> Result<impl Iterator<Item = u64> + 'a> {
    let width = r.u8()? as usize;
    if ![1, 2, 4, 8].contains(&width) {
        return Err(codec_err(format!("bad value width {width}")));
    }
    let raw = r.take(
        rows.checked_mul(width)
            .ok_or_else(|| codec_err("row count overflows"))?,
    )?;
    Ok(raw.chunks_exact(width).map(|c| {
        let mut le = [0u8; 8];
        le[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(le)
    }))
}

/// An integer column's minimum and the span above it.
fn int_range(data: &[i64]) -> (i64, u64) {
    let min = data.iter().copied().min().unwrap_or(0);
    let max = data.iter().copied().max().unwrap_or(0);
    (min, max.wrapping_sub(min) as u64)
}

/// The bytes [`put_column`] writes for `col`.
fn column_len(col: &Column) -> usize {
    let validity = |v: &crate::Bitmap| match v.all_set() {
        true => 1,
        false => 1 + 8 * v.words().len(),
    };
    let packed = |max: u64| 1 + col.len() * width_of(max) as usize;
    match col {
        Column::Int { data, validity: v } => 8 + packed(int_range(data).1) + validity(v),
        Column::Float { data, validity: v } => 8 * data.len() + validity(v),
        Column::Str {
            dict, validity: v, ..
        } => {
            let strings: usize = dict.values().iter().map(|s| 4 + s.len()).sum();
            let top = dict.len().saturating_sub(1) as u64;
            4 + strings + packed(top) + validity(v)
        }
    }
}

fn put_column(buf: &mut Vec<u8>, col: &Column) {
    match col {
        Column::Int { data, validity } => {
            let (min, span) = int_range(data);
            put_u64(buf, min as u64);
            let offsets = data.iter().map(|v| v.wrapping_sub(min) as u64);
            put_packed(buf, span, offsets);
            put_validity(buf, validity);
        }
        Column::Float { data, validity } => {
            for v in data {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            put_validity(buf, validity);
        }
        Column::Str {
            dict,
            codes,
            validity,
            ..
        } => {
            put_u32(buf, dict.len() as u32);
            for s in dict.values() {
                put_string(buf, s);
            }
            let top = dict.len().saturating_sub(1) as u64;
            put_packed(buf, top, codes.iter().map(|&c| u64::from(c)));
            put_validity(buf, validity);
        }
    }
}

/// Serialize `tables` into one framed checkpoint image at `(epoch, lsn)`.
/// Errors when the image exceeds the frame limit.
pub fn encode_image(tables: &[(String, &Table)], epoch: u64, lsn: u64) -> Result<Vec<u8>> {
    // One buffer of exactly the frame's size: the payload is written behind
    // the frame header, which is filled in last.
    let string = |s: &str| 4 + s.len();
    let table_len = |(name, t): &(String, &Table)| {
        let fields: usize = t
            .schema()
            .fields()
            .iter()
            .map(|f| string(&f.name) + 1)
            .sum();
        let columns: usize = t.columns().iter().map(column_len).sum();
        string(name) + 4 + fields + 8 + columns
    };
    let size = FRAME_HEADER + 4 + 1 + 8 + 8 + 4 + tables.iter().map(table_len).sum::<usize>();
    let mut frame = Vec::with_capacity(size);
    frame.resize(FRAME_HEADER, 0);
    let payload = &mut frame;
    put_u32(payload, CHECKPOINT_MAGIC);
    payload.push(CHECKPOINT_VERSION);
    put_u64(payload, epoch);
    put_u64(payload, lsn);
    put_u32(payload, tables.len() as u32);
    for (name, table) in tables {
        put_string(payload, name);
        let schema = table.schema();
        put_u32(payload, schema.len() as u32);
        for field in schema.fields() {
            put_string(payload, &field.name);
            put_dtype(payload, field.dtype);
        }
        put_u64(payload, table.num_rows() as u64);
        for col in table.columns() {
            put_column(payload, col);
        }
    }
    debug_assert_eq!(frame.len(), size, "the image is the size reserved for it");
    let len = frame.len() - FRAME_HEADER;
    if len > MAX_FRAME_LEN as usize {
        return Err(StorageError::Checkpoint(format!(
            "checkpoint image of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit"
        )));
    }
    let crc = crc32(&frame[FRAME_HEADER..]);
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// One column of a version-`version` image.
fn read_column(
    r: &mut Cursor<'_>,
    (dtype, version): (DataType, u8),
    rows: usize,
) -> Result<Column> {
    match dtype {
        DataType::Int if version == 1 => {
            let raw = r.take(rows * 8)?;
            let data = raw
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let validity = r.validity(rows)?;
            Ok(Column::Int { data, validity })
        }
        DataType::Int => {
            let min = r.i64()?;
            let data = read_packed(r, rows)?
                .map(|v| min.wrapping_add(v as i64))
                .collect();
            let validity = r.validity(rows)?;
            Ok(Column::Int { data, validity })
        }
        DataType::Float => {
            let raw = r.take(rows * 8)?;
            let data = raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let validity = r.validity(rows)?;
            Ok(Column::Float { data, validity })
        }
        DataType::Str => {
            let ndict = r.u32()? as usize;
            if ndict > r.remaining() {
                return Err(codec_err(format!("implausible dictionary size {ndict}")));
            }
            let mut dict = Dictionary::new();
            for i in 0..ndict {
                let s = r.string()?;
                if dict.intern(&s) != i as u32 {
                    return Err(codec_err(format!("duplicate dictionary entry {s:?}")));
                }
            }
            let codes: Vec<u64> = match version {
                1 => {
                    let raw = r.take(rows * 4)?;
                    let code = |c: &[u8]| u64::from(u32::from_le_bytes(c.try_into().unwrap()));
                    raw.chunks_exact(4).map(code).collect()
                }
                _ => read_packed(r, rows)?.collect(),
            };
            let mut packed = Vec::with_capacity(rows);
            for code in codes {
                if code as usize >= ndict.max(1) {
                    return Err(codec_err(format!(
                        "dictionary code {code} out of range {ndict}"
                    )));
                }
                packed.push(code as u32);
            }
            let validity = r.validity(rows)?;
            Ok(Column::Str {
                dict,
                codes: packed,
                validity,
                packed: Default::default(),
            })
        }
    }
}

fn decode_payload(payload: &[u8]) -> Result<CheckpointImage> {
    let mut r = Cursor::new(payload);
    if r.u32()? != CHECKPOINT_MAGIC {
        return Err(codec_err("bad checkpoint magic"));
    }
    let version = r.u8()?;
    if !(1..=CHECKPOINT_VERSION).contains(&version) {
        return Err(codec_err(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let epoch = r.u64()?;
    let lsn = r.u64()?;
    let ntables = r.u32()? as usize;
    if ntables > payload.len() {
        return Err(codec_err(format!("implausible table count {ntables}")));
    }
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let name = r.string()?;
        let ncols = r.u32()? as usize;
        if ncols > payload.len() {
            return Err(codec_err(format!("implausible column count {ncols}")));
        }
        let mut fields = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let fname = r.string()?;
            fields.push(Field::new(fname, r.dtype()?));
        }
        let schema = Schema::new(fields).map_err(|e| codec_err(format!("bad schema: {e}")))?;
        let rows = r.u64()? as usize;
        if rows > payload.len() {
            return Err(codec_err(format!("implausible row count {rows}")));
        }
        let mut columns = Vec::with_capacity(ncols);
        for field in schema.fields() {
            columns.push(read_column(&mut r, (field.dtype, version), rows)?);
        }
        let table = Table::from_columns(schema.into_shared(), columns)
            .map_err(|e| codec_err(format!("inconsistent table: {e}")))?;
        table
            .check_integrity()
            .map_err(|e| codec_err(format!("image fails integrity check: {e}")))?;
        tables.push((name, table));
    }
    r.finish()?;
    Ok(CheckpointImage { epoch, lsn, tables })
}

/// Scan raw store bytes for checkpoint frames and return the newest fully
/// valid image, plus the reason the scan stopped early (torn frame, bad
/// checksum, undecodable image), if it did. An empty input is "no
/// checkpoint yet", not an error.
pub fn scan_checkpoints(data: &[u8]) -> (Option<CheckpointImage>, Option<String>) {
    let mut newest = None;
    let mut pos = 0usize;
    while pos < data.len() {
        let remaining = data.len() - pos;
        if remaining < FRAME_HEADER {
            return (newest, Some(format!("torn frame header at offset {pos}")));
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return (
                newest,
                Some(format!("implausible frame length {len} at offset {pos}")),
            );
        }
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        let body_start = pos + FRAME_HEADER;
        let body_end = body_start + len as usize;
        if body_end > data.len() {
            return (
                newest,
                Some(format!("torn checkpoint frame at offset {pos}")),
            );
        }
        let payload = &data[body_start..body_end];
        if crc32(payload) != crc {
            return (
                newest,
                Some(format!("checkpoint checksum mismatch at offset {pos}")),
            );
        }
        match decode_payload(payload) {
            Ok(image) => newest = Some(image),
            Err(why) => {
                return (
                    newest,
                    Some(format!("undecodable checkpoint at offset {pos}: {why}")),
                )
            }
        }
        pos = body_end;
    }
    (newest, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan};
    use crate::log::MemLogStore;
    use crate::value::Value;

    fn sample_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("d", DataType::Int),
            ("a", DataType::Float),
            ("s", DataType::Str),
        ])
        .unwrap()
        .into_shared();
        let mut t = Table::empty(schema);
        for i in 0..130 {
            let s = if i % 3 == 0 {
                Value::Null
            } else {
                Value::str(if i % 2 == 0 { "CA" } else { "TX" })
            };
            t.push_row(&[Value::Int(i), Value::Float(i as f64 / 2.0), s])
                .unwrap();
        }
        t
    }

    fn frame_for(tables: &[(String, &Table)], epoch: u64, lsn: u64) -> Vec<u8> {
        encode_image(tables, epoch, lsn).unwrap()
    }

    #[test]
    fn image_round_trips_values_nulls_and_dictionaries() {
        let t = sample_table();
        let frame = frame_for(&[("F".to_string(), &t)], 3, 42);
        let (image, why) = scan_checkpoints(&frame);
        assert!(why.is_none(), "{why:?}");
        let image = image.unwrap();
        assert_eq!((image.epoch, image.lsn), (3, 42));
        assert_eq!(image.tables.len(), 1);
        let (name, rec) = &image.tables[0];
        assert_eq!(name, "F");
        assert_eq!(rec.num_rows(), t.num_rows());
        rec.check_integrity().unwrap();
        for row in 0..t.num_rows() {
            assert_eq!(rec.row(row).unwrap(), t.row(row).unwrap(), "row {row}");
        }
    }

    #[test]
    fn empty_store_is_no_checkpoint_not_an_error() {
        let (image, why) = scan_checkpoints(&[]);
        assert!(image.is_none());
        assert!(why.is_none());
    }

    #[test]
    fn truncated_image_at_every_offset_never_yields_garbage() {
        let t = sample_table();
        let frame = frame_for(&[("F".to_string(), &t)], 1, 7);
        for cut in 0..frame.len() {
            let (image, _) = scan_checkpoints(&frame[..cut]);
            assert!(image.is_none(), "prefix of {cut} bytes decoded an image");
        }
        let (image, why) = scan_checkpoints(&frame);
        assert!(image.is_some() && why.is_none());
    }

    #[test]
    fn newest_valid_image_wins_and_torn_newest_falls_back() {
        let old = sample_table();
        let mut newer = sample_table();
        newer
            .push_row(&[Value::Int(999), Value::Null, Value::Null])
            .unwrap();

        let f1 = frame_for(&[("F".to_string(), &old)], 1, 10);
        let f2 = frame_for(&[("F".to_string(), &newer)], 2, 20);
        let mut both = f1.clone();
        both.extend_from_slice(&f2);
        let (image, why) = scan_checkpoints(&both);
        assert!(why.is_none(), "{why:?}");
        assert_eq!(image.unwrap().lsn, 20, "newest image wins");

        // Tear the newest frame: the old image still stands.
        let torn = &both[..f1.len() + f2.len() / 2];
        let (image, why) = scan_checkpoints(torn);
        assert_eq!(image.unwrap().lsn, 10, "fell back to previous image");
        assert!(why.is_some());
    }

    #[test]
    fn log_store_save_keeps_old_image_until_new_one_lands() {
        let t = sample_table();
        let f1 = frame_for(&[("F".to_string(), &t)], 1, 10);
        let f2 = frame_for(&[("F".to_string(), &t)], 2, 20);

        // Healthy path: save replaces.
        let mut store = LogCheckpointStore::new(Box::new(MemLogStore::new()));
        store.save(&f1).unwrap();
        store.save(&f2).unwrap();
        let raw = store.read_raw().unwrap();
        assert_eq!(raw.len(), f2.len(), "old image discarded after success");
        assert_eq!(scan_checkpoints(&raw).0.unwrap().lsn, 20);

        // Faulty path: the second save tears mid-frame (the cut is a byte
        // offset in the append stream, past the whole first frame). The old
        // image must still decode.
        let plan = FaultPlan {
            torn_write_at: Some(f1.len() as u64 + f2.len() as u64 / 2),
            ..FaultPlan::default()
        };
        let mut store =
            LogCheckpointStore::new(Box::new(FaultInjector::new(MemLogStore::new(), plan)));
        store.save(&f1).unwrap();
        let err = store.save(&f2).unwrap_err();
        assert!(!err.is_transient(), "torn device is permanent: {err}");
        // The device is dead now (torn-write semantics), but the bytes that
        // made it to the platter keep the previous image decodable.
        let mut dead = store;
        if let Ok(raw) = dead.read_raw() {
            let (image, _) = scan_checkpoints(&raw);
            assert_eq!(image.unwrap().lsn, 10, "previous checkpoint survives");
        }
    }

    #[test]
    fn file_store_atomic_replace_and_missing_file_is_empty() {
        let dir = std::env::temp_dir().join(format!("pa-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = FileCheckpointStore::open(&dir, "catalog.ckpt").unwrap();
        assert!(store.read_raw().unwrap().is_empty(), "no checkpoint yet");

        let t = sample_table();
        let f1 = frame_for(&[("F".to_string(), &t)], 1, 10);
        store.save(&f1).unwrap();
        assert_eq!(store.read_raw().unwrap(), f1);
        assert!(
            !store.path().with_extension("ckpt.tmp").exists(),
            "temp renamed away"
        );

        let f2 = frame_for(&[("F".to_string(), &t)], 2, 20);
        store.save(&f2).unwrap();
        assert_eq!(
            scan_checkpoints(&store.read_raw().unwrap()).0.unwrap().lsn,
            20
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_due_logic() {
        assert!(!CheckpointPolicy::disabled().due(u64::MAX, u64::MAX));
        let p = CheckpointPolicy::every_records(10);
        assert!(!p.due(9, u64::MAX - 1) || p.every_bytes.is_some());
        assert!(p.due(10, 0));
        let p = CheckpointPolicy::every_bytes(100);
        assert!(!p.due(u64::MAX, 99));
        assert!(p.due(0, 100));
        let both = CheckpointPolicy {
            every_records: Some(5),
            every_bytes: Some(50),
        };
        assert!(both.due(5, 0) && both.due(0, 50) && !both.due(4, 49));
    }

    #[test]
    fn bitflipped_image_is_rejected() {
        let t = sample_table();
        let mut frame = frame_for(&[("F".to_string(), &t)], 1, 10);
        let mid = frame.len() / 2;
        frame[mid] ^= 0x10;
        let (image, why) = scan_checkpoints(&frame);
        assert!(image.is_none());
        assert!(why.unwrap().contains("checksum"));
    }

    /// The one table of an image of `t`, decoded, and the image's length.
    fn round_trip(t: &Table) -> (Table, usize) {
        let frame = frame_for(&[("F".to_string(), t)], 1, 1);
        let (image, why) = scan_checkpoints(&frame);
        assert!(why.is_none(), "{why:?}");
        let mut tables = image.expect("an image").tables;
        assert_eq!(tables.len(), 1);
        (tables.pop().unwrap().1, frame.len())
    }

    /// Cell for cell — the values under a NULL included — and dictionary
    /// for dictionary.
    fn assert_same_columns(got: &Table, want: &Table) {
        assert_eq!(got.schema().fields(), want.schema().fields());
        assert_eq!(got.num_rows(), want.num_rows());
        for (c, (g, w)) in got.columns().iter().zip(want.columns()).enumerate() {
            let valid = |col: &Column| (0..col.len()).map(|r| col.is_valid(r)).collect::<Vec<_>>();
            assert_eq!(valid(g), valid(w), "column {c} validity");
            match (g, w) {
                (Column::Int { data: g, .. }, Column::Int { data: w, .. }) => assert_eq!(g, w),
                (Column::Float { data: g, .. }, Column::Float { data: w, .. }) => {
                    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(g), bits(w), "column {c}");
                }
                (
                    Column::Str {
                        dict: gd,
                        codes: gc,
                        ..
                    },
                    Column::Str {
                        dict: wd,
                        codes: wc,
                        ..
                    },
                ) => {
                    assert_eq!(gd.values(), wd.values(), "column {c} dictionary");
                    assert_eq!(gc, wc, "column {c} codes");
                }
                _ => panic!("column {c} changed type"),
            }
        }
        got.check_integrity().unwrap();
    }

    /// One `Int` column `x` holding `values`, NULL where `None` (the slot
    /// keeping the placeholder a NULL push leaves).
    fn ints(values: &[Option<i64>]) -> Table {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let mut t = Table::empty(schema.into_shared());
        for v in values {
            t.push_row(&[v.map_or(Value::Null, Value::Int)]).unwrap();
        }
        t
    }

    #[test]
    fn an_int_column_takes_the_fewest_bytes_its_range_needs() {
        // Each span on both sides of a width boundary, from a negative
        // minimum, and from 0 with NULLs (whose slots hold 0, inside the
        // range): the image grows by the extra bytes a row, exactly.
        let n = 64;
        let spans = [
            (0u64, 1usize),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            ((1 << 32) - 1, 4),
            (1 << 32, 8),
        ];
        for ((span, width), lo) in spans
            .iter()
            .flat_map(|s| [(*s, -1_000_000_007i64), (*s, 0)])
        {
            let values: Vec<Option<i64>> = (0..n as i64)
                .map(|i| match (i % 5, lo) {
                    (4, 0) => None,
                    _ => Some(lo + (span as i64 / (n as i64 - 1)) * i),
                })
                .chain([Some(lo), Some(lo + span as i64)])
                .collect();
            let t = ints(&values);
            let (got, len) = round_trip(&t);
            assert_same_columns(&got, &t);
            let sevens: Vec<Option<i64>> = values.iter().map(|v| v.map(|_| 7)).collect();
            let (_, narrowest) = round_trip(&ints(&sevens));
            assert_eq!(
                len - narrowest,
                (width - 1) * values.len(),
                "span {span} from {lo}"
            );
        }
        // The whole `i64` range, and a column of one value.
        let extremes = ints(&[Some(i64::MAX), None, Some(i64::MIN), Some(0), Some(-1)]);
        assert_same_columns(&round_trip(&extremes).0, &extremes);
        let one = ints(&[Some(i64::MIN)]);
        assert_same_columns(&round_trip(&one).0, &one);
    }

    #[test]
    fn nulls_empty_tables_and_single_rows_round_trip() {
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
        ])
        .unwrap()
        .into_shared();
        let empty = Table::empty(schema.clone());
        assert_same_columns(&round_trip(&empty).0, &empty);
        let mut nulls = Table::empty(schema.clone());
        for _ in 0..70 {
            nulls
                .push_row(&[Value::Null, Value::Null, Value::Null])
                .unwrap();
        }
        assert_same_columns(&round_trip(&nulls).0, &nulls);
        let mut single = Table::empty(schema);
        (single.push_row(&[Value::Int(-3), Value::Float(-0.0), Value::str("é")])).unwrap();
        assert_same_columns(&round_trip(&single).0, &single);
        let t = sample_table();
        assert_same_columns(&round_trip(&t).0, &t);
    }

    #[test]
    fn string_codes_take_the_fewest_bytes_their_dictionary_needs() {
        let schema = Schema::from_pairs(&[("s", DataType::Str)]).unwrap();
        let table = |entries: usize| {
            let mut t = Table::empty(schema.clone().into_shared());
            for i in 0..300 {
                let v = match i < entries {
                    true => Value::str(format!("v{i}")),
                    false => Value::Null,
                };
                t.push_row(&[v]).unwrap();
            }
            t
        };
        // 256 entries (codes 0..=255) fit a byte; 257 need two.
        let (at_256, at_257) = (table(256), table(257));
        let (got, len_256) = round_trip(&at_256);
        assert_same_columns(&got, &at_256);
        let (got, len_257) = round_trip(&at_257);
        assert_same_columns(&got, &at_257);
        let Column::Str { dict, .. } = at_257.column(0) else {
            unreachable!()
        };
        assert_eq!(dict.len(), 257);
        let entry = "v256".len() + 4;
        assert_eq!(len_257 - len_256, 300 + entry, "a second byte a code");
    }

    #[test]
    fn empty_catalog_image_round_trips() {
        let frame = frame_for(&[], 5, 99);
        let (image, why) = scan_checkpoints(&frame);
        assert!(why.is_none(), "{why:?}");
        let image = image.unwrap();
        assert_eq!((image.epoch, image.lsn), (5, 99));
        assert!(image.tables.is_empty());
    }
}
