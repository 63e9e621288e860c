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
//! column   := Int   → [i64 le × n] validity
//!           | Float → [f64 le × n] validity
//!           | Str   → [ndict u32] [str × ndict] [u32 le × n codes] validity
//! validity := [1] (all rows valid) | [0] [u64 le × ceil(n/64) packed bits]
//! str      := [len u32 le] [utf-8 bytes]
//! ```
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

/// Checkpoint payload format version.
pub const CHECKPOINT_VERSION: u8 = 1;

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

fn put_column(buf: &mut Vec<u8>, col: &Column) {
    match col {
        Column::Int { data, validity } => {
            for v in data {
                buf.extend_from_slice(&v.to_le_bytes());
            }
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
            for c in codes {
                put_u32(buf, *c);
            }
            put_validity(buf, validity);
        }
    }
}

/// Serialize `tables` into one framed checkpoint image at `(epoch, lsn)`.
/// Errors when the image exceeds the frame limit.
pub fn encode_image(tables: &[(String, &Table)], epoch: u64, lsn: u64) -> Result<Vec<u8>> {
    let mut payload = Vec::with_capacity(64);
    put_u32(&mut payload, CHECKPOINT_MAGIC);
    payload.push(CHECKPOINT_VERSION);
    put_u64(&mut payload, epoch);
    put_u64(&mut payload, lsn);
    put_u32(&mut payload, tables.len() as u32);
    for (name, table) in tables {
        put_string(&mut payload, name);
        let schema = table.schema();
        put_u32(&mut payload, schema.len() as u32);
        for field in schema.fields() {
            put_string(&mut payload, &field.name);
            put_dtype(&mut payload, field.dtype);
        }
        put_u64(&mut payload, table.num_rows() as u64);
        for col in table.columns() {
            put_column(&mut payload, col);
        }
    }
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(StorageError::Checkpoint(format!(
            "checkpoint image of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    Ok(frame)
}

fn read_column(r: &mut Cursor<'_>, dtype: DataType, rows: usize) -> Result<Column> {
    match dtype {
        DataType::Int => {
            let raw = r.take(rows * 8)?;
            let data = raw
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
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
            let raw = r.take(rows * 4)?;
            let mut codes = Vec::with_capacity(rows);
            for c in raw.chunks_exact(4) {
                let code = u32::from_le_bytes(c.try_into().unwrap());
                if code as usize >= ndict.max(1) {
                    return Err(codec_err(format!(
                        "dictionary code {code} out of range {ndict}"
                    )));
                }
                codes.push(code);
            }
            let validity = r.validity(rows)?;
            Ok(Column::Str {
                dict,
                codes,
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
    if version != CHECKPOINT_VERSION {
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
            columns.push(read_column(&mut r, field.dtype, rows)?);
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
