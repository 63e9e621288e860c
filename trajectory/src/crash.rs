//! Crash-discarding log and checkpoint stores.
//!
//! Killing a process leaves the operating system's page cache intact, so a
//! kill-and-restart test would read back bytes that were never forced to the
//! device. These wrappers sit over the file stores and remember how far each
//! was made durable; the `ingest` epilogue "crashes" by recovering from that
//! much alone and never reading the files.
//!
//! `FileLogStore::append` writes through to the operating system but does
//! not `fsync`; only `sync`, a shrinking `truncate` and `discard_front` do.
//! The engine never syncs the log on its own, so the harness's writer calls
//! `Wal::sync` after each batch and counts the batch as acknowledged only
//! then. Whatever was appended after the last sync (the readers'
//! temporaries, mostly) is lost in the crash.

use percentage_aggregations::storage::{
    CheckpointStore, FileCheckpointStore, FileLogStore, LogStore, Result,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A copy of the retained log and the length of its durable prefix.
#[derive(Debug, Default)]
struct LogImage {
    bytes: Vec<u8>,
    durable: usize,
}

/// The log as the harness sees it, shared with the store inside the WAL.
#[derive(Debug, Clone, Default)]
pub struct Flushed(Arc<Mutex<LogImage>>);

impl Flushed {
    fn image(&self) -> std::sync::MutexGuard<'_, LogImage> {
        self.0.lock().expect("log-image lock")
    }

    /// The bytes that survive a crash now, and how many appended bytes
    /// do not.
    pub fn durable(&self) -> (Vec<u8>, usize) {
        let image = self.image();
        (
            image.bytes[..image.durable].to_vec(),
            image.bytes.len() - image.durable,
        )
    }
}

#[derive(Debug)]
pub struct CrashLog {
    inner: FileLogStore,
    flushed: Flushed,
}

impl CrashLog {
    pub fn new(inner: FileLogStore) -> (CrashLog, Flushed) {
        let flushed = Flushed::default();
        (
            CrashLog {
                inner,
                flushed: flushed.clone(),
            },
            flushed,
        )
    }
}

impl LogStore for CrashLog {
    fn append(&mut self, data: &[u8]) -> Result<usize> {
        let n = self.inner.append(data)?;
        self.flushed.image().bytes.extend_from_slice(&data[..n]);
        Ok(n)
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.inner.truncate(len)?;
        let mut image = self.flushed.image();
        if (len as usize) < image.bytes.len() {
            // The file store syncs the whole file when it shrinks it.
            image.bytes.truncate(len as usize);
            image.durable = image.bytes.len();
        }
        Ok(())
    }

    fn discard_front(&mut self, n: u64) -> Result<()> {
        // The file store rewrites the remainder and syncs it.
        self.inner.discard_front(n)?;
        let mut image = self.flushed.image();
        let n = (n as usize).min(image.bytes.len());
        image.bytes.drain(..n);
        image.durable = image.bytes.len();
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()?;
        let mut image = self.flushed.image();
        image.durable = image.bytes.len();
        Ok(())
    }
}

/// The image `FileCheckpointStore::save` last made durable (it syncs the
/// file and its directory before it returns), and how long each save held
/// its caller.
#[derive(Debug, Default)]
pub struct CheckpointLog {
    pub image: Vec<u8>,
    pub saves: u64,
    pub bytes: u64,
    pub save_ms: Vec<f64>,
}

#[derive(Debug)]
pub struct CrashCheckpoints {
    inner: FileCheckpointStore,
    log: Arc<Mutex<CheckpointLog>>,
}

impl CrashCheckpoints {
    pub fn new(inner: FileCheckpointStore) -> (CrashCheckpoints, Arc<Mutex<CheckpointLog>>) {
        let log = Arc::new(Mutex::new(CheckpointLog::default()));
        (
            CrashCheckpoints {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl CheckpointStore for CrashCheckpoints {
    fn save(&mut self, frame: &[u8]) -> Result<()> {
        let t0 = Instant::now();
        self.inner.save(frame)?;
        let mut log = self.log.lock().expect("checkpoint-log lock");
        log.image = frame.to_vec();
        log.saves += 1;
        log.bytes += frame.len() as u64;
        log.save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }

    fn read_raw(&mut self) -> Result<Vec<u8>> {
        self.inner.read_raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_synced_bytes_survive_the_crash() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("results/tmp/crash-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut log, flushed) = CrashLog::new(FileLogStore::open(dir.join("wal.log")).unwrap());
        log.append(b"acknowledged").unwrap();
        assert_eq!(flushed.durable(), (Vec::new(), 12));
        log.sync().unwrap();
        log.append(b"in flight").unwrap();
        assert_eq!(flushed.durable(), (b"acknowledged".to_vec(), 9));
        // Recycling rewrites and syncs what it keeps.
        log.discard_front(6).unwrap();
        assert_eq!(flushed.durable(), (b"ledgedin flight".to_vec(), 0));
        log.append(b"!").unwrap();
        log.truncate(3).unwrap();
        assert_eq!(flushed.durable(), (b"led".to_vec(), 0));
        assert_eq!(log.read_all().unwrap(), b"led");
        drop(log);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
