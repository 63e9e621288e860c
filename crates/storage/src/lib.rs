//! # pa-storage — columnar storage substrate
//!
//! The storage layer under the percentage-aggregation engine: typed columnar
//! tables with validity bitmaps and dictionary-encoded strings, a named-table
//! catalog, secondary hash indexes, and a write-ahead log whose per-row vs
//! bulk record costs reproduce the INSERT/UPDATE asymmetry the paper
//! measures.
//!
//! Everything is built from scratch on the sanctioned dependency set; see
//! `DESIGN.md` at the repository root for the substitution rationale
//! (Teradata V2R4 → this engine).

#![warn(missing_docs)]

pub mod bitmap;
pub mod catalog;
pub mod checkpoint;
pub mod column;
pub mod csv;
pub mod dictionary;
pub mod error;
pub mod fault;
pub mod hash;
pub mod index;
pub mod journal;
pub mod lattice;
pub mod log;
pub mod memory;
pub mod packed;
pub mod partial;
pub mod replication;
pub mod retry;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;
pub mod wal;

pub use bitmap::Bitmap;
pub use catalog::{Catalog, Change, RecoveryReport, SharedTable, SnapshotView, SNAP_PREFIX};
pub use checkpoint::{
    scan_checkpoints, CheckpointImage, CheckpointPolicy, CheckpointStore, FileCheckpointStore,
    LogCheckpointStore, MemCheckpointStore,
};
pub use column::Column;
pub use csv::{read_csv, write_csv};
pub use dictionary::Dictionary;
pub use error::{Result, StorageError};
pub use fault::{FaultInjector, FaultPlan};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{HashIndex, NONE};
pub use journal::TableDelta;
pub use lattice::{LatticeCache, LatticeCacheStats, LATTICE_CACHE_BYTES};
pub use log::{FileLogStore, LogStore, MemLogStore};
pub use packed::{width_for, PackedCell, PackedCodes, MAX_INT_PACK_WIDTH, MAX_PACK_WIDTH};
pub use partial::{PARTIAL_MAGIC, PARTIAL_VERSION};
pub use replication::{
    ApplyReport, ChaosStats, ChaosTransport, DirectTransport, ReplicaApplier, ReplicaStats,
    ReplicationStream, ShipTransport, SyncReport,
};
pub use retry::RetryPolicy;
pub use schema::{Field, Schema};
pub use stats::ColumnStats;
pub use table::Table;
pub use value::{DataType, Value};
pub use wal::{scan_log, LogScan, Rows, Wal, WalRecord, WalStats, WriteReceipt};
