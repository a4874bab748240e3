//! # lsm-kvs — an LSM-tree key-value store with a RocksDB-compatible option surface
//!
//! This crate is the storage substrate of the ELMo-Tune reproduction: a
//! from-scratch log-structured merge-tree engine (memtables, WAL,
//! block-based SSTs with bloom filters, leveled compaction,
//! a sharded block cache, and a write controller) whose 70 configuration
//! options carry RocksDB names and semantics so that a tuning loop written
//! against RocksDB knowledge transfers directly.
//!
//! The engine runs on a [`vfs::Vfs`] abstraction; the environment's clock
//! picks the execution mode. Opened in a simulated environment
//! (`HardwareEnv::builder().build_sim()`), it executes against the
//! `hw-sim` virtual hardware model: all I/O and background work is charged
//! to a virtual clock, so benchmarks are deterministic and
//! hardware-sensitive (NVMe vs HDD, 2 vs 4 cores, 4 vs 8 GiB) without
//! needing the physical machines of the paper's evaluation.
//!
//! ## Example
//!
//! ```
//! use lsm_kvs::{Db, options::Options};
//!
//! # fn main() -> Result<(), lsm_kvs::Error> {
//! let env = hw_sim::HardwareEnv::builder().build_sim();
//! let db = Db::builder(Options::default()).env(&env).open()?;
//! db.put(b"key", b"value")?;
//! assert_eq!(db.get(b"key")?, Some(b"value".to_vec()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod options;
pub mod sstable;
pub mod vfs;
pub mod wal;

mod batch;
mod cache;
mod db;
mod engine;
mod compaction;
mod error;
mod flush;
mod listener;
mod memtable;
mod merge;
mod ranges;
mod runtime;
mod shard;
mod stats;
mod types;
mod util;
mod version;
mod write_controller;

pub use batch::WriteBatch;
pub use cache::{cache_key, BlockCache, BlockKey, TableCache};
pub use compaction::{
    level_targets, pending_compaction_bytes, run_compaction, CompactionInputs,
    CompactionJobOutput,
};
pub use db::{Db, DbBuilder, DbStats, ReadOptions, ScanResult, SnapshotPin, WalSink, WriteOptions};
pub use error::{Error, ErrorKind, Result};
pub use flush::{build_l0_table, FlushOutput};
pub use engine::KvEngine;
pub use ranges::{KeyRanges, RangeFanout};
pub use shard::{ShardedDb, ShardedDbBuilder};
pub use fault::{FaultConfig, FaultInjectionVfs, TearStyle};
pub use listener::{CompactionJobInfo, EventListener, FlushJobInfo, StallConditionsChanged};
pub use memtable::{MemTable, MemTableCursor};
pub use merge::FilterContext;
pub use sstable::block::Block;
pub use stats::{
    Histogram, HistogramKind, HistogramSnapshot, LevelIo, Statistics, Ticker, TickerSnapshot,
    Tickers, HISTOGRAM_NAMES, NUM_HISTOGRAMS, TICKER_NAMES,
};
pub use types::{FileNumber, InternalKey, SequenceNumber, ValueType, MAX_SEQUENCE};
pub use util::{put_fixed32, put_fixed64, Reader};
pub use version::{CompactionLevelStats, FileMetadata, Version, VersionEdit};
pub use vfs::{MemVfs, NamespaceVfs, RandomAccessFile, StdVfs, Vfs, WritableFile};
pub use write_controller::{WriteController, WritePressure, WriteRegime};
