//! [`KvEngine`]: the one interface benchmark drivers, servers and tuning
//! tools program against, implemented by [`Db`] and by anything that is a
//! [`RangeFanout`](crate::RangeFanout) over engines.

use crate::batch::WriteBatch;
use crate::db::{Db, DbStats, ScanResult, WriteOptions};
use crate::error::{Error, Result};
use crate::write_controller::WriteRegime;

/// One database abstraction over a [`Db`], a sharded database and a
/// remote one, so benchmark drivers and tools run unchanged against any.
pub trait KvEngine: Send + Sync {
    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// See [`Db::put`].
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()>;
    /// Deletes a key.
    ///
    /// # Errors
    ///
    /// See [`Db::delete`].
    fn delete(&self, key: &[u8]) -> Result<()>;
    /// Reads the newest value for `key`.
    ///
    /// # Errors
    ///
    /// See [`Db::get`].
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;
    /// Reads a batch of keys, returning values in input order. The
    /// default is a loop of [`get`](Self::get)s; engines with a real
    /// batched read path override it to share snapshot, table-handle,
    /// and block work across the batch.
    ///
    /// # Errors
    ///
    /// See [`Db::multi_get`].
    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        keys.iter().map(|k| self.get(k)).collect()
    }
    /// Applies a batch (atomic per part for range-partitioned engines).
    ///
    /// # Errors
    ///
    /// See [`Db::write_opt`].
    fn write_opt(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()>;
    /// Scans forward from `start` for up to `count` live entries.
    ///
    /// # Errors
    ///
    /// See [`Db::scan`].
    fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult>;
    /// Flushes the memtable(s).
    ///
    /// # Errors
    ///
    /// See [`Db::flush`].
    fn flush(&self) -> Result<()>;
    /// Waits for background work to drain.
    ///
    /// # Errors
    ///
    /// See [`Db::wait_background_idle`].
    fn wait_background_idle(&self) -> Result<()>;
    /// Point-in-time statistics.
    fn stats(&self) -> DbStats;
    /// Like [`stats`](Self::stats), but fallible: remote engines report
    /// transport failures instead of fabricating a zeroed snapshot (which
    /// would wreck ticker-delta arithmetic downstream). Local engines
    /// cannot fail.
    fn stats_checked(&self) -> Result<DbStats> {
        Ok(self.stats())
    }
    /// Human-readable statistics report.
    fn stats_text(&self) -> String;
    /// The regime the write controller would choose for a write issued
    /// now. Engines without stall visibility report `Normal`.
    fn write_regime(&self) -> WriteRegime {
        WriteRegime::Normal
    }
    /// Applies dynamic option changes, all-or-nothing, without a reopen.
    /// Engines that cannot retune live report `NotSupported`.
    ///
    /// # Errors
    ///
    /// See [`Db::set_options`].
    fn set_options(&self, changes: &[(String, String)]) -> Result<()> {
        let _ = changes;
        Err(Error::not_supported(
            "this engine does not support live option changes",
        ))
    }
    /// The effective configuration serialized as RocksDB-style ini text,
    /// so a tuner can read back what the engine is actually running with.
    ///
    /// # Errors
    ///
    /// `NotSupported` for engines without an option surface; remote
    /// engines can also fail with transport errors.
    fn options_ini(&self) -> Result<String> {
        Err(Error::not_supported(
            "this engine does not expose its options",
        ))
    }
    /// Takes an online checkpoint under `dir/` on the engine's storage;
    /// see [`Db::checkpoint`]. Engines without local storage (remote
    /// clients forward the request; simulators without persistence
    /// refuse) report `NotSupported`.
    ///
    /// # Errors
    ///
    /// See [`Db::checkpoint`].
    fn checkpoint(&self, dir: &str) -> Result<()> {
        let _ = dir;
        Err(Error::not_supported(
            "this engine does not support checkpoints",
        ))
    }
}

impl KvEngine for Db {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        Db::put(self, key, value)
    }
    fn delete(&self, key: &[u8]) -> Result<()> {
        Db::delete(self, key)
    }
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Db::get(self, key)
    }
    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        Db::multi_get(self, keys)
    }
    fn write_opt(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        Db::write_opt(self, wopts, batch)
    }
    fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        Db::scan(self, start, count)
    }
    fn flush(&self) -> Result<()> {
        Db::flush(self)
    }
    fn wait_background_idle(&self) -> Result<()> {
        Db::wait_background_idle(self)
    }
    fn stats(&self) -> DbStats {
        Db::stats(self)
    }
    fn stats_text(&self) -> String {
        Db::stats_text(self)
    }
    fn write_regime(&self) -> WriteRegime {
        Db::write_regime(self)
    }
    fn set_options(&self, changes: &[(String, String)]) -> Result<()> {
        Db::set_options(self, changes)
    }
    fn options_ini(&self) -> Result<String> {
        Ok(Db::options_ini(self))
    }
    fn checkpoint(&self, dir: &str) -> Result<()> {
        Db::checkpoint(self, dir)
    }
}
