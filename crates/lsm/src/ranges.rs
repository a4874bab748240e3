//! Range partitioning: [`KeyRanges`] says which contiguous key range owns
//! a key, and [`RangeFanout`] turns any ordered set of engines, one per
//! range, into a single [`KvEngine`].
//!
//! The fan-out is written once, here. Point operations route to the
//! owning part; `multi_get` regroups keys by range and reassembles the
//! answers in input order; a batch is split by range and applied part by
//! part (atomic per part, never across parts); a scan walks the parts in
//! range order — which is key order, so no merge is needed — asking each
//! only for what is still wanted; maintenance calls visit every part;
//! statistics are summed. [`ShardedDb`](crate::ShardedDb) is this over
//! local [`Db`](crate::Db)s and the cluster client is this over servers;
//! a test plugs in an in-memory map.

use std::ops::Deref;

use crate::batch::WriteBatch;
use crate::db::{DbStats, ScanResult, WriteOptions};
use crate::engine::KvEngine;
use crate::error::{Error, Result};
use crate::write_controller::WriteRegime;

/// A key space cut into contiguous ranges by strictly increasing,
/// non-empty split points: range `i` owns keys in
/// `[split[i-1], split[i])`, open-ended at both ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRanges {
    split_points: Vec<Vec<u8>>,
}

impl KeyRanges {
    /// Checks that `split_points` cut the key space into `n` ranges.
    ///
    /// # Errors
    ///
    /// Rejects lists that would misroute keys: wrong count, an empty
    /// split point (indistinguishable from the open left end), or any
    /// pair out of strict order.
    pub fn new(split_points: Vec<Vec<u8>>, n: usize) -> Result<KeyRanges> {
        if split_points.len() + 1 != n {
            return Err(Error::invalid_argument(format!(
                "{n} key ranges need {} split points, got {}",
                n.saturating_sub(1),
                split_points.len()
            )));
        }
        for (i, p) in split_points.iter().enumerate() {
            if p.is_empty() {
                return Err(Error::invalid_argument("empty split point"));
            }
            if i > 0 && split_points[i - 1] >= *p {
                return Err(Error::invalid_argument(format!(
                    "split points must be strictly increasing (point {i} is not)"
                )));
            }
        }
        Ok(KeyRanges { split_points })
    }

    /// Number of ranges (at least one).
    pub fn num_ranges(&self) -> usize {
        self.split_points.len() + 1
    }

    /// The boundaries between the ranges, in order.
    pub(crate) fn split_points(&self) -> &[Vec<u8>] {
        &self.split_points
    }

    /// The range that owns `key`; a key equal to a split point belongs to
    /// the range on its right.
    pub fn route(&self, key: &[u8]) -> usize {
        self.split_points.partition_point(|p| p.as_slice() <= key)
    }

    /// Splits a batch's entries by owning range, one batch per range
    /// (possibly empty), keeping the order within each.
    pub fn split_batch(&self, batch: &WriteBatch) -> Vec<WriteBatch> {
        let mut parts = vec![WriteBatch::new(); self.num_ranges()];
        for (ty, key, value) in batch.iter() {
            parts[self.route(key)].push(ty, key, value);
        }
        parts
    }
}

/// An ordered set of engines, part `i` serving range `i` of
/// [`ranges`](Self::ranges). Implementing this is all it takes to be a
/// [`KvEngine`]: the blanket impl below does the routing.
pub trait RangeFanout: Send + Sync {
    /// What serves one range.
    type Part: KvEngine;

    /// The partitioning; it has exactly as many ranges as there are parts.
    fn ranges(&self) -> &KeyRanges;

    /// The engine currently serving range `idx`.
    fn part(&self, idx: usize) -> impl Deref<Target = Self::Part>;

    /// Runs `op` against part `idx` and returns its answer. An
    /// implementation whose parts can be replaced (a server failing over
    /// to its replica) may run an `idempotent` `op` a second time against
    /// the replacement; any other `op` runs exactly once.
    ///
    /// # Errors
    ///
    /// Whatever `op` returns.
    fn with_part<T>(
        &self,
        idx: usize,
        idempotent: bool,
        op: impl Fn(&Self::Part) -> Result<T>,
    ) -> Result<T> {
        let _ = idempotent;
        op(&self.part(idx))
    }

    /// First line of [`KvEngine::stats_text`], e.g. `Aggregate across 4 shards`.
    fn title(&self) -> String;

    /// Heading of part `idx`'s section in [`KvEngine::stats_text`].
    fn part_title(&self, idx: usize) -> String;

    /// What [`KvEngine::checkpoint`] does; parts that share no storage
    /// have no one directory to checkpoint into.
    ///
    /// # Errors
    ///
    /// `NotSupported` unless overridden.
    fn checkpoint_parts(&self, dir: &str) -> Result<()> {
        let _ = dir;
        Err(Error::not_supported("this engine does not support checkpoints"))
    }
}

/// Sums per-part statistics (see [`DbStats::merge`]).
fn merged(parts: impl IntoIterator<Item = DbStats>) -> DbStats {
    parts
        .into_iter()
        .reduce(|mut agg, part| {
            agg.merge(&part);
            agg
        })
        .expect("KeyRanges has at least one range")
}

impl<F: RangeFanout> KvEngine for F {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.with_part(self.ranges().route(key), false, |p| p.put(key, value))
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        self.with_part(self.ranges().route(key), false, |p| p.delete(key))
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.with_part(self.ranges().route(key), true, |p| p.get(key))
    }

    /// Each touched part serves its keys with one `multi_get`, so the
    /// batch amortization survives the partitioning.
    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        let ranges = self.ranges();
        if ranges.num_ranges() == 1 {
            return self.with_part(0, true, |p| p.multi_get(keys));
        }
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); ranges.num_ranges()];
        for (slot, key) in keys.iter().enumerate() {
            slots[ranges.route(key)].push(slot);
        }
        let mut out = vec![None; keys.len()];
        for (idx, slots) in slots.iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let part_keys: Vec<Vec<u8>> = slots.iter().map(|&slot| keys[slot].clone()).collect();
            let values = self.with_part(idx, true, |p| p.multi_get(&part_keys))?;
            for (&slot, value) in slots.iter().zip(values) {
                out[slot] = value;
            }
        }
        Ok(out)
    }

    /// Atomic per part: each part commits its share of the batch
    /// atomically, but there is no transaction across parts — a reader
    /// may see one part's share before another's, and an error leaves
    /// the earlier parts' shares applied.
    fn write_opt(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        for (idx, share) in self.ranges().split_batch(&batch).into_iter().enumerate() {
            if !share.is_empty() {
                self.with_part(idx, false, |p| p.write_opt(wopts, share.clone()))?;
            }
        }
        Ok(())
    }

    /// Every key of a later part sorts after `start`, so the same start
    /// key serves all of them. Each part reads at its own snapshot.
    fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        let ranges = self.ranges();
        let mut out = ScanResult::new();
        for idx in ranges.route(start)..ranges.num_ranges() {
            let wanted = count - out.len();
            if wanted == 0 {
                break;
            }
            let chunk = self.with_part(idx, true, |p| p.scan(start, wanted))?;
            // A part is not trusted to honour the limit: an over-answer
            // would underflow `wanted` at the next part.
            out.extend(chunk.into_iter().take(wanted));
        }
        Ok(out)
    }

    fn flush(&self) -> Result<()> {
        (0..self.ranges().num_ranges()).try_for_each(|idx| self.with_part(idx, false, |p| p.flush()))
    }

    fn wait_background_idle(&self) -> Result<()> {
        (0..self.ranges().num_ranges())
            .try_for_each(|idx| self.with_part(idx, true, |p| p.wait_background_idle()))
    }

    /// Every part's [`KvEngine::stats`], summed; a part that cannot be
    /// reached contributes what it answers in that case (a remote part:
    /// its last good snapshot), never nothing.
    fn stats(&self) -> DbStats {
        merged((0..self.ranges().num_ranges()).map(|idx| self.part(idx).stats()))
    }

    fn stats_checked(&self) -> Result<DbStats> {
        let parts = (0..self.ranges().num_ranges())
            .map(|idx| self.with_part(idx, true, |p| p.stats_checked()))
            .collect::<Result<Vec<_>>>()?;
        Ok(merged(parts))
    }

    /// The summed shape of the whole, then one section per part.
    fn stats_text(&self) -> String {
        use std::fmt::Write as _;
        let agg = self.stats();
        let mut out = String::new();
        let _ = writeln!(out, "** {} **", self.title());
        let _ = writeln!(
            out,
            "last_sequence: {}  pending_compaction_bytes: {}  running_bg_jobs: {}",
            agg.last_sequence, agg.pending_compaction_bytes, agg.running_background_jobs
        );
        for (l, (files, bytes)) in agg.levels.iter().enumerate() {
            if *files > 0 {
                let _ = writeln!(out, "  L{l}: {files} files, {bytes} bytes");
            }
        }
        for idx in 0..self.ranges().num_ranges() {
            let _ = writeln!(out, "\n** {} **", self.part_title(idx));
            out.push_str(&self.part(idx).stats_text());
        }
        out
    }

    /// The most severe regime of any part: a batch may touch every part,
    /// so intake backs off as soon as one is stopped.
    fn write_regime(&self) -> WriteRegime {
        let mut worst = WriteRegime::Normal;
        for idx in 0..self.ranges().num_ranges() {
            match self.part(idx).write_regime() {
                WriteRegime::Stopped => return WriteRegime::Stopped,
                WriteRegime::Delayed => worst = WriteRegime::Delayed,
                WriteRegime::Normal => {}
            }
        }
        worst
    }

    /// Part by part, each all-or-nothing. The parts run one
    /// configuration, so a change the first part refuses (unknown name,
    /// immutable option, value out of range) is refused before any part
    /// took it. An I/O failure half-way leaves the earlier parts on the
    /// new configuration; the error is returned and a retry converges.
    fn set_options(&self, changes: &[(String, String)]) -> Result<()> {
        (0..self.ranges().num_ranges())
            .try_for_each(|idx| self.with_part(idx, false, |p| p.set_options(changes)))
    }

    /// Part 0's: the parts run one configuration.
    fn options_ini(&self) -> Result<String> {
        self.with_part(0, true, |p| p.options_ini())
    }

    fn checkpoint(&self, dir: &str) -> Result<()> {
        self.checkpoint_parts(dir)
    }
}
