//! Key-range sharded database: N independent LSM trees behind one facade.
//!
//! A [`ShardedDb`] partitions the key space into `num_shards` contiguous
//! ranges, each owned by a full [`Db`] (its own memtable, WAL, and SST
//! tree) living under a `s{i}_` name prefix on the shared VFS. Writes
//! route by key, so group commit stays shard-local and writers on
//! disjoint ranges never contend on a memtable or WAL mutex — the point
//! of sharding on multi-core hardware.
//!
//! What the shards *share*:
//!
//! - **Block cache**: one cache sized once by `block_cache_size`, handed
//!   to every shard, so memory budget does not multiply by shard count.
//! - **Background job budget**: a [`JobBudget`] with `max_background_jobs`
//!   permits gates every shard's job claims, so N trees respect one
//!   global limit. Fairness comes from permit granularity plus
//!   cross-shard kicks on release.
//! - **Write-controller debt**: each shard publishes its pending
//!   compaction bytes (plus any excess over `shard_bytes_soft_limit`)
//!   into a shared slot array; every shard's stall decision charges the
//!   others' debt, so one hot shard slows all writers rather than racing
//!   ahead of the shared budget.
//!
//! Cross-shard scans capture a per-shard snapshot sequence up front and
//! concatenate per-shard scans in shard order — range partitioning means
//! no k-way merge is needed. Batch writes are atomic per shard, not
//! across shards (documented on [`ShardedDb::write`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use hw_sim::HardwareEnv;
use parking_lot::Mutex;

use crate::batch::WriteBatch;
use crate::cache::BlockCache;
use crate::db::{Db, DbStats, ReadOptions, ScanResult, WriteOptions};
use crate::error::{Error, Result};
use crate::options::Options;
use crate::runtime::{BgShared, JobBudget};
use crate::write_controller::WriteRegime;
use crate::vfs::{MemVfs, NamespaceVfs, Vfs};

/// Marker file in the base directory recording the shard count, so a
/// database cannot be reopened with a different partitioning (keys would
/// silently land in the wrong tree).
const SHARDS_MARKER: &str = "SHARDS";

/// A key space cut into contiguous ranges by strictly increasing,
/// non-empty split points: range `i` owns keys in
/// `[split[i-1], split[i])`, open-ended at both ends. The routing table
/// of [`ShardedDb`] and of any client that partitions keys the same way
/// across servers.
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
            // Stamped entries keep their stamp verbatim.
            parts[self.route(key)].push_raw(ty, key, value);
        }
        parts
    }
}

/// State shared by all shards of one [`ShardedDb`].
pub(crate) struct ShardShared {
    block_cache: Option<Arc<BlockCache>>,
    budget: JobBudget,
    /// Set when some shard failed to take a permit; the next release
    /// kicks the peers. Gating kicks on real starvation matters: an
    /// unconditional kick-on-release livelocks — every woken worker that
    /// finds no job would wake the other shards' workers in turn.
    starved: AtomicBool,
    /// Per-shard published compaction debt, indexed by shard.
    debt: Vec<AtomicU64>,
    /// Worker-pool handles of every shard, for cross-shard kicks when a
    /// budget permit frees up. `Weak` so the pool never outlives its Db.
    peers: Mutex<Vec<Weak<BgShared>>>,
}

/// One shard's view of the shared state.
#[derive(Clone)]
pub(crate) struct ShardCtx {
    shared: Arc<ShardShared>,
    index: usize,
}

impl ShardCtx {
    /// The cache all shards share (sized once by the facade).
    pub fn shared_block_cache(&self) -> Option<Arc<BlockCache>> {
        self.shared.block_cache.clone()
    }

    /// High-bit tag mixed into block-cache file ids so shards (whose
    /// file numbers overlap) never alias each other's blocks.
    pub fn cache_tag(&self) -> u64 {
        (self.index as u64 + 1) << 56
    }

    /// Publishes this shard's compaction debt and returns the sum of
    /// every *other* shard's published debt, saturating.
    pub fn publish_debt_and_sum_peers(&self, local: u64) -> u64 {
        self.shared.debt[self.index].store(local, Ordering::Relaxed);
        self.shared
            .debt
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.index)
            .map(|(_, d)| d.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }

    /// Takes one permit from the global job budget. A failure records
    /// starvation so the next release wakes the backed-off shards.
    pub fn try_acquire_job(&self) -> bool {
        let got = self.shared.budget.try_acquire();
        if !got {
            self.shared.starved.store(true, Ordering::Release);
        }
        got
    }

    /// Returns a permit. Only a release that follows a *completed job*
    /// (`ran_job`) may kick starved peers: a permit freed by an empty
    /// claim was never scarce, and kicking on it lets idle workers wake
    /// each other in a storm — every woken worker finds no job, releases,
    /// and re-kicks, saturating a small machine with context switches.
    pub fn release_job(&self, ran_job: bool) {
        self.shared.budget.release();
        if !ran_job || !self.shared.starved.swap(false, Ordering::AcqRel) {
            return;
        }
        let peers = self.shared.peers.lock();
        let n = peers.len();
        for off in 1..n {
            if let Some(bg) = peers[(self.index + off) % n].upgrade() {
                bg.kick();
            }
        }
    }
}

/// Builder for [`ShardedDb`], mirroring [`Db::builder`].
pub struct ShardedDbBuilder {
    opts: Options,
    env: Option<HardwareEnv>,
    vfs: Option<Arc<dyn Vfs>>,
    split_points: Option<Vec<Vec<u8>>>,
    load_options_file: bool,
}

impl ShardedDbBuilder {
    /// Runs against `env`'s clock and hardware model.
    #[must_use]
    pub fn env(mut self, env: &HardwareEnv) -> Self {
        self.env = Some(env.clone());
        self
    }

    /// Stores files on `vfs`; each shard lives under a `s{i}_` prefix.
    #[must_use]
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Supplies explicit range boundaries instead of the default uniform
    /// binary split. `points` must hold `num_shards - 1` strictly
    /// increasing, non-empty keys; shard `i` owns `[points[i-1],
    /// points[i])` with open ends. Callers whose keys are not uniform
    /// over the byte space (e.g. zero-padded decimal, where every key
    /// starts with `'0'`) need this, or all traffic lands in shard 0.
    /// The boundaries are persisted in the `SHARDS` marker and must
    /// match on reopen.
    #[must_use]
    pub fn split_points(mut self, points: Vec<Vec<u8>>) -> Self {
        self.split_points = Some(points);
        self
    }

    /// Overlays each shard's persisted `OPTIONS` file (mutable options
    /// only) on top of the supplied options at open, so a configuration
    /// tuned live via [`ShardedDb::set_options`] survives a restart. See
    /// [`DbBuilder::load_options_file`](crate::db::DbBuilder::load_options_file).
    #[must_use]
    pub fn load_options_file(mut self, load: bool) -> Self {
        self.load_options_file = load;
        self
    }

    /// Opens (creating or recovering) every shard.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::InvalidArgument`](crate::ErrorKind) for
    /// inconsistent options or a shard count that does not match the
    /// existing on-disk marker, and I/O/corruption errors from recovery.
    pub fn open(self) -> Result<ShardedDb> {
        let env = self
            .env
            .unwrap_or_else(|| HardwareEnv::builder().build_sim());
        let vfs = self
            .vfs
            .unwrap_or_else(|| Arc::new(MemVfs::new()) as Arc<dyn Vfs>);
        ShardedDb::open_impl(self.opts, &env, vfs, self.split_points, self.load_options_file)
    }
}

/// A key-range partitioned database: `num_shards` independent LSM trees
/// behind a [`Db`]-compatible facade. See the module docs for what is
/// shared (block cache, job budget, stall debt) and what is per-shard
/// (memtable, WAL, SST tree, group commit).
///
/// Like [`Db`], cloning is cheap (shared handles) and every method takes
/// `&self`, so one facade can be shared across threads.
#[derive(Clone)]
pub struct ShardedDb {
    shards: Vec<Db>,
    /// Which shard owns which keys. Two-byte big-endian boundaries by
    /// default, caller-supplied via [`ShardedDbBuilder::split_points`]
    /// otherwise.
    ranges: KeyRanges,
    /// Cross-shard shared state, kept so [`set_options`](Self::set_options)
    /// can resize the global job budget when `max_background_jobs` moves.
    shared: Arc<ShardShared>,
    /// The un-prefixed VFS all shards live on, kept so
    /// [`checkpoint`](Self::checkpoint) can hard-link across shard
    /// namespaces into one checkpoint directory.
    base_vfs: Arc<dyn Vfs>,
}

impl ShardedDb {
    /// Starts building a sharded database with `opts`; the shard count
    /// comes from [`Options::num_shards`].
    pub fn builder(opts: Options) -> ShardedDbBuilder {
        ShardedDbBuilder {
            opts,
            env: None,
            vfs: None,
            split_points: None,
            load_options_file: false,
        }
    }

    fn open_impl(
        opts: Options,
        env: &HardwareEnv,
        vfs: Arc<dyn Vfs>,
        custom_splits: Option<Vec<Vec<u8>>>,
        load_options_file: bool,
    ) -> Result<ShardedDb> {
        opts.validate()?;
        let n = opts.num_shards as usize;
        let custom = custom_splits.map(|p| KeyRanges::new(p, n)).transpose()?;
        // The partitioning is a persistent property of the database: an
        // existing marker's boundaries win on reopen (callers need not
        // re-supply them), but an *explicit* request that conflicts with
        // them is an error — honouring it would misroute every key.
        let ranges = match read_marker(&*vfs)? {
            Some((stored_n, stored)) => {
                if stored_n != n {
                    return Err(Error::invalid_argument(format!(
                        "database was created with {stored_n} shards, reopened with {n}"
                    )));
                }
                let stored = if stored.is_empty() { split_points(n) } else { stored };
                let stored = KeyRanges::new(stored, n)?;
                if custom.is_some_and(|c| c != stored) {
                    return Err(Error::invalid_argument(
                        "database was created with different shard split points",
                    ));
                }
                stored
            }
            None => {
                let ranges = match custom {
                    Some(c) => c,
                    None => KeyRanges::new(split_points(n), n)?,
                };
                write_marker(&*vfs, &ranges)?;
                ranges
            }
        };

        let block_cache = if opts.no_block_cache {
            None
        } else {
            Some(Arc::new(BlockCache::new(opts.block_cache_size.max(1), 4)))
        };
        let shared = Arc::new(ShardShared {
            block_cache,
            budget: JobBudget::new(opts.max_background_jobs.clamp(1, 16) as usize),
            starved: AtomicBool::new(false),
            debt: (0..n).map(|_| AtomicU64::new(0)).collect(),
            peers: Mutex::new(Vec::with_capacity(n)),
        });

        let mut shard_opts = opts;
        shard_opts.num_shards = 1;
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let ns = Arc::new(NamespaceVfs::new(Arc::clone(&vfs), format!("s{i}_")));
            let db = Db::builder(shard_opts.clone())
                .env(env)
                .vfs(ns)
                .load_options_file(load_options_file)
                .shard_context(ShardCtx {
                    shared: Arc::clone(&shared),
                    index: i,
                })
                .open()?;
            shards.push(db);
        }
        // Register worker pools only once every shard is open; a kick to
        // a not-yet-listed peer is harmless (workers poll on a timeout).
        {
            let mut peers = shared.peers.lock();
            for db in &shards {
                peers.push(
                    db.bg_shared()
                        .map_or_else(Weak::new, |bg| Arc::downgrade(&bg)),
                );
            }
        }
        // A persisted OPTIONS overlay may have changed max_background_jobs
        // after the budget was sized from the caller's options.
        if load_options_file {
            let effective = shards[0].options().max_background_jobs.clamp(1, 16);
            shared.budget.set_capacity(effective as usize);
        }
        Ok(ShardedDb {
            shards,
            ranges,
            shared,
            base_vfs: vfs,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to shard `i` (tests and tooling).
    pub fn shard(&self, i: usize) -> &Db {
        &self.shards[i]
    }

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// See [`Db::put`].
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.shards[self.ranges.route(key)].put(key, value)
    }

    /// Deletes a key (writes a tombstone).
    ///
    /// # Errors
    ///
    /// See [`Db::delete`].
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.shards[self.ranges.route(key)].delete(key)
    }

    /// Reads the newest value for `key`.
    ///
    /// # Errors
    ///
    /// See [`Db::get`].
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.shards[self.ranges.route(key)].get(key)
    }

    /// Reads the newest value for `key` under explicit [`ReadOptions`].
    ///
    /// # Errors
    ///
    /// See [`Db::get_opt`]. Additionally rejects an explicit
    /// `snapshot_seq` when more than one shard exists (see
    /// [`check_explicit_snapshot`](Self::check_explicit_snapshot)).
    pub fn get_opt(&self, ropts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.check_explicit_snapshot(ropts)?;
        self.shards[self.ranges.route(key)].get_opt(ropts, key)
    }

    /// Reads the newest values for a batch of keys, in input order.
    ///
    /// Keys are routed to their shards and each shard serves its whole
    /// group with one [`Db::multi_get_opt`] call, so the batch
    /// amortization survives sharding. Like [`scan_opt`](Self::scan_opt),
    /// a per-shard snapshot sequence is pinned before any shard is read:
    /// each shard's answers are coherent at its pinned point even while
    /// writers run (there is no cross-shard transaction to be coherent
    /// against — see [`write`](Self::write)).
    ///
    /// # Errors
    ///
    /// See [`Db::multi_get`].
    pub fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        self.multi_get_opt(&ReadOptions::default(), keys)
    }

    /// Reads a batch of keys under explicit [`ReadOptions`]; see
    /// [`multi_get`](Self::multi_get).
    ///
    /// # Errors
    ///
    /// See [`Db::multi_get_opt`]. Additionally rejects an explicit
    /// `snapshot_seq` when more than one shard exists (see
    /// [`check_explicit_snapshot`](Self::check_explicit_snapshot)).
    pub fn multi_get_opt<K: AsRef<[u8]>>(
        &self,
        ropts: &ReadOptions,
        keys: &[K],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        self.check_explicit_snapshot(ropts)?;
        if self.shards.len() == 1 {
            return self.shards[0].multi_get_opt(ropts, keys);
        }
        // Pin every shard's sequence before reading any of them.
        let pins: Vec<u64> = self.shards.iter().map(Db::snapshot_seq).collect();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, key) in keys.iter().enumerate() {
            groups[self.ranges.route(key.as_ref())].push(i);
        }
        let mut results: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        for (s, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // Borrowed regrouping: the per-shard call reuses the
            // caller's key bytes instead of cloning each one.
            let shard_keys: Vec<&[u8]> = group.iter().map(|&i| keys[i].as_ref()).collect();
            let shard_ropts = ReadOptions {
                snapshot_seq: Some(pins[s]),
                ..*ropts
            };
            let got = self.shards[s].multi_get_opt(&shard_ropts, &shard_keys)?;
            for (&i, v) in group.iter().zip(got) {
                results[i] = v;
            }
        }
        Ok(results)
    }

    /// Rejects a caller-provided `snapshot_seq` on the sharded facade.
    ///
    /// Each shard runs its own sequence domain, so one number cannot
    /// name a consistent point across shards: forwarding it verbatim
    /// would pin wildly different moments in time per shard (or be out
    /// of range entirely). With a single shard the domains coincide and
    /// the option passes through.
    fn check_explicit_snapshot(&self, ropts: &ReadOptions) -> Result<()> {
        if self.shards.len() > 1 && ropts.snapshot_seq.is_some() {
            return Err(Error::invalid_argument(
                "explicit snapshot_seq is not meaningful across shards: \
                 each shard has an independent sequence domain",
            ));
        }
        Ok(())
    }

    /// Applies a batch with default write options. Atomic *per shard*:
    /// the batch is split by key range and each sub-batch commits
    /// atomically in its shard, but there is no cross-shard transaction —
    /// a reader may observe one shard's part before another's.
    ///
    /// # Errors
    ///
    /// See [`Db::write`].
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_opt(&WriteOptions::default(), batch)
    }

    /// Applies a batch under explicit [`WriteOptions`]; atomic per shard
    /// (see [`write`](Self::write)).
    ///
    /// # Errors
    ///
    /// See [`Db::write_opt`].
    pub fn write_opt(&self, wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        if self.shards.len() == 1 {
            return self.shards[0].write_opt(wopts, batch);
        }
        for (i, part) in self.ranges.split_batch(&batch).into_iter().enumerate() {
            if !part.is_empty() {
                self.shards[i].write_opt(wopts, part)?;
            }
        }
        Ok(())
    }

    /// Scans forward from `start`, returning up to `count` live entries
    /// across all shards in key order. Per-shard snapshot sequences are
    /// captured before any shard is read, so entries already visible when
    /// the scan starts are seen consistently even while writers run.
    ///
    /// # Errors
    ///
    /// See [`Db::scan_opt`]. Additionally rejects an explicit
    /// `snapshot_seq` when more than one shard exists (see
    /// [`check_explicit_snapshot`](Self::check_explicit_snapshot)).
    pub fn scan_opt(&self, ropts: &ReadOptions, start: &[u8], count: usize) -> Result<ScanResult> {
        self.check_explicit_snapshot(ropts)?;
        let pins: Vec<u64> = self.shards.iter().map(Db::snapshot_seq).collect();
        let mut out = ScanResult::new();
        let first = self.ranges.route(start);
        for (i, shard) in self.shards.iter().enumerate().skip(first) {
            if out.len() >= count {
                break;
            }
            let mut shard_ropts = *ropts;
            if shard_ropts.snapshot_seq.is_none() {
                shard_ropts.snapshot_seq = Some(pins[i]);
            }
            let from = if i == first { start } else { b"" as &[u8] };
            out.extend(shard.scan_opt(&shard_ropts, from, count - out.len())?);
        }
        Ok(out)
    }

    /// Scans forward from `start` with default read options.
    ///
    /// # Errors
    ///
    /// See [`Db::scan`].
    pub fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        self.scan_opt(&ReadOptions::default(), start, count)
    }

    /// Flushes every shard's memtable.
    ///
    /// # Errors
    ///
    /// See [`Db::flush`].
    pub fn flush(&self) -> Result<()> {
        for db in &self.shards {
            db.flush()?;
        }
        Ok(())
    }

    /// The most severe write regime across all shards: a server gating
    /// intake on stalls must back off as soon as *any* shard is stopped,
    /// because a batch may touch every shard.
    pub fn write_regime(&self) -> WriteRegime {
        let mut worst = WriteRegime::Normal;
        for db in &self.shards {
            match db.write_regime() {
                WriteRegime::Stopped => return WriteRegime::Stopped,
                WriteRegime::Delayed => worst = WriteRegime::Delayed,
                WriteRegime::Normal => {}
            }
        }
        worst
    }

    /// Applies dynamic option changes to every shard; see
    /// [`Db::set_options`].
    ///
    /// The changes are validated once up front (against shard 0's current
    /// options), so unknown names, immutable options, and out-of-range or
    /// inconsistent values are rejected before any shard is touched. The
    /// fan-out itself is not transactional across shards: an I/O failure
    /// persisting one shard's `OPTIONS` file can leave earlier shards on
    /// the new configuration — the error is returned and a retry
    /// converges (per-shard application is idempotent).
    ///
    /// A change to `max_background_jobs` also resizes the *shared* job
    /// budget that gates all shards' background claims.
    ///
    /// # Errors
    ///
    /// See [`Db::set_options`].
    pub fn set_options<K: AsRef<str>, V: AsRef<str>>(&self, changes: &[(K, V)]) -> Result<()> {
        if changes.is_empty() {
            return Ok(());
        }
        let trial = self.shards[0].options().with_online_changes(changes)?;
        for db in &self.shards {
            db.set_options(changes)?;
        }
        self.shared
            .budget
            .set_capacity(trial.max_background_jobs.clamp(1, 16) as usize);
        // Wake every shard's workers: a raised budget means claims that
        // failed a moment ago can succeed now.
        for bg in self.shared.peers.lock().iter() {
            if let Some(bg) = bg.upgrade() {
                bg.kick();
            }
        }
        Ok(())
    }

    /// The effective configuration serialized as RocksDB-style ini text.
    ///
    /// Shards always share one configuration (`set_options` fans out to
    /// all of them), so this reports shard 0's options with the facade's
    /// real shard count restored.
    pub fn options_ini(&self) -> String {
        let mut opts = self.shards[0].options();
        opts.num_shards = self.shards.len() as i64;
        crate::options::ini::to_ini(&opts)
    }

    /// Takes an online checkpoint of every shard under `dir/` on the base
    /// VFS, preserving the `s{i}_` shard layout plus the `SHARDS` marker,
    /// so the checkpoint reopens with a `ShardedDb` builder pointed at a
    /// [`NamespaceVfs`] prefixed `"{dir}/"`. Each shard checkpoints at
    /// its own point in time (there is no cross-shard transaction to cut
    /// consistently — see [`write`](Self::write)); per shard the same
    /// guarantee as [`Db::checkpoint`] holds.
    ///
    /// The marker is written *last*: a crash mid-fan-out leaves a
    /// directory without `SHARDS`, which a restore harness treats as
    /// incomplete.
    ///
    /// # Errors
    ///
    /// See [`Db::checkpoint`].
    pub fn checkpoint(&self, dir: &str) -> Result<()> {
        for (i, db) in self.shards.iter().enumerate() {
            db.checkpoint_via(
                Arc::clone(&self.base_vfs),
                &format!("s{i}_"),
                &format!("{dir}/s{i}_"),
            )?;
        }
        // Republish the partitioning under the checkpoint; written last
        // as the sharded checkpoint's completion record.
        write_marker(
            &NamespaceVfs::new(Arc::clone(&self.base_vfs), format!("{dir}/")),
            &self.ranges,
        )
    }

    /// Compacts every shard fully.
    ///
    /// # Errors
    ///
    /// See [`Db::compact_all`].
    pub fn compact_all(&self) -> Result<()> {
        for db in &self.shards {
            db.compact_all()?;
        }
        Ok(())
    }

    /// Blocks until every shard's background work is drained.
    ///
    /// # Errors
    ///
    /// See [`Db::wait_background_idle`].
    pub fn wait_background_idle(&self) -> Result<()> {
        for db in &self.shards {
            db.wait_background_idle()?;
        }
        Ok(())
    }

    /// Aggregated statistics across all shards. Tickers, level shapes,
    /// and debt sum; the shared block cache is counted once.
    pub fn stats(&self) -> DbStats {
        let mut agg = self.shards[0].stats();
        for db in &self.shards[1..] {
            agg.merge(&db.stats());
        }
        agg
    }

    /// Human-readable statistics: an aggregated summary followed by one
    /// section per shard.
    pub fn stats_text(&self) -> String {
        use std::fmt::Write as _;
        if self.shards.len() == 1 {
            return self.shards[0].stats_text();
        }
        let agg = self.stats();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "** Aggregate across {} shards **",
            self.shards.len()
        );
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
        for (i, db) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "\n** Shard {i} **");
            out.push_str(&db.stats_text());
        }
        out
    }
}

/// Evenly spaced two-byte big-endian boundaries: shard `i` of `n` owns
/// keys whose first two bytes fall in `[i*65536/n, (i+1)*65536/n)`.
fn split_points(n: usize) -> Vec<Vec<u8>> {
    (1..n)
        .map(|i| {
            let b = (i as u32 * 65536 / n as u32) as u16;
            b.to_be_bytes().to_vec()
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(line: &str) -> Result<Vec<u8>> {
    if !line.len().is_multiple_of(2) || !line.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(Error::corruption(format!("bad split point in SHARDS marker: {line:?}")));
    }
    Ok((0..line.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("checked hex"))
        .collect())
}

/// Reads the marker: shard count plus the persisted split boundaries
/// (empty for markers written before boundaries were recorded).
fn read_marker(vfs: &dyn Vfs) -> Result<Option<(usize, Vec<Vec<u8>>)>> {
    if !vfs.exists(SHARDS_MARKER) {
        return Ok(None);
    }
    let raw = vfs.read_all(SHARDS_MARKER)?;
    let text = String::from_utf8_lossy(&raw);
    let mut lines = text.lines();
    let head = lines.next().unwrap_or("");
    let n: usize = head
        .trim()
        .parse()
        .map_err(|_| Error::corruption(format!("bad SHARDS marker: {text:?}")))?;
    let splits = lines
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(unhex)
        .collect::<Result<Vec<_>>>()?;
    Ok(Some((n, splits)))
}

/// Writes the marker recording the partitioning: the shard count on the
/// first line, then one hex-encoded boundary per line.
fn write_marker(vfs: &dyn Vfs, ranges: &KeyRanges) -> Result<()> {
    let mut f = vfs.create(SHARDS_MARKER)?;
    let mut body = format!("{}\n", ranges.num_ranges());
    for p in &ranges.split_points {
        body.push_str(&hex(p));
        body.push('\n');
    }
    f.append(body.as_bytes())?;
    f.sync()?;
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Ticker;

    fn sim_env() -> HardwareEnv {
        HardwareEnv::builder().build_sim()
    }

    #[test]
    fn split_points_partition_the_key_space() {
        let splits = split_points(4);
        assert_eq!(splits, vec![vec![0x40, 0x00], vec![0x80, 0x00], vec![0xc0, 0x00]]);
        let db = ShardedDb::builder(Options {
            num_shards: 4,
            ..Options::default()
        })
        .env(&sim_env())
        .open()
        .unwrap();
        assert_eq!(db.ranges.route(b""), 0);
        assert_eq!(db.ranges.route(&[0x3f, 0xff]), 0);
        assert_eq!(db.ranges.route(&[0x40]), 0); // shorter than the boundary
        assert_eq!(db.ranges.route(&[0x40, 0x00]), 1);
        assert_eq!(db.ranges.route(&[0x80, 0x00, 0x01]), 2);
        assert_eq!(db.ranges.route(&[0xff, 0xff]), 3);
    }

    #[test]
    fn explicit_snapshot_rejected_across_shards() {
        let db = ShardedDb::builder(Options {
            num_shards: 4,
            ..Options::default()
        })
        .env(&sim_env())
        .open()
        .unwrap();
        db.put(b"abc", b"v").unwrap();
        let ropts = ReadOptions {
            snapshot_seq: Some(1),
            ..ReadOptions::default()
        };
        let get_err = db.get_opt(&ropts, b"abc").unwrap_err();
        assert_eq!(get_err.kind(), crate::ErrorKind::InvalidArgument);
        let scan_err = db.scan_opt(&ropts, b"", 10).unwrap_err();
        assert_eq!(scan_err.kind(), crate::ErrorKind::InvalidArgument);
        // Implicit snapshots (scan pinning) still work.
        assert_eq!(db.get_opt(&ReadOptions::default(), b"abc").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.scan(b"", 10).unwrap().len(), 1);
    }

    #[test]
    fn explicit_snapshot_passes_through_single_shard() {
        let db = ShardedDb::builder(Options {
            num_shards: 1,
            ..Options::default()
        })
        .env(&sim_env())
        .open()
        .unwrap();
        db.put(b"k", b"v1").unwrap();
        let pin = db.shards[0].snapshot_seq();
        db.put(b"k", b"v2").unwrap();
        let ropts = ReadOptions {
            snapshot_seq: Some(pin),
            ..ReadOptions::default()
        };
        assert_eq!(db.get_opt(&ropts, b"k").unwrap(), Some(b"v1".to_vec()));
    }

    #[test]
    fn routes_reads_writes_and_deletes() {
        let db = ShardedDb::builder(Options {
            num_shards: 4,
            ..Options::default()
        })
        .env(&sim_env())
        .open()
        .unwrap();
        let keys: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b, b, b]).collect();
        for k in &keys {
            db.put(k, k).unwrap();
        }
        for k in &keys {
            assert_eq!(db.get(k).unwrap().as_deref(), Some(k.as_slice()));
        }
        db.delete(&keys[7]).unwrap();
        assert_eq!(db.get(&keys[7]).unwrap(), None);
        // Every shard saw some of the writes.
        for i in 0..db.num_shards() {
            assert!(
                db.shard(i).stats().tickers.get(Ticker::BytesWritten) > 0,
                "shard {i} got no writes"
            );
        }
    }

    #[test]
    fn batch_writes_split_by_range() {
        let db = ShardedDb::builder(Options {
            num_shards: 2,
            ..Options::default()
        })
        .env(&sim_env())
        .open()
        .unwrap();
        let mut batch = WriteBatch::new();
        batch.put(&[0x10], b"low");
        batch.put(&[0xf0], b"high");
        batch.delete(&[0x11]);
        db.write(batch).unwrap();
        assert_eq!(db.get(&[0x10]).unwrap(), Some(b"low".to_vec()));
        assert_eq!(db.get(&[0xf0]).unwrap(), Some(b"high".to_vec()));
        assert_eq!(db.get(&[0x11]).unwrap(), None);
    }

    #[test]
    fn cross_shard_scan_is_ordered_and_complete() {
        let db = ShardedDb::builder(Options {
            num_shards: 4,
            ..Options::default()
        })
        .env(&sim_env())
        .open()
        .unwrap();
        let mut keys: Vec<Vec<u8>> = (0..=255u8).step_by(3).map(|b| vec![b, 0x55]).collect();
        for k in &keys {
            db.put(k, b"v").unwrap();
        }
        keys.sort();
        let got = db.scan(b"", usize::MAX).unwrap();
        assert_eq!(got.len(), keys.len());
        assert!(got.iter().map(|(k, _)| k).eq(keys.iter()), "scan out of order");
        // Mid-range start lands mid-shard and spills across boundaries.
        let tail = db.scan(&[0x7d], 10).unwrap();
        assert_eq!(tail.len(), 10);
        assert!(tail.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(tail[0].0.as_slice() >= [0x7d].as_slice());
    }

    #[test]
    fn shards_share_one_block_cache() {
        let db = ShardedDb::builder(Options {
            num_shards: 4,
            ..Options::default()
        })
        .env(&sim_env())
        .open()
        .unwrap();
        for b in 0..=255u8 {
            db.put(&[b, b], &[b; 64]).unwrap();
        }
        db.flush().unwrap();
        for b in 0..=255u8 {
            assert_eq!(db.get(&[b, b]).unwrap(), Some(vec![b; 64]));
        }
        let agg = db.stats();
        // All four shards report the SAME shared cache, and it served
        // inserts from every shard's reads.
        let c0 = db.shard(0).stats().block_cache;
        let c3 = db.shard(3).stats().block_cache;
        assert_eq!(c0.inserts, c3.inserts);
        assert!(agg.block_cache.inserts >= 4, "cache unused: {:?}", agg.block_cache);
    }

    #[test]
    fn reopen_with_different_shard_count_is_rejected() {
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let env = sim_env();
        let opts = Options {
            num_shards: 4,
            ..Options::default()
        };
        let db = ShardedDb::builder(opts.clone())
            .env(&env)
            .vfs(Arc::clone(&vfs))
            .open()
            .unwrap();
        db.put(b"k", b"v").unwrap();
        drop(db);
        let err = match ShardedDb::builder(Options {
            num_shards: 2,
            ..opts.clone()
        })
        .env(&env)
        .vfs(Arc::clone(&vfs))
        .open()
        {
            Err(e) => e,
            Ok(_) => panic!("reopen with a different shard count succeeded"),
        };
        assert!(err.to_string().contains("4 shards"), "{err}");
        // Matching count reopens and recovers.
        let db = ShardedDb::builder(opts).env(&env).vfs(vfs).open().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn aggregated_stats_sum_tickers_and_levels() {
        let db = ShardedDb::builder(Options {
            num_shards: 2,
            ..Options::default()
        })
        .env(&sim_env())
        .open()
        .unwrap();
        db.put(&[0x01], b"a").unwrap();
        db.put(&[0xfe], b"b").unwrap();
        db.flush().unwrap();
        db.wait_background_idle().unwrap();
        let agg = db.stats();
        let per: u64 = (0..2)
            .map(|i| db.shard(i).stats().tickers.get(Ticker::BytesWritten))
            .sum();
        assert_eq!(agg.tickers.get(Ticker::BytesWritten), per);
        let files: usize = agg.levels.iter().map(|(f, _)| f).sum();
        let per_files: usize = (0..2)
            .map(|i| db.shard(i).stats().levels.iter().map(|(f, _)| f).sum::<usize>())
            .sum();
        assert_eq!(files, per_files);
        let text = db.stats_text();
        assert!(text.contains("Aggregate across 2 shards"), "{text}");
        assert!(text.contains("** Shard 1 **"), "{text}");
    }

    #[test]
    fn custom_split_points_route_skewed_keys() {
        // Decimal-rendered keys all start with '0': the default binary
        // boundaries would put everything in shard 0.
        let db = ShardedDb::builder(Options {
            num_shards: 3,
            ..Options::default()
        })
        .env(&sim_env())
        .split_points(vec![b"0100".to_vec(), b"0200".to_vec()])
        .open()
        .unwrap();
        for i in 0..300u32 {
            let k = format!("{i:04}");
            db.put(k.as_bytes(), b"v").unwrap();
        }
        for i in 0..db.num_shards() {
            assert!(
                db.shard(i).stats().tickers.get(Ticker::BytesWritten) > 0,
                "shard {i} got no writes"
            );
        }
        // Scans still come back globally ordered across custom bounds.
        let got = db.scan(b"", usize::MAX).unwrap();
        assert_eq!(got.len(), 300);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn invalid_split_points_are_rejected() {
        let cases: Vec<Vec<Vec<u8>>> = vec![
            vec![b"a".to_vec()],                  // wrong count for 3 shards
            vec![b"b".to_vec(), b"a".to_vec()],   // out of order
            vec![b"a".to_vec(), b"a".to_vec()],   // duplicate
            vec![Vec::new(), b"a".to_vec()],      // empty boundary
        ];
        for points in cases {
            let r = ShardedDb::builder(Options {
                num_shards: 3,
                ..Options::default()
            })
            .env(&sim_env())
            .split_points(points.clone())
            .open();
            assert!(r.is_err(), "accepted bad split points {points:?}");
        }
    }

    #[test]
    fn reopen_with_different_split_points_is_rejected() {
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let env = sim_env();
        let opts = Options {
            num_shards: 2,
            ..Options::default()
        };
        let db = ShardedDb::builder(opts.clone())
            .env(&env)
            .vfs(Arc::clone(&vfs))
            .split_points(vec![b"m".to_vec()])
            .open()
            .unwrap();
        db.put(b"k", b"v").unwrap();
        drop(db);
        // Same count, different boundary: keys would silently misroute.
        let r = ShardedDb::builder(opts.clone())
            .env(&env)
            .vfs(Arc::clone(&vfs))
            .split_points(vec![b"q".to_vec()])
            .open();
        match r {
            Err(e) => assert!(e.to_string().contains("split points"), "{e}"),
            Ok(_) => panic!("reopen with different split points succeeded"),
        }
        // Matching boundaries reopen fine.
        let db = ShardedDb::builder(opts)
            .env(&env)
            .vfs(vfs)
            .split_points(vec![b"m".to_vec()])
            .open()
            .unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn reopen_without_split_points_adopts_stored_boundaries() {
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let env = sim_env();
        let opts = Options {
            num_shards: 2,
            ..Options::default()
        };
        // Created with a custom boundary: "zz" routes to shard 1 only
        // under the stored split, not under the default binary one.
        let db = ShardedDb::builder(opts.clone())
            .env(&env)
            .vfs(Arc::clone(&vfs))
            .split_points(vec![b"m".to_vec()])
            .open()
            .unwrap();
        db.put(b"zz", b"v").unwrap();
        assert_eq!(db.ranges.route(b"zz"), 1);
        drop(db);
        let db = ShardedDb::builder(opts).env(&env).vfs(vfs).open().unwrap();
        assert_eq!(db.ranges.route(b"zz"), 1, "reopen ignored stored boundaries");
        assert_eq!(db.get(b"zz").unwrap(), Some(b"v".to_vec()));
    }
}
