//! Key-range sharded database: N independent LSM trees behind one engine.
//!
//! A [`ShardedDb`] partitions the key space into `num_shards` contiguous
//! ranges, each owned by a full [`Db`] (its own memtable, WAL, and SST
//! tree) living under a `s{i}_` name prefix on the shared VFS. Writes
//! route by key, so group commit stays shard-local and writers on
//! disjoint ranges never contend on a memtable or WAL mutex — the point
//! of sharding on multi-core hardware.
//!
//! The routing itself — every [`KvEngine`](crate::KvEngine) operation —
//! is the [`RangeFanout`] blanket impl in `ranges.rs`; a shard is an
//! ordinary [`Db`] that does not know it has siblings. What this module
//! owns is where shards live (the `SHARDS` marker, the `s{i}_`
//! namespaces), the checkpoint that spans them, and the one resource
//! they are handed in common: a [`JobBudget`] of `max_background_jobs`
//! permits, so N worker pools run as many jobs at once as one database
//! would.

use std::sync::Arc;

use hw_sim::HardwareEnv;

use crate::db::Db;
use crate::error::{Error, Result};
use crate::options::Options;
use crate::ranges::{KeyRanges, RangeFanout};
use crate::runtime::JobBudget;
use crate::vfs::{MemVfs, NamespaceVfs, Vfs};

/// Marker file in the base directory recording the shard count, so a
/// database cannot be reopened with a different partitioning (keys would
/// silently land in the wrong tree).
const SHARDS_MARKER: &str = "SHARDS";

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
    /// tuned live via `set_options` survives a restart. See
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
/// serving one key space. Use it through [`KvEngine`](crate::KvEngine);
/// see the module docs for what is per shard and what is shared.
///
/// Like [`Db`], cloning is cheap (shared handles) and every method takes
/// `&self`, so one handle can be shared across threads.
#[derive(Clone)]
pub struct ShardedDb {
    shards: Vec<Db>,
    /// Which shard owns which keys. Two-byte big-endian boundaries by
    /// default, caller-supplied via [`ShardedDbBuilder::split_points`]
    /// otherwise.
    ranges: KeyRanges,
    /// The un-prefixed VFS all shards live on, kept so
    /// [`checkpoint`](Self::checkpoint) can hard-link across shard
    /// namespaces into one checkpoint directory.
    base_vfs: Arc<dyn Vfs>,
}

impl RangeFanout for ShardedDb {
    type Part = Db;

    fn ranges(&self) -> &KeyRanges {
        &self.ranges
    }

    fn part(&self, idx: usize) -> impl std::ops::Deref<Target = Db> {
        &self.shards[idx]
    }

    fn title(&self) -> String {
        format!("Aggregate across {} shards", self.shards.len())
    }

    fn part_title(&self, idx: usize) -> String {
        format!("Shard {idx}")
    }

    fn checkpoint_parts(&self, dir: &str) -> Result<()> {
        self.checkpoint(dir)
    }
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

        // Every shard runs the caller's configuration (`num_shards`
        // included, so any one of them can answer `options_ini`) with an
        // equal share of the block cache, so memory does not multiply.
        let mut shard_opts = opts;
        shard_opts.block_cache_size /= n as u64;
        let budget = Arc::new(JobBudget::default());
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let ns = Arc::new(NamespaceVfs::new(Arc::clone(&vfs), format!("s{i}_")));
            let db = Db::builder(shard_opts.clone())
                .env(env)
                .vfs(ns)
                .load_options_file(load_options_file)
                .job_budget(Arc::clone(&budget))
                .open()?;
            shards.push(db);
        }
        Ok(ShardedDb {
            shards,
            ranges,
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

    /// Takes an online checkpoint of every shard under `dir/` on the base
    /// VFS, preserving the `s{i}_` shard layout plus the `SHARDS` marker,
    /// so the checkpoint reopens with a `ShardedDb` builder pointed at a
    /// [`NamespaceVfs`] prefixed `"{dir}/"`. Each shard checkpoints at
    /// its own point in time (there is no cross-shard transaction to cut
    /// consistently); per shard the same guarantee as [`Db::checkpoint`]
    /// holds.
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
        self.shards.iter().try_for_each(Db::compact_all)
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
    for p in ranges.split_points() {
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
    use crate::batch::WriteBatch;
    use crate::db::WriteOptions;
    use crate::stats::Ticker;
    use crate::KvEngine;

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
        db.write_opt(&WriteOptions::default(), batch).unwrap();
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
    fn each_shard_has_its_own_share_of_the_block_cache() {
        let opts = Options {
            num_shards: 4,
            ..Options::default()
        };
        let total = opts.block_cache_size;
        let db = ShardedDb::builder(opts).env(&sim_env()).open().unwrap();
        for b in 0..=255u8 {
            db.put(&[b, b], &[b; 64]).unwrap();
        }
        db.flush().unwrap();
        for b in 0..=255u8 {
            assert_eq!(db.get(&[b, b]).unwrap(), Some(vec![b; 64]));
        }
        // Four caches of a quarter each, so memory does not multiply by
        // the shard count; the aggregate counts all four.
        let per_shard: Vec<_> = (0..4).map(|i| db.shard(i).stats()).collect();
        let agg = db.stats();
        for (i, s) in per_shard.iter().enumerate() {
            assert_eq!(s.block_cache_capacity, total / 4, "shard {i}");
            assert!(s.block_cache.inserts >= 1, "shard {i} cache unused: {:?}", s.block_cache);
        }
        assert_eq!(agg.block_cache_capacity, total);
        assert_eq!(
            agg.block_cache.inserts,
            per_shard.iter().map(|s| s.block_cache.inserts).sum::<u64>()
        );
    }

    /// Four shards on one simulated machine: its memory model must hold
    /// the sum of their memtables, not whichever shard reported last.
    #[test]
    fn sim_memory_model_sums_every_shards_memtables() {
        let env = sim_env();
        let db = ShardedDb::builder(Options {
            num_shards: 4,
            ..Options::default()
        })
        .env(&env)
        .open()
        .unwrap();
        // A database reports its usage on every 1024th write, so after
        // exactly 1024 puts per shard every report is current.
        for i in 0..1024u16 {
            for prefix in [0x00, 0x40, 0x80, 0xc0] {
                let [hi, lo] = i.to_be_bytes();
                db.put(&[prefix, hi, lo], &[prefix; 64]).unwrap();
            }
        }
        let per_shard: Vec<u64> = (0..4).map(|i| db.shard(i).stats().memtable_bytes).collect();
        assert!(per_shard.iter().all(|&bytes| bytes > 64 * 1024), "{per_shard:?}");
        assert_eq!(
            env.memory().used_by(hw_sim::MemoryUser::Memtables),
            per_shard.iter().sum::<u64>(),
            "per shard: {per_shard:?}"
        );
        // A closed database holds no memtable.
        drop(db);
        assert_eq!(env.memory().used_by(hw_sim::MemoryUser::Memtables), 0);
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
