//! Real-concurrency integration tests: OS writer/reader threads sharing
//! one database on real files, plus property tests for group-commit
//! atomicity and ordering.
//!
//! Everything here runs the wall-clock execution mode (`build_wall` +
//! `StdVfs`), which is where the group-commit write path and the
//! background job pool are live.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::vfs::StdVfs;
use lsm_kvs::{Db, KvEngine, ShardedDb, WriteBatch, WriteOptions};

/// Unique scratch directory, removed on drop.
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "lsm-conc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir { path }
    }

    fn as_str(&self) -> String {
        self.path.to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn open_real(dir: &TempDir, opts: Options) -> Db {
    let env = HardwareEnv::builder().build_wall();
    Db::builder(opts).env(&env).vfs(Arc::new(StdVfs::new(dir.as_str()).unwrap())).open().unwrap()
}

fn small_opts() -> Options {
    Options {
        write_buffer_size: 256 << 10,
        target_file_size_base: 256 << 10,
        max_bytes_for_level_base: 1 << 20,
        ..Options::default()
    }
}

#[test]
fn concurrent_writers_and_readers_no_lost_updates() {
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const PER: usize = 300;

    // The default row, and the serial-visibility commit order (what the
    // expert model recommends below four cores).
    let rows = [
        small_opts(),
        Options {
            enable_pipelined_write: false,
            allow_concurrent_memtable_write: true,
            ..small_opts()
        },
    ];
    for opts in rows {
        let dir = TempDir::new("stress");
        let db = open_real(&dir, opts);

        let value_of = |t: usize, i: usize| -> Vec<u8> {
            let mut v = vec![0u8; 512];
            v[..8].copy_from_slice(&((t * PER + i) as u64).to_le_bytes());
            v
        };

        std::thread::scope(|scope| {
            for t in 0..WRITERS {
                let db = db.clone();
                scope.spawn(move || {
                    for i in 0..PER {
                        let key = format!("stress-{t}-{i:04}");
                        let mut batch = WriteBatch::with_capacity(1);
                        batch.put(key.as_bytes(), &value_of(t, i));
                        // A sprinkle of synced writes keeps the group-commit
                        // leader path and the fast path both exercised.
                        let wo = if i % 64 == 0 {
                            WriteOptions::synced()
                        } else {
                            WriteOptions::default()
                        };
                        db.write_opt(&wo, batch).unwrap();
                    }
                });
            }
            for r in 0..READERS {
                let db = db.clone();
                scope.spawn(move || {
                    // Readers race the writers: any value observed must be
                    // complete (no torn 512-byte payloads).
                    for i in 0..PER {
                        let t = (r + i) % WRITERS;
                        let key = format!("stress-{t}-{i:04}");
                        if let Some(v) = db.get(key.as_bytes()).unwrap() {
                            assert_eq!(v, value_of(t, i), "torn read of {key}");
                        }
                    }
                });
            }
        });

        // Sequence numbers were handed out contiguously: one per operation.
        assert_eq!(db.stats().last_sequence, (WRITERS * PER) as u64);

        // Every write that was acknowledged is visible: no lost updates.
        for t in 0..WRITERS {
            for i in 0..PER {
                let key = format!("stress-{t}-{i:04}");
                assert_eq!(db.get(key.as_bytes()).unwrap(), Some(value_of(t, i)), "{key}");
            }
        }
    }
}

#[test]
fn batches_are_atomic_under_concurrent_scans() {
    const BATCHES: usize = 400;

    let dir = TempDir::new("atomic");
    let db = open_real(&dir, Options::default());

    std::thread::scope(|scope| {
        let writer = db.clone();
        scope.spawn(move || {
            for v in 0..BATCHES as u64 {
                let mut batch = WriteBatch::with_capacity(2);
                batch.put(b"atomic-a", &v.to_le_bytes());
                batch.put(b"atomic-b", &v.to_le_bytes());
                writer.write_opt(&WriteOptions::default(), batch).unwrap();
            }
        });
        let reader = db.clone();
        scope.spawn(move || {
            for _ in 0..BATCHES {
                // A scan reads at one snapshot; both keys of a batch must
                // carry the same value at every snapshot.
                let entries = reader.scan(b"atomic-", 2).unwrap();
                if entries.len() == 2 {
                    assert_eq!(
                        entries[0].1, entries[1].1,
                        "scan saw a half-applied batch"
                    );
                }
            }
        });
    });

    let last = ((BATCHES - 1) as u64).to_le_bytes().to_vec();
    assert_eq!(db.get(b"atomic-a").unwrap(), Some(last.clone()));
    assert_eq!(db.get(b"atomic-b").unwrap(), Some(last));
}

#[test]
fn manual_flush_claims_fewer_memtables_than_min_merge() {
    let dir = TempDir::new("manual-flush");
    let opts = Options {
        min_write_buffer_number_to_merge: 2,
        max_write_buffer_number: 4,
        ..small_opts()
    };
    let db = Arc::new(open_real(&dir, opts));
    db.put(b"k", b"v").unwrap();
    // One immutable memtable is below the merge threshold and the write
    // path is not blocked; only the manual request makes it claimable.
    let (tx, rx) = std::sync::mpsc::channel();
    let flusher = Arc::clone(&db);
    std::thread::spawn(move || {
        let _ = tx.send(flusher.flush());
    });
    rx.recv_timeout(std::time::Duration::from_secs(20))
        .expect("Db::flush() never returned")
        .unwrap();
    let stats = db.stats();
    assert_eq!(stats.immutable_memtables, 0);
    assert_eq!(stats.levels[0].0, 1, "the lone memtable reached L0");
    assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn recovery_after_drop_with_background_work_in_flight() {
    const KEYS: usize = 1500;

    let dir = TempDir::new("recover");
    let mut opts = small_opts();
    opts.write_buffer_size = 128 << 10;
    {
        let db = open_real(&dir, opts.clone());
        for i in 0..KEYS {
            let key = format!("recover-{i:05}");
            let mut batch = WriteBatch::with_capacity(1);
            batch.put(key.as_bytes(), &[b'r'; 512]);
            db.write_opt(&WriteOptions::default(), batch).unwrap();
        }
        // Drop immediately: flushes/compactions are likely mid-flight.
        // The handle drop joins the worker pool, so every acknowledged
        // write must survive the reopen.
    }
    let db = open_real(&dir, opts);
    for i in 0..KEYS {
        let key = format!("recover-{i:05}");
        assert_eq!(
            db.get(key.as_bytes()).unwrap(),
            Some(vec![b'r'; 512]),
            "{key} lost across reopen"
        );
    }
    assert_eq!(db.stats().last_sequence, KEYS as u64);
}

/// Sharded stress: four writers on disjoint key ranges (one per shard)
/// race a scanner doing cross-shard scans. Within a shard a scan reads at
/// one pinned snapshot, so a marker pair written atomically in one batch
/// must never be observed torn; the full cross-shard scan must always be
/// in strict key order; and after the storm every acknowledged write is
/// present — shards drop nothing while sharing one job budget.
#[test]
fn sharded_disjoint_writers_with_cross_shard_scans() {
    const PER: u32 = 400;
    const PREFIXES: [u8; 4] = [0x00, 0x40, 0x80, 0xc0];

    let dir = TempDir::new("shard-stress");
    let env = HardwareEnv::builder().build_wall();
    let mut opts = small_opts();
    opts.num_shards = 4;
    let db = ShardedDb::builder(opts)
        .env(&env)
        .vfs(Arc::new(StdVfs::new(dir.as_str()).unwrap()))
        .open()
        .unwrap();
    assert_eq!(db.num_shards(), 4);

    let unique_key = |p: u8, i: u32| -> Vec<u8> {
        let mut k = vec![p, 1];
        k.extend_from_slice(&i.to_be_bytes());
        k
    };

    std::thread::scope(|scope| {
        for p in PREFIXES {
            let db = db.clone();
            scope.spawn(move || {
                for i in 0..PER {
                    // One unique key plus an atomic marker pair, all in
                    // this writer's shard, committed as one batch.
                    let mut batch = WriteBatch::with_capacity(3);
                    batch.put(&unique_key(p, i), &i.to_le_bytes());
                    batch.put(&[p, 0, b'a'], &i.to_le_bytes());
                    batch.put(&[p, 0, b'b'], &i.to_le_bytes());
                    db.write_opt(&WriteOptions::default(), batch).unwrap();
                }
            });
        }
        let scanner = db.clone();
        scope.spawn(move || {
            for _ in 0..150 {
                let got = scanner.scan(b"", usize::MAX).unwrap();
                for w in got.windows(2) {
                    assert!(w[0].0 < w[1].0, "cross-shard scan out of key order");
                }
                for p in PREFIXES {
                    let pair = scanner.scan(&[p, 0], 2).unwrap();
                    if pair.len() == 2 && pair[0].0 == [p, 0, b'a'] && pair[1].0 == [p, 0, b'b'] {
                        assert_eq!(
                            pair[0].1, pair[1].1,
                            "scan snapshot tore an atomic batch in shard of {p:#x}"
                        );
                    }
                }
            }
        });
    });

    // No lost updates, and the facade's scan sees exactly everything.
    for p in PREFIXES {
        for i in 0..PER {
            assert_eq!(
                db.get(&unique_key(p, i)).unwrap(),
                Some(i.to_le_bytes().to_vec()),
                "lost write {p:#x}/{i}"
            );
        }
    }
    let all = db.scan(b"", usize::MAX).unwrap();
    assert_eq!(all.len(), PREFIXES.len() * (PER as usize + 2));

    // Every shard really took part: one writer each, three ops per batch,
    // sequence numbers handed out shard-locally.
    for i in 0..db.num_shards() {
        assert_eq!(
            db.shard(i).stats().last_sequence,
            3 * PER as u64,
            "shard {i} missed writes"
        );
    }
    assert_eq!(db.stats().last_sequence, 3 * PER as u64);
    db.wait_background_idle().unwrap();
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 1..12)
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two threads each submit a sequence of multi-op batches over their
    /// own key namespace. Group commit may interleave batches between the
    /// threads, but within a thread batches must apply fully and in
    /// submission order — so the final database equals each thread's
    /// batches replayed sequentially.
    #[test]
    fn group_committed_batches_apply_atomically_in_order(
        ops_a in vec((key_strategy(), value_strategy()), 1..60),
        ops_b in vec((key_strategy(), value_strategy()), 1..60),
        batch_size in 1usize..7,
    ) {
        let dir = TempDir::new("prop");
        let db = open_real(&dir, Options::default());

        let namespaced = |tag: u8, ops: &[(Vec<u8>, Vec<u8>)]| -> Vec<(Vec<u8>, Vec<u8>)> {
            ops.iter()
                .map(|(k, v)| {
                    let mut key = vec![tag];
                    key.extend_from_slice(k);
                    (key, v.clone())
                })
                .collect()
        };
        let ops_a = namespaced(b'a', &ops_a);
        let ops_b = namespaced(b'b', &ops_b);
        let total = (ops_a.len() + ops_b.len()) as u64;

        std::thread::scope(|scope| {
            for ops in [&ops_a, &ops_b] {
                let db = db.clone();
                scope.spawn(move || {
                    for chunk in ops.chunks(batch_size) {
                        let mut batch = WriteBatch::with_capacity(chunk.len());
                        for (k, v) in chunk {
                            batch.put(k, v);
                        }
                        db.write_opt(&WriteOptions::default(), batch).unwrap();
                    }
                });
            }
        });

        // One sequence number per operation, none skipped or reused.
        prop_assert_eq!(db.stats().last_sequence, total);

        // Last-write-wins per key within each thread's namespace.
        let mut model = std::collections::BTreeMap::new();
        for (k, v) in ops_a.iter().chain(ops_b.iter()) {
            model.insert(k.clone(), v.clone());
        }
        for (k, v) in &model {
            prop_assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "key {:?}", k);
        }
    }
}

/// Regression test for the snapshot consistency bug: `stats()` and
/// `used_bytes()` used to take the shard locks separately, so a reader
/// could observe an insert's byte charge without its counter (or vice
/// versa). [`BlockCache::snapshot`] reads both under one lock pass;
/// with fixed-size blocks the invariant
/// `used_bytes == (inserts - evictions) * charge` must hold on every
/// observation, even mid-storm.
#[test]
fn cache_snapshot_invariant_holds_under_concurrent_inserts() {
    use lsm_kvs::{cache_key, Block, BlockCache, FileNumber};

    // 936-byte blocks are charged 936 + 64 bookkeeping = 1000 bytes.
    const CHARGE: u64 = 1000;
    let cache = Arc::new(BlockCache::new(50 * CHARGE, 2));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        let key = cache_key(FileNumber(t + 1), i * 4096);
                        cache.insert(key, Arc::new(Block::sentinel(936)));
                        let _ = cache.get(&key);
                    }
                })
            })
            .collect();
        let checker = {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut observations = 0u64;
                // Observe before checking `stop`: on a busy two-core host
                // the writers can finish before this thread first runs.
                loop {
                    let snap = cache.snapshot();
                    assert_eq!(
                        snap.used_bytes,
                        (snap.stats.inserts - snap.stats.evictions) * CHARGE,
                        "snapshot caught counters and bytes out of sync \
                         after {observations} observations"
                    );
                    assert!(snap.used_bytes <= snap.capacity);
                    observations += 1;
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
                observations
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let observations = checker.join().unwrap();
        assert!(observations > 0, "checker never observed a snapshot");
    });

    let final_snap = cache.snapshot();
    assert_eq!(
        final_snap.used_bytes,
        (final_snap.stats.inserts - final_snap.stats.evictions) * CHARGE
    );
    assert!(final_snap.stats.evictions > 0, "capacity forced evictions");
}
