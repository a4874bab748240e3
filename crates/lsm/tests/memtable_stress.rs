//! Multi-threaded stress tests for the memtable through the full
//! database: N writer threads, M snapshot readers, and a scanner,
//! asserting get-after-put visibility, snapshot isolation, and ordered
//! iteration under churn. A proptest cross-checks striped concurrent
//! inserts into `MemTable` against a test-local sorted-map model.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use hw_sim::HardwareEnv;
use lsm_kvs::options::{MemtableRep, Options};
use lsm_kvs::vfs::StdVfs;
use lsm_kvs::{Db, MemTable, ReadOptions, ValueType};

/// Unique scratch directory, removed on drop.
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "lsm-memstress-{tag}-{}-{:?}",
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

/// Writers must see their own committed writes immediately; readers must
/// only ever observe well-formed values; a scanner must always see keys
/// in strictly ascending order. All three run concurrently.
#[test]
fn writers_snapshot_readers_and_scanner() {
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const PER: usize = 400;

    let dir = TempDir::new("wrs");
    let db = open_real(&dir, small_opts());
    let stop = AtomicBool::new(false);

    // Value encodes the key so any reader can validate any entry.
    let value_of = |t: usize, i: usize| format!("val-{t:02}-{i:06}").into_bytes();
    let key_of = |t: usize, i: usize| format!("w{t:02}-{i:06}").into_bytes();

    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let db = db.clone();
            scope.spawn(move || {
                for i in 0..PER {
                    let (k, v) = (key_of(t, i), value_of(t, i));
                    db.put(&k, &v).unwrap();
                    // Get-after-put: a committed write is visible to
                    // the writer that performed it.
                    assert_eq!(db.get(&k).unwrap().as_deref(), Some(v.as_slice()));
                }
            });
        }
        for _ in 0..READERS {
            let db = db.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut rounds = 0u32;
                while !stop.load(Ordering::Relaxed) && rounds < 10_000 {
                    // Pin a snapshot; everything read under it must be
                    // well-formed and consistent with its key.
                    let snap = db.snapshot_seq();
                    let ropts = ReadOptions { snapshot_seq: Some(snap), ..Default::default() };
                    for t in 0..WRITERS {
                        if let Some(v) = db.get_opt(&ropts, &key_of(t, rounds as usize % PER)).unwrap() {
                            assert_eq!(v, value_of(t, rounds as usize % PER));
                        }
                    }
                    rounds += 1;
                }
            });
        }
        {
            let db = db.clone();
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let entries = db.scan(b"", usize::MAX).unwrap();
                    for pair in entries.windows(2) {
                        assert!(pair[0].0 < pair[1].0, "scan out of order");
                    }
                    for (k, v) in &entries {
                        // w{t}-{i} must map to val-{t}-{i}.
                        let key = String::from_utf8(k.clone()).unwrap();
                        let val = String::from_utf8(v.clone()).unwrap();
                        assert_eq!(val, format!("val-{}", &key[1..]), "torn entry");
                    }
                }
            });
        }
        // Writers finish first; then release readers and the scanner.
        // (Scoped threads join at the end of the scope; stop after a
        // short settle so the scanner sees the final state too.)
        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
    });

    // Final state: every written key present with its final value.
    for t in 0..WRITERS {
        for i in (0..PER).step_by(37) {
            assert_eq!(db.get(&key_of(t, i)).unwrap().unwrap(), value_of(t, i));
        }
    }
    let all = db.scan(b"", usize::MAX).unwrap();
    assert_eq!(all.len(), WRITERS * PER);
}

/// A scan pinned to a snapshot must return the pre-snapshot values even
/// while concurrent writers overwrite every key.
///
/// The overwritten versions must stay memtable-resident for the pinned
/// scan to be answerable at all: flush deliberately drops shadowed
/// versions (the engine does not track outstanding snapshots), so the
/// write buffer is sized to hold the whole history. What this pins down
/// is exactly the concurrent-memtable snapshot read: new versions land
/// in the same memtable the scan cursors are stepping through.
#[test]
fn snapshot_pinned_scan_ignores_concurrent_overwrites() {
    const N: usize = 1_000;

    let dir = TempDir::new("snap");
    let mut opts = small_opts();
    opts.write_buffer_size = 64 << 20;
    let db = open_real(&dir, opts);

    for i in 0..N {
        db.put(format!("k{i:06}").as_bytes(), b"v1").unwrap();
    }
    let snap = db.snapshot_seq();
    let ropts = ReadOptions { snapshot_seq: Some(snap), ..Default::default() };

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..2usize {
            let db = db.clone();
            scope.spawn(move || {
                let mut big = vec![b'.'; 512];
                big[..3].copy_from_slice(b"v2-");
                for i in (t..N).step_by(2) {
                    db.put(format!("k{i:06}").as_bytes(), &big).unwrap();
                }
            });
        }
        let db2 = db.clone();
        let stop = &stop;
        scope.spawn(move || {
            // Keep scanning under the pinned snapshot while the
            // overwrites land; every observation must be pre-snapshot.
            while !stop.load(Ordering::Relaxed) {
                let entries = db2.scan_opt(&ropts, b"", usize::MAX).unwrap();
                assert_eq!(entries.len(), N, "pinned scan lost or gained keys");
                for (k, v) in entries {
                    assert_eq!(v, b"v1", "snapshot leak at {}", String::from_utf8_lossy(&k));
                }
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });

    // After the writers, an unpinned scan sees only new values.
    for (_, v) in db.scan(b"", usize::MAX).unwrap() {
        assert!(v.starts_with(b"v2-"), "overwrite lost");
    }
}

// A history applied to one `MemTable` from several threads, striped,
// matches a sorted map filled single-threaded: same per-key lookup
// results at the final and a half-way sequence, identical ordered
// iteration, and a stepping cursor that agrees with the view.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn concurrent_inserts_match_sorted_map_model(
        ops in vec((0u8..16, 0u64..2000), 200..600),
        threads in 2usize..5,
    ) {
        use std::cmp::Reverse;

        use lsm_kvs::{InternalKey, MemTableCursor};

        let mem = Arc::new(MemTable::new(0));
        // (user key, newest sequence first) -> (type, value): internal-key
        // order, spelled with std's own comparators.
        let mut model = BTreeMap::new();

        // Deterministic op list; sequences fixed up-front so the final
        // state is schedule-independent even when applied concurrently.
        let history: Vec<(u64, ValueType, Vec<u8>, Vec<u8>)> = ops
            .iter()
            .enumerate()
            .map(|(n, (kb, val))| {
                let key = format!("key-{:03}", kb).into_bytes();
                if val % 7 == 0 {
                    (n as u64 + 1, ValueType::Deletion, key, Vec::new())
                } else {
                    (n as u64 + 1, ValueType::Value, key, val.to_le_bytes().to_vec())
                }
            })
            .collect();

        for (seq, ty, key, value) in &history {
            model.insert((key.clone(), Reverse(*seq)), (*ty, value.clone()));
        }
        std::thread::scope(|scope| {
            for t in 0..threads {
                let mem = Arc::clone(&mem);
                let history = &history;
                scope.spawn(move || {
                    for (seq, ty, key, value) in history.iter().skip(t).step_by(threads) {
                        mem.add(*seq, *ty, key, value);
                    }
                });
            }
        });

        let model_get = |key: &[u8], snapshot: u64| {
            model
                .range((key.to_vec(), Reverse(snapshot))..)
                .next()
                .filter(|((k, _), _)| k == key)
                .map(|(_, entry)| entry.clone())
        };
        let final_seq = history.len() as u64 + 1;
        prop_assert_eq!(mem.len(), model.len());
        for kb in 0u8..16 {
            let key = format!("key-{:03}", kb).into_bytes();
            for snapshot in [final_seq, final_seq / 2] {
                prop_assert_eq!(
                    mem.get(&key, snapshot),
                    model_get(&key, snapshot),
                    "key {:?} at {}", key, snapshot
                );
            }
        }
        // Ordered iteration is identical entry by entry.
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .map(|((key, Reverse(seq)), (ty, value))| {
                (InternalKey::new(key, *seq, *ty).encoded().to_vec(), value.clone())
            })
            .collect();
        let viewed: Vec<(Vec<u8>, Vec<u8>)> =
            mem.view().iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        prop_assert_eq!(&viewed, &expected);

        // And the stepping cursor agrees with the view iterator. (Seek
        // targets are internal keys; this one sorts before every entry.)
        let first = InternalKey::new(b"", lsm_kvs::MAX_SEQUENCE, ValueType::Value);
        let mut cur = MemTableCursor::seek(Arc::clone(&mem), first.encoded());
        let mut stepped = Vec::new();
        while let Some(k) = cur.key() {
            stepped.push((k.to_vec(), cur.value().unwrap().to_vec()));
            cur.advance();
        }
        prop_assert_eq!(stepped, viewed);
    }
}

/// Sanity: a memtable-level deleted key reports `Deletion`, not absence,
/// whichever `MemtableRep` value the four-argument constructor is handed
/// (both build the same table; the frozen ladder still passes each).
#[test]
fn facade_reports_deletions_for_both_reps() {
    for rep in [MemtableRep::BTreeMap, MemtableRep::SkipList] {
        let mt = MemTable::with_config(rep, 0, 0, 0);
        mt.add(1, ValueType::Value, b"k", b"v");
        mt.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(mt.get(b"k", 10), Some((ValueType::Deletion, Vec::new())));
        assert_eq!(mt.get(b"k", 1), Some((ValueType::Value, b"v".to_vec())));
    }
}
