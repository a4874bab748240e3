//! Multi-threaded stress tests for the memtable through the full
//! database: N writer threads, M snapshot readers, and a scanner,
//! asserting get-after-put visibility, snapshot isolation, and ordered
//! iteration under churn. A proptest cross-checks striped concurrent
//! inserts into `MemTable` against a test-local sorted-map model.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use hw_sim::HardwareEnv;
use lsm_kvs::options::{MemtableRep, Options};
use lsm_kvs::vfs::StdVfs;
use lsm_kvs::{Db, MemTable, ReadOptions, ValueType};
use testkit::TempDir;

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

    let dir = TempDir::new("memstress-wrs");
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

    let dir = TempDir::new("memstress-snap");
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

        let mem = Arc::new(MemTable::new());
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

/// One user key under 5,000 versions, inserted from several threads in a
/// shuffled sequence order: `get` at every snapshot returns the newest
/// version at or below it, and the view walks the versions newest first.
#[test]
fn hot_key_versions_inserted_out_of_order_read_at_every_snapshot() {
    const VERSIONS: u64 = 5_000;
    const THREADS: usize = 4;

    let mut order: Vec<u64> = (1..=VERSIONS).collect();
    let mut rng = testkit::Rng(0x5eed_0f0f_f1ce);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    // Every seventh version is a tombstone; the others carry their
    // sequence, so a wrong version shows as a wrong value.
    let deleted = |seq: u64| seq.is_multiple_of(7);
    let ty_of = |seq: u64| if deleted(seq) { ValueType::Deletion } else { ValueType::Value };
    let value_of = |seq: u64| if deleted(seq) { Vec::new() } else { seq.to_le_bytes().to_vec() };

    let mem = MemTable::new();
    // A neighbour on each side, so a lookup that strays off the hot key
    // finds something else instead of nothing.
    mem.add(VERSIONS + 1, ValueType::Value, b"hot", b"before");
    mem.add(VERSIONS + 2, ValueType::Value, b"hot\0", b"after");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (mem, order) = (&mem, &order);
            scope.spawn(move || {
                for &seq in order.iter().skip(t).step_by(THREADS) {
                    mem.add(seq, ty_of(seq), b"hot!", &value_of(seq));
                }
            });
        }
    });

    assert_eq!(mem.len() as u64, VERSIONS + 2);
    assert_eq!(mem.get(b"hot!", 0), None);
    for snapshot in 1..=VERSIONS + 2 {
        let newest = snapshot.min(VERSIONS);
        assert_eq!(
            mem.get(b"hot!", snapshot),
            Some((ty_of(newest), value_of(newest))),
            "snapshot {snapshot}"
        );
    }
    let view = mem.view();
    let versions: Vec<u64> = view
        .iter()
        .filter_map(|(k, _)| {
            let key = lsm_kvs::InternalKey::decode(k).unwrap();
            (key.user_key() == b"hot!").then(|| key.sequence())
        })
        .collect();
    assert_eq!(versions, (1..=VERSIONS).rev().collect::<Vec<_>>());
}

/// A cursor stepped while another thread inserts keys ahead of it and
/// behind it, and new versions of keys on both sides: it yields strictly
/// increasing internal keys, none before its seek target, every entry
/// that was present at the seek and sorts at or after the target, and
/// only entries the memtable really holds.
#[test]
fn cursor_steps_while_a_writer_inserts_ahead_and_behind() {
    use std::collections::BTreeSet;

    use lsm_kvs::{InternalKey, MemTableCursor};

    const KEYS: u64 = 2_000;
    let key = |i: u64| format!("k{i:06}").into_bytes();
    // The value names its key and sequence, so a torn entry shows.
    let value = |k: &[u8], seq: u64| [k, b"@", seq.to_string().as_bytes()].concat();

    let mem = Arc::new(MemTable::new());
    let mut seq = 0;
    let mut present = BTreeSet::new();
    for i in (0..KEYS).step_by(3) {
        seq += 1;
        mem.add(seq, ValueType::Value, &key(i), &value(&key(i), seq));
        present.insert(InternalKey::new(&key(i), seq, ValueType::Value).into_encoded());
    }
    let target = InternalKey::new(&key(KEYS / 3), lsm_kvs::MAX_SEQUENCE, ValueType::Value);
    let mut cursor = MemTableCursor::seek(Arc::clone(&mem), target.encoded());
    let ordered = |a: &Vec<u8>, b: &Vec<u8>| internal_order(a, b).is_lt();
    let expected: Vec<Vec<u8>> =
        present.iter().filter(|k| !ordered(k, &target.encoded().to_vec())).cloned().collect();

    let writer_mem = Arc::clone(&mem);
    let yielded = std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut seq = seq;
            // Fresh keys between the present ones, from both ends toward
            // the middle, and a newer version of every fifth present key.
            for n in 0..KEYS {
                let i = if n % 2 == 0 { n } else { KEYS - n };
                let fresh = i - i % 3 + 1;
                seq += 1;
                writer_mem.add(seq, ValueType::Value, &key(fresh), &value(&key(fresh), seq));
                if i.is_multiple_of(5) {
                    let old = i - i % 3;
                    seq += 1;
                    writer_mem.add(seq, ValueType::Value, &key(old), &value(&key(old), seq));
                }
                if n.is_multiple_of(16) {
                    std::thread::yield_now();
                }
            }
        });
        let mut yielded: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        while let Some(k) = cursor.key() {
            yielded.push((k.to_vec(), cursor.value().unwrap().to_vec()));
            if yielded.len().is_multiple_of(8) {
                std::thread::yield_now();
            }
            cursor.advance();
        }
        yielded
    });

    let target = target.encoded().to_vec();
    assert!(!yielded.is_empty() && !ordered(&yielded[0].0, &target), "yielded before the target");
    for pair in yielded.windows(2) {
        assert!(ordered(&pair[0].0, &pair[1].0), "cursor did not step forward");
    }
    let keys: BTreeSet<&Vec<u8>> = yielded.iter().map(|(k, _)| k).collect();
    for k in &expected {
        assert!(keys.contains(k), "present at the seek but skipped: {k:02x?}");
    }
    // Every yielded entry is one the memtable holds, with its own value.
    let held: Vec<(Vec<u8>, Vec<u8>)> =
        mem.view().iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
    for (k, v) in &yielded {
        let ik = InternalKey::decode(k).unwrap();
        assert_eq!(v, &value(ik.user_key(), ik.sequence()), "torn entry");
        assert!(held.binary_search_by(|(h, _)| internal_order(h, k)).is_ok());
    }
}

/// The internal-key order of two encoded keys: user key ascending, then
/// tag (sequence and type) descending.
fn internal_order(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    let split = |k: &[u8]| {
        let (user, tag) = k.split_at(k.len() - 8);
        (user.to_vec(), std::cmp::Reverse(u64::from_le_bytes(tag.try_into().unwrap())))
    };
    split(a).cmp(&split(b))
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
