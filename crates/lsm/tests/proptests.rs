//! Property-based tests for the storage engine's core invariants.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::{btree_map, vec};
use proptest::prelude::*;

use lsm_kvs::options::{CompressionType, Options};
use lsm_kvs::sstable::block::{Block, BlockBuilder};
use lsm_kvs::sstable::compress;
use lsm_kvs::vfs::{MemVfs, Vfs};
use lsm_kvs::{
    Db, InternalKey, KeyRanges, MemTable, MemTableCursor, ReadOptions, ValueType, WriteBatch,
};

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 1..24)
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..200)
}

/// What a memtable holds, keyed by (user key, newest first).
type MemtableModel = BTreeMap<(Vec<u8>, Reverse<u64>), (ValueType, Vec<u8>)>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_roundtrips_sorted_entries(entries in btree_map(key_strategy(), value_strategy(), 1..200)) {
        let mut builder = BlockBuilder::new(16);
        let mut expected = Vec::new();
        for (i, (k, v)) in entries.iter().enumerate() {
            let ik = InternalKey::new(k, (entries.len() - i) as u64, ValueType::Value);
            builder.add(ik.encoded(), v);
            expected.push((ik.encoded().to_vec(), v.clone()));
        }
        let block = Block::parse(builder.finish()).unwrap();
        let mut it = block.iter();
        let mut got = Vec::new();
        while it.advance().unwrap() {
            got.push((it.key().to_vec(), it.value().to_vec()));
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn block_seek_finds_every_present_key(entries in btree_map(key_strategy(), value_strategy(), 1..100)) {
        let mut builder = BlockBuilder::new(4);
        let keys: Vec<_> = entries.keys().cloned().collect();
        for (i, (k, v)) in entries.iter().enumerate() {
            let ik = InternalKey::new(k, (entries.len() - i) as u64, ValueType::Value);
            builder.add(ik.encoded(), v);
        }
        let block = Block::parse(builder.finish()).unwrap();
        for k in &keys {
            let target = lsm_kvs::InternalKey::new(k, u64::MAX >> 8, ValueType::Value);
            let (found_key, found_value) = block.seek(target.encoded()).unwrap().expect("present");
            let ik = InternalKey::decode(&found_key).unwrap();
            prop_assert_eq!(ik.user_key(), k.as_slice());
            prop_assert_eq!(&found_value, entries.get(k).unwrap());
        }
    }

    #[test]
    fn compression_roundtrips_arbitrary_bytes(data in vec(any::<u8>(), 0..4096), ty_idx in 0usize..3) {
        let ty = [CompressionType::Snappy, CompressionType::Lz4, CompressionType::Zstd][ty_idx];
        if let Some(compressed) = compress::compress(ty, &data) {
            let restored = compress::decompress(&compressed).unwrap();
            prop_assert_eq!(restored, data);
        }
    }

    /// The memtable against a map keyed by (user key, newest first). User
    /// keys of 0 to 40 bytes, many sharing prefixes, straddle the length
    /// up to which a key can be stored inline; values of 0 and 1 bytes,
    /// small ones, and sizes around a 64 KiB chunk straddle the edges of
    /// any chunked value store. Deletions and several versions per key;
    /// point reads at random snapshots, the full view, cursors from random
    /// targets (the seek type among them) and the byte accounting all agree.
    #[test]
    fn memtable_matches_model(
        base in vec(0u8..4, 40),
        pool in vec((0usize..41, any::<u8>(), any::<bool>()), 1..12),
        ops in vec((any::<usize>(), 0u8..2, 0usize..16, any::<u8>()), 1..200),
        probes in vec((any::<usize>(), any::<u64>(), 0u8..3), 1..24),
    ) {
        const CHUNK: usize = 64 << 10;
        let sizes =
            [0, 1, 1, 7, 16, 23, 24, 100, 150, 200, 255, 1000, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK];
        let types = [ValueType::Deletion, ValueType::Value, ValueType::TtlValue];
        // Prefixes of one string over a four-letter alphabet, some with
        // their last byte changed: siblings and prefixes of each other.
        let keys: Vec<Vec<u8>> = pool
            .iter()
            .map(|&(len, last, sibling)| {
                let mut k = base[..len].to_vec();
                if let (true, Some(b)) = (sibling, k.last_mut()) {
                    *b = last;
                }
                k
            })
            .collect();

        let mt = Arc::new(MemTable::new());
        let mut model = MemtableModel::new();
        let mut charged = 0usize;
        for (i, &(key, ty, size, fill)) in ops.iter().enumerate() {
            let (seq, ty, key) = (i as u64 + 1, types[usize::from(ty)], &keys[key % keys.len()]);
            let value = match ty {
                ValueType::Deletion => Vec::new(),
                _ => {
                    // The op's index at both ends tells values apart.
                    let mut v = vec![fill; sizes[size]];
                    let stamp = (i as u32).to_le_bytes();
                    for (at, b) in stamp.iter().enumerate().take(v.len()) {
                        v[at] = *b;
                        let end = v.len() - 1 - at;
                        v[end] = *b;
                    }
                    v
                }
            };
            mt.add(seq, ty, key, &value);
            charged += key.len() + 8 + value.len() + 48;
            model.insert((key.clone(), Reverse(seq)), (ty, value));
        }
        prop_assert_eq!(mt.len(), model.len());
        prop_assert_eq!(mt.approximate_memory_usage(), charged);

        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .map(|((user, seq), (ty, v))| (InternalKey::new(user, seq.0, *ty).into_encoded(), v.clone()))
            .collect();
        let view = mt.view();
        let walked: Vec<(Vec<u8>, Vec<u8>)> =
            view.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        drop(view);
        prop_assert!(walked == expected, "view order or bytes differ from the model");

        for &(key, snapshot, ty) in &probes {
            // One probe in eight asks for a key the pool may not hold.
            let user = if key % 8 == 7 {
                base[..key % 41].to_vec()
            } else {
                keys[key % keys.len()].clone()
            };
            let snapshot = snapshot % (ops.len() as u64 + 2);
            let newest = model
                .range((user.clone(), Reverse(snapshot))..)
                .next()
                .filter(|((u, _), _)| *u == user)
                .map(|(_, (ty, v))| (*ty, v.clone()));
            prop_assert!(mt.get(&user, snapshot) == newest, "get {:?} at {}", user, snapshot);

            // A cursor from (user, snapshot, type) walks the model's tail.
            let target = InternalKey::new(&user, snapshot, types[usize::from(ty)]);
            let split = |k: &[u8]| {
                let (user, tag) = k.split_at(k.len() - 8);
                (user.to_vec(), u64::from_le_bytes(tag.try_into().unwrap()))
            };
            let (target_user, target_tag) = split(target.encoded());
            let tail = expected.iter().filter(|(k, _)| {
                let (u, tag) = split(k);
                u > target_user || (u == target_user && tag <= target_tag)
            });
            let mut cursor = MemTableCursor::seek(Arc::clone(&mt), target.encoded());
            for (k, v) in tail {
                prop_assert!(cursor.key() == Some(k.as_slice()), "cursor from {:?}", target);
                prop_assert!(cursor.value() == Some(v.as_slice()), "cursor value at {:?}", k);
                cursor.advance();
            }
            prop_assert_eq!(cursor.key(), None);
        }
    }

    /// The memtable against the same model when the sequences arrive in
    /// a shuffled order: a few hot keys under many versions each, every
    /// version linked in sequence order whatever order it came in. Point
    /// reads at every snapshot, the view and a full cursor walk agree.
    #[test]
    fn memtable_matches_model_with_shuffled_sequences(
        ops in vec((0usize..6, any::<bool>()), 1..300),
        shuffle in any::<u64>(),
    ) {
        let keys: [&[u8]; 6] = [b"", b"a", b"a\0", b"ab", b"hot-key-longer-than-22-bytes", b"z"];
        let entry = |seq: u64, deleted: bool| {
            if deleted {
                (ValueType::Deletion, Vec::new())
            } else {
                (ValueType::Value, seq.to_le_bytes().to_vec())
            }
        };
        let mut order: Vec<usize> = (0..ops.len()).collect();
        let mut rng = testkit::Rng(shuffle | 1);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mt = Arc::new(MemTable::new());
        let mut model = MemtableModel::new();
        for &i in &order {
            let (key, deleted) = ops[i];
            let seq = i as u64 + 1;
            let (ty, value) = entry(seq, deleted);
            mt.add(seq, ty, keys[key], &value);
            model.insert((keys[key].to_vec(), Reverse(seq)), (ty, value));
        }
        prop_assert_eq!(mt.len(), model.len());
        for key in keys {
            for snapshot in 0..=ops.len() as u64 + 1 {
                let newest = model
                    .range((key.to_vec(), Reverse(snapshot))..)
                    .next()
                    .filter(|((u, _), _)| u == key)
                    .map(|(_, entry)| entry.clone());
                prop_assert!(mt.get(key, snapshot) == newest, "get {:?} at {}", key, snapshot);
            }
        }
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .map(|((user, seq), (ty, v))| (InternalKey::new(user, seq.0, *ty).into_encoded(), v.clone()))
            .collect();
        let viewed: Vec<(Vec<u8>, Vec<u8>)> =
            mt.view().iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        prop_assert!(viewed == expected, "view order or bytes differ from the model");
        let first = InternalKey::new(b"", lsm_kvs::MAX_SEQUENCE, ValueType::Value);
        let mut cursor = MemTableCursor::seek(Arc::clone(&mt), first.encoded());
        let mut stepped = Vec::new();
        while let Some(k) = cursor.key() {
            stepped.push((k.to_vec(), cursor.value().unwrap().to_vec()));
            cursor.advance();
        }
        prop_assert!(stepped == expected, "cursor walk differs from the model");
    }

    #[test]
    fn wal_replay_is_prefix_closed(records in vec(vec(any::<u8>(), 0..100), 1..30), cut in any::<u16>()) {
        let vfs = MemVfs::new();
        let mut writer = lsm_kvs::wal::WalWriter::new(vfs.create("wal").unwrap());
        for r in &records {
            writer.add_record(r).unwrap();
        }
        writer.sync().unwrap();
        let full = vfs.read_all("wal").unwrap();
        let cut = (cut as usize) % (full.len() + 1);
        let replay = lsm_kvs::wal::replay_wal(&full[..cut], false).unwrap();
        // Replayed records must be an exact prefix of what was written.
        prop_assert!(replay.records.len() <= records.len());
        for (got, want) in replay.records.iter().zip(records.iter()) {
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn options_roundtrip_via_ini(
        wbs in (65_536u64..1u64 << 30),
        jobs in 1i64..64,
        bloom in 0.0f64..40.0,
        style in 0usize..3,
    ) {
        let mut opts = Options {
            write_buffer_size: wbs,
            max_background_jobs: jobs,
            bloom_filter_bits_per_key: (bloom * 2.0).round() / 2.0,
            ..Options::default()
        };
        opts.set_by_name("compaction_style", ["level", "universal", "fifo"][style]).unwrap();
        let ini = lsm_kvs::options::ini::to_ini(&opts);
        let (parsed, outcome) = lsm_kvs::options::ini::from_ini(&ini).unwrap();
        prop_assert_eq!(parsed, opts);
        prop_assert!(outcome.rejected.is_empty());
    }
}

proptest! {
    // The full-engine model check is heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn db_matches_model_across_crash(
        ops in vec((vec(any::<u8>(), 1..12), vec(any::<u8>(), 0..60), any::<bool>()), 1..160),
        crash_at in any::<u16>(),
    ) {
        let env = hw_sim::HardwareEnv::builder().build_sim();
        let opts = Options {
            write_buffer_size: 16 << 10, // force flush/compaction churn
            target_file_size_base: 16 << 10,
            max_bytes_for_level_base: 64 << 10,
            ..Options::default()
        };

        let vfs = Arc::new(MemVfs::new());
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let crash_at = (crash_at as usize) % ops.len();
        {
            let db = Db::builder(opts.clone()).env(&env).vfs(vfs.clone()).open().unwrap();
            for (k, v, is_delete) in &ops[..crash_at] {
                let mut batch = WriteBatch::new();
                if *is_delete {
                    batch.delete(k);
                    model.insert(k.clone(), None);
                } else {
                    batch.put(k, v);
                    model.insert(k.clone(), Some(v.clone()));
                }
                db.write(batch).unwrap();
            }
            // Crash: drop without shutdown.
        }
        let db = Db::builder(opts).env(&env).vfs(vfs).open().unwrap();
        for (k, v, is_delete) in &ops[crash_at..] {
            if *is_delete {
                db.delete(k).unwrap();
                model.insert(k.clone(), None);
            } else {
                db.put(k, v).unwrap();
                model.insert(k.clone(), Some(v.clone()));
            }
        }
        for (k, expected) in &model {
            prop_assert_eq!(&db.get(k).unwrap(), expected, "key {:?}", k);
        }
        // Scans agree with the model's live view, in order.
        let live: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v)))
            .collect();
        let scanned = db.scan(b"", live.len() + 10).unwrap();
        prop_assert_eq!(scanned, live);
    }
}

/// One operation of a batch as the record stores it.
type Op = (ValueType, Vec<u8>, Vec<u8>);

fn ops_of(batch: &WriteBatch) -> Vec<Op> {
    batch.iter().map(|(ty, k, v)| (ty, k.to_vec(), v.to_vec())).collect()
}

/// The record layout, written down a second time on purpose: the engine
/// reads and writes it in `batch.rs` only, and this is what holds that
/// file to the format on disk.
fn encode_record(first_seq: u64, ops: &[Op]) -> Vec<u8> {
    fn varint(out: &mut Vec<u8>, mut v: usize) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let mut out = first_seq.to_le_bytes().to_vec();
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for (ty, key, value) in ops {
        out.push(*ty as u8);
        varint(&mut out, key.len());
        out.extend_from_slice(key);
        varint(&mut out, value.len());
        out.extend_from_slice(value);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A batch is its record: whatever mix of puts and deletes it holds,
    /// every reader of it sees the same list.
    #[test]
    fn batch_is_its_record(
        raw in vec((any::<bool>(), vec(any::<u8>(), 0..40), vec(any::<u8>(), 0..300)), 0..24),
        splits in btree_map(vec(any::<u8>(), 1..3), any::<bool>(), 0..5),
        first_seq in 0u64..(1 << 56),
    ) {
        let model: Vec<Op> = raw
            .into_iter()
            .map(|(put, key, value)| {
                if put {
                    (ValueType::Value, key, value)
                } else {
                    (ValueType::Deletion, key, Vec::new())
                }
            })
            .collect();

        // put/delete append exactly the record's bytes.
        let mut built = WriteBatch::new();
        for (ty, key, value) in &model {
            match ty {
                ValueType::Deletion => built.delete(key),
                _ => built.put(key, value),
            };
        }
        prop_assert_eq!(&built.record()[8..], &encode_record(0, &model)[8..]);
        prop_assert_eq!(ops_of(&built), model.clone());

        // decode round-trips: same list, same bytes, same size estimate.
        let record = encode_record(first_seq, &model);
        let batch = WriteBatch::decode(&record).unwrap();
        prop_assert_eq!(batch.record(), &record[..]);
        prop_assert_eq!(batch.sequence(), first_seq);
        prop_assert_eq!(batch.len(), model.len());
        prop_assert_eq!(ops_of(&batch), model.clone());
        let payload: usize = model.iter().map(|(_, k, v)| k.len() + v.len()).sum();
        prop_assert_eq!(batch.approximate_bytes(), 12 + 13 * model.len() + payload);

        // split_batch partitions in order, types and bytes intact.
        let ranges = KeyRanges::new(splits.keys().cloned().collect(), splits.len() + 1).unwrap();
        let parts = ranges.split_batch(&batch);
        prop_assert_eq!(parts.len(), ranges.num_ranges());
        for (idx, part) in parts.iter().enumerate() {
            let want: Vec<Op> = model.iter().filter(|op| ranges.route(&op.1) == idx).cloned().collect();
            prop_assert_eq!(ops_of(part), want, "range {}", idx);
        }
    }
}

/// `get`, `multi_get` and `scan` under `ropts` all return what `model`
/// holds for the key space `key-0000..key-0150`.
fn check_reads(
    db: &Db,
    ropts: &ReadOptions,
    model: &BTreeMap<Vec<u8>, Vec<u8>>,
) -> Result<(), TestCaseError> {
    let keys: Vec<Vec<u8>> = (0..150).map(|k| format!("key-{k:04}").into_bytes()).collect();
    let expected: Vec<Option<Vec<u8>>> = keys.iter().map(|k| model.get(k).cloned()).collect();
    for (k, want) in keys.iter().zip(&expected) {
        prop_assert_eq!(&db.get_opt(ropts, k).unwrap(), want, "get {:?}", k);
    }
    prop_assert_eq!(db.multi_get_opt(ropts, &keys).unwrap(), expected);
    let live: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    prop_assert_eq!(&db.scan_opt(ropts, b"", live.len() + 10).unwrap(), &live);
    let from = &keys[keys.len() / 2];
    let tail: Vec<_> = live.iter().filter(|(k, _)| k >= from).take(20).cloned().collect();
    prop_assert_eq!(db.scan_opt(ropts, from, 20).unwrap(), tail);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every read path resolves a key the same way wherever its versions
    /// sit: the live memtable, several immutable memtables (flushes wait
    /// for three), L0 and deeper levels; at the latest sequence and at an
    /// explicit, pinned `snapshot_seq`.
    #[test]
    fn reads_agree_with_model_across_every_source(
        ops in vec((0u16..150, vec(any::<u8>(), 0..80), 0u8..5), 700..1400),
        pin_at in any::<u16>(),
    ) {
        let env = hw_sim::HardwareEnv::builder().build_sim();
        let opts = Options {
            write_buffer_size: 4 << 10,
            max_write_buffer_number: 6,
            min_write_buffer_number_to_merge: 3,
            target_file_size_base: 8 << 10,
            max_bytes_for_level_base: 32 << 10,
            ..Options::default()
        };
        let db = Db::builder(opts).env(&env).open().unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let pin_at = pin_at as usize % ops.len();
        let mut pinned = None;
        for (i, (key, value, kind)) in ops.iter().enumerate() {
            let key = format!("key-{key:04}").into_bytes();
            if *kind == 0 {
                db.delete(&key).unwrap();
                model.remove(&key);
            } else {
                db.put(&key, value).unwrap();
                model.insert(key, value.clone());
            }
            if i == pin_at {
                pinned = Some((db.pin_snapshot(), model.clone()));
            }
        }
        // Overwrite until at least two immutable memtables are waiting.
        let mut extra = 0u32;
        while db.stats().immutable_memtables < 2 {
            let key = format!("key-{:04}", extra % 150).into_bytes();
            let value = extra.to_le_bytes().to_vec();
            db.put(&key, &value).unwrap();
            model.insert(key, value);
            extra += 1;
        }
        let levels = db.stats().levels;
        prop_assert!(levels[1..].iter().any(|l| l.0 > 0), "deeper levels hold data: {:?}", levels);

        let (pin, model_at_pin) = pinned.expect("pin_at < ops.len()");
        check_reads(&db, &ReadOptions::default(), &model)?;
        let at_pin = ReadOptions { snapshot_seq: Some(pin.sequence()), ..ReadOptions::default() };
        check_reads(&db, &at_pin, &model_at_pin)?;
    }
}
