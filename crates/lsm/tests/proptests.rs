//! Property-based tests for the storage engine's core invariants.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::{btree_map, vec};
use proptest::prelude::*;

use lsm_kvs::options::{CompressionType, Options};
use lsm_kvs::sstable::block::{Block, BlockBuilder};
use lsm_kvs::sstable::compress;
use lsm_kvs::vfs::{MemVfs, Vfs};
use lsm_kvs::wal::replay_wal;
use lsm_kvs::{
    Db, InternalKey, KeyRanges, MemTable, ReadOptions, ValueType, WriteBatch, WriteOptions,
};

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 1..24)
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 0..200)
}

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

    #[test]
    fn memtable_matches_model(ops in vec((key_strategy(), value_strategy(), any::<bool>()), 1..200)) {
        let mt = MemTable::new(0);
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for (seq, (k, v, is_delete)) in ops.iter().enumerate() {
            if *is_delete {
                mt.add((seq + 1) as u64, ValueType::Deletion, k, b"");
                model.insert(k.clone(), None);
            } else {
                mt.add((seq + 1) as u64, ValueType::Value, k, v);
                model.insert(k.clone(), Some(v.clone()));
            }
        }
        for (k, expected) in &model {
            let got = mt.get(k, u64::MAX >> 8);
            match expected {
                Some(v) => prop_assert_eq!(got, Some((ValueType::Value, v.clone()))),
                None => prop_assert_eq!(got, Some((ValueType::Deletion, Vec::new()))),
            }
        }
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

/// Writes `batch` synced into a fresh simulated database with TTL on and
/// returns the one record its WAL then holds, as a batch.
fn logged_with_ttl(batch: WriteBatch) -> WriteBatch {
    let env = hw_sim::HardwareEnv::builder().build_sim();
    let vfs = Arc::new(MemVfs::new());
    let opts = Options { ttl_seconds: 3_600, ..Options::default() };
    let db = Db::builder(opts).env(&env).vfs(vfs.clone()).open().unwrap();
    db.write_opt(&WriteOptions::synced(), batch).unwrap();
    let mut records = Vec::new();
    for name in vfs.list("").unwrap() {
        if name.ends_with(".log") {
            records.extend(replay_wal(&vfs.read_all(&name).unwrap(), true).unwrap().records);
        }
    }
    assert_eq!(records.len(), 1, "one write, one record");
    WriteBatch::from_record(records.pop().unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A batch is its record: whatever mix of puts, deletes and stamped
    /// entries it holds, every reader of it sees the same list.
    #[test]
    fn batch_is_its_record(
        raw in vec((0u8..3, vec(any::<u8>(), 0..40), vec(any::<u8>(), 0..300)), 0..24),
        splits in btree_map(vec(any::<u8>(), 1..3), any::<bool>(), 0..5),
        first_seq in 0u64..(1 << 56),
    ) {
        let model: Vec<Op> = raw
            .into_iter()
            .map(|(kind, key, value)| match kind {
                0 => (ValueType::Deletion, key, Vec::new()),
                1 => (ValueType::Value, key, value),
                _ => (ValueType::TtlValue, key, [&value[..], &7u64.to_le_bytes()].concat()),
            })
            .collect();

        // put/delete append exactly the record's bytes.
        let plain: Vec<Op> = model.iter().filter(|op| op.0 != ValueType::TtlValue).cloned().collect();
        let mut built = WriteBatch::new();
        for (ty, key, value) in &plain {
            match ty {
                ValueType::Deletion => built.delete(key),
                _ => built.put(key, value),
            };
        }
        prop_assert_eq!(&built.record()[8..], &encode_record(0, &plain)[8..]);
        prop_assert_eq!(ops_of(&built), plain);

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

        // Stamping (what a write does while TTL is on, seen in the WAL it
        // leaves) turns puts into stamped puts and nothing else, and a
        // stamped batch written again is logged as it is.
        if !model.is_empty() {
            let stamped = logged_with_ttl(batch);
            let got = ops_of(&stamped);
            prop_assert_eq!(got.len(), model.len());
            for ((ty, key, value), (was, was_key, was_value)) in got.iter().zip(&model) {
                prop_assert_eq!(key, was_key);
                if *was == ValueType::Value {
                    prop_assert_eq!(*ty, ValueType::TtlValue);
                    prop_assert_eq!(&value[..value.len() - 8], &was_value[..]);
                } else {
                    prop_assert_eq!((ty, value), (was, was_value), "tombstones and stamps pass through");
                }
            }
            let again = logged_with_ttl(stamped.clone());
            prop_assert_eq!(again.record(), stamped.record());
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
