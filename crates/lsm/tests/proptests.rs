//! Property-based tests for the storage engine's core invariants.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::{btree_map, vec};
use proptest::prelude::*;

use lsm_kvs::options::{CompressionType, Options};
use lsm_kvs::sstable::block::{Block, BlockBuilder};
use lsm_kvs::sstable::compress;
use lsm_kvs::vfs::{MemVfs, Vfs};
use lsm_kvs::{Db, InternalKey, MemTable, ReadOptions, ValueType, WriteBatch};

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
