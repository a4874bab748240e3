//! Batched read path: `multi_get` correctness against every layer of
//! the tree (memtable, immutable memtables, L0, deeper levels,
//! tombstones), its accounting, the sharded facade's per-shard snapshot
//! pinning, and the amortization claim itself — a batch must be
//! measurably cheaper than a loop of `get`s on the simulated clock.

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::{Db, KvEngine, ShardedDb, Ticker};

fn sim_env() -> HardwareEnv {
    HardwareEnv::builder().build_sim()
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:06}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i:06}").into_bytes()
}

/// `multi_get` must agree with `get` for every key, wherever the newest
/// version lives: live memtable, flushed tables, tombstones, and keys
/// that never existed. Input order is arbitrary and duplicates are fine.
#[test]
fn multi_get_matches_gets_across_all_layers() {
    let db = Db::builder(Options::default()).env(&sim_env()).open().unwrap();
    // Layer 1: flushed to tables.
    for i in 0..200u32 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    db.wait_background_idle().unwrap();
    // Layer 2: overwrites and tombstones flushed on top.
    for i in 0..50u32 {
        db.put(&key(i), b"overwritten").unwrap();
    }
    for i in 50..80u32 {
        db.delete(&key(i)).unwrap();
    }
    db.flush().unwrap();
    db.wait_background_idle().unwrap();
    // Layer 3: still in the live memtable.
    for i in 80..100u32 {
        db.put(&key(i), b"in-memtable").unwrap();
    }

    // Unsorted, with duplicates and misses mixed in.
    let mut keys: Vec<Vec<u8>> = (0..220u32).rev().map(key).collect();
    keys.push(key(0)); // duplicate
    keys.push(b"nope".to_vec());

    let got = db.multi_get(&keys).unwrap();
    assert_eq!(got.len(), keys.len());
    for (k, v) in keys.iter().zip(&got) {
        assert_eq!(v, &db.get(k).unwrap(), "multi_get disagrees with get on {k:?}");
    }
    // Spot-check the layers directly.
    assert_eq!(db.multi_get(&[key(10)]).unwrap()[0].as_deref(), Some(&b"overwritten"[..]));
    assert_eq!(db.multi_get(&[key(60)]).unwrap()[0], None, "tombstone must win");
    assert_eq!(db.multi_get(&[key(90)]).unwrap()[0].as_deref(), Some(&b"in-memtable"[..]));
    assert_eq!(db.multi_get(&[key(150)]).unwrap()[0], Some(value(150)));
}

/// The batch path must keep the books: one `MultiGetBatches` per call,
/// one `MultiGetKeysRead` (and `KeysRead`) per key, and hit/miss
/// tickers matching the answers.
#[test]
fn multi_get_accounting() {
    let db = Db::builder(Options::default()).env(&sim_env()).open().unwrap();
    for i in 0..10u32 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    db.wait_background_idle().unwrap();

    let before = db.stats().tickers;
    let keys: Vec<Vec<u8>> = (0..12u32).map(key).collect(); // 10 hits, 2 misses
    db.multi_get(&keys).unwrap();
    let d = db.stats().tickers.delta_since(&before);
    assert_eq!(d.get(Ticker::MultiGetBatches), 1);
    assert_eq!(d.get(Ticker::MultiGetKeysRead), 12);
    assert_eq!(d.get(Ticker::KeysRead), 12);
    assert_eq!(d.get(Ticker::GetHit), 10);
    assert_eq!(d.get(Ticker::GetMiss), 2);
    let text = db.stats_text();
    assert!(text.contains("db.multiget.micros"), "histogram missing: {text}");
}

/// `get` is a batch of one: on two identically built databases whose
/// keys are spread over the live memtable, two immutable memtables, L0
/// and a deeper level — overwrites, tombstones, TTL-expired values and
/// never-written keys among them, block cache cold — a loop of `get`s
/// and a loop of one-key `multi_get`s return the same values, move the
/// simulated clock by the same amount and tick every counter alike,
/// except the ones that name the entry point.
#[test]
fn get_and_one_key_multi_get_charge_alike() {
    let build = || {
        let env = sim_env();
        let opts = Options {
            write_buffer_size: 64 << 10,
            target_file_size_base: 64 << 10,
            max_bytes_for_level_base: 256 << 10,
            bloom_filter_bits_per_key: 10.0,
            ttl_seconds: 1_000,
            // Hold flushes back so immutable memtables pile up.
            max_write_buffer_number: 6,
            min_write_buffer_number_to_merge: 4,
            ..Options::default()
        };
        let db = Db::builder(opts).env(&env).open().unwrap();
        // Deeper level: by the time of the reads the first half's stamps
        // are past the TTL, the second half's are not.
        let age = || env.clock().advance(hw_sim::SimDuration::from_secs_f64(600.0));
        for i in 0..3_000u32 {
            if i == 1_500 {
                age();
            }
            db.put(&key(i), &value(i)).unwrap();
        }
        db.flush().unwrap();
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();
        age();
        // L0: fresh values and tombstones over a slice of the old keys.
        for i in (0..3_000u32).step_by(5) {
            db.put(&key(i), b"fresh-in-l0").unwrap();
        }
        for i in (1..3_000u32).step_by(30) {
            db.delete(&key(i)).unwrap();
        }
        db.flush().unwrap();
        db.wait_background_idle().unwrap();
        // Two immutable memtables, each shadowing a little of what is
        // below and padded with keys the reads never ask for.
        for round in 1..=2u32 {
            for i in (round * 2..3_000).step_by(120) {
                db.put(&key(i), format!("imm-{round}").as_bytes()).unwrap();
                db.delete(&key(i + 2)).unwrap();
            }
            let mut pad = 0;
            while db.stats().immutable_memtables < round as usize {
                db.put(format!("pad-{round}-{pad:05}").as_bytes(), &[0u8; 100]).unwrap();
                pad += 1;
            }
        }
        // Live memtable.
        for i in (0..3_000u32).step_by(44) {
            db.put(&key(i), b"live").unwrap();
        }
        let stats = db.stats();
        assert_eq!(stats.immutable_memtables, 2);
        assert!(stats.levels[0].0 > 0, "L0 populated: {:?}", stats.levels);
        assert!(stats.levels[1..].iter().any(|l| l.0 > 0), "deeper level populated: {:?}", stats.levels);
        (env, db)
    };
    // Every fourth key of the written range plus keys never written.
    let keys: Vec<Vec<u8>> = (0..3_400u32).step_by(4).map(key).collect();

    let (env_get, db_get) = build();
    let (env_multi, db_multi) = build();
    assert_eq!(env_get.clock().now(), env_multi.clock().now(), "identical builds");
    let before_get = db_get.stats().tickers;
    let before_multi = db_multi.stats().tickers;

    let via_get: Vec<_> = keys.iter().map(|k| db_get.get(k).unwrap()).collect();
    let via_multi: Vec<_> = keys
        .iter()
        .map(|k| db_multi.multi_get(std::slice::from_ref(k)).unwrap().remove(0))
        .collect();

    assert_eq!(via_get, via_multi);
    let live = via_get.iter().flatten().count();
    assert!(live > 100 && live < keys.len() - 100, "hits and misses both: {live} of {}", keys.len());
    assert_eq!(env_get.clock().now(), env_multi.clock().now(), "same simulated cost");

    let d_get = db_get.stats().tickers.delta_since(&before_get);
    let mut d_multi = db_multi.stats().tickers.delta_since(&before_multi);
    let n = keys.len() as u64;
    assert_eq!(d_multi.get(Ticker::MultiGetBatches), n);
    assert_eq!(d_multi.get(Ticker::MultiGetKeysRead), n);
    for t in [Ticker::MultiGetBatches, Ticker::MultiGetKeysRead] {
        assert_eq!(d_get.get(t), 0, "get leaves {t:?} alone");
        d_multi.values[t as usize] = 0;
    }
    assert_eq!(d_get, d_multi, "every other ticker moves alike");
    for t in [Ticker::MemtableHit, Ticker::BloomUseful, Ticker::BlockCacheMiss, Ticker::GetMiss] {
        assert!(d_get.get(t) > 0, "{t:?} exercised");
    }
}

/// The point of the whole exercise: on a preloaded, cache-warm store, a
/// batch of N keys must cost measurably less simulated time than N
/// individual `get`s. The margin is generous (≤80%) so cost-model tweaks
/// don't flake the test; the real saving is larger.
#[test]
fn multi_get_beats_loop_of_gets() {
    let env = sim_env();
    let db = Db::builder(Options::default()).env(&env).open().unwrap();
    for i in 0..2_000u32 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    db.wait_background_idle().unwrap();

    let keys: Vec<Vec<u8>> = (500..756u32).map(key).collect();
    // Warm pass: table handles opened, blocks cached, so both measured
    // passes below pay pure CPU with no device time.
    for k in &keys {
        db.get(k).unwrap();
    }

    let t0 = env.clock().now();
    let mut loop_results = Vec::with_capacity(keys.len());
    for k in &keys {
        loop_results.push(db.get(k).unwrap());
    }
    let loop_cost = env.clock().now().saturating_since(t0);

    let t1 = env.clock().now();
    let multi_results = db.multi_get(&keys).unwrap();
    let multi_cost = env.clock().now().saturating_since(t1);

    assert_eq!(loop_results, multi_results);
    assert!(loop_cost.as_nanos() > 0, "sim clock did not move");
    assert!(
        multi_cost.as_nanos() * 10 <= loop_cost.as_nanos() * 8,
        "multi_get must cost at most 80% of a get loop: {} vs {} ns",
        multi_cost.as_nanos(),
        loop_cost.as_nanos()
    );
}

/// Keys spanning shards come back in input order, each shard answering
/// its keys at one snapshot, with the batch amortization intact
/// (one MultiGetBatches tick per touched shard, not per key).
#[test]
fn multi_get_spans_shards_coherently() {
    let db = ShardedDb::builder(Options {
        num_shards: 3,
        ..Options::default()
    })
    .env(&sim_env())
    .split_points(vec![key(700), key(1400)])
    .open()
    .unwrap();
    for i in 0..2_100u32 {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    db.wait_background_idle().unwrap();

    // Interleave keys from all three shards, unsorted, plus misses.
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for i in 0..40u32 {
        keys.push(key(2_000 - i)); // shard 2
        keys.push(key(i)); // shard 0
        keys.push(key(1_000 + i)); // shard 1
    }
    keys.push(b"zzz-missing".to_vec());

    let before = db.stats().tickers;
    let got = db.multi_get(&keys).unwrap();
    assert_eq!(got.len(), keys.len());
    for (k, v) in keys.iter().zip(&got) {
        assert_eq!(v, &db.get(k).unwrap(), "shard routing broke on {k:?}");
    }
    let d = db.stats().tickers.delta_since(&before);
    // 121 gets above also tick KeysRead; the MultiGet tickers isolate
    // the batched call: one batch per touched shard, one key each.
    assert_eq!(d.get(Ticker::MultiGetBatches), 3);
    assert_eq!(d.get(Ticker::MultiGetKeysRead), keys.len() as u64);
}

/// The trait surface: a `&dyn KvEngine` batch read works for both
/// engine shapes (the range fan-out regroups instead of looping).
#[test]
fn kv_engine_multi_get_dispatches() {
    let engines: Vec<Box<dyn KvEngine>> = vec![
        Box::new(Db::builder(Options::default()).env(&sim_env()).open().unwrap()),
        Box::new(
            ShardedDb::builder(Options {
                num_shards: 2,
                ..Options::default()
            })
            .env(&sim_env())
            .open()
            .unwrap(),
        ),
    ];
    for db in &engines {
        db.put(b"a", b"1").unwrap();
        db.put(b"\xf0b", b"2").unwrap();
        let got = db
            .multi_get(&[b"\xf0b".to_vec(), b"missing".to_vec(), b"a".to_vec()])
            .unwrap();
        assert_eq!(
            got,
            vec![Some(b"2".to_vec()), None, Some(b"1".to_vec())]
        );
        assert!(db.stats().tickers.get(Ticker::MultiGetBatches) >= 1);
    }
}
