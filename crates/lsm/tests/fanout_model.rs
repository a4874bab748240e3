//! The range fan-out against a model, with nothing underneath it: parts
//! are in-memory maps, so what is tested is the routing, regrouping,
//! splitting and walking that `ShardedDb` and the cluster client share
//! (`RangeFanout`'s blanket `KvEngine` impl), not an engine. Every answer
//! of the fanned-out whole must equal one `BTreeMap`'s.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use lsm_kvs::{
    CacheStats, DbStats, Error, KeyRanges, KvEngine, RangeFanout, Result, ScanResult,
    TickerSnapshot, ValueType, WriteBatch, WriteOptions, TICKER_NAMES,
};

type Map = BTreeMap<Vec<u8>, Vec<u8>>;

fn scan_map(map: &Map, start: &[u8], count: usize) -> ScanResult {
    map.range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
        .take(count)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// One range's engine: a map. `over_answer` makes `scan` return that many
/// entries past its limit, the way a misbehaving server could; `down`
/// makes `stats_checked` fail while `stats` keeps answering the last
/// snapshot it fetched, the way `RemoteDb` does.
#[derive(Default)]
struct MapPart {
    map: Mutex<Map>,
    over_answer: usize,
    down: AtomicBool,
    last_stats: Mutex<Option<DbStats>>,
}

impl MapPart {
    fn live_stats(&self) -> DbStats {
        let map = self.map.lock().unwrap();
        let mut tickers = TickerSnapshot { values: [0; TICKER_NAMES.len()] };
        tickers.values[0] = map.len() as u64;
        DbStats {
            tickers,
            levels: vec![(map.len(), 0)],
            memtable_bytes: map.values().map(|v| v.len() as u64).sum(),
            immutable_memtables: 0,
            block_cache: CacheStats::default(),
            block_cache_capacity: 0,
            pending_compaction_bytes: 0,
            running_background_jobs: 0,
            last_sequence: map.len() as u64,
            background_retries: 0,
            wal_rotations: 0,
            manifest_resyncs: 0,
            wal_sync_retries: 0,
        }
    }
}

impl KvEngine for MapPart {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.map.lock().unwrap().insert(key.to_vec(), value.to_vec());
        Ok(())
    }
    fn delete(&self, key: &[u8]) -> Result<()> {
        self.map.lock().unwrap().remove(key);
        Ok(())
    }
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.map.lock().unwrap().get(key).cloned())
    }
    fn write_opt(&self, _wopts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        for (ty, key, value) in batch.iter() {
            match ty {
                ValueType::Deletion => self.delete(key)?,
                _ => self.put(key, value)?,
            }
        }
        Ok(())
    }
    fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        Ok(scan_map(&self.map.lock().unwrap(), start, count.saturating_add(self.over_answer)))
    }
    fn flush(&self) -> Result<()> {
        Ok(())
    }
    fn wait_background_idle(&self) -> Result<()> {
        Ok(())
    }
    fn stats(&self) -> DbStats {
        self.stats_checked()
            .unwrap_or_else(|_| self.last_stats.lock().unwrap().clone().expect("fetched once"))
    }
    fn stats_checked(&self) -> Result<DbStats> {
        if self.down.load(Ordering::SeqCst) {
            return Err(Error::io("part unreachable"));
        }
        let stats = self.live_stats();
        *self.last_stats.lock().unwrap() = Some(stats.clone());
        Ok(stats)
    }
    fn stats_text(&self) -> String {
        format!("{} keys\n", self.map.lock().unwrap().len())
    }
}

struct MapFanout {
    parts: Vec<MapPart>,
    ranges: KeyRanges,
}

impl MapFanout {
    fn new(split_points: Vec<Vec<u8>>, over_answer: usize) -> MapFanout {
        let n = split_points.len() + 1;
        MapFanout {
            parts: (0..n).map(|_| MapPart { over_answer, ..MapPart::default() }).collect(),
            ranges: KeyRanges::new(split_points, n).unwrap(),
        }
    }
}

impl RangeFanout for MapFanout {
    type Part = MapPart;
    fn ranges(&self) -> &KeyRanges {
        &self.ranges
    }
    fn part(&self, idx: usize) -> impl std::ops::Deref<Target = MapPart> {
        &self.parts[idx]
    }
    fn title(&self) -> String {
        format!("{} maps", self.parts.len())
    }
    fn part_title(&self, idx: usize) -> String {
        format!("Map {idx}")
    }
}

/// xorshift64*: the test is its own seed list, no generator crate needed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        (0..self.below(max_len + 1)).map(|_| self.next() as u8).collect()
    }
}

/// Strictly increasing, non-empty split points.
fn random_split_points(rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut points: Vec<Vec<u8>> = (0..rng.below(6))
        .map(|_| {
            let mut p = rng.bytes(3);
            p.push(rng.next() as u8);
            p
        })
        .collect();
    points.sort();
    points.dedup();
    points
}

/// Keys that sit on the edges of the ranges as well as inside them.
fn key_pool(rng: &mut Rng, split_points: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut pool = vec![Vec::new(), vec![0xff], vec![0xff; 4], vec![0x00]];
    for p in split_points {
        pool.push(p.clone()); // first key of the range on the right
        pool.push(p[..p.len() - 1].to_vec()); // a strict prefix sorts to the left
        let mut longer = p.clone();
        longer.push(0x00); // the very next key
        pool.push(longer);
        let mut below = p.clone();
        *below.last_mut().unwrap() = below.last().unwrap().wrapping_sub(1);
        pool.push(below);
    }
    for _ in 0..24 {
        pool.push(rng.bytes(5));
    }
    pool
}

#[test]
fn every_answer_of_the_fan_out_equals_one_map() {
    for seed in 1..=200u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let split_points = random_split_points(&mut rng);
        let fan = MapFanout::new(split_points.clone(), rng.below(3));
        let db: &dyn KvEngine = &fan;
        let pool = key_pool(&mut rng, &split_points);
        let mut model = Map::new();
        let ctx = |what: &str| format!("seed {seed}, split points {split_points:?}: {what}");

        for step in 0..120 {
            let key = pool[rng.below(pool.len())].clone();
            match rng.below(6) {
                0 | 1 => {
                    let value = format!("v{step}").into_bytes();
                    db.put(&key, &value).unwrap();
                    model.insert(key, value);
                }
                2 => {
                    db.delete(&key).unwrap();
                    model.remove(&key);
                }
                3 => {
                    // A batch over several ranges, with a key written twice
                    // and a delete after a put: order within a key holds.
                    let mut batch = WriteBatch::new();
                    for i in 0..rng.below(8) {
                        let k = pool[rng.below(pool.len())].clone();
                        if rng.below(4) == 0 {
                            batch.delete(&k);
                            model.remove(&k);
                        } else {
                            let value = format!("b{step}.{i}").into_bytes();
                            batch.put(&k, &value);
                            model.insert(k, value);
                        }
                    }
                    db.write_opt(&WriteOptions::default(), batch).unwrap();
                }
                4 => {
                    // Duplicates, misses and keys of every range, unsorted.
                    let keys: Vec<Vec<u8>> =
                        (0..rng.below(12)).map(|_| pool[rng.below(pool.len())].clone()).collect();
                    let want: Vec<Option<Vec<u8>>> =
                        keys.iter().map(|k| model.get(k).cloned()).collect();
                    assert_eq!(db.multi_get(&keys).unwrap(), want, "{}", ctx("multi_get"));
                }
                _ => {
                    assert_eq!(db.get(&key).unwrap(), model.get(&key).cloned(), "{}", ctx("get"));
                }
            }
        }

        // Every key sits in the part that owns its range, and only there.
        for (idx, part) in fan.parts.iter().enumerate() {
            for key in part.map.lock().unwrap().keys() {
                assert_eq!(fan.ranges.route(key), idx, "{}", ctx("a key in the wrong part"));
            }
        }

        // Scans from every pooled start, with limits that end just before,
        // on and just after each range boundary.
        for start in &pool {
            let mut limits = vec![0, 1, model.len(), model.len() + 7, usize::MAX];
            for p in &split_points {
                if p.as_slice() > start.as_slice() {
                    let upto = model
                        .range::<[u8], _>((Bound::Included(start.as_slice()), Bound::Excluded(p.as_slice())))
                        .count();
                    limits.extend([upto.saturating_sub(1), upto, upto + 1]);
                }
            }
            for count in limits {
                assert_eq!(
                    db.scan(start, count).unwrap(),
                    scan_map(&model, start, count),
                    "{}",
                    ctx(&format!("scan({start:?}, {count})"))
                );
            }
        }

        let total = db.stats();
        assert_eq!(total.tickers.values[0], model.len() as u64, "{}", ctx("stats merge"));
        assert_eq!(total.levels, vec![(model.len(), 0)], "{}", ctx("stats merge"));
    }
}

/// `stats()` has no error channel, so while a part cannot be reached the
/// whole must still count every part — the unreachable one at its last
/// good snapshot. Answering with one part's numbers alone would make the
/// next ticker delta collapse by everything the other parts had counted.
#[test]
fn stats_keeps_counting_every_part_while_one_is_down() {
    let fan = MapFanout::new(vec![b"h".to_vec(), b"p".to_vec()], 0);
    let db: &dyn KvEngine = &fan;
    for key in [&b"a"[..], b"b", b"i", b"q", b"r", b"s"] {
        db.put(key, b"value").unwrap();
    }
    let healthy = db.stats_checked().unwrap();
    assert_eq!(healthy.tickers.values[0], 6);
    assert_eq!(healthy.memtable_bytes, 30);

    fan.parts[1].down.store(true, Ordering::SeqCst);
    db.put(b"c", b"value").unwrap();
    assert!(db.stats_checked().is_err(), "the checked form reports the outage");
    let degraded = db.stats();
    assert_eq!(degraded.tickers.values[0], 7, "parts 0 and 2 live, part 1 at its last snapshot");
    assert_eq!(degraded.memtable_bytes, 35);
    assert_eq!(degraded.last_sequence, 3, "last_sequence is the largest part's");
}
