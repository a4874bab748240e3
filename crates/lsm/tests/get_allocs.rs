//! Allocation cost of a warm point lookup, measured with a counting
//! global allocator (the same one as `scan_cost.rs`).
//!
//! `get` is a batch of one through the lookup `multi_get` uses. A batch
//! lookup that built its result, visit-order and per-file vectors on the
//! heap would make every `get` pay for them; this pins the count at what
//! the dedicated single-key path cost before it was folded in.
//!
//! This file holds exactly one test so nothing else in the binary
//! pollutes the allocator counters (integration tests in one binary run
//! concurrently).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations of 2000 warm `get`s, for keys whose newest version sits
/// in L1 and for keys the database never held (inside a file's range, so
/// the bloom filter answers, bar its false positives). The run is
/// simulated and repeats exactly; the bounds are the counts measured at
/// the commit before `get` became a batch of one (1c86b1b: `PARENT_HIT` for
/// the L1 hits, `PARENT_MISS` for the absent keys).
#[test]
fn warm_get_allocations_do_not_rise() {
    use hw_sim::HardwareEnv;
    use lsm_kvs::options::Options;
    use lsm_kvs::{Db, Ticker};

    const N: u32 = 2_000;
    const PARENT_HIT: u64 = 30_224;
    const PARENT_MISS: u64 = 6_178;
    let key = |i: u32| format!("key-{i:08}").into_bytes();
    let absent = |i: u32| format!("key-{i:08}-absent").into_bytes();

    let env = HardwareEnv::builder().build_sim();
    let opts = Options {
        write_buffer_size: 64 << 10,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        // An absent key inside a file's range stops at the filter.
        bloom_filter_bits_per_key: 10.0,
        ..Options::default()
    };
    let db = Db::builder(opts).env(&env).open().unwrap();
    for i in 0..N {
        db.put(&key(i), b"a value of thirty-two bytes.....").unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    let levels = db.stats().levels;
    assert_eq!(levels[0].0, 0, "nothing left in L0: {levels:?}");
    assert!(levels[1].0 > 0, "the data sits in L1: {levels:?}");

    // Keys are built outside the measured region; one pass warms the
    // table cache, the block cache and the allocator's pools.
    let present: Vec<Vec<u8>> = (0..N).map(key).collect();
    let missing: Vec<Vec<u8>> = (0..N).map(absent).collect();
    let spent_on = |keys: &[Vec<u8>], want_found: bool| -> u64 {
        for k in keys {
            assert_eq!(db.get(k).unwrap().is_some(), want_found);
        }
        let misses = db.stats().tickers.get(Ticker::BlockCacheMiss);
        let before = allocs();
        for k in keys {
            std::hint::black_box(db.get(k).unwrap());
        }
        let spent = allocs() - before;
        assert_eq!(db.stats().tickers.get(Ticker::BlockCacheMiss), misses, "measured pass is warm");
        spent
    };

    let hit = spent_on(&present, true);
    let miss = spent_on(&missing, false);
    println!("allocations over {N} warm gets: L1 hit {hit}, absent key {miss}");
    assert!(hit <= PARENT_HIT, "L1 hits: {hit} allocations, {PARENT_HIT} at the parent");
    assert!(miss <= PARENT_MISS, "absent keys: {miss} allocations, {PARENT_MISS} at the parent");
}
