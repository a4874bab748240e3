//! Allocation cost of a point lookup, warm and cold, measured with a
//! counting global allocator (the same one as `scan_cost.rs`).
//!
//! `get` is a batch of one through the lookup `multi_get` uses, and a
//! seek borrows what it reads: the index entry, the restart keys of a
//! binary search and the block's restart array are all read in place.
//! What a warm hit in L1 still allocates is five buffers: the memtable
//! probe's bound key, the table seek target (the same bytes, built
//! again), the key buffer of the index iterator and of the data-block
//! iterator (prefix-compressed keys have to be assembled somewhere), and
//! the value handed to the caller. A key the bloom filter rejects pays
//! the first only. ROADMAP 3(b) wants the hit at two or fewer: one target
//! shared by memtable and tables, and iterator buffers that outlive one
//! lookup, are what is left to take.
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
/// the bloom filter answers, bar its false positives — 15 of the 2000
/// here, each costing a probe's three further buffers). And 2000 cold L1
/// hits, each reading its data block past the block cache (`fill_cache:
/// false`, before anything fills it), which add three to the warm hit's
/// five: the read buffer, the decoded block and the parsed `Arc<Block>`.
/// The run is simulated and repeats exactly; the bounds are the counts it
/// measures (the cold one at PR 25's parent, before the one-pass decoder).
#[test]
fn warm_get_allocations_do_not_rise() {
    use hw_sim::HardwareEnv;
    use lsm_kvs::options::Options;
    use lsm_kvs::{Db, ReadOptions, Ticker};

    const N: u32 = 2_000;
    const PINNED_HIT: u64 = 10_000;
    const PINNED_MISS: u64 = 2_045;
    const PINNED_COLD: u64 = 16_000;
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
    // table cache, the block cache and the allocator's pools. Returns the
    // measured pass's allocations and block-cache misses.
    let present: Vec<Vec<u8>> = (0..N).map(key).collect();
    let missing: Vec<Vec<u8>> = (0..N).map(absent).collect();
    let spent_on = |keys: &[Vec<u8>], ropts: &ReadOptions, want_found: bool| -> (u64, u64) {
        for k in keys {
            assert_eq!(db.get_opt(ropts, k).unwrap().is_some(), want_found);
        }
        let misses = db.stats().tickers.get(Ticker::BlockCacheMiss);
        let before = allocs();
        for k in keys {
            std::hint::black_box(db.get_opt(ropts, k).unwrap());
        }
        let spent = allocs() - before;
        (spent, db.stats().tickers.get(Ticker::BlockCacheMiss) - misses)
    };

    // Cold first: nothing has filled the block cache yet.
    let warm = ReadOptions::default();
    let (cold, cold_misses) = spent_on(&present, &ReadOptions { fill_cache: false, ..warm }, true);
    assert_eq!(cold_misses, u64::from(N), "each cold get misses the block cache once");
    let (hit, hit_misses) = spent_on(&present, &warm, true);
    let (miss, miss_misses) = spent_on(&missing, &warm, false);
    assert_eq!((hit_misses, miss_misses), (0, 0), "the warm passes are warm");
    println!("allocations over {N} warm gets: L1 hit {hit}, absent key {miss}");
    println!("allocations over {N} cold gets: L1 hit {cold}");
    assert!(hit <= PINNED_HIT, "L1 hits: {hit} allocations, pinned at {PINNED_HIT}");
    assert!(miss <= PINNED_MISS, "absent keys: {miss} allocations, pinned at {PINNED_MISS}");
    assert!(cold <= PINNED_COLD, "cold L1 hits: {cold} allocations, pinned at {PINNED_COLD}");
}
