//! Allocation cost of the write path, measured with a counting global
//! allocator (the same one as `get_allocs.rs`).
//!
//! A write is encoded once: `WriteBatch` appends each operation to the
//! bytes that become its WAL record, the commit patches the sequence
//! header in place and replays those bytes into the memtable. The five
//! allocations a sim-mode `Db::put` still makes, and why:
//!
//! - the batch's record: one buffer, sized by the first operation;
//! - the memtable's owned internal key and owned value: a
//!   `BTreeMap<Vec<u8>, Vec<u8>>` stores what it is handed (plus a B-tree
//!   node every few inserts — the fractional part of the count);
//! - the `Vec<&[u8]>` of the group's records that `WalWriter::add_records`
//!   and `WalSink::ship` take, once per commit group (a sim write is a
//!   group of one);
//! - the compaction picker's per-level target sizes, computed when the
//!   commit looks for background work — not the write path's own.
//!
//! The WAL writer frames into a buffer it keeps and the sim VFS appends to
//! the file's own, so neither costs a write anything once warm. A ten-op
//! `Db::write` pays the memtable's two per entry and spreads the rest, and
//! the record's doublings, over its entries.
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

/// Allocations of 2,000 `Db::put`s and of 200 ten-op `Db::write`s into a
/// memtable that already holds data and never fills (no flush in the
/// measured region). The run is simulated and repeats exactly; the
/// bounds are the counts measured at the commit before `WriteBatch`
/// became its own WAL record (91717d9: `PARENT_PUT` and `PARENT_BATCH`,
/// 11.17 per put and 5.07 per batched entry), and the change must stay
/// strictly below both.
#[test]
fn write_allocations_stay_below_the_parent() {
    use hw_sim::HardwareEnv;
    use lsm_kvs::options::Options;
    use lsm_kvs::{Db, Ticker, WriteBatch};

    const PUTS: u32 = 2_000;
    const BATCHES: u32 = 200;
    const PER_BATCH: u32 = 10;
    const PARENT_PUT: u64 = 22_331;
    const PARENT_BATCH: u64 = 10_137;
    let key = |i: u32| format!("key-{i:08}").into_bytes();
    let value = b"a value of thirty-two bytes.....";

    let env = HardwareEnv::builder().build_sim();
    let db = Db::builder(Options::default()).env(&env).open().unwrap();
    // Warm the memtable, the WAL writer's buffers and the allocator.
    for i in 0..PUTS {
        db.put(&key(i), value).unwrap();
    }

    // Keys are built outside the measured regions.
    let singles: Vec<Vec<u8>> = (PUTS..2 * PUTS).map(key).collect();
    let batched: Vec<Vec<u8>> = (2 * PUTS..2 * PUTS + BATCHES * PER_BATCH).map(key).collect();

    let before = allocs();
    for k in &singles {
        db.put(k, value).unwrap();
    }
    let put = allocs() - before;

    let before = allocs();
    for chunk in batched.chunks(PER_BATCH as usize) {
        let mut batch = WriteBatch::new();
        for k in chunk {
            batch.put(k, value);
        }
        db.write(batch).unwrap();
    }
    let batch = allocs() - before;

    let tickers = db.stats().tickers;
    assert_eq!(tickers.get(Ticker::FlushJobs), 0, "the memtable never filled");
    assert_eq!(tickers.get(Ticker::KeysWritten), u64::from(2 * PUTS + BATCHES * PER_BATCH));
    println!(
        "allocations: {put} over {PUTS} puts ({:.2} each), {batch} over {BATCHES} ten-op writes ({:.2} an entry)",
        put as f64 / f64::from(PUTS),
        batch as f64 / f64::from(BATCHES * PER_BATCH),
    );
    assert!(put < PARENT_PUT, "puts: {put} allocations, {PARENT_PUT} at the parent");
    assert!(batch < PARENT_BATCH, "batched writes: {batch} allocations, {PARENT_BATCH} at the parent");
}
