//! Allocation cost of long scans, measured with a counting global
//! allocator.
//!
//! The memtable scan cursor takes the map lock per step, re-seeks past
//! the key it holds and copies the next entry out (a bound key, a key and
//! a value: three allocations), and the scan then builds the owned result
//! row (two more). The test pins that count as an upper bound and prints
//! the measured figure; ROADMAP 3(a) is the item that lowers it.
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

/// A long memtable scan costs a bounded number of allocations per entry:
/// the re-seek cursor's three plus the owned result row's two.
#[test]
fn long_scan_allocations_are_bounded_per_entry() {
    use hw_sim::HardwareEnv;
    use lsm_kvs::options::Options;
    use lsm_kvs::Db;

    const N: usize = 4_000;

    let env = HardwareEnv::builder().build_sim();
    let opts = Options {
        // Everything stays in the memtable: the measurement is the
        // cursor, not block I/O.
        write_buffer_size: 64 << 20,
        ..Options::default()
    };
    let db = Db::builder(opts).env(&env).open().unwrap();
    for i in 0..N {
        db.put(format!("key-{i:08}").as_bytes(), b"twelve bytes").unwrap();
    }
    // Warm up allocator pools and any lazy init.
    let warm = db.scan(b"", N).unwrap();
    assert_eq!(warm.len(), N);
    drop(warm);

    let before = allocs();
    let entries = db.scan(b"", N).unwrap();
    let spent = allocs() - before;
    assert_eq!(entries.len(), N);
    let per_entry = spent as f64 / N as f64;

    println!("memtable scan: {per_entry:.2} allocations per scanned entry");
    // Headroom over 5 for the result vec's growth and merge bookkeeping;
    // one more allocation per step fails this.
    assert!(per_entry < 5.5, "memtable scan: {per_entry:.2} allocations/entry");
}
