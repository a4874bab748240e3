//! Allocation cost of long scans, measured with a counting global
//! allocator.
//!
//! The memtable scan cursor takes the lock per step and copies the next
//! entry into a key and a value buffer it reuses, so stepping allocates
//! nothing once the buffers have grown; the scan then builds the owned
//! result row (two allocations). The test pins the measured count.

use testkit::watched;

testkit::tally_allocations!();

/// A long memtable scan costs the owned result row's two allocations per
/// entry and a few per scan: the result vector, the merge's sources and
/// the memtable cursor's buffers and read-ahead. The run is simulated and
/// repeats exactly; the bound is the count it measures.
#[test]
fn long_scan_allocations_are_bounded_per_entry() {
    use hw_sim::HardwareEnv;
    use lsm_kvs::options::Options;
    use lsm_kvs::Db;

    const N: usize = 4_000;
    const PINNED: u64 = 8_009;

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

    let (entries, spent) = watched(|| db.scan(b"", N).unwrap());
    assert_eq!(entries.len(), N);
    let per_entry = spent.allocations as f64 / N as f64;

    println!("memtable scan: {per_entry:.2} allocations per scanned entry");
    assert!(
        spent.allocations <= PINNED,
        "memtable scan: {} allocations, pinned at {PINNED}",
        spent.allocations
    );
}
