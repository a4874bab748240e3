//! Allocation cost of building tables, measured with a counting global
//! allocator.
//!
//! A flush or compaction that allocates per entry — a decoded key, a
//! copied last key, a checksum staging buffer — pays the allocator tens
//! of thousands of times per table. What is left is per block: the block
//! buffer handed from builder to file on the way out; the read buffer,
//! the decompressed payload, the parsed block and its cursor on the way
//! in. A flush also puts the memtable's keys in order, once: a handful of
//! allocations per memtable, for the sort's scratch, the sorted run and
//! the merge that reads it.
//!
//! The memtable itself allocates in fixed-size chunks, so filling one to
//! the largest write buffer the tuner proposes allocates a few times per
//! thousand entries. Its largest request is its key index's array of
//! chain heads, 4 to 8 bytes per distinct key.

use std::sync::Arc;

use testkit::watched;

testkit::tally_allocations!();

/// Flushing one memtable, and merging two flushed tables, each cost well
/// under one allocation per entry (more than four before the table
/// builder kept its buffers). The inputs are fixed, so the counts repeat
/// exactly; the bounds are the counts measured, 0.043 per flushed entry
/// and 0.125 per merged one.
#[test]
fn table_builds_allocate_per_block_not_per_entry() {
    use lsm_kvs::options::CompressionType;
    use lsm_kvs::sstable::table::TableConfig;
    use lsm_kvs::{
        build_l0_table, run_compaction, FileMetadata, FileNumber, FilterContext, MemTable, MemVfs,
        ValueType,
    };

    const N: u64 = 20_000;
    const PINNED_FLUSH: [u64; 2] = [851, 850];
    const PINNED_MERGE: u64 = 4_992;

    // db_bench's shape: 16-byte decimal keys, 100-byte values of which
    // half compresses. Table `t` holds the keys congruent to `t` mod 2.
    let memtable = |t: u64| {
        let mem = MemTable::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t;
        for i in 0..N {
            let mut value = [0u8; 100];
            for byte in &mut value[..50] {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *byte = x as u8;
            }
            let key = format!("{:016}", i * 2 + t);
            mem.add(t * N + i + 1, ValueType::Value, key.as_bytes(), &value);
        }
        Arc::new(mem)
    };
    let config = TableConfig {
        compression: CompressionType::Snappy,
        bloom_bits_per_key: 10.0,
        ..TableConfig::default()
    };
    let ctx = FilterContext::default();
    let vfs = MemVfs::new();

    let mut inputs = Vec::new();
    for t in 0..2 {
        let mem = memtable(t);
        let (built, spent) = watched(|| build_l0_table(&vfs, FileNumber(t + 1), &[mem], &config, &ctx));
        let table = built.unwrap().table;
        let (n, pinned) = (spent.allocations, PINNED_FLUSH[t as usize]);
        let per_entry = n as f64 / N as f64;
        println!("flush of {N} entries: {per_entry:.3} allocations per entry ({n})");
        assert_eq!(table.properties.num_entries, N);
        assert!(n <= pinned, "flush: {n} allocations, pinned at {pinned}");
        inputs.push(Arc::new(FileMetadata::new(
            FileNumber(t + 1),
            table.file_size,
            table.smallest,
            table.largest,
            N,
        )));
    }

    let (merged, spent) =
        watched(|| run_compaction(&vfs, &inputs, true, u64::MAX, &config, &ctx, || FileNumber(9)).unwrap());
    let n = spent.allocations;
    let per_entry = n as f64 / (2 * N) as f64;
    println!("merge of 2 x {N} entries: {per_entry:.3} allocations per entry ({n})");
    assert_eq!((merged.entries_read, merged.entries_written), (2 * N, 2 * N));
    assert!(n <= PINNED_MERGE, "merge: {n} allocations, pinned at {PINNED_MERGE}");
}

/// Filling one memtable to a 64 MiB write buffer (the largest that
/// `repro table5` and the tuner's candidates use) with db_bench-shaped
/// entries in random key order, then walking its view as a flush does:
/// a few allocations per thousand entries, and no request larger than the
/// key index's array of chain heads (2 MiB for these keys). A buffer
/// that doubled with the entry count (a growing entry vector, a rehashing
/// map, an entry-sized sort array) shows here as a larger request. The
/// inputs are fixed, so the counts repeat exactly; the bounds are the
/// counts measured.
#[test]
fn memtable_fill_and_view_allocate_in_fixed_chunks() {
    use lsm_kvs::{MemTable, ValueType};

    const BUDGET: usize = 64 << 20;
    const PINNED_ALLOCATIONS: u64 = 879;
    const PINNED_LARGEST: usize = 2 << 20;

    // 16-byte decimal keys of scattered ids, 100-byte values; enough of
    // them to pass the budget, built outside the measured region.
    let entries = BUDGET / (16 + 8 + 100 + 48) + 1;
    let keys: Vec<[u8; 16]> = (0..entries as u64)
        .map(|i| {
            let mut id = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 24;
            let mut key = [b'0'; 16];
            for byte in key.iter_mut().rev() {
                *byte = b'0' + (id % 10) as u8;
                id /= 10;
            }
            key
        })
        .collect();
    let value = [0x5a_u8; 100];

    let (filled, spent) = watched(|| {
        let mem = MemTable::new();
        let mut added = 0;
        while mem.approximate_memory_usage() < BUDGET {
            mem.add(added as u64 + 1, ValueType::Value, &keys[added], &value);
            added += 1;
        }
        let view = mem.view();
        let walked = view.iter().count();
        drop(view);
        (added, walked)
    });
    let (added, walked) = filled;
    assert_eq!(walked, added);
    let n = spent.allocations;
    println!(
        "memtable filled to 64 MiB ({added} entries) and viewed: \
         {:.4} allocations per entry ({n}), largest request {} bytes",
        n as f64 / added as f64,
        spent.largest
    );
    assert!(n <= PINNED_ALLOCATIONS, "fill and view: {n} allocations, pinned at {PINNED_ALLOCATIONS}");
    assert!(
        spent.largest <= PINNED_LARGEST,
        "fill and view: a {}-byte request, pinned at {PINNED_LARGEST}",
        spent.largest
    );
}
