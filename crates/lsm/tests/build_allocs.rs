//! Allocation cost of building tables, measured with a counting global
//! allocator.
//!
//! A flush or compaction that allocates per entry — a decoded key, a
//! copied last key, a checksum staging buffer — pays the allocator tens
//! of thousands of times per table. What is left is per block: the block
//! buffer handed from builder to file on the way out; the read buffer,
//! the decompressed payload, the parsed block and its cursor on the way
//! in.

use std::sync::Arc;

use testkit::watched;

testkit::tally_allocations!();

/// Flushing one memtable, and merging two flushed tables, each cost well
/// under one allocation per entry (more than four before the table
/// builder kept its buffers). The inputs are fixed, so the counts repeat
/// exactly; the bounds are the counts measured, 0.042 per flushed entry
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
    const PINNED_FLUSH: [u64; 2] = [845, 844];
    const PINNED_MERGE: u64 = 4_992;

    // db_bench's shape: 16-byte decimal keys, 100-byte values of which
    // half compresses. Table `t` holds the keys congruent to `t` mod 2.
    let memtable = |t: u64| {
        let mem = MemTable::new(0);
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
