//! Allocation cost of building tables, measured with a counting global
//! allocator (the same one as `get_allocs.rs`).
//!
//! A flush or compaction that allocates per entry — a decoded key, a
//! copied last key, a checksum staging buffer — pays the allocator tens
//! of thousands of times per table. What is left is per block: the block
//! buffer handed from builder to file on the way out; the read buffer,
//! the decompressed payload, the parsed block and its cursor on the way
//! in.
//!
//! This file holds exactly one test so nothing else in the binary
//! pollutes the allocator counters (integration tests in one binary run
//! concurrently).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Flushing one memtable, and merging two flushed tables, each cost well
/// under one allocation per entry (more than four before the table
/// builder kept its buffers).
#[test]
fn table_builds_allocate_per_block_not_per_entry() {
    use lsm_kvs::options::CompressionType;
    use lsm_kvs::sstable::table::TableConfig;
    use lsm_kvs::{
        build_l0_table, run_compaction, FileMetadata, FileNumber, FilterContext, MemTable, MemVfs,
        ValueType,
    };

    const N: u64 = 20_000;
    const BOUND: f64 = 0.25;

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
        let before = allocs();
        let table = build_l0_table(&vfs, FileNumber(t + 1), &[mem], &config, &ctx).unwrap().table;
        let per_entry = (allocs() - before) as f64 / N as f64;
        println!("flush of {N} entries: {per_entry:.3} allocations per entry");
        assert_eq!(table.properties.num_entries, N);
        assert!(per_entry < BOUND, "flush: {per_entry:.3} allocations per entry");
        inputs.push(Arc::new(FileMetadata::new(
            FileNumber(t + 1),
            table.file_size,
            table.smallest,
            table.largest,
            N,
        )));
    }

    let before = allocs();
    let merged =
        run_compaction(&vfs, &inputs, true, u64::MAX, &config, &ctx, || FileNumber(9)).unwrap();
    let per_entry = (allocs() - before) as f64 / (2 * N) as f64;
    println!("merge of 2 x {N} entries: {per_entry:.3} allocations per entry");
    assert_eq!((merged.entries_read, merged.entries_written), (2 * N, 2 * N));
    assert!(per_entry < BOUND, "merge: {per_entry:.3} allocations per entry");
}
