//! Allocation cost of the write path, measured with a counting global
//! allocator.
//!
//! A write is encoded once: `WriteBatch` appends each operation to the
//! bytes that become its WAL record, the commit patches the sequence
//! header in place and replays those bytes into the memtable. The one
//! allocation a sim-mode `Db::put` still makes, and two it no longer
//! does:
//!
//! - the batch's record: one buffer, sized by the first operation;
//! - the records `WalWriter::add_records` and `WalSink::ship` take: a group
//!   of one (every sim write, and a real-mode write that commits alone)
//!   passes its record as a slice of one, and only a larger group collects
//!   them into a vector;
//! - the compaction picker's per-level target sizes, computed when the
//!   commit looks for background work, but only after the tree changed:
//!   the picker remembers an idle answer for the version and options it
//!   was computed for, so none of the measured puts pays for them.
//!
//! The memtable entry itself allocates nothing: its key and value are
//! appended to the memtable's arena and its record to the key index, both
//! in fixed-size chunks. What it costs is a 64 KiB arena chunk every
//! 1,200 or so entries, an index chunk every 4,096 keys and a doubling of
//! the index's chain heads as the keys double: the four allocations the
//! puts make beyond one each.
//! The WAL writer frames into a buffer it keeps and the sim VFS appends to
//! the file's own, so neither costs a write anything once warm. A ten-op
//! `Db::write` spreads them, and the record's doublings, over its
//! entries.

use testkit::{watched, Spent};

testkit::tally_allocations!();

/// Allocations of 2,000 `Db::put`s and of 200 ten-op `Db::write`s into a
/// memtable that already holds data and never fills (no flush in the
/// measured region). The run is simulated and repeats exactly; the
/// bounds are the counts it measures, 1.00 per put and 0.40 per batched
/// entry.
#[test]
fn write_allocations_stay_below_the_parent() {
    use hw_sim::HardwareEnv;
    use lsm_kvs::options::Options;
    use lsm_kvs::{Db, Ticker, WriteBatch};

    const PUTS: u32 = 2_000;
    const BATCHES: u32 = 200;
    const PER_BATCH: u32 = 10;
    const PINNED_PUT: u64 = 2_004;
    const PINNED_BATCH: u64 = 806;
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

    let ((), Spent { allocations: put, .. }) = watched(|| {
        for k in &singles {
            db.put(k, value).unwrap();
        }
    });
    let ((), Spent { allocations: batch, .. }) = watched(|| {
        for chunk in batched.chunks(PER_BATCH as usize) {
            let mut batch = WriteBatch::new();
            for k in chunk {
                batch.put(k, value);
            }
            db.write(batch).unwrap();
        }
    });

    let tickers = db.stats().tickers;
    assert_eq!(tickers.get(Ticker::FlushJobs), 0, "the memtable never filled");
    assert_eq!(tickers.get(Ticker::KeysWritten), u64::from(2 * PUTS + BATCHES * PER_BATCH));
    println!(
        "allocations: {put} over {PUTS} puts ({:.2} each), {batch} over {BATCHES} ten-op writes ({:.2} an entry)",
        put as f64 / f64::from(PUTS),
        batch as f64 / f64::from(BATCHES * PER_BATCH),
    );
    assert!(put <= PINNED_PUT, "puts: {put} allocations, pinned at {PINNED_PUT}");
    assert!(batch <= PINNED_BATCH, "batched writes: {batch} allocations, pinned at {PINNED_BATCH}");
}
