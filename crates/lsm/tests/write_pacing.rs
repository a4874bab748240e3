//! Real-mode delayed writes run at `delayed_write_rate`.
//!
//! In the delayed regime every write owes `bytes / delayed_write_rate` of
//! delay. The simulator charges exactly that to its virtual clock; a
//! wall-clock writer cannot sleep a few microseconds at a time without
//! paying a scheduler wakeup for each, so it must pace against a deadline
//! instead. This file holds one timed test so nothing else in the binary
//! competes with it for the processor.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::{Db, MemVfs, Ticker, WriteBatch};

/// 5,000 puts of 16-byte keys and 100-byte values, every one of them in
/// the delayed regime (one L0 file against a slowdown trigger of one,
/// compactions off), take about what the configured rate says: no less
/// than 0.9 of it, and no more than four times it plus 50 ms of slack.
#[test]
fn delayed_writes_run_at_the_configured_rate() {
    const PUTS: u32 = 5_000;
    let env = HardwareEnv::builder().build_wall();
    let opts = Options {
        disable_auto_compactions: true,
        level0_slowdown_writes_trigger: 1,
        ..Options::default()
    };
    let rate = opts.delayed_write_rate;
    let db = Db::builder(opts).env(&env).vfs(Arc::new(MemVfs::new())).open().unwrap();
    db.put(b"flushed-key-0000", &[0u8; 100]).unwrap();
    db.flush().unwrap();
    assert_eq!(db.stats().levels[0].0, 1, "one L0 file puts writes in the delayed regime");

    let key = |i: u32| format!("key-{i:012}").into_bytes();
    let value = [7u8; 100];
    let mut owed = 0u64;
    for i in 0..PUTS {
        let mut batch = WriteBatch::new();
        batch.put(&key(i), &value);
        owed += batch.approximate_bytes() as u64;
    }
    let nominal = Duration::from_secs_f64(owed as f64 / rate as f64);

    let started = Instant::now();
    for i in 0..PUTS {
        db.put(&key(i), &value).unwrap();
    }
    let elapsed = started.elapsed();

    let slowdowns = db.stats().tickers.get(Ticker::WriteSlowdowns);
    println!("{PUTS} delayed puts: {elapsed:?} against a nominal {nominal:?}");
    assert_eq!(slowdowns, u64::from(PUTS), "every measured put was delayed");
    assert!(elapsed >= nominal.mul_f64(0.9), "{elapsed:?} is faster than the rate ({nominal:?})");
    assert!(
        elapsed <= nominal * 4 + Duration::from_millis(50),
        "{elapsed:?} is far slower than the rate ({nominal:?})"
    );
}
