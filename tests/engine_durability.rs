//! Crash-recovery and isolation integration tests for the storage engine.

use std::sync::Arc;

use elmo::hw_sim::{DeviceModel, HardwareEnv};
use elmo::lsm_kvs::options::Options;
use elmo::lsm_kvs::vfs::MemVfs;
use elmo::lsm_kvs::{Db, Ticker, WriteBatch};

fn env() -> HardwareEnv {
    HardwareEnv::builder()
        .cores(4)
        .memory_gib(8)
        .device(DeviceModel::nvme_ssd())
        .build_sim()
}

fn churn_opts() -> Options {
    Options {
        write_buffer_size: 64 << 10,
        target_file_size_base: 64 << 10,
        max_bytes_for_level_base: 256 << 10,
        ..Options::default()
    }
}

#[test]
fn recovery_after_heavy_churn_preserves_everything() {
    let env = env();
    let vfs = Arc::new(MemVfs::new());
    let n: usize = 5_000;
    {
        let db = Db::builder(churn_opts()).env(&env).vfs(vfs.clone()).open().unwrap();
        for round in 0..3u32 {
            for i in 0..n {
                db.put(
                    format!("key-{i:06}").as_bytes(),
                    format!("round-{round}-value-{i}").as_bytes(),
                )
                .unwrap();
            }
        }
        // Delete a slice of keys, overwrite another.
        for i in (0..n).step_by(10) {
            db.delete(format!("key-{i:06}").as_bytes()).unwrap();
        }
        let stats = db.stats();
        assert!(stats.tickers.get(Ticker::FlushJobs) > 3, "tree churned");
        assert!(stats.tickers.get(Ticker::CompactionJobs) > 0);
        // Crash: drop without any explicit flush/close.
    }
    let db = Db::builder(churn_opts()).env(&env).vfs(vfs).open().unwrap();
    for i in 0..n {
        let key = format!("key-{i:06}");
        let got = db.get(key.as_bytes()).unwrap();
        if i % 10 == 0 {
            assert_eq!(got, None, "{key} was deleted");
        } else {
            assert_eq!(
                got,
                Some(format!("round-2-value-{i}").into_bytes()),
                "{key} must hold the last round's value"
            );
        }
    }
}

#[test]
fn recovery_is_idempotent_across_multiple_reopens() {
    let env = env();
    let vfs = Arc::new(MemVfs::new());
    {
        let db = Db::builder(Options::default()).env(&env).vfs(vfs.clone()).open().unwrap();
        let mut batch = WriteBatch::new();
        for i in 0..100 {
            batch.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes());
        }
        db.write(batch).unwrap();
    }
    for _ in 0..3 {
        let db = Db::builder(Options::default()).env(&env).vfs(vfs.clone()).open().unwrap();
        assert_eq!(db.get(b"k42").unwrap(), Some(b"v42".to_vec()));
        assert_eq!(db.get(b"k99").unwrap(), Some(b"v99".to_vec()));
    }
}

#[test]
fn reopening_with_different_options_keeps_data() {
    let env = env();
    let vfs = Arc::new(MemVfs::new());
    {
        let db = Db::builder(churn_opts()).env(&env).vfs(vfs.clone()).open().unwrap();
        for i in 0..2_000 {
            db.put(format!("key-{i:05}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
    }
    // Reopen with a tuned configuration (what a tuning iteration does).
    let mut tuned = Options::default();
    tuned.set_by_name("bloom_filter_bits_per_key", "10").unwrap();
    tuned.set_by_name("block_cache_size", "64MB").unwrap();
    tuned.set_by_name("compaction_readahead_size", "4MB").unwrap();
    let db = Db::builder(tuned).env(&env).vfs(vfs).open().unwrap();
    for i in (0..2_000).step_by(37) {
        assert_eq!(db.get(format!("key-{i:05}").as_bytes()).unwrap(), Some(b"v".to_vec()));
    }
    let scan = db.scan(b"key-00100", 5).unwrap();
    assert_eq!(scan.len(), 5);
    assert_eq!(scan[0].0, b"key-00100".to_vec());
}

#[test]
fn forked_stores_are_isolated() {
    let env = env();
    let base = MemVfs::new();
    {
        let db = Db::builder(Options::default()).env(&env).vfs(Arc::new(base.clone())).open().unwrap();
        for i in 0..500 {
            db.put(format!("shared-{i}").as_bytes(), b"base").unwrap();
        }
    }
    let fork_a = base.fork();
    let fork_b = base.fork();

    let db_a = Db::builder(Options::default()).env(&env).vfs(Arc::new(fork_a)).open().unwrap();
    db_a.put(b"only-in-a", b"1").unwrap();
    db_a.put(b"shared-0", b"overwritten-in-a").unwrap();

    let db_b = Db::builder(Options::default()).env(&env).vfs(Arc::new(fork_b)).open().unwrap();
    assert_eq!(db_b.get(b"only-in-a").unwrap(), None, "fork B never sees A's writes");
    assert_eq!(db_b.get(b"shared-0").unwrap(), Some(b"base".to_vec()));
    assert_eq!(db_a.get(b"shared-0").unwrap(), Some(b"overwritten-in-a".to_vec()));
}

#[test]
fn std_vfs_end_to_end_on_real_files() {
    let dir = std::env::temp_dir().join(format!("lsmkvs-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = Arc::new(elmo::lsm_kvs::vfs::StdVfs::new(&dir).unwrap());
    let env = env();
    {
        let db = Db::builder(churn_opts()).env(&env).vfs(vfs.clone()).open().unwrap();
        for i in 0..3_000 {
            db.put(format!("key-{i:05}").as_bytes(), format!("val-{i}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
    }
    // Recover from the real directory.
    let db = Db::builder(churn_opts()).env(&env).vfs(vfs).open().unwrap();
    for i in (0..3_000).step_by(113) {
        assert_eq!(
            db.get(format!("key-{i:05}").as_bytes()).unwrap(),
            Some(format!("val-{i}").into_bytes())
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine has one compaction style: every accepted value serves
/// reads and, on the sim clock, leaves the tree `level` leaves.
#[test]
fn compaction_styles_all_serve_reads() {
    let mut leveled = None;
    for style in ["level", "universal", "fifo"] {
        let env = env();
        let mut opts = churn_opts();
        opts.set_by_name("compaction_style", style).unwrap();
        let db = Db::builder(opts).env(&env).open().unwrap();
        for i in 0..4_000 {
            db.put(format!("key-{i:05}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        db.wait_background_idle().unwrap();
        for i in (0..4_000).step_by(197) {
            assert_eq!(
                db.get(format!("key-{i:05}").as_bytes()).unwrap(),
                Some(b"v".to_vec()),
                "style={style} key-{i}"
            );
        }
        let levels = db.stats().levels;
        assert_eq!(&levels, leveled.get_or_insert_with(|| levels.clone()), "style={style}");
    }
}
