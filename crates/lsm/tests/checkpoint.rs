//! Online checkpoint/backup harness: roundtrips, hard-link semantics,
//! sharded fan-out, concurrent write load, and power-cut crash safety
//! driven through [`FaultInjectionVfs`].
//!
//! The contract under test:
//!
//! - a checkpoint taken at time T serves every write acknowledged before
//!   T (restore-by-open, no repair step);
//! - the source database is never mutated by checkpointing and keeps
//!   serving throughout;
//! - a crash at *any* point during checkpointing leaves the source fully
//!   recoverable and the checkpoint either absent/incomplete (no
//!   `CURRENT`) or complete and openable — never a torn copy that opens.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::{
    Db, FaultConfig, FaultInjectionVfs, KvEngine, MemVfs, NamespaceVfs, ShardedDb, TearStyle, Vfs,
    WriteBatch, WriteOptions,
};

fn sim_env() -> HardwareEnv {
    HardwareEnv::builder().build_sim()
}

fn small_opts() -> Options {
    Options {
        write_buffer_size: 16 << 10,
        ..Options::default()
    }
}

fn put_synced(db: &Db, key: &[u8], value: &[u8]) {
    let mut batch = WriteBatch::new();
    batch.put(key, value);
    db.write_opt(&WriteOptions { sync: true }, batch).unwrap();
}

fn open_checkpoint(base: Arc<dyn Vfs>, dir: &str, env: &HardwareEnv) -> lsm_kvs::Result<Db> {
    Db::builder(small_opts())
        .env(env)
        .vfs(Arc::new(NamespaceVfs::new(base, format!("{dir}/"))))
        .open()
}

#[test]
fn checkpoint_roundtrip_is_point_in_time() {
    let env = sim_env();
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let db = Db::builder(small_opts())
        .env(&env)
        .vfs(Arc::clone(&vfs))
        .open()
        .unwrap();
    for i in 0..200 {
        put_synced(&db, format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes());
    }
    db.flush().unwrap();
    // Some entries only in the memtable at checkpoint time.
    for i in 200..260 {
        put_synced(&db, format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes());
    }
    db.delete(b"k0007").unwrap();
    db.checkpoint("ckpt").unwrap();
    // Writes after the checkpoint must not leak into it.
    for i in 260..300 {
        put_synced(&db, format!("k{i:04}").as_bytes(), format!("late{i}").as_bytes());
    }
    db.put(b"k0003", b"overwritten-later").unwrap();

    let restored = open_checkpoint(Arc::clone(&vfs), "ckpt", &env).unwrap();
    for i in 0..260 {
        let key = format!("k{i:04}");
        let want = if i == 7 { None } else { Some(format!("v{i}").into_bytes()) };
        assert_eq!(restored.get(key.as_bytes()).unwrap(), want, "restored {key}");
    }
    for i in 260..300 {
        assert_eq!(
            restored.get(format!("k{i:04}").as_bytes()).unwrap(),
            None,
            "post-checkpoint write leaked into the checkpoint"
        );
    }
    // The source still serves everything, including post-checkpoint state.
    assert_eq!(db.get(b"k0003").unwrap(), Some(b"overwritten-later".to_vec()));
    assert_eq!(db.get(b"k0299").unwrap(), Some(b"late299".to_vec()));
    // The restored copy is a live database: it accepts writes.
    restored.put(b"new-in-restore", b"x").unwrap();
    assert_eq!(restored.get(b"new-in-restore").unwrap(), Some(b"x".to_vec()));
    assert_eq!(db.get(b"new-in-restore").unwrap(), None, "restore wrote into source");
}

#[test]
fn checkpoint_survives_source_compaction_deleting_linked_ssts() {
    let env = sim_env();
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let db = Db::builder(small_opts())
        .env(&env)
        .vfs(Arc::clone(&vfs))
        .open()
        .unwrap();
    for i in 0..300 {
        put_synced(&db, format!("k{i:04}").as_bytes(), &[i as u8; 64]);
    }
    db.flush().unwrap();
    db.checkpoint("ckpt").unwrap();
    // Churn the source so compaction rewrites and deletes the very SSTs
    // the checkpoint linked.
    for round in 0..5 {
        for i in 0..300 {
            put_synced(&db, format!("k{i:04}").as_bytes(), &[round as u8; 80]);
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    // The hard links keep the checkpoint's view alive and unchanged.
    let restored = open_checkpoint(Arc::clone(&vfs), "ckpt", &env).unwrap();
    for i in 0..300 {
        assert_eq!(
            restored.get(format!("k{i:04}").as_bytes()).unwrap(),
            Some(vec![i as u8; 64]),
            "checkpoint content changed under source churn (k{i:04})"
        );
    }
}

#[test]
fn sharded_checkpoint_roundtrip() {
    let env = sim_env();
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let opts = Options {
        num_shards: 4,
        write_buffer_size: 16 << 10,
        ..Options::default()
    };
    let db = ShardedDb::builder(opts.clone())
        .env(&env)
        .vfs(Arc::clone(&vfs))
        .open()
        .unwrap();
    let keys: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b, b ^ 0x5a, b]).collect();
    for k in &keys {
        db.put(k, k).unwrap();
    }
    db.flush().unwrap();
    db.checkpoint("backup").unwrap();
    for k in &keys {
        db.put(k, b"changed-after-checkpoint").unwrap();
    }

    let restored = ShardedDb::builder(opts)
        .env(&env)
        .vfs(Arc::new(NamespaceVfs::new(Arc::clone(&vfs), "backup/")) as Arc<dyn Vfs>)
        .open()
        .unwrap();
    assert_eq!(restored.num_shards(), 4);
    for k in &keys {
        assert_eq!(restored.get(k).unwrap().as_deref(), Some(k.as_slice()));
    }
    // Cross-shard scan over the restored copy stays ordered and complete.
    let got = restored.scan(b"", usize::MAX).unwrap();
    assert_eq!(got.len(), keys.len());
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn checkpoint_under_concurrent_write_load() {
    let env = HardwareEnv::builder().build_wall();
    let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    let db = Db::builder(small_opts())
        .env(&env)
        .vfs(Arc::clone(&vfs))
        .open()
        .unwrap();

    let acked: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for (t, counter) in acked.iter().enumerate() {
        let db = db.clone();
        let counter = Arc::clone(counter);
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = format!("w{t}-{i:06}");
                let mut batch = WriteBatch::new();
                batch.put(key.as_bytes(), key.as_bytes());
                db.write_opt(&WriteOptions { sync: true }, batch).unwrap();
                i += 1;
                counter.store(i, Ordering::SeqCst);
            }
            i
        }));
    }
    // Let some load accumulate, then checkpoint mid-stream.
    while acked.iter().map(|c| c.load(Ordering::SeqCst)).sum::<u64>() < 400 {
        std::thread::yield_now();
    }
    // Everything acked before the checkpoint call must be in the copy.
    let floor: Vec<u64> = acked.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    db.checkpoint("live-ckpt").unwrap();
    stop.store(true, Ordering::Relaxed);
    let totals: Vec<u64> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    let restored = open_checkpoint(Arc::clone(&vfs), "live-ckpt", &env).unwrap();
    for (t, done) in floor.iter().enumerate() {
        for i in 0..*done {
            let key = format!("w{t}-{i:06}");
            assert_eq!(
                restored.get(key.as_bytes()).unwrap(),
                Some(key.clone().into_bytes()),
                "write acked before checkpoint missing from the copy"
            );
        }
    }
    // Source lost nothing either.
    for (t, total) in totals.iter().enumerate() {
        for i in 0..*total {
            let key = format!("w{t}-{i:06}");
            assert_eq!(db.get(key.as_bytes()).unwrap(), Some(key.into_bytes()));
        }
    }
}

/// Power-cuts the checkpoint at every faultable operation in turn: arm a
/// one-shot non-retryable fault at op `n`, run the checkpoint, and on
/// failure cut power. After reboot the source must recover every synced
/// write, and the checkpoint directory must be either incomplete (no
/// `CURRENT` — a restore harness discards it) or complete and openable
/// with full point-in-time content.
#[test]
fn power_cut_at_every_checkpoint_fail_point() {
    let mut completed = false;
    let mut fail_points = 0u64;
    for n in 0.. {
        let env = sim_env();
        let base: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let fvfs = FaultInjectionVfs::wrap(Arc::clone(&base));
        fvfs.set_config(FaultConfig {
            errors_are_retryable: false,
            ..FaultConfig::default()
        });
        let db = Db::builder(small_opts())
            .env(&env)
            .vfs(Arc::new(fvfs.clone()))
            .open()
            .unwrap();
        for i in 0..120 {
            put_synced(&db, format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes());
        }
        db.flush().unwrap();
        for i in 120..150 {
            put_synced(&db, format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes());
        }

        fvfs.fail_after_ops(n);
        let result = db.checkpoint("ckpt");
        fvfs.clear_faults();
        if result.is_err() {
            fail_points += 1;
            // Crash at the fail point: volatile state dies.
            fvfs.power_off();
            drop(db);
            fvfs.reboot(TearStyle::DropUnsynced);
        } else {
            drop(db);
        }

        // The source recovers every synced write regardless.
        let source = Db::builder(small_opts())
            .env(&env)
            .vfs(Arc::new(fvfs.clone()))
            .open()
            .unwrap();
        for i in 0..150 {
            let key = format!("k{i:04}");
            assert_eq!(
                source.get(key.as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes()),
                "fail point {n}: source lost synced write {key}"
            );
        }
        drop(source);

        // The checkpoint is either unpublished or fully usable.
        if fvfs.exists("ckpt/CURRENT") {
            let restored = Db::builder(small_opts())
                .env(&env)
                .vfs(Arc::new(NamespaceVfs::new(
                    Arc::new(fvfs.clone()) as Arc<dyn Vfs>,
                    "ckpt/",
                )))
                .open()
                .unwrap_or_else(|e| panic!("fail point {n}: published checkpoint unopenable: {e}"));
            for i in 0..150 {
                let key = format!("k{i:04}");
                assert_eq!(
                    restored.get(key.as_bytes()).unwrap(),
                    Some(format!("v{i}").into_bytes()),
                    "fail point {n}: published checkpoint missing {key}"
                );
            }
        }

        if result.is_ok() {
            assert!(
                fvfs.exists("ckpt/CURRENT"),
                "successful checkpoint did not publish CURRENT"
            );
            completed = true;
            break;
        }
        assert!(n < 10_000, "checkpoint never completed under the fault sweep");
    }
    assert!(completed);
    assert!(
        fail_points >= 5,
        "sweep exercised too few fail points ({fail_points}) to mean anything"
    );
}
