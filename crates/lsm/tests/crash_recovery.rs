//! Crash-recovery harness: power cuts, torn WAL tails, and injected error
//! bursts driven through [`FaultInjectionVfs`], verifying the engine's
//! acknowledged-write contract:
//!
//! - a write acknowledged with `WriteOptions { sync: true }` is never lost;
//! - an unacknowledged (or unsynced) write either survives whole or
//!   vanishes whole — recovery never surfaces corruption or a value that
//!   was never written;
//! - reopening after any crash point of the last WAL record succeeds,
//!   recovering exactly the acked prefix.

use std::collections::BTreeMap;
use std::sync::Arc;

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::{
    Db, EventListener, FaultConfig, FaultInjectionVfs, FlushJobInfo, KvEngine, MemVfs, ShardedDb,
    TearStyle, Vfs, WriteBatch, WriteOptions,
};

/// xorshift64* — deterministic randomness for the harness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

fn sim_env() -> HardwareEnv {
    HardwareEnv::builder().build_sim()
}

fn crash_opts() -> Options {
    Options {
        // Small buffers so flushes, compactions, and WAL GC all run under
        // fault injection.
        write_buffer_size: 16 << 10,
        ..Options::default()
    }
}

fn put_opt<E: KvEngine + ?Sized>(db: &E, key: &[u8], value: &[u8], sync: bool) -> lsm_kvs::Result<()> {
    let mut batch = WriteBatch::new();
    batch.put(key, value);
    db.write_opt(&WriteOptions { sync }, batch)
}

fn delete_opt<E: KvEngine + ?Sized>(db: &E, key: &[u8], sync: bool) -> lsm_kvs::Result<()> {
    let mut batch = WriteBatch::new();
    batch.delete(key);
    db.write_opt(&WriteOptions { sync }, batch)
}

/// Per-key attempt history: `(value-or-tombstone, synced-and-acked)`.
type History = BTreeMap<Vec<u8>, Vec<(Option<Vec<u8>>, bool)>>;

/// Checks one recovered value against the durability contract.
///
/// WAL replay recovers a *prefix* of the write sequence that contains at
/// least every synced-acknowledged record, so the recovered value for a key
/// must stem from its last synced-acked attempt or any later attempt. A key
/// with no synced ack may also have lost everything.
fn assert_recovered(key: &[u8], hist: &[(Option<Vec<u8>>, bool)], got: &Option<Vec<u8>>) {
    let last_ack = hist.iter().rposition(|(_, acked)| *acked);
    let candidates: Vec<&Option<Vec<u8>>> = match last_ack {
        Some(j) => hist[j..].iter().map(|(v, _)| v).collect(),
        None => hist.iter().map(|(v, _)| v).collect(),
    };
    let ok = candidates.contains(&got) || (last_ack.is_none() && got.is_none());
    assert!(
        ok,
        "key {:?}: recovered {:?}, but valid outcomes were {:?} (last synced ack at {:?})",
        String::from_utf8_lossy(key),
        got.as_ref().map(|v| String::from_utf8_lossy(v).into_owned()),
        candidates,
        last_ack,
    );
}

/// Reopen after *every* cut point inside the final WAL record: the acked
/// prefix must survive byte-for-byte and the torn tail must be dropped
/// cleanly — never an error, never a phantom value.
#[test]
fn wal_cut_point_sweep_preserves_acked_prefix() {
    let vfs = MemVfs::new();
    let db = Db::builder(Options::default())
        .env(&sim_env())
        .vfs(Arc::new(vfs.clone()))
        .open()
        .unwrap();
    for i in 0..5 {
        put_opt(&db, format!("acked-{i}").as_bytes(), b"stable", true).unwrap();
    }
    let wal_name = {
        let logs: Vec<String> = vfs
            .list("")
            .unwrap()
            .into_iter()
            .filter(|f| f.ends_with(".log"))
            .collect();
        assert_eq!(logs.len(), 1, "expected exactly one live WAL, got {logs:?}");
        logs.into_iter().next().unwrap()
    };
    let before = vfs.file_size(&wal_name).unwrap() as usize;
    put_opt(&db, b"tail-key", b"tail-value", true).unwrap();
    let after = vfs.file_size(&wal_name).unwrap() as usize;
    drop(db);

    assert!(after > before);
    for cut in before..=after {
        let fork = fork_with_truncated_wal(&vfs, &wal_name, cut);
        let db = Db::builder(Options::default())
            .env(&sim_env())
            .vfs(Arc::new(fork))
            .open()
            .unwrap_or_else(|e| panic!("reopen failed at cut {cut}: {e}"));
        for i in 0..5 {
            assert_eq!(
                db.get(format!("acked-{i}").as_bytes()).unwrap().as_deref(),
                Some(b"stable".as_slice()),
                "acked key lost at cut {cut}"
            );
        }
        let tail = db.get(b"tail-key").unwrap();
        if cut == after {
            assert_eq!(tail.as_deref(), Some(b"tail-value".as_slice()));
        } else {
            assert_eq!(tail, None, "torn record resurfaced at cut {cut}");
        }
    }
}

fn fork_with_truncated_wal(vfs: &MemVfs, wal: &str, keep: usize) -> MemVfs {
    let fork = vfs.fork();
    fork.truncate(wal, keep).unwrap();
    fork
}

/// The core harness: >100 randomized crash cycles in simulation mode.
/// Each cycle opens the database through the fault layer, runs a random
/// workload (mixed synced/unsynced puts and deletes) under randomly armed
/// error injection, then crashes it — clean power cut, torn-tail power
/// cut, or plain process kill — and the next cycle verifies every key
/// against the durability contract.
#[test]
fn randomized_crash_cycles_sim() {
    let mut rng = Rng::new(0xC0FF_EE00_DEAD_BEEF);
    let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
    let mut history: History = BTreeMap::new();
    let mut cycles_with_faults = 0u32;

    for cycle in 0..120u64 {
        fault.clear_faults();
        assert!(!fault.is_powered_off());
        let db = Db::builder(crash_opts())
            .env(&sim_env())
            .vfs(Arc::new(fault.clone()))
            .open()
            .unwrap_or_else(|e| panic!("cycle {cycle}: clean reopen failed: {e}"));

        // Verify everything recovered from the previous cycle's crash.
        for (key, hist) in &history {
            let got = db
                .get(key)
                .unwrap_or_else(|e| panic!("cycle {cycle}: fault-free get failed: {e}"));
            assert_recovered(key, hist, &got);
        }

        // Arm faults for roughly half the cycles.
        if rng.chance(0.5) {
            cycles_with_faults += 1;
            fault.set_config(FaultConfig {
                write_error_prob: 0.02,
                sync_error_prob: 0.02,
                metadata_error_prob: 0.01,
                errors_are_retryable: rng.chance(0.7),
                ..FaultConfig::default()
            });
            if rng.chance(0.3) {
                fault.fail_after_ops(rng.below(20));
            }
        }

        // Random workload. Writes may fail — a failed attempt is recorded
        // as unacked and may still legally surface after recovery (its WAL
        // frame can ride a later sync).
        let ops = 10 + rng.below(40);
        for _ in 0..ops {
            let key = format!("key-{:03}", rng.below(150)).into_bytes();
            let sync = rng.chance(0.3);
            let entry = if rng.chance(0.1) {
                let res = delete_opt(&db, &key, sync);
                (None, res.is_ok() && sync)
            } else {
                let value = format!("v{}-{}", cycle, rng.below(1_000_000))
                    .repeat(1 + rng.below(4) as usize)
                    .into_bytes();
                let res = put_opt(&db, &key, &value, sync);
                (Some(value), res.is_ok() && sync)
            };
            history.entry(key).or_default().push(entry);
        }

        // Crash.
        match rng.below(5) {
            0 => {
                // Plain process kill: page cache (unsynced tails) survives.
                drop(db);
            }
            1 | 2 => {
                fault.power_off();
                drop(db);
                fault.reboot(TearStyle::DropUnsynced);
            }
            _ => {
                fault.power_off();
                drop(db);
                fault.reboot(TearStyle::TearTail { seed: rng.next() });
            }
        }
    }
    assert!(cycles_with_faults > 20, "fault arming never triggered");
    assert!(!history.is_empty());
}

/// The randomized crash harness against a 4-shard [`ShardedDb`]: every
/// shard shares one fault layer, so a power cut tears all four WALs at
/// once, and every cycle must recover each shard to a legal state. Keys
/// spread uniformly over the shard boundaries, so routing, the SHARDS
/// marker, and per-shard WAL replay all run under fire.
#[test]
fn sharded_randomized_crash_cycles_sim() {
    let mut rng = Rng::new(0x5AAD_ED00_C0DE_CAFE);
    let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
    let mut history: History = BTreeMap::new();
    let mut opts = crash_opts();
    opts.num_shards = 4;

    for cycle in 0..50u64 {
        fault.clear_faults();
        let db = ShardedDb::builder(opts.clone())
            .env(&sim_env())
            .vfs(Arc::new(fault.clone()))
            .open()
            .unwrap_or_else(|e| panic!("cycle {cycle}: sharded reopen failed: {e}"));

        for (key, hist) in &history {
            let got = db
                .get(key)
                .unwrap_or_else(|e| panic!("cycle {cycle}: fault-free get failed: {e}"));
            assert_recovered(key, hist, &got);
        }

        if rng.chance(0.5) {
            fault.set_config(FaultConfig {
                write_error_prob: 0.02,
                sync_error_prob: 0.02,
                metadata_error_prob: 0.01,
                errors_are_retryable: rng.chance(0.7),
                ..FaultConfig::default()
            });
            if rng.chance(0.3) {
                fault.fail_after_ops(rng.below(20));
            }
        }

        let ops = 10 + rng.below(40);
        for _ in 0..ops {
            // First byte uniform over [0, 256) so every shard gets traffic.
            let mut key = vec![rng.below(256) as u8];
            key.extend_from_slice(format!("k{:02}", rng.below(40)).as_bytes());
            let sync = rng.chance(0.3);
            let entry = if rng.chance(0.1) {
                let res = delete_opt(&db, &key, sync);
                (None, res.is_ok() && sync)
            } else {
                let value = format!("s{}-{}", cycle, rng.below(1_000_000)).into_bytes();
                let res = put_opt(&db, &key, &value, sync);
                (Some(value), res.is_ok() && sync)
            };
            history.entry(key).or_default().push(entry);
        }

        match rng.below(5) {
            0 => drop(db),
            1 | 2 => {
                fault.power_off();
                drop(db);
                fault.reboot(TearStyle::DropUnsynced);
            }
            _ => {
                fault.power_off();
                drop(db);
                fault.reboot(TearStyle::TearTail { seed: rng.next() });
            }
        }
    }
    assert!(!history.is_empty());
}

/// A one-shot retryable error burst on the WAL must be absorbed by the
/// rotate-and-retry path: the caller retries, the engine rotates to a
/// fresh WAL, and everything acknowledged survives the next power cut.
#[test]
fn error_burst_rotates_wal_and_preserves_acks() {
    let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
    let db = Db::builder(Options::default())
        .env(&sim_env())
        .vfs(Arc::new(fault.clone()))
        .open()
        .unwrap();

    let mut acked = Vec::new();
    for i in 0..50u32 {
        if i == 10 {
            // The next faultable op (the WAL append) fails once, retryably.
            fault.fail_after_ops(0);
        }
        let key = format!("burst-{i:02}").into_bytes();
        let mut attempts = 0;
        loop {
            match put_opt(&db, &key, b"burst-value", true) {
                Ok(()) => break,
                Err(e) => {
                    assert!(e.is_retryable(), "injected burst error must be retryable: {e}");
                    attempts += 1;
                    assert!(attempts < 5, "retry did not converge");
                }
            }
        }
        acked.push(key);
    }
    assert!(fault.injected_errors() >= 1);
    assert!(
        db.stats().wal_rotations >= 1,
        "retryable WAL append error should rotate the log"
    );

    fault.power_off();
    drop(db);
    fault.reboot(TearStyle::DropUnsynced);
    fault.clear_faults();

    let db = Db::builder(Options::default())
        .env(&sim_env())
        .vfs(Arc::new(fault.clone()))
        .open()
        .unwrap();
    for key in &acked {
        assert_eq!(
            db.get(key).unwrap().as_deref(),
            Some(b"burst-value".as_slice()),
            "acked key {} lost after rotation + power cut",
            String::from_utf8_lossy(key)
        );
    }
}

/// Torn-tail reboots with many different tear seeds: whatever prefix of
/// the un-synced tail lands on media, reopen must succeed and synced
/// writes must survive.
#[test]
fn torn_tail_residue_never_corrupts() {
    for seed in 1..=25u64 {
        let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
        let db = Db::builder(Options::default())
            .env(&sim_env())
            .vfs(Arc::new(fault.clone()))
            .open()
            .unwrap();
        for i in 0..8 {
            put_opt(&db, format!("durable-{i}").as_bytes(), b"yes", true).unwrap();
        }
        // A pile of unsynced writes forms the tail that gets torn.
        for i in 0..20 {
            put_opt(&db, format!("volatile-{i}").as_bytes(), b"maybe", false).unwrap();
        }
        fault.power_off();
        drop(db);
        fault.reboot(TearStyle::TearTail { seed });

        let db = Db::builder(Options::default())
            .env(&sim_env())
            .vfs(Arc::new(fault.clone()))
            .open()
            .unwrap_or_else(|e| panic!("seed {seed}: reopen failed: {e}"));
        for i in 0..8 {
            assert_eq!(
                db.get(format!("durable-{i}").as_bytes()).unwrap().as_deref(),
                Some(b"yes".as_slice()),
                "seed {seed}: synced write lost"
            );
        }
        for i in 0..20 {
            let got = db.get(format!("volatile-{i}").as_bytes()).unwrap();
            assert!(
                got.is_none() || got.as_deref() == Some(b"maybe".as_slice()),
                "seed {seed}: torn write surfaced garbage: {got:?}"
            );
        }
    }
}

/// Real-concurrency mode (wall clock, group commit, background pool):
/// synced group commits must survive a power cut, cycle after cycle.
#[test]
fn real_mode_power_cut_preserves_synced_groups() {
    let mut rng = Rng::new(0xFEED_FACE_CAFE_F00D);
    let fault = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
    let mut history: History = BTreeMap::new();

    for cycle in 0..4u64 {
        let env = HardwareEnv::builder().build_wall();
        let db = Db::builder(crash_opts())
            .env(&env)
            .vfs(Arc::new(fault.clone()))
            .open()
            .unwrap_or_else(|e| panic!("cycle {cycle}: reopen failed: {e}"));
        for (key, hist) in &history {
            let got = db.get(key).unwrap();
            assert_recovered(key, hist, &got);
        }
        for i in 0..60u64 {
            let key = format!("rk-{:03}", rng.below(80)).into_bytes();
            let value = format!("rc{cycle}-{i}").into_bytes();
            let sync = rng.chance(0.4);
            let res = put_opt(&db, &key, &value, sync);
            history
                .entry(key)
                .or_default()
                .push((Some(value), res.is_ok() && sync));
        }
        fault.power_off();
        drop(db);
        fault.reboot(if rng.chance(0.5) {
            TearStyle::DropUnsynced
        } else {
            TearStyle::TearTail { seed: rng.next() }
        });
    }
}

/// Records, for every flush that completes before the first (large)
/// memtable's own flush, whether that memtable's WAL still exists.
struct WalWatcher {
    vfs: Arc<MemVfs>,
    first_wal: &'static str,
    first_flush_done: std::sync::atomic::AtomicBool,
    wal_present_at_earlier_completions: std::sync::Mutex<Vec<bool>>,
}

impl EventListener for WalWatcher {
    fn on_flush_completed(&self, info: &FlushJobInfo) {
        use std::sync::atomic::Ordering::Relaxed;
        if info.num_entries > 10_000 {
            self.first_flush_done.store(true, Relaxed);
        } else if !self.first_flush_done.load(Relaxed) {
            self.wal_present_at_earlier_completions
                .lock()
                .unwrap()
                .push(self.vfs.exists(self.first_wal));
        }
    }
}

/// Two flushes in flight, the later and smaller one finishing first: its
/// install must detach *its own* memtable, not the oldest flushing one —
/// otherwise acknowledged keys of the big memtable vanish from reads and
/// its WAL is deleted before its SST reaches the manifest.
#[test]
fn out_of_order_flush_completion_installs_its_own_memtable() {
    let env = HardwareEnv::builder().cores(8).build_sim();
    let vfs = Arc::new(MemVfs::new());
    let watcher = Arc::new(WalWatcher {
        vfs: Arc::clone(&vfs),
        first_wal: "000002.log",
        first_flush_done: false.into(),
        wal_present_at_earlier_completions: Default::default(),
    });
    let opts = Options {
        write_buffer_size: 8 << 20,
        max_background_flushes: 2,
        disable_auto_compactions: true,
        ..Options::default()
    };
    let db = Db::builder(opts)
        .env(&env)
        .vfs(Arc::clone(&vfs) as Arc<dyn Vfs>)
        .listener(Arc::clone(&watcher) as Arc<dyn EventListener>)
        .open()
        .unwrap();

    // Fill until the first memtable switch puts an 8 MiB flush in flight.
    let first_key = b"fill-000000".to_vec();
    let mut i = 0u64;
    while db.stats().immutable_memtables == 0 {
        db.put(format!("fill-{i:06}").as_bytes(), &[7u8; 100]).unwrap();
        i += 1;
    }
    assert!(vfs.exists(watcher.first_wal), "first memtable logs to the first WAL");

    // Small memtables from here on: their flushes overtake the big one.
    db.set_options(&[("write_buffer_size", "65536")]).unwrap();
    let mut misses = 0;
    for j in 0..3_000u64 {
        db.put(format!("more-{j:06}").as_bytes(), &[9u8; 100]).unwrap();
        if db.get(&first_key).unwrap().is_none() {
            misses += 1;
        }
    }
    assert_eq!(misses, 0, "acknowledged key vanished while its flush was in flight");

    let seen = watcher.wal_present_at_earlier_completions.lock().unwrap();
    assert!(!seen.is_empty(), "no flush overtook the first one: the test exercised nothing");
    assert!(
        seen.iter().all(|present| *present),
        "the first memtable's WAL was deleted before its SST was installed: {seen:?}"
    );
}
