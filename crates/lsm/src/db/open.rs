//! Opening a database: the builder, fresh creation, and crash recovery
//! (manifest replay, WAL replay, re-logging, garbage collection).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize};
use std::sync::Arc;

use hw_sim::HardwareEnv;
use parking_lot::{Mutex, RwLock};

use super::sim::Sim;
use super::{regime_code, wal_file_name, Db, DbInner, DbState, Mode, WalSink};
use crate::batch::WriteBatch;
use crate::cache::{BlockCache, TableCache};
use crate::compaction::pending_compaction_bytes;
use crate::error::{Error, Result};
use crate::listener::EventListener;
use crate::memtable::MemTable;
use crate::options::{ini, MemtableRep, Options};
use crate::runtime::{JobBudget, Runtime};
use crate::stats::Statistics;
use crate::version::{Version, VersionEdit};
use crate::vfs::{MemVfs, Vfs};
use crate::wal::{replay_wal, WalWriter};
use crate::write_controller::{WriteController, WriteRegime};

const CURRENT_FILE: &str = "CURRENT";
const CURRENT_TMP_FILE: &str = "CURRENT.tmp";
const OPTIONS_FILE: &str = "OPTIONS";
const OPTIONS_TMP_FILE: &str = "OPTIONS.tmp";

pub(super) fn manifest_file_name(number: u64) -> String {
    format!("MANIFEST-{number:06}")
}

/// Atomically points `CURRENT` at `manifest_name`: write a temp file,
/// sync it, then rename over. A crash at any point leaves either the old
/// or the new pointer — never a torn/empty `CURRENT`.
pub(super) fn write_current(vfs: &dyn Vfs, manifest_name: &str) -> Result<()> {
    let mut tmp = vfs.create(CURRENT_TMP_FILE)?;
    tmp.append(manifest_name.as_bytes())?;
    tmp.sync()?;
    tmp.finish()?;
    drop(tmp);
    vfs.rename(CURRENT_TMP_FILE, CURRENT_FILE)
}

/// Atomically rewrites the persisted `OPTIONS` file with the same
/// tmp + sync + rename discipline as [`write_current`]: a crash at any
/// point leaves either the old or the new config — never a torn file.
pub(super) fn write_options_file(vfs: &dyn Vfs, opts: &Options) -> Result<()> {
    let mut tmp = vfs.create(OPTIONS_TMP_FILE)?;
    tmp.append(ini::to_ini(opts).as_bytes())?;
    tmp.sync()?;
    tmp.finish()?;
    drop(tmp);
    vfs.rename(OPTIONS_TMP_FILE, OPTIONS_FILE)
}

/// Builds a fresh active memtable from the current options: bloom sized
/// off the write buffer. Entry count is estimated at ~128 bytes/entry so
/// the derived probe count tracks the actual bits-per-key budget.
pub(super) fn new_memtable(opts: &Options) -> MemTable {
    MemTable::with_config(
        MemtableRep::default(),
        (opts.write_buffer_size as f64 * opts.memtable_prefix_bloom_size_ratio) as usize,
        (opts.write_buffer_size / 128).max(16) as usize,
        0,
    )
}

/// Fluent constructor for [`Db`], created by [`Db::builder`].
///
/// ```
/// use lsm_kvs::{Db, FaultConfig, options::Options};
///
/// // Defaults: in-memory VFS, simulated 4-core / 8 GiB NVMe environment.
/// let db = Db::builder(Options::default()).open().unwrap();
/// db.put(b"k", b"v").unwrap();
///
/// // With fault injection layered over the chosen VFS:
/// let builder = Db::builder(Options::default()).fault_injection(FaultConfig::default());
/// let faults = builder.fault_vfs().unwrap();
/// let db = builder.open().unwrap();
/// db.put(b"k", b"v").unwrap();
/// assert_eq!(faults.injected_errors(), 0);
/// ```
pub struct DbBuilder {
    opts: Options,
    env: Option<HardwareEnv>,
    vfs: Option<Arc<dyn Vfs>>,
    fault: Option<crate::fault::FaultInjectionVfs>,
    listeners: Vec<Arc<dyn EventListener>>,
    job_budget: Option<Arc<JobBudget>>,
    load_options_file: bool,
    wal_sink: Option<Arc<dyn WalSink>>,
}

impl std::fmt::Debug for DbBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbBuilder")
            .field("listeners", &self.listeners.len())
            .finish_non_exhaustive()
    }
}

impl DbBuilder {
    /// Sets the hardware environment (defaults to a simulated
    /// 4-core / 8 GiB NVMe environment). The environment's clock selects
    /// the execution mode: simulated clock → discrete-event mode, wall
    /// clock → real-concurrency mode.
    #[must_use]
    pub fn env(mut self, env: &HardwareEnv) -> Self {
        self.env = Some(env.clone());
        self
    }

    /// Sets the backing VFS (defaults to a fresh [`MemVfs`]).
    ///
    /// Call before [`fault_injection`](Self::fault_injection): the fault
    /// layer wraps whatever VFS is configured when it is added.
    #[must_use]
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Wraps the configured VFS in a [`FaultInjectionVfs`](crate::FaultInjectionVfs)
    /// with `cfg`. Retrieve the handle with [`fault_vfs`](Self::fault_vfs)
    /// to drive power cuts and error bursts from the outside.
    #[must_use]
    pub fn fault_injection(mut self, cfg: crate::fault::FaultConfig) -> Self {
        let base = self
            .vfs
            .take()
            .unwrap_or_else(|| Arc::new(MemVfs::new()) as Arc<dyn Vfs>);
        let fault = crate::fault::FaultInjectionVfs::with_config(base, cfg);
        self.vfs = Some(Arc::new(fault.clone()) as Arc<dyn Vfs>);
        self.fault = Some(fault);
        self
    }

    /// The fault-injection handle, when [`fault_injection`](Self::fault_injection)
    /// was configured. Clone it before [`open`](Self::open).
    pub fn fault_vfs(&self) -> Option<crate::fault::FaultInjectionVfs> {
        self.fault.clone()
    }

    /// Registers an [`EventListener`] notified of flush/compaction
    /// completions and stall-regime transitions. May be called multiple
    /// times; listeners fire in registration order.
    #[must_use]
    pub fn listener(mut self, listener: Arc<dyn EventListener>) -> Self {
        self.listeners.push(listener);
        self
    }

    /// Makes this database take a permit from `budget` for every
    /// background job it runs (real mode), so the databases given one
    /// budget together stay within one `max_background_jobs`.
    pub(crate) fn job_budget(mut self, budget: Arc<JobBudget>) -> Self {
        self.job_budget = Some(budget);
        self
    }

    /// Overlays the mutable options persisted in the `OPTIONS` file (see
    /// [`Db::set_options`]) on top of the builder's options at open, so a
    /// crash or restart keeps a live-tuned configuration. Off by default:
    /// tuning harnesses reopen forks with explicit candidate options and
    /// must not have them silently overridden by an earlier run's file.
    #[must_use]
    pub fn load_options_file(mut self, load: bool) -> Self {
        self.load_options_file = load;
        self
    }

    /// Attaches a [`WalSink`] that observes every committed WAL group,
    /// in commit order — the attachment point for WAL-shipping
    /// replication.
    #[must_use]
    pub fn wal_sink(mut self, sink: Arc<dyn WalSink>) -> Self {
        self.wal_sink = Some(sink);
        self
    }

    /// Opens (creating or recovering) the database.
    ///
    /// The execution mode follows the environment's clock: a simulated
    /// clock selects the single-threaded discrete-event mode, a wall
    /// clock selects real-concurrency mode (group commit + background
    /// worker pool).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::InvalidArgument`](crate::ErrorKind) for
    /// inconsistent options and I/O/corruption errors from recovery.
    pub fn open(self) -> Result<Db> {
        let env = self
            .env
            .unwrap_or_else(|| HardwareEnv::builder().build_sim());
        let vfs = self
            .vfs
            .unwrap_or_else(|| Arc::new(MemVfs::new()) as Arc<dyn Vfs>);
        let mut opts = self.opts;
        if self.load_options_file && vfs.exists(OPTIONS_FILE) {
            let text = String::from_utf8(vfs.read_all(OPTIONS_FILE)?)
                .map_err(|_| Error::corruption("OPTIONS file is not utf-8"))?;
            ini::apply_mutable_ini(&mut opts, &text);
        }
        opts.validate()?;
        let controller = WriteController::from_options(&opts);
        let block_cache = if opts.no_block_cache {
            None
        } else {
            Some(Arc::new(BlockCache::new(opts.block_cache_size.max(1), 4)))
        };
        let table_cache = TableCache::new(opts.max_open_files);

        let state = if vfs.exists(CURRENT_FILE) {
            recover(&opts, vfs.as_ref())?
        } else {
            create_fresh(&opts, vfs.as_ref())?
        };
        let mode = if env.clock().is_sim() {
            Mode::Sim(Sim::new(&env))
        } else {
            Mode::Real(Runtime::new())
        };

        // Best-effort: persist the effective config so `OPTIONS` always
        // reflects the running database. Failure here must not fail an
        // otherwise-successful open (the file is only stale, and
        // `set_options` rewrites it strictly).
        let _ = write_options_file(vfs.as_ref(), &opts);

        let db = Db {
            inner: Arc::new(DbInner {
                clock: Arc::clone(env.clock()),
                vfs,
                visible_seq: AtomicU64::new(state.last_seq),
                state: Mutex::new(state),
                job_budget: self.job_budget,
                block_cache,
                table_cache,
                stats: Statistics::new(),
                listeners: self.listeners,
                last_regime: AtomicU8::new(regime_code(WriteRegime::Normal)),
                opened_at: env.clock().now(),
                controller: RwLock::new(controller),
                mode,
                handles: AtomicUsize::new(1),
                bg_retries: AtomicU64::new(0),
                wal_rotations: AtomicU64::new(0),
                manifest_resyncs: AtomicU64::new(0),
                wal_sync_retries: AtomicU64::new(0),
                wal_sink: self.wal_sink,
                pins: Mutex::new(BTreeMap::new()),
                opts: RwLock::new(Arc::new(opts)),
            }),
        };
        if let (Some(budget), Mode::Real(rt)) = (&db.inner.job_budget, &db.inner.mode) {
            budget.attach(&rt.bg);
        }
        db.grow_worker_pool()?;
        Ok(db)
    }
}

impl Db {
    /// Starts building a database handle; see [`DbBuilder`].
    pub fn builder(opts: Options) -> DbBuilder {
        DbBuilder {
            opts,
            env: None,
            vfs: None,
            fault: None,
            listeners: Vec::new(),
            job_budget: None,
            load_options_file: false,
            wal_sink: None,
        }
    }

    /// Real mode: spawns background workers until the pool matches the
    /// current `max_background_jobs` (shrink needs no action — claims
    /// read the live effective limits, so surplus workers just idle),
    /// sizes a shared job budget to the same number, then wakes the
    /// pool. No-op in sim mode, where the foreground thread runs the
    /// jobs.
    pub(super) fn grow_worker_pool(&self) -> Result<()> {
        let Mode::Real(rt) = &self.inner.mode else {
            return Ok(());
        };
        let want = self.inner.opts().max_background_jobs.clamp(1, 16) as usize;
        if let Some(budget) = &self.inner.job_budget {
            budget.set_capacity(want);
        }
        for i in rt.worker_count()..want {
            // Workers hold only a Weak handle: dropping the last Db
            // must shut the pool down, not leak it.
            let weak = Arc::downgrade(&self.inner);
            let bg = Arc::clone(&rt.bg);
            let handle = std::thread::Builder::new()
                .name(format!("lsm-bg-{i}"))
                .spawn(move || super::jobs::background_worker(weak, bg))
                .map_err(|e| Error::io(format!("spawn background worker: {e}")))?;
            rt.register_worker(handle);
        }
        rt.bg.kick();
        Ok(())
    }
}

fn create_fresh(opts: &Options, vfs: &dyn Vfs) -> Result<DbState> {
    let manifest_number = 1u64;
    let manifest_file = vfs.create(&manifest_file_name(manifest_number))?;
    let mut manifest = WalWriter::new(manifest_file);
    let wal_number = 2;
    let edit = VersionEdit {
        log_number: Some(wal_number),
        next_file_number: Some(3),
        last_sequence: Some(0),
        ..VersionEdit::default()
    };
    manifest.add_record(&edit.encode())?;
    manifest.sync()?;
    write_current(vfs, &manifest_file_name(manifest_number))?;

    let wal = if opts.disable_wal {
        None
    } else {
        Some(WalWriter::new(vfs.create(&wal_file_name(wal_number))?))
    };
    Ok(DbState::new(
        new_memtable(opts),
        wal_number,
        Version::empty(opts.num_levels as usize),
        wal,
        manifest,
        3,
        0,
    ))
}

fn recover(opts: &Options, vfs: &dyn Vfs) -> Result<DbState> {
    // 1. Manifest replay.
    let current = vfs.read_all(CURRENT_FILE)?;
    let manifest_name =
        String::from_utf8(current).map_err(|_| Error::corruption("CURRENT is not utf-8"))?;
    let manifest_data = vfs.read_all(manifest_name.trim())?;
    let replay = replay_wal(&manifest_data, !opts.paranoid_checks)?;
    let mut version = Version::empty(opts.num_levels as usize);
    let mut log_number = 0u64;
    let mut next_file = 3u64;
    let mut last_seq = 0u64;
    for record in &replay.records {
        let edit = VersionEdit::decode(record)?;
        if let Some(v) = edit.log_number {
            log_number = v;
        }
        if let Some(v) = edit.next_file_number {
            next_file = next_file.max(v);
        }
        if let Some(v) = edit.last_sequence {
            last_seq = last_seq.max(v);
        }
        version = version.apply(&edit)?;
    }

    // 2. WAL replay into a fresh memtable. Every intact record is
    // also kept, as the batch it is, so it can be re-logged into the new
    // WAL below — otherwise a second crash before the next flush would
    // lose the recovered entries (their old logs are garbage-collected).
    let mem = new_memtable(opts);
    let mut replayed: Vec<WriteBatch> = Vec::new();
    let mut wal_numbers: Vec<u64> = vfs
        .list("")?
        .into_iter()
        .filter_map(|name| {
            name.strip_suffix(".log")
                .and_then(|stem| stem.parse::<u64>().ok())
        })
        .filter(|n| *n >= log_number)
        .collect();
    wal_numbers.sort_unstable();
    for n in &wal_numbers {
        let data = vfs.read_all(&wal_file_name(*n))?;
        for record in replay_wal(&data, false)?.records {
            let batch = WriteBatch::from_record(record)?;
            // Replay everything in surviving WALs: entries that were
            // already flushed re-insert the identical (seq, value)
            // pair, which is harmless, while filtering on a sequence
            // cutoff would lose memtable-only writes (flush edits
            // record the *global* sequence, not the flushed one).
            batch.insert_into(&mem);
            last_seq = last_seq.max(batch.sequence() + batch.len().saturating_sub(1) as u64);
            replayed.push(batch);
        }
        next_file = next_file.max(n + 1);
    }

    // 3. Start a new manifest holding a full snapshot, plus a new WAL.
    let manifest_number = next_file;
    next_file += 1;
    let wal_number = next_file;
    next_file += 1;
    let mut snapshot = VersionEdit {
        log_number: Some(wal_number),
        next_file_number: Some(next_file),
        last_sequence: Some(last_seq),
        ..VersionEdit::default()
    };
    for level in 0..version.num_levels() {
        for f in version.files(level) {
            snapshot.added_files.push((level, Arc::clone(f)));
        }
    }
    let mut manifest = WalWriter::new(vfs.create(&manifest_file_name(manifest_number))?);
    manifest.add_record(&snapshot.encode())?;
    manifest.sync()?;

    // Re-log the recovered entries into the new WAL and make them
    // durable *before* switching CURRENT or deleting anything: until
    // the pointer flips, a crash recovers from the old manifest and
    // the old logs; after it flips, the new manifest + new WAL hold
    // everything.
    let wal = if opts.disable_wal {
        None
    } else {
        let mut writer = WalWriter::new(vfs.create(&wal_file_name(wal_number))?);
        for batch in &replayed {
            writer.add_record(batch.record())?;
        }
        writer.sync()?;
        Some(writer)
    };
    write_current(vfs, &manifest_file_name(manifest_number))?;

    // 4. Garbage-collect obsolete files from before the crash.
    let live: std::collections::HashSet<u64> = version.live_files().iter().map(|f| f.0).collect();
    for name in vfs.list("")? {
        if let Some(stem) = name.strip_suffix(".sst") {
            if let Ok(n) = stem.parse::<u64>() {
                if !live.contains(&n) {
                    let _ = vfs.delete(&name);
                }
            }
        } else if let Some(stem) = name.strip_suffix(".log") {
            if let Ok(n) = stem.parse::<u64>() {
                if n < wal_number {
                    let _ = vfs.delete(&name);
                }
            }
        } else if name.starts_with("MANIFEST-") && name != manifest_file_name(manifest_number) {
            let _ = vfs.delete(&name);
        }
    }
    let pending = pending_compaction_bytes(opts, &version);
    let mut state = DbState::new(mem, wal_number, version, wal, manifest, next_file, last_seq);
    state.pending_compaction_bytes = pending;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{env, small_opts};
    use super::*;

    #[test]
    fn recovery_preserves_data() {
        let env = env();
        let vfs = Arc::new(MemVfs::new());
        {
            let db = Db::builder(small_opts()).env(&env).vfs(vfs.clone()).open().unwrap();
            for i in 0..1_000 {
                db.put(format!("key-{i:04}").as_bytes(), format!("v-{i}").as_bytes())
                    .unwrap();
            }
            db.wait_background_idle().unwrap();
            // No clean shutdown: the Db is just dropped (simulated crash;
            // the WAL tail was never fsynced but MemVfs keeps appended
            // bytes, modeling a process crash rather than power loss).
        }
        let db = Db::builder(small_opts()).env(&env).vfs(vfs).open().unwrap();
        for i in (0..1_000).step_by(53) {
            assert_eq!(
                db.get(format!("key-{i:04}").as_bytes()).unwrap(),
                Some(format!("v-{i}").into_bytes()),
                "key-{i}"
            );
        }
    }

    #[test]
    fn recovery_drops_torn_wal_tail() {
        let env = env();
        let vfs = Arc::new(MemVfs::new());
        {
            let db = Db::builder(Options::default()).env(&env).vfs(vfs.clone()).open().unwrap();
            db.put(b"safe", b"1").unwrap();
            db.put(b"torn", b"2").unwrap();
        }
        // Tear the last few bytes off the newest WAL.
        let wals: Vec<String> = vfs
            .list("")
            .unwrap()
            .into_iter()
            .filter(|n| n.ends_with(".log"))
            .collect();
        let wal = wals.last().unwrap();
        let len = vfs.file_size(wal).unwrap();
        vfs.truncate(wal, (len - 3) as usize).unwrap();
        let db = Db::builder(Options::default()).env(&env).vfs(vfs).open().unwrap();
        assert_eq!(db.get(b"safe").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"torn").unwrap(), None, "torn record dropped");
    }

    #[test]
    fn builder_defaults_and_explicit_vfs() {
        // Defaults: sim env + fresh MemVfs.
        let db = Db::builder(Options::default()).open().unwrap();
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        drop(db);

        // Explicit VFS: state survives reopen through the same store.
        let vfs = Arc::new(MemVfs::new());
        let env = env();
        let db = Db::builder(Options::default())
            .env(&env)
            .vfs(vfs.clone())
            .open()
            .unwrap();
        db.put(b"persist", b"1").unwrap();
        drop(db);
        let db = Db::builder(Options::default()).env(&env).vfs(vfs).open().unwrap();
        assert_eq!(db.get(b"persist").unwrap(), Some(b"1".to_vec()));
    }

    #[test]
    fn ttl_survives_wal_recovery_without_restamping() {
        let env = env();
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let mut opts = small_opts();
        opts.ttl_seconds = 10;
        {
            let db = Db::builder(opts.clone())
                .env(&env)
                .vfs(Arc::clone(&vfs))
                .open()
                .unwrap();
            db.put(b"k", b"v").unwrap();
        }
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(11.0));
        // Reopen replays the WAL; the original stamp must survive, so
        // the entry is already expired at the new clock position.
        let db = Db::builder(opts).env(&env).vfs(vfs).open().unwrap();
        assert_eq!(db.get(b"k").unwrap(), None, "replayed stamp expired");
    }
}
