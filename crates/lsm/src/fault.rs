//! Fault-injection VFS layer, modeled on RocksDB's `FaultInjectionTestFS`.
//!
//! [`FaultInjectionVfs`] wraps any [`Vfs`] and tracks, per file, which bytes
//! have been durably synced to the base VFS (the *persisted prefix*) versus
//! which are still sitting in a volatile tail (the simulated page cache).
//! On top of that bookkeeping it can:
//!
//! - **simulate a power cut** ([`FaultInjectionVfs::power_off`] +
//!   [`FaultInjectionVfs::reboot`]): every un-synced tail is dropped, or —
//!   with [`TearStyle::TearTail`] — a random prefix of the tail is kept, as
//!   when a crash tears the last in-flight write;
//! - **inject I/O errors** per operation class, either by probability or by
//!   a call-count trigger ([`FaultInjectionVfs::fail_after_ops`]); injected
//!   errors fail *before* mutating any state, so a retried operation sees a
//!   consistent file;
//! - **answer durability queries** ([`FaultInjectionVfs::persisted_len`],
//!   [`FaultInjectionVfs::unsynced_bytes`]) so a crash harness knows exactly
//!   which bytes must survive.
//!
//! The wrapper preserves the engine-visible semantics of the base VFS while
//! the power is on: un-synced bytes are readable (they live in the page
//! cache), files appear in [`Vfs::list`], and handle drop does *not* lose
//! data. Only a power cut destroys un-synced state.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::vfs::{RandomAccessFile, Vfs, WritableFile};

/// Probability/trigger knobs for [`FaultInjectionVfs`].
///
/// All probabilities are per-operation in `[0.0, 1.0]`. The default config
/// injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that an `append` fails (before any bytes are buffered).
    pub write_error_prob: f64,
    /// Probability that a `sync` fails (before any bytes are persisted).
    pub sync_error_prob: f64,
    /// Probability that a positional read or `read_all` fails.
    pub read_error_prob: f64,
    /// Probability that a metadata op (`create`/`delete`/`rename`) fails.
    pub metadata_error_prob: f64,
    /// Whether injected errors report [`Error::is_retryable`]` == true`
    /// (transient faults) or `false` (hard faults).
    pub errors_are_retryable: bool,
    /// Seed for the deterministic internal RNG.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            write_error_prob: 0.0,
            sync_error_prob: 0.0,
            read_error_prob: 0.0,
            metadata_error_prob: 0.0,
            errors_are_retryable: true,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// How a simulated power cut treats the un-synced tail of each file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearStyle {
    /// Drop every un-synced byte cleanly (classic power cut).
    DropUnsynced,
    /// Keep a random prefix of each un-synced tail, simulating a torn
    /// last write. The kept bytes become part of the durable file image.
    TearTail {
        /// Seed for the per-file prefix choice.
        seed: u64,
    },
}

/// Per-file wrapper state.
#[derive(Default)]
struct FileEntry {
    /// Open base writer; receives bytes only at `sync` time.
    writer: Option<Box<dyn WritableFile>>,
    /// Bytes forwarded to the base VFS (durable).
    persisted: u64,
    /// Torn-write residue: bytes that landed on media during a crash but
    /// were never acknowledged by a sync. Durable across reboots.
    residue: Vec<u8>,
    /// Un-synced tail (simulated page cache). Lost on power cut.
    tail: Vec<u8>,
    /// Whether the handle called `finish`.
    finished: bool,
}

impl FileEntry {
    fn volatile_overlay(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.residue.len() + self.tail.len());
        v.extend_from_slice(&self.residue);
        v.extend_from_slice(&self.tail);
        v
    }
}

struct Inner {
    base: Arc<dyn Vfs>,
    files: HashMap<String, FileEntry>,
    cfg: FaultConfig,
    rng: u64,
    powered_off: bool,
    /// Count-down trigger: inject exactly one error after this many more
    /// faultable operations.
    fail_after: Option<u64>,
    injected: u64,
}

/// Operation classes for error injection.
#[derive(Clone, Copy)]
enum OpClass {
    Write,
    Sync,
    Read,
    Metadata,
}

impl OpClass {
    fn name(self) -> &'static str {
        match self {
            OpClass::Write => "write",
            OpClass::Sync => "sync",
            OpClass::Read => "read",
            OpClass::Metadata => "metadata",
        }
    }
}

impl Inner {
    fn next_f64(&mut self) -> f64 {
        // xorshift64* — deterministic, cheap, good enough for fault dice.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    /// Runs the power/injection checks for one faultable operation.
    /// Fails *before* the caller mutates anything.
    fn check(&mut self, op: OpClass) -> Result<()> {
        if self.powered_off {
            return Err(Error::io("simulated power loss").retryable(false));
        }
        if let Some(n) = self.fail_after {
            if n == 0 {
                self.fail_after = None;
                return Err(self.inject(op));
            }
            self.fail_after = Some(n - 1);
        }
        let prob = match op {
            OpClass::Write => self.cfg.write_error_prob,
            OpClass::Sync => self.cfg.sync_error_prob,
            OpClass::Read => self.cfg.read_error_prob,
            OpClass::Metadata => self.cfg.metadata_error_prob,
        };
        if prob > 0.0 && self.next_f64() < prob {
            return Err(self.inject(op));
        }
        Ok(())
    }

    fn inject(&mut self, op: OpClass) -> Error {
        self.injected += 1;
        Error::io(format!("injected {} error", op.name()))
            .retryable(self.cfg.errors_are_retryable)
    }
}

/// A [`Vfs`] wrapper that injects faults and simulates power cuts.
///
/// Cloning is cheap and shares state: keep a clone outside the engine to
/// drive faults while the engine owns the `Arc<dyn Vfs>` view.
///
/// ```
/// use std::sync::Arc;
/// use lsm_kvs::{FaultConfig, FaultInjectionVfs, MemVfs, TearStyle, Vfs};
///
/// let fvfs = FaultInjectionVfs::wrap(Arc::new(MemVfs::new()));
/// let mut f = fvfs.create("000001.log").unwrap();
/// f.append(b"acked").unwrap();
/// f.sync().unwrap();            // durable
/// f.append(b"in flight").unwrap(); // page cache only
/// drop(f);
/// fvfs.power_off();
/// fvfs.reboot(TearStyle::DropUnsynced);
/// assert_eq!(fvfs.read_all("000001.log").unwrap(), b"acked");
/// ```
#[derive(Clone)]
pub struct FaultInjectionVfs {
    inner: Arc<Mutex<Inner>>,
}

impl FaultInjectionVfs {
    /// Wraps a base VFS with default (inactive) fault configuration.
    pub fn wrap(base: Arc<dyn Vfs>) -> Self {
        Self::with_config(base, FaultConfig::default())
    }

    /// Wraps a base VFS with the given fault configuration.
    pub fn with_config(base: Arc<dyn Vfs>, cfg: FaultConfig) -> Self {
        FaultInjectionVfs {
            inner: Arc::new(Mutex::new(Inner {
                base,
                files: HashMap::new(),
                rng: cfg.seed | 1,
                cfg,
                powered_off: false,
                fail_after: None,
                injected: 0,
            })),
        }
    }

    /// Replaces the fault configuration (probabilities, retryability, seed
    /// is *not* re-applied to the running RNG).
    pub fn set_config(&self, cfg: FaultConfig) {
        self.inner.lock().cfg = cfg;
    }

    /// Current fault configuration.
    pub fn config(&self) -> FaultConfig {
        self.inner.lock().cfg
    }

    /// Arms a one-shot trigger: the `n`-th next faultable operation
    /// (0-based) fails with an injected error, then the trigger disarms.
    pub fn fail_after_ops(&self, n: u64) {
        self.inner.lock().fail_after = Some(n);
    }

    /// Disables probability and one-shot injection. Power state and file
    /// contents are untouched.
    pub fn clear_faults(&self) {
        let mut inner = self.inner.lock();
        let seed = inner.cfg.seed;
        inner.cfg = FaultConfig {
            seed,
            ..FaultConfig::default()
        };
        inner.fail_after = None;
    }

    /// Cuts power: every subsequent operation fails with a non-retryable
    /// I/O error until [`reboot`](Self::reboot).
    pub fn power_off(&self) {
        self.inner.lock().powered_off = true;
    }

    /// Whether power is currently cut.
    pub fn is_powered_off(&self) -> bool {
        self.inner.lock().powered_off
    }

    /// Restores power after a cut, destroying un-synced state.
    ///
    /// All open handles are invalidated (drop them first — the engine
    /// instance using this VFS must be gone). Each file keeps only its
    /// persisted prefix, plus — with [`TearStyle::TearTail`] — a random
    /// prefix of its un-synced tail to simulate a torn final write.
    pub fn reboot(&self, tear: TearStyle) {
        let mut inner = self.inner.lock();
        inner.powered_off = false;
        let mut tear_rng = match tear {
            TearStyle::DropUnsynced => 0,
            TearStyle::TearTail { seed } => seed | 1,
        };
        for entry in inner.files.values_mut() {
            // Dropping the base writer publishes the synced prefix in the
            // base VFS without the un-synced tail ever reaching it.
            entry.writer = None;
            if let TearStyle::TearTail { .. } = tear {
                if !entry.tail.is_empty() {
                    // xorshift64 for the per-file torn length.
                    tear_rng ^= tear_rng >> 12;
                    tear_rng ^= tear_rng << 25;
                    tear_rng ^= tear_rng >> 27;
                    let keep = (tear_rng % (entry.tail.len() as u64 + 1)) as usize;
                    let kept: Vec<u8> = entry.tail[..keep].to_vec();
                    entry.residue.extend_from_slice(&kept);
                }
            }
            entry.tail.clear();
        }
    }

    /// Durable length of `path`: the bytes guaranteed to survive a power
    /// cut right now. `None` if the file is unknown to both layers.
    pub fn persisted_len(&self, path: &str) -> Option<u64> {
        let inner = self.inner.lock();
        let base_len = inner.base.file_size(path).ok();
        match inner.files.get(path) {
            Some(e) => {
                let base = base_len.unwrap_or(e.persisted);
                Some(base + e.residue.len() as u64)
            }
            None => base_len,
        }
    }

    /// Total bytes currently sitting in volatile tails across all files.
    pub fn unsynced_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.files.values().map(|e| e.tail.len() as u64).sum()
    }

    /// Number of errors injected so far (probability + one-shot).
    pub fn injected_errors(&self) -> u64 {
        self.inner.lock().injected
    }
}

impl fmt::Debug for FaultInjectionVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FaultInjectionVfs")
            .field("files", &inner.files.len())
            .field("powered_off", &inner.powered_off)
            .field("injected_errors", &inner.injected)
            .finish()
    }
}

impl Vfs for FaultInjectionVfs {
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let mut inner = self.inner.lock();
        inner.check(OpClass::Metadata)?;
        let writer = inner.base.create(path)?;
        inner.files.insert(
            path.to_string(),
            FileEntry {
                writer: Some(writer),
                ..FileEntry::default()
            },
        );
        Ok(Box::new(FaultFile {
            inner: Arc::clone(&self.inner),
            path: path.to_string(),
            len: 0,
        }))
    }

    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let mut inner = self.inner.lock();
        inner.check(OpClass::Read)?;
        let base = inner.base.open(path).ok();
        let overlay: Vec<u8> = inner
            .files
            .get(path)
            .map(|e| e.volatile_overlay())
            .unwrap_or_default();
        if base.is_none() && overlay.is_empty() && !inner.files.contains_key(path) {
            // Neither layer knows the file: surface the base error.
            return inner.base.open(path);
        }
        let base_len = base.as_ref().map(|b| b.len()).unwrap_or(0);
        Ok(Arc::new(FaultReader {
            inner: Arc::clone(&self.inner),
            base,
            base_len,
            overlay,
        }))
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        let mut inner = self.inner.lock();
        inner.check(OpClass::Read)?;
        let overlay = inner.files.get(path).map(|e| e.volatile_overlay());
        match (inner.base.read_all(path), overlay) {
            (Ok(mut data), Some(extra)) => {
                data.extend_from_slice(&extra);
                Ok(data)
            }
            (Ok(data), None) => Ok(data),
            (Err(_), Some(extra)) => Ok(extra),
            (Err(e), None) => Err(e),
        }
    }

    fn delete(&self, path: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.check(OpClass::Metadata)?;
        let had_entry = inner.files.remove(path).is_some();
        match inner.base.delete(path) {
            Ok(()) => Ok(()),
            Err(_) if had_entry => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.check(OpClass::Metadata)?;
        let entry = inner.files.remove(from);
        let had_entry = entry.is_some();
        if let Some(e) = entry {
            inner.files.insert(to.to_string(), e);
        }
        match inner.base.rename(from, to) {
            Ok(()) => Ok(()),
            Err(_) if had_entry => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn link(&self, from: &str, to: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.check(OpClass::Metadata)?;
        // A hard link shares the inode, so the clone mirrors the source's
        // durable prefix *and* its page-cache state: un-synced source
        // bytes are visible through the link and die with a power cut.
        let cloned = inner.files.get(from).map(|e| FileEntry {
            writer: None,
            persisted: e.persisted,
            residue: e.residue.clone(),
            tail: e.tail.clone(),
            finished: e.finished,
        });
        let had_entry = cloned.is_some();
        match inner.base.link(from, to) {
            Ok(()) => {}
            Err(_) if had_entry => {}
            Err(e) => return Err(e),
        }
        if let Some(entry) = cloned {
            inner.files.insert(to.to_string(), entry);
        }
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        let inner = self.inner.lock();
        inner.base.exists(path) || inner.files.contains_key(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let inner = self.inner.lock();
        let mut names = inner.base.list(prefix)?;
        for name in inner.files.keys() {
            if name.starts_with(prefix) {
                names.push(name.clone());
            }
        }
        names.sort();
        names.dedup();
        Ok(names)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        let inner = self.inner.lock();
        let base_len = inner.base.file_size(path);
        match inner.files.get(path) {
            Some(e) => {
                let base = base_len.unwrap_or(e.persisted);
                Ok(base + e.residue.len() as u64 + e.tail.len() as u64)
            }
            None => base_len,
        }
    }
}

/// Writable handle: buffers appends in the volatile tail; forwards to the
/// base writer only on `sync`.
struct FaultFile {
    inner: Arc<Mutex<Inner>>,
    path: String,
    len: u64,
}

impl WritableFile for FaultFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.check(OpClass::Write)?;
        match inner.files.get_mut(&self.path) {
            Some(entry) => {
                entry.tail.extend_from_slice(data);
                self.len += data.len() as u64;
                Ok(())
            }
            None => Err(Error::io(format!("{}: file was deleted", self.path))),
        }
    }

    fn sync(&mut self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.check(OpClass::Sync)?;
        let entry = inner
            .files
            .get_mut(&self.path)
            .ok_or_else(|| Error::io(format!("{}: file was deleted", self.path)))?;
        if entry.tail.is_empty() {
            return Ok(());
        }
        let tail = std::mem::take(&mut entry.tail);
        // Forward under the lock so the durable prefix and the tail stay
        // consistent even if the base fails mid-way.
        let forwarded = match entry.writer.as_mut() {
            Some(w) => w.append(&tail).and_then(|_| w.sync()),
            None => Err(Error::io(format!("{}: sync after finish", self.path))),
        };
        let entry = inner.files.get_mut(&self.path).expect("entry exists");
        match forwarded {
            Ok(()) => {
                entry.persisted += tail.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Nothing was acknowledged durable; restore the tail so the
                // bytes remain readable (they are still in the page cache).
                let mut restored = tail;
                restored.append(&mut entry.tail);
                entry.tail = restored;
                Err(e)
            }
        }
    }

    fn finish(&mut self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.check(OpClass::Write)?;
        let entry = inner
            .files
            .get_mut(&self.path)
            .ok_or_else(|| Error::io(format!("{}: file was deleted", self.path)))?;
        // `finish` makes the synced prefix visible in the base VFS but does
        // NOT persist the tail: only `sync` buys durability.
        if let Some(mut w) = entry.writer.take() {
            w.finish()?;
        }
        entry.finished = true;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// Read handle stitching the durable base image with the volatile overlay
/// captured at open time.
struct FaultReader {
    inner: Arc<Mutex<Inner>>,
    base: Option<Arc<dyn RandomAccessFile>>,
    base_len: u64,
    overlay: Vec<u8>,
}

impl RandomAccessFile for FaultReader {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.inner.lock().check(OpClass::Read)?;
        let total = self.base_len + self.overlay.len() as u64;
        if offset > total {
            return Err(Error::io(format!(
                "read at {offset} past eof {total}"
            )));
        }
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let mut remaining = len;
        if pos < self.base_len && remaining > 0 {
            let take = remaining.min((self.base_len - pos) as usize);
            let base = self.base.as_ref().expect("base_len > 0 implies reader");
            out.extend_from_slice(&base.read_at(pos, take)?);
            pos += take as u64;
            remaining -= take;
        }
        if remaining > 0 && pos >= self.base_len {
            let start = (pos - self.base_len) as usize;
            let end = (start + remaining).min(self.overlay.len());
            if start < end {
                out.extend_from_slice(&self.overlay[start..end]);
            }
        }
        Ok(out)
    }

    fn len(&self) -> u64 {
        self.base_len + self.overlay.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn fvfs() -> FaultInjectionVfs {
        FaultInjectionVfs::wrap(Arc::new(MemVfs::new()))
    }

    #[test]
    fn unsynced_tail_is_readable_until_power_cut() {
        let v = fvfs();
        let mut f = v.create("a.log").unwrap();
        f.append(b"one").unwrap();
        f.sync().unwrap();
        f.append(b"two").unwrap();
        assert_eq!(v.read_all("a.log").unwrap(), b"onetwo");
        assert_eq!(v.persisted_len("a.log"), Some(3));
        assert_eq!(v.unsynced_bytes(), 3);
        drop(f);
        // Handle drop keeps the page cache intact.
        assert_eq!(v.read_all("a.log").unwrap(), b"onetwo");
        v.power_off();
        assert!(v.read_all("a.log").is_err());
        v.reboot(TearStyle::DropUnsynced);
        assert_eq!(v.read_all("a.log").unwrap(), b"one");
        assert_eq!(v.file_size("a.log").unwrap(), 3);
    }

    #[test]
    fn torn_tail_keeps_a_prefix_of_unsynced_bytes() {
        for seed in 1..40u64 {
            let v = fvfs();
            let mut f = v.create("a.log").unwrap();
            f.append(b"durable|").unwrap();
            f.sync().unwrap();
            f.append(b"torn-tail-bytes").unwrap();
            drop(f);
            v.power_off();
            v.reboot(TearStyle::TearTail { seed });
            let data = v.read_all("a.log").unwrap();
            assert!(data.starts_with(b"durable|"));
            let tail = &data[8..];
            assert!(tail.len() <= b"torn-tail-bytes".len());
            assert_eq!(tail, &b"torn-tail-bytes"[..tail.len()]);
        }
    }

    #[test]
    fn power_off_fails_every_operation_non_retryably() {
        let v = fvfs();
        let mut f = v.create("a.log").unwrap();
        f.append(b"x").unwrap();
        v.power_off();
        let err = f.append(b"y").unwrap_err();
        assert!(err.is_io());
        assert!(!err.is_retryable());
        assert!(f.sync().is_err());
        assert!(v.create("b.log").is_err());
        assert!(v.read_all("a.log").is_err());
        assert!(v.delete("a.log").is_err());
    }

    #[test]
    fn probability_injection_is_deterministic_and_counted() {
        let mk = || {
            let v = fvfs();
            v.set_config(FaultConfig {
                write_error_prob: 0.5,
                seed: 42,
                ..FaultConfig::default()
            });
            let mut f = v.create("a.log").unwrap();
            let mut outcomes = Vec::new();
            for _ in 0..32 {
                outcomes.push(f.append(b"x").is_ok());
            }
            (outcomes, v.injected_errors())
        };
        let (a, count_a) = mk();
        let (b, count_b) = mk();
        assert_eq!(a, b, "same seed must give the same fault schedule");
        assert_eq!(count_a, count_b);
        assert!(count_a > 0, "prob 0.5 over 32 ops must inject something");
        assert!(a.iter().any(|ok| *ok), "and must let something through");
    }

    #[test]
    fn one_shot_trigger_fires_exactly_once() {
        let v = fvfs();
        let mut f = v.create("a.log").unwrap();
        v.fail_after_ops(2);
        assert!(f.append(b"0").is_ok());
        assert!(f.append(b"1").is_ok());
        let err = f.append(b"2").unwrap_err();
        assert!(err.is_retryable(), "injected faults default to retryable");
        assert!(f.append(b"3").is_ok(), "trigger disarms after firing");
        assert_eq!(v.injected_errors(), 1);
        // Failed append buffered nothing: content is exactly 0,1,3.
        f.sync().unwrap();
        assert_eq!(v.read_all("a.log").unwrap(), b"013");
    }

    #[test]
    fn failed_sync_persists_nothing_and_retry_succeeds() {
        let v = fvfs();
        let mut f = v.create("a.log").unwrap();
        f.append(b"payload").unwrap();
        v.fail_after_ops(0);
        assert!(f.sync().is_err());
        assert_eq!(v.persisted_len("a.log"), Some(0));
        assert_eq!(v.read_all("a.log").unwrap(), b"payload");
        // Transient fault cleared: re-sync persists everything.
        f.sync().unwrap();
        assert_eq!(v.persisted_len("a.log"), Some(7));
        assert_eq!(v.unsynced_bytes(), 0);
    }

    #[test]
    fn open_reader_stitches_base_and_overlay() {
        let v = fvfs();
        let mut f = v.create("t.sst").unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        f.append(b"abcdef").unwrap();
        f.finish().unwrap();
        let r = v.open("t.sst").unwrap();
        assert_eq!(r.len(), 16);
        assert_eq!(r.read_at(0, 16).unwrap(), b"0123456789abcdef");
        assert_eq!(r.read_at(8, 4).unwrap(), b"89ab");
        assert_eq!(r.read_at(12, 10).unwrap(), b"cdef");
        // The provided `read_into` reads through `read_at`.
        let mut buf = b"stale".to_vec();
        r.read_into(8, 4, &mut buf).unwrap();
        assert_eq!(buf, b"89ab");
    }

    #[test]
    fn rename_and_delete_carry_overlay_state() {
        let v = fvfs();
        let mut f = v.create("CURRENT.tmp").unwrap();
        f.append(b"MANIFEST-000007").unwrap();
        f.sync().unwrap();
        f.finish().unwrap();
        drop(f);
        v.rename("CURRENT.tmp", "CURRENT").unwrap();
        assert!(!v.exists("CURRENT.tmp"));
        assert_eq!(v.read_all("CURRENT").unwrap(), b"MANIFEST-000007");
        v.delete("CURRENT").unwrap();
        assert!(!v.exists("CURRENT"));
        assert!(v.read_all("CURRENT").is_err());
    }

    #[test]
    fn list_merges_base_and_wrapper_views() {
        let v = fvfs();
        let mut a = v.create("000001.log").unwrap();
        a.append(b"unsynced").unwrap(); // exists only in the wrapper
        let mut b = v.create("000002.sst").unwrap();
        b.append(b"x").unwrap();
        b.sync().unwrap();
        b.finish().unwrap();
        let names = v.list("0000").unwrap();
        assert_eq!(names, vec!["000001.log".to_string(), "000002.sst".to_string()]);
    }

    #[test]
    fn clear_faults_disarms_injection() {
        let v = fvfs();
        v.set_config(FaultConfig {
            write_error_prob: 1.0,
            ..FaultConfig::default()
        });
        let mut f = v.create("a.log").unwrap();
        assert!(f.append(b"x").is_err());
        v.clear_faults();
        assert!(f.append(b"x").is_ok());
    }
}
