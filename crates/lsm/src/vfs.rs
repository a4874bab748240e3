//! Virtual file system abstraction.
//!
//! The engine performs all persistence through [`Vfs`] so the same code
//! runs against real files ([`StdVfs`]) or an in-memory store
//! ([`MemVfs`]). Note that the VFS is *pure storage*: simulated I/O
//! timing is charged separately by the engine's I/O timer, which knows
//! whether an access is foreground or background — see `db.rs`.
//!
//! Faults (failed appends and syncs, power cuts, torn tails) are injected
//! by wrapping any `Vfs` in [`crate::fault::FaultInjectionVfs`].

use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Error, Result};

/// A handle for appending to a new file.
pub trait WritableFile: Send {
    /// Appends bytes to the file.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) on underlying write failure.
    fn append(&mut self, data: &[u8]) -> Result<()>;

    /// Durably persists everything appended so far.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) on underlying sync failure.
    fn sync(&mut self) -> Result<()>;

    /// Completes the file, making it visible to [`Vfs::open`].
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) on underlying flush failure.
    fn finish(&mut self) -> Result<()>;

    /// Bytes appended so far.
    fn len(&self) -> u64;

    /// Whether nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A handle for positional reads of an immutable file.
pub trait RandomAccessFile: Send + Sync {
    /// Reads up to `len` bytes at `offset`, short at end of file.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the read fails or the offset is past EOF.
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>>;

    /// Total file length in bytes.
    fn len(&self) -> u64;

    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// File system operations the engine needs.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates (or truncates) a file for writing.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if creation fails.
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>>;

    /// Opens an existing file for random access.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the file does not exist.
    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>>;

    /// Reads a whole file (used for WAL/manifest recovery).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the file does not exist.
    fn read_all(&self, path: &str) -> Result<Vec<u8>>;

    /// Deletes a file; deleting a missing file is an error.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the file does not exist.
    fn delete(&self, path: &str) -> Result<()>;

    /// Atomically renames a file.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the source does not exist.
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Hard-links `from` as `to`: both names afterwards refer to the same
    /// immutable contents, and deleting one leaves the other readable.
    /// Checkpoints use this to publish a point-in-time copy of every live
    /// SST without duplicating the bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if `from` does not
    /// exist or `to` already does.
    fn link(&self, from: &str, to: &str) -> Result<()>;

    /// Whether a file exists.
    fn exists(&self, path: &str) -> bool;

    /// Lists file names starting with `prefix`.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the directory cannot be read.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Size of a file in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the file does not exist.
    fn file_size(&self, path: &str) -> Result<u64>;
}

// ---------------------------------------------------------------------------
// In-memory VFS
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemVfsInner {
    files: HashMap<String, Arc<Vec<u8>>>,
}

/// An in-memory file system.
///
/// All file contents live in a shared map of `Arc<Vec<u8>>`. A writer's
/// bytes reach the map — and so [`Vfs::open`], [`Vfs::read_all`] and
/// [`Vfs::file_size`] — when it syncs, finishes or is dropped, not
/// before; a file dropped unfinished keeps what was appended, which is
/// what crash-recovery of a WAL needs. Publishing costs the bytes
/// appended since the last publish: the map's buffer is extended in
/// place unless a [`fork`](MemVfs::fork), a link or an open reader shares
/// it, and only then copied, so each of those keeps the contents it saw.
#[derive(Debug, Default, Clone)]
pub struct MemVfs {
    inner: Arc<Mutex<MemVfsInner>>,
}

impl MemVfs {
    /// Creates an empty in-memory file system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the tail of a file to `keep` bytes — simulates a crash that
    /// tore the final records off a log.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the file does not exist.
    pub fn truncate(&self, path: &str, keep: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        let file = inner
            .files
            .get_mut(path)
            .ok_or_else(|| Error::io(format!("truncate: no such file {path}")))?;
        let mut contents = file.as_ref().clone();
        contents.truncate(keep);
        *file = Arc::new(contents);
        Ok(())
    }

    /// Total bytes stored across all files.
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().files.values().map(|f| f.len() as u64).sum()
    }

    /// Creates an independent copy-on-write fork of this file system.
    ///
    /// File contents are shared (`Arc`), so forking a preloaded store is
    /// cheap; new writes in either fork create new entries and never
    /// mutate shared contents. Tuning sessions use this to run every
    /// iteration against an identical preloaded database.
    pub fn fork(&self) -> MemVfs {
        let inner = self.inner.lock();
        MemVfs {
            inner: Arc::new(Mutex::new(MemVfsInner {
                files: inner.files.clone(),
            })),
        }
    }
}

struct MemWritableFile {
    vfs: MemVfs,
    path: String,
    /// Everything published so far: a handle to the buffer the map holds,
    /// not a copy of it.
    published: Arc<Vec<u8>>,
    /// Appended since the last publish.
    pending: Vec<u8>,
    finished: bool,
}

impl MemWritableFile {
    /// Makes `published ++ pending` the contents of `path`, whatever the
    /// path holds now (it may have been deleted, renamed away or
    /// truncated since the last publish).
    fn publish(&mut self) {
        let mut inner = self.vfs.inner.lock();
        // The map's entry is about to be replaced. Dropping it first
        // leaves this writer the buffer's only holder, so `make_mut`
        // extends it in place, unless a fork, link or reader shares it.
        let key = match inner.files.remove_entry(&self.path) {
            Some((key, _)) => key,
            None => self.path.clone(),
        };
        if self.published.is_empty() {
            self.published = Arc::new(std::mem::take(&mut self.pending));
        } else {
            Arc::make_mut(&mut self.published).extend_from_slice(&self.pending);
            self.pending.clear();
        }
        inner.files.insert(key, Arc::clone(&self.published));
    }
}

impl WritableFile for MemWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.pending.extend_from_slice(data);
        // The shared view is refreshed on sync/finish/drop rather than on
        // every append. A dropped-without-finish file still publishes, so
        // crash simulations observe the unsynced tail a real OS would
        // have kept in the page cache.
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.publish();
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.finished = true;
        self.publish();
        Ok(())
    }

    fn len(&self) -> u64 {
        (self.published.len() + self.pending.len()) as u64
    }
}

impl Drop for MemWritableFile {
    fn drop(&mut self) {
        if !self.finished {
            // An unfinished file still leaves its bytes behind, like a
            // crashed process would.
            self.publish();
        }
    }
}

struct MemRandomAccessFile {
    contents: Arc<Vec<u8>>,
}

impl RandomAccessFile for MemRandomAccessFile {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let start = offset as usize;
        if start > self.contents.len() {
            return Err(Error::io(format!(
                "read past eof: offset {offset} > len {}",
                self.contents.len()
            )));
        }
        let end = (start + len).min(self.contents.len());
        Ok(self.contents[start..end].to_vec())
    }

    fn len(&self) -> u64 {
        self.contents.len() as u64
    }
}

impl Vfs for MemVfs {
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let mut inner = self.inner.lock();
        inner.files.insert(path.to_string(), Arc::new(Vec::new()));
        Ok(Box::new(MemWritableFile {
            vfs: self.clone(),
            path: path.to_string(),
            published: Arc::default(),
            pending: Vec::new(),
            finished: false,
        }))
    }

    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let inner = self.inner.lock();
        let contents = inner
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| Error::io(format!("open: no such file {path}")))?;
        Ok(Arc::new(MemRandomAccessFile { contents }))
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        let inner = self.inner.lock();
        inner
            .files
            .get(path)
            .map(|c| c.as_ref().clone())
            .ok_or_else(|| Error::io(format!("read_all: no such file {path}")))
    }

    fn delete(&self, path: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        inner
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| Error::io(format!("delete: no such file {path}")))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        let contents = inner
            .files
            .remove(from)
            .ok_or_else(|| Error::io(format!("rename: no such file {from}")))?;
        inner.files.insert(to.to_string(), contents);
        Ok(())
    }

    fn link(&self, from: &str, to: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.files.contains_key(to) {
            return Err(Error::io(format!("link: {to} already exists")));
        }
        let contents = inner
            .files
            .get(from)
            .cloned()
            .ok_or_else(|| Error::io(format!("link: no such file {from}")))?;
        // Sharing the `Arc` mirrors a hard link sharing the inode:
        // finished files are immutable, so both names stay consistent.
        inner.files.insert(to.to_string(), contents);
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.lock().files.contains_key(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let inner = self.inner.lock();
        let mut names: Vec<String> = inner
            .files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        names.sort();
        Ok(names)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        let inner = self.inner.lock();
        inner
            .files
            .get(path)
            .map(|c| c.len() as u64)
            .ok_or_else(|| Error::io(format!("file_size: no such file {path}")))
    }
}

// ---------------------------------------------------------------------------
// Namespaced view of another VFS
// ---------------------------------------------------------------------------

/// A view of another VFS with every path prefixed.
///
/// Gives each shard of a sharded database its own flat file namespace
/// (`s0_CURRENT`, `s1_CURRENT`, ...) on a single backing store, so one
/// directory (or one [`MemVfs`]) holds all shards and crash/fault
/// injection layers wrap the whole database at once.
#[derive(Clone)]
pub struct NamespaceVfs {
    base: Arc<dyn Vfs>,
    prefix: String,
}

impl NamespaceVfs {
    /// Creates a view of `base` where every path gains `prefix`.
    pub fn new(base: Arc<dyn Vfs>, prefix: impl Into<String>) -> Self {
        NamespaceVfs {
            base,
            prefix: prefix.into(),
        }
    }

    fn full(&self, path: &str) -> String {
        format!("{}{}", self.prefix, path)
    }
}

impl fmt::Debug for NamespaceVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NamespaceVfs")
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl Vfs for NamespaceVfs {
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        self.base.create(&self.full(path))
    }

    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        self.base.open(&self.full(path))
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        self.base.read_all(&self.full(path))
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.base.delete(&self.full(path))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.base.rename(&self.full(from), &self.full(to))
    }

    fn link(&self, from: &str, to: &str) -> Result<()> {
        self.base.link(&self.full(from), &self.full(to))
    }

    fn exists(&self, path: &str) -> bool {
        self.base.exists(&self.full(path))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let full = self.full(prefix);
        Ok(self
            .base
            .list(&full)?
            .into_iter()
            .filter_map(|name| name.strip_prefix(&self.prefix).map(String::from))
            .collect())
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.base.file_size(&self.full(path))
    }
}

// ---------------------------------------------------------------------------
// Real file system VFS
// ---------------------------------------------------------------------------

/// A [`Vfs`] over a directory of the real file system.
#[derive(Debug, Clone)]
pub struct StdVfs {
    root: PathBuf,
}

impl StdVfs {
    /// Creates a VFS rooted at `root`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(StdVfs { root })
    }

    fn full(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }
}

struct StdWritableFile {
    file: std::io::BufWriter<std::fs::File>,
    len: u64,
}

impl WritableFile for StdWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.file.write_all(data)?;
        self.len += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.file.flush()?;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// Reads with `pread`, which takes its offset as an argument: readers of
/// one file share no cursor, so they take no lock and never queue.
struct StdRandomAccessFile {
    file: std::fs::File,
    len: u64,
}

impl RandomAccessFile for StdRandomAccessFile {
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        if offset > self.len {
            return Err(Error::io(format!(
                "read past eof: offset {offset} > len {}",
                self.len
            )));
        }
        let mut buf = vec![0u8; len];
        let mut read = 0;
        while read < len {
            let n = FileExt::read_at(&self.file, &mut buf[read..], offset + read as u64)?;
            if n == 0 {
                break;
            }
            read += n;
        }
        buf.truncate(read);
        Ok(buf)
    }

    fn len(&self) -> u64 {
        self.len
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let full = self.full(path);
        // Checkpoint paths like "ckpt/000005.sst" land in subdirectories
        // that may not exist yet.
        if let Some(parent) = full.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::File::create(full)?;
        Ok(Box::new(StdWritableFile {
            file: std::io::BufWriter::new(file),
            len: 0,
        }))
    }

    fn open(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let file = std::fs::File::open(self.full(path))?;
        let len = file.metadata()?.len();
        Ok(Arc::new(StdRandomAccessFile { file, len }))
    }

    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        Ok(std::fs::read(self.full(path))?)
    }

    fn delete(&self, path: &str) -> Result<()> {
        std::fs::remove_file(self.full(path))?;
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        std::fs::rename(self.full(from), self.full(to))?;
        Ok(())
    }

    fn link(&self, from: &str, to: &str) -> Result<()> {
        let to = self.full(to);
        if let Some(parent) = to.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::hard_link(self.full(from), to)?;
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.full(path).exists()
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        // A prefix may point into a subdirectory ("ckpt/MANIFEST"): list
        // that directory and report names relative to the root, the same
        // flat view [`MemVfs`] gives.
        let (dir, stem) = match prefix.rfind('/') {
            Some(i) => (self.root.join(&prefix[..i]), &prefix[i + 1..]),
            None => (self.root.clone(), prefix),
        };
        let dir_prefix = &prefix[..prefix.rfind('/').map_or(0, |i| i + 1)];
        let mut names = Vec::new();
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            // A missing subdirectory just has no files under the prefix.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && !dir_prefix.is_empty() => {
                return Ok(names)
            }
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if name.starts_with(stem) && entry.file_type()?.is_file() {
                    names.push(format!("{dir_prefix}{name}"));
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        Ok(std::fs::metadata(self.full(path))?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(vfs: &dyn Vfs) {
        let mut f = vfs.create("000001.sst").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        assert_eq!(f.len(), 11);
        f.sync().unwrap();
        f.finish().unwrap();
        drop(f);

        assert!(vfs.exists("000001.sst"));
        assert_eq!(vfs.file_size("000001.sst").unwrap(), 11);
        let r = vfs.open("000001.sst").unwrap();
        assert_eq!(r.read_at(6, 5).unwrap(), b"world");
        assert_eq!(r.read_at(6, 100).unwrap(), b"world", "short read at eof");
        assert!(r.read_at(100, 1).is_err(), "read past eof errors");
        assert_eq!(vfs.read_all("000001.sst").unwrap(), b"hello world");

        vfs.rename("000001.sst", "000002.sst").unwrap();
        assert!(!vfs.exists("000001.sst"));
        assert_eq!(vfs.list("0000").unwrap(), vec!["000002.sst".to_string()]);

        vfs.link("000002.sst", "ckpt/000002.sst").unwrap();
        assert!(vfs.exists("ckpt/000002.sst"));
        assert_eq!(vfs.read_all("ckpt/000002.sst").unwrap(), b"hello world");
        assert_eq!(
            vfs.list("ckpt/").unwrap(),
            vec!["ckpt/000002.sst".to_string()]
        );
        assert!(vfs.link("000002.sst", "ckpt/000002.sst").is_err(), "link over existing");
        assert!(vfs.link("missing.sst", "ckpt/missing.sst").is_err());
        vfs.delete("000002.sst").unwrap();
        assert!(vfs.delete("000002.sst").is_err());
        // The link survives deletion of the original name.
        assert_eq!(vfs.read_all("ckpt/000002.sst").unwrap(), b"hello world");
        vfs.delete("ckpt/000002.sst").unwrap();
        assert!(vfs.list("ckpt/").unwrap().is_empty(), "missing subdir lists empty");
    }

    #[test]
    fn mem_vfs_full_lifecycle() {
        exercise(&MemVfs::new());
    }

    #[test]
    fn std_vfs_full_lifecycle() {
        let dir = std::env::temp_dir().join(format!("lsmkvs-vfs-test-{}", std::process::id()));
        let vfs = StdVfs::new(&dir).unwrap();
        exercise(&vfs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn std_vfs_readers_of_one_file_share_no_offset() {
        const LEN: usize = 1 << 20;
        let dir = std::env::temp_dir().join(format!("lsmkvs-vfs-readers-{}", std::process::id()));
        let vfs = StdVfs::new(&dir).unwrap();
        let source: Arc<Vec<u8>> = Arc::new((0..LEN).map(|i| (i * 31 + i / 251) as u8).collect());
        let mut f = vfs.create("000001.sst").unwrap();
        f.append(&source).unwrap();
        f.finish().unwrap();
        drop(f);
        let file = vfs.open("000001.sst").unwrap();

        assert!(file.read_at(LEN as u64 + 1, 1).is_err(), "offset past the end");
        assert!(file.read_at(LEN as u64, 8).unwrap().is_empty(), "offset at the end");
        assert_eq!(file.read_at(LEN as u64 - 3, 100).unwrap(), source[LEN - 3..], "short tail");

        let readers: Vec<_> = (0..4u64)
            .map(|t| {
                let (file, source) = (Arc::clone(&file), Arc::clone(&source));
                std::thread::spawn(move || {
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (t + 1);
                    let mut next = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    for _ in 0..10_000 {
                        let offset = (next() % LEN as u64) as usize;
                        let len = (next() % 8192) as usize;
                        let got = file.read_at(offset as u64, len).unwrap();
                        let want = &source[offset..(offset + len).min(LEN)];
                        assert!(got == want, "thread {t}: offset {offset} len {len}");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn namespace_vfs_isolates_and_strips_prefix() {
        let base = Arc::new(MemVfs::new());
        let a = NamespaceVfs::new(Arc::clone(&base) as Arc<dyn Vfs>, "s0_");
        let b = NamespaceVfs::new(Arc::clone(&base) as Arc<dyn Vfs>, "s1_");
        exercise(&a);

        let mut f = a.create("CURRENT").unwrap();
        f.append(b"manifest-1").unwrap();
        f.finish().unwrap();
        assert!(a.exists("CURRENT"));
        assert!(!b.exists("CURRENT"), "namespaces are disjoint");
        assert!(base.exists("s0_CURRENT"), "base sees the prefixed name");
        assert_eq!(a.list("CUR").unwrap(), vec!["CURRENT".to_string()]);
        assert!(b.list("").unwrap().is_empty());
    }

    #[test]
    fn mem_vfs_unfinished_files_keep_bytes() {
        let vfs = MemVfs::new();
        {
            let mut f = vfs.create("wal.log").unwrap();
            f.append(b"record-1").unwrap();
            // dropped without finish(): simulates a crash
        }
        assert_eq!(vfs.read_all("wal.log").unwrap(), b"record-1");
    }

    #[test]
    fn mem_vfs_appends_are_visible_after_sync_finish_or_drop_only() {
        let vfs = MemVfs::new();
        let seen = |path: &str| {
            let all = vfs.read_all(path).unwrap();
            assert_eq!(vfs.file_size(path).unwrap(), all.len() as u64);
            assert_eq!(vfs.open(path).unwrap().len(), all.len() as u64);
            all
        };
        let mut f = vfs.create("f").unwrap();
        f.append(b"one").unwrap();
        assert_eq!(seen("f"), b"", "appended, not synced");
        f.sync().unwrap();
        assert_eq!(seen("f"), b"one");
        f.append(b"two").unwrap();
        assert_eq!((f.len(), seen("f")), (6, b"one".to_vec()), "the writer counts what it holds back");
        f.finish().unwrap();
        assert_eq!(seen("f"), b"onetwo");
        drop(f);
        assert_eq!(seen("f"), b"onetwo");

        let mut g = vfs.create("g").unwrap();
        g.append(b"synced").unwrap();
        g.sync().unwrap();
        g.append(b"+tail").unwrap();
        assert_eq!(seen("g"), b"synced");
        drop(g);
        assert_eq!(seen("g"), b"synced+tail", "dropped without finish");
    }

    #[test]
    fn mem_vfs_forks_links_and_readers_keep_what_they_saw() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("wal").unwrap();
        f.append(b"first").unwrap();
        f.sync().unwrap();
        let fork = vfs.fork();
        let reader = vfs.open("wal").unwrap();
        vfs.link("wal", "ckpt/wal").unwrap();
        f.append(b"-second").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.read_all("wal").unwrap(), b"first-second");
        assert_eq!(fork.read_all("wal").unwrap(), b"first");
        assert_eq!(reader.read_at(0, 100).unwrap(), b"first");
        assert_eq!(vfs.read_all("ckpt/wal").unwrap(), b"first");
        // With every sharer gone the writer goes back to extending in place.
        drop((fork, reader));
        vfs.delete("ckpt/wal").unwrap();
        f.append(b"-third").unwrap();
        f.finish().unwrap();
        assert_eq!(vfs.read_all("wal").unwrap(), b"first-second-third");
        // A fork's own writer does not reach back into the parent.
        let fork = vfs.fork();
        let mut g = fork.create("wal").unwrap();
        g.append(b"forked").unwrap();
        g.finish().unwrap();
        assert_eq!(vfs.read_all("wal").unwrap(), b"first-second-third");
    }

    #[test]
    fn mem_vfs_live_writer_republishes_over_truncate_rename_and_delete() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("log").unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();

        vfs.truncate("log", 3).unwrap();
        assert_eq!(vfs.read_all("log").unwrap(), b"012");
        f.append(b"a").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.read_all("log").unwrap(), b"0123456789a", "the writer's view wins");

        vfs.rename("log", "old").unwrap();
        f.append(b"b").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.read_all("old").unwrap(), b"0123456789a", "the renamed file is a snapshot");
        assert_eq!(vfs.read_all("log").unwrap(), b"0123456789ab");

        vfs.delete("log").unwrap();
        assert!(!vfs.exists("log"));
        f.append(b"c").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.read_all("log").unwrap(), b"0123456789abc", "the path comes back whole");
    }

    #[test]
    fn mem_vfs_many_syncs_leave_one_copy() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("wal").unwrap();
        let chunk = vec![7u8; 80 << 10];
        for _ in 0..100 {
            f.append(&chunk).unwrap();
            f.sync().unwrap();
        }
        assert_eq!(f.len(), 100 * chunk.len() as u64);
        assert_eq!(vfs.total_bytes(), f.len());
        drop(f);
        assert_eq!(vfs.total_bytes(), 100 * chunk.len() as u64);
    }

    #[test]
    fn mem_vfs_truncate_simulates_torn_writes() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("log").unwrap();
        f.append(b"0123456789").unwrap();
        f.finish().unwrap();
        vfs.truncate("log", 3).unwrap();
        assert_eq!(vfs.read_all("log").unwrap(), b"012");
    }
}
