//! Write-ahead log: CRC-framed records with torn-tail-tolerant recovery.
//!
//! Frame layout: `fixed32 crc32c(payload) | fixed32 len | payload`.
//! Recovery stops cleanly at the first incomplete or corrupt frame,
//! treating it as the crash point (like RocksDB's default WAL recovery
//! mode).

use crate::error::{Error, Result};
use crate::util::{crc32c, get_fixed32, put_fixed32};
use crate::vfs::WritableFile;

const FRAME_HEADER: usize = 8;

/// Appends framed records to a WAL file.
pub struct WalWriter {
    file: Box<dyn WritableFile>,
    /// The frames of the call in progress, kept between calls so a
    /// record costs no allocation.
    frames: Vec<u8>,
    bytes_written: u64,
    bytes_since_sync: u64,
    appends: u64,
    syncs: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("bytes_written", &self.bytes_written)
            .finish_non_exhaustive()
    }
}

impl WalWriter {
    /// Wraps a fresh file.
    pub fn new(file: Box<dyn WritableFile>) -> Self {
        WalWriter {
            file,
            frames: Vec::new(),
            bytes_written: 0,
            bytes_since_sync: 0,
            appends: 0,
            syncs: 0,
        }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the append fails.
    pub fn add_record(&mut self, payload: &[u8]) -> Result<u64> {
        self.add_records(&[payload])
    }

    /// Appends several records with a single buffered file write.
    ///
    /// Group commit uses this to land a whole leader-drained batch group
    /// in one append call; framing is identical to repeated
    /// [`add_record`](Self::add_record) calls.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the append fails.
    pub fn add_records(&mut self, payloads: &[&[u8]]) -> Result<u64> {
        self.frames.clear();
        for payload in payloads {
            put_fixed32(&mut self.frames, crc32c(payload));
            put_fixed32(&mut self.frames, payload.len() as u32);
            self.frames.extend_from_slice(payload);
        }
        // One append per call: a failed append leaves no partial group.
        self.file.append(&self.frames)?;
        let len = self.frames.len() as u64;
        self.bytes_written += len;
        self.bytes_since_sync += len;
        self.appends += 1;
        Ok(len)
    }

    /// Durably syncs the log.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Io`](crate::ErrorKind) if the sync fails.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync()?;
        self.bytes_since_sync = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Total bytes appended.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes appended since the last [`sync`](Self::sync).
    pub fn bytes_since_sync(&self) -> u64 {
        self.bytes_since_sync
    }

    /// Append operations performed on this log file (a group-committed
    /// multi-record append counts once).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Successful syncs of this log file.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// The outcome of replaying a WAL file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Intact record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes consumed before the first torn/corrupt frame (or EOF).
    pub valid_bytes: u64,
    /// Whether a torn or corrupt tail was detected (and discarded).
    pub torn_tail: bool,
}

/// Replays all intact records in `data`.
///
/// A truncated final frame is treated as a crash artifact and silently
/// dropped. A *checksum mismatch* on a complete frame is reported as
/// corruption only when `strict` is set; otherwise replay stops there.
///
/// # Errors
///
/// With `strict`, returns [`ErrorKind::Corruption`](crate::ErrorKind) on a checksum mismatch.
pub fn replay_wal(data: &[u8], strict: bool) -> Result<WalReplay> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn = false;
    while pos + FRAME_HEADER <= data.len() {
        let crc = get_fixed32(data, pos).expect("bounds checked");
        let len = get_fixed32(data, pos + 4).expect("bounds checked") as usize;
        let payload_start = pos + FRAME_HEADER;
        if payload_start + len > data.len() {
            torn = true;
            break;
        }
        let payload = &data[payload_start..payload_start + len];
        if crc32c(payload) != crc {
            if strict {
                return Err(Error::corruption(format!(
                    "wal checksum mismatch at offset {pos}"
                )));
            }
            torn = true;
            break;
        }
        records.push(payload.to_vec());
        pos = payload_start + len;
    }
    if pos < data.len() && !torn {
        torn = true; // trailing garbage shorter than a header
    }
    Ok(WalReplay {
        records,
        valid_bytes: pos as u64,
        torn_tail: torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{MemVfs, Vfs};

    fn write_records(vfs: &MemVfs, name: &str, records: &[&[u8]]) {
        let mut w = WalWriter::new(vfs.create(name).unwrap());
        for r in records {
            w.add_record(r).unwrap();
        }
        w.sync().unwrap();
    }

    #[test]
    fn roundtrip_records() {
        let vfs = MemVfs::new();
        write_records(&vfs, "wal", &[b"first", b"second", b""]);
        let replay = replay_wal(&vfs.read_all("wal").unwrap(), true).unwrap();
        assert_eq!(replay.records, vec![b"first".to_vec(), b"second".to_vec(), vec![]]);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let vfs = MemVfs::new();
        write_records(&vfs, "wal", &[b"keep-me", b"torn-record"]);
        let full = vfs.read_all("wal").unwrap();
        // Cut into the middle of the second frame.
        let cut = full.len() - 5;
        let replay = replay_wal(&full[..cut], false).unwrap();
        assert_eq!(replay.records, vec![b"keep-me".to_vec()]);
        assert!(replay.torn_tail);
    }

    #[test]
    fn corrupt_frame_strict_vs_lenient() {
        let vfs = MemVfs::new();
        write_records(&vfs, "wal", &[b"aaaa", b"bbbb"]);
        let mut data = vfs.read_all("wal").unwrap();
        let second_frame = FRAME_HEADER + 4;
        data[second_frame + FRAME_HEADER] ^= 0xff; // corrupt second payload
        assert!(replay_wal(&data, true).is_err());
        let replay = replay_wal(&data, false).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_tail);
    }

    #[test]
    fn byte_accounting() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::new(vfs.create("wal").unwrap());
        w.add_record(b"12345").unwrap();
        assert_eq!(w.bytes_written(), 13);
        assert_eq!(w.bytes_since_sync(), 13);
        assert_eq!((w.appends(), w.syncs()), (1, 0));
        w.sync().unwrap();
        assert_eq!(w.bytes_since_sync(), 0);
        assert_eq!(w.bytes_written(), 13);
        w.add_records(&[b"a", b"b"]).unwrap();
        assert_eq!((w.appends(), w.syncs()), (2, 1));
    }

    #[test]
    fn empty_log_replays_empty() {
        let replay = replay_wal(&[], true).unwrap();
        assert!(replay.records.is_empty());
        assert!(!replay.torn_tail);
    }

    #[test]
    fn header_only_tail_is_torn() {
        let vfs = MemVfs::new();
        write_records(&vfs, "wal", &[b"x"]);
        let mut data = vfs.read_all("wal").unwrap();
        data.extend_from_slice(&[1, 2, 3]); // garbage shorter than a header
        let replay = replay_wal(&data, false).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_tail);
    }
}
