//! Write batches: the unit of atomic writes, and their own WAL records.
//!
//! A batch *is* its record (the LevelDB/RocksDB design): operations are
//! appended to the bytes that go to the WAL, the replication stream and
//! the wire, and the commit only patches the sequence header. The layout
//! is read and written in this file and nowhere else:
//!
//! `fixed64 first_seq | fixed32 count |`
//! `(u8 type | varint32 klen | key | varint32 vlen | value)*`.

use crate::error::{Error, Result};
use crate::memtable::MemTable;
use crate::types::{refuse_stamped, SequenceNumber, ValueType};
use crate::util::{get_fixed32, get_fixed64, put_varint32, Reader};

/// `fixed64 first_seq | fixed32 count`.
const HEADER: usize = 12;
/// The most an entry adds beyond its key and value: the type byte and two
/// five-byte varints.
const MAX_ENTRY_FRAMING: usize = 11;

/// An ordered set of writes applied atomically.
///
/// # Examples
///
/// ```
/// use lsm_kvs::WriteBatch;
///
/// let mut batch = WriteBatch::new();
/// batch.put(b"k1", b"v1");
/// batch.delete(b"k2");
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    /// The record. Empty until the first operation is appended (an empty
    /// batch owns no buffer); otherwise always well formed, so readers
    /// walk it without re-validating.
    rep: Vec<u8>,
    /// Total key + value bytes of the operations.
    payload_bytes: usize,
}

/// Two batches are equal when they hold the same operations; the sequence
/// a commit stamped into one of them does not count.
impl PartialEq for WriteBatch {
    fn eq(&self, other: &Self) -> bool {
        self.record()[8..] == other.record()[8..]
    }
}

impl Eq for WriteBatch {}

/// The one reader of the entry layout: the entry at the front of
/// `entries`.
#[inline]
fn next_entry<'a>(entries: &mut Reader<'a>) -> Result<(ValueType, &'a [u8], &'a [u8])> {
    let ty = entries.u8()?;
    refuse_stamped(ty)?;
    let ty = ValueType::from_u8(ty).ok_or_else(|| Error::corruption(format!("batch: bad value type {ty}")))?;
    let key_len = entries.varint32()? as usize;
    let key = entries.take(key_len)?;
    let value_len = entries.varint32()? as usize;
    Ok((ty, key, entries.take(value_len)?))
}

/// Checks that `record` is a header followed by exactly `count` entries
/// and nothing else; returns their total key + value bytes. Nothing is
/// sized from the count: a count the record cannot hold runs off the end.
fn validate(record: &[u8]) -> Result<usize> {
    let mut r = Reader::new(record, "batch");
    r.fixed64()?;
    let mut payload_bytes = 0;
    for _ in 0..r.fixed32()? {
        let (_, key, value) = next_entry(&mut r)?;
        payload_bytes += key.len() + value.len();
    }
    r.done()?;
    Ok(payload_bytes)
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `ops` small operations. A hint
    /// only: the record grows as needed, and a batch made by
    /// [`new`](Self::new) sizes its buffer from its first operation.
    pub fn with_capacity(ops: usize) -> Self {
        WriteBatch {
            rep: Vec::with_capacity(HEADER + ops * (MAX_ENTRY_FRAMING + 32)),
            payload_bytes: 0,
        }
    }

    /// Takes ownership of a record that came from outside (a shipped
    /// commit, a frame body) as a batch, without copying it.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on any structural violation,
    /// and [`ErrorKind::NotSupported`](crate::ErrorKind) for an entry of type 2 (a
    /// value an older build stamped with its write time).
    pub fn from_record(record: Vec<u8>) -> Result<WriteBatch> {
        let payload_bytes = validate(&record)?;
        Ok(WriteBatch { rep: record, payload_bytes })
    }

    /// [`from_record`](Self::from_record) for borrowed bytes: validates,
    /// then copies.
    ///
    /// # Errors
    ///
    /// Same as [`from_record`](Self::from_record).
    pub fn decode(record: &[u8]) -> Result<WriteBatch> {
        let payload_bytes = validate(record)?;
        Ok(WriteBatch { rep: record.to_vec(), payload_bytes })
    }

    /// Adds a key/value insertion.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.push(ValueType::Value, key, value);
        self
    }

    /// Adds a deletion.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.push(ValueType::Deletion, key, &[]);
        self
    }

    /// Appends one entry, bytes verbatim: `KeyRanges::split_batch`
    /// re-appends each entry of a batch it splits.
    pub(crate) fn push(&mut self, ty: ValueType, key: &[u8], value: &[u8]) {
        if self.rep.is_empty() {
            // The first operation sizes the buffer: a one-op batch (every
            // `Db::put`) is one allocation.
            self.rep
                .reserve(HEADER + MAX_ENTRY_FRAMING + key.len() + value.len());
            self.rep.resize(HEADER, 0);
        }
        let count = self.len() as u32 + 1;
        self.rep[8..HEADER].copy_from_slice(&count.to_le_bytes());
        self.rep.push(ty as u8);
        put_varint32(&mut self.rep, key.len() as u32);
        self.rep.extend_from_slice(key);
        put_varint32(&mut self.rep, value.len() as u32);
        self.rep.extend_from_slice(value);
        self.payload_bytes += key.len() + value.len();
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        get_fixed32(&self.rep, 8).unwrap_or(0) as usize
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate encoded size in bytes: the header, 13 bytes an
    /// operation and the keys and values. The write controller computes
    /// its delay from this number, so it is a function of the operations
    /// alone, not of how compactly the record encodes them.
    pub fn approximate_bytes(&self) -> usize {
        HEADER + 13 * self.len() + self.payload_bytes
    }

    /// Total key + value bytes of the operations.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Iterates `(type, key, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueType, &[u8], &[u8])> {
        let mut entries = Reader::new(&self.record()[HEADER..], "batch");
        (0..self.len()).map(move |_| next_entry(&mut entries).expect("a batch holds validated bytes"))
    }

    /// The batch as a WAL record: what the log, the replication stream
    /// and a `Batch` frame carry.
    pub fn record(&self) -> &[u8] {
        if self.rep.is_empty() {
            &[0; HEADER]
        } else {
            &self.rep
        }
    }

    /// The sequence of the first operation: what a commit stamped, or
    /// what the record this batch was made from carried; 0 before either.
    pub fn sequence(&self) -> SequenceNumber {
        get_fixed64(&self.rep, 0).unwrap_or(0)
    }

    /// Stamps the sequence of the first operation into the record header
    /// (entry `i` gets `first_seq + i`). CRC framing happens later, inside
    /// the WAL writer.
    pub(crate) fn set_sequence(&mut self, first_seq: SequenceNumber) {
        if !self.rep.is_empty() {
            self.rep[..8].copy_from_slice(&first_seq.to_le_bytes());
        }
    }

    /// Replays the batch into `mem` at the sequences its header assigns.
    pub(crate) fn insert_into(&self, mem: &MemTable) {
        let first_seq = self.sequence();
        for (i, (ty, key, value)) in self.iter().enumerate() {
            mem.add(first_seq + i as u64, ty, key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut b = WriteBatch::new();
        b.put(b"alpha", b"1");
        b.delete(b"beta");
        b.put(b"", b"empty-key-value");
        b.set_sequence(42);
        let decoded = WriteBatch::decode(b.record()).unwrap();
        assert_eq!(decoded.sequence(), 42);
        assert_eq!(decoded, b);
        assert_eq!(decoded.approximate_bytes(), b.approximate_bytes());
        assert_eq!(WriteBatch::from_record(b.record().to_vec()).unwrap(), b);
    }

    #[test]
    fn record_layout_is_the_wal_format() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"vv");
        b.delete(b"d");
        b.set_sequence(7);
        let mut want = Vec::new();
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&[1, 1, b'k', 2, b'v', b'v']);
        want.extend_from_slice(&[0, 1, b'd', 0]);
        assert_eq!(b.record(), want);
    }

    #[test]
    fn empty_batch_roundtrips() {
        for b in [WriteBatch::new(), WriteBatch::default(), WriteBatch::with_capacity(4)] {
            assert!(b.is_empty());
            assert_eq!(b.iter().count(), 0);
            assert_eq!(b.approximate_bytes(), 12);
            let decoded = WriteBatch::decode(b.record()).unwrap();
            assert!(decoded.is_empty());
            assert_eq!(decoded, b, "an empty batch equals a decoded zero-count record");
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut b = WriteBatch::new();
        b.put(b"key", b"value");
        let encoded = b.record();
        for cut in 0..encoded.len() {
            assert!(WriteBatch::decode(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        let mut encoded = b.record().to_vec();
        encoded.push(0);
        assert!(WriteBatch::decode(&encoded).is_err());
    }

    #[test]
    fn iter_preserves_order() {
        let mut b = WriteBatch::new();
        b.put(b"z", b"1");
        b.delete(b"a");
        let ops: Vec<_> = b.iter().collect();
        assert_eq!(ops[0].0, ValueType::Value);
        assert_eq!(ops[0].1, b"z");
        assert_eq!(ops[1].0, ValueType::Deletion);
        assert_eq!(ops[1].1, b"a");
    }

    /// An entry of type 2 (what a build with TTL wrote for a stamped
    /// put) is refused as unsupported, not as corruption: a WAL that holds
    /// one fails the open instead of losing the record as a torn tail.
    #[test]
    fn a_stamped_entry_is_refused_as_unsupported() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        let mut record = b.record().to_vec();
        record[HEADER] = ValueType::TtlValue as u8;
        for err in [WriteBatch::decode(&record).unwrap_err(), WriteBatch::from_record(record).unwrap_err()] {
            assert_eq!(err.kind(), crate::ErrorKind::NotSupported, "{err}");
            assert!(err.message().contains("stamped TTL values"), "{err}");
        }
    }

    #[test]
    fn approximate_bytes_scales_with_content() {
        let mut small = WriteBatch::new();
        small.put(b"k", b"v");
        let mut big = WriteBatch::new();
        big.put(b"k", &[0u8; 1000]);
        assert!(big.approximate_bytes() > small.approximate_bytes() + 900);
        // What the write controller's delay is computed from: 12 + 13 an
        // operation + keys and values, however the record encodes them.
        assert_eq!(small.approximate_bytes(), 12 + 13 + 2);
        assert_eq!(big.approximate_bytes(), 12 + 13 + 1001);
    }
}
