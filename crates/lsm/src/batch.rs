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
use crate::types::{SequenceNumber, ValueType};
use crate::util::{get_fixed32, get_fixed64, get_varint32, put_varint32};

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

/// The one reader of the entry layout: a cursor over the entries that
/// follow a record's header.
struct Walker<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Walker<'a> {
    fn next_entry(&mut self) -> Result<(ValueType, &'a [u8], &'a [u8])> {
        let ty = *self
            .data
            .get(self.pos)
            .ok_or_else(|| Error::corruption("batch: missing type byte"))?;
        let ty = ValueType::from_u8(ty)
            .ok_or_else(|| Error::corruption(format!("batch: bad value type {ty}")))?;
        self.pos += 1;
        let key = self.length_prefixed("key")?;
        let value = self.length_prefixed("value")?;
        Ok((ty, key, value))
    }

    fn length_prefixed(&mut self, what: &str) -> Result<&'a [u8]> {
        let (len, n) = get_varint32(&self.data[self.pos..])
            .ok_or_else(|| Error::corruption(format!("batch: bad {what} length")))?;
        let start = self.pos + n;
        let bytes = start
            .checked_add(len as usize)
            .and_then(|end| self.data.get(start..end))
            .ok_or_else(|| Error::corruption(format!("batch: {what} past end")))?;
        self.pos = start + bytes.len();
        Ok(bytes)
    }
}

/// Checks that `record` is a header followed by exactly `count` entries
/// and nothing else; returns their total key + value bytes. Nothing is
/// sized from the count: a count the record cannot hold runs off the end.
fn validate(record: &[u8]) -> Result<usize> {
    let count = get_fixed32(record, 8).ok_or_else(|| Error::corruption("batch: short header"))?;
    let mut walker = Walker { data: record, pos: HEADER };
    let mut payload_bytes = 0;
    for _ in 0..count {
        let (_, key, value) = walker.next_entry()?;
        payload_bytes += key.len() + value.len();
    }
    if walker.pos != record.len() {
        return Err(Error::corruption("batch: trailing bytes"));
    }
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
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on any structural violation.
    pub fn from_record(record: Vec<u8>) -> Result<WriteBatch> {
        let payload_bytes = validate(&record)?;
        Ok(WriteBatch { rep: record, payload_bytes })
    }

    /// [`from_record`](Self::from_record) for borrowed bytes: validates,
    /// then copies.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on any structural violation.
    pub fn decode(record: &[u8]) -> Result<WriteBatch> {
        let payload_bytes = validate(record)?;
        Ok(WriteBatch { rep: record.to_vec(), payload_bytes })
    }

    /// Adds a key/value insertion.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.push(ValueType::Value, key, value, &[]);
        self
    }

    /// Adds a deletion.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.push(ValueType::Deletion, key, &[], &[]);
        self
    }

    /// Appends one entry whose stored value is `value ++ suffix`, bytes
    /// verbatim: [`ValueType::TtlValue`] entries pass through
    /// `KeyRanges::split_batch` with their stamp, and
    /// [`stamp_puts`](Self::stamp_puts) adds one as the suffix.
    pub(crate) fn push(&mut self, ty: ValueType, key: &[u8], value: &[u8], suffix: &[u8]) {
        let stored = value.len() + suffix.len();
        if self.rep.is_empty() {
            // The first operation sizes the buffer: a one-op batch (every
            // `Db::put`) is one allocation.
            self.rep
                .reserve(HEADER + MAX_ENTRY_FRAMING + key.len() + stored);
            self.rep.resize(HEADER, 0);
        }
        let count = self.len() as u32 + 1;
        self.rep[8..HEADER].copy_from_slice(&count.to_le_bytes());
        self.rep.push(ty as u8);
        put_varint32(&mut self.rep, key.len() as u32);
        self.rep.extend_from_slice(key);
        put_varint32(&mut self.rep, stored as u32);
        self.rep.extend_from_slice(value);
        self.rep.extend_from_slice(suffix);
        self.payload_bytes += key.len() + stored;
    }

    /// Converts every plain [`ValueType::Value`] entry into a
    /// [`ValueType::TtlValue`] entry by appending the 8-byte
    /// little-endian write timestamp (seconds), in one re-encoding pass.
    /// Already-stamped entries and tombstones pass through unchanged, so
    /// replayed or forwarded batches are never double-stamped.
    pub(crate) fn stamp_puts(&mut self, now_secs: u64) {
        let mut stamped = WriteBatch {
            // A stamp adds eight bytes and at most one to the length
            // varint; the slack covers what `push` asks for up front.
            rep: Vec::with_capacity(self.rep.len() + 9 * self.len() + MAX_ENTRY_FRAMING),
            payload_bytes: 0,
        };
        for (ty, key, value) in self.iter() {
            match ty {
                ValueType::Value => {
                    stamped.push(ValueType::TtlValue, key, value, &now_secs.to_le_bytes())
                }
                _ => stamped.push(ty, key, value, &[]),
            }
        }
        *self = stamped;
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
        let mut walker = Walker { data: &self.rep, pos: HEADER };
        (0..self.len()).map(move |_| walker.next_entry().expect("a batch holds validated bytes"))
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

    #[test]
    fn stamped_batch_roundtrips_and_never_double_stamps() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        b.delete(b"dead");
        let unstamped = b.approximate_bytes();
        b.stamp_puts(1234);
        assert_eq!(b.approximate_bytes(), unstamped + 8, "the stamp is payload");
        let ops: Vec<_> = b.iter().map(|(t, k, v)| (t, k.to_vec(), v.to_vec())).collect();
        assert_eq!(ops[0].0, ValueType::TtlValue);
        assert_eq!(&ops[0].2[..1], b"v");
        assert_eq!(u64::from_le_bytes(ops[0].2[1..].try_into().unwrap()), 1234);
        assert_eq!(ops[1].0, ValueType::Deletion, "tombstones are not stamped");

        b.set_sequence(9);
        let decoded = WriteBatch::decode(b.record()).unwrap();
        assert_eq!(decoded.sequence(), 9);
        assert_eq!(decoded, b, "TtlValue entries survive decode verbatim");

        let mut again = decoded;
        again.stamp_puts(9999);
        assert_eq!(again, b, "re-stamping an already-stamped batch is a no-op");
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
