//! Write batches: the unit of atomic writes and WAL records.
//!
//! Encoding: `fixed64 first_seq | fixed32 count |`
//! `(u8 type | varint32 klen | key | varint32 vlen | value)*`.

use crate::error::{Error, Result};
use crate::types::{SequenceNumber, ValueType};
use crate::util::{get_fixed32, get_fixed64, get_varint32, put_fixed32, put_fixed64, put_varint32};

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    entries: Vec<(ValueType, Vec<u8>, Vec<u8>)>,
    approximate_bytes: usize,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch pre-sized for `ops` operations, avoiding
    /// reallocation of the entry list on the hot single-op path.
    pub fn with_capacity(ops: usize) -> Self {
        WriteBatch {
            entries: Vec::with_capacity(ops),
            approximate_bytes: 0,
        }
    }

    /// Adds a key/value insertion.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.approximate_bytes += key.len() + value.len() + 13;
        self.entries
            .push((ValueType::Value, key.to_vec(), value.to_vec()));
        self
    }

    /// Adds a deletion.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.approximate_bytes += key.len() + 13;
        self.entries.push((ValueType::Deletion, key.to_vec(), Vec::new()));
        self
    }

    /// Adds an entry with an explicit type, preserving value bytes
    /// verbatim — used by WAL replay and `KeyRanges::split_batch` so stamped
    /// [`ValueType::TtlValue`] entries survive a decode/re-split cycle.
    pub(crate) fn push_raw(&mut self, ty: ValueType, key: &[u8], value: &[u8]) -> &mut Self {
        self.approximate_bytes += key.len() + value.len() + 13;
        self.entries.push((ty, key.to_vec(), value.to_vec()));
        self
    }

    /// Converts every plain [`ValueType::Value`] entry into a
    /// [`ValueType::TtlValue`] entry by appending the 8-byte
    /// little-endian write timestamp (seconds). Already-stamped entries
    /// and tombstones pass through unchanged, so replayed or forwarded
    /// batches are never double-stamped.
    pub(crate) fn stamp_puts(&mut self, now_secs: u64) {
        for (ty, _key, value) in &mut self.entries {
            if *ty == ValueType::Value {
                *ty = ValueType::TtlValue;
                value.extend_from_slice(&now_secs.to_le_bytes());
                self.approximate_bytes += 8;
            }
        }
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate encoded size in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.approximate_bytes + 12
    }

    /// Iterates `(type, key, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueType, &[u8], &[u8])> {
        self.entries
            .iter()
            .map(|(t, k, v)| (*t, k.as_slice(), v.as_slice()))
    }

    /// Serializes the batch for the WAL with its assigned first sequence.
    pub fn encode(&self, first_seq: SequenceNumber) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.approximate_bytes() + 16);
        put_fixed64(&mut out, first_seq);
        put_fixed32(&mut out, self.entries.len() as u32);
        for (ty, key, value) in &self.entries {
            out.push(*ty as u8);
            put_varint32(&mut out, key.len() as u32);
            out.extend_from_slice(key);
            put_varint32(&mut out, value.len() as u32);
            out.extend_from_slice(value);
        }
        out
    }

    /// Decodes a WAL record back into a batch plus its first sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on any structural violation.
    pub fn decode(data: &[u8]) -> Result<(SequenceNumber, WriteBatch)> {
        let first_seq =
            get_fixed64(data, 0).ok_or_else(|| Error::corruption("batch: short header"))?;
        let count =
            get_fixed32(data, 8).ok_or_else(|| Error::corruption("batch: short header"))? as usize;
        let mut pos = 12;
        let mut batch = WriteBatch::new();
        for _ in 0..count {
            let ty = *data
                .get(pos)
                .ok_or_else(|| Error::corruption("batch: missing type byte"))?;
            let ty = ValueType::from_u8(ty)
                .ok_or_else(|| Error::corruption(format!("batch: bad value type {ty}")))?;
            pos += 1;
            let (klen, n) = get_varint32(&data[pos..])
                .ok_or_else(|| Error::corruption("batch: bad key length"))?;
            pos += n;
            let key = data
                .get(pos..pos + klen as usize)
                .ok_or_else(|| Error::corruption("batch: key past end"))?;
            pos += klen as usize;
            let (vlen, n) = get_varint32(&data[pos..])
                .ok_or_else(|| Error::corruption("batch: bad value length"))?;
            pos += n;
            let value = data
                .get(pos..pos + vlen as usize)
                .ok_or_else(|| Error::corruption("batch: value past end"))?;
            pos += vlen as usize;
            match ty {
                ValueType::Value => batch.put(key, value),
                ValueType::Deletion => batch.delete(key),
                ValueType::TtlValue => batch.push_raw(ty, key, value),
            };
        }
        if pos != data.len() {
            return Err(Error::corruption("batch: trailing bytes"));
        }
        Ok((first_seq, batch))
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
        let encoded = b.encode(42);
        let (seq, decoded) = WriteBatch::decode(&encoded).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(decoded, b);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let b = WriteBatch::new();
        let (seq, decoded) = WriteBatch::decode(&b.encode(7)).unwrap();
        assert_eq!(seq, 7);
        assert!(decoded.is_empty());
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut b = WriteBatch::new();
        b.put(b"key", b"value");
        let encoded = b.encode(1);
        for cut in [0, 5, 11, encoded.len() - 1] {
            assert!(WriteBatch::decode(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut b = WriteBatch::new();
        b.put(b"k", b"v");
        let mut encoded = b.encode(1);
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
        b.stamp_puts(1234);
        let ops: Vec<_> = b.iter().map(|(t, k, v)| (t, k.to_vec(), v.to_vec())).collect();
        assert_eq!(ops[0].0, ValueType::TtlValue);
        assert_eq!(&ops[0].2[..1], b"v");
        assert_eq!(u64::from_le_bytes(ops[0].2[1..].try_into().unwrap()), 1234);
        assert_eq!(ops[1].0, ValueType::Deletion, "tombstones are not stamped");

        let (seq, decoded) = WriteBatch::decode(&b.encode(9)).unwrap();
        assert_eq!(seq, 9);
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
    }
}
