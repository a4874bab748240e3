//! Core value types: sequence numbers, internal keys, file numbers.

use std::fmt;

/// Monotonically increasing sequence number assigned to every write.
pub type SequenceNumber = u64;

/// Identifier of an on-disk file (SST, WAL, or manifest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileNumber(pub u64);

impl fmt::Display for FileNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:06}", self.0)
    }
}

/// The kind of entry a key carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    /// A tombstone marking the key deleted.
    Deletion = 0,
    /// A regular value.
    Value = 1,
    /// A value carrying an 8-byte little-endian write-timestamp (seconds)
    /// suffix, written while `ttl_seconds > 0`. Self-describing, so data
    /// written before and after an online TTL toggle coexists in one tree.
    TtlValue = 2,
}

impl ValueType {
    /// Decodes from the low byte of a packed tag.
    pub fn from_u8(b: u8) -> Option<ValueType> {
        match b {
            0 => Some(ValueType::Deletion),
            1 => Some(ValueType::Value),
            2 => Some(ValueType::TtlValue),
            _ => None,
        }
    }

    /// Whether this entry carries user data (as opposed to a tombstone).
    pub fn is_value(self) -> bool {
        !matches!(self, ValueType::Deletion)
    }
}

/// The type used in seek targets: the numerically largest [`ValueType`],
/// so a lookup key at sequence `s` sorts before every entry of the same
/// user key with sequence `<= s`, regardless of the entry's type.
pub(crate) const VALUE_TYPE_FOR_SEEK: ValueType = ValueType::TtlValue;

/// An internal key: user key + (sequence, type) tag, ordered so that for
/// equal user keys, *newer* entries sort first.
///
/// The encoding matches LevelDB/RocksDB: `user_key ++ fixed64(seq << 8 | ty)`,
/// compared by user key ascending then tag descending.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternalKey(Vec<u8>);

impl InternalKey {
    /// Builds an internal key from parts.
    pub fn new(user_key: &[u8], seq: SequenceNumber, ty: ValueType) -> Self {
        let mut buf = Vec::with_capacity(user_key.len() + 8);
        buf.extend_from_slice(user_key);
        let tag = (seq << 8) | ty as u64;
        buf.extend_from_slice(&tag.to_le_bytes());
        InternalKey(buf)
    }

    /// Reconstructs an internal key from its encoded form.
    ///
    /// # Errors
    ///
    /// Returns `None` if the encoding is shorter than a tag.
    pub fn decode(encoded: &[u8]) -> Option<InternalKey> {
        if encoded.len() < 8 {
            return None;
        }
        Some(InternalKey(encoded.to_vec()))
    }

    /// The encoded bytes.
    pub fn encoded(&self) -> &[u8] {
        &self.0
    }

    /// The encoded bytes, owned.
    pub fn into_encoded(self) -> Vec<u8> {
        self.0
    }

    /// The user-visible key portion.
    pub fn user_key(&self) -> &[u8] {
        &self.0[..self.0.len() - 8]
    }

    /// The sequence number.
    pub fn sequence(&self) -> SequenceNumber {
        self.tag() >> 8
    }

    /// The value type.
    ///
    /// # Panics
    ///
    /// Panics if the tag byte is not a valid [`ValueType`] (possible only
    /// on corrupted input that bypassed [`InternalKey::decode`]).
    pub fn value_type(&self) -> ValueType {
        ValueType::from_u8((self.tag() & 0xff) as u8).expect("valid value type tag")
    }

    fn tag(&self) -> u64 {
        let n = self.0.len();
        u64::from_le_bytes(self.0[n - 8..].try_into().expect("8-byte tag"))
    }
}

/// Compares two *encoded* internal keys: user key ascending, then sequence
/// descending (newer first), then type descending.
pub fn internal_key_cmp(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let (ua, ta) = split_tag(a);
    let (ub, tb) = split_tag(b);
    match ua.cmp(ub) {
        Ordering::Equal => tb.cmp(&ta), // larger tag (newer) sorts first
        other => other,
    }
}

/// Splits an encoded internal key into its user key and its tag
/// (`seq << 8 | type`).
pub(crate) fn split_tag(encoded: &[u8]) -> (&[u8], u64) {
    let n = encoded.len();
    debug_assert!(n >= 8, "internal key must carry an 8-byte tag");
    let tag = u64::from_le_bytes(encoded[n - 8..].try_into().expect("8-byte tag"));
    (&encoded[..n - 8], tag)
}

/// The maximum sequence number, used for lookup keys ("find the newest
/// entry at or below this sequence").
pub const MAX_SEQUENCE: SequenceNumber = (1 << 56) - 1;

/// A lookup key for point reads: the newest possible internal key for a
/// user key at a snapshot sequence.
pub fn lookup_key(user_key: &[u8], snapshot: SequenceNumber) -> InternalKey {
    InternalKey::new(user_key, snapshot.min(MAX_SEQUENCE), VALUE_TYPE_FOR_SEEK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn roundtrip_parts() {
        let ik = InternalKey::new(b"hello", 42, ValueType::Value);
        assert_eq!(ik.user_key(), b"hello");
        assert_eq!(ik.sequence(), 42);
        assert_eq!(ik.value_type(), ValueType::Value);
        let decoded = InternalKey::decode(ik.encoded()).unwrap();
        assert_eq!(decoded, ik);
    }

    #[test]
    fn decode_rejects_short_input() {
        assert!(InternalKey::decode(b"short").is_none());
    }

    #[test]
    fn ordering_user_key_ascending() {
        let a = InternalKey::new(b"a", 5, ValueType::Value);
        let b = InternalKey::new(b"b", 5, ValueType::Value);
        assert_eq!(internal_key_cmp(a.encoded(), b.encoded()), Ordering::Less);
    }

    #[test]
    fn ordering_newer_sequence_first() {
        let old = InternalKey::new(b"k", 5, ValueType::Value);
        let new = InternalKey::new(b"k", 9, ValueType::Value);
        assert_eq!(internal_key_cmp(new.encoded(), old.encoded()), Ordering::Less);
    }

    #[test]
    fn deletion_sorts_before_value_at_same_seq() {
        // Tag for Value (1) is larger than Deletion (0), so Value sorts first.
        let del = InternalKey::new(b"k", 5, ValueType::Deletion);
        let val = InternalKey::new(b"k", 5, ValueType::Value);
        assert_eq!(internal_key_cmp(val.encoded(), del.encoded()), Ordering::Less);
    }

    #[test]
    fn lookup_key_sorts_before_all_entries_of_key() {
        let lk = lookup_key(b"k", MAX_SEQUENCE);
        let entry = InternalKey::new(b"k", 1_000_000, ValueType::Value);
        assert_eq!(internal_key_cmp(lk.encoded(), entry.encoded()), Ordering::Less);
    }

    #[test]
    fn file_number_formats_padded() {
        assert_eq!(FileNumber(7).to_string(), "000007");
    }
}
