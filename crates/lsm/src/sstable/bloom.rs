//! Bloom filter for SST files.
//!
//! Standard Kirsch–Mitzenmacher double hashing over a bit array sized by
//! `bits_per_key`. At 10 bits/key the false-positive rate is ~1%, which
//! is the knob the paper's read-heavy tuning leans on.

use crate::util::{fnv1a, get_fixed32, put_fixed32};

/// An immutable bloom filter over a set of keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    num_probes: u32,
}

impl BloomFilter {
    /// Builds a filter over `keys` with `bits_per_key` bits per key.
    ///
    /// `bits_per_key` below 1 is clamped to 1; the probe count is chosen
    /// as `bits_per_key * ln 2`, clamped to `[1, 30]`.
    pub fn build<'a>(keys: impl IntoIterator<Item = &'a [u8]>, bits_per_key: f64) -> Self {
        let mut builder = BloomBuilder::new(bits_per_key);
        for key in keys {
            builder.add_key(key);
        }
        builder.finish()
    }

    /// Whether `key` may be in the set (no false negatives).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        if self.bits.is_empty() {
            return true;
        }
        let nbits = self.bits.len() * 8;
        let (mut h, delta) = Self::hashes(key);
        for _ in 0..self.num_probes {
            let bit = (h as usize) % nbits;
            if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }

    /// Serializes to `bits ++ fixed32(num_probes)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.bits.clone();
        put_fixed32(&mut out, self.num_probes);
        out
    }

    /// Deserializes a filter produced by [`BloomFilter::encode`].
    pub fn decode(data: &[u8]) -> Option<BloomFilter> {
        if data.len() < 4 {
            return None;
        }
        let num_probes = get_fixed32(data, data.len() - 4)?;
        if num_probes == 0 || num_probes > 30 {
            return None;
        }
        Some(BloomFilter {
            bits: data[..data.len() - 4].to_vec(),
            num_probes,
        })
    }

    pub(crate) fn hashes(key: &[u8]) -> (u64, u64) {
        let h = fnv1a(key);
        (h, h.rotate_right(17) | 1)
    }
}

/// Streaming bloom-filter builder: keys are hashed as they arrive and only
/// the two 8-byte probe seeds per key are retained, so building a filter
/// over a memtable's keys costs 16 bytes per key instead of a second full
/// copy of the key set. [`BloomFilter::build`] is implemented on top of
/// this, so the finished filter is byte-identical to the historical
/// collect-then-build path.
#[derive(Debug)]
pub struct BloomBuilder {
    hashes: Vec<(u64, u64)>,
    bits_per_key: f64,
}

impl BloomBuilder {
    /// Creates a builder targeting `bits_per_key` bits per added key.
    pub fn new(bits_per_key: f64) -> Self {
        BloomBuilder { hashes: Vec::new(), bits_per_key }
    }

    /// Hashes `key` into the pending set. Duplicate keys are counted twice,
    /// matching the historical behavior of passing duplicates to
    /// [`BloomFilter::build`]; callers dedup sorted runs before adding.
    pub fn add_key(&mut self, key: &[u8]) {
        self.hashes.push(BloomFilter::hashes(key));
    }

    /// Number of keys added so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether no keys have been added.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Bytes of intermediate state currently held (the retained hash pairs).
    /// Exposed so tests can pin the peak-allocation behavior of flush-time
    /// filter construction.
    pub fn state_bytes(&self) -> usize {
        self.hashes.capacity() * std::mem::size_of::<(u64, u64)>()
    }

    /// Sizes the bit array from the number of added keys and sets every
    /// probe bit, consuming the builder.
    pub fn finish(self) -> BloomFilter {
        let bpk = self.bits_per_key.max(1.0);
        let nbits = ((self.hashes.len() as f64 * bpk).ceil() as usize).max(64);
        let nbytes = nbits.div_ceil(8);
        let nbits = nbytes * 8;
        let num_probes = ((bpk * std::f64::consts::LN_2).round() as u32).clamp(1, 30);
        let mut bits = vec![0u8; nbytes];
        for (mut h, delta) in self.hashes {
            for _ in 0..num_probes {
                let bit = (h as usize) % nbits;
                bits[bit / 8] |= 1 << (bit % 8);
                h = h.wrapping_add(delta);
            }
        }
        BloomFilter { bits, num_probes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("user-key-{i:08}").into_bytes()).collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000);
        let filter = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 10.0);
        for k in &ks {
            assert!(filter.may_contain(k));
        }
    }

    #[test]
    fn false_positive_rate_near_one_percent_at_10_bits() {
        let ks = keys(10_000);
        let filter = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 10.0);
        let mut fp = 0;
        let probes = 20_000;
        for i in 0..probes {
            if filter.may_contain(format!("absent-{i}").as_bytes()) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn fewer_bits_mean_more_false_positives() {
        let ks = keys(5_000);
        let tight = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 12.0);
        let loose = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 2.0);
        let count = |f: &BloomFilter| {
            (0..10_000)
                .filter(|i| f.may_contain(format!("absent-{i}").as_bytes()))
                .count()
        };
        assert!(count(&loose) > count(&tight));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ks = keys(100);
        let filter = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 10.0);
        let decoded = BloomFilter::decode(&filter.encode()).unwrap();
        assert_eq!(decoded, filter);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BloomFilter::decode(b"ab").is_none());
        assert!(BloomFilter::decode(&[0xff; 12]).is_none(), "probe count 0xffffffff");
    }

    #[test]
    fn streaming_builder_matches_batch_build_bytes() {
        let ks = keys(4_321);
        let batch = BloomFilter::build(ks.iter().map(|k| k.as_slice()), 9.7);
        let mut builder = BloomBuilder::new(9.7);
        for k in &ks {
            builder.add_key(k);
        }
        assert_eq!(builder.len(), ks.len());
        assert_eq!(builder.finish().encode(), batch.encode());
    }

    #[test]
    fn streaming_builder_state_is_hashes_not_keys() {
        // The whole point: intermediate state is 16 bytes per key no matter
        // how long the keys are.
        let mut builder = BloomBuilder::new(10.0);
        let long_key = vec![7u8; 1024];
        for _ in 0..1000 {
            builder.add_key(&long_key);
        }
        assert!(
            builder.state_bytes() < 1000 * 64,
            "builder retained {} bytes for 1000 keys",
            builder.state_bytes()
        );
    }

    #[test]
    fn empty_key_set_still_works() {
        let filter = BloomFilter::build(std::iter::empty(), 10.0);
        // An empty filter has all bits zero: everything reports absent.
        assert!(!filter.may_contain(b"anything"));
    }
}
