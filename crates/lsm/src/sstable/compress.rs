//! Block compression.
//!
//! The engine ships one real LZ-style byte codec ("simzip"): greedy
//! hash-chain matching with varint-coded (literal-run, match) tokens. The
//! named [`CompressionType`]s select the codec's effort level and carry a
//! CPU-cost model so the simulator charges realistic time per byte:
//! LZ4-class is fastest, Zstd-class spends more CPU for a better ratio
//! (longer search window).
//!
//! Benchmarked values generated by `db-bench` are half-compressible
//! (matching `db_bench`'s default 0.5 compression ratio), so the trade-off
//! the tuner reasons about is real.

use hw_sim::SimDuration;

use crate::error::{Error, Result};
use crate::options::CompressionType;
use crate::util::{common_prefix_len, get_varint64, put_varint64};

const MIN_MATCH: usize = 4;
const HASH_BITS: u32 = 14;

/// Per-algorithm effort parameters and CPU cost model.
#[derive(Debug, Clone, Copy)]
struct Effort {
    /// Positions examined per hash bucket (search depth).
    chain_depth: usize,
    /// Compression throughput of the modeled algorithm, bytes/sec.
    compress_bps: f64,
    /// Decompression throughput, bytes/sec.
    decompress_bps: f64,
}

fn effort(ty: CompressionType) -> Option<Effort> {
    match ty {
        CompressionType::None => None,
        CompressionType::Lz4 => Some(Effort {
            chain_depth: 1,
            compress_bps: 700e6,
            decompress_bps: 3_500e6,
        }),
        CompressionType::Snappy => Some(Effort {
            chain_depth: 2,
            compress_bps: 450e6,
            decompress_bps: 1_800e6,
        }),
        CompressionType::Zstd => Some(Effort {
            chain_depth: 16,
            compress_bps: 150e6,
            decompress_bps: 900e6,
        }),
    }
}

/// CPU time to compress `len` input bytes with `ty`.
pub fn compress_cpu_cost(ty: CompressionType, len: usize) -> SimDuration {
    match effort(ty) {
        None => SimDuration::ZERO,
        Some(e) => SimDuration::from_secs_f64(len as f64 / e.compress_bps),
    }
}

/// CPU time to decompress to `len` output bytes with `ty`.
pub fn decompress_cpu_cost(ty: CompressionType, len: usize) -> SimDuration {
    match effort(ty) {
        None => SimDuration::ZERO,
        Some(e) => SimDuration::from_secs_f64(len as f64 / e.decompress_bps),
    }
}

/// The codec's working memory, kept by whoever compresses block after
/// block (a [`TableBuilder`](crate::sstable::table::TableBuilder)) so a
/// 4 KiB block does not pay for a fresh 16 Ki-bucket table.
///
/// Positions are stored as `base + i`, and `base` moves past each input,
/// so an entry below it was written for an earlier input and reads as
/// empty: nothing is reset between inputs.
#[derive(Debug)]
pub struct Compressor {
    /// Most recent stored position per hash bucket.
    head: Vec<u32>,
    /// The stored position before `i` in `i`'s bucket. Written when `i` is
    /// indexed and reached only through a chain that starts at a live
    /// `head` entry, so what an earlier input left behind is never read.
    prev: Vec<u32>,
    /// What this input's position 0 is stored as; never 0, which is what
    /// a refilled `head` holds.
    base: u32,
    out: Vec<u8>,
}

impl Default for Compressor {
    fn default() -> Self {
        Compressor {
            head: vec![0; 1 << HASH_BITS],
            prev: Vec::new(),
            base: 1,
            out: Vec::new(),
        }
    }
}

impl Compressor {
    /// Compresses `input`; returns `None` when compression would not
    /// shrink the block (the block is then stored raw, like RocksDB does).
    /// The result borrows the compressor's output buffer.
    pub fn compress(&mut self, ty: CompressionType, input: &[u8]) -> Option<&[u8]> {
        let e = effort(ty)?;
        if input.len() >= u32::MAX as usize {
            return None;
        }
        self.simzip(input, e.chain_depth);
        (self.out.len() < input.len()).then_some(&self.out[..])
    }

    fn index(&mut self, h: usize, i: usize, base: u32) {
        self.prev[i] = self.head[h];
        self.head[h] = base + i as u32;
    }

    /// Token stream: `varint(literal_len) literals [varint(match_len-MIN_MATCH+1) varint(distance)]`.
    /// A match_len field of 0 marks "no match" (end-of-stream literals).
    fn simzip(&mut self, input: &[u8], chain_depth: usize) {
        self.out.clear();
        if self.prev.len() < input.len() {
            self.prev.resize(input.len(), 0);
        }
        // This input is stored as `base..base + len`; refill the table
        // rather than let that wrap.
        if ((u32::MAX - self.base) as usize) < input.len() {
            self.head.fill(0);
            self.base = 1;
        }
        let base = self.base;
        self.base += input.len() as u32;
        let mut i = 0;
        let mut literal_start = 0;
        while let Some(word) = word_at(input, i) {
            let h = hash4(word);
            let mut candidate = self.head[h];
            let mut best_len = 0;
            let mut best_dist = 0;
            let mut depth = 0;
            while candidate >= base && depth < chain_depth {
                let at = (candidate - base) as usize;
                let dist = i - at;
                // Four equal bytes or no match: only then scan the rest.
                if dist < (1 << 20) && word_at(input, at) == Some(word) {
                    let l = MIN_MATCH
                        + common_prefix_len(&input[at + MIN_MATCH..], &input[i + MIN_MATCH..]);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                    }
                }
                candidate = self.prev[at];
                depth += 1;
            }
            if best_len >= MIN_MATCH {
                // Emit pending literals then the match.
                let lits = &input[literal_start..i];
                put_varint64(&mut self.out, lits.len() as u64);
                self.out.extend_from_slice(lits);
                put_varint64(&mut self.out, (best_len - MIN_MATCH + 1) as u64);
                put_varint64(&mut self.out, best_dist as u64);
                // Index the matched region (sparsely, for speed).
                let end = i + best_len;
                while i < end {
                    let Some(word) = word_at(input, i) else { break };
                    self.index(hash4(word), i, base);
                    i += 1.max(best_len / 8);
                }
                i = end;
                literal_start = i;
            } else {
                self.index(h, i, base);
                i += 1;
            }
        }
        // Trailing literals with a zero match marker.
        let lits = &input[literal_start..];
        put_varint64(&mut self.out, lits.len() as u64);
        self.out.extend_from_slice(lits);
        put_varint64(&mut self.out, 0);
    }
}

/// [`Compressor::compress`] with working memory of its own, for a caller
/// with one block to compress.
pub fn compress(ty: CompressionType, input: &[u8]) -> Option<Vec<u8>> {
    Compressor::default().compress(ty, input).map(<[u8]>::to_vec)
}

/// Decompresses a block produced by [`compress`].
///
/// # Errors
///
/// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on malformed input.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>> {
    decompress_in(input, &mut Vec::new())
}

/// [`decompress`] through `scratch`, a buffer the caller keeps from block
/// to block: the block is decoded there and copied out at its length.
pub(crate) fn decompress_in(input: &[u8], scratch: &mut Vec<u8>) -> Result<Vec<u8>> {
    // A block is addressed with `u32` offsets, so nothing longer can be one.
    simzip_decompress(input, u32::MAX as usize, scratch)
}

/// The four bytes at `i`, if there are four.
fn word_at(input: &[u8], i: usize) -> Option<u32> {
    let bytes = input.get(i..i + MIN_MATCH)?;
    Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

fn hash4(word: u32) -> usize {
    ((word.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
}

/// The widest fixed-size copy the decoder makes. A literal run, or a
/// match at least this far back, of at most this many bytes is copied as
/// one move of exactly this many; the next token overwrites the tail.
const WIDE: usize = 16;

/// Decodes a token stream that decodes to at most `limit` bytes into an
/// exact-size `Vec`: one pass into `scratch`, one copy.
fn simzip_decompress(input: &[u8], limit: usize, scratch: &mut Vec<u8>) -> Result<Vec<u8>> {
    let len = simzip_decode(input, limit, scratch)?;
    Ok(scratch[..len].to_vec())
}

/// Keeps `out` at least [`WIDE`] bytes longer than `end`, growing it
/// zero-filled.
#[inline]
fn room(out: &mut Vec<u8>, end: usize) {
    if out.len() < end + WIDE {
        out.resize((end + WIDE).max(2 * out.len()), 0);
    }
}

/// Decodes `input` into the front of `out` and returns its length,
/// checking the framing of each token before its bytes are written and
/// the length before a match is copied. `out` is written only through
/// the front and read only below what has been written, so whatever it
/// held before is never part of the result.
fn simzip_decode(input: &[u8], limit: usize, out: &mut Vec<u8>) -> Result<usize> {
    let too_long = || Error::corruption("simzip: decoded length exceeds a block");
    let mut pos = 0;
    // `out[..w]` is decoded, and `out` stays `WIDE` bytes longer than `w`.
    let mut w = 0;
    room(out, w);
    loop {
        let (lit_len, n) = get_varint64(&input[pos..])
            .ok_or_else(|| Error::corruption("simzip: truncated literal length"))?;
        pos += n;
        let lit_end = usize::try_from(lit_len)
            .ok()
            .and_then(|len| pos.checked_add(len))
            .filter(|&end| end <= input.len())
            .ok_or_else(|| Error::corruption("simzip: literal run past end"))?;
        let lit = lit_end - pos;
        if lit <= WIDE && pos + WIDE <= input.len() {
            out[w..w + WIDE].copy_from_slice(&input[pos..pos + WIDE]);
        } else {
            room(out, w + lit);
            out[w..w + lit].copy_from_slice(&input[pos..lit_end]);
        }
        w += lit;
        room(out, w);
        pos = lit_end;
        if pos >= input.len() {
            break;
        }
        let (match_code, n) = get_varint64(&input[pos..])
            .ok_or_else(|| Error::corruption("simzip: truncated match length"))?;
        pos += n;
        if match_code == 0 {
            if pos != input.len() {
                return Err(Error::corruption("simzip: trailing bytes after end marker"));
            }
            break;
        }
        let (dist, n) = get_varint64(&input[pos..])
            .ok_or_else(|| Error::corruption("simzip: truncated match distance"))?;
        pos += n;
        let end = usize::try_from(match_code)
            .ok()
            .and_then(|code| code.checked_add(MIN_MATCH - 1))
            .and_then(|len| w.checked_add(len))
            .filter(|&end| end <= limit)
            .ok_or_else(too_long)?;
        let start = usize::try_from(dist)
            .ok()
            .filter(|&dist| dist != 0)
            .and_then(|dist| w.checked_sub(dist))
            .ok_or_else(|| Error::corruption("simzip: invalid match distance"))?;
        room(out, end);
        if w - start >= WIDE && end - w <= WIDE {
            out.copy_within(start..start + WIDE, w);
        } else if start + 1 == w {
            let byte = out[start];
            out[w..end].fill(byte);
        } else {
            // A match may overlap its own output: the bytes from `start`
            // repeat with period `w - start`, and each round copies all
            // of them that exist so far.
            let mut at = w;
            while at < end {
                let n = (end - at).min(at - start);
                out.copy_within(start..start + n, at);
                at += n;
            }
        }
        w = end;
    }
    if w > limit {
        return Err(too_long());
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::for_each_mutant;

    fn compressible(len: usize) -> Vec<u8> {
        // Half random-ish, half zeros: matches db_bench's 0.5 ratio data.
        let mut v = Vec::with_capacity(len);
        let mut x: u32 = 12345;
        for i in 0..len {
            if i % 100 < 50 {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                v.push((x >> 24) as u8);
            } else {
                v.push(0);
            }
        }
        v
    }

    #[test]
    fn roundtrip_all_algorithms() {
        let data = compressible(64 << 10);
        for ty in [CompressionType::Snappy, CompressionType::Lz4, CompressionType::Zstd] {
            let c = compress(ty, &data).expect("compressible data should shrink");
            assert!(c.len() < data.len());
            assert_eq!(decompress(&c).unwrap(), data, "{ty:?}");
        }
    }

    #[test]
    fn zstd_class_compresses_better_than_lz4_class() {
        let data = compressible(256 << 10);
        let z = compress(CompressionType::Zstd, &data).unwrap();
        let l = compress(CompressionType::Lz4, &data).unwrap();
        assert!(z.len() <= l.len(), "zstd {} vs lz4 {}", z.len(), l.len());
    }

    #[test]
    fn incompressible_data_returns_none() {
        // A high-entropy byte stream should not shrink.
        let mut data = Vec::with_capacity(4096);
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.push((x & 0xff) as u8);
        }
        assert!(compress(CompressionType::Snappy, &data).is_none());
    }

    #[test]
    fn none_type_never_compresses() {
        assert!(compress(CompressionType::None, &compressible(4096)).is_none());
        assert_eq!(compress_cpu_cost(CompressionType::None, 1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        for data in [vec![], vec![1u8], b"abcabcabcabcabcabc".to_vec()] {
            if let Some(c) = compress(CompressionType::Zstd, &data) {
                assert_eq!(decompress(&c).unwrap(), data);
            }
        }
    }

    #[test]
    fn highly_repetitive_data_compresses_hard() {
        let data = vec![7u8; 64 << 10];
        let c = compress(CompressionType::Snappy, &data).unwrap();
        assert!(c.len() < data.len() / 20, "rle-ish data should crush: {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn decompress_rejects_corruption() {
        let data = compressible(4096);
        let mut c = compress(CompressionType::Snappy, &data).unwrap();
        c.truncate(c.len() / 2);
        assert!(decompress(&c).is_err());
    }

    /// The codec as it was before it kept working memory between blocks:
    /// fresh `usize` tables per call, byte-wise match extension.
    fn simzip_compress_ref(input: &[u8], chain_depth: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; input.len()];
        let mut i = 0;
        let mut literal_start = 0;
        while i + MIN_MATCH <= input.len() {
            let h = hash4(word_at(input, i).expect("4 bytes"));
            let mut candidate = head[h];
            let mut best_len = 0;
            let mut best_dist = 0;
            let mut depth = 0;
            while candidate != usize::MAX && depth < chain_depth {
                let dist = i - candidate;
                if dist > 0 && dist < (1 << 20) {
                    let max_len = input.len() - i;
                    let mut l = 0;
                    while l < max_len && input[candidate + l] == input[i + l] {
                        l += 1;
                    }
                    if l >= MIN_MATCH && l > best_len {
                        best_len = l;
                        best_dist = dist;
                    }
                }
                candidate = prev[candidate];
                depth += 1;
            }
            if best_len >= MIN_MATCH {
                let lits = &input[literal_start..i];
                put_varint64(&mut out, lits.len() as u64);
                out.extend_from_slice(lits);
                put_varint64(&mut out, (best_len - MIN_MATCH + 1) as u64);
                put_varint64(&mut out, best_dist as u64);
                let end = i + best_len;
                while i < end && i + MIN_MATCH <= input.len() {
                    let h = hash4(word_at(input, i).expect("4 bytes"));
                    prev[i] = head[h];
                    head[h] = i;
                    i += 1.max(best_len / 8);
                }
                i = end;
                literal_start = i;
            } else {
                prev[i] = head[h];
                head[h] = i;
                i += 1;
            }
        }
        let lits = &input[literal_start..];
        put_varint64(&mut out, lits.len() as u64);
        out.extend_from_slice(lits);
        put_varint64(&mut out, 0);
        out
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// A data block as db_bench fills it: 16-byte decimal keys plus tag,
    /// values of 50 random then 50 zero bytes, restart trailer.
    fn db_bench_block(seed: u64, entries: usize) -> Vec<u8> {
        use crate::sstable::block::BlockBuilder;
        use crate::types::{InternalKey, ValueType};
        let mut x = seed | 1;
        let mut keys: Vec<u64> = (0..entries).map(|_| xorshift(&mut x) % 50_000_000).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut b = BlockBuilder::new(16);
        for k in keys {
            let mut value = [0u8; 100];
            for byte in &mut value[..50] {
                *byte = xorshift(&mut x) as u8;
            }
            let seq = xorshift(&mut x) >> 8;
            let key = InternalKey::new(format!("{k:016}").as_bytes(), seq, ValueType::Value);
            b.add(key.encoded(), &value);
        }
        b.finish()
    }

    /// db_bench blocks of 1 to 40 entries, then the edge cases.
    fn reference_corpus() -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> =
            (0..320).map(|i| db_bench_block(i, 1 + (i as usize * 7) % 40)).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        inputs.extend([
            vec![],
            vec![9],
            b"abc".to_vec(),
            b"abcd".to_vec(),
            vec![0u8; 70_000],
            (0..70_000).map(|_| xorshift(&mut x) as u8).collect(),
            (0..=255u8).collect(),
            compressible(40_000),
            b"abcabcabcabcabcabcabc".to_vec(),
        ]);
        inputs
    }

    /// Runs every input at every depth through one compressor: a bucket or
    /// chain entry left over from an earlier input would change a parse.
    fn assert_identical_to_the_reference(compressor: &mut Compressor, inputs: &[Vec<u8>]) {
        for (n, input) in inputs.iter().enumerate() {
            for (ty, depth) in [
                (CompressionType::Lz4, 1),
                (CompressionType::Snappy, 2),
                (CompressionType::Zstd, 16),
            ] {
                let want = simzip_compress_ref(input, depth);
                compressor.simzip(input, depth);
                assert_eq!(compressor.out, want, "input {n} ({} bytes) depth {depth}", input.len());
                assert_eq!(decompress(&want).unwrap(), *input, "input {n} depth {depth}");
                let shrunk = (want.len() < input.len()).then_some(want.as_slice());
                assert_eq!(compressor.compress(ty, input), shrunk, "input {n} {ty:?}");
            }
        }
    }

    #[test]
    fn output_is_byte_identical_to_the_reference_codec() {
        assert_identical_to_the_reference(&mut Compressor::default(), &reference_corpus());
    }

    /// Stored positions run out of `u32` halfway through the corpus, or
    /// exactly as the first input uses the last of them: the table is
    /// refilled rather than wrapped, and no parse changes on either side.
    #[test]
    fn stored_positions_refill_the_table_rather_than_wrap() {
        let inputs = reference_corpus();
        // Each input goes through `simzip` and `compress` at three depths.
        let stored: usize = inputs.iter().map(|input| 6 * input.len()).sum();
        for room in [stored / 2, inputs[0].len()] {
            let start = u32::MAX - u32::try_from(room).unwrap();
            let mut compressor = Compressor { base: start, ..Compressor::default() };
            assert_identical_to_the_reference(&mut compressor, &inputs);
            assert!(compressor.base < start, "the table was refilled");
        }
    }

    /// The decoder as it was before it decoded in one pass: a walk over
    /// the tokens to size the output, a second to fill it.
    fn simzip_decompress_ref(input: &[u8], limit: usize) -> Result<Vec<u8>> {
        fn tokens(input: &[u8], mut sink: impl FnMut(&[u8], usize, usize) -> Result<()>) -> Result<()> {
            let mut pos = 0;
            loop {
                let (lit_len, n) = get_varint64(&input[pos..])
                    .ok_or_else(|| Error::corruption("simzip: truncated literal length"))?;
                pos += n;
                let lit_end = usize::try_from(lit_len)
                    .ok()
                    .and_then(|len| pos.checked_add(len))
                    .filter(|&end| end <= input.len())
                    .ok_or_else(|| Error::corruption("simzip: literal run past end"))?;
                let lits = &input[pos..lit_end];
                pos = lit_end;
                if pos >= input.len() {
                    return sink(lits, 0, 0);
                }
                let (match_code, n) = get_varint64(&input[pos..])
                    .ok_or_else(|| Error::corruption("simzip: truncated match length"))?;
                pos += n;
                if match_code == 0 {
                    if pos != input.len() {
                        return Err(Error::corruption("simzip: trailing bytes after end marker"));
                    }
                    return sink(lits, 0, 0);
                }
                let (dist, n) = get_varint64(&input[pos..])
                    .ok_or_else(|| Error::corruption("simzip: truncated match distance"))?;
                pos += n;
                let match_len =
                    usize::try_from(match_code).unwrap_or(usize::MAX).saturating_add(MIN_MATCH - 1);
                sink(lits, match_len, usize::try_from(dist).unwrap_or(usize::MAX))?;
            }
        }
        let mut total = 0usize;
        tokens(input, |lits, match_len, _| {
            total = total
                .checked_add(lits.len())
                .and_then(|t| t.checked_add(match_len))
                .filter(|&t| t <= limit)
                .ok_or_else(|| Error::corruption("simzip: decoded length exceeds a block"))?;
            Ok(())
        })?;
        let mut out = Vec::with_capacity(total);
        tokens(input, |lits, match_len, dist| {
            out.extend_from_slice(lits);
            if match_len == 0 {
                return Ok(());
            }
            if dist == 0 || dist > out.len() {
                return Err(Error::corruption("simzip: invalid match distance"));
            }
            let start = out.len() - dist;
            let end = out.len() + match_len;
            while out.len() < end {
                let n = (end - out.len()).min(out.len() - start);
                out.extend_from_within(start..start + n);
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// `v` written in exactly `width` varint bytes (`get_varint64` reads
    /// the padding continuation bytes as zero groups).
    fn padded_varint(v: u64, width: usize) -> Vec<u8> {
        (0..width)
            .map(|k| {
                let group = (v >> (7 * k)) as u8 & 0x7f;
                if k + 1 < width {
                    group | 0x80
                } else {
                    group
                }
            })
            .collect()
    }

    /// Compressed db_bench blocks, each mutated every way `block_fuzz.rs`
    /// mutates a block: every truncation, every byte XORed with three
    /// masks, and a 10-byte varint claiming more than a block can hold
    /// spliced in at every offset. The decoder and the reference accept
    /// and refuse the same streams, refuse only as `Corruption`, and
    /// agree on what they accept; a decoded block owns no spare capacity.
    ///
    /// Both run with a 64 KiB limit in place of a block's 4 GiB: a flipped
    /// bit in a length field is a well-formed stream that decodes to
    /// gigabytes as often as not, and the loop would spend its time (and
    /// the machine's memory) writing them.
    #[test]
    fn decoder_agrees_with_the_reference_on_mutated_streams() {
        const LIMIT: usize = 64 << 10;
        let lies = [padded_varint(u64::MAX, 10), padded_varint(1 << 32, 10)];
        let mut compressor = Compressor::default();
        // One scratch for every stream: none may see what another left.
        let mut scratch = Vec::new();
        let (mut refused, mut accepted) = (0u32, 0u32);
        for seed in 0..24u64 {
            let ty = [CompressionType::Lz4, CompressionType::Snappy, CompressionType::Zstd]
                [seed as usize % 3];
            let block = db_bench_block(seed, 1 + (seed as usize * 3) % 40);
            let stream = compressor.compress(ty, &block).expect("a db_bench block shrinks").to_vec();
            let mut check = |mutant: &[u8]| {
                let got = simzip_decompress(mutant, LIMIT, &mut scratch);
                match (got, simzip_decompress_ref(mutant, LIMIT)) {
                    (Ok(got), Ok(want)) => {
                        accepted += 1;
                        assert_eq!(got, want, "block {seed}: {mutant:?}");
                        assert_eq!(got.capacity(), got.len(), "block {seed}");
                    }
                    (Err(got), Err(want)) => {
                        refused += 1;
                        assert!(got.is_corruption(), "block {seed}: {got}");
                        assert!(want.is_corruption(), "block {seed}: {want}");
                    }
                    (got, want) => panic!("block {seed}: {got:?} vs the reference's {want:?}"),
                }
            };
            check(&stream);
            for_each_mutant(&stream, || [0x01, 0x80, 0xff], |_, mutant| check(mutant));
            for at in 0..=stream.len() {
                for lie in &lies {
                    check(&[&stream[..at], lie, &stream[at..]].concat());
                }
            }
            assert_eq!(decompress(&stream).unwrap(), block);
        }
        println!("mutated streams: refused {refused}, accepted {accepted}");
        assert!(refused + accepted > 100_000, "refused {refused}, accepted {accepted}");
    }


    /// A literal run of `prefix.len()` bytes, then one match of `len` at
    /// `dist`, then the end marker; and what it decodes to.
    fn one_match(prefix: &[u8], dist: usize, len: usize) -> (Vec<u8>, Vec<u8>) {
        let mut stream = Vec::new();
        put_varint64(&mut stream, prefix.len() as u64);
        stream.extend_from_slice(prefix);
        put_varint64(&mut stream, (len - MIN_MATCH + 1) as u64);
        put_varint64(&mut stream, dist as u64);
        stream.extend_from_slice(&[0, 0]);
        let mut want = prefix.to_vec();
        for k in 0..len {
            want.push(want[prefix.len() - dist + k]);
        }
        (stream, want)
    }

    /// The decoder's copy paths at their edges, each checked byte-exact
    /// and at its exact length, all on one thread so each decode reuses
    /// what the one before it left in the thread's buffers:
    /// - matches of every period class: a fill (distance 1), overlapping
    ///   ones shorter and longer than 16 bytes, and ones that do not
    ///   overlap, up to 16 bytes long or longer, near and far;
    /// - a last literal run of 1 to 16 bytes that ends 0 to 16 bytes
    ///   before the stream does (the trailing bytes are a match token
    ///   and the end marker, padded to width);
    /// - a stream that decodes to more than 4 KiB, then a small one.
    #[test]
    fn overlapping_and_adjacent_matches_roundtrip() {
        let mut checked = [0u32; 3];
        let mut check = |path: usize, stream: &[u8], want: &[u8], what: &str| {
            let got = decompress(stream).unwrap();
            assert_eq!(got, want, "{what}");
            assert_eq!(got.capacity(), got.len(), "{what}");
            checked[path] += 1;
        };
        let prefix_of = |len: usize| -> Vec<u8> { (0..len).map(|k| (k * 7 + 3) as u8).collect() };
        for (dist, len) in [
            (1usize, 4usize),
            (1, 49),
            (2, 7),
            (3, 64),
            (4, 4),
            (4, 5),
            (4, 1000),
            (1, 16),
            (1, 17),
            (2, 16),
            (15, 16),
            (15, 17),
            (16, 16),
            (16, 17),
            (17, 16),
            (4096, 16),
        ] {
            let prefix = if dist <= 4 { b"abcd".to_vec() } else { prefix_of(dist) };
            let (stream, want) = one_match(&prefix, dist, len);
            check(0, &stream, &want, &format!("dist {dist} len {len}"));
        }
        for lit in 1..=16usize {
            for tail in 0..=16usize {
                // "abcd", a fill of 20, then the literal run under test.
                let mut stream = vec![4];
                stream.extend_from_slice(b"abcd");
                stream.extend_from_slice(&[17, 1]);
                let mut want = b"abcd".to_vec();
                want.extend_from_slice(&[b'd'; 20]);
                stream.push(lit as u8);
                let literal = prefix_of(lit + 20)[20..].to_vec();
                stream.extend_from_slice(&literal);
                want.extend_from_slice(&literal);
                match tail {
                    // The stream ends with the literal run: no end marker.
                    0 => {}
                    1 | 2 => stream.extend_from_slice(&padded_varint(0, tail)),
                    // A 4-byte match at distance 1, then an empty literal run.
                    _ => {
                        let code = (tail - 1) / 2;
                        stream.extend_from_slice(&padded_varint(1, code));
                        stream.extend_from_slice(&padded_varint(1, tail - 1 - code));
                        stream.push(0);
                        let last = *want.last().unwrap();
                        want.extend_from_slice(&[last; 4]);
                    }
                }
                check(1, &stream, &want, &format!("literal {lit} ending {tail} bytes early"));
            }
        }
        for big in [4097usize, 70_000] {
            let (stream, want) = one_match(b"abcdefgh", 8, big);
            check(2, &stream, &want, &format!("{big} bytes of period 8"));
            let (stream, want) = one_match(b"xy", 2, 5);
            check(2, &stream, &want, &format!("a small block after {big} bytes"));
        }
        let [matches, tails, reuses] = checked;
        println!("copy paths: {matches} matches, {tails} literal tails, {reuses} reuse decodes");
    }

    /// A stream that fails part-way leaves what it wrote in the scratch;
    /// each stream decoded through that scratch next is byte-exact, at its
    /// exact length, all the same.
    #[test]
    fn a_failed_decode_leaves_nothing_in_the_next_one() {
        // 5,000 bytes of 0xee, then a match at distance 0.
        let mut failing = vec![1, 0xee];
        put_varint64(&mut failing, (4_999 - MIN_MATCH + 1) as u64);
        failing.extend_from_slice(&[1, 0, 1, 0]);
        let mut compressor = Compressor::default();
        let mut scratch = Vec::new();
        for (n, block) in [
            db_bench_block(7, 30),
            Vec::new(),
            b"abcabcabcabcabcabcabc".to_vec(),
            vec![0u8; 9_000],
            compressible(6_000),
        ]
        .into_iter()
        .enumerate()
        {
            let err = decompress_in(&failing, &mut scratch).unwrap_err();
            assert_eq!(err.to_string(), "corruption: simzip: invalid match distance");
            assert!(scratch[..5_000].iter().all(|&b| b == 0xee), "the failed decode wrote");
            compressor.simzip(&block, 2);
            let got = decompress_in(&compressor.out, &mut scratch).unwrap();
            assert_eq!(got, block, "block {n}");
            assert_eq!(got.capacity(), got.len(), "block {n}");
        }
    }

    #[test]
    fn decompress_rejects_malformed_streams() {
        let bad: [&[u8]; 8] = [
            &[],                              // no literal length
            &[0x80],                          // truncated literal length varint
            &[5, b'a'],                       // literal run past the end
            &[1, b'a', 0x80],                 // truncated match length
            &[1, b'a', 1],                    // match without a distance
            &[1, b'a', 1, 0, 0, 0],           // distance 0
            &[1, b'a', 1, 2, 0, 0],           // distance before the start
            &[1, b'a', 0, 7],                 // bytes after the end marker
        ];
        for stream in bad {
            assert!(decompress(stream).unwrap_err().is_corruption(), "{stream:?}");
        }
        // A match length no block can hold is refused before it sizes a buffer.
        let mut huge = vec![1, b'a'];
        put_varint64(&mut huge, u64::MAX);
        huge.extend_from_slice(&[1, 0, 0]);
        assert!(decompress(&huge).unwrap_err().is_corruption());
        let mut big = vec![1, b'a'];
        put_varint64(&mut big, 1 << 40);
        big.extend_from_slice(&[1, 0, 0]);
        assert!(decompress(&big).unwrap_err().is_corruption());
    }

    #[test]
    fn cpu_costs_ordered_by_algorithm() {
        let len = 1 << 20;
        let lz4 = compress_cpu_cost(CompressionType::Lz4, len);
        let snappy = compress_cpu_cost(CompressionType::Snappy, len);
        let zstd = compress_cpu_cost(CompressionType::Zstd, len);
        assert!(lz4 < snappy && snappy < zstd);
        assert!(decompress_cpu_cost(CompressionType::Lz4, len) < decompress_cpu_cost(CompressionType::Zstd, len));
    }
}
