//! Small utilities: varint coding, CRC32C, prefix matching, and hashing.

/// Appends a u32 in LEB128 varint encoding.
pub fn put_varint32(dst: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        dst.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

/// Appends a u64 in LEB128 varint encoding.
pub fn put_varint64(dst: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        dst.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    dst.push(v as u8);
}

/// Decodes a u32 varint, returning the value and bytes consumed.
pub fn get_varint32(src: &[u8]) -> Option<(u32, usize)> {
    get_varint64(src).and_then(|(v, n)| {
        if v <= u32::MAX as u64 {
            Some((v as u32, n))
        } else {
            None
        }
    })
}

/// Decodes a u64 varint, returning the value and bytes consumed.
pub fn get_varint64(src: &[u8]) -> Option<(u64, usize)> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in src.iter().enumerate() {
        if shift > 63 {
            return None;
        }
        result |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((result, i + 1));
        }
        shift += 7;
    }
    None
}

/// Appends a fixed little-endian u32.
pub fn put_fixed32(dst: &mut Vec<u8>, v: u32) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Appends a fixed little-endian u64.
pub fn put_fixed64(dst: &mut Vec<u8>, v: u64) {
    dst.extend_from_slice(&v.to_le_bytes());
}

/// Reads a fixed little-endian u32 at `offset`.
pub fn get_fixed32(src: &[u8], offset: usize) -> Option<u32> {
    src.get(offset..offset + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

/// Reads a fixed little-endian u64 at `offset`.
pub fn get_fixed64(src: &[u8], offset: usize) -> Option<u64> {
    src.get(offset..offset + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// CRC32C (Castagnoli) checksum, table-driven.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_extend(0, data)
}

/// Bytes in each of the three lanes of a chunk.
const LANE: usize = 256;

/// Extends a CRC32C checksum with more data. Each whole 768-byte chunk
/// is three 256-byte lanes checksummed side by side (so three chains of
/// table lookups overlap) and joined by shifting each lane's register
/// past the lanes after it; the rest goes eight bytes per step
/// (slice-by-8), then one.
pub fn crc32c_extend(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    let mut chunks = data.chunks_exact(3 * LANE);
    for chunk in &mut chunks {
        let (a, rest) = chunk.split_at(LANE);
        let (b, d) = rest.split_at(LANE);
        let (mut ca, mut cb, mut cd) = (c, 0, 0);
        for ((wa, wb), wd) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(d.chunks_exact(8)) {
            ca = crc_word(ca, wa);
            cb = crc_word(cb, wb);
            cd = crc_word(cd, wd);
        }
        // The register is linear in its input: a lane checksummed from
        // zero joins the one before it through that one's shift.
        c = shift_past_lane(shift_past_lane(ca) ^ cb) ^ cd;
    }
    let mut words = chunks.remainder().chunks_exact(8);
    for w in &mut words {
        c = crc_word(c, w);
    }
    for &b in words.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// One slice-by-8 step of the register over the eight bytes of `w`.
/// Forced inline: the release build's optimizer otherwise leaves the
/// three-lane loop at 0.98 µs per 2.4 KB block instead of 0.64.
#[inline(always)]
fn crc_word(c: u32, w: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][w[4] as usize]
        ^ t[2][w[5] as usize]
        ^ t[1][w[6] as usize]
        ^ t[0][w[7] as usize]
}

/// The register after `LANE` zero bytes: `c * x^2048 mod P`, one lookup
/// per byte of `c`.
fn shift_past_lane(c: u32) -> u32 {
    let t = &LANE_SHIFT;
    t[0][(c & 0xff) as usize]
        ^ t[1][((c >> 8) & 0xff) as usize]
        ^ t[2][((c >> 16) & 0xff) as usize]
        ^ t[3][(c >> 24) as usize]
}

const POLY: u32 = 0x82f6_3b78; // reflected CRC32C polynomial

/// `a * b mod P` over GF(2), both reflected (bit 31 is `x^0`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let (mut product, mut bit) = (0, 1 << 31);
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 == 1 { (b >> 1) ^ POLY } else { b >> 1 }; // b * x
        bit >>= 1;
    }
    product
}

/// `LANE_SHIFT[k][b]` is the register `b << 8k` shifted past a lane.
const fn build_lane_shift() -> [[u32; 256]; 4] {
    // x^(8 * LANE) = x^2048 = x^(2^11): square x (bit 30) eleven times.
    let (mut x_pow, mut i) = (1 << 30, 0);
    while i < 11 {
        x_pow = mul_mod_p(x_pow, x_pow);
        i += 1;
    }
    let (mut tables, mut i) = ([[0u32; 256]; 4], 0);
    while i < 4 * 256 {
        let (k, b) = (i / 256, i % 256);
        tables[k][b] = mul_mod_p(x_pow, (b as u32) << (8 * k));
        i += 1;
    }
    tables
}

static LANE_SHIFT: [[u32; 256]; 4] = build_lane_shift();

/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][b]` is the
/// checksum register after byte `b` and then `k` zero bytes.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// Length of the longest common prefix of `a` and `b`, eight bytes per
/// comparison.
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..].iter().zip(&b[l..]).take_while(|(x, y)| x == y).count()
}

/// 64-bit FNV-1a hash, used for bloom filters and cache sharding.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            let (decoded, n) = get_varint64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint32_rejects_overflow() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(get_varint32(&buf).is_none());
    }

    #[test]
    fn varint_rejects_truncated() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, 1 << 40);
        buf.pop();
        assert!(get_varint64(&buf).is_none());
    }

    #[test]
    fn fixed_roundtrip() {
        let mut buf = Vec::new();
        put_fixed32(&mut buf, 0xdead_beef);
        put_fixed64(&mut buf, 0x0123_4567_89ab_cdef);
        assert_eq!(get_fixed32(&buf, 0), Some(0xdead_beef));
        assert_eq!(get_fixed64(&buf, 4), Some(0x0123_4567_89ab_cdef));
        assert_eq!(get_fixed32(&buf, 9), None);
    }

    /// The byte-at-a-time loop the table-driven kernels replaced.
    fn crc32c_extend_ref(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32c_known_vectors() {
        // Standard test vector: "123456789" -> 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 B.4: 32 zero bytes, 32 0xff bytes, 0..32 ascending.
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46dd_794e);
    }

    #[test]
    fn crc32c_extend_matches_whole() {
        let whole = crc32c(b"hello world");
        let part = crc32c_extend(crc32c(b"hello "), b"world");
        assert_eq!(whole, part);
    }

    fn xorshift_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32c_matches_bytewise_reference_at_every_length_offset_and_split() {
        let data = xorshift_bytes(80);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                let want = crc32c_extend_ref(0, slice);
                assert_eq!(crc32c(slice), want, "start {start} len {len}");
                for split in 0..=len {
                    let (a, b) = slice.split_at(split);
                    assert_eq!(
                        crc32c_extend(crc32c(a), b),
                        want,
                        "start {start} len {len} split {split}"
                    );
                }
            }
        }
    }

    /// Lengths up to three 768-byte chunks and a tail, so every whole
    /// chunk, every partial one and the word and byte tails are reached,
    /// split where a chunk ends and on either side of it.
    #[test]
    fn crc32c_matches_bytewise_reference_across_chunk_boundaries() {
        const CHUNK: usize = 768;
        let data = xorshift_bytes(3 * CHUNK + 64 + 8);
        for start in 0..8 {
            for len in 0..=3 * CHUNK + 64 {
                let slice = &data[start..start + len];
                let want = crc32c_extend_ref(0, slice);
                assert_eq!(crc32c(slice), want, "start {start} len {len}");
                let boundaries = (1..=3).flat_map(|k| [k * CHUNK - 1, k * CHUNK, k * CHUNK + 1]);
                for split in [0, len].into_iter().chain(boundaries).filter(|&s| s <= len) {
                    let (a, b) = slice.split_at(split);
                    assert_eq!(
                        crc32c_extend(crc32c(a), b),
                        want,
                        "start {start} len {len} split {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn crc32c_of_a_fixed_mebibyte_is_pinned() {
        let data = xorshift_bytes(1 << 20);
        assert_eq!(crc32c_extend_ref(0, &data), 0x8f58_269a);
        assert_eq!(crc32c(&data), 0x8f58_269a);
    }

    #[test]
    fn common_prefix_len_matches_bytewise() {
        let base: Vec<u8> = (0..40).collect();
        for len_a in 0..=base.len() {
            for differ_at in 0..=base.len() {
                let mut b = base.clone();
                if let Some(byte) = b.get_mut(differ_at) {
                    *byte ^= 0x10;
                }
                let a = &base[..len_a];
                let want = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
                assert_eq!(common_prefix_len(a, &b), want, "len {len_a} differ at {differ_at}");
                assert_eq!(common_prefix_len(&b, a), want, "len {len_a} differ at {differ_at}");
            }
        }
    }

    #[test]
    fn fnv_distributes() {
        let a = fnv1a(b"key-1");
        let b = fnv1a(b"key-2");
        assert_ne!(a, b);
    }
}
