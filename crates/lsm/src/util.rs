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

/// Extends a CRC32C checksum with more data, eight bytes per step
/// (slice-by-8) and byte-at-a-time over the tail.
pub fn crc32c_extend(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][b]` is the
/// checksum register after byte `b` and then `k` zero bytes.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0x82f6_3b78; // reflected CRC32C polynomial
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

    /// The byte-at-a-time loop the slice-by-8 kernel replaced.
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

    #[test]
    fn crc32c_matches_bytewise_reference_at_every_length_offset_and_split() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..80)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
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
