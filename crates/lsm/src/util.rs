//! Small utilities: varint coding, CRC32C, and hashing.

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

/// Extends a CRC32C checksum with more data.
pub fn crc32c_extend(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

const fn build_crc_table() -> [u32; 256] {
    const POLY: u32 = 0x82f6_3b78; // reflected CRC32C polynomial
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

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

    #[test]
    fn crc32c_known_vectors() {
        // Standard test vector: "123456789" -> 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn crc32c_extend_matches_whole() {
        let whole = crc32c(b"hello world");
        let part = crc32c_extend(crc32c(b"hello "), b"world");
        assert_eq!(whole, part);
    }

    #[test]
    fn fnv_distributes() {
        let a = fnv1a(b"key-1");
        let b = fnv1a(b"key-2");
        assert_ne!(a, b);
    }
}
