//! CRC-32C (Castagnoli), table-driven: the checksum of every journal
//! record and every server checkpoint.
//!
//! Eight bytes at a time ("slicing-by-8"): `TABLES[k][b]` is the CRC of
//! byte `b` followed by `k` zero bytes, so one step folds eight input
//! bytes with eight table lookups instead of eight dependent ones — a
//! commit checksums every record it writes, a checkpoint tens of
//! kilobytes.

/// The Castagnoli polynomial, bit-reflected.
const POLY: u32 = 0x82F6_3B78;

/// `BYTE[b]` is the CRC of the single byte `b`.
const BYTE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// The eight lookup tables, built at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [BYTE; 8];
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ BYTE[(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC-32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let at = |table: &[u32; 256], word: u32, shift: u32| table[((word >> shift) & 0xFF) as usize];
    let mut chunks = bytes.chunks_exact(8);
    let mut crc = !0u32;
    for chunk in &mut chunks {
        let (lo, hi) = chunk.split_at(4);
        let lo = u32::from_le_bytes(lo.try_into().unwrap_or_default()) ^ crc;
        let hi = u32::from_le_bytes(hi.try_into().unwrap_or_default());
        crc = at(t7, lo, 0)
            ^ at(t6, lo, 8)
            ^ at(t5, lo, 16)
            ^ at(t4, lo, 24)
            ^ at(t3, hi, 0)
            ^ at(t2, hi, 8)
            ^ at(t1, hi, 16)
            ^ at(t0, hi, 24);
    }
    for &b in chunks.remainder() {
        crc = at(t0, crc ^ u32::from(b), 0) ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one bit at a time.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn matches_the_published_check_values() {
        // RFC 3720 appendix B.4 and the common "123456789" check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn eight_at_a_time_matches_the_definition_at_every_length() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..bytes.len() {
            assert_eq!(
                crc32c(&bytes[..len]),
                bitwise(&bytes[..len]),
                "length {len}"
            );
        }
    }
}
