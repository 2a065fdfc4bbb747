//! Unsigned LEB128 varints, the integer encoding used throughout the IPFS
//! stack (multihash prefixes, CIDv1 prefixes, Bitswap wire messages).

use crate::error::TypesError;

/// Maximum number of bytes a `u64` varint can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the unsigned-varint encoding of `value` to `out` and returns the
/// number of bytes written.
pub fn encode(mut value: u64, out: &mut Vec<u8>) -> usize {
    let mut written = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            written += 1;
            return written;
        }
        out.push(byte | 0x80);
        written += 1;
    }
}

/// Encodes `value` into a fresh vector.
pub fn encode_to_vec(value: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAX_VARINT_LEN);
    encode(value, &mut out);
    out
}

/// Decodes an unsigned varint from the front of `input`.
///
/// Returns the decoded value and the number of bytes consumed.
#[inline]
pub fn decode(input: &[u8]) -> Result<(u64, usize), TypesError> {
    // One- and two-byte varints (values below 2^14) make up nearly all
    // lengths, dictionary indexes and timestamp deltas, so they are decoded
    // inline. A two-byte form is canonical unless its second byte is a zero
    // continuation; that case, and every longer varint, takes the full loop.
    match *input {
        [low, ..] if low < 0x80 => Ok((u64::from(low), 1)),
        [low, high, ..] if high < 0x80 && high != 0 => {
            Ok((u64::from(low & 0x7f) | u64::from(high) << 7, 2))
        }
        _ => decode_long(input),
    }
}

/// The general decoder: any length, overflow and canonical-form checks.
fn decode_long(input: &[u8]) -> Result<(u64, usize), TypesError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_LEN {
            return Err(TypesError::VarintOverflow);
        }
        let low = u64::from(byte & 0x7f);
        value = value
            .checked_add(
                low.checked_shl(shift)
                    .filter(|_| shift < 64 && (shift != 63 || low <= 1))
                    .ok_or(TypesError::VarintOverflow)?,
            )
            .ok_or(TypesError::VarintOverflow)?;
        if byte & 0x80 == 0 {
            // Reject non-canonical encodings with a trailing 0x00 continuation.
            if byte == 0 && i > 0 {
                return Err(TypesError::NonCanonicalVarint);
            }
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(TypesError::UnexpectedEof)
}

/// Number of bytes the varint encoding of `value` occupies.
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        assert_eq!(encode_to_vec(0), vec![0x00]);
        assert_eq!(encode_to_vec(1), vec![0x01]);
        assert_eq!(encode_to_vec(127), vec![0x7f]);
        assert_eq!(encode_to_vec(128), vec![0x80, 0x01]);
        assert_eq!(encode_to_vec(300), vec![0xac, 0x02]);
        assert_eq!(encode_to_vec(0x12), vec![0x12]);
        assert_eq!(encode_to_vec(0x70), vec![0x70]);
    }

    #[test]
    fn decode_consumes_exact_prefix() {
        let mut buf = encode_to_vec(300);
        buf.extend_from_slice(&[0xde, 0xad]);
        let (v, used) = decode(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, 2);
    }

    #[test]
    fn decode_empty_is_eof() {
        assert!(matches!(decode(&[]), Err(TypesError::UnexpectedEof)));
    }

    #[test]
    fn decode_unterminated_is_eof() {
        assert!(matches!(
            decode(&[0x80, 0x80]),
            Err(TypesError::UnexpectedEof)
        ));
    }

    #[test]
    fn decode_overlong_is_overflow() {
        let buf = [0xffu8; 11];
        assert!(matches!(decode(&buf), Err(TypesError::VarintOverflow)));
    }

    #[test]
    fn decode_u64_max_roundtrip() {
        let buf = encode_to_vec(u64::MAX);
        assert_eq!(decode(&buf).unwrap(), (u64::MAX, buf.len()));
    }

    #[test]
    fn rejects_non_canonical_trailing_zero() {
        // 0x80 0x00 encodes 0 in two bytes; canonical form is a single 0x00.
        // A zero continuation after any low group is rejected, with or
        // without bytes after it, and so is one after a longer prefix.
        for low in 0x80..=u8::MAX {
            for input in [&[low, 0x00][..], &[low, 0x00, 0x05], &[low, 0x80, 0x00]] {
                assert!(
                    matches!(decode(input), Err(TypesError::NonCanonicalVarint)),
                    "{input:02x?}"
                );
            }
        }
    }

    #[test]
    fn short_forms_match_the_general_decoder() {
        // Every one- and two-byte input, followed by a terminating suffix so
        // two-byte continuations decode through the general loop as well.
        for low in 0..=u8::MAX {
            for high in 0..=u8::MAX {
                let input = [low, high, 0x01];
                assert_eq!(
                    decode(&input),
                    decode_long(&input),
                    "{low:#04x} {high:#04x}"
                );
            }
            assert_eq!(decode(&[low]), decode_long(&[low]), "{low:#04x}");
        }
    }

    #[test]
    fn encoded_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 300, 1 << 14, 1 << 21, u64::MAX] {
            assert_eq!(encoded_len(v), encode_to_vec(v).len(), "value {v}");
        }
    }

    proptest! {
        #[test]
        fn roundtrip(value: u64) {
            let buf = encode_to_vec(value);
            let (decoded, used) = decode(&buf).unwrap();
            prop_assert_eq!(decoded, value);
            prop_assert_eq!(used, buf.len());
            prop_assert_eq!(buf.len(), encoded_len(value));
        }

        #[test]
        fn roundtrip_with_suffix(value: u64, suffix in proptest::collection::vec(any::<u8>(), 0..16)) {
            let mut buf = encode_to_vec(value);
            let prefix_len = buf.len();
            buf.extend_from_slice(&suffix);
            let (decoded, used) = decode(&buf).unwrap();
            prop_assert_eq!(decoded, value);
            prop_assert_eq!(used, prefix_len);
        }
    }
}
