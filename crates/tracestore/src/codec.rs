//! Pluggable per-chunk payload codecs.
//!
//! A chunk frame carries a codec byte ahead of the encoded column planes
//! (both covered by the frame CRC):
//!
//! ```text
//! chunk   := payload_len:varint payload crc32(payload):u32le
//! payload := codec:u8 body
//! ```
//!
//! The codec byte is per *chunk*, so one segment — and a fortiori one
//! manifest — may freely mix codecs: readers dispatch on the byte and never
//! consult configuration. That is what makes codec migration per-segment (or
//! even per-chunk) a non-event for the read path, and what lets the
//! LZ encoder fall back to raw framing for chunks that do not compress.
//!
//! Three codecs ship today:
//!
//! * [`RawCodec`] (byte 0) — the body is the column planes verbatim,
//!   byte-identical to the pre-codec segment format.
//! * [`LzCodec`] (byte 1) — an LZ back-reference compressor over the column
//!   planes. Dictionary index columns and delta-encoded timestamps repeat
//!   heavily inside a chunk, which is exactly the redundancy a small-window
//!   match finder removes.
//! * [`ColCodec`](crate::col::ColCodec) (byte 2) — column-aware per-plane
//!   encoding: dictionary indexes bit-packed to the dictionary's actual
//!   width, frame-of-reference + delta timestamps with per-miniblock bit
//!   widths, and run-length request-type/flag planes. Smaller than `Lz` on
//!   real traces *and* faster to decode — the read path unpacks columns in
//!   batches instead of re-parsing per-entry varints (see [`crate::col`]).
//!
//! Decoding is strictly validated: an unknown codec byte surfaces
//! [`SegmentError::UnknownCodec`], and any structural damage to a compressed
//! body (truncation, out-of-range back-references, length mismatches)
//! surfaces [`SegmentError::Corrupt`] — never a panic. The CRC already makes
//! accidental damage vanishingly unlikely; the typed errors are the defense
//! against crafted input.

use crate::segment::SegmentError;
use ipfs_mon_types::varint;
use std::borrow::Cow;

/// Wire identifier of a chunk payload codec.
///
/// The discriminant is the codec byte stored in every chunk frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Column planes stored verbatim.
    #[default]
    Raw = 0,
    /// LZ back-reference compression over the column planes.
    Lz = 1,
    /// Column-aware per-plane encoding (bit-packed indexes,
    /// frame-of-reference timestamps, run-length 2-bit planes).
    Col = 2,
}

impl Codec {
    /// The codec byte written into the chunk frame.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Looks a codec up from its frame byte.
    pub fn from_byte(byte: u8) -> Result<Self, SegmentError> {
        match byte {
            0 => Ok(Codec::Raw),
            1 => Ok(Codec::Lz),
            2 => Ok(Codec::Col),
            other => Err(SegmentError::UnknownCodec(other)),
        }
    }

    /// The [`ChunkCodec`] implementation behind this identifier.
    pub fn implementation(self) -> &'static dyn ChunkCodec {
        match self {
            Codec::Raw => &RawCodec,
            Codec::Lz => &LzCodec,
            Codec::Col => &crate::col::ColCodec,
        }
    }

    /// Parses a codec name as used by CLI flags (`raw` / `lz` / `col`).
    pub fn parse(name: &str) -> Result<Self, SegmentError> {
        match name {
            "raw" => Ok(Codec::Raw),
            "lz" => Ok(Codec::Lz),
            "col" => Ok(Codec::Col),
            other => Err(SegmentError::InvalidConfig(format!(
                "unknown codec '{other}' (expected 'raw', 'lz' or 'col')"
            ))),
        }
    }

    /// Human-readable codec name (inverse of [`Codec::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Lz => "lz",
            Codec::Col => "col",
        }
    }

    /// Every codec, in codec-byte order — the canonical iteration set for
    /// benches and matrix tests.
    pub fn all() -> [Codec; 3] {
        [Codec::Raw, Codec::Lz, Codec::Col]
    }
}

/// A chunk payload transformation: column planes in, encoded body out.
///
/// Implementations must be bijective (`decode(encode(x)) == x` for every
/// `x` up to the crate's decoded-length ceiling — `encode_chunk` frames
/// larger planes raw) and must reject — with a typed [`SegmentError`] —
/// rather than panic on arbitrary `decode` input: the CRC guards against
/// accidents, not adversaries.
pub trait ChunkCodec {
    /// The wire identifier this implementation answers to.
    fn id(&self) -> Codec;

    /// Encodes `raw` column planes, appending the body to `out`.
    fn encode(&self, raw: &[u8], out: &mut Vec<u8>);

    /// Decodes an encoded body back into column planes. Raw bodies borrow;
    /// compressed bodies decompress into an owned buffer.
    fn decode<'a>(&self, body: &'a [u8]) -> Result<Cow<'a, [u8]>, SegmentError>;

    /// Decodes into a caller-provided buffer (cleared first), so streaming
    /// readers can recycle one scratch allocation across chunks instead of
    /// paying a fresh `Vec` per decode. The default copies through
    /// [`ChunkCodec::decode`]; decompressing codecs override it to write
    /// straight into `out`.
    fn decode_into(&self, body: &[u8], out: &mut Vec<u8>) -> Result<(), SegmentError> {
        out.clear();
        out.extend_from_slice(self.decode(body)?.as_ref());
        Ok(())
    }
}

/// Byte 0: the identity codec — today's column planes, stored verbatim.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawCodec;

impl ChunkCodec for RawCodec {
    fn id(&self) -> Codec {
        Codec::Raw
    }

    fn encode(&self, raw: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(raw);
    }

    fn decode<'a>(&self, body: &'a [u8]) -> Result<Cow<'a, [u8]>, SegmentError> {
        Ok(Cow::Borrowed(body))
    }
}

/// Byte 1: greedy LZ back-reference compression.
///
/// Format: `decoded_len:varint token*` where each token is either a literal
/// run — `(len << 1):varint` followed by `len` literal bytes — or a match —
/// `((len - MIN_MATCH) << 1 | 1):varint distance:varint` copying `len` bytes
/// from `distance` bytes back in the decoded output (matches may
/// self-overlap, RLE-style). The encoder uses a single-probe hash table over
/// 4-byte windows (LZ4-style greedy parsing): fast, and plenty for the
/// redundancy profile of dictionary index columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct LzCodec;

/// Minimum match length worth a back-reference (shorter matches cost more to
/// encode than the literals they replace).
const MIN_MATCH: usize = 4;
/// Maximum distance a back-reference may look behind.
const MAX_DISTANCE: usize = 1 << 16;
/// log2 of the match-finder hash table size.
const HASH_BITS: u32 = 14;
/// Hard ceiling on a decoded chunk body. Chunks are written at
/// [`crate::segment::SegmentConfig::chunk_capacity`] entries (default 4096,
/// tens of KiB of planes); 256 MiB is orders of magnitude above any sane
/// configuration while still bounding what a crafted `decoded_len` — which
/// match tokens could otherwise amplify essentially without limit — can
/// make the decoder allocate and emit. Bodies above the ceiling are not
/// representable in the compressed format; `encode_chunk` falls back to raw
/// framing for such chunks, so self-written segments always read back.
pub(crate) const MAX_DECODED_LEN: usize = 256 << 20;

fn hash4(bytes: &[u8]) -> usize {
    let word = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte window"));
    (word.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

impl ChunkCodec for LzCodec {
    fn id(&self) -> Codec {
        Codec::Lz
    }

    fn encode(&self, raw: &[u8], out: &mut Vec<u8>) {
        debug_assert!(
            raw.len() <= MAX_DECODED_LEN,
            "bodies above MAX_DECODED_LEN are unrepresentable (encode_chunk falls back to raw)"
        );
        varint::encode(raw.len() as u64, out);
        // u32 slots keep the table at 64 KiB (positions fit: the input is
        // capped at MAX_DECODED_LEN < u32::MAX).
        let mut table = vec![u32::MAX; 1 << HASH_BITS];
        let mut pos = 0usize;
        let mut literal_start = 0usize;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
            if to > from {
                varint::encode(((to - from) as u64) << 1, out);
                out.extend_from_slice(&raw[from..to]);
            }
        };

        while pos + MIN_MATCH <= raw.len() {
            let slot = hash4(&raw[pos..]);
            let candidate = table[slot] as usize;
            table[slot] = pos as u32;
            let is_match = candidate != u32::MAX as usize
                && pos - candidate <= MAX_DISTANCE
                && raw[candidate..candidate + MIN_MATCH] == raw[pos..pos + MIN_MATCH];
            if !is_match {
                pos += 1;
                continue;
            }
            // Extend the match as far as it goes.
            let mut len = MIN_MATCH;
            while pos + len < raw.len() && raw[candidate + len] == raw[pos + len] {
                len += 1;
            }
            flush_literals(out, literal_start, pos);
            varint::encode((((len - MIN_MATCH) as u64) << 1) | 1, out);
            varint::encode((pos - candidate) as u64, out);
            pos += len;
            literal_start = pos;
        }
        flush_literals(out, literal_start, raw.len());
    }

    fn decode<'a>(&self, body: &'a [u8]) -> Result<Cow<'a, [u8]>, SegmentError> {
        let mut out = Vec::new();
        self.decode_into(body, &mut out)?;
        Ok(Cow::Owned(out))
    }

    fn decode_into(&self, body: &[u8], out: &mut Vec<u8>) -> Result<(), SegmentError> {
        out.clear();
        let corrupt = |what: &str| SegmentError::Corrupt(format!("lz body: {what}"));
        let mut pos = 0usize;
        let take_varint = |pos: &mut usize| -> Result<u64, SegmentError> {
            let (value, used) =
                varint::decode(&body[*pos..]).map_err(|_| corrupt("truncated varint"))?;
            *pos += used;
            Ok(value)
        };

        let decoded_len = take_varint(&mut pos)? as usize;
        // Match tokens amplify: a few encoded bytes can emit an arbitrarily
        // long self-overlapping copy, so the declared length itself must be
        // capped — output and allocation are then bounded by the cap no
        // matter what the tokens claim.
        if decoded_len > MAX_DECODED_LEN {
            return Err(corrupt("declared length exceeds chunk ceiling"));
        }
        out.reserve(decoded_len.min(1 << 20));
        while pos < body.len() {
            let token = take_varint(&mut pos)?;
            if token & 1 == 0 {
                let len = (token >> 1) as usize;
                if len == 0 || body.len() - pos < len {
                    return Err(corrupt("truncated literal run"));
                }
                out.extend_from_slice(&body[pos..pos + len]);
                pos += len;
            } else {
                let len = (token >> 1) as usize + MIN_MATCH;
                let distance = take_varint(&mut pos)? as usize;
                if distance == 0 || distance > out.len() {
                    return Err(corrupt("back-reference before start of output"));
                }
                if out.len() + len > decoded_len {
                    return Err(corrupt("match overruns declared length"));
                }
                // Matches may overlap their own output (distance < len): the
                // copied run repeats with period `distance`, so copy in
                // rounds, each taking up to everything from `start` on —
                // the periodic source doubles every round.
                let start = out.len() - distance;
                let end = out.len() + len;
                while out.len() < end {
                    let round = (end - out.len()).min(out.len() - start);
                    out.extend_from_within(start..start + round);
                }
            }
            if out.len() > decoded_len {
                return Err(corrupt("output exceeds declared length"));
            }
        }
        if out.len() != decoded_len {
            return Err(corrupt("output shorter than declared length"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let mut encoded = Vec::new();
        LzCodec.encode(data, &mut encoded);
        let decoded = LzCodec.decode(&encoded).unwrap();
        assert_eq!(decoded.as_ref(), data);
    }

    #[test]
    fn lz_roundtrips_assorted_inputs() {
        roundtrip(b"");
        roundtrip(b"abc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        roundtrip(b"abcdabcdabcdabcdXabcdabcdabcdabcd");
        let mut mixed = Vec::new();
        for i in 0..4096u32 {
            mixed.extend_from_slice(&(i % 17).to_le_bytes());
        }
        roundtrip(&mixed);
        // Incompressible pseudo-random bytes.
        let noise: Vec<u8> = (0..2048u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        roundtrip(&noise);
    }

    #[test]
    fn lz_overlapping_matches_repeat_their_period() {
        for distance in 1..=9usize {
            for len in MIN_MATCH..48 {
                let literals: Vec<u8> = (1..=distance as u8).collect();
                let mut body = Vec::new();
                varint::encode((distance + len) as u64, &mut body);
                varint::encode((distance as u64) << 1, &mut body);
                body.extend_from_slice(&literals);
                varint::encode((((len - MIN_MATCH) as u64) << 1) | 1, &mut body);
                varint::encode(distance as u64, &mut body);
                let expected: Vec<u8> = literals
                    .iter()
                    .copied()
                    .cycle()
                    .take(distance + len)
                    .collect();
                let decoded = LzCodec.decode(&body).unwrap();
                assert_eq!(decoded.as_ref(), expected, "distance {distance}, len {len}");
            }
        }
    }

    #[test]
    fn lz_compresses_repetitive_input() {
        let data: Vec<u8> = std::iter::repeat_n(b"abcdefgh".as_slice(), 512)
            .flatten()
            .copied()
            .collect();
        let mut encoded = Vec::new();
        LzCodec.encode(&data, &mut encoded);
        assert!(
            encoded.len() < data.len() / 10,
            "repetitive input barely compressed: {} -> {}",
            data.len(),
            encoded.len()
        );
    }

    #[test]
    fn lz_rejects_damage_with_typed_errors() {
        let data = b"abcdabcdabcdabcdabcdabcdabcdabcd";
        let mut encoded = Vec::new();
        LzCodec.encode(data, &mut encoded);

        // Truncations at every prefix must error, never panic.
        for cut in 0..encoded.len() {
            match LzCodec.decode(&encoded[..cut]) {
                Ok(out) => assert_ne!(out.as_ref(), data.as_slice()),
                Err(SegmentError::Corrupt(_)) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }

        // A back-reference pointing before the start of output.
        let mut bad = Vec::new();
        varint::encode(8, &mut bad); // decoded_len
        varint::encode(1, &mut bad); // match token, len = MIN_MATCH
        varint::encode(100, &mut bad); // distance into nowhere
        assert!(matches!(
            LzCodec.decode(&bad),
            Err(SegmentError::Corrupt(_))
        ));

        // A decompression bomb: tiny body, astronomically declared length.
        // Must be rejected up front, before any output is produced.
        let mut bomb = Vec::new();
        varint::encode(MAX_DECODED_LEN as u64 + 1, &mut bomb);
        varint::encode(1 << 1, &mut bomb); // literal run of one byte
        bomb.push(0xab);
        assert!(matches!(
            LzCodec.decode(&bomb),
            Err(SegmentError::Corrupt(_))
        ));
    }

    #[test]
    fn codec_bytes_are_stable() {
        assert_eq!(Codec::Raw.byte(), 0);
        assert_eq!(Codec::Lz.byte(), 1);
        assert_eq!(Codec::Col.byte(), 2);
        assert_eq!(Codec::from_byte(0).unwrap(), Codec::Raw);
        assert_eq!(Codec::from_byte(1).unwrap(), Codec::Lz);
        assert_eq!(Codec::from_byte(2).unwrap(), Codec::Col);
        assert!(matches!(
            Codec::from_byte(7),
            Err(SegmentError::UnknownCodec(7))
        ));
    }

    #[test]
    fn codec_names_roundtrip() {
        for codec in Codec::all() {
            assert_eq!(Codec::parse(codec.name()).unwrap(), codec);
            assert_eq!(codec.implementation().id(), codec);
        }
        assert!(Codec::parse("zstd").is_err());
    }
}
