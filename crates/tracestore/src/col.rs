//! The `Col` codec (byte 2): column-aware per-plane encoding.
//!
//! Where [`LzCodec`](crate::codec::LzCodec) treats the column planes as an
//! opaque byte stream, `Col` understands them: each plane is re-encoded with
//! a representation matched to the column's actual value distribution, and
//! the decoder unpacks fixed-width bit runs in branch-light batches straight
//! into the reader's scratch columns instead of re-parsing per-entry
//! varints.
//!
//! ```text
//! body        := mode:u8 payload
//! mode 1      := raw column planes, verbatim (fallback — keeps the codec
//!                bijective over arbitrary plane bytes)
//! mode 2      := lz(mode-0 payload) — emitted when the LZ pass over the
//!                columnar bytes is strictly smaller (highly repetitive
//!                index or timestamp columns)
//! mode 0      := monitor:varint count:varint
//!                base:varint miniblock*          -- count-1 deltas, ≤64 each
//!                dict_column(peer, 32-byte entries)
//!                addr_column                     -- 8-byte entries
//!                dict_column(cid, length-prefixed entries)
//!                packed2(request types) packed2(flags)
//! miniblock   := min:zigzag-varint width:u8 bits(delta - min, width)
//! dict_column := len:varint dict_bytes bits(index, ceil(log2(len)))
//! addr_column := len:varint dict_bytes
//!                ( 1:u8                  -- indexes equal the peer column
//!                | 0:u8 bits(index, ceil(log2(len))) )
//! packed2     := 0:u8 rle_token*      -- run-length; runs sum to count
//!              | 1:u8 packed_bytes    -- two bits per entry, verbatim
//! rle_token   := (run << 2 | value):varint
//! ```
//!
//! `bits(v, w)` packs each value into `w` bits, least-significant bit first
//! within a little-endian bit stream, zero-padded to a byte boundary. The
//! dictionary index width is *derived* from the dictionary length (never
//! stored), so a single-value dictionary costs zero index bits. Timestamp
//! miniblocks store frame-of-reference offsets `delta - min(block)`, so a
//! monotone run with a constant step collapses to width 0. The 2-bit planes
//! pick run-length tokens when strictly smaller than the packed bytes (flag
//! planes are usually one run; request-type planes usually are not).
//!
//! Mode 0 is only emitted when the input parses as canonical column planes
//! (strict varints, in-range indexes, zero padding bits) — anything else
//! ships verbatim under mode 1, which keeps `decode(encode(x)) == x` for
//! every input the trait contract covers. Decoding is strictly validated:
//! truncated bit runs, out-of-range dictionary indexes, and RLE runs past
//! the entry count all surface [`SegmentError::Corrupt`], never a panic.

use crate::codec::{ChunkCodec, Codec, MAX_DECODED_LEN};
use crate::segment::{has_code_3, unzigzag, zigzag, Cursor, SegmentError, MULTIADDR_LEN};
use ipfs_mon_types::varint;
use std::borrow::Cow;
use std::ops::Range;

/// Leading body byte of a columnar-encoded chunk.
pub(crate) const MODE_COLUMNAR: u8 = 0;
/// Leading body byte of a verbatim-planes fallback chunk.
pub(crate) const MODE_VERBATIM: u8 = 1;
/// Leading body byte of an LZ-compressed columnar chunk (emitted when the
/// compressed columnar form is strictly smaller than the plain one — highly
/// repetitive index or timestamp columns).
pub(crate) const MODE_COLUMNAR_LZ: u8 = 2;
/// Deltas per timestamp miniblock (one frame-of-reference + width each).
const MINIBLOCK: usize = 64;
/// 2-bit plane sub-mode byte: run-length tokens.
const PLANE_RLE: u8 = 0;
/// 2-bit plane sub-mode byte: packed bytes verbatim.
const PLANE_PACKED: u8 = 1;
/// Address column sub-mode byte: the column carries its own packed indexes.
const ADDR_OWN_INDEXES: u8 = 0;
/// Address column sub-mode byte: the index column equals the peer index
/// column entry-for-entry (monitors observe one address per peer, so this
/// is the overwhelmingly common case) — zero index bits on the wire.
const ADDR_PEER_INDEXES: u8 = 1;

fn corrupt(what: &str) -> SegmentError {
    SegmentError::Corrupt(format!("col body: {what}"))
}

/// Byte 2: column-aware per-plane encoding with a vectorized batch decoder.
///
/// See the [module docs](crate::col) for the wire format. The trait-level
/// [`decode`](ChunkCodec::decode) reconstructs the raw column planes (used
/// by tests and the bijectivity contract); the production read path decodes
/// columnar bodies directly into [`crate::segment::ChunkView`] columns
/// without materializing the planes at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColCodec;

/// Bits needed to represent `max` (0 for 0).
fn bits_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

/// Packed byte length of `count` values at `width` bits each.
fn packed_len(count: usize, width: u32) -> Option<usize> {
    count
        .checked_mul(width as usize)
        .map(|bits| bits.div_ceil(8))
}

/// Packs each value into `width` bits, LSB-first, zero-padded to a byte.
fn pack_bits(values: &[u64], width: u32, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut bits: u32 = 0;
    for &value in values {
        debug_assert!(width == 64 || value < (1u64 << width));
        acc |= (value as u128) << bits;
        bits += width;
        while bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push(acc as u8);
    }
}

/// Unpacks `count` values of `width` bits from `bytes` (which must hold
/// exactly [`packed_len`] bytes). Each value is one unaligned little-endian
/// word load, a shift and a mask: no accumulator carries from one value to
/// the next, so the loop has no serial dependency and no inner byte loop.
fn unpack_bits(bytes: &[u8], count: usize, width: u32) -> impl Iterator<Item = u64> + '_ {
    debug_assert_eq!(Some(bytes.len()), packed_len(count, width));
    let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
    (0..count).map(move |i| {
        if width == 0 {
            return 0;
        }
        let bit = i * width as usize;
        let (byte, shift) = (bit / 8, (bit % 8) as u32);
        let low = load_le_u64(bytes, byte) >> shift;
        // Only widths above 57 can straddle a ninth byte.
        let value = if shift + width > 64 {
            low | (load_le_u64(bytes, byte + 8) << (64 - shift))
        } else {
            low
        };
        value & mask
    })
}

/// The eight bytes of `bytes` at `at` as a little-endian word, zero-filled
/// past the end of the slice.
fn load_le_u64(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")),
        None => {
            let tail = bytes.get(at..).unwrap_or(&[]);
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding: parse canonical planes, emit columns (verbatim fallback)
// ---------------------------------------------------------------------------

/// One dictionary column parsed out of raw planes.
struct DictColumn<'a> {
    len: usize,
    bytes: &'a [u8],
    indexes: Vec<u64>,
}

/// Raw column planes parsed for re-encoding. `None` from the parser means
/// the input is not canonical planes and must ship verbatim.
struct RawPlanes<'a> {
    monitor: u64,
    count: usize,
    base: u64,
    deltas: Vec<i64>,
    peer: DictColumn<'a>,
    addr: DictColumn<'a>,
    cid: DictColumn<'a>,
    type_plane: &'a [u8],
    flag_plane: &'a [u8],
}

fn parse_indexes(cursor: &mut Cursor<'_>, count: usize, dict_len: usize) -> Option<Vec<u64>> {
    let mut indexes = Vec::with_capacity(count);
    for _ in 0..count {
        let index = cursor.varint().ok()?;
        if index >= dict_len as u64 {
            return None;
        }
        indexes.push(index);
    }
    Some(indexes)
}

/// Whether the partial last byte of a 2-bit plane is zero-padded (the only
/// form the decoder's plane reconstruction can reproduce).
fn padding_is_zero(plane: &[u8], count: usize) -> bool {
    count.is_multiple_of(4) || plane[count / 4] >> ((count % 4) * 2) == 0
}

fn parse_raw_planes(raw: &[u8]) -> Option<RawPlanes<'_>> {
    let mut cursor = Cursor::new(raw);
    let monitor = cursor.varint().ok()?;
    let count = cursor.varint().ok()? as usize;
    if count == 0 {
        return None;
    }
    let base = cursor.varint().ok()?;
    let mut deltas = Vec::with_capacity(count - 1);
    for _ in 1..count {
        deltas.push(unzigzag(cursor.varint().ok()?));
    }

    fn dict<'a>(cursor: &mut Cursor<'a>, count: usize, entry_len: usize) -> Option<DictColumn<'a>> {
        let len = cursor.varint().ok()? as usize;
        let bytes = cursor.take(len.checked_mul(entry_len)?).ok()?;
        let indexes = parse_indexes(cursor, count, len)?;
        Some(DictColumn {
            len,
            bytes,
            indexes,
        })
    }
    let peer = dict(&mut cursor, count, 32)?;
    let addr = dict(&mut cursor, count, MULTIADDR_LEN)?;

    let cid_len = cursor.varint().ok()? as usize;
    let cid_start = cursor.position();
    for _ in 0..cid_len {
        let len = cursor.varint().ok()? as usize;
        cursor.take(len).ok()?;
    }
    let cid_bytes = &raw[cid_start..cursor.position()];
    let cid_indexes = parse_indexes(&mut cursor, count, cid_len)?;

    let type_plane = cursor.take(count.div_ceil(4)).ok()?;
    let flag_plane = cursor.take(count.div_ceil(4)).ok()?;
    if !padding_is_zero(type_plane, count) || !padding_is_zero(flag_plane, count) {
        return None;
    }
    if !cursor.is_at_end() {
        return None;
    }
    Some(RawPlanes {
        monitor,
        count,
        base,
        deltas,
        peer,
        addr,
        cid: DictColumn {
            len: cid_len,
            bytes: cid_bytes,
            indexes: cid_indexes,
        },
        type_plane,
        flag_plane,
    })
}

fn encode_dict_column(column: &DictColumn<'_>, out: &mut Vec<u8>) {
    varint::encode(column.len as u64, out);
    out.extend_from_slice(column.bytes);
    // `len >= 1` whenever indexes exist (every index was validated < len),
    // so the width derivation never underflows.
    let width = bits_for((column.len - 1) as u64);
    pack_bits(&column.indexes, width, out);
}

/// Run-length tokens over a packed 2-bit plane.
fn rle_encode(plane: &[u8], count: usize, out: &mut Vec<u8>) {
    let get = |i: usize| (plane[i / 4] >> ((i % 4) * 2)) & 0b11;
    let mut i = 0;
    while i < count {
        let value = get(i);
        let mut run = 1;
        while i + run < count && get(i + run) == value {
            run += 1;
        }
        varint::encode(((run as u64) << 2) | value as u64, out);
        i += run;
    }
}

fn encode_2bit_plane(plane: &[u8], count: usize, out: &mut Vec<u8>) {
    let mut rle = Vec::new();
    rle_encode(plane, count, &mut rle);
    if rle.len() < plane.len() {
        out.push(PLANE_RLE);
        out.extend_from_slice(&rle);
    } else {
        out.push(PLANE_PACKED);
        out.extend_from_slice(plane);
    }
}

fn encode_columnar(planes: &RawPlanes<'_>, out: &mut Vec<u8>) {
    out.push(MODE_COLUMNAR);
    varint::encode(planes.monitor, out);
    varint::encode(planes.count as u64, out);
    varint::encode(planes.base, out);
    let mut offsets = Vec::with_capacity(MINIBLOCK);
    for block in planes.deltas.chunks(MINIBLOCK) {
        let min = block.iter().copied().min().expect("chunks are non-empty");
        varint::encode(zigzag(min), out);
        offsets.clear();
        // delta - min always fits u64: both are i64, and delta >= min.
        offsets.extend(block.iter().map(|&d| (d as i128 - min as i128) as u64));
        let width = bits_for(offsets.iter().copied().max().unwrap_or(0));
        out.push(width as u8);
        pack_bits(&offsets, width, out);
    }
    encode_dict_column(&planes.peer, out);
    // Address column: one observed address per peer makes the index column
    // a copy of the peer one almost always — a marker byte replaces it.
    varint::encode(planes.addr.len as u64, out);
    out.extend_from_slice(planes.addr.bytes);
    if planes.addr.indexes == planes.peer.indexes {
        out.push(ADDR_PEER_INDEXES);
    } else {
        out.push(ADDR_OWN_INDEXES);
        let width = bits_for((planes.addr.len - 1) as u64);
        pack_bits(&planes.addr.indexes, width, out);
    }
    encode_dict_column(&planes.cid, out);
    encode_2bit_plane(planes.type_plane, planes.count, out);
    encode_2bit_plane(planes.flag_plane, planes.count, out);
}

// ---------------------------------------------------------------------------
// Decoding: shared column parser
// ---------------------------------------------------------------------------

/// Where the verbatim dictionary regions live inside a columnar body
/// (ranges are relative to the body slice *after* the mode byte).
pub(crate) struct ColumnLayout {
    pub monitor: usize,
    pub count: usize,
    pub peer_dict: Range<usize>,
    pub addr_dict: Range<usize>,
    pub cid_dict: Range<usize>,
    pub cid_dict_len: usize,
}

fn read_packed_indexes(
    cursor: &mut Cursor<'_>,
    count: usize,
    dict_len: usize,
    indexes: &mut Vec<usize>,
) -> Result<(), SegmentError> {
    if dict_len == 0 {
        return Err(corrupt("indexed column with empty dictionary"));
    }
    let width = bits_for((dict_len - 1) as u64);
    if width == 0 {
        // Single-value dictionary: zero index bits on the wire.
        indexes.extend(std::iter::repeat_n(0usize, count));
        return Ok(());
    }
    let bytes =
        cursor.take(packed_len(count, width).ok_or_else(|| corrupt("index run too large"))?)?;
    let start = indexes.len();
    indexes.extend(unpack_bits(bytes, count, width).map(|v| v as usize));
    let max = indexes[start..].iter().copied().max().unwrap_or(0);
    if max >= dict_len {
        return Err(SegmentError::Corrupt(format!(
            "col body: dictionary index {max} out of range (dictionary holds {dict_len})"
        )));
    }
    Ok(())
}

fn decode_dict_region(
    cursor: &mut Cursor<'_>,
    entry_len: usize,
) -> Result<(usize, Range<usize>), SegmentError> {
    let len = cursor.varint()? as usize;
    let start = cursor.position();
    cursor.take(
        len.checked_mul(entry_len)
            .ok_or_else(|| corrupt("dictionary too large"))?,
    )?;
    Ok((len, start..cursor.position()))
}

fn decode_cid_dict_region(cursor: &mut Cursor<'_>) -> Result<(usize, Range<usize>), SegmentError> {
    let len = cursor.varint()? as usize;
    if len as u64 > cursor.remaining() as u64 {
        return Err(corrupt("CID dictionary count exceeds remaining body"));
    }
    let start = cursor.position();
    for _ in 0..len {
        let entry_len = cursor.varint()? as usize;
        cursor.take(entry_len)?;
    }
    Ok((len, start..cursor.position()))
}

/// Decodes one 2-bit plane (either sub-mode) into packed bytes, validating
/// every entry code against `max_code` (2 for request types, 3 for flags).
fn decode_2bit_plane(
    cursor: &mut Cursor<'_>,
    count: usize,
    max_code: u8,
    out: &mut Vec<u8>,
) -> Result<(), SegmentError> {
    out.clear();
    out.reserve(count.div_ceil(4));
    match cursor.byte()? {
        PLANE_PACKED => {
            let bytes = cursor.take(count.div_ceil(4))?;
            if max_code < 3 && has_code_3(bytes, count) {
                return Err(corrupt("invalid request type code"));
            }
            out.extend_from_slice(bytes);
        }
        PLANE_RLE => {
            let mut current = 0u8;
            let mut filled = 0usize;
            let mut total = 0usize;
            while total < count {
                let token = cursor.varint()?;
                let run = (token >> 2) as usize;
                let value = (token & 0b11) as u8;
                if run == 0 {
                    return Err(corrupt("zero-length RLE run"));
                }
                if run > count - total {
                    return Err(corrupt("RLE run past entry count"));
                }
                if value > max_code {
                    return Err(corrupt("invalid request type code"));
                }
                total += run;
                let mut left = run;
                // Fill the partial byte, then whole bytes, then the tail.
                while left > 0 && filled != 0 {
                    current |= value << (filled * 2);
                    filled = (filled + 1) % 4;
                    if filled == 0 {
                        out.push(current);
                        current = 0;
                    }
                    left -= 1;
                }
                let whole = value * 0b0101_0101;
                while left >= 4 {
                    out.push(whole);
                    left -= 4;
                }
                while left > 0 {
                    current |= value << (filled * 2);
                    filled += 1;
                    left -= 1;
                }
            }
            if filled > 0 {
                out.push(current);
            }
        }
        _ => return Err(corrupt("unknown 2-bit plane sub-mode")),
    }
    Ok(())
}

/// Decodes a columnar body (after the mode byte) directly into the caller's
/// scratch columns — the production read path. Returns where the verbatim
/// dictionary regions live so the chunk view can borrow them straight out
/// of the frame.
pub(crate) fn decode_columns(
    body: &[u8],
    timestamps: &mut Vec<u64>,
    peer_indexes: &mut Vec<usize>,
    addr_indexes: &mut Vec<usize>,
    cid_indexes: &mut Vec<usize>,
    type_plane: &mut Vec<u8>,
    flag_plane: &mut Vec<u8>,
) -> Result<ColumnLayout, SegmentError> {
    let mut cursor = Cursor::new(body);
    let monitor = cursor.varint()? as usize;
    let count = cursor.varint()? as usize;
    if count == 0 {
        return Err(corrupt("empty columnar chunk"));
    }
    // Each 64-delta miniblock costs at least two body bytes, so a genuine
    // body holds at least count/32 more bytes — a crafted count fails here
    // instead of driving the column allocations below.
    if count.div_ceil(32) as u64 > cursor.remaining() as u64 {
        return Err(corrupt("entry count exceeds body size"));
    }

    timestamps.reserve(count.min(1 << 20));
    let base = cursor.varint()?;
    timestamps.push(base);
    let mut previous = base as i64;
    let mut remaining = count - 1;
    while remaining > 0 {
        let block = remaining.min(MINIBLOCK);
        let min = unzigzag(cursor.varint()?);
        let width = cursor.byte()? as u32;
        if width > 64 {
            return Err(corrupt("bit width over 64"));
        }
        let bytes =
            cursor.take(packed_len(block, width).expect("miniblock bit length fits usize"))?;
        for offset in unpack_bits(bytes, block, width) {
            previous = min
                .checked_add_unsigned(offset)
                .and_then(|delta| previous.checked_add(delta))
                .ok_or_else(|| corrupt("timestamp delta overflow"))?;
            if previous < 0 {
                return Err(corrupt("negative timestamp"));
            }
            timestamps.push(previous as u64);
        }
        remaining -= block;
    }

    let (_, peer_dict) = decode_dict_region(&mut cursor, 32)?;
    read_packed_indexes(&mut cursor, count, peer_dict.len() / 32, peer_indexes)?;
    let (addr_len, addr_dict) = decode_dict_region(&mut cursor, MULTIADDR_LEN)?;
    match cursor.byte()? {
        ADDR_PEER_INDEXES => {
            let max = peer_indexes.iter().copied().max().unwrap_or(0);
            if max >= addr_len {
                return Err(SegmentError::Corrupt(format!(
                    "col body: dictionary index {max} out of range (dictionary holds {addr_len})"
                )));
            }
            addr_indexes.extend_from_slice(peer_indexes);
        }
        ADDR_OWN_INDEXES => {
            read_packed_indexes(&mut cursor, count, addr_len, addr_indexes)?;
        }
        _ => return Err(corrupt("unknown address column sub-mode")),
    }
    let (cid_dict_len, cid_dict) = decode_cid_dict_region(&mut cursor)?;
    read_packed_indexes(&mut cursor, count, cid_dict_len, cid_indexes)?;
    decode_2bit_plane(&mut cursor, count, 2, type_plane)?;
    decode_2bit_plane(&mut cursor, count, 3, flag_plane)?;
    if !cursor.is_at_end() {
        return Err(corrupt("trailing bytes after columns"));
    }
    Ok(ColumnLayout {
        monitor,
        count,
        peer_dict,
        addr_dict,
        cid_dict,
        cid_dict_len,
    })
}

// ---------------------------------------------------------------------------
// Trait-level decode: reconstruct the raw planes
// ---------------------------------------------------------------------------

/// Rebuilds the raw column planes from a columnar body — the bijectivity
/// path ([`ChunkCodec::decode`]); production reads use [`decode_columns`].
fn reconstruct_planes(body: &[u8], out: &mut Vec<u8>) -> Result<(), SegmentError> {
    let ceiling = |out: &Vec<u8>| {
        if out.len() > MAX_DECODED_LEN {
            Err(corrupt("reconstructed planes exceed chunk ceiling"))
        } else {
            Ok(())
        }
    };
    let mut cursor = Cursor::new(body);
    let monitor = cursor.varint()?;
    let count = cursor.varint()? as usize;
    if count == 0 {
        return Err(corrupt("empty columnar chunk"));
    }
    if count.div_ceil(32) as u64 > cursor.remaining() as u64 {
        return Err(corrupt("entry count exceeds body size"));
    }
    varint::encode(monitor, out);
    varint::encode(count as u64, out);
    let base = cursor.varint()?;
    varint::encode(base, out);

    let mut remaining = count - 1;
    while remaining > 0 {
        let block = remaining.min(MINIBLOCK);
        let min = unzigzag(cursor.varint()?);
        let width = cursor.byte()? as u32;
        if width > 64 {
            return Err(corrupt("bit width over 64"));
        }
        let bytes =
            cursor.take(packed_len(block, width).expect("miniblock bit length fits usize"))?;
        for offset in unpack_bits(bytes, block, width) {
            let delta = min
                .checked_add_unsigned(offset)
                .ok_or_else(|| corrupt("timestamp delta overflow"))?;
            varint::encode(zigzag(delta), out);
        }
        remaining -= block;
        ceiling(out)?;
    }

    // Re-emits one dictionary column: header + verbatim dictionary bytes +
    // varint indexes. Leaves the decoded indexes in `indexes` (the address
    // column may reference the peer ones).
    fn emit_dict_column(
        body: &[u8],
        count: usize,
        cursor: &mut Cursor<'_>,
        out: &mut Vec<u8>,
        len: usize,
        region: Range<usize>,
        indexes: &mut Vec<usize>,
    ) -> Result<(), SegmentError> {
        varint::encode(len as u64, out);
        out.extend_from_slice(&body[region]);
        indexes.clear();
        read_packed_indexes(cursor, count, len, indexes)?;
        for &index in indexes.iter() {
            varint::encode(index as u64, out);
        }
        Ok(())
    }

    let mut indexes = Vec::new();
    let (peer_len, peer_region) = decode_dict_region(&mut cursor, 32)?;
    emit_dict_column(
        body,
        count,
        &mut cursor,
        out,
        peer_len,
        peer_region,
        &mut indexes,
    )?;
    ceiling(out)?;

    let (addr_len, addr_region) = decode_dict_region(&mut cursor, MULTIADDR_LEN)?;
    varint::encode(addr_len as u64, out);
    out.extend_from_slice(&body[addr_region]);
    match cursor.byte()? {
        ADDR_PEER_INDEXES => {
            // `indexes` still holds the peer index column.
            let max = indexes.iter().copied().max().unwrap_or(0);
            if max >= addr_len {
                return Err(SegmentError::Corrupt(format!(
                    "col body: dictionary index {max} out of range (dictionary holds {addr_len})"
                )));
            }
            for &index in indexes.iter() {
                varint::encode(index as u64, out);
            }
        }
        ADDR_OWN_INDEXES => {
            indexes.clear();
            read_packed_indexes(&mut cursor, count, addr_len, &mut indexes)?;
            for &index in indexes.iter() {
                varint::encode(index as u64, out);
            }
        }
        _ => return Err(corrupt("unknown address column sub-mode")),
    }
    ceiling(out)?;

    let (cid_len, cid_region) = decode_cid_dict_region(&mut cursor)?;
    emit_dict_column(
        body,
        count,
        &mut cursor,
        out,
        cid_len,
        cid_region,
        &mut indexes,
    )?;
    ceiling(out)?;

    let mut plane = Vec::new();
    decode_2bit_plane(&mut cursor, count, 2, &mut plane)?;
    out.extend_from_slice(&plane);
    decode_2bit_plane(&mut cursor, count, 3, &mut plane)?;
    out.extend_from_slice(&plane);
    if !cursor.is_at_end() {
        return Err(corrupt("trailing bytes after columns"));
    }
    ceiling(out)
}

impl ChunkCodec for ColCodec {
    fn id(&self) -> Codec {
        Codec::Col
    }

    fn encode(&self, raw: &[u8], out: &mut Vec<u8>) {
        match parse_raw_planes(raw) {
            Some(planes) => {
                let start = out.len();
                encode_columnar(&planes, out);
                // Columnar packing removes per-value redundancy; an LZ pass
                // on top removes cross-value repetition (cyclic index
                // patterns, constant-step timestamps across miniblocks).
                // Keep whichever is strictly smaller — decoders dispatch on
                // the mode byte.
                let mut lz = Vec::with_capacity(out.len() - start);
                lz.push(MODE_COLUMNAR_LZ);
                crate::codec::LzCodec.encode(&out[start + 1..], &mut lz);
                if lz.len() < out.len() - start {
                    out.truncate(start);
                    out.extend_from_slice(&lz);
                }
            }
            None => {
                out.push(MODE_VERBATIM);
                out.extend_from_slice(raw);
            }
        }
    }

    fn decode<'a>(&self, body: &'a [u8]) -> Result<Cow<'a, [u8]>, SegmentError> {
        if let Some((&MODE_VERBATIM, rest)) = body.split_first() {
            return Ok(Cow::Borrowed(rest));
        }
        let mut out = Vec::new();
        self.decode_into(body, &mut out)?;
        Ok(Cow::Owned(out))
    }

    fn decode_into(&self, body: &[u8], out: &mut Vec<u8>) -> Result<(), SegmentError> {
        out.clear();
        match body.split_first() {
            Some((&MODE_VERBATIM, rest)) => {
                out.extend_from_slice(rest);
                Ok(())
            }
            Some((&MODE_COLUMNAR, rest)) => reconstruct_planes(rest, out),
            Some((&MODE_COLUMNAR_LZ, rest)) => {
                let mut columnar = Vec::new();
                crate::codec::LzCodec.decode_into(rest, &mut columnar)?;
                reconstruct_planes(&columnar, out)
            }
            Some(_) => Err(corrupt("unknown mode byte")),
            None => Err(corrupt("empty body")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(planes: &[u8]) -> Vec<u8> {
        let mut encoded = Vec::new();
        ColCodec.encode(planes, &mut encoded);
        let decoded = ColCodec.decode(&encoded).unwrap();
        assert_eq!(decoded.as_ref(), planes, "col round-trip mismatch");
        encoded
    }

    /// Builds canonical raw planes from explicit columns.
    #[allow(clippy::too_many_arguments)]
    fn build_planes(
        monitor: u64,
        timestamps: &[u64],
        peer_dict: usize,
        peer_indexes: &[u64],
        addr_dict: usize,
        addr_indexes: &[u64],
        cid_dict: usize,
        cid_indexes: &[u64],
        types: &[u8],
        flags: &[u8],
    ) -> Vec<u8> {
        let count = timestamps.len();
        assert!(count > 0);
        let mut out = Vec::new();
        varint::encode(monitor, &mut out);
        varint::encode(count as u64, &mut out);
        varint::encode(timestamps[0], &mut out);
        for window in timestamps.windows(2) {
            varint::encode(zigzag(window[1] as i64 - window[0] as i64), &mut out);
        }
        varint::encode(peer_dict as u64, &mut out);
        for i in 0..peer_dict {
            out.extend_from_slice(&[i as u8; 32]);
        }
        for &index in peer_indexes {
            varint::encode(index, &mut out);
        }
        varint::encode(addr_dict as u64, &mut out);
        for i in 0..addr_dict {
            // ip, port, transport 0 (tcp), country 0 — all decodable.
            out.extend_from_slice(&(i as u32).to_be_bytes());
            out.extend_from_slice(&(4001u16).to_be_bytes());
            out.push(0);
            out.push(0);
        }
        for &index in addr_indexes {
            varint::encode(index, &mut out);
        }
        varint::encode(cid_dict as u64, &mut out);
        for i in 0..cid_dict {
            let bytes = vec![i as u8; 4];
            varint::encode(bytes.len() as u64, &mut out);
            out.extend_from_slice(&bytes);
        }
        for &index in cid_indexes {
            varint::encode(index, &mut out);
        }
        let pack2 = |values: &[u8], out: &mut Vec<u8>| {
            let mut current = 0u8;
            let mut filled = 0;
            for &v in values {
                current |= (v & 0b11) << (filled * 2);
                filled += 1;
                if filled == 4 {
                    out.push(current);
                    current = 0;
                    filled = 0;
                }
            }
            if filled > 0 {
                out.push(current);
            }
        };
        pack2(types, &mut out);
        pack2(flags, &mut out);
        out
    }

    fn uniform_planes(count: usize, dicts: usize) -> Vec<u8> {
        let timestamps: Vec<u64> = (0..count as u64).map(|i| 1_000 + i * 37).collect();
        let indexes: Vec<u64> = (0..count as u64).map(|i| i % dicts as u64).collect();
        let types: Vec<u8> = (0..count).map(|i| (i % 3) as u8).collect();
        let flags = vec![0u8; count];
        build_planes(
            3,
            &timestamps,
            dicts,
            &indexes,
            dicts,
            &indexes,
            dicts,
            &indexes,
            &types,
            &flags,
        )
    }

    #[test]
    fn columnar_roundtrips_typical_planes() {
        for count in [1usize, 3, 63, 64, 65, 200, 1000] {
            for dicts in [1usize, 2, 7, 129] {
                if dicts > count {
                    continue;
                }
                let planes = uniform_planes(count, dicts);
                let encoded = roundtrip(&planes);
                // Periodic `i % dicts` columns may favor the LZ'd columnar
                // form; either way the planes must have parsed as columns.
                assert_ne!(encoded[0], MODE_VERBATIM, "count={count} dicts={dicts}");
            }
        }
    }

    #[test]
    fn columnar_beats_verbatim_on_typical_planes() {
        let planes = uniform_planes(1000, 7);
        let mut encoded = Vec::new();
        ColCodec.encode(&planes, &mut encoded);
        assert!(
            encoded.len() < planes.len() / 2,
            "columnar form barely smaller: {} -> {}",
            planes.len(),
            encoded.len()
        );
    }

    #[test]
    fn single_value_dictionary_costs_zero_index_bits() {
        let timestamps: Vec<u64> = (0..256u64).map(|i| 1_000 + i * 37).collect();
        let indexes = vec![0u64; 256];
        let constant = vec![0u8; 256];
        let small = build_planes(
            3,
            &timestamps,
            1,
            &indexes,
            1,
            &indexes,
            1,
            &indexes,
            &constant,
            &constant,
        );
        let mut encoded = Vec::new();
        ColCodec.encode(&small, &mut encoded);
        assert_ne!(encoded[0], MODE_VERBATIM);
        // 256 constant-step timestamps collapse to one width-0 miniblock per
        // 64 deltas and the three index columns to zero bytes; everything
        // left is the dictionaries plus a fixed few bytes of headers.
        assert!(
            encoded.len() < 32 + MULTIADDR_LEN + 5 + 64,
            "single-value-dict chunk too large: {} bytes",
            encoded.len()
        );
        roundtrip(&small);
    }

    #[test]
    fn adversarial_columns_roundtrip() {
        // Max-width indexes: dictionary sizes straddling power-of-two edges.
        for dicts in [2usize, 3, 4, 5, 8, 9, 16, 17, 255, 256, 257] {
            let planes = uniform_planes(dicts, dicts);
            roundtrip(&planes);
        }
        // Non-monotonic and duplicate timestamps.
        let timestamps = [5_000u64, 5_000, 4_000, 9_999_999, 0, 0, 1];
        let idx = [0u64, 0, 0, 0, 0, 0, 0];
        let types = [2u8, 2, 2, 2, 2, 2, 2];
        let flags = [3u8, 3, 3, 3, 3, 3, 3];
        let planes = build_planes(0, &timestamps, 1, &idx, 1, &idx, 1, &idx, &types, &flags);
        let encoded = roundtrip(&planes);
        assert_ne!(encoded[0], MODE_VERBATIM);
        // All-one-flag plane: a single RLE run.
        let count = 500;
        let ts: Vec<u64> = (0..count as u64).collect();
        let idx: Vec<u64> = vec![0; count];
        let ones = vec![1u8; count];
        let zeros = vec![0u8; count];
        roundtrip(&build_planes(
            1, &ts, 1, &idx, 1, &idx, 1, &idx, &zeros, &ones,
        ));
    }

    #[test]
    fn non_plane_input_falls_back_to_verbatim() {
        for junk in [
            &b""[..],
            &b"\x00"[..],
            &b"not column planes at all"[..],
            &[0xffu8; 64][..],
        ] {
            let mut encoded = Vec::new();
            ColCodec.encode(junk, &mut encoded);
            assert_eq!(encoded[0], MODE_VERBATIM);
            assert_eq!(ColCodec.decode(&encoded).unwrap().as_ref(), junk);
        }
    }

    #[test]
    fn empty_dictionary_planes_fall_back_to_verbatim() {
        // count = 0 planes (no indexes, empty dicts) are not representable
        // columnar — they must still round-trip, via mode 1.
        let mut planes = Vec::new();
        varint::encode(0, &mut planes); // monitor
        varint::encode(0, &mut planes); // count — writers never emit this
        let mut encoded = Vec::new();
        ColCodec.encode(&planes, &mut encoded);
        assert_eq!(encoded[0], MODE_VERBATIM);
        assert_eq!(ColCodec.decode(&encoded).unwrap().as_ref(), &planes[..]);
    }

    #[test]
    fn nonzero_padding_bits_fall_back_to_verbatim() {
        let mut planes = uniform_planes(3, 1);
        let last = planes.len() - 1;
        planes[last] |= 0b1100_0000; // fourth slot of a 3-entry flag plane
        let mut encoded = Vec::new();
        ColCodec.encode(&planes, &mut encoded);
        assert_eq!(encoded[0], MODE_VERBATIM);
        assert_eq!(ColCodec.decode(&encoded).unwrap().as_ref(), &planes[..]);
    }

    #[test]
    fn truncated_bodies_error_never_panic() {
        let planes = uniform_planes(300, 7);
        let mut encoded = Vec::new();
        ColCodec.encode(&planes, &mut encoded);
        for cut in 0..encoded.len() {
            match ColCodec.decode(&encoded[..cut]) {
                Ok(out) => assert_ne!(out.as_ref(), &planes[..]),
                Err(SegmentError::Corrupt(_)) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
    }

    #[test]
    fn out_of_range_dictionary_index_is_corrupt() {
        // Hand-build a columnar body: 2 entries, peer dict of 2 (width 1),
        // with a doctored index bit stream — width 1 can only express 0/1,
        // both in range, so corrupt the dict length to 3 (width 2) instead
        // and pack index value 3.
        let mut body = vec![MODE_COLUMNAR];
        varint::encode(0, &mut body); // monitor
        varint::encode(2, &mut body); // count
        varint::encode(100, &mut body); // base
        varint::encode(zigzag(1), &mut body); // miniblock min
        body.push(0); // width 0
        varint::encode(3, &mut body); // peer dict len 3 -> width 2
        body.extend_from_slice(&[0u8; 96]);
        body.push(0b0011); // indexes [3, 0] — 3 out of range
        let err = ColCodec.decode(&body).unwrap_err();
        match err {
            SegmentError::Corrupt(what) => assert!(what.contains("out of range"), "{what}"),
            other => panic!("unexpected error kind: {other}"),
        }
    }

    #[test]
    fn rle_run_past_entry_count_is_corrupt() {
        let planes = uniform_planes(8, 1);
        // Force the plain columnar form: the encoder may prefer the LZ'd
        // one, but decoders accept both and this test doctors mode-0 bytes.
        let parsed = parse_raw_planes(&planes).expect("canonical planes");
        let mut encoded = Vec::new();
        encode_columnar(&parsed, &mut encoded);
        assert_eq!(encoded[0], MODE_COLUMNAR);
        // The flag plane is the tail: a single RLE token (run 8, value 0).
        // Inflate the run length.
        let last = encoded.len() - 1;
        assert_eq!(encoded[last], 8 << 2);
        encoded[last] = 9 << 2;
        let err = ColCodec.decode(&encoded).unwrap_err();
        match err {
            SegmentError::Corrupt(what) => assert!(what.contains("RLE run"), "{what}"),
            other => panic!("unexpected error kind: {other}"),
        }
    }

    #[test]
    fn bit_pack_roundtrips_all_widths() {
        for width in 0..=64u32 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..130u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask)
                .collect();
            // Every count up to 130 ends the run at a different bit offset,
            // so the zero-filled tail loads are covered at every width.
            for count in 0..=values.len() {
                let mut packed = Vec::new();
                pack_bits(&values[..count], width, &mut packed);
                assert_eq!(packed.len(), packed_len(count, width).unwrap());
                let unpacked: Vec<u64> = unpack_bits(&packed, count, width).collect();
                assert_eq!(unpacked, values[..count], "width {width}, count {count}");
            }
        }
    }
}
