//! Delta-varint codec for sorted adjacency rows.
//!
//! Deduplicating builds guarantee strictly ascending neighbor ids within
//! every CSR row ([`crate::Graph::has_sorted_rows`]), which makes rows
//! gap-encodable: the first neighbor is stored absolute, every later one as
//! the difference to its predecessor. Gaps on power-law graphs are small —
//! most fit one byte — so LEB128 (7 data bits per byte, high bit =
//! continuation) typically shrinks the 4-byte neighbor slots by 2–4×.
//!
//! Two decoders share the format. [`RowDecoder`] is a streaming iterator:
//! a row is never materialized, each `next()` reads one varint and adds it
//! to the running value; the length comes from the slot-offset array
//! (degrees are not stored in the byte stream), so it is an
//! [`ExactSizeIterator`] like the plain slice path. [`decode_row_into`] is
//! the engine's hot path: it materializes a whole row into a reusable
//! scratch `Vec` and uses the guard-padding contract ([`WORD_GUARD`],
//! [`padded_payload_len`]) to run with no per-byte bounds checks.

/// Maximum encoded size of one `u32` varint (⌈32/7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 5;

/// Guard bytes required past a row's logical end before
/// [`decode_row_into`] may batch-decode it: the unchecked decode loop may
/// read up to [`MAX_VARINT_LEN`] bytes from any in-row position without
/// re-checking bounds, so the final varint's speculative reads can reach
/// past the payload. One full word of zero padding covers that and keeps
/// sections word-aligned.
pub const WORD_GUARD: usize = 8;

/// Padded length of a varint payload section under the word-aligned
/// layout (store format v3 and the in-memory compressed builder): the
/// logical length plus at least [`WORD_GUARD`] zero bytes, rounded up to a
/// word multiple. Padding bytes are always zero.
#[inline]
pub fn padded_payload_len(logical: usize) -> usize {
    (logical + WORD_GUARD).div_ceil(WORD_GUARD) * WORD_GUARD
}

/// Batch-decode one delta-varint row into `out`, replacing its contents
/// with the `len` absolute neighbor ids of the row at
/// `data[start..end]`.
///
/// The caller must guarantee [`WORD_GUARD`] readable bytes past `end`
/// (asserted). That guard is what makes this the hot path: the decode
/// loop reads up to [`MAX_VARINT_LEN`] bytes per gap with no slice bounds
/// checks, and each byte's address depends only on the branch-predicted
/// lengths of earlier gaps, so the loads never serialize. On every
/// encoder-produced payload the output is identical to draining
/// [`RowDecoder`]; on corrupt input it stays deterministic and in bounds
/// (truncated rows saturate with the running value, overlong varints are
/// masked to the bits that fit a `u32`) but may differ from the checked
/// decoders, which is fine — corruption is [`decode_row_checked`]'s job.
#[inline]
pub fn decode_row_into(data: &[u8], start: usize, end: usize, len: usize, out: &mut Vec<u32>) {
    assert!(
        end + WORD_GUARD <= data.len() && start <= end,
        "decode_row_into requires {WORD_GUARD} guard bytes past the row"
    );
    out.clear();
    if len == 0 {
        return;
    }
    out.reserve(len);
    let dst = out.as_mut_ptr();
    let base = data.as_ptr();
    let mut produced = 0usize;
    let mut pos = start;
    let mut value: u32 = 0;
    while produced < len {
        if pos >= end {
            // Truncated row: saturate remaining slots with the last prefix
            // sum, matching `RowDecoder`'s zero-gap semantics.
            for i in produced..len {
                // SAFETY: i < len <= reserved capacity.
                unsafe { dst.add(i).write(value) };
            }
            produced = len;
            break;
        }
        // SAFETY: pos < end and end + WORD_GUARD <= data.len() (entry
        // assert), so pos + MAX_VARINT_LEN stays in bounds — the guard
        // lets the decode run with no per-byte bounds checks. A varint
        // that overruns `end` (corrupt input only; a valid row's varints
        // all terminate before `end`) reads guard bytes, which the v3
        // layout zero-fills, so the result stays deterministic.
        let gap = unsafe {
            let b0 = *base.add(pos) as u32;
            if b0 < 0x80 {
                pos += 1;
                b0
            } else {
                let b1 = *base.add(pos + 1) as u32;
                if b1 < 0x80 {
                    pos += 2;
                    (b0 & 0x7F) | (b1 << 7)
                } else {
                    let b2 = *base.add(pos + 2) as u32;
                    if b2 < 0x80 {
                        pos += 3;
                        (b0 & 0x7F) | ((b1 & 0x7F) << 7) | (b2 << 14)
                    } else {
                        let b3 = *base.add(pos + 3) as u32;
                        if b3 < 0x80 {
                            pos += 4;
                            (b0 & 0x7F) | ((b1 & 0x7F) << 7) | ((b2 & 0x7F) << 14) | (b3 << 21)
                        } else {
                            let b4 = *base.add(pos + 4) as u32;
                            pos += 5;
                            (b0 & 0x7F)
                                | ((b1 & 0x7F) << 7)
                                | ((b2 & 0x7F) << 14)
                                | ((b3 & 0x7F) << 21)
                                | ((b4 & 0x0F) << 28)
                        }
                    }
                }
            }
        };
        value = value.wrapping_add(gap);
        // SAFETY: produced < len <= reserved capacity.
        unsafe { dst.add(produced).write(value) };
        produced += 1;
    }
    debug_assert_eq!(produced, len);
    // SAFETY: exactly `len` elements were written at 0..len above.
    unsafe { out.set_len(len) };
}

/// Append the LEB128 encoding of `x` to `out`.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut x: u32) {
    while x >= 0x80 {
        out.push((x as u8 & 0x7F) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Read one LEB128 varint from `bytes[*pos..]`, advancing `pos`. Returns
/// `None` on truncated input or an encoding longer than
/// [`MAX_VARINT_LEN`] (which would overflow `u32`).
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut x: u32 = 0;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 28 && b > 0x0F {
            return None; // fifth byte may only carry the top 4 bits
        }
        x |= ((b & 0x7F) as u32) << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift >= 32 {
            return None;
        }
    }
}

/// Append the delta-varint encoding of one sorted row to `out`: the first
/// neighbor absolute, each later neighbor as the gap to its predecessor.
/// Rows must be non-decreasing (strictly ascending for dedup builds);
/// callers gate on [`crate::Graph::has_sorted_rows`].
pub fn encode_row(row: impl IntoIterator<Item = u32>, out: &mut Vec<u8>) {
    let mut prev: Option<u32> = None;
    for v in row {
        match prev {
            None => write_varint(out, v),
            Some(p) => {
                debug_assert!(v >= p, "delta-varint rows must be non-decreasing");
                write_varint(out, v.wrapping_sub(p));
            }
        }
        prev = Some(v);
    }
}

/// Streaming decoder over one encoded row. Yields exactly `len` neighbor
/// ids; the length is supplied by the caller (from the slot-offset array),
/// never read from the byte stream.
///
/// Decoding is infallible by construction on encoder output; on corrupt
/// bytes the iterator saturates (truncated varints decode as whatever the
/// remaining bits give, missing bytes as 0) — integrity is the job of
/// [`decode_row_checked`] and the store's checksums, not the hot loop.
#[derive(Debug, Clone)]
pub struct RowDecoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    value: u32,
    first: bool,
}

impl<'a> RowDecoder<'a> {
    /// Decoder over `bytes`, yielding `len` ids.
    #[inline]
    pub fn new(bytes: &'a [u8], len: usize) -> RowDecoder<'a> {
        RowDecoder {
            bytes,
            pos: 0,
            remaining: len,
            value: 0,
            first: true,
        }
    }
}

impl Iterator for RowDecoder<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let delta = read_varint(self.bytes, &mut self.pos).unwrap_or(0);
        if self.first {
            self.first = false;
            self.value = delta;
        } else {
            self.value = self.value.wrapping_add(delta);
        }
        Some(self.value)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowDecoder<'_> {}

/// Strictly validate one encoded row: every varint must be well-formed,
/// exactly `bytes` must be consumed, the decoded ids must be monotone
/// non-decreasing (strictly ascending after the first when `strict`), and
/// each id must be `< num_vertices`. Used by [`crate::Graph::validate`] and
/// the store's deep verify pass.
pub fn decode_row_checked(
    bytes: &[u8],
    len: usize,
    num_vertices: usize,
    strict: bool,
) -> Result<(), String> {
    let mut pos = 0usize;
    let mut value: u32 = 0;
    for i in 0..len {
        let Some(delta) = read_varint(bytes, &mut pos) else {
            return Err(format!("truncated or overlong varint at slot {i}"));
        };
        if i == 0 {
            value = delta;
        } else {
            if strict && delta == 0 {
                return Err(format!("zero gap at slot {i} (row not strictly ascending)"));
            }
            value = value
                .checked_add(delta)
                .ok_or_else(|| format!("gap at slot {i} overflows u32"))?;
        }
        if value as usize >= num_vertices {
            return Err(format!("neighbor {value} at slot {i} out of range"));
        }
    }
    if pos != bytes.len() {
        return Err(format!(
            "row has {} trailing bytes after {len} slots",
            bytes.len() - pos
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(row: &[u32]) -> Vec<u32> {
        let mut buf = Vec::new();
        encode_row(row.iter().copied(), &mut buf);
        RowDecoder::new(&buf, row.len()).collect()
    }

    #[test]
    fn empty_row_encodes_to_nothing() {
        let mut buf = Vec::new();
        encode_row(std::iter::empty(), &mut buf);
        assert!(buf.is_empty());
        assert_eq!(RowDecoder::new(&buf, 0).count(), 0);
    }

    #[test]
    fn single_neighbor_rows() {
        for v in [0u32, 1, 127, 128, 1 << 20, u32::MAX] {
            assert_eq!(round_trip(&[v]), vec![v]);
        }
    }

    #[test]
    fn max_delta_round_trips() {
        // A first id of 0 followed by u32::MAX exercises the largest
        // possible gap (and the 5-byte varint encoding).
        assert_eq!(round_trip(&[0, u32::MAX]), vec![0, u32::MAX]);
        assert_eq!(round_trip(&[u32::MAX]), vec![u32::MAX]);
    }

    #[test]
    fn dense_row_uses_one_byte_per_gap() {
        let row: Vec<u32> = (100..200).collect();
        let mut buf = Vec::new();
        encode_row(row.iter().copied(), &mut buf);
        // 1 byte absolute + 99 single-byte gaps.
        assert_eq!(buf.len(), 100);
        assert_eq!(round_trip(&row), row);
    }

    #[test]
    fn decoder_is_exact_size() {
        let row: Vec<u32> = vec![3, 10, 11, 500_000];
        let mut buf = Vec::new();
        encode_row(row.iter().copied(), &mut buf);
        let mut d = RowDecoder::new(&buf, row.len());
        assert_eq!(d.len(), 4);
        d.next();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn checked_decode_accepts_encoder_output() {
        let row: Vec<u32> = vec![0, 5, 6, 1000, 65_535];
        let mut buf = Vec::new();
        encode_row(row.iter().copied(), &mut buf);
        assert!(decode_row_checked(&buf, row.len(), 65_536, true).is_ok());
    }

    #[test]
    fn checked_decode_rejects_out_of_range() {
        let mut buf = Vec::new();
        encode_row([10u32, 20], &mut buf);
        assert!(decode_row_checked(&buf, 2, 21, true).is_ok());
        assert!(decode_row_checked(&buf, 2, 20, true).is_err());
    }

    #[test]
    fn checked_decode_rejects_truncation_and_trailing_bytes() {
        let mut buf = Vec::new();
        encode_row([300u32, 600], &mut buf);
        assert!(decode_row_checked(&buf[..buf.len() - 1], 2, 1000, true).is_err());
        let mut extended = buf.clone();
        extended.push(0);
        assert!(decode_row_checked(&extended, 2, 1000, true).is_err());
    }

    #[test]
    fn checked_decode_rejects_zero_gap_when_strict() {
        let mut buf = Vec::new();
        encode_row([7u32, 7], &mut buf);
        assert!(decode_row_checked(&buf, 2, 10, true).is_err());
        assert!(decode_row_checked(&buf, 2, 10, false).is_ok());
    }

    #[test]
    fn checked_decode_rejects_overlong_varint() {
        // Six continuation bytes can never be a valid u32 varint.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert!(decode_row_checked(&bytes, 1, usize::MAX, true).is_err());
    }

    /// Encode `row`, pad with guard bytes, batch-decode.
    fn batch_round_trip(row: &[u32]) -> Vec<u32> {
        let mut buf = Vec::new();
        encode_row(row.iter().copied(), &mut buf);
        let end = buf.len();
        buf.resize(padded_payload_len(end), 0);
        let mut out = Vec::new();
        decode_row_into(&buf, 0, end, row.len(), &mut out);
        out
    }

    #[test]
    fn batch_decode_matches_scalar_on_representative_rows() {
        let rows: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![0, u32::MAX],
            (100..200).collect(),                     // pure 1-byte gaps
            (0..64).map(|i| i * 200).collect(),       // pure 2-byte gaps
            (0..16).map(|i| i * 300_000).collect(),   // 3-byte gaps
            (0..9).map(|i| i * 40_000_000).collect(), // 4-byte gaps
            vec![5, 6, 7, 1_000_000, 1_000_001, 4_000_000_000], // mixed widths
            (0..7).collect(),                         // shorter than a word
            (0..8).collect(),                         // exactly one word batch
            (0..11).collect(),                        // word batch + tail
        ];
        for row in rows {
            assert_eq!(batch_round_trip(&row), row, "row {row:?}");
        }
    }

    #[test]
    fn batch_decode_handles_rows_ending_at_word_boundaries() {
        // Rows whose encoded length is an exact word multiple, so the last
        // load's tail is entirely guard bytes.
        for len in [8usize, 16, 24, 64] {
            let row: Vec<u32> = (7..7 + len as u32).collect(); // 1 byte per id
            let mut buf = Vec::new();
            encode_row(row.iter().copied(), &mut buf);
            assert_eq!(buf.len(), len);
            assert_eq!(batch_round_trip(&row), row);
        }
    }

    #[test]
    fn batch_decode_works_mid_payload() {
        // Two concatenated rows: decoding the second uses nonzero start.
        let (a, b): (Vec<u32>, Vec<u32>) = ((0..10).collect(), (5..25).map(|i| i * 3).collect());
        let mut buf = Vec::new();
        encode_row(a.iter().copied(), &mut buf);
        let split = buf.len();
        encode_row(b.iter().copied(), &mut buf);
        let end = buf.len();
        buf.resize(padded_payload_len(end), 0);
        let mut out = Vec::new();
        decode_row_into(&buf, split, end, b.len(), &mut out);
        assert_eq!(out, b);
        decode_row_into(&buf, 0, split, a.len(), &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn batch_decode_saturates_on_truncated_rows_without_overrun() {
        // A row claiming 5 ids but holding only 2: the batch decoder must
        // stay in bounds and fill deterministically, like RowDecoder.
        let mut buf = Vec::new();
        encode_row([3u32, 9], &mut buf);
        let end = buf.len();
        buf.resize(padded_payload_len(end), 0);
        let mut out = Vec::new();
        decode_row_into(&buf, 0, end, 5, &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(&out[..2], &[3, 9]);
    }

    #[test]
    fn padded_payload_len_always_leaves_a_full_guard() {
        for logical in 0..100usize {
            let padded = padded_payload_len(logical);
            assert!(padded >= logical + WORD_GUARD);
            assert_eq!(padded % WORD_GUARD, 0);
        }
        assert_eq!(padded_payload_len(0), 8);
        assert_eq!(padded_payload_len(8), 16);
        assert_eq!(padded_payload_len(9), 24);
    }

    #[test]
    fn checked_decode_rejects_u32_overflow() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u32::MAX);
        write_varint(&mut buf, 1);
        assert!(decode_row_checked(&buf, 2, usize::MAX, true).is_err());
    }
}
