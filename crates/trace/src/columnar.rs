//! Columnar compressed trace payload (CLTC container version 2).
//!
//! The payload splits the event sequence into fixed-size *blocks*. Each
//! block carries its own delta-encoded id column (delta base reset to `0`
//! per block) and a CRC-32 over that column, so any block decodes without
//! its predecessors and damage stays inside the block it hit:
//!
//! ```text
//! payload header   16 bytes, fixed width, little endian
//!   n_events       u64   total events across all blocks
//!   n_blocks       u32   directory entries
//!   flags          u32   0; readers reject any set bit
//! directory        n_blocks × 16 bytes, fixed width, little endian
//!   offset         u32   id column offset from payload start, 8-aligned
//!   count          u32   events in the block
//!   id_len         u32   byte length of the id column
//!   crc32          u32   IEEE CRC-32 of the id column
//! block data       at `offset`, one id column per block, zero padding between
//!   id column      count zigzag-varint deltas, first delta relative to 0
//! ```
//!
//! Properties this buys:
//!
//! * **Zero-copy iteration.** The header and directory are fixed-width
//!   little-endian fields, every block span starts 8-byte aligned (checked
//!   on parse), and [`ColumnarReader`] borrows the payload — a file can be
//!   mapped into memory and iterated block-by-block without copying or
//!   decoding anything it does not need.
//! * **Independent blocks.** Decoding lands straight in the flat
//!   `Vec<BlockId>` form the sharded analyzers and the cache simulator's
//!   replay path consume.
//! * **Block-granular salvage.** Each block's CRC localizes damage:
//!   [`decode_salvage`] keeps the longest clean block *prefix* (prefix, not
//!   subset — downstream analyses need a contiguous trace head) and
//!   reports exactly how many events were dropped, which is what
//!   [`crate::read_trace_repaired`] reports.
//!
//! The container framing (magic, version byte, payload length, whole-file
//! CRC) lives in [`crate::io`]. Encoders cap the payload at `u32` offsets
//! (4 GiB); traces near that size are sharded long before they hit the cap.

use crate::io::{unzigzag, write_varint, zigzag};
use crate::trace::BlockId;
use clop_util::{ClopError, ClopResult};

/// Events per block in every payload the writers emit.
/// 4096 one-byte deltas ≈ 4 KB spans: big enough to amortize the 16-byte
/// directory entry below 0.5%, small enough that salvage granularity and
/// the decode scratch stay fine-grained.
pub const DEFAULT_BLOCK_EVENTS: usize = 4096;

/// Payload header size (`n_events` + `n_blocks` + `flags`).
const HEADER_BYTES: usize = 16;

/// Directory entry size (`offset` + `count` + `id_len` + `crc32`).
const DIR_ENTRY_BYTES: usize = 16;

/// Block data alignment; every directory `offset` must be a multiple.
const ALIGN: usize = 8;

/// Encode `events` into a v2 payload of `block_events`-event blocks.
///
/// Fails only on caller errors: a zero block size, or a payload that would
/// overflow the format's `u32` offsets.
pub fn encode(events: &[BlockId], block_events: usize) -> ClopResult<Vec<u8>> {
    if block_events == 0 {
        return Err(ClopError::trace_format("columnar block size must be > 0"));
    }
    let n_blocks = events.len().div_ceil(block_events);

    let mut payload = Vec::new();
    payload.extend_from_slice(&(events.len() as u64).to_le_bytes());
    payload.extend_from_slice(&(n_blocks as u32).to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes()); // flags
    let dir_start = payload.len();
    // Directory placeholder; patched after the block spans are laid out.
    payload.resize(dir_start + n_blocks * DIR_ENTRY_BYTES, 0);

    for (b, chunk) in events.chunks(block_events).enumerate() {
        while payload.len() % ALIGN != 0 {
            payload.push(0);
        }
        let offset = payload.len();
        let mut prev = 0i64;
        for &e in chunk {
            let cur = e.0 as i64;
            // Writing to a Vec cannot fail.
            let _ = write_varint(&mut payload, zigzag(cur - prev));
            prev = cur;
        }
        let id_len = payload.len() - offset;
        let crc = clop_util::crc32(&payload[offset..]);
        if offset > u32::MAX as usize || id_len > u32::MAX as usize {
            return Err(ClopError::trace_format(
                "columnar payload exceeds the format's 4 GiB offset limit",
            ));
        }
        let entry = dir_start + b * DIR_ENTRY_BYTES;
        payload[entry..entry + 4].copy_from_slice(&(offset as u32).to_le_bytes());
        payload[entry + 4..entry + 8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        payload[entry + 8..entry + 12].copy_from_slice(&(id_len as u32).to_le_bytes());
        payload[entry + 12..entry + 16].copy_from_slice(&crc.to_le_bytes());
    }
    Ok(payload)
}

/// One block's borrowed id column: everything needed to verify and decode
/// it without touching the rest of the payload.
#[derive(Clone, Copy, Debug)]
pub struct BlockView<'a> {
    /// Events in this block.
    pub count: usize,
    /// The zigzag-varint id delta column (base 0).
    pub deltas: &'a [u8],
    /// Stored CRC-32 of `deltas`.
    crc: u32,
}

impl<'a> BlockView<'a> {
    /// True when the block's bytes match its directory CRC.
    pub fn verify(&self) -> bool {
        clop_util::crc32(self.deltas) == self.crc
    }

    /// Decode the id column, appending `count` ids to `out`. The append
    /// target is the flat structure-of-arrays form every replay consumer
    /// uses, so a multi-block decode is one growing `Vec`, no stitching.
    ///
    /// Never panics on hostile bytes: a truncated or overlong column, a
    /// varint running past 33 bits, or a delta leaving `u32` range all
    /// return structured errors. Allocation is bounded by the block's
    /// actual byte length (one event costs at least one byte).
    pub fn decode_ids_into(&self, out: &mut Vec<BlockId>) -> ClopResult<()> {
        let start = out.len();
        // `count <= bytes.len()` was checked when the view was built, so
        // this resize is bounded by bytes actually present (one event costs
        // at least one byte). Writing through a pre-sized slice instead of
        // `push` keeps the hot loop free of capacity checks; on error the
        // vector is cut back to exactly the events decoded so far, matching
        // the incremental-append semantics salvage relies on.
        out.resize(start + self.count, BlockId(0));
        match decode_id_column(self.deltas, self.count, &mut out[start..]) {
            Ok(()) => Ok(()),
            Err((done, e)) => {
                out.truncate(start + done);
                Err(e)
            }
        }
    }
}

/// The delta-column hot loop, three tiers by decreasing throughput:
///
/// 1. **Run tier**: one `u64` load covers the next 8 column bytes; if no
///    byte has its continuation bit set, those are 8 complete one-byte
///    varints (|delta| ≤ 63 — the overwhelming case in loop-dominated
///    code traces) and all 8 events decode from registers, deltas via a
///    256-entry unzigzag table.
/// 2. **Pair tier**: while a maximal (5-byte) varint is in bounds, one-
///    and two-byte deltas decode straight-line with no per-byte `get`.
/// 3. **Checked tier**: the last few bytes and any longer varint go
///    through the fully checked [`decode_varint_checked`].
///
/// `Err` carries how many events were written before the failure.
fn decode_id_column(
    bytes: &[u8],
    count: usize,
    out: &mut [BlockId],
) -> Result<(), (usize, ClopError)> {
    const CONTINUATION_BITS: u64 = 0x8080_8080_8080_8080;
    let mut pos = 0usize;
    let mut prev = 0i64;
    let mut i = 0usize;
    while i < count {
        while i + 8 <= count && pos + 8 <= bytes.len() {
            let w = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap_or([0; 8]));
            if w & CONTINUATION_BITS != 0 {
                break;
            }
            for k in 0..8 {
                let cur = prev + i64::from(UNZIGZAG_BYTE[((w >> (8 * k)) & 0xff) as usize]);
                if !(0..=u32::MAX as i64).contains(&cur) {
                    return Err((i + k, id_out_of_range(pos + k + 1, i + k)));
                }
                out[i + k] = BlockId(cur as u32);
                prev = cur;
            }
            pos += 8;
            i += 8;
        }
        // Decode a few events through the lower tiers before re-probing
        // for a run, so streams with no one-byte runs at all (wild jumps
        // everywhere) don't pay the probe on every event.
        let stop = (i + 4).min(count);
        while i < stop {
            let v = if pos + 5 <= bytes.len() {
                let b0 = u64::from(bytes[pos]);
                if b0 < 0x80 {
                    pos += 1;
                    b0
                } else {
                    let b1 = u64::from(bytes[pos + 1]);
                    if b1 < 0x80 {
                        pos += 2;
                        (b0 & 0x7f) | (b1 << 7)
                    } else {
                        match decode_varint_checked(bytes, &mut pos, count, i) {
                            Ok(v) => v,
                            Err(e) => return Err((i, e)),
                        }
                    }
                }
            } else {
                match decode_varint_checked(bytes, &mut pos, count, i) {
                    Ok(v) => v,
                    Err(e) => return Err((i, e)),
                }
            };
            let cur = prev + unzigzag(v);
            if !(0..=u32::MAX as i64).contains(&cur) {
                return Err((i, id_out_of_range(pos, i)));
            }
            out[i] = BlockId(cur as u32);
            prev = cur;
            i += 1;
        }
    }
    if pos != bytes.len() {
        return Err((
            count,
            ClopError::trace_decode(
                pos as u64,
                format!(
                    "columnar block: {} trailing bytes after {} events",
                    bytes.len() - pos,
                    count
                ),
            ),
        ));
    }
    Ok(())
}

/// Unzigzag of a one-byte varint value. Only indices `0..=127` are
/// reachable (a set continuation bit routes to the multi-byte tiers), and
/// those map to deltas in `[-64, 63]`, which fit `i8`.
const UNZIGZAG_BYTE: [i8; 256] = {
    let mut t = [0i8; 256];
    let mut v = 0usize;
    while v < 128 {
        t[v] = (((v >> 1) as i64) ^ -((v & 1) as i64)) as i8;
        v += 1;
    }
    t
};

fn id_out_of_range(pos: usize, event: usize) -> ClopError {
    ClopError::trace_decode(
        pos as u64,
        format!("columnar block: event {} id out of range", event),
    )
}

/// Fully bounds- and overflow-checked varint decode, used off the fast
/// path (near the end of the column, or for deltas longer than two bytes).
fn decode_varint_checked(
    bytes: &[u8],
    pos: &mut usize,
    count: usize,
    event: usize,
) -> ClopResult<u64> {
    let b = *bytes
        .get(*pos)
        .ok_or_else(|| truncated(count, event, *pos))?;
    *pos += 1;
    if b < 0x80 {
        return Ok(u64::from(b));
    }
    let mut v = u64::from(b & 0x7f);
    let mut shift = 7u32;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| truncated(count, event, *pos))?;
        *pos += 1;
        // Ids fit u32, so zigzag deltas fit 33 bits; anything longer is
        // corrupt, not merely large.
        if shift > 28 && b > 0x1f {
            return Err(ClopError::trace_decode(
                *pos as u64,
                format!("columnar block: varint overflow at event {}", event),
            ));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    Ok(v)
}

fn truncated(count: usize, event: usize, pos: usize) -> ClopError {
    ClopError::trace_decode(
        pos as u64,
        format!(
            "columnar block: id column ends at event {} of {}",
            event, count
        ),
    )
}

/// Zero-copy view over a v2 payload: parses the fixed-width header and
/// directory, checks bounds and alignment, and hands out [`BlockView`]s
/// that borrow the underlying bytes.
pub struct ColumnarReader<'a> {
    payload: &'a [u8],
    n_events: u64,
    n_blocks: usize,
}

impl<'a> ColumnarReader<'a> {
    /// Parse the payload header and directory. Rejects short headers,
    /// directories extending past the payload, and any set flag bit; the
    /// per-block geometry is validated lazily by [`ColumnarReader::block`]
    /// so salvage can still reach the blocks before a damaged entry.
    pub fn parse(payload: &'a [u8]) -> ClopResult<Self> {
        if payload.len() < HEADER_BYTES {
            return Err(ClopError::trace_decode(
                payload.len() as u64,
                "columnar payload shorter than its header",
            ));
        }
        let n_events = u64::from_le_bytes(payload[0..8].try_into().unwrap_or([0; 8]));
        let n_blocks = u32::from_le_bytes(payload[8..12].try_into().unwrap_or([0; 4])) as usize;
        let flags = u32::from_le_bytes(payload[12..16].try_into().unwrap_or([0; 4]));
        if flags != 0 {
            return Err(ClopError::trace_decode(
                12,
                format!(
                    "columnar payload has flag bits {:#x} set (bit 0: tenant column, \
                     bit 1: core-mark column); only flags 0 is read",
                    flags
                ),
            ));
        }
        let dir_end = HEADER_BYTES as u64 + n_blocks as u64 * DIR_ENTRY_BYTES as u64;
        if dir_end > payload.len() as u64 {
            return Err(ClopError::trace_decode(
                8,
                format!(
                    "columnar directory ({} blocks) extends past the {}-byte payload",
                    n_blocks,
                    payload.len()
                ),
            ));
        }
        // `n_events` is NOT validated against the payload size here: a
        // truncated payload legitimately declares more events than its
        // remaining bytes can hold, and salvage must still reach the intact
        // block prefix. Nothing allocates off `n_events` — every decode
        // buffer is sized from per-block geometry, which [`Self::block`]
        // bounds-checks against the bytes actually present — and
        // [`decode_all`] rejects any count mismatch after decoding.
        Ok(ColumnarReader {
            payload,
            n_events,
            n_blocks,
        })
    }

    /// Total events the header declares.
    pub fn n_events(&self) -> u64 {
        self.n_events
    }

    /// Number of blocks in the directory.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Borrow block `b`, validating its directory entry: span in bounds,
    /// offset aligned, at least one id byte per event. Does *not* check the
    /// block CRC — call [`BlockView::verify`] or let [`decode_salvage`]
    /// gate on it.
    pub fn block(&self, b: usize) -> ClopResult<BlockView<'a>> {
        if b >= self.n_blocks {
            return Err(ClopError::trace_decode(
                0,
                format!("columnar block {} out of range ({})", b, self.n_blocks),
            ));
        }
        let e = HEADER_BYTES + b * DIR_ENTRY_BYTES;
        let entry = &self.payload[e..e + DIR_ENTRY_BYTES];
        let offset = u32::from_le_bytes(entry[0..4].try_into().unwrap_or([0; 4])) as usize;
        let count = u32::from_le_bytes(entry[4..8].try_into().unwrap_or([0; 4])) as usize;
        let id_len = u32::from_le_bytes(entry[8..12].try_into().unwrap_or([0; 4])) as usize;
        let crc = u32::from_le_bytes(entry[12..16].try_into().unwrap_or([0; 4]));
        if !offset.is_multiple_of(ALIGN) {
            return Err(ClopError::trace_decode(
                e as u64,
                format!("columnar block {} misaligned at offset {}", b, offset),
            ));
        }
        if count > id_len {
            // Each event takes at least one id byte.
            return Err(ClopError::trace_decode(
                e as u64,
                format!(
                    "columnar block {}: {} events cannot fit {} id bytes",
                    b, count, id_len
                ),
            ));
        }
        let Some(deltas) = offset
            .checked_add(id_len)
            .and_then(|end| self.payload.get(offset..end))
        else {
            return Err(ClopError::trace_decode(
                e as u64,
                format!("columnar block {} span out of bounds", b),
            ));
        };
        Ok(BlockView { count, deltas, crc })
    }
}

/// What [`decode_salvage`] kept and why it stopped.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnarSalvage {
    /// Events the payload header declared.
    pub declared: u64,
    /// Events decoded from the clean block prefix.
    pub decoded: u64,
    /// Blocks decoded cleanly (a prefix of the directory).
    pub clean_blocks: usize,
    /// Total blocks in the directory.
    pub total_blocks: usize,
    /// The error that ended salvage, if any.
    pub error: Option<ClopError>,
}

/// Strict decode: every block's CRC must hold and the declared event count
/// must match.
pub fn decode_all(payload: &[u8]) -> ClopResult<Vec<BlockId>> {
    let (ids, salvage) = decode_salvage(payload);
    if let Some(e) = salvage.error {
        return Err(e);
    }
    if salvage.decoded != salvage.declared {
        return Err(ClopError::trace_decode(
            0,
            format!(
                "columnar payload declares {} events, blocks decode {}",
                salvage.declared, salvage.decoded
            ),
        ));
    }
    Ok(ids)
}

/// Salvage decode: keep the longest prefix of blocks that are in bounds,
/// CRC-clean, and decodable; stop at the first damaged one. Never panics
/// on hostile bytes. A payload too damaged to even parse a header yields
/// an empty salvage carrying the parse error.
pub fn decode_salvage(payload: &[u8]) -> (Vec<BlockId>, ColumnarSalvage) {
    let reader = match ColumnarReader::parse(payload) {
        Ok(r) => r,
        Err(e) => {
            return (
                Vec::new(),
                ColumnarSalvage {
                    declared: 0,
                    decoded: 0,
                    clean_blocks: 0,
                    total_blocks: 0,
                    error: Some(e),
                },
            )
        }
    };
    let mut ids = Vec::new();
    let mut clean_blocks = 0usize;
    let mut error = None;
    for b in 0..reader.n_blocks() {
        let checkpoint = ids.len();
        let result = reader.block(b).and_then(|view| {
            if !view.verify() {
                return Err(ClopError::trace_decode(
                    0,
                    format!("columnar block {} checksum mismatch", b),
                ));
            }
            view.decode_ids_into(&mut ids)
        });
        match result {
            Ok(()) => clean_blocks += 1,
            Err(e) => {
                // A CRC-clean block can still fail mid-decode in theory
                // (only via a writer bug); drop its partial events so the
                // salvage is exactly the clean block prefix.
                ids.truncate(checkpoint);
                error = Some(e);
                break;
            }
        }
    }
    let decoded = ids.len() as u64;
    (
        ids,
        ColumnarSalvage {
            declared: reader.n_events(),
            decoded,
            clean_blocks,
            total_blocks: reader.n_blocks(),
            error,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: impl IntoIterator<Item = u32>) -> Vec<BlockId> {
        raw.into_iter().map(BlockId).collect()
    }

    fn loopy(len: usize, span: u32, seed: u64) -> Vec<BlockId> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        ids((0..len).map(|i| {
            if i % 16 == 0 {
                (next() % span as u64) as u32
            } else {
                ((next() % 4) as u32).wrapping_add(i as u32 % span)
            }
        }))
    }

    #[test]
    fn round_trip_plain() {
        for len in [
            0usize,
            1,
            5,
            DEFAULT_BLOCK_EVENTS,
            DEFAULT_BLOCK_EVENTS + 1,
            10_000,
        ] {
            let events = loopy(len, 900, len as u64 + 1);
            let payload = encode(&events, DEFAULT_BLOCK_EVENTS).unwrap();
            assert_eq!(decode_all(&payload).unwrap(), events, "len {}", len);
        }
    }

    #[test]
    fn blocks_are_aligned_and_independent() {
        let events = loopy(5000, 2000, 9);
        let payload = encode(&events, 512).unwrap();
        let reader = ColumnarReader::parse(&payload).unwrap();
        assert_eq!(reader.n_blocks(), 10);
        // Decode only the middle block: no dependence on its predecessors.
        let view = reader.block(5).unwrap();
        assert!(view.verify());
        let mut mid = Vec::new();
        view.decode_ids_into(&mut mid).unwrap();
        assert_eq!(mid, events[5 * 512..6 * 512]);
    }

    #[test]
    fn per_block_crc_localizes_damage() {
        let events = loopy(2048, 500, 5);
        let payload = encode(&events, 256).unwrap();
        let reader = ColumnarReader::parse(&payload).unwrap();
        let victim = reader.block(4).unwrap();
        // Flip a byte inside block 4's span.
        let pos = victim.deltas.as_ptr() as usize - payload.as_ptr() as usize;
        let mut bad = payload.clone();
        bad[pos] ^= 0x20;
        assert!(decode_all(&bad).is_err());
        let (salvaged, report) = decode_salvage(&bad);
        assert_eq!(report.clean_blocks, 4);
        assert_eq!(report.total_blocks, 8);
        assert_eq!(salvaged.len(), 4 * 256);
        assert_eq!(salvaged, events[..4 * 256]);
        assert!(report.error.is_some());
        assert_eq!(report.declared, 2048);
        assert_eq!(report.decoded, 1024);
    }

    #[test]
    fn salvage_of_clean_payload_is_total() {
        let events = loopy(700, 100, 2);
        let payload = encode(&events, 256).unwrap();
        let (salvaged, report) = decode_salvage(&payload);
        assert_eq!(salvaged, events);
        assert_eq!(report.decoded, 700);
        assert_eq!(report.clean_blocks, report.total_blocks);
        assert!(report.error.is_none());
    }

    #[test]
    fn rejects_unknown_flags_and_hostile_counts() {
        let events = loopy(100, 50, 1);
        let payload = encode(&events, 64).unwrap();
        for bit in [0, 1, 7, 31] {
            let mut bad = payload.clone();
            bad[12..16].copy_from_slice(&(1u32 << bit).to_le_bytes());
            let err = ColumnarReader::parse(&bad).err().unwrap();
            assert!(
                err.to_string().contains("flag bits"),
                "bit {}: {}",
                bit,
                err
            );
        }
        // Hostile n_events parses (salvage needs the header of a truncated
        // payload) but cannot survive a strict decode, and never drives an
        // allocation — buffers are sized from checked per-block geometry.
        let mut bad = payload.clone();
        bad[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ColumnarReader::parse(&bad).is_ok());
        assert!(decode_all(&bad).is_err());
        let mut bad = payload;
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes()); // hostile n_blocks
        assert!(ColumnarReader::parse(&bad).is_err());
    }

    #[test]
    fn every_prefix_truncation_fails_cleanly() {
        let events = loopy(600, 200, 4);
        let payload = encode(&events, 128).unwrap();
        for k in 0..payload.len() {
            // Strict decode must error (the full payload is not there);
            // salvage must never panic and only ever return a prefix.
            assert!(decode_all(&payload[..k]).is_err(), "prefix {}", k);
            let (salvaged, report) = decode_salvage(&payload[..k]);
            assert!(salvaged.len() <= events.len());
            assert_eq!(&events[..salvaged.len()], &salvaged[..], "prefix {}", k);
            assert_eq!(report.decoded as usize, salvaged.len());
        }
    }

    #[test]
    fn encode_rejects_zero_block_size() {
        assert!(encode(&loopy(10, 5, 1), 0).is_err());
    }
}
