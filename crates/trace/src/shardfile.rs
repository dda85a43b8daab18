//! The CLSH shard-file container: one standalone trace shard on disk.
//!
//! The streaming ingestion path (`clop-serve`) receives a trace not as one
//! file but as a sequence of shard files, each carrying a contiguous
//! *segment* of the original trimmed trace plus the metadata needed to fold
//! it into incremental analysis state:
//!
//! ```text
//! magic       "CLSH"     4 bytes
//! version     u8         currently 1; readers reject anything newer
//! seq         varint     shard sequence number (core position in trace order)
//! core_start  varint     first attributed event, relative to the segment
//! core_end    varint     one past the last attributed event
//! hdr crc32   u32 LE     IEEE CRC-32 of the three header varints
//! payload                a complete CLTC trace container (the segment)
//! ```
//!
//! [`write_shard`] embeds a CLTC v2 (columnar) container, and the readers
//! accept exactly that: a shard whose payload is any other container is a
//! [`ClopError::TraceDecode`] naming what was found.
//!
//! The segment spans the shard's backward overlap, core, and forward
//! extension (see [`crate::shard`]), so a reader can recompute the shard's
//! analysis delta with **no access to the rest of the trace** — the
//! analyses only compare positions within a shard, never across shards.
//! The embedded CLTC container supplies payload framing and CRC rejection;
//! the header carries its own checksum so damaged metadata is detected
//! before any events are trusted.
//!
//! [`read_shard_repaired`] mirrors [`crate::read_trace_repaired`]: an
//! intact header plus a damaged payload yields the events of the clean
//! block prefix and a [`RepairReport`], letting ingestion policy decide
//! whether the loss is acceptable.

use crate::io::{read_trace, read_trace_repaired, write_trimmed, Decoder, RepairReport};
use crate::shard::shards;
use crate::trace::{BlockId, Trace, TrimmedTrace};
use clop_util::{ClopError, ClopResult};
use std::io::{self, Read, Write};

/// Magic bytes of the shard container.
const MAGIC: &[u8; 4] = b"CLSH";

/// Shard container version written by [`write_shard`].
const FORMAT_VERSION: u8 = 1;

/// A decoded shard file: segment plus attribution metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardFile {
    /// Shard sequence number: the position of this shard's core in trace
    /// order. Incremental state deduplicates on this, so re-sending a
    /// shard is idempotent.
    pub seq: u64,
    /// First attributed event, as an index into `trace`.
    pub core_start: usize,
    /// One past the last attributed event, as an index into `trace`.
    pub core_end: usize,
    /// The segment: backward overlap + core + forward extension.
    pub trace: TrimmedTrace,
}

impl ShardFile {
    /// The attributed core events.
    pub fn core(&self) -> &[BlockId] {
        &self.trace.events()[self.core_start..self.core_end]
    }
}

/// Write one shard file with a CLTC v2 segment.
pub fn write_shard<W: Write>(
    w: &mut W,
    seq: u64,
    core_start: usize,
    core_end: usize,
    segment: &TrimmedTrace,
) -> io::Result<()> {
    let mut header = Vec::new();
    let _ = crate::io::write_varint(&mut header, seq);
    let _ = crate::io::write_varint(&mut header, core_start as u64);
    let _ = crate::io::write_varint(&mut header, core_end as u64);
    w.write_all(MAGIC)?;
    w.write_all(&[FORMAT_VERSION])?;
    w.write_all(&header)?;
    w.write_all(&clop_util::crc32(&header).to_le_bytes())?;
    write_trimmed(w, segment)
}

/// Parse the CLSH header (everything before the embedded CLTC payload).
fn read_shard_header<R: Read>(r: &mut R) -> ClopResult<(u64, usize, usize)> {
    let mut d = Decoder::new(r);
    let mut magic = [0u8; 4];
    d.read_exact(&mut magic, "shard magic")?;
    if &magic != MAGIC {
        return Err(ClopError::trace_format(format!(
            "not a clop shard file (magic {:02x?})",
            magic
        )));
    }
    let mut version = [0u8; 1];
    d.read_exact(&mut version, "shard format version")?;
    if version[0] != FORMAT_VERSION {
        return Err(ClopError::trace_format(format!(
            "unsupported shard format version {} (this build reads up to {})",
            version[0], FORMAT_VERSION
        )));
    }
    d.begin_crc();
    let seq = d.varint("shard seq")?;
    let core_start = d.varint("shard core start")?;
    let core_end = d.varint("shard core end")?;
    let computed = d.crc().unwrap_or(0);
    let mut crc_bytes = [0u8; 4];
    d.read_exact(&mut crc_bytes, "shard header checksum")?;
    let stored = u32::from_le_bytes(crc_bytes);
    if computed != stored {
        return Err(ClopError::trace_format(format!(
            "shard header checksum mismatch: stored {:08x}, computed {:08x}",
            stored, computed
        )));
    }
    if core_start > core_end {
        return Err(ClopError::trace_format(format!(
            "shard core range inverted: {}..{}",
            core_start, core_end
        )));
    }
    let cs = usize::try_from(core_start)
        .map_err(|_| ClopError::trace_format("shard core start out of range"))?;
    let ce = usize::try_from(core_end)
        .map_err(|_| ClopError::trace_format("shard core end out of range"))?;
    Ok((seq, cs, ce))
}

/// The decoded segment must already satisfy the trimming invariant:
/// core offsets index into the event sequence as written, so silently
/// collapsing duplicates would mis-attribute events.
fn require_trimmed(raw: &Trace) -> ClopResult<TrimmedTrace> {
    let trimmed = raw.trim();
    if trimmed.len() != raw.len() {
        return Err(ClopError::trace_format(
            "shard segment is not a trimmed trace (consecutive duplicate events)",
        ));
    }
    Ok(trimmed)
}

/// Read a shard file written by [`write_shard`], rejecting any corruption.
pub fn read_shard<R: Read>(r: &mut R) -> ClopResult<ShardFile> {
    let (seq, core_start, core_end) = read_shard_header(r)?;
    let trace = require_trimmed(&read_trace(r)?)?;
    if core_end > trace.len() || core_start >= core_end {
        return Err(ClopError::trace_format(format!(
            "shard core {}..{} out of bounds for segment of {} events",
            core_start,
            core_end,
            trace.len()
        )));
    }
    Ok(ShardFile {
        seq,
        core_start,
        core_end,
        trace,
    })
}

/// Read a shard file, salvaging the longest clean block prefix of a
/// damaged payload.
///
/// The CLSH header (and the embedded CLTC header) must be intact —
/// otherwise the events cannot be located or attributed and this returns
/// `Err`. Payload damage yields the salvaged prefix with the core range
/// clamped to the events that survived, plus the payload's
/// [`RepairReport`] for the caller's acceptance policy.
pub fn read_shard_repaired<R: Read>(r: &mut R) -> ClopResult<(ShardFile, RepairReport)> {
    let (seq, core_start, core_end) = read_shard_header(r)?;
    let (raw, report) = read_trace_repaired(r)?;
    let trace = require_trimmed(&raw)?;
    let core_end = core_end.min(trace.len());
    let core_start = core_start.min(core_end);
    Ok((
        ShardFile {
            seq,
            core_start,
            core_end,
            trace,
        },
        report,
    ))
}

/// Split a trace into serialized shard files covering **both** locality
/// analyses, each written by [`write_shard`].
///
/// Affinity measurement needs `lookback = w + 1` and `lookahead = w` (with
/// `w = max(w_max, 2)`); TRG construction needs `lookback = window + 1`.
/// A deeper backward overlap and a longer forward extension are harmless —
/// overlap events are replayed for state only and extension events only
/// resolve pending windows — so one file with the maximum of both depths
/// serves both analyses. Shard boundaries depend only on the trace and the
/// parameters (never on the machine), so a fleet splitting the same trace
/// produces identical files.
pub fn split_shards_columnar(
    trace: &TrimmedTrace,
    pieces: usize,
    w_max: u32,
    trg_window: usize,
) -> Vec<Vec<u8>> {
    let w = w_max.max(2) as usize;
    let lookback = w.max(trg_window) + 1;
    shards(trace, pieces, lookback, w)
        .iter()
        .enumerate()
        .map(|(i, sh)| {
            // A contiguous slice of a trimmed trace is itself trimmed.
            let segment =
                TrimmedTrace::from_events(trace.events()[sh.start..sh.end].iter().copied());
            let mut buf = Vec::new();
            // Writing to a Vec cannot fail.
            let _ = write_shard(
                &mut buf,
                i as u64,
                sh.core_start - sh.start,
                sh.core_end - sh.start,
                &segment,
            );
            buf
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::BlockId;

    fn random_trace(seed: u64, len: usize, blocks: u32) -> TrimmedTrace {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        TrimmedTrace::from_indices((0..len).map(|_| (next() % blocks as u64) as u32))
    }

    fn shard_bytes(seq: u64, core_start: usize, core_end: usize, t: &TrimmedTrace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_shard(&mut buf, seq, core_start, core_end, t).unwrap();
        buf
    }

    /// The version byte of the CLTC container embedded in a CLSH file.
    fn embedded_version(buf: &[u8]) -> u8 {
        let mut rest = buf;
        read_shard_header(&mut rest).unwrap();
        assert_eq!(&rest[..4], b"CLTC");
        rest[4]
    }

    #[test]
    fn writers_emit_version_2() {
        let t = random_trace(20, 120, 11);
        assert_eq!(embedded_version(&shard_bytes(7, 10, 100, &t)), 2);
        let files = split_shards_columnar(&random_trace(22, 900, 17), 4, 8, 16);
        assert!(files.len() > 1);
        for f in &files {
            assert_eq!(embedded_version(f), 2);
        }
    }

    #[test]
    fn shard_round_trip() {
        let t = random_trace(1, 120, 11);
        let back = read_shard(&mut shard_bytes(7, 10, 100, &t).as_slice()).unwrap();
        assert_eq!(back.seq, 7);
        assert_eq!(back.core_start, 10);
        assert_eq!(back.core_end, 100);
        assert_eq!(back.trace, t);
        assert_eq!(back.core(), &t.events()[10..100]);
    }

    #[test]
    fn writer_emits_pinned_bytes() {
        // Recorded from the writer before the retired read paths were
        // deleted: the bytes on disk must not move.
        const SHARD: [u8; 60] = [
            67, 76, 83, 72, 1, 7, 1, 4, 207, 58, 120, 228, 67, 76, 84, 67, 2, 38, 110, 104, 162,
            21, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0,
            0, 185, 157, 164, 222, 8, 10, 13, 10, 202, 4,
        ];
        let segment = TrimmedTrace::from_indices([4, 9, 2, 7, 300]);
        assert_eq!(shard_bytes(7, 1, 4, &segment), SHARD);
    }

    #[test]
    fn split_covers_trace_exactly() {
        let t = random_trace(2, 900, 17);
        let files = split_shards_columnar(&t, 4, 8, 16);
        assert!(!files.is_empty());
        let mut rebuilt: Vec<BlockId> = Vec::new();
        for (i, f) in files.iter().enumerate() {
            let sf = read_shard(&mut f.as_slice()).unwrap();
            assert_eq!(sf.seq, i as u64);
            rebuilt.extend_from_slice(sf.core());
        }
        assert_eq!(rebuilt, t.events());
    }

    #[test]
    fn split_is_machine_independent_and_deterministic() {
        let t = random_trace(3, 700, 13);
        assert_eq!(
            split_shards_columnar(&t, 5, 8, 16),
            split_shards_columnar(&t, 5, 8, 16)
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let t = random_trace(4, 50, 7);
        let buf = shard_bytes(0, 0, 50, &t);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_shard(&mut bad.as_slice())
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(read_shard(&mut bad.as_slice())
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn rejects_every_single_bit_flip() {
        let buf = shard_bytes(3, 5, 55, &random_trace(5, 60, 9));
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    read_shard(&mut bad.as_slice()).is_err(),
                    "flip at {}:{} went undetected",
                    byte,
                    bit
                );
            }
        }
    }

    #[test]
    fn rejects_out_of_bounds_core() {
        let t = random_trace(6, 30, 5);
        assert!(read_shard(&mut shard_bytes(0, 0, 31, &t).as_slice())
            .unwrap_err()
            .to_string()
            .contains("out of bounds"));
    }

    #[test]
    fn repaired_read_salvages_and_clamps_core() {
        // A torn payload tail drops the damaged last block; the core is
        // clamped to the blocks that survived.
        let t = random_trace(7, 5000, 11);
        let n = t.len();
        let mut buf = shard_bytes(2, 20, n, &t);
        buf.truncate(buf.len() - 3);
        let (sf, report) = read_shard_repaired(&mut buf.as_slice()).unwrap();
        assert_eq!(
            report.dropped as usize,
            n - crate::columnar::DEFAULT_BLOCK_EVENTS
        );
        assert!(!report.is_clean());
        assert_eq!(sf.seq, 2);
        assert_eq!(sf.core_end, sf.trace.len());
        assert_eq!(&t.events()[..sf.trace.len()], sf.trace.events());
    }

    #[test]
    fn repaired_read_of_clean_file_is_clean() {
        let t = random_trace(8, 80, 7);
        let (sf, report) = read_shard_repaired(&mut shard_bytes(1, 0, 80, &t).as_slice()).unwrap();
        assert!(report.is_clean());
        assert_eq!(sf.trace, t);
    }

    #[test]
    fn repaired_read_still_rejects_header_damage() {
        let t = random_trace(9, 40, 5);
        let mut buf = shard_bytes(1, 0, 40, &t);
        buf[6] ^= 0x40; // inside the header varints
        assert!(read_shard_repaired(&mut buf.as_slice()).is_err());
    }
}
