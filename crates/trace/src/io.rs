//! Trace and mapping-file serialization.
//!
//! The paper's instrumentation "records the trace of all functions and all
//! basic blocks in a file" plus "a mapping file to assign each basic block
//! or function an index" (§II-F). This module provides both artifacts:
//!
//! * the versioned CLTC trace container,
//! * a line-oriented text mapping format (`<index> <name>`).
//!
//! # The versioned trace container
//!
//! Profile files live on disk between the instrumentation run and the
//! analysis run, so bit-rot and torn writes are routine inputs, not
//! exceptional ones. The container makes both *detectable*:
//!
//! ```text
//! magic    "CLTC"        4 bytes
//! version  u8            2; readers reject any other
//! paylen   varint        payload size in bytes
//! crc32    u32 LE        IEEE CRC-32 of the payload bytes
//! payload                the columnar blocks of [`crate::columnar`]
//! ```
//!
//! [`write_trace`], [`write_trimmed`] and the CLSH shard writer all emit
//! this container, and every reader accepts exactly what they emit:
//! version 2 around a columnar payload with flags 0. Anything else — the
//! `CLT1` magic, another version byte, a payload with flag bits set — is
//! a [`ClopError::TraceDecode`] that names what was found.
//!
//! Every decode failure is a structured [`ClopError::TraceDecode`]. The
//! decoder hardens against hostile headers: event counts and payload
//! lengths are *bounds checked against bytes actually present*, never
//! trusted for preallocation, so memory use is always proportional to the
//! input actually supplied. CRC-32 detects all single-bit errors, so any
//! seeded bit-flip surfaces as a checksum or decode error.
//!
//! [`read_trace_repaired`] additionally supports *salvage* for pipelines
//! that prefer a partial profile over none: it keeps the longest prefix
//! of whole CRC-clean blocks of a damaged payload and reports what was
//! dropped.

use crate::mapping::BlockMap;
use crate::trace::{Trace, TrimmedTrace};
use clop_util::crc32::Crc32;
use clop_util::{ClopError, ClopResult};
use std::io::{self, BufRead, Read, Write};

/// Magic bytes of the versioned container.
const MAGIC: &[u8; 4] = b"CLTC";

/// The container version every writer emits and every reader accepts: a
/// columnar payload ([`crate::columnar`]).
const VERSION_COLUMNAR: u8 = 2;

/// Encode an unsigned LEB128 varint.
pub(crate) fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Zigzag-encode a signed delta.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Zigzag-decode.
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A reader wrapper that tracks the byte offset (for error reporting) and
/// optionally accumulates a CRC-32 over everything read (for the CLSH
/// header checksum).
pub(crate) struct Decoder<'a, R: Read> {
    r: &'a mut R,
    offset: u64,
    crc: Option<Crc32>,
}

impl<'a, R: Read> Decoder<'a, R> {
    pub(crate) fn new(r: &'a mut R) -> Self {
        Decoder {
            r,
            offset: 0,
            crc: None,
        }
    }

    /// Start accumulating a CRC over subsequent reads.
    pub(crate) fn begin_crc(&mut self) {
        self.crc = Some(Crc32::new());
    }

    /// The CRC accumulated since [`Decoder::begin_crc`].
    pub(crate) fn crc(&self) -> Option<u32> {
        self.crc.as_ref().map(Crc32::finish)
    }

    pub(crate) fn read_exact(&mut self, buf: &mut [u8], what: &str) -> ClopResult<()> {
        match self.r.read_exact(buf) {
            Ok(()) => {
                if let Some(crc) = &mut self.crc {
                    crc.update(buf);
                }
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(ClopError::trace_decode(
                self.offset,
                format!("unexpected end of data while reading {}", what),
            )),
            Err(e) => Err(ClopError::io(format!("read {}", what), &e)),
        }
    }

    fn read_byte(&mut self, what: &str) -> ClopResult<u8> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b, what)?;
        Ok(b[0])
    }

    /// Read up to `n` bytes, stopping early (without error) at end of
    /// data. Allocation grows with bytes actually read, never with `n`.
    pub(crate) fn read_up_to(&mut self, n: u64) -> ClopResult<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        let mut remaining = n;
        while remaining > 0 {
            let want = (remaining.min(buf.len() as u64)) as usize;
            let got = match self.r.read(&mut buf[..want]) {
                Ok(0) => break,
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClopError::io("read payload", &e)),
            };
            if let Some(crc) = &mut self.crc {
                crc.update(&buf[..got]);
            }
            self.offset += got as u64;
            out.extend_from_slice(&buf[..got]);
            remaining -= got as u64;
        }
        Ok(out)
    }

    /// Decode an unsigned LEB128 varint.
    pub(crate) fn varint(&mut self, what: &str) -> ClopResult<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_byte(what)?;
            if shift >= 63 && byte > 1 {
                return Err(ClopError::trace_decode(
                    self.offset - 1,
                    format!("varint overflow in {}", what),
                ));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// Parse the container header: everything before the payload. Returns
/// the declared payload length and the stored payload CRC.
fn read_header<R: Read>(d: &mut Decoder<'_, R>) -> ClopResult<(u64, u32)> {
    let mut magic = [0u8; 4];
    d.read_exact(&mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(ClopError::trace_format(format!(
            "not a CLTC trace container (magic \"{}\")",
            magic.escape_ascii()
        )));
    }
    let version = d.read_byte("format version")?;
    if version != VERSION_COLUMNAR {
        return Err(ClopError::trace_format(format!(
            "unsupported trace container version {} (this build reads only version {})",
            version, VERSION_COLUMNAR
        )));
    }
    let payload_len = d.varint("payload length")?;
    let mut crc_bytes = [0u8; 4];
    d.read_exact(&mut crc_bytes, "payload checksum")?;
    Ok((payload_len, u32::from_le_bytes(crc_bytes)))
}

/// Read up to `payload_len` payload bytes, stopping early at end of data.
/// Returns the bytes plus `Err` when the payload came up short. Growth is
/// driven by bytes actually present, so a hostile length never causes a
/// proportional allocation.
fn read_payload<R: Read>(
    d: &mut Decoder<'_, R>,
    payload_len: u64,
) -> ClopResult<(Vec<u8>, ClopResult<()>)> {
    let payload = d.read_up_to(payload_len)?;
    let complete = if (payload.len() as u64) < payload_len {
        Err(ClopError::trace_decode(
            d.offset,
            format!(
                "columnar payload truncated: header declares {} bytes, {} present",
                payload_len,
                payload.len()
            ),
        ))
    } else {
        Ok(())
    };
    Ok((payload, complete))
}

/// Read a trace written by [`write_trace`]. Any corruption — truncation,
/// bit-rot, hostile varints or counts — yields a structured error, never a
/// panic, and memory use is bounded by the input actually read.
pub fn read_trace<R: Read>(r: &mut R) -> ClopResult<Trace> {
    let mut d = Decoder::new(r);
    let (payload_len, crc) = read_header(&mut d)?;
    let (payload, complete) = read_payload(&mut d, payload_len)?;
    complete?;
    let computed = clop_util::crc32(&payload);
    if computed != crc {
        return Err(ClopError::trace_decode(
            d.offset,
            format!(
                "payload checksum mismatch: stored {:08x}, computed {:08x}",
                crc, computed
            ),
        ));
    }
    Ok(crate::columnar::decode_all(&payload)?.into_iter().collect())
}

/// What [`read_trace_repaired`] salvaged from a damaged container.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairReport {
    /// Events the header declared.
    pub declared: u64,
    /// Events cleanly decoded (the salvaged prefix).
    pub decoded: u64,
    /// `declared - decoded`: records dropped by the decoder.
    pub dropped: u64,
    /// Whether the whole payload was present and its checksum verified.
    pub crc_ok: bool,
    /// The decode error that ended salvage, if any.
    pub error: Option<ClopError>,
}

impl RepairReport {
    /// True when nothing was dropped and the checksum held.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.error.is_none() && self.crc_ok
    }
}

/// Read a trace, salvaging the longest prefix of whole CRC-clean blocks of
/// a damaged payload instead of failing outright.
///
/// The container header must still be intact (otherwise the payload
/// cannot even be located — that returns `Err` as usual). Payload damage
/// — a damaged block, a short payload, a checksum mismatch — ends the
/// salvage and is recorded in the [`RepairReport`]. A payload that is
/// complete and matches its checksum but does not decode (flag bits set,
/// say) is no damage to salvage around: that also returns `Err`.
pub fn read_trace_repaired<R: Read>(r: &mut R) -> ClopResult<(Trace, RepairReport)> {
    let mut d = Decoder::new(r);
    let (payload_len, crc) = read_header(&mut d)?;
    let (payload, complete) = read_payload(&mut d, payload_len)?;
    let (ids, salvage) = crate::columnar::decode_salvage(&payload);
    let crc_ok = complete.is_ok() && clop_util::crc32(&payload) == crc;
    let error = match (crc_ok, salvage.error.or_else(|| complete.err())) {
        (true, Some(e)) => return Err(e),
        (_, error) => error,
    };
    Ok((
        ids.into_iter().collect(),
        RepairReport {
            declared: salvage.declared,
            decoded: salvage.decoded,
            dropped: salvage.declared.saturating_sub(salvage.decoded),
            crc_ok,
            error,
        },
    ))
}

/// Write a trace in the container with a columnar payload (version 2):
/// magic, version, payload length, CRC-32, then the blocks laid out by
/// [`crate::columnar`].
pub fn write_trace<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    let payload = crate::columnar::encode(trace.events(), crate::columnar::DEFAULT_BLOCK_EVENTS)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION_COLUMNAR])?;
    write_varint(w, payload.len() as u64)?;
    w.write_all(&clop_util::crc32(&payload).to_le_bytes())?;
    w.write_all(&payload)
}

/// Convenience: serialize a trimmed trace (stored as a plain trace; the
/// trimming invariant is re-established on read).
pub fn write_trimmed<W: Write>(w: &mut W, trace: &TrimmedTrace) -> io::Result<()> {
    let t: Trace = trace.iter().collect();
    write_trace(w, &t)
}

/// Read a trace and trim it.
pub fn read_trimmed<R: Read>(r: &mut R) -> ClopResult<TrimmedTrace> {
    Ok(read_trace(r)?.trim())
}

/// Write a mapping file: one `<index> <name>` line per block, in id order.
pub fn write_mapping<W: Write>(w: &mut W, map: &BlockMap) -> io::Result<()> {
    for (id, name) in map.iter() {
        writeln!(w, "{} {}", id.0, name)?;
    }
    Ok(())
}

/// Read a mapping file. Indices must be dense and in order (the writer's
/// format); names may contain spaces. Malformed lines yield structured
/// [`ClopError::MappingParse`] errors with the offending line number.
pub fn read_mapping<R: BufRead>(r: &mut R) -> ClopResult<BlockMap> {
    let mut map = BlockMap::new();
    for (lineno, line) in r.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.map_err(|e| ClopError::io(format!("read mapping line {}", lineno), &e))?;
        if line.trim().is_empty() {
            continue;
        }
        let (idx, name) = line
            .split_once(' ')
            .ok_or_else(|| ClopError::mapping(lineno, "line lacks a name"))?;
        let idx: u32 = idx
            .parse()
            .map_err(|_| ClopError::mapping(lineno, format!("bad index `{}`", idx)))?;
        let got = map.intern(name);
        if got.0 != idx {
            return Err(ClopError::mapping(
                lineno,
                format!("expected dense index {}, found {}", got.0, idx),
            ));
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::BlockId;

    fn v2(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&mut buf, t).unwrap();
        buf
    }

    /// A v2 container around `payload`, framed as [`write_trace`] frames it.
    fn container(payload: &[u8]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION_COLUMNAR);
        write_varint(&mut buf, payload.len() as u64).unwrap();
        buf.extend_from_slice(&clop_util::crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            let mut slice = buf.as_slice();
            let mut d = Decoder::new(&mut slice);
            assert_eq!(d.varint("test").unwrap(), v);
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn writers_emit_version_2() {
        let t = Trace::from_indices([5, 5, 9, 0, 1_000_000, 3, 3, 3]);
        let buf = v2(&t);
        assert_eq!((&buf[..4], buf[4]), (&MAGIC[..], VERSION_COLUMNAR));
        let mut trimmed = Vec::new();
        write_trimmed(&mut trimmed, &t.trim()).unwrap();
        assert_eq!((&trimmed[..4], trimmed[4]), (&MAGIC[..], VERSION_COLUMNAR));
    }

    #[test]
    fn writers_emit_pinned_bytes() {
        // Recorded from the writer before the retired read paths were
        // deleted: the bytes on disk must not move.
        const TRACE: [u8; 52] = [
            67, 76, 84, 67, 2, 42, 107, 236, 66, 20, 6, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
            0, 32, 0, 0, 0, 6, 0, 0, 0, 10, 0, 0, 0, 141, 48, 191, 185, 10, 0, 8, 17, 128, 137,
            122, 249, 136, 122,
        ];
        const EMPTY: [u8; 26] = [
            67, 76, 84, 67, 2, 16, 85, 75, 187, 236, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(v2(&Trace::from_indices([5, 5, 9, 0, 1_000_000, 3])), TRACE);
        assert_eq!(v2(&Trace::new()), EMPTY);
        // Three full blocks and a partial one, with alignment padding.
        let big = v2(&Trace::from_indices(
            (0..9000u32).map(|i| i.wrapping_mul(7919) % 1111),
        ));
        assert_eq!((big.len(), clop_util::crc32(&big)), (18075, 0xaae4025e));
    }

    #[test]
    fn trace_round_trip() {
        let t = Trace::from_indices([5, 5, 9, 0, 1_000_000, 3, 3, 3]);
        let back = read_trace(&mut v2(&t).as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_trace_round_trip() {
        let t = Trace::new();
        let buf = v2(&t);
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), t);
        // magic + version + paylen varint + crc + 16-byte columnar header
        assert_eq!(buf.len(), 26);
    }

    #[test]
    fn tight_loops_compress_well() {
        // Alternating pair: deltas are ±1 → one byte each, plus 26 bytes
        // of container and payload header and one 16-byte block entry.
        let t = Trace::from_indices((0..1000).map(|i| 100 + (i % 2)));
        let buf = v2(&t);
        assert!(buf.len() < 1050, "compressed size {}", buf.len());
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOPE\x00".to_vec();
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, ClopError::TraceDecode { .. }), "{err}");
        assert!(err.to_string().contains("magic \"NOPE\""), "{err}");
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut buf = v2(&Trace::from_indices([1, 2, 3]));
        buf[4] = 9; // future version
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let buf = v2(&Trace::from_indices([1, 2, 3, 1_000_000]));
        for k in 0..buf.len() {
            let err = read_trace(&mut &buf[..k]).unwrap_err();
            assert!(
                matches!(err, ClopError::TraceDecode { .. }),
                "prefix {}: {}",
                k,
                err
            );
        }
    }

    #[test]
    fn hostile_event_count_fails_without_allocation() {
        // A checksummed payload declaring 2^60 events over an empty
        // directory must fail on the count check, not attempt to decode
        // (or allocate).
        let mut payload = (1u64 << 60).to_le_bytes().to_vec();
        payload.extend_from_slice(&[0; 8]); // n_blocks 0, flags 0
        let err = read_trace(&mut container(&payload).as_slice()).unwrap_err();
        assert!(
            err.to_string()
                .contains("declares 1152921504606846976 events"),
            "{err}"
        );
    }

    #[test]
    fn repaired_read_of_clean_file_is_clean() {
        let t = Trace::from_indices([1, 5, 1]);
        let (salvaged, report) = read_trace_repaired(&mut v2(&t).as_slice()).unwrap();
        assert_eq!(salvaged, t);
        assert!(report.is_clean());
        assert!(report.crc_ok);
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn repaired_read_flags_crc_damage() {
        // Damage to the stored payload checksum leaves every block clean:
        // nothing is dropped, yet the report is not clean.
        let mut buf = v2(&Trace::from_indices([1, 5, 1, 9]));
        buf[6] ^= 0x01;
        let (salvaged, report) = read_trace_repaired(&mut buf.as_slice()).unwrap();
        assert_eq!(salvaged.len(), 4);
        assert_eq!((report.dropped, report.crc_ok), (0, false));
        assert!(!report.is_clean());
    }

    #[test]
    fn columnar_container_round_trip() {
        for len in [0usize, 1, 9000] {
            let t = Trace::from_indices((0..len as u32).map(|i| i % 1111));
            let buf = v2(&t);
            assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), t, "len {}", len);
            let (back, report) = read_trace_repaired(&mut buf.as_slice()).unwrap();
            assert_eq!(back, t);
            assert!(report.is_clean());
            assert!(report.crc_ok);
        }
    }

    #[test]
    fn columnar_rejects_every_single_bit_flip() {
        let buf = v2(&Trace::from_indices([7, 3, 3, 900, 7, 12]));
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    read_trace(&mut bad.as_slice()).is_err(),
                    "flip at {}:{} went undetected",
                    byte,
                    bit
                );
            }
        }
    }

    #[test]
    fn columnar_salvage_keeps_clean_block_prefix() {
        // Multi-block trace; damage a byte in the final block's span: the
        // preceding blocks survive verbatim.
        let n = crate::columnar::DEFAULT_BLOCK_EVENTS * 3 + 100;
        let t = Trace::from_indices((0..n as u32).map(|i| i % 997));
        let mut buf = v2(&t);
        let last = buf.len() - 1;
        buf[last] ^= 0x10;
        assert!(read_trace(&mut buf.as_slice()).is_err());
        let (salvaged, report) = read_trace_repaired(&mut buf.as_slice()).unwrap();
        assert_eq!(salvaged.len(), crate::columnar::DEFAULT_BLOCK_EVENTS * 3);
        assert_eq!(
            salvaged.events(),
            &t.events()[..salvaged.len()],
            "salvage is a clean prefix"
        );
        assert_eq!(report.declared, n as u64);
        assert_eq!(report.dropped, 100);
        assert!(!report.crc_ok);
        assert!(!report.is_clean());
    }

    #[test]
    fn columnar_salvage_of_truncated_container() {
        let t = Trace::from_indices((0..9000u32).map(|i| i % 501));
        let full = v2(&t);
        // Header intact, payload torn at an arbitrary point.
        let cut = full.len() / 2;
        let (salvaged, report) = read_trace_repaired(&mut &full[..cut]).unwrap();
        assert!(report.dropped > 0);
        assert!(!report.is_clean());
        assert!(!report.crc_ok);
        assert_eq!(salvaged.events(), &t.events()[..salvaged.len()]);
    }

    #[test]
    fn trimmed_round_trip_re_trims() {
        let t = TrimmedTrace::from_indices([1, 2, 1, 2]);
        let mut buf = Vec::new();
        write_trimmed(&mut buf, &t).unwrap();
        assert_eq!(read_trimmed(&mut buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn mapping_round_trip() {
        let mut m = BlockMap::new();
        m.intern("main.entry");
        m.intern("hot 001.diamond 3"); // names with spaces survive
        let mut buf = Vec::new();
        write_mapping(&mut buf, &m).unwrap();
        let back = read_mapping(&mut io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.name(BlockId(1)), Some("hot 001.diamond 3"));
    }

    #[test]
    fn mapping_rejects_non_dense_indices() {
        let text = "0 a\n2 b\n";
        let err = read_mapping(&mut io::BufReader::new(text.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("dense"));
        assert!(matches!(err, ClopError::MappingParse { line: 2, .. }));
    }

    #[test]
    fn mapping_rejects_missing_name() {
        let text = "0\n";
        let err = read_mapping(&mut io::BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, ClopError::MappingParse { line: 1, .. }));
    }
}
