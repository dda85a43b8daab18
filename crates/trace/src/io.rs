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
//! version  u8            1 or 2; readers reject anything newer
//! paylen   varint        payload size in bytes
//! crc32    u32 LE        IEEE CRC-32 of the payload bytes
//! payload                version 2: the columnar blocks of [`crate::columnar`]
//!                        version 1: count varint, then zigzag-varint deltas
//! ```
//!
//! **Version 2 is the only format written.** [`write_trace`],
//! [`write_trimmed`] and the CLSH shard writer all emit the columnar
//! payload: independently decodable delta blocks with per-block CRCs.
//! Versions 0 and 1 are **read-only**: every reader still accepts them, so
//! existing files stay usable (`clop-trace pack` rewrites them as v2).
//! Version 1 carries the row payload above. Version 0 (magic `CLT1`) is
//! the original format: the row payload with no version, length or
//! checksum.
//!
//! Every decode failure is a structured [`ClopError::TraceDecode`] with
//! the byte offset where decoding stopped. The decoder hardens against
//! hostile headers: event counts and payload lengths are *bounds checked
//! against bytes actually present*, never trusted for preallocation, so a
//! header claiming 2^60 events fails with an error after reading at most
//! one byte per claimed event — memory use is always proportional to the
//! input actually supplied. CRC-32 detects all single-bit errors, so any
//! seeded bit-flip in a v1 or v2 file surfaces as a checksum or decode
//! error.
//!
//! [`read_trace_repaired`] additionally supports *salvage* for pipelines
//! that prefer a partial profile over none: it keeps the longest cleanly
//! decodable prefix of a damaged payload and reports what was dropped. On
//! a v2 payload the prefix is made of whole CRC-clean blocks; on a v0/v1
//! payload it is made of events.

use crate::mapping::BlockMap;
use crate::trace::{BlockId, Trace, TrimmedTrace};
use clop_util::crc32::Crc32;
use clop_util::{ClopError, ClopResult};
use std::io::{self, BufRead, Read, Write};

/// Magic bytes of the versioned container.
const MAGIC: &[u8; 4] = b"CLTC";

/// Magic bytes of the legacy (v0) format: count + deltas, no checksum.
const MAGIC_V0: &[u8; 4] = b"CLT1";

/// Container version carrying the row payload (read-only).
const VERSION_ROW: u8 = 1;

/// Container version carrying a columnar payload ([`crate::columnar`]),
/// the only version written.
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
/// optionally accumulates a CRC-32 over everything read (for payload
/// verification).
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

/// Decode up to `n` delta-encoded events. In strict mode a decode failure
/// aborts; in repair mode it ends the trace at the last good event. The
/// trace is grown incrementally — the declared count is never trusted for
/// allocation.
fn decode_events<R: Read>(
    d: &mut Decoder<'_, R>,
    n: u64,
    repair: bool,
) -> Result<Trace, (Trace, ClopError)> {
    let mut trace = Trace::new();
    let mut prev = 0i64;
    for i in 0..n {
        let delta = match d.varint("event delta") {
            Ok(v) => unzigzag(v),
            Err(e) if repair => return Err((trace, e)),
            Err(e) => return Err((Trace::new(), e)),
        };
        let cur = match prev
            .checked_add(delta)
            .filter(|&v| (0..=u32::MAX as i64).contains(&v))
        {
            Some(v) => v,
            None => {
                let e = ClopError::trace_decode(
                    d.offset,
                    format!("event {} id out of range (delta {})", i, delta),
                );
                return Err(if repair {
                    (trace, e)
                } else {
                    (Trace::new(), e)
                });
            }
        };
        trace.push(BlockId(cur as u32));
        prev = cur;
    }
    Ok(trace)
}

/// The parsed container header: everything before the payload.
enum Header {
    V0,
    V1 {
        payload_len: u64,
        crc: u32,
    },
    /// Columnar payload ([`crate::columnar`]); same framing fields as v1.
    V2 {
        payload_len: u64,
        crc: u32,
    },
}

fn read_header<R: Read>(d: &mut Decoder<'_, R>) -> ClopResult<Header> {
    let mut magic = [0u8; 4];
    d.read_exact(&mut magic, "magic")?;
    if &magic == MAGIC_V0 {
        return Ok(Header::V0);
    }
    if &magic != MAGIC {
        return Err(ClopError::trace_format(format!(
            "not a clop trace file (magic {:02x?})",
            magic
        )));
    }
    let version = d.read_byte("format version")?;
    if version != VERSION_ROW && version != VERSION_COLUMNAR {
        return Err(ClopError::trace_format(format!(
            "unsupported trace format version {} (this build reads up to {})",
            version, VERSION_COLUMNAR
        )));
    }
    let payload_len = d.varint("payload length")?;
    let mut crc_bytes = [0u8; 4];
    d.read_exact(&mut crc_bytes, "payload checksum")?;
    let crc = u32::from_le_bytes(crc_bytes);
    Ok(if version == VERSION_COLUMNAR {
        Header::V2 { payload_len, crc }
    } else {
        Header::V1 { payload_len, crc }
    })
}

/// Read up to `payload_len` payload bytes, stopping early at end of data.
/// Returns the bytes plus `Err` when the payload came up short. Growth is
/// driven by bytes actually present, so a hostile length never causes a
/// proportional allocation.
fn read_payload<R: Read>(
    d: &mut Decoder<'_, R>,
    payload_len: u64,
) -> ClopResult<(Vec<u8>, ClopResult<()>)> {
    match d.read_up_to(payload_len) {
        Ok(payload) => {
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
        Err(e) => Err(e),
    }
}

/// Read a trace written by [`write_trace`], or a legacy v0/v1 file. Any
/// corruption — truncation, bit-rot, hostile
/// varints or counts — yields a structured error, never a panic, and
/// memory use is bounded by the input actually read.
pub fn read_trace<R: Read>(r: &mut R) -> ClopResult<Trace> {
    let mut d = Decoder::new(r);
    match read_header(&mut d)? {
        Header::V0 => {
            let n = d.varint("event count")?;
            decode_events(&mut d, n, false).map_err(|(_, e)| e)
        }
        Header::V1 { payload_len, crc } => {
            d.begin_crc();
            let payload_start = d.offset;
            let n = d.varint("event count")?;
            // Each event takes at least one payload byte, so a count
            // exceeding the payload length is corrupt — reject before
            // decoding (and before any allocation proportional to it).
            if n > payload_len {
                return Err(ClopError::trace_decode(
                    d.offset,
                    format!(
                        "event count {} exceeds payload size {} bytes",
                        n, payload_len
                    ),
                ));
            }
            let trace = decode_events(&mut d, n, false).map_err(|(_, e)| e)?;
            let consumed = d.offset - payload_start;
            if consumed != payload_len {
                return Err(ClopError::trace_decode(
                    d.offset,
                    format!(
                        "payload length mismatch: header declares {} bytes, events span {}",
                        payload_len, consumed
                    ),
                ));
            }
            let computed = d.crc().unwrap_or(0);
            if computed != crc {
                return Err(ClopError::trace_decode(
                    d.offset,
                    format!(
                        "payload checksum mismatch: stored {:08x}, computed {:08x}",
                        crc, computed
                    ),
                ));
            }
            Ok(trace)
        }
        Header::V2 { payload_len, crc } => {
            let mut d2 = d;
            let (payload, complete) = read_payload(&mut d2, payload_len)?;
            complete?;
            let computed = clop_util::crc32(&payload);
            if computed != crc {
                return Err(ClopError::trace_decode(
                    d2.offset,
                    format!(
                        "payload checksum mismatch: stored {:08x}, computed {:08x}",
                        crc, computed
                    ),
                ));
            }
            let (ids, _tenants) = crate::columnar::decode_all(&payload)?;
            Ok(ids.into_iter().collect())
        }
    }
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
    /// Whether the payload checksum verified. `None` for v0 files (no
    /// checksum) and for payloads whose decode stopped early.
    pub crc_ok: Option<bool>,
    /// The decode error that ended salvage, if any.
    pub error: Option<ClopError>,
}

impl RepairReport {
    /// True when nothing was dropped and the checksum (if present) held.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.error.is_none() && self.crc_ok != Some(false)
    }
}

/// Read a trace, salvaging the longest cleanly decodable event prefix of
/// a damaged payload instead of failing outright.
///
/// The container header must still be intact (otherwise the payload
/// cannot even be located — that returns `Err` as usual). Payload damage
/// — a mid-stream decode error, a short payload, a checksum mismatch —
/// ends the salvage and is recorded in the [`RepairReport`].
pub fn read_trace_repaired<R: Read>(r: &mut R) -> ClopResult<(Trace, RepairReport)> {
    let mut d = Decoder::new(r);
    let header = read_header(&mut d)?;
    let (is_v1, payload_len, stored_crc) = match header {
        Header::V0 => (false, u64::MAX, 0),
        Header::V1 { payload_len, crc } => (true, payload_len, crc),
        Header::V2 { payload_len, crc } => {
            // Columnar payloads salvage at block granularity: keep the
            // longest CRC-clean block prefix.
            let (payload, complete) = read_payload(&mut d, payload_len)?;
            let (ids, _tenants, salvage) = crate::columnar::decode_salvage(&payload);
            let crc_ok = if complete.is_err() {
                Some(false)
            } else {
                Some(clop_util::crc32(&payload) == crc)
            };
            let trace: Trace = ids.into_iter().collect();
            return Ok((
                trace,
                RepairReport {
                    declared: salvage.declared,
                    decoded: salvage.decoded,
                    dropped: salvage.declared.saturating_sub(salvage.decoded),
                    crc_ok,
                    error: salvage.error.or_else(|| complete.err()),
                },
            ));
        }
    };
    if is_v1 {
        d.begin_crc();
    }
    let payload_start = d.offset;
    let declared = match d.varint("event count") {
        Ok(n) => n,
        Err(e) => {
            // No count ⇒ nothing salvageable.
            return Ok((
                Trace::new(),
                RepairReport {
                    declared: 0,
                    decoded: 0,
                    dropped: 0,
                    crc_ok: None,
                    error: Some(e),
                },
            ));
        }
    };
    let (trace, error) = match decode_events(&mut d, declared, true) {
        Ok(t) => (t, None),
        Err((t, e)) => (t, Some(e)),
    };
    let decoded = trace.len() as u64;
    let consumed = d.offset - payload_start;
    let crc_ok = if !is_v1 || error.is_some() {
        None
    } else if consumed != payload_len {
        Some(false)
    } else {
        Some(d.crc().unwrap_or(0) == stored_crc)
    };
    Ok((
        trace,
        RepairReport {
            declared,
            decoded,
            dropped: declared.saturating_sub(decoded),
            crc_ok,
            error,
        },
    ))
}

/// Write a trace in the container with a columnar payload (version 2):
/// magic, version, payload length, CRC-32, then the blocks laid out by
/// [`crate::columnar`].
pub fn write_trace<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    let payload = crate::columnar::encode(
        trace.events(),
        crate::columnar::Columns::default(),
        crate::columnar::DEFAULT_BLOCK_EVENTS,
    )
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
    use clop_oracle::legacy;

    fn ids(t: &Trace) -> Vec<u32> {
        t.events().iter().map(|b| b.0).collect()
    }

    fn v2(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&mut buf, t).unwrap();
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
    fn legacy_files_still_read() {
        let t = Trace::from_indices([5, 5, 9, 0, 1_000_000, 3, 3, 3]);
        let v0 = legacy::cltc_v0(&ids(&t));
        assert_eq!(&v0[..4], MAGIC_V0);
        assert_eq!(read_trace(&mut v0.as_slice()).unwrap(), t);
        let v1 = legacy::cltc_v1(&ids(&t));
        assert_eq!(v1[4], VERSION_ROW);
        assert_eq!(read_trace(&mut v1.as_slice()).unwrap(), t);
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
        assert!(err.to_string().contains("magic"));
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
        let t = Trace::from_indices([1, 2, 3, 1_000_000]);
        for buf in [legacy::cltc_v1(&ids(&t)), v2(&t)] {
            for k in 0..buf.len() {
                let err = read_trace(&mut &buf[..k]).unwrap_err();
                assert!(
                    matches!(err, ClopError::TraceDecode { .. } | ClopError::Io { .. }),
                    "v{} prefix {}: {}",
                    buf[4],
                    k,
                    err
                );
            }
        }
    }

    #[test]
    fn rejects_every_single_bit_flip() {
        let buf = legacy::cltc_v1(&[7, 3, 3, 900, 7]);
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
    fn hostile_event_count_fails_without_allocation() {
        // A v1 header declaring 2^60 events in a 1-byte payload must fail
        // on the count check, not attempt to decode (or allocate).
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION_ROW);
        let mut payload = Vec::new();
        write_varint(&mut payload, 1u64 << 60).unwrap();
        write_varint(&mut buf, payload.len() as u64).unwrap();
        buf.extend_from_slice(&clop_util::crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("exceeds payload size"), "{err}");
    }

    #[test]
    fn hostile_v0_count_fails_at_eof() {
        // The legacy path has no payload length; a huge count simply hits
        // end-of-data after the bytes that exist, without preallocating.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V0);
        write_varint(&mut buf, u64::MAX >> 1).unwrap();
        buf.extend_from_slice(&[0x02, 0x02, 0x02]); // three real events
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("end of data"), "{err}");
    }

    #[test]
    fn repaired_read_salvages_event_prefix_of_v1() {
        let t = Trace::from_indices([4, 9, 2, 2, 7, 100, 3]);
        let mut buf = legacy::cltc_v1(&ids(&t));
        // Chop off the last two payload bytes: header intact, payload torn.
        buf.truncate(buf.len() - 2);
        let (salvaged, report) = read_trace_repaired(&mut buf.as_slice()).unwrap();
        assert!(report.dropped > 0);
        assert!(!report.is_clean());
        assert_eq!(report.decoded as usize, salvaged.len());
        // The salvaged events are a prefix of the original.
        let orig: Vec<BlockId> = t.events().to_vec();
        assert_eq!(&orig[..salvaged.len()], salvaged.events());
    }

    #[test]
    fn repaired_read_of_clean_file_is_clean() {
        let t = Trace::from_indices([1, 5, 1]);
        for buf in [legacy::cltc_v1(&ids(&t)), v2(&t)] {
            let (salvaged, report) = read_trace_repaired(&mut buf.as_slice()).unwrap();
            assert_eq!(salvaged, t);
            assert!(report.is_clean());
            assert_eq!(report.crc_ok, Some(true));
            assert_eq!(report.dropped, 0);
        }
    }

    #[test]
    fn repaired_read_flags_v1_crc_damage() {
        let mut buf = legacy::cltc_v1(&[1, 5, 1, 9]);
        let last = buf.len() - 1;
        buf[last] ^= 0x01; // flip a payload bit that still decodes
        let (_, report) = read_trace_repaired(&mut buf.as_slice()).unwrap();
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
            assert_eq!(report.crc_ok, Some(true));
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
        assert_eq!(report.crc_ok, Some(false));
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
        assert_eq!(report.crc_ok, Some(false));
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
