//! Byte encoders for the trace containers that are read but no longer
//! written.
//!
//! The release libraries write only CLTC v2 (columnar payload), but their
//! readers still accept every older file. These encoders reproduce the
//! retired writers byte for byte, so the reader tests keep feeding real
//! legacy files:
//!
//! * [`cltc_v0`] — magic `CLT1`, then the row payload, no checksum;
//! * [`cltc_v1`] — magic `CLTC`, version 1, payload length (varint),
//!   CRC-32 of the payload (u32 LE), then the row payload;
//! * [`clsh_v1`] — a CLSH shard (magic, version 1, the `seq`/core-range
//!   varints and their CRC-32) whose embedded container is [`cltc_v1`].
//!
//! The row payload is the event count, then each id as a zigzag-varint
//! delta against the previous id (the first against 0).
//!
//! Everything here takes plain `u32` ids and returns bytes. clop-trace's
//! own unit tests link a second copy of clop-trace through this crate, so
//! a clop-trace type in these signatures would not match theirs.

/// Append an unsigned LEB128 varint.
fn varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The row payload: event count, then zigzag-varint id deltas.
fn row_payload(ids: &[u32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(ids.len() + 8);
    varint(&mut payload, ids.len() as u64);
    let mut prev = 0i64;
    for &id in ids {
        let delta = i64::from(id) - prev;
        varint(&mut payload, ((delta << 1) ^ (delta >> 63)) as u64);
        prev = i64::from(id);
    }
    payload
}

/// A CLTC v0 file (magic `CLT1`, no version byte, no checksum).
pub fn cltc_v0(ids: &[u32]) -> Vec<u8> {
    let mut out = b"CLT1".to_vec();
    out.extend_from_slice(&row_payload(ids));
    out
}

/// A CLTC v1 container: the row payload behind a length and a CRC-32.
pub fn cltc_v1(ids: &[u32]) -> Vec<u8> {
    let payload = row_payload(ids);
    let mut out = b"CLTC".to_vec();
    out.push(1);
    varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&clop_util::crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A CLSH shard file embedding a [`cltc_v1`] segment. `core_start` and
/// `core_end` index into `segment`, which must be trimmed for a reader to
/// accept it.
pub fn clsh_v1(seq: u64, core_start: usize, core_end: usize, segment: &[u32]) -> Vec<u8> {
    let mut header = Vec::new();
    varint(&mut header, seq);
    varint(&mut header, core_start as u64);
    varint(&mut header, core_end as u64);
    let mut out = b"CLSH".to_vec();
    out.push(1);
    out.extend_from_slice(&header);
    out.extend_from_slice(&clop_util::crc32(&header).to_le_bytes());
    out.extend_from_slice(&cltc_v1(segment));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_trace::{read_shard, read_trace};

    /// Bytes the retired writers produced for these inputs, recorded
    /// before they were deleted.
    const IDS: [u32; 6] = [5, 5, 9, 0, 1_000_000, 3];
    const V0: [u8; 15] = [
        67, 76, 84, 49, 6, 10, 0, 8, 17, 128, 137, 122, 249, 136, 122,
    ];
    const V1: [u8; 21] = [
        67, 76, 84, 67, 1, 11, 84, 35, 7, 217, 6, 10, 0, 8, 17, 128, 137, 122, 249, 136, 122,
    ];
    const SEGMENT: [u32; 5] = [4, 9, 2, 7, 300];
    const SHARD: [u8; 29] = [
        67, 76, 83, 72, 1, 7, 1, 4, 207, 58, 120, 228, 67, 76, 84, 67, 1, 7, 195, 204, 50, 160, 5,
        8, 10, 13, 10, 202, 4,
    ];

    #[test]
    fn encoders_reproduce_the_retired_writers() {
        assert_eq!(cltc_v0(&IDS), V0);
        assert_eq!(cltc_v1(&IDS), V1);
        assert_eq!(clsh_v1(7, 1, 4, &SEGMENT), SHARD);
    }

    #[test]
    fn readers_decode_every_legacy_encoding() {
        for bytes in [cltc_v0(&IDS), cltc_v1(&IDS)] {
            let t = read_trace(&mut bytes.as_slice()).unwrap();
            let ids: Vec<u32> = t.events().iter().map(|b| b.0).collect();
            assert_eq!(ids, IDS);
        }
        let sf = read_shard(&mut clsh_v1(7, 1, 4, &SEGMENT).as_slice()).unwrap();
        assert_eq!((sf.seq, sf.core_start, sf.core_end), (7, 1, 4));
        let ids: Vec<u32> = sf.trace.iter().map(|b| b.0).collect();
        assert_eq!(ids, SEGMENT);
    }
}
