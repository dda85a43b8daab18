//! The trace formats no writer emits are typed rejections at every reader.
//!
//! The readers accept exactly the bytes the writers emit: a CLTC version-2
//! container around a columnar payload with flags 0, alone or inside a
//! CLSH shard. Each fixture below holds real bytes of a format outside
//! that set, recorded from the writers that once produced it. Every entry
//! point that applies — `read_trace`, `read_trace_repaired`, `read_shard`,
//! `read_shard_repaired` and the daemon's `admit` — must refuse it with a
//! `ClopError::TraceDecode` naming what it found, never a panic and never
//! a salvaged (empty) trace.

use clop_serve::{admit, Admission};
use clop_trace::{read_shard, read_shard_repaired, read_trace, read_trace_repaired};
use clop_util::ClopError;

/// Version 0: magic `CLT1`, then the row payload, no checksum.
const V0: [u8; 15] = [
    67, 76, 84, 49, 6, 10, 0, 8, 17, 128, 137, 122, 249, 136, 122,
];

/// Version 1: magic `CLTC`, version 1, length, CRC-32, row payload.
const V1: [u8; 21] = [
    67, 76, 84, 67, 1, 11, 84, 35, 7, 217, 6, 10, 0, 8, 17, 128, 137, 122, 249, 136, 122,
];

/// A CLSH shard (seq 7, core 1..4) whose payload is a version-1 container.
const SHARD_V1: [u8; 29] = [
    67, 76, 83, 72, 1, 7, 1, 4, 207, 58, 120, 228, 67, 76, 84, 67, 1, 7, 195, 204, 50, 160, 5, 8,
    10, 13, 10, 202, 4,
];

/// Version 2 with flag bit 0: every block carries a tenant column.
const V2_TENANTS: [u8; 58] = [
    67, 76, 84, 67, 2, 48, 143, 103, 189, 71, 6, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 32,
    0, 0, 0, 6, 0, 0, 0, 10, 0, 0, 0, 249, 97, 198, 208, 10, 0, 8, 17, 128, 137, 122, 249, 136,
    122, 1, 1, 2, 2, 3, 3,
];

/// Version 2 with flag bit 1: every block carries a core-mark bitmap.
const V2_CORE: [u8; 53] = [
    67, 76, 84, 67, 2, 43, 135, 130, 167, 194, 6, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 32,
    0, 0, 0, 6, 0, 0, 0, 10, 0, 0, 0, 85, 243, 109, 4, 10, 0, 8, 17, 128, 137, 122, 249, 136, 122,
    45,
];

/// `container` inside a CLSH shard, behind the 12-byte shard header of
/// [`SHARD_V1`] (magic, version, `seq`/core varints, header CRC).
fn in_shard(container: &[u8]) -> Vec<u8> {
    [&SHARD_V1[..12], container].concat()
}

/// `result` is a `TraceDecode` error whose message contains `found`.
fn assert_rejects<T>(result: Result<T, ClopError>, found: &str, entry: &str) {
    match result {
        Err(e @ ClopError::TraceDecode { .. }) => {
            assert!(e.to_string().contains(found), "{}: {}", entry, e)
        }
        Err(e) => panic!("{}: wrong error variant {:?}", entry, e),
        Ok(_) => panic!("{}: accepted bytes it must reject", entry),
    }
}

/// Drive a shard through the shard readers and the daemon's admission.
fn assert_shard_rejected(shard: &[u8], found: &str) {
    assert_rejects(read_shard(&mut &shard[..]), found, "read_shard");
    assert_rejects(
        read_shard_repaired(&mut &shard[..]),
        found,
        "read_shard_repaired",
    );
    for max_drop_frac in [0.0, 1.0] {
        match admit(shard, max_drop_frac) {
            Admission::RejectDecode { reason } => assert!(reason.contains(found), "{}", reason),
            other => panic!("admit at {}: {:?}", max_drop_frac, other),
        }
    }
}

/// Drive a container through the trace readers, then inside a shard.
fn assert_container_rejected(container: &[u8], found: &str) {
    assert_rejects(read_trace(&mut &container[..]), found, "read_trace");
    assert_rejects(
        read_trace_repaired(&mut &container[..]),
        found,
        "read_trace_repaired",
    );
    assert_shard_rejected(&in_shard(container), found);
}

#[test]
fn version_0_magic_is_rejected() {
    assert_container_rejected(&V0, "magic \"CLT1\"");
}

#[test]
fn version_1_container_is_rejected() {
    assert_container_rejected(&V1, "version 1");
}

#[test]
fn shard_embedding_a_version_1_container_is_rejected() {
    assert_shard_rejected(&SHARD_V1, "version 1");
}

#[test]
fn version_2_payload_with_flag_bits_is_rejected() {
    assert_container_rejected(&V2_TENANTS, "flag bits 0x1");
    assert_container_rejected(&V2_CORE, "flag bits 0x2");
}
