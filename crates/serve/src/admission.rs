//! Shard admission: decode, salvage accounting, and the drop-fraction
//! policy.
//!
//! Every ingested shard — from the socket or the directory watcher —
//! passes through [`admit`]. The decoder is the salvaging CLSH reader
//! (`read_shard_repaired`), so a shard with a damaged payload still
//! yields its longest clean event prefix plus a `RepairReport`. Policy:
//!
//! * clean report → accept;
//! * checksum mismatch with **no** visible damage (full decode, nothing
//!   dropped) → reject: the corruption is silent and the events cannot be
//!   trusted;
//! * visible damage (decode error and/or dropped records) → accept only
//!   while `dropped / declared <= max_drop_frac`, because a salvaged
//!   prefix shifts analysis results and the operator must opt in to that
//!   loss explicitly.

use clop_trace::{read_shard_repaired, RepairReport, ShardFile};

/// Outcome of admitting one shard's bytes.
#[derive(Debug)]
pub enum Admission {
    /// The shard may be folded. `salvaged` is true when the decode was
    /// not clean but passed the drop-fraction policy.
    Accept {
        /// The decoded shard.
        shard: ShardFile,
        /// True when damage was salvaged (counted separately in stats).
        salvaged: bool,
        /// The decoder's repair accounting.
        report: RepairReport,
    },
    /// The shard did not decode at all (no repair accounting exists).
    RejectDecode {
        /// Human-readable decode error.
        reason: String,
    },
    /// The shard decoded (possibly partially) but the salvage policy
    /// rejected it.
    RejectSalvage {
        /// Human-readable policy reason.
        reason: String,
        /// The decoder's repair accounting.
        report: RepairReport,
    },
}

/// Decode one shard and apply the salvage policy.
pub fn admit(bytes: &[u8], max_drop_frac: f64) -> Admission {
    let (shard, report) = match read_shard_repaired(&mut &bytes[..]) {
        Ok(ok) => ok,
        Err(e) => {
            return Admission::RejectDecode {
                reason: e.to_string(),
            }
        }
    };
    if report.is_clean() {
        return Admission::Accept {
            shard,
            salvaged: false,
            report,
        };
    }
    if report.error.is_none() && report.dropped == 0 {
        // Fully decoded, nothing dropped, but the checksum disagrees:
        // silently corrupt events.
        return Admission::RejectSalvage {
            reason: "payload checksum mismatch with no salvageable damage".to_string(),
            report,
        };
    }
    let frac = if report.declared == 0 {
        1.0
    } else {
        report.dropped as f64 / report.declared as f64
    };
    if frac <= max_drop_frac {
        Admission::Accept {
            shard,
            salvaged: true,
            report,
        }
    } else {
        Admission::RejectSalvage {
            reason: format!(
                "salvage dropped {}/{} accesses ({:.4} > allowed {:.4})",
                report.dropped, report.declared, frac, max_drop_frac
            ),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_oracle::legacy;
    use clop_trace::shardfile::write_shard;
    use clop_trace::TrimmedTrace;

    fn shard_bytes(ids: &[u32]) -> Vec<u8> {
        let t = TrimmedTrace::from_indices(ids.iter().copied());
        let mut buf = Vec::new();
        write_shard(&mut buf, 0, 0, t.len(), &t).unwrap();
        buf
    }

    /// A shard with a legacy CLTC v1 payload, whose salvage drops whole
    /// events (a v2 payload salvages whole blocks).
    fn v1_shard_bytes(ids: &[u32]) -> Vec<u8> {
        legacy::clsh_v1(0, 0, ids.len(), ids)
    }

    #[test]
    fn clean_shard_is_accepted() {
        let bytes = shard_bytes(&[1, 2, 3, 1, 2]);
        match admit(&bytes, 0.0) {
            Admission::Accept {
                salvaged, report, ..
            } => {
                assert!(!salvaged);
                assert!(report.is_clean());
                assert_eq!(report.declared, 5);
            }
            other => panic!("expected accept, got {:?}", other),
        }
    }

    #[test]
    fn garbage_is_a_decode_reject() {
        assert!(matches!(
            admit(b"not a shard at all", 1.0),
            Admission::RejectDecode { .. }
        ));
    }

    #[test]
    fn truncated_payload_respects_drop_budget() {
        // Truncating the embedded CLTC payload drops trailing events but
        // leaves the headers intact — the salvaging path.
        let bytes = v1_shard_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let truncated = &bytes[..bytes.len() - 2];
        match admit(truncated, 0.0) {
            Admission::RejectSalvage { report, .. } => assert!(report.dropped > 0),
            other => panic!("expected salvage reject at frac 0, got {:?}", other),
        }
        match admit(truncated, 1.0) {
            Admission::Accept {
                salvaged, report, ..
            } => {
                assert!(salvaged);
                assert!(report.dropped > 0);
                assert!(report.decoded < report.declared);
            }
            other => panic!("expected salvage accept at frac 1, got {:?}", other),
        }
    }

    #[test]
    fn salvaged_core_is_clamped_to_decoded_events() {
        let bytes = v1_shard_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        if let Admission::Accept { shard, .. } = admit(&bytes[..bytes.len() - 2], 1.0) {
            assert!(shard.core_end <= shard.trace.len());
            assert!(shard.core_start <= shard.core_end);
        } else {
            panic!("expected accept");
        }
    }
}
