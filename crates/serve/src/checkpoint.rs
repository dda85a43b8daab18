//! Crash-safe state checkpoints: artifact-then-marker plus a rotated
//! fallback generation and quarantine on resume.
//!
//! A checkpoint of version `v` is up to three files in the checkpoint
//! directory:
//!
//! ```text
//! <dir>/<v>.state        the canonical VersionState snapshot
//! <dir>/<v>.state.prev   the previous snapshot generation (rotation)
//! <dir>/<v>.done         the completion marker ("done\n")
//! ```
//!
//! `state` and the marker are written with [`clop_util::atomic_write`]
//! (temp file + fsync + rename), state first, marker second; before the
//! new state lands, the previous complete state is renamed to `.prev`. A
//! `kill -9` at any instant therefore leaves one of four observable
//! states, all safe:
//!
//! * nothing renamed yet — the previous checkpoint is what resume sees;
//! * old state rotated to `.prev`, new state not yet renamed — resume
//!   falls back to `.prev`;
//! * new state renamed, marker not yet — the marker on disk is the *old*
//!   one, but the state file is complete (rename is atomic) and strictly
//!   newer, so resuming from it is still correct;
//! * both renamed — the new checkpoint.
//!
//! Resume never trusts a state file without a marker for its version. A
//! marked state that fails to decode — a torn write under a non-atomic
//! filesystem, bit rot, an operator's stray edit, a snapshot format this
//! build no longer reads — or that was folded at other windows (affinity
//! `w_max`, TRG `window`) than this daemon's, is **quarantined** (renamed to
//! `<file>.quarantined`) rather than trusted or deleted, and resume falls
//! back to the newest remaining verifiable generation; convergence from an
//! older generation is restored by re-streaming, because absorption is
//! idempotent per shard sequence number.

use crate::config::valid_version;
use clop_core::incremental::{IncrementalStore, VersionState};
use clop_util::{atomic_write, ClopError, ClopResult};
use std::fs;
use std::path::{Path, PathBuf};

/// The state-file path of `version` under `dir`.
pub fn state_path(dir: &Path, version: &str) -> PathBuf {
    dir.join(format!("{}.state", version))
}

/// The rotated previous-generation state path of `version` under `dir`.
pub fn prev_path(dir: &Path, version: &str) -> PathBuf {
    dir.join(format!("{}.state.prev", version))
}

/// The marker-file path of `version` under `dir`.
pub fn marker_path(dir: &Path, version: &str) -> PathBuf {
    dir.join(format!("{}.done", version))
}

/// Write one version's checkpoint from its serialized snapshot: atomic
/// state file, then atomic marker. A complete previous checkpoint rotates
/// to `.prev` first. The daemon calls this under the version's state lock,
/// so two snapshots of one version never land out of order.
pub fn checkpoint_bytes(dir: &Path, version: &str, snapshot: &[u8]) -> ClopResult<()> {
    fs::create_dir_all(dir).map_err(|e| ClopError::io("create checkpoint directory", &e))?;
    let state = state_path(dir, version);
    // Only a *marked* (complete) state is worth keeping as the fallback
    // generation; rename is atomic, so a crash here leaves either the old
    // state in place or a valid `.prev`.
    if state.exists() && marker_path(dir, version).exists() {
        fs::rename(&state, prev_path(dir, version))
            .map_err(|e| ClopError::io("rotate previous checkpoint", &e))?;
    }
    atomic_write(&state, snapshot).map_err(|e| ClopError::io("write checkpoint state", &e))?;
    atomic_write(&marker_path(dir, version), b"done\n")
        .map_err(|e| ClopError::io("write checkpoint marker", &e))?;
    Ok(())
}

/// Remove every checkpoint artifact of `version` (state, `.prev`, marker,
/// and any quarantined leftovers) — the GC eviction path. Missing files
/// are fine; other I/O errors are reported.
pub fn remove_checkpoint(dir: &Path, version: &str) -> ClopResult<u64> {
    let mut freed = 0u64;
    for path in [
        state_path(dir, version),
        prev_path(dir, version),
        marker_path(dir, version),
        quarantine_name(&state_path(dir, version)),
        quarantine_name(&prev_path(dir, version)),
    ] {
        match fs::metadata(&path) {
            Ok(md) => {
                freed += md.len();
                fs::remove_file(&path).map_err(|e| ClopError::io("remove checkpoint file", &e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(ClopError::io("stat checkpoint file", &e)),
        }
    }
    Ok(freed)
}

/// The quarantine name of a checkpoint file.
fn quarantine_name(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".quarantined");
    PathBuf::from(name)
}

/// What [`resume_all`] did, for the daemon's counters and logs.
#[derive(Debug, Default)]
pub struct ResumeReport {
    /// Versions restored into the store, sorted.
    pub restored: Vec<String>,
    /// Checkpoint files quarantined because they failed to decode or
    /// were folded at other windows than the store's.
    pub quarantined: Vec<PathBuf>,
    /// Versions that resumed from the `.prev` generation because the
    /// newest state was missing or quarantined.
    pub fell_back: Vec<String>,
    /// Versions whose every generation failed: nothing restored.
    pub lost: Vec<String>,
}

/// Load every marked checkpoint under `dir` into `store`, newest
/// verifiable generation first. A missing directory restores nothing. A
/// marked state that fails to read or decode, or that the store refuses
/// because it was folded at other windows, is quarantined and the
/// `.prev` generation is tried; when every generation fails the version
/// is reported as lost instead of aborting the daemon — re-streaming
/// rebuilds it from scratch.
pub fn resume_all(dir: &Path, store: &IncrementalStore) -> ClopResult<ResumeReport> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ResumeReport::default()),
        Err(e) => return Err(ClopError::io("read checkpoint directory", &e)),
    };
    let mut versions = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| ClopError::io("read checkpoint directory entry", &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(version) = name.strip_suffix(".done") else {
            continue;
        };
        if valid_version(version) {
            versions.push(version.to_string());
        }
    }
    versions.sort_unstable();
    let mut report = ResumeReport::default();
    for version in versions {
        let mut restored = false;
        for (generation, path) in [
            (0usize, state_path(dir, &version)),
            (1usize, prev_path(dir, &version)),
        ] {
            let restore = |st: VersionState| store.restore(&version, st);
            match load_state(&path).and_then(|st| st.map(restore).transpose()) {
                Ok(Some(_)) => {
                    if generation > 0 {
                        report.fell_back.push(version.clone());
                    }
                    report.restored.push(version.clone());
                    restored = true;
                    break;
                }
                Ok(None) => {} // generation absent; try the next
                Err(_) => {
                    // Torn, corrupt or folded at other windows: set it
                    // aside for post-mortem, never trust it, never delete
                    // evidence.
                    let _ = fs::rename(&path, quarantine_name(&path));
                    report.quarantined.push(path);
                }
            }
        }
        if !restored {
            report.lost.push(version);
        }
    }
    report.restored.sort_unstable();
    Ok(report)
}

/// Read and decode one checkpoint generation. `Ok(None)` when the file
/// does not exist; `Err` when it exists but cannot be trusted.
fn load_state(path: &Path) -> ClopResult<Option<VersionState>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ClopError::io("read checkpoint state", &e)),
    };
    VersionState::from_bytes(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_core::incremental::AnalysisParams;
    use clop_trace::shardfile::{read_shard, split_shards_columnar};
    use clop_trace::TrimmedTrace;
    use clop_util::fault::seeded_corruptions;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("clop-serve-ckpt-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn folded_state(seed: u64) -> VersionState {
        let p = AnalysisParams::default();
        let mut st = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        let t = TrimmedTrace::from_indices((0..300).map(|_| (next() % 9) as u32));
        let mut state = VersionState::new(p);
        for buf in split_shards_columnar(&t, 3, p.affinity.w_max, p.trg.window) {
            state
                .absorb_shard(&read_shard(&mut buf.as_slice()).unwrap())
                .unwrap();
        }
        state
    }

    #[test]
    fn checkpoint_and_resume_round_trip() {
        let dir = tmp_dir("round-trip");
        let state = folded_state(1);
        let bytes = state.to_bytes();
        checkpoint_bytes(&dir, "v1", &state.to_bytes()).unwrap();

        let store = IncrementalStore::new(AnalysisParams::default());
        let report = resume_all(&dir, &store).unwrap();
        assert_eq!(report.restored, vec!["v1".to_string()]);
        assert!(report.quarantined.is_empty() && report.fell_back.is_empty());
        let arc = store.state("v1");
        assert_eq!(arc.lock().unwrap().to_bytes(), bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_resumes_nothing() {
        let store = IncrementalStore::new(AnalysisParams::default());
        let report = resume_all(Path::new("/nonexistent/clop-ckpt"), &store).unwrap();
        assert!(report.restored.is_empty());
        assert!(store.is_empty());
    }

    #[test]
    fn unmarked_state_is_ignored() {
        let dir = tmp_dir("unmarked");
        fs::create_dir_all(&dir).unwrap();
        fs::write(state_path(&dir, "v1"), folded_state(2).to_bytes()).unwrap();
        let store = IncrementalStore::new(AnalysisParams::default());
        assert!(resume_all(&dir, &store).unwrap().restored.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_checkpoint_rotates_a_fallback_generation() {
        let dir = tmp_dir("rotate");
        let old = folded_state(7);
        checkpoint_bytes(&dir, "v1", &old.to_bytes()).unwrap();
        let newer = folded_state(8);
        checkpoint_bytes(&dir, "v1", &newer.to_bytes()).unwrap();
        assert_eq!(fs::read(state_path(&dir, "v1")).unwrap(), newer.to_bytes());
        assert_eq!(fs::read(prev_path(&dir, "v1")).unwrap(), old.to_bytes());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_state_is_quarantined_and_prev_resumes() {
        let dir = tmp_dir("quarantine-fallback");
        let old = folded_state(3);
        checkpoint_bytes(&dir, "v1", &old.to_bytes()).unwrap();
        let newer = folded_state(4);
        checkpoint_bytes(&dir, "v1", &newer.to_bytes()).unwrap();
        // Every seeded corruption of the newest state must quarantine it
        // and fall back to the intact previous generation.
        let clean = newer.to_bytes();
        for c in seeded_corruptions(41, &clean, 25) {
            fs::write(state_path(&dir, "v1"), &c.data).unwrap();
            let _ = fs::remove_file(quarantine_name(&state_path(&dir, "v1")));
            let store = IncrementalStore::new(AnalysisParams::default());
            let report = resume_all(&dir, &store).unwrap();
            if report.quarantined.is_empty() {
                // A corruption the decoder tolerates (e.g. a flip inside
                // slack the format never reads) may still load; any loaded
                // state must then be *verifiably decoded*, not garbage.
                assert_eq!(report.restored, vec!["v1".to_string()]);
            } else {
                assert_eq!(
                    report.fell_back,
                    vec!["v1".to_string()],
                    "corruption {} must fall back",
                    c.description
                );
                let arc = store.state("v1");
                assert_eq!(arc.lock().unwrap().to_bytes(), old.to_bytes());
                assert!(quarantine_name(&state_path(&dir, "v1")).exists());
                // Restore the rotated generation for the next iteration.
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_folded_at_other_parameters_is_quarantined() {
        let dir = tmp_dir("other-params");
        let mut p = AnalysisParams::default();
        p.affinity.w_max = 8;
        let ours = folded_state(11);
        checkpoint_bytes(&dir, "v1", &ours.to_bytes()).unwrap();
        checkpoint_bytes(&dir, "v1", &VersionState::new(p).to_bytes()).unwrap();
        // The newest generation is foreign: set aside, `.prev` resumes.
        let store = IncrementalStore::new(AnalysisParams::default());
        let report = resume_all(&dir, &store).unwrap();
        assert_eq!(report.quarantined, vec![state_path(&dir, "v1")]);
        assert_eq!(report.fell_back, vec!["v1".to_string()]);
        assert_eq!(
            store.state("v1").lock().unwrap().to_bytes(),
            ours.to_bytes()
        );
        // A store at the other parameters finds no generation it can use.
        let store = IncrementalStore::new(p);
        let report = resume_all(&dir, &store).unwrap();
        assert_eq!(report.quarantined, vec![prev_path(&dir, "v1")]);
        assert_eq!(report.lost, vec!["v1".to_string()]);
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_differing_only_in_query_time_parameters_resumes() {
        let dir = tmp_dir("query-time-params");
        let ours = folded_state(13);
        checkpoint_bytes(&dir, "v1", &ours.to_bytes()).unwrap();
        let mut p = *ours.params();
        p.affinity.w_min += 1;
        p.trg.slots += 3;
        let store = IncrementalStore::new(p);
        let report = resume_all(&dir, &store).unwrap();
        assert_eq!(report.restored, vec!["v1".to_string()]);
        assert!(report.quarantined.is_empty() && report.fell_back.is_empty());
        let arc = store.state("v1");
        let got = arc.lock().unwrap();
        assert_eq!(got.params(), &p);
        assert_eq!(got.shards_absorbed(), ours.shards_absorbed());
        assert_eq!(got.stats(), ours.stats());
        assert_eq!(got.trg_state(), ours.trg_state());
        assert_eq!(got.affinity_state(), ours.affinity_state());
        drop(got);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_of_the_only_state_reports_lost() {
        let dir = tmp_dir("lost");
        let state = folded_state(5);
        let clean = state.to_bytes();
        for cut in [0usize, 1, clean.len() / 2, clean.len() - 1] {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            fs::write(state_path(&dir, "v1"), &clean[..cut]).unwrap();
            fs::write(marker_path(&dir, "v1"), b"done\n").unwrap();
            let store = IncrementalStore::new(AnalysisParams::default());
            let report = resume_all(&dir, &store).unwrap();
            assert_eq!(report.lost, vec!["v1".to_string()], "cut at {}", cut);
            assert!(store.is_empty());
            assert!(quarantine_name(&state_path(&dir, "v1")).exists());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_state_with_marker_falls_back_to_prev() {
        // Crash window: old state rotated to .prev, new state never
        // renamed in. The marker exists from the previous checkpoint.
        let dir = tmp_dir("prev-only");
        let old = folded_state(6);
        checkpoint_bytes(&dir, "v1", &old.to_bytes()).unwrap();
        fs::rename(state_path(&dir, "v1"), prev_path(&dir, "v1")).unwrap();
        let store = IncrementalStore::new(AnalysisParams::default());
        let report = resume_all(&dir, &store).unwrap();
        assert_eq!(report.restored, vec!["v1".to_string()]);
        assert_eq!(report.fell_back, vec!["v1".to_string()]);
        assert!(
            report.quarantined.is_empty(),
            "nothing corrupt to set aside"
        );
        let arc = store.state("v1");
        assert_eq!(arc.lock().unwrap().to_bytes(), old.to_bytes());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_state_with_stale_marker_still_resumes() {
        // Simulates a crash between the state rename and the marker
        // rename: the state on disk is one checkpoint ahead of the
        // marker. Resume must load it (the state file is complete).
        let dir = tmp_dir("stale-marker");
        let old = folded_state(3);
        checkpoint_bytes(&dir, "v1", &old.to_bytes()).unwrap();
        let mut newer = folded_state(3);
        let t = TrimmedTrace::from_indices([1u32, 2, 3, 4, 5, 1, 2]);
        let p = *newer.params();
        for buf in split_shards_columnar(&t, 1, p.affinity.w_max, p.trg.window) {
            let mut sf = read_shard(&mut buf.as_slice()).unwrap();
            sf.seq += 1000; // a later shard the old checkpoint lacks
            newer.absorb_shard(&sf).unwrap();
        }
        atomic_write(&state_path(&dir, "v1"), &newer.to_bytes()).unwrap();
        // (crash here — marker never rewritten)
        let store = IncrementalStore::new(AnalysisParams::default());
        let report = resume_all(&dir, &store).unwrap();
        assert_eq!(report.restored, vec!["v1".to_string()]);
        let arc = store.state("v1");
        assert_eq!(arc.lock().unwrap().to_bytes(), newer.to_bytes());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_checkpoint_frees_every_generation() {
        let dir = tmp_dir("remove");
        let a = folded_state(9);
        checkpoint_bytes(&dir, "v1", &a.to_bytes()).unwrap();
        checkpoint_bytes(&dir, "v1", &folded_state(10).to_bytes()).unwrap();
        checkpoint_bytes(&dir, "keep", &a.to_bytes()).unwrap();
        let freed = remove_checkpoint(&dir, "v1").unwrap();
        assert!(freed > 0);
        assert!(!state_path(&dir, "v1").exists());
        assert!(!prev_path(&dir, "v1").exists());
        assert!(!marker_path(&dir, "v1").exists());
        assert!(
            state_path(&dir, "keep").exists(),
            "other versions untouched"
        );
        assert_eq!(remove_checkpoint(&dir, "v1").unwrap(), 0, "idempotent");
        fs::remove_dir_all(&dir).unwrap();
    }
}
