//! Registry-wide acceptance for the incremental analysis state: for every
//! workload in the experiment registry, folding the trace shard-by-shard
//! — in any delivery order, with duplicates — must reproduce the batch
//! pipeline's layout byte-for-byte, and the two arrival orders must leave
//! byte-identical state snapshots.
//!
//! This is the serving daemon's core correctness contract tested without
//! the daemon: `VersionState` is exactly what `clop-serve` folds into, so
//! agreement here plus the socket smoke test (`ci/serve_smoke.sh`) covers
//! the full path.

use code_layout_opt::core::incremental::{AnalysisParams, VersionState};
use code_layout_opt::core::{build_pipeline, Profile, ProfileConfig};
use code_layout_opt::trace::{read_shard, split_shards_columnar, ShardFile, TrimmedTrace};
use code_layout_opt::workloads::full_suite;

fn shard_files(t: &TrimmedTrace, pieces: usize, p: &AnalysisParams) -> Vec<ShardFile> {
    split_shards_columnar(t, pieces, p.affinity.w_max, p.trg.window)
        .iter()
        .map(|b| read_shard(&mut b.as_slice()).unwrap())
        .collect()
}

fn fold<'a>(files: impl Iterator<Item = &'a ShardFile>, p: AnalysisParams) -> VersionState {
    let mut state = VersionState::new(p);
    for sf in files {
        state.absorb_shard(sf).unwrap();
    }
    state
}

#[test]
fn registry_incremental_fold_matches_batch_in_any_order() {
    let params = AnalysisParams::default();
    let pp = params.pipeline_params();
    let mut checked = 0usize;
    for entry in full_suite() {
        let w = entry.workload();
        let profile = Profile::collect(&w.module, &ProfileConfig::with_exec(w.test_exec));
        for (trace, pipelines) in [
            (&profile.func_trace, ["function-affinity", "function-trg"]),
            (&profile.bb_trace, ["bb-affinity", "bb-trg"]),
        ] {
            if trace.is_empty() {
                continue;
            }
            let files = shard_files(trace, 5, &params);
            let forward = fold(files.iter(), params);
            let mut reversed = fold(files.iter().rev(), params);
            // Duplicate delivery (a crashed producer re-streaming) must
            // change nothing.
            for sf in &files {
                assert!(!reversed.absorb_shard(sf).unwrap());
            }
            assert_eq!(
                forward.to_bytes(),
                reversed.to_bytes(),
                "{}: arrival order leaked into the fold",
                w.name
            );
            let mut forward = forward;
            for pipeline in pipelines {
                let batch = build_pipeline(pipeline, &pp).unwrap().model.sequence(trace);
                assert_eq!(
                    forward.layout_query(pipeline).unwrap().order,
                    batch,
                    "{} / {}: incremental != batch (forward order)",
                    w.name,
                    pipeline
                );
                assert_eq!(
                    reversed.layout_query(pipeline).unwrap().order,
                    batch,
                    "{} / {}: incremental != batch (reversed order)",
                    w.name,
                    pipeline
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 4 * full_suite().len() / 2,
        "registry coverage collapsed: only {} pipeline/workload pairs checked",
        checked
    );
}

#[test]
fn snapshot_resume_mid_registry_stream_is_byte_identical() {
    let params = AnalysisParams::default();
    // One representative per generator class is enough here: the
    // byte-identity of resume is exercised per-crate by the property
    // suites; this pins it on realistic registry traces.
    for name in ["403.gcc", "458.sjeng", "429.mcf", "401.bzip2"] {
        let entry = full_suite()
            .into_iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{} missing from registry", name));
        let w = entry.workload();
        let profile = Profile::collect(&w.module, &ProfileConfig::with_exec(w.test_exec));
        let files = shard_files(&profile.func_trace, 4, &params);
        let full = fold(files.iter(), params);
        for cut in 1..files.len() {
            let partial = fold(files.iter().take(cut), params);
            let mut resumed = VersionState::from_bytes(&partial.to_bytes()).unwrap();
            for sf in &files {
                // Re-stream everything, as a post-crash producer would.
                let fresh = resumed.absorb_shard(sf).unwrap();
                assert_eq!(fresh, sf.seq as usize >= cut, "{}: dedup broke", name);
            }
            assert_eq!(
                resumed.to_bytes(),
                full.to_bytes(),
                "{}: resume at cut {} diverged",
                name,
                cut
            );
        }
    }
}
