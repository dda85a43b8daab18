//! Trace-free layout ranking and the pipeline pre-filter hook.
//!
//! Running the full evaluation (timed fetch stream + set-associative
//! simulation, solo and co-run) on every candidate layout is the expensive
//! tail of the engine. The static locality pass in `clop-verify` predicts
//! a layout's quality from IR + layout alone — no trace, no simulator — in
//! well under a millisecond. This module turns that prediction into:
//!
//! * [`static_score`]: score one (module, layout) pair.
//! * [`rank_pipelines_static`]: build every named pipeline, realize its
//!   layout, and order all candidates (plus the original layout) by
//!   predicted score — the static mirror of the simulated ranking an
//!   [`crate::OptimizationReport`] sweep would produce. Cross-validated by
//!   the `exp static_rank` experiment (Spearman gate).
//! * [`prefilter_pipelines`]: the pre-filter hook — keep only the top-k
//!   statically ranked pipelines, so downstream simulation spends its
//!   budget on candidates the static model already likes.
//!
//! Scores are *lower-is-better* (predicted miss mass: solo Eq-1 miss
//! probability plus set-conflict pressure).

use crate::pipeline::{build_pipeline, PipelineParams};
use clop_ir::{Layout, LinkOptions, LinkedImage, Module};
use clop_verify::{analyze_locality, LocalityConfig, StaticLocalityReport};

/// Name used for the identity-layout baseline entry in a ranking.
pub const ORIGINAL_LAYOUT: &str = "original";

/// One statically scored candidate layout.
#[derive(Clone, Debug)]
pub struct StaticRankEntry {
    /// Pipeline name (or [`ORIGINAL_LAYOUT`]).
    pub name: String,
    /// Predicted miss mass, lower is better (see [`StaticLocalityReport`]).
    pub score: f64,
    /// Solo Eq-1 miss probability component.
    pub solo_miss: f64,
    /// Set-conflict pressure component.
    pub conflict_miss: f64,
    /// Predicted defensiveness against the fixed probe adversary.
    pub defensiveness: f64,
    /// Predicted politeness toward the fixed probe adversary.
    pub politeness: f64,
}

/// A full static ranking: entries sorted best (lowest score) first, ties
/// broken by name so the order is deterministic.
#[derive(Clone, Debug, Default)]
pub struct StaticRanking {
    /// Ranked entries, best first.
    pub entries: Vec<StaticRankEntry>,
}

impl StaticRanking {
    /// Candidate names in rank order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Zero-based rank of a candidate, if present.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.name == name)
    }

    /// The entry for a candidate, if present.
    pub fn entry(&self, name: &str) -> Option<&StaticRankEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

/// Score one (module, layout) pair with the static locality pass. The
/// layout must be a permutation of the module (pipeline outputs and
/// [`Layout::original`] always are).
pub fn static_score(module: &Module, layout: &Layout) -> StaticLocalityReport {
    let image = LinkedImage::link(module, layout, LinkOptions::default());
    let profile = clop_ir::analysis::StaticProfile::of(module);
    analyze_locality(module, &image, &profile, &LocalityConfig::default())
}

fn entry_for(name: &str, report: &StaticLocalityReport) -> StaticRankEntry {
    StaticRankEntry {
        name: name.to_string(),
        score: report.score,
        solo_miss: report.solo_miss,
        conflict_miss: report.conflict_miss,
        defensiveness: report.defensiveness,
        politeness: report.politeness,
    }
}

/// Statically rank the named pipelines over `module`, alongside the
/// original (identity) layout. Each pipeline is built from `params` and
/// run to obtain its layout; pipelines that fail to build or optimize
/// (unknown name, empty profile) are silently omitted — the ranking covers
/// the candidates that exist.
pub fn rank_pipelines_static(
    module: &Module,
    names: &[&str],
    params: &PipelineParams,
) -> StaticRanking {
    let mut entries = Vec::with_capacity(names.len() + 1);
    let base = static_score(module, &Layout::original(module));
    entries.push(entry_for(ORIGINAL_LAYOUT, &base));
    for &name in names {
        let Some(pipe) = build_pipeline(name, params) else {
            continue;
        };
        let Ok(opt) = pipe.optimize(module) else {
            continue;
        };
        // Score the *prepared* module under the pipeline's layout: BB
        // reordering inserts stubs, so the scored image is the one that
        // would actually be linked.
        let report = static_score(&opt.module, &opt.layout);
        entries.push(entry_for(name, &report));
    }
    entries.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.name.cmp(&b.name)));
    StaticRanking { entries }
}

/// The pre-filter hook: statically rank the named pipelines and keep the
/// best `keep` of them (the identity baseline is ranked but never
/// returned). With `keep >= names.len()` this is a pure reordering —
/// callers can feed the result straight into a simulated sweep and stop
/// early.
pub fn prefilter_pipelines(
    module: &Module,
    names: &[&str],
    params: &PipelineParams,
    keep: usize,
) -> Vec<String> {
    rank_pipelines_static(module, names, params)
        .entries
        .into_iter()
        .filter(|e| e.name != ORIGINAL_LAYOUT)
        .take(keep)
        .map(|e| e.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PIPELINES;
    use clop_ir::prelude::*;
    use clop_trace::Granularity;

    fn loopy_module() -> Module {
        let mut b = ModuleBuilder::new("t");
        b.function("main")
            .call("c1", 64, "hot", "back")
            .branch("back", 64, CondModel::LoopCounter { trip: 50 }, "c1", "end")
            .ret("end", 64)
            .finish();
        b.function("hot")
            .branch(
                "spin",
                256,
                CondModel::LoopCounter { trip: 20 },
                "spin",
                "out",
            )
            .ret("out", 64)
            .finish();
        b.function("cold").ret("cb", 4096).finish();
        b.build().unwrap()
    }

    #[test]
    fn ranking_covers_baseline_and_pipelines() {
        let m = loopy_module();
        let params = PipelineParams::for_granularity(Granularity::Function);
        let r = rank_pipelines_static(&m, &PIPELINES, &params);
        assert_eq!(r.entries.len(), 5);
        assert!(r.position(ORIGINAL_LAYOUT).is_some());
        for e in &r.entries {
            assert!(e.score.is_finite() && e.score >= 0.0, "{:?}", e);
        }
        // Sorted best-first.
        for w in r.entries.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
    }

    #[test]
    fn ranking_is_deterministic() {
        let m = loopy_module();
        let params = PipelineParams::for_granularity(Granularity::Function);
        let a = rank_pipelines_static(&m, &PIPELINES, &params);
        let b = rank_pipelines_static(&m, &PIPELINES, &params);
        assert_eq!(a.names(), b.names());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn prefilter_keeps_top_k_without_baseline() {
        let m = loopy_module();
        let params = PipelineParams::for_granularity(Granularity::Function);
        let kept = prefilter_pipelines(&m, &PIPELINES, &params, 2);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|n| n != ORIGINAL_LAYOUT));
        let all = prefilter_pipelines(&m, &PIPELINES, &params, 99);
        assert_eq!(all.len(), 4);
        // Top-2 is a prefix of the full ranking.
        assert_eq!(&all[..2], &kept[..]);
    }

    #[test]
    fn unknown_pipelines_are_omitted() {
        let m = loopy_module();
        let params = PipelineParams::for_granularity(Granularity::Function);
        let r = rank_pipelines_static(&m, &["no-such-pipeline", "function-trg"], &params);
        assert_eq!(r.entries.len(), 2); // original + function-trg
        assert!(r.position("function-trg").is_some());
    }
}
