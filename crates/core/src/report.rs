//! Optimization reports: a human-readable account of what an optimizer
//! did and why the new layout should help.
//!
//! A report compares the baseline and optimized layouts of one program on
//! the evaluation input: miss ratios, hot-footprint size, per-set conflict
//! exposure (via [`clop_cachesim::OccupancyMap`]), and the defensiveness /
//! politeness scores of the footprint-composition model. Experiments and
//! the CLI render it; tests assert its internal consistency.

use crate::eval::{EvalConfig, ProgramRun};
use crate::optimizer::OptimizedProgram;
use clop_cachesim::{CompositionModel, OccupancyMap};
use clop_ir::{Layout, Module};
use clop_trace::{BlockId, Trace};
use std::fmt;

/// Measurements of one side (baseline or optimized).
#[derive(Clone, Debug)]
pub struct SideReport {
    /// Solo miss ratio on the pure-simulation channel.
    pub miss_ratio: f64,
    /// Distinct lines the reference run touched.
    pub touched_lines: usize,
    /// Fraction of accesses in conflict-oversubscribed sets.
    pub conflict_exposure: f64,
    /// Peak hot demand over any set, in ways.
    pub peak_set_demand: u32,
    /// Total linked image size in bytes.
    pub image_bytes: u64,
}

impl SideReport {
    fn measure(run: &ProgramRun) -> SideReport {
        let lines = run.lines();
        let occ = OccupancyMap::measure(&lines, run.cache, 0.01);
        let mut distinct = lines.clone();
        distinct.sort_unstable();
        distinct.dedup();
        SideReport {
            miss_ratio: run.solo_sim().miss_ratio(),
            touched_lines: distinct.len(),
            conflict_exposure: occ.conflict_exposure(),
            peak_set_demand: occ.peak_hot_demand(),
            image_bytes: run.image_bytes,
        }
    }
}

/// The full before/after report of one optimization.
#[derive(Clone, Debug)]
pub struct OptimizationReport {
    /// Program name.
    pub program: String,
    /// Pipeline that produced the layout.
    pub optimizer: String,
    /// Baseline measurements.
    pub baseline: SideReport,
    /// Optimized measurements.
    pub optimized: SideReport,
    /// Relative miss-ratio reduction (positive = improvement).
    pub miss_reduction: f64,
    /// Defensiveness of the optimized program against its own baseline as
    /// a peer (how robust the new layout is to interference), from the
    /// composition model.
    pub defensiveness_gain: f64,
    /// The same gain under N-way sharing: `(peers, gain)` with 3, 7 and 15
    /// baseline-clone adversaries (4-, 8- and 16-tenant caches), from the
    /// N-peer convolved composition model.
    pub nway_defensiveness: Vec<(usize, f64)>,
}

impl OptimizationReport {
    /// Evaluate baseline and optimized layouts and compose the report.
    pub fn build(
        module: &Module,
        optimized: &OptimizedProgram,
        config: &EvalConfig,
    ) -> OptimizationReport {
        let base = ProgramRun::evaluate(module, &Layout::original(module), config);
        let opt = ProgramRun::evaluate(&optimized.module, &optimized.layout, config);
        let b = SideReport::measure(&base);
        let o = SideReport::measure(&opt);
        let miss_reduction = if b.miss_ratio > 0.0 {
            (b.miss_ratio - o.miss_ratio) / b.miss_ratio
        } else {
            0.0
        };

        // Composition-model defensiveness: each side against the baseline
        // stream as the peer; capacity in lines.
        let capacity = config.cache.num_lines() as usize;
        let to_trimmed = |lines: &[u64]| {
            let mut map = std::collections::HashMap::new();
            let mut t = Trace::new();
            for &l in lines {
                let next = map.len() as u32;
                let id = *map.entry(l).or_insert(next);
                t.push(BlockId(id));
            }
            t.trim()
        };
        let base_model = CompositionModel::measure(&to_trimmed(&base.lines()), 2 * capacity);
        let opt_model = CompositionModel::measure(&to_trimmed(&opt.lines()), 2 * capacity);
        let d_base = clop_cachesim::model::defensiveness(&base_model, &base_model, capacity);
        let d_opt = clop_cachesim::model::defensiveness(&opt_model, &base_model, capacity);

        // N-way defensiveness gains against 3/7/15 baseline clones — does
        // the layout's robustness survive wider sharing?
        let nway_defensiveness = [3usize, 7, 15]
            .iter()
            .map(|&n| {
                let peers: Vec<&CompositionModel> = (0..n).map(|_| &base_model).collect();
                let d_base_n =
                    clop_cachesim::model::defensiveness_many(&base_model, &peers, capacity);
                let d_opt_n =
                    clop_cachesim::model::defensiveness_many(&opt_model, &peers, capacity);
                (n, d_opt_n - d_base_n)
            })
            .collect();

        OptimizationReport {
            program: module.name.clone(),
            optimizer: optimized.name.clone(),
            baseline: b,
            optimized: o,
            miss_reduction,
            defensiveness_gain: d_opt - d_base,
            nway_defensiveness,
        }
    }
}

impl fmt::Display for OptimizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "optimization report: {} via {}",
            self.program, self.optimizer
        )?;
        let row = |f: &mut fmt::Formatter<'_>, label: &str, b: String, o: String| {
            writeln!(f, "  {:<22} {:>12} -> {:>12}", label, b, o)
        };
        row(
            f,
            "solo miss ratio",
            format!("{:.3}%", 100.0 * self.baseline.miss_ratio),
            format!("{:.3}%", 100.0 * self.optimized.miss_ratio),
        )?;
        row(
            f,
            "touched lines",
            self.baseline.touched_lines.to_string(),
            self.optimized.touched_lines.to_string(),
        )?;
        row(
            f,
            "conflict exposure",
            format!("{:.1}%", 100.0 * self.baseline.conflict_exposure),
            format!("{:.1}%", 100.0 * self.optimized.conflict_exposure),
        )?;
        row(
            f,
            "peak set demand",
            format!("{} ways", self.baseline.peak_set_demand),
            format!("{} ways", self.optimized.peak_set_demand),
        )?;
        row(
            f,
            "image size",
            format!("{} B", self.baseline.image_bytes),
            format!("{} B", self.optimized.image_bytes),
        )?;
        writeln!(
            f,
            "  miss reduction {:+.1}%; defensiveness gain {:+.3}",
            100.0 * self.miss_reduction,
            self.defensiveness_gain
        )?;
        if !self.nway_defensiveness.is_empty() {
            write!(f, "  n-way defensiveness gain")?;
            for &(n, gain) in &self.nway_defensiveness {
                write!(f, "  {} peers {:+.3}", n, gain)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::optimize_named;
    use clop_ir::prelude::*;

    fn victim() -> Module {
        let mut b = ModuleBuilder::new("victim");
        b.function("main")
            .call("c1", 32, "hot_a", "c2")
            .call("c2", 32, "hot_b", "back")
            .branch(
                "back",
                32,
                CondModel::LoopCounter { trip: 800 },
                "c1",
                "end",
            )
            .ret("end", 16)
            .finish();
        for i in 0..12 {
            b.function(&format!("cold{}", i)).ret("blob", 2048).finish();
        }
        b.function("hot_a").ret("a", 2048).finish();
        b.function("hot_b").ret("b", 2048).finish();
        b.build().unwrap()
    }

    fn eval() -> EvalConfig {
        EvalConfig {
            cache: clop_cachesim::CacheConfig::new(4 * 1024, 2, 64),
            ..Default::default()
        }
    }

    #[test]
    fn report_is_internally_consistent() {
        let m = victim();
        let opt = optimize_named("function-affinity", &m).unwrap();
        let r = OptimizationReport::build(&m, &opt, &eval());
        assert_eq!(r.program, "victim");
        assert_eq!(r.optimizer, "function-affinity");
        // Reduction formula matches the two sides.
        let expect = (r.baseline.miss_ratio - r.optimized.miss_ratio) / r.baseline.miss_ratio;
        assert!((r.miss_reduction - expect).abs() < 1e-12);
        // Image sizes are identical for function reordering.
        assert_eq!(r.baseline.image_bytes, r.optimized.image_bytes);
        // N-way scores cover the advertised widths and are finite.
        let widths: Vec<usize> = r.nway_defensiveness.iter().map(|&(n, _)| n).collect();
        assert_eq!(widths, vec![3, 7, 15]);
        for &(_, gain) in &r.nway_defensiveness {
            assert!(gain.is_finite());
        }
    }

    #[test]
    fn bb_report_shows_image_growth() {
        let m = victim();
        let opt = optimize_named("bb-affinity", &m).unwrap();
        let r = OptimizationReport::build(&m, &opt, &eval());
        assert!(
            r.optimized.image_bytes > r.baseline.image_bytes,
            "stubs and jump padding must grow the image"
        );
    }

    #[test]
    fn display_renders_all_rows() {
        let m = victim();
        let opt = optimize_named("function-affinity", &m).unwrap();
        let text = OptimizationReport::build(&m, &opt, &eval()).to_string();
        for needle in [
            "solo miss ratio",
            "touched lines",
            "conflict exposure",
            "peak set demand",
            "image size",
            "miss reduction",
            "n-way defensiveness gain",
        ] {
            assert!(text.contains(needle), "missing `{}` in:\n{}", needle, text);
        }
    }

    #[test]
    fn touched_lines_positive_for_real_runs() {
        let m = victim();
        let opt = optimize_named("function-trg", &m).unwrap();
        let r = OptimizationReport::build(&m, &opt, &eval());
        assert!(r.baseline.touched_lines > 0);
        assert!(r.optimized.touched_lines > 0);
    }
}
