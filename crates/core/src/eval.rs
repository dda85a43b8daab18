//! Evaluation helpers: link a program, run it on the reference input, and
//! measure it with the cache and timing simulators.
//!
//! [`ProgramRun`] bundles the whole evaluation of one (module, layout)
//! pair: the reference-input execution, the fetch stream (cache-line
//! addresses with per-line execution cycles), and convenience methods for
//! solo and co-run measurement on both channels (pure cache simulation and
//! the timed HwLike model).

use clop_cachesim::{
    simulate_corun_lines, simulate_corun_nway, simulate_solo_lines, CacheConfig, CacheStats,
    CorunCacheResult, NwayCorunResult, SmtSimulator, ThreadOutcome, TimedRun, TimingConfig,
};
use clop_ir::{ExecConfig, ExecOutcome, Interpreter, Layout, LinkOptions, LinkedImage, Module};

/// Evaluation configuration: how the reference run executes, how code is
/// linked, and the cache geometry.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// The reference-input execution (typically more fuel and a different
    /// seed than the profiling run).
    pub exec: ExecConfig,
    /// Linking options.
    pub link: LinkOptions,
    /// Cache geometry for the pure-simulation channel.
    pub cache: CacheConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            exec: ExecConfig::default().seeded(0x4EF5EED),
            link: LinkOptions::default(),
            cache: CacheConfig::paper_l1i(),
        }
    }
}

/// Expand a module execution into a timed fetch stream: one `(line,
/// exec_cycles)` entry per cache line each basic block spans, with the
/// block's instruction count spread over its lines.
///
/// Runs the interpreter once. Prefer [`timed_fetch_stream_from`] when an
/// [`ExecOutcome`] is already in hand — layout never affects control flow,
/// so one execution can be re-expanded under any number of layouts.
pub fn timed_fetch_stream(
    module: &Module,
    image: &LinkedImage,
    exec: ExecConfig,
) -> Vec<(u64, u32)> {
    let outcome = Interpreter::new(exec).run(module);
    timed_fetch_stream_from(module, image, &outcome)
}

/// Expand an already-recorded execution into the timed fetch stream for
/// `image` (see [`timed_fetch_stream`]).
pub fn timed_fetch_stream_from(
    module: &Module,
    image: &LinkedImage,
    outcome: &ExecOutcome,
) -> Vec<(u64, u32)> {
    let line_size = 64;
    let mut out = Vec::with_capacity(outcome.bb_trace.len() * 2);
    for &e in outcome.bb_trace.events() {
        let gid = clop_ir::GlobalBlockId(e.0);
        let (first, last) = image.line_span(gid, line_size);
        let n = (last - first + 1) as u32;
        // Trace events come from interpreting this very module, so the
        // lookup only misses if the caller paired a foreign trace with it;
        // degrade to one cycle per line rather than panic.
        let instrs = module.global_block(gid).map_or(1, |b| b.instr_count);
        let per_line = (instrs / n).max(1);
        for line in first..=last {
            out.push((line, per_line));
        }
    }
    out
}

/// A fully evaluated (module, layout) pair on the reference input.
#[derive(Clone, Debug)]
pub struct ProgramRun {
    /// Cache-line fetch stream with per-line execution cycles.
    pub stream: Vec<(u64, u32)>,
    /// Dynamic instructions of the reference run.
    pub instructions: u64,
    /// Total linked image size in bytes.
    pub image_bytes: u64,
    /// Cache geometry used by the measurement methods.
    pub cache: CacheConfig,
}

impl ProgramRun {
    /// Link `module` with `layout` and execute the reference input.
    ///
    /// The interpreter runs exactly once: the same [`ExecOutcome`] yields
    /// both the timed fetch stream and the instruction count.
    pub fn evaluate(module: &Module, layout: &Layout, config: &EvalConfig) -> ProgramRun {
        let image = LinkedImage::link(module, layout, config.link);
        let outcome = Interpreter::new(config.exec).run(module);
        let stream = timed_fetch_stream_from(module, &image, &outcome);
        ProgramRun {
            stream,
            instructions: outcome.instructions,
            image_bytes: image.image_size(),
            cache: config.cache,
        }
    }

    /// The bare line addresses (for the pure cache-simulation channel).
    pub fn lines(&self) -> Vec<u64> {
        self.stream.iter().map(|&(l, _)| l).collect()
    }

    /// Solo miss statistics on the pure-simulation channel.
    pub fn solo_sim(&self) -> CacheStats {
        simulate_solo_lines(&self.stream, self.cache)
    }

    /// Co-run miss statistics (round-robin SMT interleave) on the
    /// pure-simulation channel; `self` is thread 0.
    pub fn corun_sim(&self, peer: &ProgramRun) -> CorunCacheResult {
        simulate_corun_lines(&self.lines(), &peer.lines(), self.cache)
    }

    /// N-way co-run on the pure-simulation channel: `self` is tenant 0,
    /// the peers tenants 1..=N, all sharing one cache with round-robin
    /// interleave and full eviction attribution.
    pub fn corun_sim_nway(&self, peers: &[&ProgramRun]) -> NwayCorunResult {
        let mut streams = vec![self.stream.as_slice()];
        streams.extend(peers.iter().map(|p| p.stream.as_slice()));
        simulate_corun_nway(&streams, self.cache)
    }

    /// Solo timed run on the HwLike channel (prefetching cache + timing).
    pub fn solo_timed(&self, timing: TimingConfig) -> TimedRun {
        SmtSimulator::new(timing).run_solo(&self.stream)
    }

    /// Timed SMT co-run on the HwLike channel; `self` is thread 0.
    pub fn corun_timed(&self, peer: &ProgramRun, timing: TimingConfig) -> [ThreadOutcome; 2] {
        SmtSimulator::new(timing).run_corun(&self.stream, &peer.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::optimize_named;
    use clop_ir::prelude::*;

    /// A program whose hot loop alternates between two functions placed far
    /// apart in the original layout, with bulky cold code in between: prime
    /// territory for function reordering.
    fn spread_out_module() -> Module {
        let mut b = ModuleBuilder::new("spread");
        b.function("main")
            .call("c1", 64, "hot_a", "c2")
            .call("c2", 64, "hot_b", "back")
            .branch(
                "back",
                64,
                CondModel::LoopCounter { trip: 400 },
                "c1",
                "end",
            )
            .ret("end", 64)
            .finish();
        // 40 cold functions × 2 KB separate the two hot ones.
        for i in 0..40 {
            b.function(&format!("cold{}", i)).ret("body", 2048).finish();
        }
        b.function("hot_a").ret("a", 3000).finish();
        b.function("hot_b").ret("b", 3000).finish();
        b.build().unwrap()
    }

    #[test]
    fn evaluate_produces_consistent_stream() {
        let m = spread_out_module();
        let run = ProgramRun::evaluate(&m, &Layout::original(&m), &EvalConfig::default());
        assert!(!run.stream.is_empty());
        assert_eq!(run.lines().len(), run.stream.len());
        assert!(run.image_bytes >= m.size_bytes());
        assert!(run.instructions > 0);
    }

    #[test]
    fn layout_changes_measurement_but_not_execution() {
        let m = spread_out_module();
        let cfg = EvalConfig::default();
        let orig = ProgramRun::evaluate(&m, &Layout::original(&m), &cfg);
        let rev = Layout::FunctionOrder((0..m.num_functions() as u32).rev().map(FuncId).collect());
        let revd = ProgramRun::evaluate(&m, &rev, &cfg);
        assert_eq!(orig.instructions, revd.instructions);
        // Stream lengths may differ slightly (a block may straddle a line
        // boundary under one layout and not the other), but not wildly.
        let (a, b) = (orig.stream.len() as f64, revd.stream.len() as f64);
        assert!((a - b).abs() / a < 0.5);
        // The line addresses differ.
        assert_ne!(orig.lines(), revd.lines());
    }

    #[test]
    fn function_affinity_reduces_solo_misses_on_spread_module() {
        let m = spread_out_module();
        let cfg = EvalConfig::default();
        let base = ProgramRun::evaluate(&m, &Layout::original(&m), &cfg);
        let opt = optimize_named("function-affinity", &m).unwrap();
        let optd = ProgramRun::evaluate(&opt.module, &opt.layout, &cfg);
        let (b, o) = (base.solo_sim().miss_ratio(), optd.solo_sim().miss_ratio());
        assert!(o <= b, "optimized {} should not exceed baseline {}", o, b);
    }

    #[test]
    fn timed_and_sim_channels_agree_on_direction() {
        let m = spread_out_module();
        let cfg = EvalConfig::default();
        let base = ProgramRun::evaluate(&m, &Layout::original(&m), &cfg);
        let solo = base.solo_timed(TimingConfig::default());
        assert!(solo.cycles > 0.0);
        assert_eq!(solo.stats.accesses, base.stream.len() as u64);
    }

    #[test]
    fn corun_channels_report_both_threads() {
        let m = spread_out_module();
        let cfg = EvalConfig::default();
        let a = ProgramRun::evaluate(&m, &Layout::original(&m), &cfg);
        let sim = a.corun_sim(&a);
        assert_eq!(sim.per_thread[0].accesses, sim.per_thread[1].accesses);
        let timed = a.corun_timed(&a, TimingConfig::default());
        assert!(timed[0].finish_cycles > 0.0 && timed[1].finish_cycles > 0.0);
    }

    #[test]
    fn nway_corun_matches_pair_path_at_two() {
        let m = spread_out_module();
        let cfg = EvalConfig::default();
        let a = ProgramRun::evaluate(&m, &Layout::original(&m), &cfg);
        let pair = a.corun_sim(&a);
        let nway = a.corun_sim_nway(&[&a]);
        assert_eq!(nway.per_tenant[0], pair.per_thread[0]);
        assert_eq!(nway.per_tenant[1], pair.per_thread[1]);
        // Wider co-runs never improve tenant 0's miss ratio.
        let wide = a.corun_sim_nway(&[&a, &a, &a]);
        assert!(
            wide.per_tenant[0].miss_ratio() >= nway.per_tenant[0].miss_ratio() - 1e-12,
            "4-way {} vs 2-way {}",
            wide.per_tenant[0].miss_ratio(),
            nway.per_tenant[0].miss_ratio()
        );
    }
}
