//! The profiling step: instrument + test-input run + trace conditioning.
//!
//! The paper's system instruments the program in LLVM IR, runs it on the
//! test data input, records the function and basic-block traces, and
//! conditions them: trimming (Definition 1), optional interval sampling,
//! and hot-block pruning (top 10,000, retaining >90% of occurrences). Our
//! instrumentation is [`clop_ir::exec::Interpreter`]; the conditioning is
//! [`clop_trace`]'s.

use clop_ir::{ExecConfig, Interpreter, Module};
use clop_trace::sample::IntervalSampler;
use clop_trace::{Pruner, TrimmedTrace};

/// Profiling configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    /// How the test-input run executes (seed, fuel).
    pub exec: ExecConfig,
    /// Hot-block pruning of the basic-block trace, if any.
    pub prune: Option<Pruner>,
    /// Interval sampling of the basic-block trace, if any (applied before
    /// pruning).
    pub sample: Option<IntervalSampler>,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            exec: ExecConfig::default(),
            prune: Some(Pruner::default()),
            sample: None,
        }
    }
}

impl ProfileConfig {
    /// A profile driven by the given execution config, default conditioning.
    pub fn with_exec(exec: ExecConfig) -> Self {
        ProfileConfig {
            exec,
            ..Default::default()
        }
    }
}

/// The conditioned traces of one test-input run.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Trimmed whole-program function trace (ids are `FuncId` values).
    pub func_trace: TrimmedTrace,
    /// Trimmed (sampled, pruned) whole-program basic-block trace (ids are
    /// `GlobalBlockId` values).
    pub bb_trace: TrimmedTrace,
    /// Fraction of basic-block occurrences retained by pruning (1.0 when
    /// pruning is off).
    pub prune_retention: f64,
    /// Dynamic instructions executed by the profiling run.
    pub instructions: u64,
    /// False when the run stopped on fuel exhaustion.
    pub completed: bool,
}

impl Profile {
    /// Profile a module: execute on the test input and condition the traces.
    pub fn collect(module: &Module, config: &ProfileConfig) -> Profile {
        let outcome = Interpreter::new(config.exec).run(module);
        let func_trace = outcome.func_trace.trim();
        let mut bb_trace = outcome.bb_trace.trim();
        if let Some(s) = &config.sample {
            bb_trace = s.sample(&bb_trace);
        }
        let mut retention = 1.0;
        if let Some(p) = &config.prune {
            let report = p.prune(&bb_trace);
            retention = report.retention;
            bb_trace = report.trace;
        }
        Profile {
            func_trace,
            bb_trace,
            prune_retention: retention,
            instructions: outcome.instructions,
            completed: outcome.completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_ir::prelude::*;
    use clop_trace::BlockId;

    fn two_function_loop() -> Module {
        let mut b = ModuleBuilder::new("t");
        b.function("main")
            .call("c1", 8, "x", "c2")
            .call("c2", 8, "y", "back")
            .branch("back", 8, CondModel::LoopCounter { trip: 20 }, "c1", "end")
            .ret("end", 8)
            .finish();
        b.function("x").ret("xb", 8).finish();
        b.function("y").ret("yb", 8).finish();
        b.build().unwrap()
    }

    #[test]
    fn traces_are_trimmed() {
        let p = Profile::collect(&two_function_loop(), &ProfileConfig::default());
        for w in p.bb_trace.events().windows(2) {
            assert_ne!(w[0], w[1]);
        }
        for w in p.func_trace.events().windows(2) {
            assert_ne!(w[0], w[1]);
        }
        assert!(p.completed);
    }

    #[test]
    fn function_trace_uses_func_ids() {
        let m = two_function_loop();
        let p = Profile::collect(&m, &ProfileConfig::default());
        let max = p.func_trace.events().iter().map(|b| b.0).max().unwrap();
        assert!((max as usize) < m.num_functions());
        // main (0), then x (1) and y (2) alternate.
        assert_eq!(p.func_trace.events()[0], BlockId(0));
    }

    #[test]
    fn pruning_reports_retention() {
        let cfg = ProfileConfig {
            prune: Some(Pruner::new(3)),
            ..Default::default()
        };
        let p = Profile::collect(&two_function_loop(), &cfg);
        assert!(p.prune_retention > 0.0 && p.prune_retention <= 1.0);
        assert!(clop_trace::TraceStats::of(&p.bb_trace).num_distinct() <= 3);
    }

    #[test]
    fn sampling_shrinks_trace() {
        let cfg = ProfileConfig {
            sample: Some(IntervalSampler::new(2, 6)),
            prune: None,
            ..Default::default()
        };
        let full = Profile::collect(&two_function_loop(), &ProfileConfig::default());
        let sampled = Profile::collect(&two_function_loop(), &cfg);
        assert!(sampled.bb_trace.len() < full.bb_trace.len());
    }

    #[test]
    fn deterministic_given_config() {
        let m = two_function_loop();
        let a = Profile::collect(&m, &ProfileConfig::default());
        let b = Profile::collect(&m, &ProfileConfig::default());
        assert_eq!(a.bb_trace, b.bb_trace);
        assert_eq!(a.func_trace, b.func_trace);
        assert_eq!(a.instructions, b.instructions);
    }
}
