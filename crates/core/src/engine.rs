//! The memoizing evaluation engine.
//!
//! Experiments evaluate the same (module, layout, config) triples over and
//! over: every co-run pair re-measures the same baselines, every ablation
//! point re-evaluates the same reference runs. [`Engine`] interns
//! [`ProgramRun`]s (and optimization results) behind fingerprint keys so
//! each distinct evaluation executes once per process, then is shared by
//! `Arc`. The engine is `Sync`: worker threads of the experiment pool hit
//! one shared cache.
//!
//! Fingerprints hash the full structural `Debug` rendering of the module,
//! layout and configs — slow-ish but collision-safe in practice, and
//! negligible next to an interpreter run of the module.

use crate::eval::{EvalConfig, ProgramRun};
use crate::optimizer::{OptError, OptimizedProgram};
use crate::pipeline::{build_pipeline, PipelineParams};
use clop_ir::{Layout, Module};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a cache mutex, tolerating poison: a supervised experiment job that
/// panicked mid-insert leaves the map in a consistent state (inserts are
/// single statements), so the cache stays usable for the remaining jobs.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Cache statistics of an [`Engine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Evaluations served from the cache.
    pub eval_hits: u64,
    /// Evaluations actually computed.
    pub eval_misses: u64,
    /// Optimizations served from the cache.
    pub opt_hits: u64,
    /// Optimizations actually computed.
    pub opt_misses: u64,
}

/// A process-wide evaluation cache: deduplicates [`ProgramRun::evaluate`]
/// and pipeline-optimization calls across experiments and worker threads.
#[derive(Default)]
pub struct Engine {
    runs: Mutex<HashMap<u64, Arc<ProgramRun>>>,
    opts: Mutex<HashMap<u64, Result<Arc<OptimizedProgram>, OptError>>>,
    eval_hits: AtomicU64,
    eval_misses: AtomicU64,
    opt_hits: AtomicU64,
    opt_misses: AtomicU64,
}

impl Engine {
    /// An empty engine.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Evaluate (module, layout, config), memoized.
    pub fn evaluate(
        &self,
        module: &Module,
        layout: &Layout,
        config: &EvalConfig,
    ) -> Arc<ProgramRun> {
        let key = run_key(module, layout, config);
        if let Some(cached) = lock(&self.runs).get(&key) {
            self.eval_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        // Compute outside the lock: concurrent workers evaluating distinct
        // keys must not serialize on one mutex. Two threads racing on the
        // same key at worst duplicate the computation; the first insert
        // wins and both share it afterwards.
        let run = Arc::new(ProgramRun::evaluate(module, layout, config));
        self.eval_misses.fetch_add(1, Ordering::Relaxed);
        Arc::clone(lock(&self.runs).entry(key).or_insert(run))
    }

    /// Build and run the named pipeline on `module`, memoized (including
    /// failures — the paper's "N/A" cases are cached too).
    ///
    /// A `name` outside [`crate::PIPELINES`] returns
    /// [`OptError::UnknownPipeline`] without running or caching anything.
    pub fn optimize(
        &self,
        module: &Module,
        name: &str,
        params: &PipelineParams,
    ) -> Result<Arc<OptimizedProgram>, OptError> {
        let key = opt_key(module, name, params);
        if let Some(cached) = lock(&self.opts).get(&key) {
            self.opt_hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        let Some(pipeline) = build_pipeline(name, params) else {
            return Err(OptError::UnknownPipeline(name.to_string()));
        };
        let result = pipeline.optimize(module).map(Arc::new);
        self.opt_misses.fetch_add(1, Ordering::Relaxed);
        lock(&self.opts).entry(key).or_insert(result).clone()
    }

    /// Current cache statistics.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            eval_hits: self.eval_hits.load(Ordering::Relaxed),
            eval_misses: self.eval_misses.load(Ordering::Relaxed),
            opt_hits: self.opt_hits.load(Ordering::Relaxed),
            opt_misses: self.opt_misses.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached results (statistics are kept).
    pub fn clear(&self) {
        lock(&self.runs).clear();
        lock(&self.opts).clear();
    }
}

fn hash_debug<T: std::fmt::Debug>(h: &mut DefaultHasher, value: &T) {
    format!("{:?}", value).hash(h);
}

fn run_key(module: &Module, layout: &Layout, config: &EvalConfig) -> u64 {
    let mut h = DefaultHasher::new();
    0xE7A1u16.hash(&mut h);
    hash_debug(&mut h, module);
    hash_debug(&mut h, layout);
    hash_debug(&mut h, config);
    h.finish()
}

fn opt_key(module: &Module, name: &str, params: &PipelineParams) -> u64 {
    let mut h = DefaultHasher::new();
    0x0B71u16.hash(&mut h);
    hash_debug(&mut h, module);
    name.hash(&mut h);
    // Parameter families are hashed individually so the worker count
    // (`params.jobs`) stays out of the key: sharded analysis is
    // bit-identical for every `jobs` value and must not split the cache.
    hash_debug(&mut h, &params.affinity);
    hash_debug(&mut h, &params.trg);
    hash_debug(&mut h, &params.profile);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_ir::prelude::*;

    fn module() -> Module {
        let mut b = ModuleBuilder::new("e");
        b.function("main")
            .call("c1", 8, "f", "back")
            .branch("back", 8, CondModel::LoopCounter { trip: 20 }, "c1", "end")
            .ret("end", 8)
            .finish();
        b.function("f").ret("fb", 32).finish();
        b.build().unwrap()
    }

    #[test]
    fn identical_evaluations_share_one_run() {
        let m = module();
        let engine = Engine::new();
        let cfg = EvalConfig::default();
        let a = engine.evaluate(&m, &Layout::original(&m), &cfg);
        let b = engine.evaluate(&m, &Layout::original(&m), &cfg);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = engine.stats();
        assert_eq!((stats.eval_hits, stats.eval_misses), (1, 1));
    }

    #[test]
    fn distinct_layouts_evaluate_separately() {
        let m = module();
        let engine = Engine::new();
        let cfg = EvalConfig::default();
        let orig = engine.evaluate(&m, &Layout::original(&m), &cfg);
        let rev = Layout::FunctionOrder((0..m.num_functions() as u32).rev().map(FuncId).collect());
        let revd = engine.evaluate(&m, &rev, &cfg);
        assert!(!Arc::ptr_eq(&orig, &revd));
        assert_eq!(engine.stats().eval_misses, 2);
        // Execution is layout-independent even though placement is not.
        assert_eq!(orig.instructions, revd.instructions);
    }

    #[test]
    fn distinct_exec_configs_evaluate_separately() {
        let m = module();
        let engine = Engine::new();
        let short = EvalConfig {
            exec: clop_ir::ExecConfig::with_fuel(50),
            ..EvalConfig::default()
        };
        let a = engine.evaluate(&m, &Layout::original(&m), &EvalConfig::default());
        let b = engine.evaluate(&m, &Layout::original(&m), &short);
        assert!(a.stream.len() > b.stream.len());
    }

    #[test]
    fn optimization_is_memoized_by_name_and_params() {
        let m = module();
        let engine = Engine::new();
        let params = PipelineParams::for_granularity(clop_trace::Granularity::Function);
        let a = engine.optimize(&m, "function-affinity", &params).unwrap();
        let b = engine.optimize(&m, "function-affinity", &params).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = engine.optimize(&m, "function-trg", &params).unwrap();
        assert_eq!(c.name, "function-trg");
        let stats = engine.stats();
        assert_eq!((stats.opt_hits, stats.opt_misses), (1, 2));
    }

    #[test]
    fn clear_empties_the_cache() {
        let m = module();
        let engine = Engine::new();
        let cfg = EvalConfig::default();
        let a = engine.evaluate(&m, &Layout::original(&m), &cfg);
        engine.clear();
        let b = engine.evaluate(&m, &Layout::original(&m), &cfg);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(engine.stats().eval_misses, 2);
    }

    #[test]
    fn jobs_does_not_split_the_optimization_cache() {
        let m = module();
        let engine = Engine::new();
        let params = PipelineParams::for_granularity(clop_trace::Granularity::Function);
        let a = engine.optimize(&m, "function-affinity", &params).unwrap();
        let b = engine
            .optimize(&m, "function-affinity", &params.clone().with_jobs(4))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = engine.stats();
        assert_eq!((stats.opt_hits, stats.opt_misses), (1, 1));
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let m = module();
        let engine = Engine::new();
        let cfg = EvalConfig::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let run = engine.evaluate(&m, &Layout::original(&m), &cfg);
                    assert!(!run.stream.is_empty());
                });
            }
        });
        // At least one thread computed; the rest either hit the cache or
        // raced to a duplicate compute, but a single entry remains.
        assert_eq!(engine.runs.lock().unwrap().len(), 1);
    }
}
