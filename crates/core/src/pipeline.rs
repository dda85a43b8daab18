//! The optimization pipeline as open traits plus a fixed table of names.
//!
//! The paper's contribution (§II-F) is a *pipeline* — instrument → trace →
//! prune → model → transform → evaluate — instantiated four ways: two
//! locality models (w-window reference affinity, TRG) crossed with two
//! transforms (global function reordering, inter-procedural basic-block
//! reordering). This module makes both axes first-class:
//!
//! * [`LocalityModel`] turns a trimmed trace into a hot-unit sequence.
//! * [`Transform`] owns a granularity: it prepares the module, selects the
//!   matching trace from a [`Profile`], and realizes the model's sequence
//!   as a concrete [`Layout`].
//! * [`Pipeline`] composes one of each with a profiling configuration.
//! * [`PIPELINES`] names the four compositions ("function-affinity",
//!   "bb-trg", …) and [`build_pipeline`] builds one by name. The name is a
//!   pipeline's only identity: the CLI, the engine, the daemon and the
//!   experiment harness all construct pipelines through it.

use crate::bbreorder;
use crate::optimizer::{OptError, OptimizedProgram};
use crate::profile::{Profile, ProfileConfig};
use clop_affinity::{affinity_layout_jobs, AffinityConfig, AffinityHierarchy};
use clop_ir::{FuncId, GlobalBlockId, Layout, Module};
use clop_trace::{BlockId, Granularity, TrimmedTrace};
use clop_trg::{trg_layout_jobs, TrgConfig};
use std::sync::Arc;

/// A locality model: maps a trimmed code-block trace to a hot-unit
/// placement sequence. Units the model never mentions are appended in
/// original order by the transform.
pub trait LocalityModel: Send + Sync {
    /// Short human-readable model name (e.g. `"affinity"`).
    fn name(&self) -> &str;
    /// The placement sequence for the profiled units.
    fn sequence(&self, trace: &TrimmedTrace) -> Vec<BlockId>;
    /// The placement sequence computed from a streamed incremental fold
    /// instead of a materialized trace. `None` when the model has no
    /// incremental path or the state was folded at different parameters;
    /// when `Some`, the sequence is bit-identical to
    /// [`sequence`](LocalityModel::sequence) over the trace whose shards
    /// the state absorbed.
    fn sequence_incremental(
        &self,
        _state: &crate::incremental::VersionState,
    ) -> Option<Vec<BlockId>> {
        None
    }
}

/// w-window reference affinity (paper §II-B) as a [`LocalityModel`].
#[derive(Clone, Copy, Debug)]
pub struct WWindowAffinity {
    pub config: AffinityConfig,
    /// Worker count for the sharded threshold measurement; the layout is
    /// bit-identical for any value (1 = serial).
    pub jobs: usize,
}

impl LocalityModel for WWindowAffinity {
    fn name(&self) -> &str {
        "affinity"
    }

    fn sequence(&self, trace: &TrimmedTrace) -> Vec<BlockId> {
        affinity_layout_jobs(trace, self.config, self.jobs.max(1))
    }

    fn sequence_incremental(
        &self,
        state: &crate::incremental::VersionState,
    ) -> Option<Vec<BlockId>> {
        // The fold carries thresholds at one normalized window bound; a
        // model configured differently cannot use it.
        if state.affinity_state().w_max() != self.config.w_max.max(2) {
            return None;
        }
        let thresholds = state.affinity_state().finalize();
        Some(AffinityHierarchy::build_from_stats(state.index(), &thresholds, self.config).layout())
    }
}

/// Temporal relationship graph (paper §II-C) as a [`LocalityModel`].
#[derive(Clone, Copy, Debug)]
pub struct TrgModel {
    pub config: TrgConfig,
    /// Worker count for the sharded graph construction; the layout is
    /// bit-identical for any value (1 = serial).
    pub jobs: usize,
}

impl LocalityModel for TrgModel {
    fn name(&self) -> &str {
        "trg"
    }

    fn sequence(&self, trace: &TrimmedTrace) -> Vec<BlockId> {
        trg_layout_jobs(trace, self.config, self.jobs.max(1))
    }

    fn sequence_incremental(
        &self,
        state: &crate::incremental::VersionState,
    ) -> Option<Vec<BlockId>> {
        if state.trg_state().window() != self.config.window {
            return None;
        }
        let trg = state.trg_state().finalize();
        Some(clop_trg::reduce_from_stats(&trg, self.config.slots, state.index()).sequence)
    }
}

/// A code transform at a fixed granularity: prepares the module for
/// reordering, picks the trace the model should see, and turns the model's
/// sequence into a layout.
pub trait Transform: Send + Sync {
    /// Short human-readable transform name (e.g. `"function"`).
    fn name(&self) -> &str;
    /// The granularity this transform reorders at.
    fn granularity(&self) -> Granularity;
    /// Rewrite the module so every unit of this granularity can move
    /// freely. Identity for function reordering; stub insertion for
    /// inter-procedural BB reordering.
    fn prepare(&self, module: &Module) -> Result<Module, OptError>;
    /// The trace of this transform's granularity within a profile.
    fn trace<'p>(&self, profile: &'p Profile) -> &'p TrimmedTrace;
    /// Extend the hot sequence to a full layout of `prepared` and validate
    /// it.
    fn realize(&self, prepared: &Module, hot: &[BlockId]) -> Result<Layout, OptError>;
}

/// Global function reordering (paper §II-D).
#[derive(Clone, Copy, Debug, Default)]
pub struct FunctionReorder;

impl Transform for FunctionReorder {
    fn name(&self) -> &str {
        "function"
    }

    fn granularity(&self) -> Granularity {
        Granularity::Function
    }

    fn prepare(&self, module: &Module) -> Result<Module, OptError> {
        Ok(module.clone())
    }

    fn trace<'p>(&self, profile: &'p Profile) -> &'p TrimmedTrace {
        &profile.func_trace
    }

    fn realize(&self, prepared: &Module, hot: &[BlockId]) -> Result<Layout, OptError> {
        let order = complete_order(hot.iter().map(|b| b.0), prepared.num_functions() as u32);
        let layout = Layout::FunctionOrder(order.into_iter().map(FuncId).collect());
        debug_assert!(layout.is_permutation_of(prepared));
        Ok(layout)
    }
}

/// Inter-procedural basic-block reordering (paper §II-E, `bbreorder`).
#[derive(Clone, Copy, Debug, Default)]
pub struct BbReorder;

impl Transform for BbReorder {
    fn name(&self) -> &str {
        "bb"
    }

    fn granularity(&self) -> Granularity {
        Granularity::BasicBlock
    }

    fn prepare(&self, module: &Module) -> Result<Module, OptError> {
        Ok(bbreorder::preprocess_for_bb_reordering(module)?)
    }

    fn trace<'p>(&self, profile: &'p Profile) -> &'p TrimmedTrace {
        &profile.bb_trace
    }

    fn realize(&self, prepared: &Module, hot: &[BlockId]) -> Result<Layout, OptError> {
        let order = complete_order(hot.iter().map(|b| b.0), prepared.num_blocks() as u32);
        let layout = Layout::BlockOrder(order.into_iter().map(GlobalBlockId).collect());
        bbreorder::postprocess_check(prepared, &layout)?;
        Ok(layout)
    }
}

/// Extend a hot-unit sequence to a full permutation of `0..n`: cold units
/// (absent from the sequence) follow in original order.
pub(crate) fn complete_order<I: IntoIterator<Item = u32>>(hot: I, n: u32) -> Vec<u32> {
    let mut seen = vec![false; n as usize];
    let mut order = Vec::with_capacity(n as usize);
    for id in hot {
        // The model may mention only in-range units; anything else is a bug
        // upstream.
        debug_assert!(id < n, "model produced out-of-range unit {}", id);
        if !seen[id as usize] {
            seen[id as usize] = true;
            order.push(id);
        }
    }
    for id in 0..n {
        if !seen[id as usize] {
            order.push(id);
        }
    }
    order
}

/// A composed optimization pipeline: profile → model → transform.
#[derive(Clone)]
pub struct Pipeline {
    /// Name this pipeline was built under (e.g.
    /// `"function-affinity"`); recorded on the [`OptimizedProgram`].
    pub name: String,
    /// The locality model.
    pub model: Arc<dyn LocalityModel>,
    /// The transform.
    pub transform: Arc<dyn Transform>,
    /// Profiling (test-input) configuration.
    pub profile: ProfileConfig,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("name", &self.name)
            .field("model", &self.model.name())
            .field("transform", &self.transform.name())
            .field("profile", &self.profile)
            .finish()
    }
}

impl Pipeline {
    /// Compose a pipeline; its name is `"<transform>-<model>"`.
    pub fn new(
        model: Arc<dyn LocalityModel>,
        transform: Arc<dyn Transform>,
        profile: ProfileConfig,
    ) -> Pipeline {
        let name = format!("{}-{}", transform.name(), model.name());
        Pipeline {
            name,
            model,
            transform,
            profile,
        }
    }

    /// Run the full pipeline of §II-F on a module.
    ///
    /// Unless `CLOP_VERIFY=0`, the result passes through the static
    /// verification stage before it is returned: the prepared module must
    /// be well-formed and the (layout, transform) pair semantically
    /// equivalent to the input (see `clop-verify`). A rejection is always
    /// a bug in a model or transform and surfaces as [`OptError::Verify`].
    pub fn optimize(&self, module: &Module) -> Result<OptimizedProgram, OptError> {
        let prepared = self.transform.prepare(module)?;
        let profile = Profile::collect(&prepared, &self.profile);
        let trace = self.transform.trace(&profile);
        if trace.is_empty() {
            return Err(OptError::EmptyProfile);
        }
        let hot = self.model.sequence(trace);
        let layout = self.transform.realize(&prepared, &hot)?;
        if clop_verify::verify_enabled() {
            let mut report = clop_verify::verify_module(&prepared);
            report.extend(clop_verify::check_transform(
                module,
                &prepared,
                &layout,
                bbreorder::JUMP_BYTES,
            ));
            if !report.is_ok() {
                return Err(OptError::Verify(report));
            }
        }
        Ok(OptimizedProgram {
            module: prepared,
            layout,
            name: self.name.clone(),
            profile,
        })
    }
}

/// Model and transform parameters a pipeline may draw from.
///
/// Carrying all parameter families here keeps construction uniform:
/// callers configure one struct and [`build_pipeline`] hands each pipeline
/// the pieces its model understands.
#[derive(Clone, Debug)]
pub struct PipelineParams {
    /// Affinity model window range.
    pub affinity: AffinityConfig,
    /// TRG model window / slot configuration.
    pub trg: TrgConfig,
    /// Profiling configuration.
    pub profile: ProfileConfig,
    /// Worker count for the sharded locality analyses. Purely a throughput
    /// knob: every model result is bit-identical for any value.
    pub jobs: usize,
}

impl PipelineParams {
    /// The paper's default parameters for the given granularity.
    ///
    /// The TRG model assumes a uniform code-block size (§II-C: the compiler
    /// has no binary sizes); a typical function is ~1 KB, a typical basic
    /// block ~64 B — which sets the slot count and the 2C window.
    pub fn for_granularity(granularity: Granularity) -> PipelineParams {
        let assumed_block_bytes = match granularity {
            Granularity::BasicBlock => 64,
            Granularity::Function => 1024,
        };
        PipelineParams {
            affinity: AffinityConfig::default(),
            trg: TrgConfig::from_cache(32 * 1024, 4, 64, assumed_block_bytes),
            profile: ProfileConfig::default(),
            jobs: 1,
        }
    }

    /// The paper's default parameters for the pipeline `name`: those of
    /// its transform's granularity. `None` for a name outside
    /// [`PIPELINES`].
    pub fn for_pipeline(name: &str) -> Option<PipelineParams> {
        Some(PipelineParams::for_granularity(
            transform_of(name)?.granularity(),
        ))
    }

    /// This parameter set with the analysis worker count set to `jobs`.
    pub fn with_jobs(mut self, jobs: usize) -> PipelineParams {
        self.jobs = jobs.max(1);
        self
    }
}

/// The paper's four pipelines, {function, bb} reordering × {w-window
/// affinity, TRG}, in presentation order. Every name here builds through
/// [`build_pipeline`]; no other name does.
pub const PIPELINES: [&str; 4] = ["function-affinity", "bb-affinity", "function-trg", "bb-trg"];

/// The transform a name in [`PIPELINES`] reorders with.
fn transform_of(name: &str) -> Option<Arc<dyn Transform>> {
    match name {
        "function-affinity" | "function-trg" => Some(Arc::new(FunctionReorder)),
        "bb-affinity" | "bb-trg" => Some(Arc::new(BbReorder)),
        _ => None,
    }
}

/// Build the pipeline named `name` (one of [`PIPELINES`]) from `params`;
/// `None` for any other name. The pipeline's recorded name is `name`.
pub fn build_pipeline(name: &str, params: &PipelineParams) -> Option<Pipeline> {
    let transform = transform_of(name)?;
    let model: Arc<dyn LocalityModel> = if name.ends_with("-affinity") {
        Arc::new(WWindowAffinity {
            config: params.affinity,
            jobs: params.jobs,
        })
    } else {
        Arc::new(TrgModel {
            config: params.trg,
            jobs: params.jobs,
        })
    };
    Some(Pipeline::new(model, transform, params.profile))
}

/// Run the pipeline `name` on `module` at its default parameters (unit
/// tests across the crate).
#[cfg(test)]
pub(crate) fn optimize_named(name: &str, module: &Module) -> Result<OptimizedProgram, OptError> {
    let params = PipelineParams::for_pipeline(name).unwrap();
    build_pipeline(name, &params).unwrap().optimize(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_ir::prelude::*;

    fn small_module() -> Module {
        let mut b = ModuleBuilder::new("t");
        b.function("main")
            .call("c1", 8, "f", "back")
            .branch("back", 8, CondModel::LoopCounter { trip: 30 }, "c1", "end")
            .ret("end", 8)
            .finish();
        b.function("f").ret("fb", 32).finish();
        b.build().unwrap()
    }

    #[test]
    fn built_pipeline_optimizes_and_records_name() {
        let m = small_module();
        let params = PipelineParams::for_granularity(Granularity::Function);
        let pipe = build_pipeline("function-affinity", &params).unwrap();
        let opt = pipe.optimize(&m).unwrap();
        assert_eq!(opt.name, "function-affinity");
        assert!(opt.layout.is_permutation_of(&opt.module));
    }

    #[test]
    fn unknown_name_is_none() {
        let params = PipelineParams::for_granularity(Granularity::Function);
        assert!(build_pipeline("no-such-pipeline", &params).is_none());
    }

    #[test]
    fn transforms_report_granularity() {
        assert_eq!(FunctionReorder.granularity(), Granularity::Function);
        assert_eq!(BbReorder.granularity(), Granularity::BasicBlock);
        assert_eq!(FunctionReorder.name(), "function");
        assert_eq!(BbReorder.name(), "bb");
    }

    #[test]
    fn pipeline_debug_is_compact() {
        let params = PipelineParams::for_granularity(Granularity::Function);
        let pipe = build_pipeline("function-trg", &params).unwrap();
        let dbg = format!("{:?}", pipe);
        assert!(dbg.contains("function-trg") && dbg.contains("trg"));
    }
}
