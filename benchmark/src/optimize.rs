//! `optimize-suite` and `optimize-ref`: the paper's pipelines, timed one
//! pipeline run per operation.
//!
//! * `optimize-suite` runs all four pipelines over the 29-program suite on
//!   the test input. Most traces are small, so fixed per-call costs
//!   (prepare, realize, verify, hierarchy) weigh as much as the models.
//! * `optimize-ref` runs the two BB pipelines over the six BB-capable
//!   primaries profiled on the reference input: the longest traces the
//!   repository makes, where the model stages dominate.

use crate::evaluate::{eval_config, misses};
use crate::layers::{self, Ledger};
use crate::run::{Check, OpLog, Options, Quality, Workload};
use crate::stats::Fnv;
use clop_core::{
    build_pipeline, OptimizedProgram, Pipeline, PipelineParams, ProfileConfig, ProgramRun,
};
use clop_ir::Layout;
use clop_trace::Granularity;
use clop_workloads::Workload as Program;

/// The paper's four pipelines, in registry order.
const PIPELINES: [&str; 4] = ["function-affinity", "bb-affinity", "function-trg", "bb-trg"];

/// The BB-capable primaries (perlbench and povray carry a dispatch switch
/// the BB reorderer rejects).
const BB_PRIMARIES: [&str; 6] = [
    "403.gcc",
    "445.gobmk",
    "458.sjeng",
    "483.xalancbmk",
    "471.omnetpp",
    "429.mcf",
];

/// The co-run probe of the quality check (the paper's code-heavy probe).
pub const PROBE: &str = "403.gcc";

struct Cell {
    name: String,
    program: usize,
    pipeline: Pipeline,
    params: PipelineParams,
}

/// An optimize workload: (program, pipeline) cells.
pub struct OptimizeBench {
    options: Options,
    programs: Vec<Program>,
    cells: Vec<Cell>,
    /// Each cell's warm-up result, kept for the quality check.
    products: Vec<Option<OptimizedProgram>>,
    /// Per program: name, whether BB preparation rejected it, and whether
    /// it carries a dispatch switch (the documented cause of rejection).
    not_applicable: Vec<(String, bool, bool)>,
}

impl OptimizeBench {
    /// `optimize-suite`: 29 programs × 4 pipelines on the test input,
    /// minus the cells whose BB preparation rejects the program.
    pub fn suite(options: &Options) -> Result<OptimizeBench, String> {
        let names: Vec<&str> = if options.smoke {
            vec!["400.perlbench", "470.lbm", "462.libquantum"]
        } else {
            clop_workloads::full_suite()
                .iter()
                .map(|e| e.name)
                .collect()
        };
        OptimizeBench::new(options, &names, &PIPELINES, false)
    }

    /// `optimize-ref`: the six BB-capable primaries × the two BB pipelines,
    /// profiled on the reference input.
    pub fn reference(options: &Options) -> Result<OptimizeBench, String> {
        let names: &[&str] = if options.smoke {
            &["429.mcf"]
        } else {
            &BB_PRIMARIES
        };
        OptimizeBench::new(options, names, &["bb-affinity", "bb-trg"], true)
    }

    fn new(
        options: &Options,
        names: &[&str],
        pipelines: &[&str],
        ref_profile: bool,
    ) -> Result<OptimizeBench, String> {
        let mut programs = Vec::with_capacity(names.len());
        let mut cells = Vec::new();
        let mut not_applicable = Vec::new();
        for (p, name) in names.iter().enumerate() {
            let w = crate::program(options, name)?;
            let bb_ok = clop_core::preprocess_for_bb_reordering(&w.module).is_ok();
            not_applicable.push((w.name.clone(), !bb_ok, w.spec.dispatch_width > 0));
            for &pipe_name in pipelines {
                let granularity = if pipe_name.starts_with("bb-") {
                    Granularity::BasicBlock
                } else {
                    Granularity::Function
                };
                if granularity == Granularity::BasicBlock && !bb_ok {
                    continue;
                }
                let mut params = PipelineParams::for_granularity(granularity);
                let exec = if ref_profile { w.ref_exec } else { w.test_exec };
                params.profile = ProfileConfig::with_exec(exec);
                let pipeline = build_pipeline(pipe_name, &params)
                    .ok_or_else(|| format!("pipeline {} is not registered", pipe_name))?;
                cells.push(Cell {
                    name: format!("{}/{}", w.name, pipe_name),
                    program: p,
                    pipeline,
                    params,
                });
            }
            programs.push(w);
        }
        Ok(OptimizeBench {
            options: options.clone(),
            products: cells.iter().map(|_| None).collect(),
            programs,
            cells,
            not_applicable,
        })
    }
}

/// Digest of a layout: its kind and its order.
fn layout_digest(layout: &Layout) -> u64 {
    let mut h = Fnv::default();
    match layout {
        Layout::FunctionOrder(o) => h.u64(0).ids(o.iter().map(|f| f.0)),
        Layout::BlockOrder(o) => h.u64(1).ids(o.iter().map(|b| b.0)),
    };
    h.0
}

impl Workload for OptimizeBench {
    fn cells(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.name.clone()).collect()
    }

    fn run(&mut self, cell: usize, _ops: &mut OpLog, l: &mut Ledger) -> Result<u64, String> {
        let c = &self.cells[cell];
        let module = &self.programs[c.program].module;
        if l.is_on() {
            let layout =
                layers::optimize(&c.pipeline, &c.params, module, l).map_err(|e| e.to_string())?;
            return Ok(layout_digest(&layout));
        }
        let o = c.pipeline.optimize(module).map_err(|e| e.to_string())?;
        let digest = layout_digest(&o.layout);
        if self.products[cell].is_none() {
            self.products[cell] = Some(o);
        }
        Ok(digest)
    }

    fn quality(&mut self) -> Result<Quality, String> {
        let probe_program = crate::program(&self.options, PROBE)?;
        let probe = ProgramRun::evaluate(
            &probe_program.module,
            &Layout::original(&probe_program.module),
            &eval_config(&probe_program),
        );
        let originals: Vec<(u64, u64)> = self
            .programs
            .iter()
            .map(|w| {
                let run =
                    ProgramRun::evaluate(&w.module, &Layout::original(&w.module), &eval_config(w));
                misses(&run, &probe)
            })
            .collect();
        let mut q = Quality::default();
        for (c, product) in self.cells.iter().zip(&self.products) {
            let o = product
                .as_ref()
                .ok_or_else(|| format!("{} has no warm-up layout", c.name))?;
            let w = &self.programs[c.program];
            let opt = misses(
                &ProgramRun::evaluate(&o.module, &o.layout, &eval_config(w)),
                &probe,
            );
            let orig = originals[c.program];
            q.add((orig.0, opt.0), (orig.1, opt.1));
        }
        Ok(q)
    }

    fn finish(&mut self) -> Vec<Check> {
        self.not_applicable
            .iter()
            .map(|(name, rejected, dispatch)| {
                Check::new(
                    "bb-not-applicable-iff-dispatch",
                    rejected == dispatch,
                    format!(
                        "{}: BB preparation {}, dispatch switch {}",
                        name,
                        if *rejected { "rejected" } else { "accepted" },
                        if *dispatch { "present" } else { "absent" }
                    ),
                )
            })
            .collect()
    }
}
