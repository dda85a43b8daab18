//! `evaluate-corun`: the paper's evaluation of finished layouts, timed
//! one (program, layout) cell per operation.
//!
//! Three subjects span the co-run behaviour classes — gcc (code-heavy),
//! sjeng (borderline) and omnetpp (sensitive) — each under its original,
//! bb-affinity and bb-trg layout, all built during set-up. A cell links
//! and runs the program on the reference input and measures it solo and
//! against gcc probe streams on both channels. The cache simulators do
//! the work here and the locality models do none, so this is the workload
//! on which a model optimization should change nothing.

use crate::layers::{self, Ledger, Measurement};
use crate::optimize::PROBE;
use crate::run::{OpLog, Options, Quality, Workload};
use crate::stats::Fnv;
use clop_core::{build_pipeline, EvalConfig, PipelineParams, ProfileConfig, ProgramRun};
use clop_ir::{Layout, Module};
use clop_trace::Granularity;
use clop_workloads::Workload as Program;

const SUBJECTS: [&str; 3] = ["403.gcc", "458.sjeng", "471.omnetpp"];

/// Layouts per subject; the first is the baseline of the quality check.
const LAYOUTS: [&str; 3] = ["original", "bb-affinity", "bb-trg"];

/// The evaluation config of a program: its reference input, default
/// linking and the paper's L1I.
pub fn eval_config(w: &Program) -> EvalConfig {
    EvalConfig {
        exec: w.ref_exec,
        ..EvalConfig::default()
    }
}

/// Solo misses and tenant-0 misses of the 2-way co-run with `probe`, on
/// the simulated channel.
pub fn misses(run: &ProgramRun, probe: &ProgramRun) -> (u64, u64) {
    (
        run.solo_sim().misses,
        run.corun_sim_nway(&[probe]).per_tenant[0].misses,
    )
}

struct Cell {
    name: String,
    module: Module,
    layout: Layout,
    config: EvalConfig,
}

/// The `evaluate-corun` workload.
pub struct EvaluateBench {
    probe: ProgramRun,
    cells: Vec<Cell>,
    /// Each cell's warm-up measurement, kept for the quality check.
    results: Vec<Option<Measurement>>,
}

impl EvaluateBench {
    /// Build the subjects, their optimized layouts and the probe run.
    pub fn new(options: &Options) -> Result<EvaluateBench, String> {
        let subjects: &[&str] = if options.smoke {
            &["471.omnetpp"]
        } else {
            &SUBJECTS
        };
        let mut cells = Vec::new();
        for name in subjects {
            let w = crate::program(options, name)?;
            let config = eval_config(&w);
            for layout_name in LAYOUTS {
                let (module, layout) = if layout_name == "original" {
                    (w.module.clone(), Layout::original(&w.module))
                } else {
                    let mut params = PipelineParams::for_granularity(Granularity::BasicBlock);
                    params.profile = ProfileConfig::with_exec(w.test_exec);
                    let o = build_pipeline(layout_name, &params)
                        .ok_or_else(|| format!("pipeline {} is not registered", layout_name))?
                        .optimize(&w.module)
                        .map_err(|e| format!("{}/{}: {}", name, layout_name, e))?;
                    (o.module, o.layout)
                };
                cells.push(Cell {
                    name: format!("{}/{}", name, layout_name),
                    module,
                    layout,
                    config,
                });
            }
        }
        let probe = crate::program(options, PROBE)?;
        let probe = ProgramRun::evaluate(
            &probe.module,
            &Layout::original(&probe.module),
            &eval_config(&probe),
        );
        Ok(EvaluateBench {
            probe,
            results: cells.iter().map(|_| None).collect(),
            cells,
        })
    }
}

impl Workload for EvaluateBench {
    fn cells(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.name.clone()).collect()
    }

    fn run(&mut self, cell: usize, _ops: &mut OpLog, l: &mut Ledger) -> Result<u64, String> {
        let c = &self.cells[cell];
        let run = if l.is_on() {
            layers::program_run(&c.module, &c.layout, &c.config, l)
        } else {
            ProgramRun::evaluate(&c.module, &c.layout, &c.config)
        };
        let m = layers::measure(&run, &self.probe, l);
        let mut h = Fnv::default();
        for s in [m.solo, m.corun2, m.corun4, m.timed_corun] {
            h.u64(s.accesses).u64(s.misses);
        }
        h.u64(m.timed_solo_cycles.to_bits())
            .u64(m.timed_corun_cycles.to_bits());
        self.results[cell].get_or_insert(m);
        Ok(h.0)
    }

    fn quality(&mut self) -> Result<Quality, String> {
        let mut q = Quality::default();
        for (subject, results) in self.results.chunks(LAYOUTS.len()).enumerate() {
            let missing = || format!("subject {} lacks a warm-up measurement", subject);
            let orig = results[0].ok_or_else(missing)?;
            for opt in &results[1..] {
                let opt = opt.ok_or_else(missing)?;
                q.add(
                    (orig.solo.misses, opt.solo.misses),
                    (orig.corun2.misses, opt.corun2.misses),
                );
            }
        }
        Ok(q)
    }
}
