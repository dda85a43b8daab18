//! Named workload scenarios beyond the SPEC-like suite.
//!
//! The paper motivates code layout with workload classes whose *active
//! code* is large or whose co-run patterns are adversarial — "in cases
//! where the active code size is large, e.g. database, and the number of
//! co-run programs is high" (§III-F). These builders produce such
//! programs for examples, stress tests and future experiments:
//!
//! * [`interpreter`] — a bytecode-interpreter shape: a hot dispatch switch
//!   over many mid-sized handlers with Zipf-distributed opcodes,
//! * [`database`] — a large-active-code shape: many query operators, each
//!   with sizable straight-line bodies, cycled by query plans (phases),
//! * [`microservice`] — a request-handler shape: a small hot core plus a
//!   long tail of per-endpoint handlers selected with low probability,
//! * [`numeric_kernel`] — a tiny-footprint control: a handful of hot
//!   loops, negligible icache pressure (the suite's "tiny" class in one
//!   call).

use crate::gen::{fixed, Workload, WorkloadSpec};

/// A bytecode-interpreter-shaped workload. `opcodes` sets the dispatch
/// width; widths beyond the BB reorderer's limit (12) reproduce the
/// paper's N/A behaviour for interpreter-heavy programs.
pub fn interpreter(opcodes: usize, seed: u64) -> Workload {
    fixed(&WorkloadSpec {
        name: format!("scenario.interpreter{}", opcodes),
        seed,
        hot_funcs: 16,
        hot_func_bytes: 900,
        diamonds_per_func: 3,
        phase_correlation: 0.2,
        loop_fraction: 0.5,
        loop_trips: (4, 12),
        phases: 2,
        funcs_per_phase: 12,
        phase_trips: 80,
        cold_funcs: 20,
        cold_func_bytes: 1536,
        cold_call_prob: 0.01,
        dispatch_width: opcodes,
        ..Default::default()
    })
}

/// A database-engine-shaped workload: large active code, strong phase
/// behaviour (query plans), moderate cold tail (utility code).
pub fn database(seed: u64) -> Workload {
    fixed(&WorkloadSpec {
        name: "scenario.database".into(),
        seed,
        hot_funcs: 64,
        hot_func_bytes: 1800,
        diamonds_per_func: 6,
        phase_correlation: 0.5,
        loop_fraction: 0.5,
        loop_trips: (6, 18),
        phases: 6,
        funcs_per_phase: 28,
        phase_trips: 25,
        cold_funcs: 80,
        cold_func_bytes: 2048,
        cold_call_prob: 0.04,
        dispatch_width: 0,
        ..Default::default()
    })
}

/// A microservice-shaped workload: a compact hot request loop plus a long
/// tail of rarely-invoked endpoint handlers polluting the layout.
pub fn microservice(seed: u64) -> Workload {
    fixed(&WorkloadSpec {
        name: "scenario.microservice".into(),
        seed,
        hot_funcs: 10,
        hot_func_bytes: 800,
        diamonds_per_func: 3,
        phase_correlation: 0.1,
        loop_fraction: 0.4,
        loop_trips: (3, 10),
        phases: 2,
        funcs_per_phase: 8,
        phase_trips: 150,
        cold_funcs: 120,
        cold_func_bytes: 1024,
        cold_call_prob: 0.08,
        dispatch_width: 0,
        ..Default::default()
    })
}

/// A numeric-kernel control workload: trivially small hot footprint.
pub fn numeric_kernel(seed: u64) -> Workload {
    fixed(&WorkloadSpec {
        name: "scenario.numeric".into(),
        seed,
        hot_funcs: 4,
        hot_func_bytes: 600,
        diamonds_per_func: 2,
        phase_correlation: 0.0,
        loop_fraction: 0.8,
        loop_trips: (16, 64),
        phases: 1,
        funcs_per_phase: 4,
        phase_trips: 4000,
        cold_funcs: 6,
        cold_func_bytes: 1024,
        cold_call_prob: 0.0,
        dispatch_width: 0,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_cachesim::{simulate_solo_lines, CacheConfig};
    use clop_ir::{line_trace, Interpreter, Layout, LinkOptions, LinkedImage};

    fn solo_miss(w: &Workload) -> f64 {
        let img = LinkedImage::link(
            &w.module,
            &Layout::original(&w.module),
            LinkOptions::default(),
        );
        let out = Interpreter::new(w.ref_exec).run(&w.module);
        let lines = line_trace(&out.bb_trace, &img, 64);
        simulate_solo_lines(&lines, CacheConfig::paper_l1i()).miss_ratio()
    }

    #[test]
    fn all_scenarios_build_and_run() {
        for w in [
            interpreter(20, 1),
            database(2),
            microservice(3),
            numeric_kernel(4),
        ] {
            assert!(w.module.validate().is_ok(), "{}", w.name);
            let out = Interpreter::new(w.test_exec).run(&w.module);
            assert!(out.num_events() > 1000, "{}", w.name);
        }
    }

    #[test]
    fn interpreter_has_requested_dispatch_width() {
        let w = interpreter(20, 7);
        let f = w.module.function_by_name("dispatch").expect("dispatcher");
        assert_eq!(w.module.function(f).unwrap().num_blocks(), 21);
    }

    #[test]
    fn database_dwarfs_numeric_kernel_on_icache() {
        let db = solo_miss(&database(11));
        let nk = solo_miss(&numeric_kernel(11));
        assert!(db > 0.01, "database miss ratio {}", db);
        assert!(nk < 0.005, "numeric miss ratio {}", nk);
        assert!(db > nk * 5.0);
    }

    #[test]
    fn microservice_is_layout_sensitive() {
        // Its compact hot loop is diluted by 120 cold handlers; hot-first
        // reordering must help (or at worst be neutral).
        use clop_core::{build_pipeline, PipelineParams, ProfileConfig};
        let w = microservice(5);
        let name = "function-affinity";
        let mut params = PipelineParams::for_pipeline(name).unwrap();
        params.profile = ProfileConfig::with_exec(w.test_exec);
        let o = build_pipeline(name, &params)
            .unwrap()
            .optimize(&w.module)
            .unwrap();
        let base = solo_miss(&w);
        let img = LinkedImage::link(&o.module, &o.layout, LinkOptions::default());
        let out = Interpreter::new(w.ref_exec).run(&o.module);
        let lines = line_trace(&out.bb_trace, &img, 64);
        let after = simulate_solo_lines(&lines, CacheConfig::paper_l1i()).miss_ratio();
        assert!(after <= base * 1.05, "before {} after {}", base, after);
    }

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        assert_eq!(database(9).module, database(9).module);
        assert_ne!(database(9).module, database(10).module);
    }
}
