//! The 29-program suite, named after the paper's SPEC CPU2006 benchmarks.
//!
//! Each entry's generator parameters place it in one of four
//! instruction-cache behaviour classes, matching the distribution the paper
//! reports in Figure 4 and Table I:
//!
//! * **CodeHeavy** — hot code well beyond the 32 KB L1I: percent-level solo
//!   miss ratios (gcc, gobmk, povray, perlbench, xalancbmk, gamess),
//! * **Borderline** — hot code around capacity: sub-percent solo miss
//!   ratios that co-run inflates strongly (sjeng, tonto),
//! * **Sensitive** — hot code comfortably below capacity but more than half
//!   of it: near-zero solo ratios, dramatic co-run inflation (omnetpp,
//!   mcf),
//! * **Tiny** — small hot footprints, trivial miss ratios everywhere (the
//!   remaining 19 programs).
//!
//! perlbench- and povray-like carry an interpreter/shader-style wide
//! dispatch switch, which the BB reorderer rejects — reproducing the two
//! "N/A" entries of the paper's tables.

use crate::gen::{Workload, WorkloadSpec};

/// The 8 primary benchmarks of Tables I–II and Figures 5–6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimaryBenchmark {
    Perlbench,
    Gcc,
    Mcf,
    Gobmk,
    Povray,
    Sjeng,
    Omnetpp,
    Xalancbmk,
}

impl PrimaryBenchmark {
    /// All 8, in the paper's table order.
    pub const ALL: [PrimaryBenchmark; 8] = [
        PrimaryBenchmark::Perlbench,
        PrimaryBenchmark::Gcc,
        PrimaryBenchmark::Mcf,
        PrimaryBenchmark::Gobmk,
        PrimaryBenchmark::Povray,
        PrimaryBenchmark::Sjeng,
        PrimaryBenchmark::Omnetpp,
        PrimaryBenchmark::Xalancbmk,
    ];

    /// The SPEC-style display name.
    pub fn name(self) -> &'static str {
        match self {
            PrimaryBenchmark::Perlbench => "400.perlbench",
            PrimaryBenchmark::Gcc => "403.gcc",
            PrimaryBenchmark::Mcf => "429.mcf",
            PrimaryBenchmark::Gobmk => "445.gobmk",
            PrimaryBenchmark::Povray => "453.povray",
            PrimaryBenchmark::Sjeng => "458.sjeng",
            PrimaryBenchmark::Omnetpp => "471.omnetpp",
            PrimaryBenchmark::Xalancbmk => "483.xalancbmk",
        }
    }
}

/// The two probe programs of Table I and the intro experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbeBenchmark {
    /// 403.gcc — a code-heavy probe.
    Gcc,
    /// 416.gamess — a heavier probe (Fortran in the paper, hence excluded
    /// from the optimized set but still used as a peer).
    Gamess,
}

impl ProbeBenchmark {
    /// The SPEC-style display name.
    pub fn name(self) -> &'static str {
        match self {
            ProbeBenchmark::Gcc => "403.gcc",
            ProbeBenchmark::Gamess => "416.gamess",
        }
    }
}

/// Behaviour class of a suite entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    CodeHeavy,
    Borderline,
    Sensitive,
    Tiny,
}

/// One suite entry: name plus its generator class and per-program tweak.
#[derive(Clone, Debug)]
pub struct SuiteEntry {
    /// SPEC-style name, e.g. "403.gcc".
    pub name: &'static str,
    class: Class,
    /// Per-program seed (stable across runs).
    seed: u64,
    /// Dispatch switch width (0 = none).
    dispatch: usize,
    /// Size scale within the class, around 1.0.
    scale: f64,
}

impl SuiteEntry {
    /// Generate this entry's workload.
    pub fn workload(&self) -> Workload {
        let mut spec = match self.class {
            // Hot code far beyond the 32 KB cache: phase working sets
            // themselves overflow it.
            Class::CodeHeavy => WorkloadSpec {
                hot_funcs: 48,
                hot_func_bytes: 1600,
                diamonds_per_func: 5,
                loop_fraction: 0.55,
                loop_trips: (6, 16),
                phases: 5,
                funcs_per_phase: 24,
                phase_trips: 30,
                cold_funcs: 60,
                cold_func_bytes: 2048,
                cold_call_prob: 0.05,
                ..Default::default()
            },
            // Hot code near capacity.
            Class::Borderline => WorkloadSpec {
                hot_funcs: 30,
                hot_func_bytes: 1200,
                diamonds_per_func: 4,
                loop_fraction: 0.6,
                loop_trips: (8, 20),
                phases: 3,
                funcs_per_phase: 18,
                phase_trips: 60,
                cold_funcs: 40,
                cold_func_bytes: 2048,
                cold_call_prob: 0.02,
                ..Default::default()
            },
            // Fits alone, overflows when shared.
            Class::Sensitive => WorkloadSpec {
                hot_funcs: 18,
                hot_func_bytes: 1100,
                diamonds_per_func: 4,
                loop_fraction: 0.5,
                loop_trips: (6, 14),
                phases: 2,
                funcs_per_phase: 14,
                phase_trips: 120,
                cold_funcs: 25,
                cold_func_bytes: 2048,
                cold_call_prob: 0.004,
                ..Default::default()
            },
            // Small footprint: trivial miss ratios.
            Class::Tiny => WorkloadSpec {
                hot_funcs: 8,
                hot_func_bytes: 700,
                diamonds_per_func: 3,
                phases: 2,
                funcs_per_phase: 6,
                phase_trips: 200,
                cold_funcs: 15,
                cold_func_bytes: 1024,
                cold_call_prob: 0.001,
                ..Default::default()
            },
        };
        spec.name = self.name.to_string();
        spec.seed = self.seed;
        spec.dispatch_width = self.dispatch;
        spec.hot_func_bytes = (spec.hot_func_bytes as f64 * self.scale) as u32;
        crate::gen::fixed(&spec)
    }
}

/// The full 29-program suite of Figure 4.
pub fn full_suite() -> Vec<SuiteEntry> {
    // Seeds are arbitrary but fixed; scales diversify within a class.
    let e = |name, class, seed, dispatch, scale| SuiteEntry {
        name,
        class,
        seed,
        dispatch,
        scale,
    };
    vec![
        // The 9 programs with non-trivial miss ratios (plus mcf/omnetpp).
        e("403.gcc", Class::CodeHeavy, 0x67cc, 0, 1.05),
        e("445.gobmk", Class::CodeHeavy, 0x906b, 0, 0.95),
        e("453.povray", Class::CodeHeavy, 0x7067, 16, 0.85),
        e("400.perlbench", Class::CodeHeavy, 0x7e71, 20, 0.80),
        e("483.xalancbmk", Class::CodeHeavy, 0x8a1a, 0, 0.70),
        e("416.gamess", Class::CodeHeavy, 0x9a3e, 0, 0.90),
        e("458.sjeng", Class::Borderline, 0x57e6, 0, 1.00),
        e("465.tonto", Class::Borderline, 0x7070, 0, 0.90),
        e("471.omnetpp", Class::Sensitive, 0x0317, 0, 0.88),
        e("429.mcf", Class::Sensitive, 0x3cf0, 0, 0.62),
        // The tail with trivial miss ratios.
        e("401.bzip2", Class::Tiny, 0xb21, 0, 1.2),
        e("410.bwaves", Class::Tiny, 0xb3a, 0, 1.4),
        e("433.milc", Class::Tiny, 0x31c, 0, 0.9),
        e("434.zeusmp", Class::Tiny, 0x2e5, 0, 1.1),
        e("435.gromacs", Class::Tiny, 0x96a, 0, 1.3),
        e("436.cactusADM", Class::Tiny, 0xcad, 0, 1.0),
        e("437.leslie3d", Class::Tiny, 0x1e5, 0, 0.8),
        e("444.namd", Class::Tiny, 0x4a3, 0, 1.2),
        e("447.dealII", Class::Tiny, 0xdea, 0, 1.1),
        e("450.soplex", Class::Tiny, 0x50e, 0, 0.9),
        e("454.calculix", Class::Tiny, 0xca1, 0, 1.0),
        e("456.hmmer", Class::Tiny, 0x4c4, 0, 1.3),
        e("459.GemsFDTD", Class::Tiny, 0x9ed, 0, 0.8),
        e("462.libquantum", Class::Tiny, 0x11b, 0, 0.6),
        e("464.h264ref", Class::Tiny, 0x264, 0, 1.4),
        e("470.lbm", Class::Tiny, 0x1b1, 0, 0.5),
        e("473.astar", Class::Tiny, 0xa57, 0, 0.9),
        e("481.wrf", Class::Tiny, 0x3f1, 0, 1.1),
        e("482.sphinx3", Class::Tiny, 0x5f3, 0, 1.0),
    ]
}

/// Generate one of the 8 primary benchmark programs.
pub fn primary_program(b: PrimaryBenchmark) -> Workload {
    entry_by_name(b.name()).workload()
}

/// Generate a probe program.
pub fn probe_program(p: ProbeBenchmark) -> Workload {
    entry_by_name(p.name()).workload()
}

fn entry_by_name(name: &str) -> SuiteEntry {
    full_suite()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("unknown suite entry `{}`", name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_cachesim::{simulate_corun_nway, simulate_solo_lines, CacheConfig};
    use clop_ir::{line_trace, Interpreter, Layout, LinkOptions, LinkedImage};

    fn solo_lines(w: &Workload) -> Vec<u64> {
        let img = LinkedImage::link(
            &w.module,
            &Layout::original(&w.module),
            LinkOptions::default(),
        );
        let out = Interpreter::new(w.ref_exec).run(&w.module);
        line_trace(&out.bb_trace, &img, 64)
    }

    #[test]
    fn suite_has_29_unique_programs() {
        let s = full_suite();
        assert_eq!(s.len(), 29);
        let mut names: Vec<&str> = s.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 29);
    }

    #[test]
    fn primary_benchmarks_resolve() {
        for b in PrimaryBenchmark::ALL {
            let w = primary_program(b);
            assert!(w.module.validate().is_ok(), "{}", b.name());
        }
    }

    #[test]
    fn probe_benchmarks_resolve() {
        for p in [ProbeBenchmark::Gcc, ProbeBenchmark::Gamess] {
            let w = probe_program(p);
            assert!(w.module.validate().is_ok());
        }
    }

    #[test]
    fn perlbench_and_povray_carry_wide_dispatch() {
        for (b, width) in [
            (PrimaryBenchmark::Perlbench, 20),
            (PrimaryBenchmark::Povray, 16),
        ] {
            let w = primary_program(b);
            let f = w
                .module
                .function_by_name("dispatch")
                .unwrap_or_else(|| panic!("{} needs a dispatcher", b.name()));
            let blocks = w.module.function(f).unwrap().num_blocks();
            assert_eq!(blocks, width + 1);
        }
    }

    #[test]
    fn code_heavy_misses_more_than_tiny() {
        let cache = CacheConfig::paper_l1i();
        let heavy = solo_lines(&entry_by_name("403.gcc").workload());
        let tiny = solo_lines(&entry_by_name("470.lbm").workload());
        let mh = simulate_solo_lines(&heavy, cache).miss_ratio();
        let mt = simulate_solo_lines(&tiny, cache).miss_ratio();
        assert!(mh > mt * 3.0, "code-heavy {} should dwarf tiny {}", mh, mt);
        assert!(mh > 0.005, "code-heavy solo miss ratio {} non-trivial", mh);
        assert!(mt < 0.01, "tiny solo miss ratio {} trivial", mt);
    }

    #[test]
    fn sensitive_program_inflates_under_corun() {
        let cache = CacheConfig::paper_l1i();
        let omnetpp = solo_lines(&entry_by_name("471.omnetpp").workload());
        let probe = solo_lines(&probe_program(ProbeBenchmark::Gamess));
        let solo = simulate_solo_lines(&omnetpp, cache).miss_ratio();
        let corun = simulate_corun_nway(&[&omnetpp, &probe], cache).per_tenant[0].miss_ratio();
        assert!(
            corun > solo * 1.5,
            "sensitive program: solo {} corun {}",
            solo,
            corun
        );
    }

    #[test]
    #[should_panic(expected = "unknown suite entry")]
    fn unknown_entry_panics() {
        entry_by_name("999.nothing");
    }
}
