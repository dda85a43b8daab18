//! Property-based tests for the workload generator: any spec within the
//! sane parameter envelope must produce a valid, executable, deterministic
//! program. Driven by the seeded `clop_util::check` harness.

use clop_ir::{ExecConfig, Interpreter};
use clop_util::check::check_n;
use clop_util::Rng;
use clop_workloads::WorkloadSpec;

fn random_spec(rng: &mut Rng) -> WorkloadSpec {
    let seed = rng.gen_range_u64(1, 1000);
    let hot = rng.gen_index(19) + 1;
    let cold = rng.gen_index(20);
    let ccp = rng.gen_range_f64(0.0, 0.2);
    WorkloadSpec {
        name: format!("prop{}", seed),
        seed,
        hot_funcs: hot,
        hot_func_bytes: rng.gen_range_u32(64, 2000),
        diamonds_per_func: rng.gen_index(5) + 1,
        phase_correlation: rng.gen_f64(),
        loop_fraction: rng.gen_f64(),
        loop_trips: (2, 8),
        phases: rng.gen_index(4) + 1,
        funcs_per_phase: hot.clamp(1, 8),
        phase_trips: rng.gen_range_u32(1, 50),
        cold_funcs: cold,
        cold_func_bytes: 512,
        cold_call_prob: if cold == 0 { 0.0 } else { ccp },
        dispatch_width: [0usize, 4, 16][rng.gen_index(3)],
        test_fuel: 5_000,
        ref_fuel: 10_000,
    }
}

/// Every generated module validates and executes within fuel.
#[test]
fn specs_generate_valid_programs() {
    check_n("specs_generate_valid_programs", 48, |rng| {
        let spec = random_spec(rng);
        let w = spec.generate().unwrap();
        assert!(w.module.validate().is_ok());
        let out = Interpreter::new(w.test_exec).run(&w.module);
        assert!(out.num_events() > 0);
        assert!(out.num_events() <= 5_000);
    });
}

/// Generation is a pure function of the spec.
#[test]
fn generation_deterministic() {
    check_n("generation_deterministic", 48, |rng| {
        let spec = random_spec(rng);
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a.module, b.module);
    });
}

/// Executions with the same config match; different seeds (almost
/// always) differ when the program has random branches.
#[test]
fn execution_deterministic() {
    check_n("execution_deterministic", 48, |rng| {
        let spec = random_spec(rng);
        let w = spec.generate().unwrap();
        let cfg = ExecConfig::with_fuel(3_000).seeded(5);
        let a = Interpreter::new(cfg).run(&w.module);
        let b = Interpreter::new(cfg).run(&w.module);
        assert_eq!(a.bb_trace, b.bb_trace);
    });
}

/// The module's static size tracks the spec's code budget within a
/// small factor (jitter + structure overhead).
#[test]
fn size_tracks_budget() {
    check_n("size_tracks_budget", 48, |rng| {
        let spec = random_spec(rng);
        let w = spec.generate().unwrap();
        let nominal = spec.hot_bytes() + spec.cold_funcs as u64 * spec.cold_func_bytes as u64;
        let actual = w.module.size_bytes();
        assert!(
            actual as f64 >= nominal as f64 * 0.3,
            "actual {} vs nominal {}",
            actual,
            nominal
        );
        assert!(
            actual as f64 <= nominal as f64 * 3.0 + 50_000.0,
            "actual {} vs nominal {}",
            actual,
            nominal
        );
    });
}

/// Dispatchers appear exactly when requested.
#[test]
fn dispatcher_presence() {
    check_n("dispatcher_presence", 48, |rng| {
        let spec = random_spec(rng);
        let w = spec.generate().unwrap();
        assert_eq!(
            w.module.function_by_name("dispatch").is_some(),
            spec.dispatch_width > 0
        );
    });
}
