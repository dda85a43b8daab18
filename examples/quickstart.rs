//! Quickstart: optimize one benchmark's code layout and measure the effect
//! solo and in a shared-cache co-run.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use code_layout_opt::cachesim::TimingConfig;
use code_layout_opt::core::{
    build_pipeline, EvalConfig, PipelineParams, ProfileConfig, ProgramRun,
};
use code_layout_opt::ir::Layout;
use code_layout_opt::workloads::{
    primary_program, probe_program, PrimaryBenchmark, ProbeBenchmark,
};

fn main() {
    // A gobmk-like workload: hot code beyond the 32 KB L1I.
    let w = primary_program(PrimaryBenchmark::Gobmk);
    println!(
        "workload {}: {} functions, {} blocks, {} KB of code",
        w.name,
        w.module.num_functions(),
        w.module.num_blocks(),
        w.module.size_bytes() / 1024
    );

    // Profile on the test input, model with w-window affinity at basic-block
    // granularity, transform.
    let mut params = PipelineParams::for_pipeline("bb-affinity").expect("a paper pipeline");
    params.profile = ProfileConfig::with_exec(w.test_exec);
    let optimized = build_pipeline("bb-affinity", &params)
        .expect("a paper pipeline")
        .optimize(&w.module)
        .expect("gobmk is supported");
    println!(
        "profiled {} basic-block events; pruning retained {:.1}%",
        optimized.profile.bb_trace.len(),
        100.0 * optimized.profile.prune_retention
    );

    // Evaluate on the reference input.
    let cfg = EvalConfig {
        exec: w.ref_exec,
        ..Default::default()
    };
    let base = ProgramRun::evaluate(&w.module, &Layout::original(&w.module), &cfg);
    let opt = ProgramRun::evaluate(&optimized.module, &optimized.layout, &cfg);

    let (mb, mo) = (base.solo_sim().miss_ratio(), opt.solo_sim().miss_ratio());
    println!(
        "\nsolo L1I miss ratio: baseline {:.2}% → optimized {:.2}% ({:+.1}% reduction)",
        100.0 * mb,
        100.0 * mo,
        100.0 * (mb - mo) / mb
    );

    // Co-run against a code-heavy peer on the timed SMT model.
    let peer_w = probe_program(ProbeBenchmark::Gcc);
    let peer = ProgramRun::evaluate(
        &peer_w.module,
        &Layout::original(&peer_w.module),
        &EvalConfig {
            exec: peer_w.ref_exec,
            ..Default::default()
        },
    );
    let timing = TimingConfig::hw_like();
    let base_pair = peer.corun_timed(&base, timing);
    let opt_pair = peer.corun_timed(&opt, timing);
    println!(
        "co-run with gcc-like peer: baseline {:.0} cycles → optimized {:.0} cycles ({:+.2}% speedup)",
        base_pair[1].finish_cycles,
        opt_pair[1].finish_cycles,
        100.0 * (base_pair[1].finish_cycles / opt_pair[1].finish_cycles - 1.0)
    );
    println!(
        "co-run miss ratio: baseline {:.2}% → optimized {:.2}%",
        100.0 * base_pair[1].stats.miss_ratio(),
        100.0 * opt_pair[1].stats.miss_ratio()
    );
}
