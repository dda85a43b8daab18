//! End-to-end optimizer latency: profile → model → transform, per
//! optimizer, on a mid-size workload. The paper reports that the whole
//! compile-time analysis costs "a couple of times of original compilation
//! time"; here the baseline is the profiling run itself.

use clop_core::{build_pipeline, PipelineParams, Profile, ProfileConfig, PIPELINES};
use clop_util::bench::{quick, Runner};
use clop_workloads::{primary_program, PrimaryBenchmark};

fn main() {
    let r = Runner::from_args();
    let w = primary_program(PrimaryBenchmark::Sjeng);

    r.bench("e2e/profile_only", || {
        Profile::collect(&w.module, &ProfileConfig::with_exec(w.test_exec))
    });

    // `--jobs N` shards the locality analyses; the layouts (and therefore
    // the goldens) are bit-identical for any worker count.
    for name in PIPELINES {
        let mut params = PipelineParams::for_pipeline(name).expect("a paper pipeline");
        params.profile = ProfileConfig::with_exec(w.test_exec);
        params.jobs = r.jobs();
        r.bench(&format!("e2e/optimize/{}", name), || {
            build_pipeline(name, &params)
                .expect("a paper pipeline")
                .optimize(&w.module)
                .expect("sjeng supports all four")
        });
    }

    // Larger profile (the reference input) for the two BB optimizers that
    // dominate end-to-end time; skipped in smoke mode, which has no input
    // scaling here.
    if !quick() {
        for name in ["bb-affinity", "bb-trg"] {
            let mut params = PipelineParams::for_pipeline(name).expect("a paper pipeline");
            params.profile = ProfileConfig::with_exec(w.ref_exec);
            params.jobs = r.jobs();
            r.bench(&format!("e2e/optimize_ref/{}", name), || {
                build_pipeline(name, &params)
                    .expect("a paper pipeline")
                    .optimize(&w.module)
                    .expect("sjeng supports bb pipelines")
            });
        }
    }
}
