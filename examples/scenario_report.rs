//! Scenario walkthrough: optimize three realistic workload shapes and
//! print the before/after optimization report for each.
//!
//! ```sh
//! cargo run --release --example scenario_report
//! ```

use code_layout_opt::core::{
    build_pipeline, EvalConfig, OptError, OptimizationReport, OptimizedProgram, PipelineParams,
    ProfileConfig,
};
use code_layout_opt::workloads::{scenarios, Workload};

/// Run the pipeline `name`, profiling on the workload's test input.
fn optimize(w: &Workload, name: &str) -> Result<OptimizedProgram, OptError> {
    let mut params = PipelineParams::for_pipeline(name).expect("a paper pipeline");
    params.profile = ProfileConfig::with_exec(w.test_exec);
    build_pipeline(name, &params)
        .expect("a paper pipeline")
        .optimize(&w.module)
}

fn main() {
    let workloads = [
        scenarios::interpreter(10, 41), // narrow dispatch: BB reordering OK
        scenarios::database(42),
        scenarios::microservice(43),
    ];
    for w in workloads {
        println!("=== {} ===", w.name);
        // Choose the best applicable pipeline: BB affinity when the
        // program has no over-wide dispatch, else function affinity.
        let optimized = match optimize(&w, "bb-affinity") {
            Ok(o) => o,
            Err(e) => {
                println!("bb-affinity unavailable ({}); falling back", e);
                optimize(&w, "function-affinity").expect("function reordering always applies")
            }
        };
        let eval = EvalConfig {
            exec: w.ref_exec,
            ..Default::default()
        };
        print!(
            "{}",
            OptimizationReport::build(&w.module, &optimized, &eval)
        );
        println!();
    }
}
