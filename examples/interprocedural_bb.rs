//! The paper's Figure 3: inter-procedural basic-block reordering.
//!
//! Two functions `X` and `Y` are called back to back in a loop; `X` stores
//! a flag that decides which half of `Y` runs, so `X2` always executes with
//! `Y2` and `X3` with `Y3`. Intra-procedural reordering cannot exploit
//! that; inter-procedural BB reordering extracts the correlated halves and
//! places them together.
//!
//! ```sh
//! cargo run --release --example interprocedural_bb
//! ```

use code_layout_opt::core::{
    build_pipeline, EvalConfig, PipelineParams, ProfileConfig, ProgramRun,
};
use code_layout_opt::ir::prelude::*;

fn figure3_program() -> Module {
    let mut b = ModuleBuilder::new("fig3");
    let flag = b.global("b", 0);
    b.function("main")
        .call("callx", 16, "X", "cally")
        .call("cally", 16, "Y", "loop")
        .branch(
            "loop",
            16,
            CondModel::LoopCounter { trip: 5000 },
            "callx",
            "end",
        )
        .ret("end", 16)
        .finish();
    b.function("X")
        .branch("X1", 64, CondModel::Bernoulli(0.5), "X2", "X3")
        .ret("X2", 256)
        .effect(Effect::SetGlobal {
            var: flag,
            value: 1,
        })
        .ret("X3", 256)
        .effect(Effect::SetGlobal {
            var: flag,
            value: 2,
        })
        .finish();
    b.function("Y")
        .branch(
            "Y1",
            64,
            CondModel::GlobalEq {
                var: flag,
                value: 1,
            },
            "Y2",
            "Y3",
        )
        .ret("Y2", 256)
        .ret("Y3", 256)
        .finish();
    b.build().expect("well-formed")
}

fn main() {
    let module = figure3_program();
    let params = PipelineParams::for_pipeline("bb-affinity").expect("a paper pipeline");
    let optimized = build_pipeline("bb-affinity", &params)
        .expect("a paper pipeline")
        .optimize(&module)
        .expect("no wide dispatch here");

    // Show the optimized global block order by name.
    let Layout::BlockOrder(order) = &optimized.layout else {
        unreachable!("BB optimizer produces a block order")
    };
    let names: Vec<String> = order
        .iter()
        .map(|&g| {
            let (f, l) = optimized.module.locate(g).expect("in range");
            let func = optimized.module.function(f).expect("in range");
            format!("{}.{}", func.name, func.block(l).unwrap().name)
        })
        .collect();
    println!("optimized block order:\n  {}\n", names.join("\n  "));

    // The correlated halves must be adjacent: X2 next to Y2, X3 next to Y3.
    let pos = |name: &str| names.iter().position(|n| n == name).expect("placed");
    for (a, b) in [("X.X2", "Y.Y2"), ("X.X3", "Y.Y3")] {
        let (pa, pb) = (pos(a) as i64, pos(b) as i64);
        println!(
            "{} and {} are {} slots apart{}",
            a,
            b,
            (pa - pb).abs(),
            if (pa - pb).abs() <= 2 {
                "  ✓ grouped"
            } else {
                ""
            }
        );
    }

    // Measure the layout effect: shrink the cache to make the working set
    // matter (the toy program is tiny), then compare miss ratios.
    let cfg = EvalConfig {
        cache: code_layout_opt::cachesim::CacheConfig::new(1024, 2, 64),
        ..Default::default()
    };
    let base = ProgramRun::evaluate(&module, &Layout::original(&module), &cfg);
    let opt = ProgramRun::evaluate(&optimized.module, &optimized.layout, &cfg);
    println!(
        "\n1 KB cache miss ratio: original layout {:.2}% → optimized {:.2}%",
        100.0 * base.solo_sim().miss_ratio(),
        100.0 * opt.solo_sim().miss_ratio()
    );

    let _ = ProfileConfig::default();
}
