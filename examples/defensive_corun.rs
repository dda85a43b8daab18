//! Defensiveness and politeness: the footprint-composition model (Eq 1/2)
//! and its agreement with shared-cache simulation.
//!
//! A *defensive* program's miss probability barely grows when a peer joins
//! the cache; a *polite* program barely inflates its peer's. This example
//! scores two programs with the analytical model, then checks the
//! direction against the co-run simulator.
//!
//! ```sh
//! cargo run --release --example defensive_corun
//! ```

use code_layout_opt::cachesim::model::{defensiveness, politeness};
use code_layout_opt::cachesim::{CompositionModel, InterferenceReport};
use code_layout_opt::core::{EvalConfig, Profile, ProfileConfig, ProgramRun};
use code_layout_opt::ir::Layout;
use code_layout_opt::workloads::{primary_program, PrimaryBenchmark};

fn main() {
    // A small-footprint program (mcf-like) vs a code-heavy one (gcc-like).
    let small = primary_program(PrimaryBenchmark::Mcf);
    let large = primary_program(PrimaryBenchmark::Gcc);

    // Composition models from the basic-block traces (block units; the
    // paper's cache capacity in blocks ≈ 512 lines ≈ a few hundred blocks).
    let profile = |w: &code_layout_opt::workloads::Workload| {
        let mut cfg = ProfileConfig::with_exec(w.ref_exec);
        cfg.prune = None;
        Profile::collect(&w.module, &cfg)
    };
    let ps = profile(&small);
    let pl = profile(&large);
    let ms = CompositionModel::measure(&ps.bb_trace, 4096);
    let ml = CompositionModel::measure(&pl.bb_trace, 4096);

    let capacity = 400; // shared cache capacity in code blocks
    println!("analytical model (Eq 1), capacity {} blocks:", capacity);
    for (name, subject, peer) in [("mcf vs gcc", &ms, &ml), ("gcc vs mcf", &ml, &ms)] {
        let r = InterferenceReport::measure(subject, peer, capacity);
        println!(
            "  {:11} solo P(miss) {:.3}%  co-run P(miss) {:.3}%  sensitivity {:+.1}%",
            name,
            100.0 * r.solo,
            100.0 * r.corun,
            100.0 * r.sensitivity
        );
    }
    println!(
        "  defensiveness(mcf | gcc) = {:+.2}   politeness(mcf → gcc) = {:+.2}",
        defensiveness(&ms, &ml, capacity),
        politeness(&ms, &ml, capacity)
    );
    println!(
        "  defensiveness(gcc | mcf) = {:+.2}   politeness(gcc → mcf) = {:+.2}",
        defensiveness(&ml, &ms, capacity),
        politeness(&ml, &ms, capacity)
    );

    // Cross-check the direction with the shared-cache simulator.
    let run = |w: &code_layout_opt::workloads::Workload| {
        ProgramRun::evaluate(
            &w.module,
            &Layout::original(&w.module),
            &EvalConfig {
                exec: w.ref_exec,
                ..Default::default()
            },
        )
    };
    let rs = run(&small);
    let rl = run(&large);
    let corun = rs.corun_sim_nway(&[&rl]);
    println!("\nshared-cache simulation (32 KB L1I):");
    println!(
        "  mcf solo {:.3}% → co-run {:.3}%",
        100.0 * rs.solo_sim().miss_ratio(),
        100.0 * corun.per_tenant[0].miss_ratio()
    );
    println!(
        "  gcc solo {:.3}% → co-run {:.3}%",
        100.0 * rl.solo_sim().miss_ratio(),
        100.0 * corun.per_tenant[1].miss_ratio()
    );
    println!("\nboth views agree: the small program is the *polite* peer (it barely");
    println!("inflates gcc's misses) but the *sensitive* one — its near-zero solo miss");
    println!("ratio explodes under co-run, exactly the paper's mcf observation.");
}
