//! The w-window affinity hierarchy, on the paper's own Figure 1 example
//! and on a real profiled program.
//!
//! ```sh
//! cargo run --release --example affinity_hierarchy
//! ```

use code_layout_opt::affinity::{analyze, AffinityConfig};
use code_layout_opt::core::{Profile, ProfileConfig};
use code_layout_opt::trace::{TraceStats, TrimmedTrace};
use code_layout_opt::workloads::{primary_program, PrimaryBenchmark};

fn main() {
    // ---- Part 1: the paper's Figure 1 trace B1 B4 B2 B4 B2 B3 B5 B1 B4.
    println!("== Figure 1: hierarchical w-window affinity ==\n");
    let trace = TrimmedTrace::from_indices([1, 4, 2, 4, 2, 3, 5, 1, 4]);
    let h = analyze(&trace, AffinityConfig { w_min: 2, w_max: 5 });
    for level in h.levels() {
        let groups: Vec<String> = level
            .groups()
            .iter()
            .map(|g| {
                let names: Vec<String> = g.iter().map(|b| format!("B{}", b.0)).collect();
                format!("({})", names.join(","))
            })
            .collect();
        println!("w = {}: {}", level.w(), groups.join(" "));
    }
    let layout: Vec<String> = h.layout().iter().map(|b| format!("B{}", b.0)).collect();
    println!(
        "output sequence: {}   (paper: B1 B4 B2 B3 B5)\n",
        layout.join(" ")
    );

    // ---- Part 2: the function-affinity hierarchy of a profiled program.
    println!("== Function affinity hierarchy of 458.sjeng-like ==\n");
    let w = primary_program(PrimaryBenchmark::Sjeng);
    let profile = Profile::collect(&w.module, &ProfileConfig::with_exec(w.test_exec));
    let h = analyze(&profile.func_trace, AffinityConfig::default());
    let top = h.levels().last().expect("levels exist");
    println!(
        "{} functions partition into {} groups at w = {}:",
        TraceStats::of(&profile.func_trace).num_distinct(),
        top.num_groups(),
        top.w()
    );
    for (i, g) in top.groups().iter().take(8).enumerate() {
        let names: Vec<&str> = g
            .iter()
            .take(6)
            .map(|b| {
                w.module
                    .function(code_layout_opt::ir::FuncId(b.0))
                    .map(|f| f.name.as_str())
                    .unwrap_or("?")
            })
            .collect();
        let more = if g.len() > 6 {
            format!(" … +{}", g.len() - 6)
        } else {
            String::new()
        };
        println!("  group {}: {}{}", i, names.join(", "), more);
    }
    if top.num_groups() > 8 {
        println!("  … and {} more groups", top.num_groups() - 8);
    }
}
