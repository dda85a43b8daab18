//! `clop` — command-line driver for the code-layout optimizer.
//!
//! Subcommands:
//!
//! * `clop optimize <module.clop> --optimizer bb-affinity` — profile the
//!   program on a test run, optimize its layout, print the report and
//!   (optionally) write the transformed module and layout order.
//! * `clop simulate <module.clop>` — run the program and report its L1I
//!   miss ratio under the paper's cache.
//! * `clop corun <a.clop> <b.clop>` — SMT co-run of two programs sharing
//!   the cache, with per-thread miss ratios and throughput.
//! * `clop profile <module.clop>` — print trace statistics and the
//!   hottest functions/blocks.
//! * `clop demo` — write a sample module file to play with.
//!
//! Module files use the textual IR of `clop_ir::text` (see `clop demo`).

use code_layout_opt::cachesim::TimingConfig;
use code_layout_opt::core::{
    build_pipeline, EvalConfig, OptimizationReport, Pipeline, PipelineParams, Profile,
    ProfileConfig, ProgramRun, PIPELINES,
};
use code_layout_opt::ir::{text, ExecConfig, Layout, Module};
use code_layout_opt::trace::TraceStats;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "optimize" => cmd_optimize(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "corun" => cmd_corun(&args[1..]),
        "profile" => cmd_profile(&args[1..]),
        "mrc" => cmd_mrc(&args[1..]),
        "demo" => cmd_demo(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(format!("unknown command `{}` (try `clop help`)", other)),
    }
}

const HELP: &str = "\
clop — whole-program code layout optimizer (Li et al., ICPP 2014)

usage:
  clop optimize <module.clop> [--optimizer NAME] [--seed N] [--fuel N]
                [--emit-module OUT] [--emit-order OUT]
  clop simulate <module.clop> [--seed N] [--fuel N]
  clop corun    <a.clop> <b.clop> [--seed N] [--fuel N]
  clop profile  <module.clop> [--seed N] [--fuel N] [--top K]
  clop mrc      <module.clop> [--seed N] [--fuel N]
  clop demo     [OUT.clop]

optimizers: function-affinity | bb-affinity | function-trg | bb-trg
";

fn load_module(path: &str) -> Result<Module, String> {
    let src =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{}`: {}", path, e))?;
    text::parse(&src).map_err(|e| format!("{}: {}", path, e))
}

/// The argument after the flag `name`, or `None` when the flag is absent.
/// A flag given last, with nothing after it, is an error.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(format!("{} needs a value", name)),
        },
    }
}

fn parse_exec(args: &[String], default_fuel: u64) -> Result<ExecConfig, String> {
    let mut cfg = ExecConfig::with_fuel(default_fuel);
    if let Some(s) = flag_value(args, "--seed")? {
        cfg.seed = s.parse().map_err(|_| format!("bad --seed `{}`", s))?;
    }
    if let Some(s) = flag_value(args, "--fuel")? {
        cfg.max_events = s.parse().map_err(|_| format!("bad --fuel `{}`", s))?;
    }
    Ok(cfg)
}

/// The `--optimizer` pipeline (default `bb-affinity`) at its default
/// parameters.
fn parse_optimizer(args: &[String]) -> Result<Pipeline, String> {
    let name = flag_value(args, "--optimizer")?.unwrap_or("bb-affinity");
    PipelineParams::for_pipeline(name)
        .and_then(|params| build_pipeline(name, &params))
        .ok_or_else(|| {
            format!(
                "unknown optimizer `{}` (known: {})",
                name,
                PIPELINES.join(", ")
            )
        })
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("optimize needs a module file")?;
    let module = load_module(path)?;
    let mut pipeline = parse_optimizer(args)?;
    pipeline.profile = ProfileConfig::with_exec(parse_exec(args, 200_000)?);
    let emit_module = flag_value(args, "--emit-module")?;
    let emit_order = flag_value(args, "--emit-order")?;

    let optimized = pipeline
        .optimize(&module)
        .map_err(|e| format!("optimization failed: {}", e))?;
    let eval = EvalConfig {
        exec: parse_exec(args, 200_000)?.seeded(0x4EF5EED),
        ..Default::default()
    };
    let report = OptimizationReport::build(&module, &optimized, &eval);
    print!("{}", report);

    if let Some(out) = emit_module {
        std::fs::write(out, text::print(&optimized.module))
            .map_err(|e| format!("cannot write `{}`: {}", out, e))?;
        println!("wrote transformed module to {}", out);
    }
    if let Some(out) = emit_order {
        let order = match &optimized.layout {
            Layout::FunctionOrder(fs) => fs
                .iter()
                .map(|f| optimized.module.functions[f.index()].name.clone())
                .collect::<Vec<_>>(),
            Layout::BlockOrder(bs) => bs
                .iter()
                .map(|&g| {
                    let (f, l) = optimized.module.locate(g).expect("valid layout");
                    let func = &optimized.module.functions[f.index()];
                    format!("{}.{}", func.name, func.blocks[l.index()].name)
                })
                .collect(),
        };
        std::fs::write(out, order.join("\n") + "\n")
            .map_err(|e| format!("cannot write `{}`: {}", out, e))?;
        println!("wrote layout order to {}", out);
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("simulate needs a module file")?;
    let module = load_module(path)?;
    let eval = EvalConfig {
        exec: parse_exec(args, 200_000)?,
        ..Default::default()
    };
    let run = ProgramRun::evaluate(&module, &Layout::original(&module), &eval);
    let stats = run.solo_sim();
    println!("program:         {}", module.name);
    println!("instructions:    {}", run.instructions);
    println!("line fetches:    {}", stats.accesses);
    println!("L1I misses:      {}", stats.misses);
    println!("miss ratio:      {:.3}%", 100.0 * stats.miss_ratio());
    let timed = run.solo_timed(TimingConfig::hw_like());
    println!("cycles (timed):  {:.0}", timed.cycles);
    Ok(())
}

fn cmd_corun(args: &[String]) -> Result<(), String> {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a, b] = files.as_slice() else {
        return Err("corun needs exactly two module files".into());
    };
    let (ma, mb) = (load_module(a)?, load_module(b)?);
    let eval = EvalConfig {
        exec: parse_exec(args, 200_000)?,
        ..Default::default()
    };
    let ra = ProgramRun::evaluate(&ma, &Layout::original(&ma), &eval);
    let rb = ProgramRun::evaluate(&mb, &Layout::original(&mb), &eval);
    let sim = ra.corun_sim_nway(&[&rb]);
    println!("shared-cache co-run ({} + {}):", ma.name, mb.name);
    for (i, (name, solo)) in [(&ma.name, ra.solo_sim()), (&mb.name, rb.solo_sim())]
        .iter()
        .enumerate()
    {
        println!(
            "  {:<16} solo {:.3}%  co-run {:.3}%",
            name,
            100.0 * solo.miss_ratio(),
            100.0 * sim.per_tenant[i].miss_ratio()
        );
    }
    let timing = TimingConfig::hw_like();
    let timed = ra.corun_timed(&rb, timing);
    let (sa, sb) = (ra.solo_timed(timing).cycles, rb.solo_timed(timing).cycles);
    let makespan = timed[0].finish_cycles.max(timed[1].finish_cycles);
    println!(
        "  throughput gain of co-run over back-to-back solo: {:+.1}%",
        100.0 * ((sa + sb) / makespan - 1.0)
    );
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("profile needs a module file")?;
    let module = load_module(path)?;
    let top: usize = flag_value(args, "--top")?
        .map(|s| s.parse().map_err(|_| format!("bad --top `{}`", s)))
        .transpose()?
        .unwrap_or(10);
    let profile = Profile::collect(
        &module,
        &ProfileConfig::with_exec(parse_exec(args, 200_000)?),
    );
    println!("program:          {}", module.name);
    println!("bb trace length:  {}", profile.bb_trace.len());
    println!("fn trace length:  {}", profile.func_trace.len());
    println!(
        "distinct blocks:  {}",
        TraceStats::of(&profile.bb_trace).num_distinct()
    );
    println!("prune retention:  {:.1}%", 100.0 * profile.prune_retention);
    println!("instructions:     {}", profile.instructions);
    // Heat order: most activations first, ties toward the lower id.
    let funcs = TraceStats::of(&profile.func_trace);
    println!("hottest functions:");
    for (f, c) in funcs.heat_order().iter().zip(funcs.heat_counts()).take(top) {
        println!(
            "  {:<24} {} activations",
            module.functions[f.index()].name,
            c
        );
    }
    Ok(())
}

fn cmd_mrc(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("mrc needs a module file")?;
    let module = load_module(path)?;
    let eval = EvalConfig {
        exec: parse_exec(args, 200_000)?,
        ..Default::default()
    };
    let run = ProgramRun::evaluate(&module, &Layout::original(&module), &eval);
    let lines = run.lines();
    println!("miss-ratio curve of {} (4-way, 64 B lines):", module.name);
    for kb in [4u64, 8, 16, 32, 64, 128, 256] {
        let cfg = code_layout_opt::cachesim::CacheConfig::new(kb * 1024, 4, 64);
        let m = code_layout_opt::cachesim::simulate_solo_lines(&lines, cfg);
        let bar = "#".repeat((m.miss_ratio() * 160.0).round() as usize);
        println!("  {:>4} KB  {:>7.3}%  {}", kb, 100.0 * m.miss_ratio(), bar);
    }
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let out = args.first().map(String::as_str).unwrap_or("demo.clop");
    let demo = "\
module demo
global flag = 0

func main {
  block entry size=16:
    call worker ret again
  block again size=16:
    branch loop(500) entry done
  block done size=16:
    return
}

func worker {
  block head size=64:
    branch bernoulli(0.7) hot cold
  block hot size=512:
    set flag = 1
    jump out
  block cold size=512:
    set flag = 2
    jump out
  block out size=64:
    return
}

func ballast {
  block pad size=4096:
    return
}
";
    std::fs::write(out, demo).map_err(|e| format!("cannot write `{}`: {}", out, e))?;
    println!(
        "wrote {} — try: clop optimize {} --optimizer bb-affinity",
        out, out
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_runs() {
        assert!(run(&s(&["help"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn demo_then_full_pipeline() {
        let dir = std::env::temp_dir().join("clop-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let module_path = dir.join("demo.clop");
        let module_str = module_path.to_str().unwrap().to_string();

        run(&s(&["demo", &module_str])).expect("demo writes");
        run(&s(&["simulate", &module_str])).expect("simulate runs");
        run(&s(&["profile", &module_str, "--top", "3"])).expect("profile runs");
        run(&s(&["mrc", &module_str, "--fuel", "20000"])).expect("mrc runs");

        let out_mod = dir.join("opt.clop");
        let out_ord = dir.join("order.txt");
        run(&s(&[
            "optimize",
            &module_str,
            "--optimizer",
            "bb-affinity",
            "--emit-module",
            out_mod.to_str().unwrap(),
            "--emit-order",
            out_ord.to_str().unwrap(),
        ]))
        .expect("optimize runs");

        // The emitted module re-parses and the order file names blocks.
        let emitted = std::fs::read_to_string(&out_mod).unwrap();
        assert!(text::parse(&emitted).is_ok());
        let order = std::fs::read_to_string(&out_ord).unwrap();
        assert!(order.contains("worker.hot"));

        run(&s(&["corun", &module_str, &module_str])).expect("corun runs");
    }

    #[test]
    fn missing_file_reports_error() {
        let e = run(&s(&["simulate", "/nonexistent/x.clop"])).unwrap_err();
        assert!(e.contains("cannot read"));
    }

    #[test]
    fn bad_flag_values_report_errors() {
        let dir = std::env::temp_dir().join("clop-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("m.clop");
        run(&s(&["demo", p.to_str().unwrap()])).unwrap();
        let e = run(&s(&["simulate", p.to_str().unwrap(), "--fuel", "lots"])).unwrap_err();
        assert!(e.contains("bad --fuel"));
        let e = run(&s(&[
            "optimize",
            p.to_str().unwrap(),
            "--optimizer",
            "magic",
        ]))
        .unwrap_err();
        assert!(e.contains("unknown optimizer `magic`"), "{}", e);
        for name in PIPELINES {
            assert!(e.contains(name), "{}", e);
        }
    }

    #[test]
    fn flag_given_last_without_a_value_is_an_error() {
        let dir = std::env::temp_dir().join("clop-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("m.clop");
        let p = p.to_str().unwrap();
        run(&s(&["demo", p])).unwrap();
        let e = run(&s(&["optimize", p, "--optimizer"])).unwrap_err();
        assert!(e.contains("--optimizer needs a value"), "{}", e);
        let e = run(&s(&["optimize", p, "--fuel"])).unwrap_err();
        assert!(e.contains("--fuel needs a value"), "{}", e);
        let e = run(&s(&["simulate", p, "--fuel"])).unwrap_err();
        assert!(e.contains("--fuel needs a value"), "{}", e);
    }
}
