//! Integration: the file formats (textual IR, binary traces, mapping
//! files) compose with the optimization pipeline — a program and its
//! profile can be saved, reloaded, and optimized to the identical layout.

use code_layout_opt::core::{build_pipeline, PipelineParams, Profile, ProfileConfig};
use code_layout_opt::ir::{text, ExecConfig, Interpreter, Module};
use code_layout_opt::trace::{io as trace_io, BlockMap};
use code_layout_opt::workloads::scenarios;

fn sample_module() -> Module {
    // A small but non-trivial program from the scenario generators.
    scenarios::interpreter(8, 99).module
}

#[test]
fn module_survives_file_round_trip_with_identical_optimization() {
    let module = sample_module();
    let text_form = text::print(&module);
    let reloaded = text::parse(&text_form).expect("parses back");
    assert_eq!(module, reloaded);

    let params = PipelineParams::for_pipeline("function-affinity").unwrap();
    let pipeline = build_pipeline("function-affinity", &params).unwrap();
    let a = pipeline.optimize(&module).unwrap();
    let b = pipeline.optimize(&reloaded).unwrap();
    assert_eq!(a.layout, b.layout);
}

#[test]
fn profile_traces_survive_binary_round_trip() {
    let module = sample_module();
    let profile = Profile::collect(
        &module,
        &ProfileConfig::with_exec(ExecConfig::with_fuel(20_000)),
    );

    let mut buf = Vec::new();
    trace_io::write_trimmed(&mut buf, &profile.bb_trace).unwrap();
    let back = trace_io::read_trimmed(&mut buf.as_slice()).unwrap();
    assert_eq!(profile.bb_trace, back);

    // The reloaded trace drives the affinity model to the same layout.
    let layout_a = code_layout_opt::affinity::affinity_layout(
        &profile.bb_trace,
        code_layout_opt::affinity::AffinityConfig::default(),
    );
    let layout_b = code_layout_opt::affinity::affinity_layout(
        &back,
        code_layout_opt::affinity::AffinityConfig::default(),
    );
    assert_eq!(layout_a, layout_b);
}

#[test]
fn mapping_file_names_every_traced_block() {
    let module = sample_module();
    let out = Interpreter::new(ExecConfig::with_fuel(10_000)).run(&module);

    // Build the mapping the way instrumentation would: global block id →
    // "function.block" name, interned in id order.
    let mut map = BlockMap::new();
    for (gid, fid, block) in module.iter_global_blocks() {
        let func = module.function(fid).unwrap();
        let id = map.intern(&format!("{}.{}", func.name, block.name));
        assert_eq!(id.0, gid.0, "mapping ids must align with global ids");
    }

    let mut buf = Vec::new();
    trace_io::write_mapping(&mut buf, &map).unwrap();
    let reloaded = trace_io::read_mapping(&mut std::io::BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(reloaded.len(), module.num_blocks());

    // Every traced event resolves to a name.
    for &e in out.bb_trace.events() {
        assert!(reloaded.name(e).is_some(), "unnamed block {:?}", e);
    }
}

#[test]
fn trace_compression_is_effective_on_real_traces() {
    // The varint delta format should beat 4-bytes-per-event comfortably on
    // loop-heavy real traces.
    let module = sample_module();
    let out = Interpreter::new(ExecConfig::with_fuel(50_000)).run(&module);
    let mut buf = Vec::new();
    trace_io::write_trace(&mut buf, &out.bb_trace).unwrap();
    let naive_bytes = out.bb_trace.len() * 4;
    assert!(
        buf.len() * 2 < naive_bytes,
        "compressed {} vs naive {}",
        buf.len(),
        naive_bytes
    );
}
