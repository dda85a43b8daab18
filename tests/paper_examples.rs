//! The paper's three worked examples, end to end.

use code_layout_opt::affinity::{analyze, AffinityConfig};
use code_layout_opt::core::{build_pipeline, PipelineParams};
use code_layout_opt::ir::prelude::*;
use code_layout_opt::trace::TrimmedTrace;
use code_layout_opt::trg::{reduce, Trg};

/// §II-B, Figure 1: the affinity hierarchy of B1 B4 B2 B4 B2 B3 B5 B1 B4
/// and its bottom-up traversal B1 B4 B2 B3 B5.
#[test]
fn figure1_hierarchy_and_layout() {
    let trace = TrimmedTrace::from_indices([1, 4, 2, 4, 2, 3, 5, 1, 4]);
    let h = analyze(&trace, AffinityConfig { w_min: 2, w_max: 5 });
    let layout: Vec<u32> = h.layout().iter().map(|b| b.0).collect();
    assert_eq!(layout, vec![1, 4, 2, 3, 5]);
    // Level structure per Figure 1(b).
    assert_eq!(h.partition_at(2).unwrap().num_groups(), 4);
    assert_eq!(h.partition_at(3).unwrap().num_groups(), 3);
    assert_eq!(h.partition_at(4).unwrap().num_groups(), 2);
    assert_eq!(h.partition_at(5).unwrap().num_groups(), 1);
}

/// §II-C, Figure 2: TRG reduction with 3 code slots emits A B E F C.
#[test]
fn figure2_trg_reduction() {
    // A=1, B=2, C=3, E=4, F=5.
    let trace = TrimmedTrace::from_indices([1, 2, 3, 4, 5]);
    let trg = Trg::from_edges(&[(1, 2, 40), (4, 5, 30), (4, 3, 25), (5, 2, 15), (5, 1, 10)]);
    let seq: Vec<u32> = reduce(&trg, 3, &trace)
        .sequence
        .iter()
        .map(|b| b.0)
        .collect();
    assert_eq!(seq, vec![1, 2, 4, 5, 3]); // A B E F C
}

/// §II-E, Figure 3: inter-procedural BB reordering groups the correlated
/// halves of X and Y.
#[test]
fn figure3_interprocedural_grouping() {
    let mut b = ModuleBuilder::new("fig3");
    let flag = b.global("b", 0);
    b.function("main")
        .call("callx", 16, "X", "cally")
        .call("cally", 16, "Y", "loop")
        .branch(
            "loop",
            16,
            CondModel::LoopCounter { trip: 3000 },
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
    let module = b.build().unwrap();

    let params = PipelineParams::for_pipeline("bb-affinity").unwrap();
    let opt = build_pipeline("bb-affinity", &params)
        .unwrap()
        .optimize(&module)
        .expect("supported");
    let Layout::BlockOrder(order) = &opt.layout else {
        panic!("expected a block order")
    };
    let name_of = |g: GlobalBlockId| {
        let (f, l) = opt.module.locate(g).unwrap();
        let func = opt.module.function(f).unwrap();
        format!("{}.{}", func.name, func.block(l).unwrap().name)
    };
    let pos = |want: &str| {
        order
            .iter()
            .position(|&g| name_of(g) == want)
            .unwrap_or_else(|| panic!("{} missing from layout", want)) as i64
    };
    // The affinity layout must pair X2 with Y2 and X3 with Y3.
    assert_eq!((pos("X.X2") - pos("Y.Y2")).abs(), 1);
    assert_eq!((pos("X.X3") - pos("Y.Y3")).abs(), 1);
}
