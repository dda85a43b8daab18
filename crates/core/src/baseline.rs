//! Prior-work baseline layouts.
//!
//! The paper positions its whole-program optimizers against the two
//! classic families of layout optimization (§IV "Code Layout
//! Optimization"): *function ordering* from dynamic call affinity
//! (Pettis–Hansen style, "closest is best" chain merging) and
//! *intra-procedural* basic-block reordering along hot paths — compilers
//! such as LLVM and GCC provide the latter, always within one procedure.
//! Both are implemented here so the evaluation can quantify what the
//! paper's inter-procedural, whole-program treatment adds.

use crate::bbreorder::JUMP_BYTES;
use crate::profile::Profile;
use clop_ir::cfg::EdgeProfile;
use clop_ir::{FuncId, GlobalBlockId, Layout, LocalBlockId, Module, Terminator};
use clop_trace::{BlockId, TraceStats, TrimmedTrace};
use std::collections::HashMap;

/// Pettis–Hansen-style function ordering from a profiled function trace.
///
/// Dynamic transitions between functions weight a graph; chains merge
/// along the heaviest edges with the "closest is best" orientation (the
/// two hot endpoints end up adjacent). Unprofiled functions follow in
/// original order.
pub fn pettis_hansen_function_order(module: &Module, func_trace: &TrimmedTrace) -> Layout {
    let profile = EdgeProfile::measure(func_trace);
    let n = module.num_functions();

    // Each function starts as its own chain.
    let mut chain_of: Vec<usize> = (0..n).collect();
    let mut chains: Vec<Option<Vec<u32>>> = (0..n as u32).map(|f| Some(vec![f])).collect();

    // Undirected edges, heaviest first; deterministic tie-break on ids.
    let mut edges: Vec<(u64, u32, u32)> = Vec::new();
    let mut seen: HashMap<(u32, u32), u64> = HashMap::new();
    for (a, b, _) in profile.edges() {
        let key = (a.min(b), a.max(b));
        if a != b && !seen.contains_key(&key) {
            let w = profile.undirected(a, b);
            seen.insert(key, w);
            edges.push((w, key.0, key.1));
        }
    }
    edges.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));

    for (_, a, b) in edges {
        if a as usize >= n || b as usize >= n {
            continue;
        }
        let (ca, cb) = (chain_of[a as usize], chain_of[b as usize]);
        if ca == cb {
            continue;
        }
        // Both chains are live by the chain_of invariant; recover rather
        // than panic if it is ever broken.
        let Some(mut left) = chains[ca].take() else {
            continue;
        };
        let Some(mut right) = chains[cb].take() else {
            chains[ca] = Some(left);
            continue;
        };
        // Closest is best: orient so `a` sits at the end of `left` and `b`
        // at the start of `right`.
        if left.first() == Some(&a) && left.len() > 1 {
            left.reverse();
        }
        if right.last() == Some(&b) && right.len() > 1 {
            right.reverse();
        }
        left.extend(right);
        for &f in &left {
            chain_of[f as usize] = ca;
        }
        chains[ca] = Some(left);
    }

    // Emit chains by hotness (total occurrence count), then leftovers.
    let stats = TraceStats::of(func_trace);
    let heat = |c: &Vec<u32>| -> u64 { c.iter().map(|&f| stats.count(BlockId(f))).sum() };
    let mut live: Vec<Vec<u32>> = chains.into_iter().flatten().collect();
    live.sort_by_key(|c| std::cmp::Reverse(heat(c)));
    let mut order: Vec<FuncId> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    for c in live {
        for f in c {
            if !placed[f as usize] {
                placed[f as usize] = true;
                order.push(FuncId(f));
            }
        }
    }
    for (f, done) in placed.iter().enumerate().take(n) {
        if !done {
            order.push(FuncId(f as u32));
        }
    }
    Layout::FunctionOrder(order)
}

/// Pre-processing for intra-procedural reordering: blocks that relied on
/// fall-through gain an explicit jump, but no entry stubs are needed —
/// each function's entry block stays first, and blocks never leave their
/// function.
pub fn preprocess_for_intra_reordering(module: &Module) -> Module {
    let mut functions = Vec::with_capacity(module.functions.len());
    for f in &module.functions {
        let mut nf = f.clone();
        for b in &mut nf.blocks {
            if matches!(
                b.terminator,
                Terminator::Jump(_) | Terminator::Branch { .. } | Terminator::Call { .. }
            ) {
                b.size_bytes += JUMP_BYTES;
            }
        }
        functions.push(nf);
    }
    Module::new(
        module.name.clone(),
        functions,
        module.globals.clone(),
        module.entry,
    )
}

/// Intra-procedural hot-path basic-block reordering.
///
/// Within each function, blocks chain along the hottest profiled
/// transitions (entry block pinned first); chains emit hottest-first and
/// cold blocks keep their original order at the end of their function.
/// Function order is untouched — this is exactly the scope of the
/// traditional compiler passes the paper contrasts with.
pub fn intra_procedural_block_order(module: &Module, profile: &Profile) -> Layout {
    // Per-function local transition weights from the global BB trace.
    let mut local_edges: HashMap<u32, HashMap<(u32, u32), u64>> = HashMap::new();
    let mut local_counts: HashMap<(u32, u32), u64> = HashMap::new();
    let events = profile.bb_trace.events();
    for (i, &e) in events.iter().enumerate() {
        let Some((f, l)) = module.locate(GlobalBlockId(e.0)) else {
            continue;
        };
        *local_counts.entry((f.0, l.0)).or_insert(0) += 1;
        if i + 1 < events.len() {
            if let Some((f2, l2)) = module.locate(GlobalBlockId(events[i + 1].0)) {
                if f2 == f && l2 != l {
                    *local_edges
                        .entry(f.0)
                        .or_default()
                        .entry((l.0, l2.0))
                        .or_insert(0) += 1;
                }
            }
        }
    }

    let mut order: Vec<GlobalBlockId> = Vec::with_capacity(module.num_blocks());
    for (fi, f) in module.functions.iter().enumerate() {
        let fid = FuncId(fi as u32);
        let n = f.blocks.len();
        let edges = local_edges.remove(&fid.0).unwrap_or_default();

        // Chain formation, entry pinned.
        let mut next_of: Vec<Option<u32>> = vec![None; n];
        let mut prev_of: Vec<Option<u32>> = vec![None; n];
        let mut sorted: Vec<((u32, u32), u64)> = edges.into_iter().collect();
        sorted.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for ((from, to), _) in sorted {
            if next_of[from as usize].is_some() || prev_of[to as usize].is_some() {
                continue; // endpoints already taken
            }
            if to == f.entry.0 {
                continue; // entry must stay first
            }
            // Reject cycles: walk from `to` along next links to see if we
            // reach `from`.
            let mut cur = to;
            let mut cycle = false;
            while let Some(nx) = next_of[cur as usize] {
                if nx == from {
                    cycle = true;
                    break;
                }
                cur = nx;
            }
            if cycle || from == to {
                continue;
            }
            next_of[from as usize] = Some(to);
            prev_of[to as usize] = Some(from);
        }

        // Emit: entry's chain first, then remaining chains hottest-first,
        // then never-executed blocks in original order.
        let count = |l: u32| local_counts.get(&(fid.0, l)).copied().unwrap_or(0);
        let mut emitted = vec![false; n];
        let emit_chain = |start: u32, order: &mut Vec<GlobalBlockId>, emitted: &mut Vec<bool>| {
            let mut cur = Some(start);
            while let Some(c) = cur {
                if emitted[c as usize] {
                    break;
                }
                emitted[c as usize] = true;
                order.push(module.global_id(fid, LocalBlockId(c)));
                cur = next_of[c as usize];
            }
        };
        emit_chain(f.entry.0, &mut order, &mut emitted);
        // Chain heads (no predecessor) sorted by hotness of their head.
        let mut heads: Vec<u32> = (0..n as u32)
            .filter(|&l| prev_of[l as usize].is_none() && !emitted[l as usize] && count(l) > 0)
            .collect();
        heads.sort_by_key(|&l| std::cmp::Reverse(count(l)));
        for h in heads {
            emit_chain(h, &mut order, &mut emitted);
        }
        for l in 0..n as u32 {
            if !emitted[l as usize] {
                emit_chain(l, &mut order, &mut emitted);
            }
        }
    }
    Layout::BlockOrder(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileConfig;
    use clop_ir::prelude::*;

    fn caller_module() -> Module {
        let mut b = ModuleBuilder::new("t");
        b.function("main")
            .call("c1", 8, "f", "c2")
            .call("c2", 8, "g", "back")
            .branch("back", 8, CondModel::LoopCounter { trip: 50 }, "c1", "end")
            .ret("end", 8)
            .finish();
        b.function("cold").ret("x", 64).finish();
        b.function("f").ret("x", 32).finish();
        b.function("g").ret("x", 32).finish();
        b.build().unwrap()
    }

    #[test]
    fn ph_orders_hot_call_pairs_adjacently() {
        let m = caller_module();
        let p = Profile::collect(&m, &ProfileConfig::default());
        let layout = pettis_hansen_function_order(&m, &p.func_trace);
        let Layout::FunctionOrder(order) = &layout else {
            panic!()
        };
        assert!(layout.is_permutation_of(&m));
        let pos = |f: u32| order.iter().position(|x| x.0 == f).unwrap() as i64;
        // f (2) and g (3) alternate in the trace → adjacent.
        assert_eq!((pos(2) - pos(3)).abs(), 1, "order {:?}", order);
        // cold (1) goes last.
        assert_eq!(order.last(), Some(&FuncId(1)));
    }

    #[test]
    fn ph_handles_empty_profile() {
        let m = caller_module();
        let empty = TrimmedTrace::from_indices(std::iter::empty::<u32>());
        let layout = pettis_hansen_function_order(&m, &empty);
        assert!(layout.is_permutation_of(&m));
        // Degenerates to original order.
        let Layout::FunctionOrder(order) = layout else {
            panic!()
        };
        assert_eq!(order, (0..4).map(FuncId).collect::<Vec<_>>());
    }

    fn branchy_module() -> Module {
        let mut b = ModuleBuilder::new("t");
        b.function("main")
            .call("c", 8, "work", "back")
            .branch("back", 8, CondModel::LoopCounter { trip: 200 }, "c", "end")
            .ret("end", 8)
            .finish();
        b.function("work")
            // Heavily biased branch: hot path is head → hot → out.
            .branch("head", 16, CondModel::Bernoulli(0.95), "hot", "cold")
            .jump("hot", 64, "out")
            .jump("cold", 64, "out")
            .ret("out", 16)
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn intra_reordering_follows_hot_path() {
        let m = branchy_module();
        let pre = preprocess_for_intra_reordering(&m);
        let p = Profile::collect(&pre, &ProfileConfig::default());
        let layout = intra_procedural_block_order(&pre, &p);
        assert!(layout.is_permutation_of(&pre));
        let Layout::BlockOrder(order) = &layout else {
            panic!()
        };
        // Within `work` (function 1), head must be followed by hot, not
        // cold.
        let gid = |l: u32| pre.global_id(FuncId(1), LocalBlockId(l));
        let pos = |g: GlobalBlockId| order.iter().position(|x| *x == g).unwrap();
        assert_eq!(pos(gid(1)), pos(gid(0)) + 1, "hot follows head");
        // cold block placed after the hot chain.
        assert!(pos(gid(2)) > pos(gid(3)) || pos(gid(2)) > pos(gid(1)));
    }

    #[test]
    fn intra_reordering_keeps_blocks_within_functions() {
        let m = branchy_module();
        let pre = preprocess_for_intra_reordering(&m);
        let p = Profile::collect(&pre, &ProfileConfig::default());
        let Layout::BlockOrder(order) = intra_procedural_block_order(&pre, &p) else {
            panic!()
        };
        // Blocks of each function form one contiguous run.
        let funcs: Vec<u32> = order.iter().map(|&g| pre.locate(g).unwrap().0 .0).collect();
        let mut seen = std::collections::HashSet::new();
        let mut last = u32::MAX;
        for f in funcs {
            if f != last {
                assert!(seen.insert(f), "function {} split across runs", f);
                last = f;
            }
        }
    }

    #[test]
    fn intra_preprocess_charges_jump_bytes_without_stubs() {
        let m = branchy_module();
        let pre = preprocess_for_intra_reordering(&m);
        assert_eq!(pre.num_blocks(), m.num_blocks()); // no stubs
                                                      // Branch/jump/call blocks grew; return blocks did not.
        let f = &pre.functions[1];
        assert_eq!(f.blocks[0].size_bytes, 16 + JUMP_BYTES);
        assert_eq!(f.blocks[1].size_bytes, 64 + JUMP_BYTES);
        assert_eq!(f.blocks[3].size_bytes, 16);
    }

    #[test]
    fn entry_block_stays_first() {
        let m = branchy_module();
        let pre = preprocess_for_intra_reordering(&m);
        let p = Profile::collect(&pre, &ProfileConfig::default());
        let Layout::BlockOrder(order) = intra_procedural_block_order(&pre, &p) else {
            panic!()
        };
        // The first block of each function's run is its entry.
        let mut run_start = true;
        let mut last_f = u32::MAX;
        for &g in &order {
            let (f, l) = pre.locate(g).unwrap();
            if f.0 != last_f {
                run_start = true;
                last_f = f.0;
            }
            if run_start {
                assert_eq!(l, pre.functions[f.index()].entry, "entry first in {}", f);
                run_start = false;
            }
        }
    }
}
