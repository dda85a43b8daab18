//! Trace-free (static) locality analysis.
//!
//! The dynamic pipeline measures a reuse histogram and a footprint curve
//! from an executed trace and feeds them through the paper's Eq-1
//! composition model. This module builds the *same two artifacts with zero
//! trace input*, from IR + layout geometry alone:
//!
//! * the [`clop_ir::analysis::StaticProfile`] supplies block heats and the
//!   loop nest;
//! * the [`clop_ir::LinkedImage`] bounds each loop's working set in cache
//!   lines (the distinct lines its body — and the hot part of everything it
//!   calls — spans);
//! * a synthetic [`ReuseHistogram`] records each loop's revisits at a
//!   distance equal to its working-set bound (an LRU cache holds a loop iff
//!   it holds the loop's lines), and a synthetic [`FootprintCurve`] is
//!   interpolated through per-loop `(accesses, lines)` anchor points.
//!
//! The two artifacts then flow through the *existing*
//! [`CompositionModel`] machinery unmodified, yielding static solo-miss,
//! defensiveness, politeness, and N-way interference estimates, plus a
//! set-conflict term from the static per-set pressure analysis. The
//! combined [`StaticLocalityReport::score`] is the sub-millisecond layout
//! ranking signal cross-validated against simulation by `exp static_rank`.

use crate::conflict::{analyze_conflicts, ConflictConfig};
use clop_cachesim::model::{defensiveness, politeness};
use clop_cachesim::{CacheConfig, CompositionModel, NwayInterferenceReport};
use clop_ir::analysis::{BitSet, StaticProfile};
use clop_ir::{FuncId, LinkedImage, LocalBlockId, Module, Terminator};
use clop_trace::footprint::FootprintCurve;
use clop_trace::{LruStack, ReuseHistogram};
use std::collections::BTreeSet;

/// Line sets as bitsets over the image's line range: `index = line -
/// base_line`. Dense word operations keep the per-loop and per-function
/// unions linear in image lines / 64 instead of log-tree per element.
struct LineSets {
    base_line: u64,
    universe: usize,
}

impl LineSets {
    fn new(image: &LinkedImage, line_size: u64) -> LineSets {
        let base_line = image.base_address() / line_size;
        let last = (image.base_address() + image.image_size().max(1) - 1) / line_size;
        LineSets {
            base_line,
            universe: (last - base_line + 1) as usize,
        }
    }

    fn empty(&self) -> BitSet {
        BitSet::new(self.universe)
    }

    fn insert_span(&self, set: &mut BitSet, lo: u64, hi: u64) {
        for l in lo..=hi {
            set.insert((l - self.base_line) as usize);
        }
    }
}

/// Peer-group sizes for the static N-way interference estimates (matches
/// the 3/7/15-adversary widths reported by `OptimizationReport`).
pub const NWAY_WIDTHS: [usize; 3] = [3, 7, 15];

/// Configuration of the static locality analysis.
#[derive(Clone, Copy, Debug)]
pub struct LocalityConfig {
    /// Cache geometry to analyze against.
    pub cache: CacheConfig,
    /// Synthetic-curve horizon as a multiple of the cache's line capacity
    /// (the dynamic models use 2–4×; the inverse lookup in Eq 1 only ever
    /// asks for footprints below capacity).
    pub window_factor: usize,
}

impl Default for LocalityConfig {
    fn default() -> Self {
        LocalityConfig {
            cache: CacheConfig::paper_l1i(),
            window_factor: 4,
        }
    }
}

/// The statically bounded working set of one natural loop.
#[derive(Clone, Debug)]
pub struct LoopWorkingSet {
    /// Owning function.
    pub func: FuncId,
    /// Loop header block (local id).
    pub header: LocalBlockId,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
    /// Estimated iterations per activation.
    pub trip: f64,
    /// Distinct cache lines one iteration can touch: the body's line span
    /// plus the hot lines of every function the body calls (transitively).
    pub lines: usize,
    /// Estimated line-fetch events per iteration.
    pub accesses_per_iter: f64,
    /// Estimated total iterations over the whole run.
    pub iterations: f64,
}

/// Static defensiveness/politeness/miss estimates for one (module, image)
/// pair — the trace-free counterpart of the dynamic `OptimizationReport`
/// side metrics.
#[derive(Clone, Debug)]
pub struct StaticLocalityReport {
    /// Distinct cache lines the image occupies.
    pub image_lines: usize,
    /// Distinct lines spanned by blocks with positive static heat.
    pub hot_lines: usize,
    /// Total estimated line-fetch events.
    pub total_accesses: f64,
    /// Per-loop working sets, ordered by (function, header).
    pub loops: Vec<LoopWorkingSet>,
    /// Static solo miss probability (Eq 1 left side, capacity = cache
    /// lines).
    pub solo_miss: f64,
    /// Static conflict-pressure term: revisit weight trapped in overloaded
    /// sets as a fraction of all weight (the composition model is fully
    /// associative; this term restores set-geometry sensitivity).
    pub conflict_miss: f64,
    /// Ranking score: `solo_miss + conflict_miss`, lower is better.
    pub score: f64,
    /// Static defensiveness against the standard probe adversary.
    pub defensiveness: f64,
    /// Static politeness toward the standard probe adversary.
    pub politeness: f64,
    /// Static N-way interference vs. [`NWAY_WIDTHS`] probe clones.
    pub nway: Vec<NwayInterferenceReport>,
    model: CompositionModel,
}

impl StaticLocalityReport {
    /// The synthetic composition model (for composing against other
    /// statically analyzed programs).
    pub fn model(&self) -> &CompositionModel {
        &self.model
    }

    /// One-paragraph text rendering for the lint CLI.
    pub fn render(&self) -> String {
        let mut out = format!(
            "static locality: {} image lines, {} hot, {:.0} est. accesses, {} loop(s)\n\
             solo miss {:.4}  conflict {:.4}  score {:.4}  defensiveness {:+.4}  politeness {:+.4}\n",
            self.image_lines,
            self.hot_lines,
            self.total_accesses,
            self.loops.len(),
            self.solo_miss,
            self.conflict_miss,
            self.score,
            self.defensiveness,
            self.politeness,
        );
        for r in &self.nway {
            out.push_str(&format!(
                "  vs {:>2} peers: corun {:.4} (sensitivity {:+.4})\n",
                r.peers, r.corun, r.sensitivity
            ));
        }
        out
    }
}

/// A fixed synthetic adversary: touches half the cache per window with
/// uniform reuse over it. Defensiveness/politeness need *some* peer to
/// compose against; using one deterministic probe for every program makes
/// static scores comparable across workloads and layouts.
pub fn probe_model(capacity: usize) -> CompositionModel {
    let mut h = ReuseHistogram::default();
    for d in 0..capacity / 2 {
        h.record_n(d, 4);
    }
    h.record_n(LruStack::INFINITE, (capacity as u64 / 8).max(1));
    let curve = FootprintCurve::from_anchors(
        &[
            (1, 1.0),
            (capacity, capacity as f64 / 2.0),
            (4 * capacity, capacity as f64),
        ],
        4 * capacity,
        capacity,
    );
    CompositionModel::from_parts(h, curve)
}

/// Distinct-line span of one block under `image`, as an inclusive line
/// range.
fn block_lines(image: &LinkedImage, g: usize, line_size: u64) -> (u64, u64) {
    image.line_span(clop_ir::GlobalBlockId(g as u32), line_size)
}

/// Per-function hot-line sets and per-invocation line-fetch events,
/// closed over callees (bounded fixpoint; recursion converges because
/// unions only grow and events saturate).
struct CalleeClosure {
    lines: Vec<BitSet>,
    events: Vec<f64>,
}

fn callee_closure(
    module: &Module,
    image: &LinkedImage,
    profile: &StaticProfile,
    sets: &LineSets,
    line_size: u64,
) -> CalleeClosure {
    let nf = module.num_functions();
    let mut own_lines: Vec<BitSet> = (0..nf).map(|_| sets.empty()).collect();
    let mut own_events = vec![0.0f64; nf];
    let mut calls: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nf];
    for (fi, f) in module.functions.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            let lf = profile.funcs[fi].freq[bi];
            if lf <= 0.0 {
                continue;
            }
            let g = module.global_id(FuncId(fi as u32), LocalBlockId(bi as u32));
            let (lo, hi) = block_lines(image, g.index(), line_size);
            sets.insert_span(&mut own_lines[fi], lo, hi);
            own_events[fi] += lf * (hi - lo + 1) as f64;
            if let Terminator::Call { callee, .. } = &b.terminator {
                if callee.index() < nf {
                    calls[fi].push((callee.index(), lf));
                }
            }
        }
    }
    let mut lines = own_lines;
    let mut events = own_events.clone();
    // Relax: a handful of rounds reaches a fixpoint for call chains of
    // realistic depth; cyclic (recursive) graphs stop growing once the
    // unions saturate or the round budget runs out.
    for _ in 0..nf.clamp(4, 16) {
        let mut changed = false;
        for fi in 0..nf {
            let mut ev = own_events[fi];
            for &(g, rate) in &calls[fi] {
                ev += rate * events[g];
                if g != fi {
                    // Word-wise union of the callee's closed line set.
                    let (left, right) = if g < fi {
                        let (a, b) = lines.split_at_mut(fi);
                        (&mut b[0], &a[g])
                    } else {
                        let (a, b) = lines.split_at_mut(g);
                        (&mut a[fi], &b[0])
                    };
                    changed |= left.union_with(right);
                }
            }
            let ev = ev.min(1e15);
            if (ev - events[fi]).abs() > 1e-9 * ev.abs().max(1.0) {
                events[fi] = ev;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    CalleeClosure { lines, events }
}

/// Run the static locality analysis for one (module, image) pair.
///
/// Pure and deterministic: block/function index order throughout, no
/// hashing, no execution. Cost is linear in blocks + loop body sizes, well
/// under a millisecond on the registry workloads.
pub fn analyze_locality(
    module: &Module,
    image: &LinkedImage,
    profile: &StaticProfile,
    config: &LocalityConfig,
) -> StaticLocalityReport {
    let line_size = config.cache.line_size.max(1);
    let capacity = config.cache.num_lines().max(1) as usize;
    let nb = module.num_blocks();

    // Hot-line footprint + per-block events.
    let sets = LineSets::new(image, line_size);
    let mut hot_line_set = sets.empty();
    let mut events = vec![0.0f64; nb];
    let mut spans = vec![(0u64, 0u64); nb];
    for g in 0..nb {
        let (lo, hi) = block_lines(image, g, line_size);
        spans[g] = (lo, hi);
        let freq = profile.block_freq.get(g).copied().unwrap_or(0.0);
        if freq > 0.0 {
            events[g] = freq * (hi - lo + 1) as f64;
            sets.insert_span(&mut hot_line_set, lo, hi);
        }
    }
    let hot_lines = hot_line_set.count();
    let image_lines = (image.image_size().max(1)).div_ceil(line_size) as usize;
    let total_accesses: f64 = events.iter().sum();

    let closure = callee_closure(module, image, profile, &sets, line_size);

    // Per-loop working sets, and for every block its innermost loop's
    // index into `loops` (parallel ordering: function, then header).
    let mut loops: Vec<LoopWorkingSet> = Vec::new();
    let mut loop_of_block: Vec<Option<usize>> = vec![None; nb];
    let mut parent_of_loop: Vec<Option<usize>> = Vec::new();
    for (fi, fp) in profile.funcs.iter().enumerate() {
        let fid = FuncId(fi as u32);
        let base = loops.len();
        for l in fp.nest.loops() {
            let mut line_set = sets.empty();
            let mut per_iter = 0.0f64;
            let header_freq = fp.freq[l.header.index()].max(1e-12);
            for &b in &l.body {
                let g = module.global_id(fid, b).index();
                let (lo, hi) = spans[g];
                sets.insert_span(&mut line_set, lo, hi);
                let rel = fp.freq[b.index()] / header_freq;
                per_iter += rel * (hi - lo + 1) as f64;
                if let Some(block) = module.functions[fi].block(b) {
                    if let Terminator::Call { callee, .. } = &block.terminator {
                        if callee.index() < closure.lines.len() && callee.index() != fi {
                            line_set.union_with(&closure.lines[callee.index()]);
                            per_iter += rel * closure.events[callee.index()];
                        }
                    }
                }
            }
            let iterations = profile.func_freq[fi] * fp.freq[l.header.index()];
            loops.push(LoopWorkingSet {
                func: fid,
                header: l.header,
                depth: l.depth,
                trip: l.trip,
                lines: line_set.count(),
                accesses_per_iter: per_iter,
                iterations,
            });
        }
        // Innermost loop per block, and parent (innermost enclosing) loop
        // per loop, in the same function-local index space.
        let func_loops = fp.nest.loops();
        for (bi, _) in fp.freq.iter().enumerate() {
            if let Some(li) = fp.nest.innermost_of(LocalBlockId(bi as u32)) {
                let g = module.global_id(fid, LocalBlockId(bi as u32)).index();
                loop_of_block[g] = Some(base + li);
            }
        }
        for (li, l) in func_loops.iter().enumerate() {
            // The parent is the smallest loop that contains this header
            // besides the loop itself.
            let mut parent: Option<usize> = None;
            for (lj, other) in func_loops.iter().enumerate() {
                if lj == li || !other.body.contains(&l.header) {
                    continue;
                }
                parent = match parent {
                    None => Some(lj),
                    Some(p) => {
                        if other.body.len() < func_loops[p].body.len() {
                            Some(lj)
                        } else {
                            Some(p)
                        }
                    }
                };
            }
            parent_of_loop.push(parent.map(|p| base + p));
        }
    }

    // Synthetic reuse histogram. Each loop block's repeat iterations
    // revisit their lines at a distance bounded by the loop's working set;
    // first-iteration accesses reuse at the enclosing loop's distance (or
    // the whole hot footprint); straight-line code reuses at the hot
    // footprint. One cold access per hot line accounts for first touches.
    let mut hist = ReuseHistogram::default();
    let as_count = |x: f64| x.round().clamp(0.0, 9.0e15) as u64;
    let global_distance = hot_lines;
    for g in 0..nb {
        if events[g] <= 0.0 {
            continue;
        }
        match loop_of_block[g] {
            Some(li) => {
                let l = &loops[li];
                let trip = l.trip.max(1.0);
                let repeat = events[g] * (1.0 - 1.0 / trip);
                let first = events[g] - repeat;
                hist.record_n(l.lines, as_count(repeat));
                let outer = parent_of_loop[li].map(|p| loops[p].lines);
                hist.record_n(outer.unwrap_or(global_distance), as_count(first));
            }
            None => {
                hist.record_n(global_distance, as_count(events[g]));
            }
        }
    }
    hist.record_n(LruStack::INFINITE, hot_lines as u64);

    // Synthetic footprint curve: anchors at (accesses per iteration,
    // working-set lines) per loop, plus the whole program.
    let mut anchors: Vec<(usize, f64)> = loops
        .iter()
        .filter(|l| l.iterations > 0.0 && l.accesses_per_iter > 0.0)
        .map(|l| {
            (
                l.accesses_per_iter.round().max(1.0) as usize,
                l.lines as f64,
            )
        })
        .collect();
    anchors.push((total_accesses.round().max(1.0) as usize, hot_lines as f64));
    let max_window = capacity * config.window_factor.max(1);
    let curve = FootprintCurve::from_anchors(&anchors, max_window, hot_lines);

    let model = CompositionModel::from_parts(hist, curve);
    let solo_miss = model.solo_miss_probability(capacity);

    // Conflict term from the existing per-set pressure analysis.
    let weights: Vec<u64> = profile.block_freq.iter().map(|&f| as_count(f)).collect();
    let conflict = analyze_conflicts(
        module,
        image,
        &weights,
        &ConflictConfig {
            cache: config.cache,
            hot_line_min_weight: 1,
        },
    );
    let overloaded: BTreeSet<u64> = conflict.overloaded().into_iter().collect();
    let total_weight: u64 = conflict.sets.iter().map(|s| s.weight).sum();
    let trapped: u64 = conflict
        .sets
        .iter()
        .filter(|s| overloaded.contains(&s.set))
        .map(|s| s.weight)
        .sum();
    let conflict_miss = if total_weight > 0 {
        trapped as f64 / total_weight as f64
    } else {
        0.0
    };
    let score = solo_miss + conflict_miss;

    let probe = probe_model(capacity);
    let defensiveness = defensiveness(&model, &probe, capacity);
    let politeness = politeness(&model, &probe, capacity);
    let nway = NWAY_WIDTHS
        .iter()
        .map(|&n| {
            let peers: Vec<&CompositionModel> = (0..n).map(|_| &probe).collect();
            NwayInterferenceReport::measure(&model, &peers, capacity)
        })
        .collect();

    StaticLocalityReport {
        image_lines,
        hot_lines,
        total_accesses,
        loops,
        solo_miss,
        conflict_miss,
        score,
        defensiveness,
        politeness,
        nway,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_ir::{CondModel, Layout, LinkOptions, ModuleBuilder};

    fn linked(m: &Module) -> LinkedImage {
        LinkedImage::link(m, &Layout::original(m), LinkOptions::default())
    }

    /// A tight loop over few lines and a huge streaming loop.
    fn looped_module(body_bytes: u32, trip: u32) -> Module {
        let mut b = ModuleBuilder::new("m");
        b.function("main")
            .jump("entry", 16, "head")
            .branch(
                "head",
                body_bytes,
                CondModel::LoopCounter { trip },
                "head",
                "exit",
            )
            .ret("exit", 16)
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn tight_loop_predicts_near_zero_miss() {
        let m = looped_module(64, 1000);
        let img = linked(&m);
        let p = StaticProfile::of(&m);
        let r = analyze_locality(&m, &img, &p, &LocalityConfig::default());
        assert_eq!(r.loops.len(), 1);
        assert!(r.loops[0].lines <= 3);
        assert!(
            r.solo_miss < 0.05,
            "tight loop must mostly hit: {}",
            r.solo_miss
        );
        assert!(r.score >= r.solo_miss);
        assert!(r.nway.len() == NWAY_WIDTHS.len());
    }

    #[test]
    fn oversized_loop_predicts_high_miss() {
        // Body far larger than the 512-line paper cache: 64 KiB block.
        let m = looped_module(96 * 1024, 1000);
        let img = linked(&m);
        let p = StaticProfile::of(&m);
        let r = analyze_locality(&m, &img, &p, &LocalityConfig::default());
        assert!(
            r.solo_miss > 0.5,
            "loop bigger than the cache must mostly miss: {}",
            r.solo_miss
        );
        // A cache-busting loop is also a hostile co-runner.
        let tight = {
            let m = looped_module(64, 1000);
            let img = linked(&m);
            let p = StaticProfile::of(&m);
            analyze_locality(&m, &img, &p, &LocalityConfig::default())
        };
        assert!(r.politeness < tight.politeness);
        assert!(r.score > tight.score);
    }

    #[test]
    fn report_is_deterministic() {
        let m = looped_module(4096, 50);
        let img = linked(&m);
        let p = StaticProfile::of(&m);
        let a = analyze_locality(&m, &img, &p, &LocalityConfig::default());
        let b = analyze_locality(&m, &img, &p, &LocalityConfig::default());
        assert_eq!(a.solo_miss.to_bits(), b.solo_miss.to_bits());
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.defensiveness.to_bits(), b.defensiveness.to_bits());
    }

    #[test]
    fn probe_model_is_sane() {
        let p = probe_model(512);
        let solo = p.solo_miss_probability(512);
        assert!(solo > 0.0 && solo < 1.0);
        assert!(p.footprint().at(512) > 0.0);
    }
}
