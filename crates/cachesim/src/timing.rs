//! Cycle-accounted SMT core model — execution times, speedups, throughput.
//!
//! The paper reports real-machine numbers: solo/co-run speedups (Figures 5
//! and 6, Table II) and hyper-threading throughput (Figure 7). Our stand-in
//! is a deliberately simple two-thread core model with the physics that
//! matter for those experiments:
//!
//! * the core retires **one instruction per cycle**, shared equally between
//!   ready threads (hyper-threads share execution resources, which is why
//!   SMT gains are bounded well below 2×),
//! * an instruction-cache **miss stalls its thread** for a fixed penalty
//!   while the other thread keeps the core busy — overlap of one thread's
//!   stalls with the other's execution is exactly the source of the paper's
//!   15–30% co-run throughput gain (Figure 7a),
//! * a **background stall** (data misses, branch mispredictions, …) of
//!   fixed duty cycle models the non-icache stall time of a real program;
//!   it, too, overlaps in co-run,
//! * the **HwLike** variant runs the shared cache behind a next-line
//!   prefetcher, reproducing the paper's observation that hardware-counted
//!   miss reductions are smaller than simulated ones.
//!
//! Inputs are *timed fetch streams*: `(line, exec_cycles)` pairs, one per
//! cache-line fetch, where `exec_cycles` is the work the thread performs
//! before it needs the next line.

use crate::config::{CacheConfig, CacheStats};
use crate::corun::tag_line;
use crate::icache::SetAssocCache;
use crate::multilevel::{Level, TwoLevelCache};
use crate::prefetch::NextLinePrefetchCache;
use std::fmt;

/// Timing-model parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingConfig {
    /// Cache geometry (the paper's 32 KB / 4-way / 64 B by default).
    pub cache: CacheConfig,
    /// Cycles a thread stalls on an instruction-cache miss.
    pub miss_penalty: f64,
    /// Maximum instructions/cycle a *single* thread can extract from the
    /// core (its ILP limit). The core itself retires up to 1.0 IPC total;
    /// with a cap below 1.0, a lone thread leaves issue slots idle that a
    /// hyper-thread can fill — the actual source of SMT throughput gains,
    /// and the reason one thread speeding up does not simply steal the
    /// whole core from its peer.
    pub max_thread_ipc: f64,
    /// A background (non-icache) stall fires after every this many executed
    /// cycles…
    pub background_interval: f64,
    /// …and lasts this many cycles. The pair sets the solo stall fraction
    /// and thereby the SMT throughput-gain regime.
    pub background_stall: f64,
    /// Put a next-line prefetcher in front of the cache (HwLike channel).
    pub prefetch: bool,
    /// Cycles by which thread 1 starts after thread 0 in a co-run. Real
    /// co-scheduled processes never start in the same cycle; without a
    /// stagger, two copies of the same deterministic program stall in
    /// lockstep and their stalls never overlap — an artifact, not physics.
    pub corun_stagger: f64,
    /// Optional shared unified L2 behind the L1. When set, an L1 miss that
    /// hits L2 stalls for `miss_penalty` while an L2 miss stalls for
    /// `memory_penalty` — the differentiated multi-level latencies of the
    /// paper's testbed. Incompatible with `prefetch` (the prefetcher
    /// models the hw channel's front end; pick one refinement at a time).
    pub l2: Option<CacheConfig>,
    /// Stall cycles for an access that misses both levels (only used when
    /// `l2` is set).
    pub memory_penalty: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            cache: CacheConfig::paper_l1i(),
            // L1I miss penalty including front-end refill effects.
            miss_penalty: 40.0,
            // A 0.85 ILP cap plus a 30-cycle background stall every 200
            // executed cycles put solo runs ~15-20% under the core's peak
            // and land hyper-threading throughput gains in the paper's
            // 15–30% regime; instruction-cache stalls carry the remaining
            // weight, so layout optimization moves co-run throughput.
            max_thread_ipc: 0.85,
            background_interval: 200.0,
            background_stall: 30.0,
            prefetch: false,
            // Incommensurate with the background interval, so shifted
            // copies of a periodic stall pattern overlap only partially.
            corun_stagger: 137.0,
            l2: None,
            memory_penalty: 200.0,
        }
    }
}

impl TimingConfig {
    /// The HwLike channel: default timing with the prefetcher enabled.
    pub fn hw_like() -> Self {
        TimingConfig {
            prefetch: true,
            ..Default::default()
        }
    }

    /// Check that the simulator can run this configuration to completion.
    ///
    /// Every field must be finite, except `background_interval`, which may
    /// be `+∞` (no background stalls); `max_thread_ipc` and
    /// `background_interval` must be positive; the penalties and
    /// `background_stall` non-negative; and `l2` and `prefetch` are
    /// mutually exclusive. Outside these bounds the event loop hangs (a
    /// zero interval never drains the background credit, a zero IPC cap
    /// turns the remaining work into NaN) or silently drops a thread (a
    /// NaN stagger never expires).
    pub fn validate(&self) -> Result<(), InvalidTiming> {
        let require = |ok: bool, field, requirement| match ok {
            true => Ok(()),
            false => Err(InvalidTiming { field, requirement }),
        };
        for (field, value) in [
            ("miss_penalty", self.miss_penalty),
            ("memory_penalty", self.memory_penalty),
            ("background_stall", self.background_stall),
        ] {
            let non_negative = (0.0..f64::INFINITY).contains(&value);
            require(non_negative, field, "must be finite and >= 0")?;
        }
        let ipc = self.max_thread_ipc;
        require(
            ipc.is_finite() && ipc > 0.0,
            "max_thread_ipc",
            "must be finite and > 0",
        )?;
        // `> 0` also rejects NaN; +∞ passes.
        require(
            self.background_interval > 0.0,
            "background_interval",
            "must be > 0 or +inf",
        )?;
        require(
            self.corun_stagger.is_finite(),
            "corun_stagger",
            "must be finite",
        )?;
        require(
            self.l2.is_none() || !self.prefetch,
            "l2",
            "and prefetch refinements are mutually exclusive",
        )
    }
}

/// A [`TimingConfig`] the simulator cannot run: the first field
/// [`TimingConfig::validate`] rejected and the condition it breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidTiming {
    /// Name of the offending `TimingConfig` field.
    pub field: &'static str,
    /// What the field must satisfy.
    pub requirement: &'static str,
}

impl fmt::Display for InvalidTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (field, requirement) = (self.field, self.requirement);
        write!(f, "invalid timing config: {field} {requirement}")
    }
}

impl std::error::Error for InvalidTiming {}

/// Outcome of one thread in a timed run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadOutcome {
    /// Cycle at which the thread finished its stream.
    pub finish_cycles: f64,
    /// Demand cache statistics of this thread.
    pub stats: CacheStats,
}

/// Outcome of a solo timed run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimedRun {
    /// Total cycles to drain the stream.
    pub cycles: f64,
    /// Demand cache statistics.
    pub stats: CacheStats,
}

/// A cache the core model can fetch through. The run picks the
/// implementation once, from the config, and the loops are monomorphised
/// on it.
trait TimedCache {
    /// Demand-fetch a (tagged) line: whether it hit the first level, and
    /// the miss stall it costs the thread.
    fn fetch(&mut self, line: u64, cfg: &TimingConfig) -> (bool, f64);
}

impl TimedCache for SetAssocCache {
    #[inline]
    fn fetch(&mut self, line: u64, cfg: &TimingConfig) -> (bool, f64) {
        let hit = self.access(line);
        (hit, if hit { 0.0 } else { cfg.miss_penalty })
    }
}

impl TimedCache for NextLinePrefetchCache {
    #[inline]
    fn fetch(&mut self, line: u64, cfg: &TimingConfig) -> (bool, f64) {
        let hit = self.access(line);
        (hit, if hit { 0.0 } else { cfg.miss_penalty })
    }
}

impl TimedCache for TwoLevelCache {
    #[inline]
    fn fetch(&mut self, line: u64, cfg: &TimingConfig) -> (bool, f64) {
        match self.access(line) {
            Level::L1 => (true, 0.0),
            Level::L2 => (false, cfg.miss_penalty),
            Level::Memory => (false, cfg.memory_penalty),
        }
    }
}

/// Add the background stalls a fetch owes to its miss stall: one
/// `background_stall` per whole `background_interval` of executed cycles
/// banked in `credit` since the last one fired.
#[inline]
fn with_background(cfg: &TimingConfig, credit: &mut f64, mut stall: f64) -> f64 {
    while *credit >= cfg.background_interval {
        *credit -= cfg.background_interval;
        stall += cfg.background_stall;
    }
    stall
}

/// The SMT core simulator. Its configuration passed
/// [`TimingConfig::validate`]: the loops below rely on it.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmtSimulator {
    config: TimingConfig,
}

impl SmtSimulator {
    /// A simulator with the given timing configuration.
    ///
    /// Panics, naming the field, if [`TimingConfig::validate`] rejects it.
    pub fn new(config: TimingConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{}", e);
        }
        SmtSimulator { config }
    }

    /// Run one timed fetch stream alone on the core.
    pub fn run_solo(&self, stream: &[(u64, u32)]) -> TimedRun {
        let cfg = &self.config;
        match cfg.l2 {
            Some(l2) => solo(cfg, TwoLevelCache::new(cfg.cache, l2), stream),
            None if cfg.prefetch => solo(cfg, NextLinePrefetchCache::new(cfg.cache), stream),
            None => solo(cfg, SetAssocCache::new(cfg.cache), stream),
        }
    }

    /// Run two timed fetch streams as hyper-threads sharing the core and
    /// the instruction cache. Returns per-thread outcomes; the co-run
    /// completes at the max of the two finish times.
    pub fn run_corun(&self, a: &[(u64, u32)], b: &[(u64, u32)]) -> [ThreadOutcome; 2] {
        let cfg = &self.config;
        match cfg.l2 {
            Some(l2) => corun(cfg, TwoLevelCache::new(cfg.cache, l2), [a, b]),
            None if cfg.prefetch => corun(cfg, NextLinePrefetchCache::new(cfg.cache), [a, b]),
            None => corun(cfg, SetAssocCache::new(cfg.cache), [a, b]),
        }
    }
}

/// A lone thread, as one scan of its stream. With nothing to interleave,
/// each fetch is its access, then its stall, then its work at the ILP cap;
/// the f64 operations are the ones the general event loop (the test
/// oracle) performs for one thread, in the same order (DESIGN.md §17).
fn solo<C: TimedCache>(cfg: &TimingConfig, mut cache: C, stream: &[(u64, u32)]) -> TimedRun {
    let share = 1.0f64.min(cfg.max_thread_ipc);
    let mut t = 0.0f64;
    let mut credit = 0.0f64;
    let mut stats = CacheStats::default();
    for &(line, exec) in stream {
        let (hit, stall) = cache.fetch(tag_line(line, 0), cfg);
        stats.record(hit);
        // The stall ends at `t + stall`, when the thread is ready again.
        t += with_background(cfg, &mut credit, stall);
        let mut rem = exec as f64;
        loop {
            let step = (rem / share).max(0.0);
            t += step;
            let done = step * share;
            let left = rem - done;
            credit += done;
            // Rounding can leave a residue above the drain tolerance; the
            // event loop spends one more step on it, and so does the scan.
            if left <= 1e-9 {
                break;
            }
            rem = left;
        }
    }
    TimedRun { cycles: t, stats }
}

/// One hyper-thread of a co-run.
struct Lane<'a> {
    stream: std::slice::Iter<'a, (u64, u32)>,
    /// The thread is ready once `t` reaches this cycle (the end of its
    /// stall); `+∞` once its stream has drained.
    until: f64,
    /// Work left in the current segment, in cycles.
    rem: f64,
    /// Executed cycles since the last background stall fired.
    credit: f64,
    stats: CacheStats,
    finish: f64,
}

impl<'a> Lane<'a> {
    fn new(stream: &'a [(u64, u32)]) -> Self {
        Lane {
            stream: stream.iter(),
            until: 0.0,
            rem: 0.0,
            credit: 0.0,
            stats: CacheStats::default(),
            finish: 0.0,
        }
    }

    /// Start the thread's next segment at cycle `t`: fetch its line, stall
    /// for the miss and any background stalls due, then execute.
    #[inline]
    fn fetch<C: TimedCache>(&mut self, cfg: &TimingConfig, cache: &mut C, thread: usize, t: f64) {
        match self.stream.next() {
            Some(&(line, exec)) => {
                let (hit, stall) = cache.fetch(tag_line(line, thread), cfg);
                self.stats.record(hit);
                self.until = t + with_background(cfg, &mut self.credit, stall);
                self.rem = exec as f64;
            }
            None => {
                self.until = f64::INFINITY;
                self.finish = t;
            }
        }
    }
}

/// Two hyper-threads on one core and one cache: the event loop, over two
/// fixed lanes. Each iteration wakes threads whose stall has ended, lets
/// the ready ones split the core until the first segment drains or the
/// first stall ends, and starts the next segment of every drained thread
/// in thread order (so thread 0 reaches the cache first).
fn corun<C: TimedCache>(
    cfg: &TimingConfig,
    mut cache: C,
    streams: [&[(u64, u32)]; 2],
) -> [ThreadOutcome; 2] {
    let mut lanes = streams.map(Lane::new);
    let mut t = 0.0f64;
    // Thread 0 issues its first fetch at time zero; thread 1 is staggered
    // (a zero-work segment behind a stall, whose drain triggers its first
    // fetch).
    lanes[0].fetch(cfg, &mut cache, 0, t);
    if cfg.corun_stagger <= 0.0 {
        lanes[1].fetch(cfg, &mut cache, 1, t);
    } else {
        lanes[1].until = cfg.corun_stagger;
    }
    loop {
        let ready = [lanes[0].until <= t, lanes[1].until <= t];
        if !ready[0] && !ready[1] {
            // Advance to the earliest stall expiry, or finish.
            let next = lanes[0].until.min(lanes[1].until);
            if next.is_infinite() {
                break;
            }
            t = next;
            continue;
        }
        // Ready threads split the core's 1.0 IPC, each capped at its ILP
        // limit.
        let share = (if ready[0] && ready[1] { 0.5 } else { 1.0f64 }).min(cfg.max_thread_ipc);
        // Time until the first ready thread drains its segment, or a
        // stalled thread wakes (changing the share). A finished lane's
        // `+∞ - t` leaves the minimum alone.
        let mut dt = f64::INFINITY;
        for (lane, &r) in lanes.iter().zip(&ready) {
            if r {
                dt = dt.min(lane.rem / share);
            }
        }
        for (lane, &r) in lanes.iter().zip(&ready) {
            if !r {
                dt = dt.min(lane.until - t);
            }
        }
        debug_assert!(dt >= 0.0);
        let step = dt.max(0.0);
        t += step;
        for (i, lane) in lanes.iter_mut().enumerate() {
            if ready[i] {
                let done = step * share;
                let left = lane.rem - done;
                lane.credit += done;
                if left <= 1e-9 {
                    lane.fetch(cfg, &mut cache, i, t);
                } else {
                    lane.rem = left;
                }
            }
        }
    }
    lanes.map(|lane| ThreadOutcome {
        finish_cycles: lane.finish,
        stats: lane.stats,
    })
}

/// Throughput improvement of finishing both programs via co-run instead of
/// back-to-back solo runs: `(solo_a + solo_b) / corun_makespan − 1`.
/// This is the paper's Figure 7 metric.
pub fn throughput_improvement(solo_a: f64, solo_b: f64, corun: [ThreadOutcome; 2]) -> f64 {
    let makespan = corun[0].finish_cycles.max(corun[1].finish_cycles);
    (solo_a + solo_b) / makespan - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_util::check::{check_n, vec_of};
    use clop_util::Rng;

    /// The general N-thread event loop the solo scan and the two-lane
    /// co-run replaced, kept as their differential oracle: every step
    /// rebuilds the ready set, and a stall is a state the thread wakes
    /// from.
    mod oracle {
        use super::super::*;

        #[derive(Clone, Copy, PartialEq)]
        enum ThreadState {
            /// Executing the current segment; `f64` cycles of work remain.
            Exec(f64),
            /// Stalled until the given absolute cycle, then `f64` work remains.
            Stall {
                until: f64,
                then_exec: f64,
            },
            Done,
        }

        struct Thread<'a> {
            stream: &'a [(u64, u32)],
            idx: usize,
            state: ThreadState,
            /// Executed cycles since the last background stall fired.
            background_credit: f64,
            stats: CacheStats,
            finish: f64,
        }

        /// Run `streams` as hyper-threads on one core, thread `i` starting
        /// `i × corun_stagger` cycles in.
        pub fn run_streams(cfg: &TimingConfig, streams: &[&[(u64, u32)]]) -> Vec<ThreadOutcome> {
            match cfg.l2 {
                Some(l2) => run_with(cfg, TwoLevelCache::new(cfg.cache, l2), streams),
                None if cfg.prefetch => {
                    run_with(cfg, NextLinePrefetchCache::new(cfg.cache), streams)
                }
                None => run_with(cfg, SetAssocCache::new(cfg.cache), streams),
            }
        }

        fn run_with<C: TimedCache>(
            cfg: &TimingConfig,
            mut cache: C,
            streams: &[&[(u64, u32)]],
        ) -> Vec<ThreadOutcome> {
            let mut threads: Vec<Thread> = streams
                .iter()
                .map(|s| Thread {
                    stream: s,
                    idx: 0,
                    state: ThreadState::Exec(0.0),
                    background_credit: 0.0,
                    stats: CacheStats::default(),
                    finish: 0.0,
                })
                .collect();

            let mut t = 0.0f64;
            for (ti, th) in threads.iter_mut().enumerate() {
                if ti == 0 || cfg.corun_stagger <= 0.0 {
                    begin_next_segment(cfg, &mut cache, th, ti, t);
                } else {
                    th.state = ThreadState::Stall {
                        until: cfg.corun_stagger * ti as f64,
                        then_exec: 0.0,
                    };
                }
            }

            loop {
                for th in threads.iter_mut() {
                    if let ThreadState::Stall { until, then_exec } = th.state {
                        if until <= t {
                            th.state = ThreadState::Exec(then_exec);
                        }
                    }
                }

                let ready: Vec<usize> = threads
                    .iter()
                    .enumerate()
                    .filter(|(_, th)| matches!(th.state, ThreadState::Exec(_)))
                    .map(|(i, _)| i)
                    .collect();

                if ready.is_empty() {
                    let next = threads
                        .iter()
                        .filter_map(|th| match th.state {
                            ThreadState::Stall { until, .. } => Some(until),
                            _ => None,
                        })
                        .fold(f64::INFINITY, f64::min);
                    if next.is_infinite() {
                        break;
                    }
                    t = next;
                    continue;
                }

                let share = (1.0 / ready.len() as f64).min(cfg.max_thread_ipc);
                let mut dt = ready
                    .iter()
                    .map(|&i| match threads[i].state {
                        ThreadState::Exec(rem) => rem / share,
                        _ => unreachable!(),
                    })
                    .fold(f64::INFINITY, f64::min);
                for th in &threads {
                    if let ThreadState::Stall { until, .. } = th.state {
                        dt = dt.min(until - t);
                    }
                }
                let step = dt.max(0.0);
                t += step;
                for &i in &ready {
                    if let ThreadState::Exec(rem) = threads[i].state {
                        let done_work = step * share;
                        let left = rem - done_work;
                        threads[i].background_credit += done_work;
                        if left <= 1e-9 {
                            begin_next_segment(cfg, &mut cache, &mut threads[i], i, t);
                        } else {
                            threads[i].state = ThreadState::Exec(left);
                        }
                    }
                }
            }

            threads
                .into_iter()
                .map(|th| ThreadOutcome {
                    finish_cycles: th.finish,
                    stats: th.stats,
                })
                .collect()
        }

        fn begin_next_segment<C: TimedCache>(
            cfg: &TimingConfig,
            cache: &mut C,
            th: &mut Thread,
            thread_index: usize,
            t: f64,
        ) {
            if th.idx >= th.stream.len() {
                if !matches!(th.state, ThreadState::Done) {
                    th.state = ThreadState::Done;
                    th.finish = t;
                }
                return;
            }
            let (line, exec) = th.stream[th.idx];
            th.idx += 1;
            let (hit, mut stall) = cache.fetch(tag_line(line, thread_index), cfg);
            th.stats.record(hit);
            while th.background_credit >= cfg.background_interval {
                th.background_credit -= cfg.background_interval;
                stall += cfg.background_stall;
            }
            let exec = exec as f64;
            if stall > 0.0 {
                th.state = ThreadState::Stall {
                    until: t + stall,
                    then_exec: exec,
                };
            } else {
                th.state = ThreadState::Exec(exec);
            }
        }
    }

    /// Bit-level equality of two outcomes: cycle counts compared as
    /// `f64::to_bits`, statistics exactly.
    fn assert_same(got: ThreadOutcome, want: ThreadOutcome, what: &str) {
        assert_eq!(
            got.finish_cycles.to_bits(),
            want.finish_cycles.to_bits(),
            "{}: {} vs oracle {}",
            what,
            got.finish_cycles,
            want.finish_cycles
        );
        assert_eq!(got.stats, want.stats, "{}", what);
    }

    /// A random timed stream over a small line span (so the small caches
    /// below both hit and evict), with short sequential runs for the
    /// prefetcher and a mix of zero, small and — for `cfg`s without
    /// background stalls, whose credit loop would otherwise spin for
    /// millions of intervals — huge segment work.
    fn random_timed_stream(rng: &mut Rng, cfg: &TimingConfig, max_len: usize) -> Vec<(u64, u32)> {
        let huge = cfg.background_interval.is_infinite();
        let mut line = 0u64;
        vec_of(rng, max_len, |r| {
            line = if r.gen_bool(0.6) {
                line + 1
            } else {
                r.gen_below(96)
            };
            let exec = match r.gen_below(10) {
                0 => 0,
                // At share 0.85 this leaves a residue above the 1e-9
                // drain tolerance, so the segment takes a second step.
                1 if huge => 123_456_789,
                1..=3 => r.gen_below(4) as u32,
                _ => r.gen_below(40) as u32,
            };
            (line, exec)
        })
    }

    /// A random valid config: plain, prefetch or two-level channel, with
    /// background stalls on or off and stagger 0 or 137.
    fn random_timing(rng: &mut Rng) -> TimingConfig {
        let mut cfg = TimingConfig {
            cache: CacheConfig::new(1024, 2, 64),
            ..TimingConfig::default()
        };
        match rng.gen_below(3) {
            0 => {}
            1 => cfg.prefetch = true,
            _ => cfg.l2 = Some(CacheConfig::new(4096, 4, 64)),
        }
        if rng.gen_bool(0.5) {
            cfg.background_interval = f64::INFINITY;
            cfg.background_stall = 0.0;
        } else {
            cfg.background_interval = [200.0, 37.5, 1.0][rng.gen_index(3)];
            cfg.background_stall = [30.0, 0.0, 7.25][rng.gen_index(3)];
        }
        cfg.corun_stagger = if rng.gen_bool(0.5) { 0.0 } else { 137.0 };
        cfg.max_thread_ipc = [0.85, 0.85, 1.0, 0.3][rng.gen_index(4)];
        cfg.miss_penalty = [40.0, 0.0, 3.5][rng.gen_index(3)];
        cfg
    }

    #[test]
    fn solo_scan_matches_event_loop_oracle() {
        check_n("solo_scan_matches_event_loop_oracle", 300, |rng| {
            let cfg = random_timing(rng);
            let stream = random_timed_stream(rng, &cfg, 400);
            let got = SmtSimulator::new(cfg).run_solo(&stream);
            let want = oracle::run_streams(&cfg, &[&stream])[0];
            let got = ThreadOutcome {
                finish_cycles: got.cycles,
                stats: got.stats,
            };
            assert_same(got, want, &format!("{:?}", cfg));
        });
    }

    #[test]
    fn corun_loop_matches_event_loop_oracle() {
        check_n("corun_loop_matches_event_loop_oracle", 300, |rng| {
            let cfg = random_timing(rng);
            // Independent lengths: empty, unequal and equal streams all occur.
            let a = random_timed_stream(rng, &cfg, 300);
            let b = if rng.gen_bool(0.2) {
                a.clone()
            } else {
                random_timed_stream(rng, &cfg, 300)
            };
            let got = SmtSimulator::new(cfg).run_corun(&a, &b);
            let want = oracle::run_streams(&cfg, &[&a, &b]);
            for t in 0..2 {
                assert_same(got[t], want[t], &format!("thread {} {:?}", t, cfg));
            }
        });
    }

    #[test]
    fn empty_streams_match_oracle() {
        let stream = [(3u64, 5u32), (4, 0), (3, 123_456_789)];
        for stagger in [0.0, 137.0] {
            let cfg = TimingConfig {
                corun_stagger: stagger,
                ..TimingConfig::hw_like()
            };
            let sim = SmtSimulator::new(cfg);
            for (a, b) in [
                (&[][..], &[][..]),
                (&stream[..], &[][..]),
                (&[][..], &stream[..]),
            ] {
                let got = sim.run_corun(a, b);
                let want = oracle::run_streams(&cfg, &[a, b]);
                assert_same(got[0], want[0], "thread 0");
                assert_same(got[1], want[1], "thread 1");
            }
        }
    }

    #[test]
    fn huge_segments_take_a_second_step() {
        // One step at share 0.85 leaves a 1.5e-8-cycle residue of a
        // 123_456_789-cycle segment, above the 1e-9 drain tolerance; the
        // second step it takes moves the finish by one ulp.
        let cfg = TimingConfig::hw_like();
        let (rem, share) = (123_456_789f64, cfg.max_thread_ipc);
        let step = rem / share;
        let left = rem - step * share;
        assert!(left > 1e-9);
        let one_step = cfg.miss_penalty + step;
        let two_steps = one_step + left / share;
        assert_ne!(one_step.to_bits(), two_steps.to_bits());
        let alone = SmtSimulator::new(cfg).run_solo(&[(1, 123_456_789)]);
        assert_eq!(alone.cycles.to_bits(), two_steps.to_bits());

        // With background stalls due and a peer, against the oracle.
        let stream = [(1u64, 123_456_789u32), (2, 7), (1, 123_456_789)];
        let got = SmtSimulator::new(cfg).run_solo(&stream);
        let want = oracle::run_streams(&cfg, &[&stream])[0];
        assert_eq!(got.cycles.to_bits(), want.finish_cycles.to_bits());
        let pair = SmtSimulator::new(cfg).run_corun(&stream, &stream);
        let want = oracle::run_streams(&cfg, &[&stream, &stream]);
        assert_same(pair[0], want[0], "thread 0");
        assert_same(pair[1], want[1], "thread 1");
    }

    /// The field `validate` names for `cfg`, after checking that
    /// `SmtSimulator::new` refuses it with a message naming that field.
    fn rejected_field(cfg: TimingConfig) -> &'static str {
        let field = match cfg.validate() {
            Err(e) => e.field,
            Ok(()) => panic!("{:?} must be rejected", cfg),
        };
        let payload = std::panic::catch_unwind(|| SmtSimulator::new(cfg))
            .err()
            .unwrap_or_else(|| panic!("SmtSimulator::new must refuse {:?}", cfg));
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains(field), "{:?} lacks {}", message, field);
        field
    }

    #[test]
    fn zero_background_interval_is_rejected() {
        // Would hang: the background `while` never drains the credit.
        let cfg = TimingConfig {
            background_interval: 0.0,
            ..TimingConfig::hw_like()
        };
        assert_eq!(rejected_field(cfg), "background_interval");
    }

    #[test]
    fn zero_thread_ipc_is_rejected() {
        // Would hang: a zero share turns the remaining work into NaN.
        let cfg = TimingConfig {
            max_thread_ipc: 0.0,
            ..TimingConfig::hw_like()
        };
        assert_eq!(rejected_field(cfg), "max_thread_ipc");
    }

    #[test]
    fn nan_stagger_is_rejected() {
        // Would drop thread 1: a NaN stall never expires.
        let cfg = TimingConfig {
            corun_stagger: f64::NAN,
            ..TimingConfig::hw_like()
        };
        assert_eq!(rejected_field(cfg), "corun_stagger");
    }

    #[test]
    fn validation_bounds() {
        let base = TimingConfig::hw_like();
        assert_eq!(TimingConfig::default().validate(), Ok(()));
        assert_eq!(base.validate(), Ok(()));
        let accepted = [
            TimingConfig {
                background_interval: f64::INFINITY,
                ..base
            },
            TimingConfig {
                miss_penalty: 0.0,
                background_stall: 0.0,
                memory_penalty: 0.0,
                corun_stagger: -5.0,
                ..base
            },
        ];
        for cfg in accepted {
            assert_eq!(cfg.validate(), Ok(()), "{:?}", cfg);
        }
        let rejected = [
            (
                TimingConfig {
                    miss_penalty: -1.0,
                    ..base
                },
                "miss_penalty",
            ),
            (
                TimingConfig {
                    miss_penalty: f64::INFINITY,
                    ..base
                },
                "miss_penalty",
            ),
            (
                TimingConfig {
                    max_thread_ipc: -0.5,
                    ..base
                },
                "max_thread_ipc",
            ),
            (
                TimingConfig {
                    max_thread_ipc: f64::NAN,
                    ..base
                },
                "max_thread_ipc",
            ),
            (
                TimingConfig {
                    background_interval: f64::NAN,
                    ..base
                },
                "background_interval",
            ),
            (
                TimingConfig {
                    background_interval: -200.0,
                    ..base
                },
                "background_interval",
            ),
            (
                TimingConfig {
                    background_stall: -30.0,
                    ..base
                },
                "background_stall",
            ),
            (
                TimingConfig {
                    memory_penalty: f64::NEG_INFINITY,
                    ..base
                },
                "memory_penalty",
            ),
            (
                TimingConfig {
                    corun_stagger: f64::INFINITY,
                    ..base
                },
                "corun_stagger",
            ),
        ];
        for (cfg, field) in rejected {
            assert_eq!(cfg.validate().map_err(|e| e.field), Err(field), "{:?}", cfg);
        }
    }

    /// A stream of `n` fetches over `lines` distinct lines, `exec` cycles
    /// of work each.
    fn looped_stream(lines: u64, n: usize, exec: u32) -> Vec<(u64, u32)> {
        (0..n).map(|i| (i as u64 % lines, exec)).collect()
    }

    fn no_background(mut c: TimingConfig) -> TimingConfig {
        c.background_interval = f64::INFINITY;
        c.background_stall = 0.0;
        c
    }

    #[test]
    fn solo_time_is_exec_plus_miss_stalls() {
        let cfg = no_background(TimingConfig::default());
        let sim = SmtSimulator::new(cfg);
        // 4-line loop fits the cache: 4 cold misses, rest hits. A lone
        // thread executes at its ILP cap, not the core's full rate.
        let stream = looped_stream(4, 100, 10);
        let run = sim.run_solo(&stream);
        let expected = 100.0 * 10.0 / cfg.max_thread_ipc + 4.0 * cfg.miss_penalty;
        assert!(
            (run.cycles - expected).abs() < 1e-6,
            "{} vs {}",
            run.cycles,
            expected
        );
        assert_eq!(run.stats.misses, 4);
    }

    #[test]
    fn background_stalls_add_duty_cycle() {
        let cfg = TimingConfig {
            background_interval: 100.0,
            background_stall: 25.0,
            ..Default::default()
        };
        let sim = SmtSimulator::new(cfg);
        let stream = looped_stream(1, 100, 10); // 1000 exec cycles, 1 miss
        let run = sim.run_solo(&stream);
        // ~10 background stalls of 25 cycles + 1 miss on top of the
        // ILP-capped execution time.
        let expected = 1000.0 / cfg.max_thread_ipc + 9.0 * 25.0 + cfg.miss_penalty;
        assert!(
            (run.cycles - expected).abs() < 30.0,
            "{} vs {}",
            run.cycles,
            expected
        );
    }

    #[test]
    fn corun_without_stalls_serializes_execution() {
        let cfg = no_background(TimingConfig::default());
        let sim = SmtSimulator::new(cfg);
        let a = looped_stream(2, 50, 10);
        let b = looped_stream(2, 50, 10);
        let solo = sim.run_solo(&a).cycles;
        let corun = sim.run_corun(&a, &b);
        let makespan = corun[0].finish_cycles.max(corun[1].finish_cycles);
        // Execution is the bottleneck: the core retires 1.0 IPC total, so
        // the makespan is at least the combined exec work (2 × 500 cycles).
        assert!(
            makespan >= 2.0 * 500.0 - 1e-6,
            "makespan {} vs solo {}",
            makespan,
            solo
        );
        // But co-run still beats back-to-back solo runs, which pay the ILP
        // cap twice.
        assert!(makespan < 2.0 * solo);
    }

    #[test]
    fn corun_overlaps_stalls_for_throughput_gain() {
        // Heavy background stalls: co-run should overlap them, finishing
        // both programs faster than back-to-back solo.
        let mut cfg = no_background(TimingConfig::default());
        cfg.background_interval = 100.0;
        cfg.background_stall = 40.0;
        let sim = SmtSimulator::new(cfg);
        let a = looped_stream(4, 400, 10);
        let b = looped_stream(4, 400, 10);
        let sa = sim.run_solo(&a).cycles;
        let sb = sim.run_solo(&b).cycles;
        let co = sim.run_corun(&a, &b);
        let gain = throughput_improvement(sa, sb, co);
        assert!(
            gain > 0.10 && gain < 0.60,
            "SMT gain in plausible band, got {}",
            gain
        );
    }

    #[test]
    fn corun_contention_inflates_misses() {
        // Two threads whose combined working set exceeds the cache: each
        // sees more misses in co-run than solo.
        let cfg = no_background(TimingConfig::default());
        let sim = SmtSimulator::new(cfg);
        // Paper cache holds 512 lines → two 400-line loops overflow it.
        let a = looped_stream(400, 4000, 4);
        let b = looped_stream(400, 4000, 4);
        let solo = sim.run_solo(&a);
        let co = sim.run_corun(&a, &b);
        assert!(
            co[0].stats.miss_ratio() > solo.stats.miss_ratio(),
            "co-run miss {} vs solo {}",
            co[0].stats.miss_ratio(),
            solo.stats.miss_ratio()
        );
    }

    #[test]
    fn prefetch_channel_reduces_sequential_misses() {
        let plain = SmtSimulator::new(no_background(TimingConfig::default()));
        let hw = SmtSimulator::new(no_background(TimingConfig::hw_like()));
        // Sequential sweep over 4096 lines (doesn't fit): plain misses all,
        // prefetch absorbs about half.
        let stream: Vec<(u64, u32)> = (0..4096u64).map(|l| (l, 4)).collect();
        let p = plain.run_solo(&stream);
        let h = hw.run_solo(&stream);
        assert!(h.stats.misses < p.stats.misses / 2 + 100);
    }

    #[test]
    fn empty_stream_finishes_instantly() {
        let sim = SmtSimulator::default();
        let run = sim.run_solo(&[]);
        assert_eq!(run.cycles, 0.0);
        assert_eq!(run.stats.accesses, 0);
    }

    #[test]
    fn asymmetric_corun_short_thread_finishes_first() {
        let cfg = no_background(TimingConfig::default());
        let sim = SmtSimulator::new(cfg);
        let a = looped_stream(2, 10, 10);
        let b = looped_stream(2, 1000, 10);
        let co = sim.run_corun(&a, &b);
        assert!(co[0].finish_cycles < co[1].finish_cycles);
        // After A finishes, B runs at full rate; B's finish is below the
        // fully-shared bound of 2× its solo time.
        let sb = sim.run_solo(&b).cycles;
        assert!(co[1].finish_cycles < 2.0 * sb);
    }

    #[test]
    fn deterministic() {
        let sim = SmtSimulator::default();
        let a = looped_stream(8, 500, 7);
        let b = looped_stream(16, 300, 9);
        let r1 = sim.run_corun(&a, &b);
        let r2 = sim.run_corun(&a, &b);
        assert_eq!(r1, r2);
    }

    #[test]
    fn two_level_timing_differentiates_penalties() {
        // A 16-line loop over an 8-line L1 + 64-line L2: after warm-up,
        // every access misses L1 but hits L2, so total time carries the
        // L2 penalty, not the memory penalty.
        let mut cfg = no_background(TimingConfig::default());
        cfg.cache = CacheConfig::new(512, 2, 64); // 8 lines
        cfg.l2 = Some(CacheConfig::new(4096, 4, 64)); // 64 lines
        cfg.miss_penalty = 10.0;
        cfg.memory_penalty = 100.0;
        let sim = SmtSimulator::new(cfg);
        let stream = looped_stream(16, 320, 4);
        let run = sim.run_solo(&stream);
        // 16 cold full misses; the rest are L1 misses served by L2.
        let expected = 320.0 * 4.0 / cfg.max_thread_ipc
            + 16.0 * cfg.memory_penalty
            + (320.0 - 16.0) * cfg.miss_penalty;
        assert!(
            (run.cycles - expected).abs() < 1.0,
            "{} vs {}",
            run.cycles,
            expected
        );
        // Without the L2, every one of those misses would pay the same
        // flat penalty.
        let mut flat = cfg;
        flat.l2 = None;
        let flat_run = SmtSimulator::new(flat).run_solo(&stream);
        assert!(flat_run.cycles < run.cycles);
    }

    #[test]
    fn two_level_small_working_set_matches_plain() {
        // Fits L1: the L2 never matters.
        let mut cfg = no_background(TimingConfig::default());
        cfg.l2 = Some(CacheConfig::new(256 * 1024, 8, 64));
        let two = SmtSimulator::new(cfg).run_solo(&looped_stream(4, 100, 10));
        let mut plain = cfg;
        plain.l2 = None;
        let one = SmtSimulator::new(plain).run_solo(&looped_stream(4, 100, 10));
        // Same misses; the 4 cold misses pay memory vs flat penalty.
        assert_eq!(two.stats.misses, one.stats.misses);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn l2_and_prefetch_conflict() {
        let mut cfg = TimingConfig::hw_like();
        cfg.l2 = Some(CacheConfig::new(256 * 1024, 8, 64));
        SmtSimulator::new(cfg).run_solo(&[(0, 4)]);
    }

    #[test]
    fn throughput_improvement_formula() {
        let co = [
            ThreadOutcome {
                finish_cycles: 100.0,
                stats: CacheStats::default(),
            },
            ThreadOutcome {
                finish_cycles: 120.0,
                stats: CacheStats::default(),
            },
        ];
        let g = throughput_improvement(80.0, 70.0, co);
        assert!((g - (150.0 / 120.0 - 1.0)).abs() < 1e-12);
    }
}
