//! Property-based tests of the simulator's core data structures and of
//! the event-driven fast-forward run loop.

use gpu_sim::{
    CacheGeometry, ControlCtx, Controller, Counters, FixedTuple, Gpu, GpuConfig, GpuStats, Instr,
    InstructionStream, KernelSource, SetAssocCache, SetIndexing, StepMode, UniformKernel,
    WarpTuple,
};
use proptest::prelude::*;

fn geometry() -> impl Strategy<Value = CacheGeometry> {
    (
        1usize..=64,
        1usize..=8,
        prop_oneof![Just(SetIndexing::Linear), Just(SetIndexing::Hashed)],
    )
        .prop_map(|(sets, ways, indexing)| CacheGeometry {
            sets,
            ways,
            line_bytes: 128,
            indexing,
        })
}

proptest! {
    /// Whatever the access mix, occupancy never exceeds capacity and the
    /// set index stays in range.
    #[test]
    fn cache_occupancy_bounded(
        geo in geometry(),
        lines in proptest::collection::vec(0u64..10_000, 1..400),
    ) {
        let mut c = SetAssocCache::new(geo);
        for &l in &lines {
            prop_assert!(geo.set_of(l) < geo.sets);
            c.insert(l);
        }
        prop_assert!(c.valid_lines() <= geo.lines());
    }

    /// After inserting a line it is observable until evicted; hitting a
    /// line refreshes it so repeated access to a small set always hits.
    #[test]
    fn lru_protects_recently_used(
        geo in geometry(),
        hot in proptest::collection::vec(0u64..50, 1..8),
        noise in proptest::collection::vec(50u64..10_000, 0..200),
    ) {
        // Only meaningful when the hot set plus one noise line fit in a
        // set: with strictly fewer hot lines than ways, re-touching every
        // hot line keeps them all above any single noise line in LRU
        // order, whatever the interleaving.
        prop_assume!(hot.len() < geo.ways);
        let mut c = SetAssocCache::new(geo);
        let mut noise_it = noise.iter();
        for _ in 0..24 {
            for &h in &hot {
                c.insert(h);
                c.access(h);
            }
            if let Some(&n) = noise_it.next() {
                c.insert(n);
            }
            // After the noise insert, every hot line must have survived.
            for &h in &hot {
                prop_assert!(
                    matches!(c.probe(h), gpu_sim::cache::Lookup::Hit { .. }),
                    "hot line {h} evicted"
                );
            }
        }
    }

    /// Tuple construction always yields a valid domain point, and the
    /// distance metric is symmetric and zero iff equal.
    #[test]
    fn warp_tuple_domain_and_distance(
        n in 0usize..100,
        p in 0usize..100,
        m in 1usize..32,
    ) {
        let t = WarpTuple::new(n, p, m);
        prop_assert!(t.n >= 1 && t.n <= m);
        prop_assert!(t.p >= 1 && t.p <= t.n);
        let u = WarpTuple::new(p, n, m);
        prop_assert!((t.distance(&u) - u.distance(&t)).abs() < 1e-12);
        prop_assert_eq!(t.distance(&t), 0.0);
    }

    /// Counter deltas are consistent: delta(a+d, a) == d fieldwise for the
    /// fields exercised here.
    #[test]
    fn counter_delta_roundtrip(
        cycles in 0u64..1_000_000,
        instr in 0u64..1_000_000,
        hits in 0u64..1_000_000,
    ) {
        let a = Counters {
            cycles,
            instructions: instr,
            l1_hits: hits,
            ..Counters::default()
        };
        let mut b = a;
        b.cycles += 17;
        b.instructions += 4;
        b.l1_hits += 2;
        let d = b.delta_since(&a);
        prop_assert_eq!(d.cycles, 17);
        prop_assert_eq!(d.instructions, 4);
        prop_assert_eq!(d.l1_hits, 2);
    }

    /// Window resets never disturb totals.
    #[test]
    fn window_reset_preserves_totals(increments in proptest::collection::vec(1u64..100, 1..50)) {
        let mut s = GpuStats::new();
        let mut expect = 0;
        for (i, inc) in increments.iter().enumerate() {
            s.bump(|c| c.instructions += *inc);
            expect += *inc;
            if i % 3 == 0 {
                s.reset_window();
            }
        }
        prop_assert_eq!(s.total.instructions, expect);
        prop_assert!(s.window.instructions <= expect);
    }

    /// Hit rates derived from counters always land in [0, 1].
    #[test]
    fn rates_are_fractions(
        acc in 0u64..10_000,
        hits_frac in 0.0f64..=1.0,
    ) {
        let c = Counters {
            l1_accesses: acc,
            l1_hits: (acc as f64 * hits_frac) as u64,
            ..Counters::default()
        };
        let r = c.l1_hit_rate();
        prop_assert!((0.0..=1.0).contains(&r));
    }

    /// Every fast run loop (per-SM decoupled clocks — single-threaded and
    /// on the work-stealing pool at any thread count — and the global
    /// event-driven skip) is bit-identical to the cycle-stepped reference
    /// for arbitrary kernels, tuples, SM counts and budgets — including
    /// mid-run `run()` re-entry, which is how the profiler drives the GPU
    /// (warmup run, window reset, measurement run). Identical counters
    /// mean AML (which encodes event delivery times), IPC and stall
    /// accounting all agree exactly — so no skipped span ever crossed a
    /// scheduled event, no per-SM advance outran the shared memory
    /// system, and none ran past a budget end.
    #[test]
    fn fast_modes_match_reference(
        warps in 1usize..12,
        alu in 0usize..8,
        n in 1usize..24,
        p in 1usize..24,
        sms in 1usize..5,
        budget in 500u64..12_000,
        split_num in 0u64..=4,
        resident in prop_oneof![Just(false), Just(true)],
        threads in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
    ) {
        let kernel = if resident {
            UniformKernel::resident(warps, alu)
        } else {
            UniformKernel::streaming(warps, alu)
        };
        // Split the budget into two back-to-back `run()` calls at an
        // arbitrary point (0% / 25% / 50% / 75% / 100%).
        let first = budget * split_num / 4;
        let run = |mode: StepMode, sim_threads: usize| {
            let mut cfg = GpuConfig::scaled(sms);
            cfg.step_mode = mode;
            cfg.sim_threads = sim_threads;
            let mut gpu = Gpu::new(cfg, &kernel);
            let mut ctrl = FixedTuple::new(WarpTuple::new(n, p, 24));
            let mid = gpu.run(&mut ctrl, first);
            let res = gpu.run(&mut ctrl, budget - first);
            (mid.counters, mid.completed, res.counters, res.completed, gpu.cycle())
        };
        let rf = run(StepMode::Reference, 1);
        prop_assert_eq!(run(StepMode::PerSm, 1), rf.clone());
        prop_assert_eq!(run(StepMode::ParallelSm, threads), rf.clone());
        prop_assert_eq!(run(StepMode::EventDriven, 1), rf);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MSHR reject storms (occupancy beyond the MSHR file, so ready warps
    /// retry structurally rejected loads every cycle) are the regime the
    /// structural-stall replay targets; the bulk-accounted reject and
    /// stall counters must stay bit-identical to stepping each retry.
    /// Cases are few and budgets short because the reference loop really
    /// does step every storm cycle.
    #[test]
    fn reject_storms_match_reference(
        // 17+ warps/scheduler want 34+ outstanding loads: strictly more
        // than the 32 MSHRs, so the storm is guaranteed.
        warps in 17usize..=24,
        alu in 0usize..3,
        sms in 1usize..3,
        budget in 500u64..4_000,
    ) {
        let kernel = UniformKernel::streaming(warps, alu);
        let run = |mode: StepMode| {
            let mut cfg = GpuConfig::scaled(sms);
            cfg.step_mode = mode;
            if mode == StepMode::ParallelSm {
                cfg.sim_threads = 2;
            }
            let mut gpu = Gpu::new(cfg, &kernel);
            let mut ctrl = FixedTuple::new(WarpTuple::new(warps, warps, 24));
            let res = gpu.run(&mut ctrl, budget);
            (res.counters, gpu.cycle())
        };
        let rf = run(StepMode::Reference);
        prop_assert!(rf.0.l1_rejects > 0, "occupancy beyond the MSHRs must reject");
        prop_assert_eq!(run(StepMode::PerSm), rf.clone());
        prop_assert_eq!(run(StepMode::ParallelSm), rf.clone());
        prop_assert_eq!(run(StepMode::EventDriven), rf);
    }
}

/// A seeded load/store mix for L1 stress: half the loads stream through
/// fresh per-warp lines (guaranteed misses), the other half and every
/// store hit a small pool shared by all warps of the SM, so requests
/// merge, run into the merge limit, hit resident lines and have them
/// write-evicted under them.
struct MixedKernel {
    warps: usize,
    seed: u64,
    pool: u64,
    store_pct: u64,
    loads_per_sync: u64,
}

struct MixedStream {
    state: u64,
    fresh: u64,
    pool_base: u64,
    pool: u64,
    store_pct: u64,
    loads: u64,
    loads_per_sync: u64,
}

impl KernelSource for MixedKernel {
    fn stream_for(&self, sm: usize, scheduler: usize, warp: usize) -> Box<dyn InstructionStream> {
        let uid = ((sm as u64) << 16) | ((scheduler as u64) << 8) | warp as u64;
        Box::new(MixedStream {
            state: (self.seed ^ (uid << 20)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            fresh: (uid + 1) << 32,
            pool_base: (sm as u64 + 1) << 48,
            pool: self.pool,
            store_pct: self.store_pct,
            loads: 0,
            loads_per_sync: self.loads_per_sync,
        })
    }

    fn warps_per_scheduler(&self) -> usize {
        self.warps
    }

    fn n_pcs(&self) -> usize {
        2
    }
}

impl InstructionStream for MixedStream {
    fn next_instr(&mut self) -> Option<Instr> {
        if self.loads == self.loads_per_sync {
            self.loads = 0;
            return Some(Instr::SyncLoads);
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let r = self.state;
        let shared = self.pool_base + (r >> 16) % self.pool;
        Some(match r % 100 {
            x if x < self.store_pct => Instr::Store {
                line: shared,
                pc: 1,
            },
            x if x < self.store_pct + 10 => Instr::Alu,
            _ => {
                self.loads += 1;
                let line = if r & (1 << 8) == 0 {
                    self.fresh += 1;
                    self.fresh
                } else {
                    shared
                };
                Instr::Load { line, pc: 0 }
            }
        })
    }
}

/// Re-steers every SM to a different tuple every `period` cycles, walking
/// the whole `{N, p}` plane (including full occupancy) as it goes.
struct Resteer {
    period: u64,
    seed: u64,
}

impl Controller for Resteer {
    fn on_kernel_start(&mut self, ctx: &mut ControlCtx) {
        ctx.set_tuple_all(WarpTuple::max(ctx.kernel_warps));
    }

    fn on_cycle(&mut self, ctx: &mut ControlCtx) {
        if ctx.cycle.is_multiple_of(self.period) {
            let k = ctx.cycle / self.period + self.seed;
            let max = ctx.kernel_warps as u64;
            let n = 1 + (k * 7) % max;
            let p = 1 + (k * 3) % n;
            ctx.set_tuple_all(WarpTuple::new(n as usize, p as usize, ctx.kernel_warps));
        }
    }

    fn next_wake(&self, now: u64) -> Option<u64> {
        Some((now / self.period + 1) * self.period)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reject storms against tiny MSHR files and merge limits, with
    /// shared lines, store-heavy mixes and a controller re-steering
    /// tuples mid-storm: the regime of the SM's reject memo, which must
    /// forget a line's rejects on its fill and on an allocation for it.
    /// The memo runs in every step mode (debug builds cross-check each
    /// memo hit against a fresh L1 probe), so the fast loops must still
    /// match the reference.
    #[test]
    fn storm_stress_matches_reference(
        mshrs in 1usize..=4,
        merge_limit in 1usize..=2,
        warps in 4usize..=24,
        store_pct in 0u64..=40,
        pool in 4u64..=256,
        loads_per_sync in 1u64..=4,
        sms in 1usize..=2,
        period in 40u64..=600,
        budget in 1_000u64..=5_000,
        seed in 0u64..1_000,
    ) {
        let kernel = MixedKernel { warps, seed, pool, store_pct, loads_per_sync };
        let run = |mode: StepMode| {
            let mut cfg = GpuConfig::scaled(sms);
            cfg.l1_mshrs = mshrs;
            cfg.mshr_merge_limit = merge_limit;
            cfg.step_mode = mode;
            let mut gpu = Gpu::new(cfg, &kernel);
            let res = gpu.run(&mut Resteer { period, seed }, budget);
            (res.counters, gpu.cycle())
        };
        let rf = run(StepMode::Reference);
        prop_assert!(rf.0.l1_rejects > 0, "a tiny MSHR file must reject");
        prop_assert_eq!(run(StepMode::PerSm), rf.clone());
        prop_assert_eq!(run(StepMode::EventDriven), rf);
    }
}
