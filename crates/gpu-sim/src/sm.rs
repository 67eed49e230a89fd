//! One streaming multiprocessor: warps, schedulers, L1, issue logic.

use crate::config::GpuConfig;
use crate::instruction::{Instr, KernelSource};
use crate::l1::{sm_local_warp_bit, AccessOutcome, L1Data, MshrWaiter, WARP_BIT_STRIDE};
use crate::memsys::MemRequester;
use crate::scheduler::WarpScheduler;
use crate::stats::GpuStats;
use crate::warp::Warp;
use crate::WarpTuple;

/// Maximum scheduler candidates probed per cycle (arbitration width).
const MAX_ISSUE_ATTEMPTS: usize = 8;
/// Maximum zero-cost `SyncLoads` skips per candidate per cycle.
const MAX_SYNC_SKIPS: usize = 4;

/// A load-completion event destined for this SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmEvent {
    /// An L1 fill completed for the given MSHR entry.
    Fill {
        /// MSHR entry index.
        mshr: usize,
    },
    /// A load hit's data became available for one warp.
    HitDone {
        /// Scheduler index.
        scheduler: u8,
        /// Warp index within the scheduler.
        warp: u8,
    },
}

/// One streaming multiprocessor.
///
/// Beyond the architectural state, the SM maintains two per-scheduler
/// summaries so that the run loops' "can anything issue?" and "is anything
/// live?" tests are O(schedulers) instead of O(warps):
///
/// * `ready_mask[s]` — bit `w` set iff warp `w` of scheduler `s` has
///   [`Warp::ready`] true; intersected with the vital prefix
///   `tuple.n` it yields the issue candidates of a cycle, and the issue
///   scan walks its set bits instead of probing every slot;
/// * `live_warps[s]` — warps of scheduler `s` with [`Warp::live`] true.
///
/// Both are maintained incrementally at every warp state transition
/// (issue-side blocking, stream exhaustion, load completion); tuple
/// steering needs no recompute because the mask covers all warps and the
/// vital prefix is applied at query time.
///
/// A third summary memoises structural rejects: `reject_mask[s]` has bit
/// `w` set iff warp `w` of scheduler `s` holds a stashed load that the L1
/// rejected and that provably still would be (see the field docs). The
/// issue scan counts such a warp as one reject without re-probing the tag
/// store and MSHR file — a retry would have no other effect.
pub struct Sm {
    /// SM index within the GPU.
    pub id: usize,
    /// Warp schedulers (baseline: 2).
    pub schedulers: Vec<WarpScheduler>,
    /// Warps, indexed `[scheduler][warp]`.
    pub warps: Vec<Vec<Warp>>,
    /// The L1 data cache.
    pub l1: L1Data,
    pub(crate) hit_latency: u64,
    /// Per-scheduler readiness bitmask (bit `w` = warp `w` is ready).
    pub(crate) ready_mask: Vec<u64>,
    /// Per-scheduler count of live warps.
    pub(crate) live_warps: Vec<u32>,
    /// Monotone version of the SM's observable warp state: bumped on
    /// every ready/live transition and on every instruction pulled from a
    /// stream. A cycle that issues nothing and leaves the version
    /// unchanged touched nothing but reject/stall counters — it will
    /// replay bit-identically until an event arrives (the basis of the
    /// decoupled loop's structural-stall fast-forward).
    pub(crate) version: u64,
    /// Reused scratch for fill completions: [`L1Data::complete_fill_into`]
    /// drains each MSHR entry's waiters into this buffer so the hot path
    /// allocates nothing per fill.
    pub(crate) fill_scratch: Vec<MshrWaiter>,
    /// Per-scheduler memo of warps whose stashed load the L1 rejected
    /// (bit `w` = warp `w`). Only a fill of the load's line, an
    /// allocation for it, or a freed MSHR entry can end a reject (see
    /// [`L1Data`]): fills and allocations clear the bits of the warps
    /// waiting on their line, and the memo is only consulted while the
    /// MSHR file is exhausted. A memoised warp's pending load stays the
    /// rejected one, since only its own retry could consume it. Derived
    /// state: never serialised, a restored SM starts with an empty memo.
    pub(crate) reject_mask: Vec<u64>,
    /// The line of each memoised load, indexed by [`sm_local_warp_bit`].
    pub(crate) reject_line: Vec<u64>,
}

/// Bitmask of the `n` lowest warp slots.
#[inline]
fn warp_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm").field("id", &self.id).finish()
    }
}

/// Callback used by the SM to schedule future events; implemented by the
/// GPU's event queue.
pub trait EventSink {
    /// Schedule `ev` for SM `sm` at absolute cycle `at`.
    fn schedule(&mut self, at: u64, sm: usize, ev: SmEvent);
}

impl Sm {
    /// Build an SM and instantiate its warps from the kernel source.
    pub fn new(id: usize, cfg: &GpuConfig, kernel: &dyn KernelSource) -> Self {
        let n_warps = kernel
            .warps_per_scheduler()
            .clamp(1, cfg.max_warps_per_scheduler);
        let schedulers = (0..cfg.schedulers_per_sm)
            .map(|_| WarpScheduler::new(n_warps))
            .collect();
        let warps = (0..cfg.schedulers_per_sm)
            .map(|s| {
                (0..n_warps)
                    .map(|w| Warp::new(kernel.stream_for(id, s, w), cfg.track_reuse_distance))
                    .collect()
            })
            .collect();
        // Every warp of the SM needs its own bit in the u64 readiness and
        // reject masks and in the L1's toucher masks.
        assert!(
            cfg.max_warps_per_scheduler <= WARP_BIT_STRIDE
                && cfg.schedulers_per_sm * WARP_BIT_STRIDE <= 64,
            "{} schedulers x {} warps do not fit the 64-bit per-SM warp masks \
             (at most {WARP_BIT_STRIDE} warps per scheduler and {} schedulers)",
            cfg.schedulers_per_sm,
            cfg.max_warps_per_scheduler,
            64 / WARP_BIT_STRIDE,
        );
        // Fresh warps are all ready and live.
        let ready_mask = vec![warp_mask(n_warps); cfg.schedulers_per_sm];
        let live_warps = vec![n_warps as u32; cfg.schedulers_per_sm];
        Sm {
            id,
            schedulers,
            warps,
            l1: L1Data::new(cfg, kernel.n_pcs()),
            hit_latency: cfg.l1_hit_latency,
            ready_mask,
            live_warps,
            version: 0,
            fill_scratch: Vec::new(),
            reject_mask: vec![0; cfg.schedulers_per_sm],
            reject_line: vec![0; cfg.schedulers_per_sm * WARP_BIT_STRIDE],
        }
    }

    /// The SM's warp-state version (see the field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Rebuild the derived readiness/liveness structures from the warps
    /// themselves. Used after a snapshot restore writes warp state
    /// directly; the masks are pure functions of [`Warp::ready`] /
    /// [`Warp::live`], so recomputing (rather than serialising) them keeps
    /// the snapshot format minimal.
    pub(crate) fn recompute_activity(&mut self) {
        for (s, warps) in self.warps.iter().enumerate() {
            let mut mask = 0u64;
            let mut live = 0u32;
            for (w, warp) in warps.iter().enumerate() {
                if warp.ready() {
                    mask |= 1u64 << w;
                }
                if warp.live() {
                    live += 1;
                }
            }
            self.ready_mask[s] = mask;
            self.live_warps[s] = live;
        }
    }

    /// Install a warp-tuple on every scheduler of this SM. O(schedulers):
    /// the readiness mask covers all warps, so moving the vital boundary
    /// needs no recompute.
    pub fn set_tuple(&mut self, t: WarpTuple) {
        for sched in self.schedulers.iter_mut() {
            sched.set_tuple(t);
        }
    }

    /// The ready vital warps of scheduler `s`, as a bitmask.
    #[inline]
    fn issue_candidates(&self, s: usize) -> u64 {
        let sched = &self.schedulers[s];
        self.ready_mask[s] & warp_mask(sched.tuple().n.min(sched.n_warps))
    }

    /// Whether any warp still has work (instructions or outstanding
    /// loads). O(schedulers) via the incremental liveness counters.
    pub fn live(&self) -> bool {
        self.live_warps.iter().any(|&c| c > 0)
    }

    /// Whether any scheduler has a ready vital warp, i.e. whether stepping
    /// this SM could have any effect this cycle. O(schedulers).
    pub fn can_issue(&self) -> bool {
        (0..self.schedulers.len()).any(|s| self.issue_candidates(s) != 0)
    }

    /// Number of schedulers that still manage live warps (these accrue
    /// `stall_scheduler_cycles` on cycles with no issue).
    pub fn live_scheduler_count(&self) -> u64 {
        self.live_warps.iter().filter(|&&c| c > 0).count() as u64
    }

    /// Apply `f` to one warp, incrementally maintaining the ready/live
    /// counters across the state transition `f` may cause.
    #[inline]
    fn update_warp<R>(&mut self, sched: usize, w: usize, f: impl FnOnce(&mut Warp) -> R) -> R {
        let warp = &mut self.warps[sched][w];
        let was_ready = warp.ready();
        let was_live = warp.live();
        let r = f(warp);
        let now_ready = warp.ready();
        let now_live = warp.live();
        if was_ready != now_ready {
            let bit = 1u64 << w;
            if now_ready {
                self.ready_mask[sched] |= bit;
            } else {
                self.ready_mask[sched] &= !bit;
            }
            self.version += 1;
        }
        if was_live != now_live {
            if now_live {
                self.live_warps[sched] += 1;
            } else {
                self.live_warps[sched] -= 1;
            }
            self.version += 1;
        }
        r
    }

    /// Advance this SM by one cycle: each scheduler attempts one issue.
    ///
    /// Generic over the memory requester so the parallel step mode can
    /// substitute a per-SM [`crate::memsys::PortRequester`] (append-only,
    /// no shared state) without virtual dispatch on the issue hot path.
    pub fn step<M: MemRequester>(
        &mut self,
        now: u64,
        mem: &mut M,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) {
        for sched_idx in 0..self.schedulers.len() {
            // With no ready vital warp the candidate scan cannot issue (or
            // have any side effect); the mask makes that check O(1).
            let issued = self.issue_candidates(sched_idx) != 0
                && self.issue_one(sched_idx, now, mem, events, stats);
            let any_live = self.live_warps[sched_idx] > 0;
            stats.bump(|c| {
                if issued {
                    c.busy_scheduler_cycles += 1;
                } else if any_live {
                    c.stall_scheduler_cycles += 1;
                }
            });
        }
    }

    fn issue_one<M: MemRequester>(
        &mut self,
        sched_idx: usize,
        now: u64,
        mem: &mut M,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) -> bool {
        // GTO priority order: greedy favourite first, then vital warps
        // oldest-first. The scan walks the set bits of the readiness mask
        // (blocked warps cost nothing); at most MAX_ISSUE_ATTEMPTS ready
        // warps are probed per cycle (arbitration width). A probe can only
        // change the probed warp's own state, so the snapshot taken here
        // matches a fresh readiness check at every candidate. Memoised
        // rejects count as probes but are only tallied; the L1 changes
        // only on a successful issue, which ends the scan.
        let sched = &self.schedulers[sched_idx];
        let mut ready = self.issue_candidates(sched_idx);
        let mut greedy = sched
            .greedy_warp()
            .filter(|&g| sched.vital(g) && ready & (1u64 << g) != 0);
        if let Some(g) = greedy {
            ready &= !(1u64 << g);
        }
        let memo = self.memoised_rejects(sched_idx);
        let mut replayed = 0u64;
        let mut issued = false;
        for _ in 0..MAX_ISSUE_ATTEMPTS {
            let w_idx = match greedy.take() {
                Some(g) => g,
                None if ready != 0 => {
                    let w = ready.trailing_zeros() as usize;
                    ready &= ready - 1;
                    w
                }
                None => break,
            };
            if memo & (1u64 << w_idx) != 0 {
                debug_assert!(
                    matches!(self.warps[sched_idx][w_idx].pending,
                        Some(Instr::Load { line, .. }) if self.l1.would_reject(line)),
                    "memoised reject of warp {sched_idx}:{w_idx} would not reject"
                );
                replayed += 1;
                continue;
            }
            if let Some(kind) = self.try_issue(sched_idx, w_idx, now, mem, events, stats) {
                self.note_issued(sched_idx, w_idx, kind, stats);
                issued = true;
                break;
            }
        }
        if replayed > 0 {
            stats.bump(|c| c.l1_rejects += replayed);
        }
        issued
    }

    /// Scheduler `s`'s memoised rejects, usable while no MSHR is free.
    #[inline]
    fn memoised_rejects(&self, s: usize) -> u64 {
        if self.l1.mshrs_exhausted() {
            self.reject_mask[s]
        } else {
            0
        }
    }

    /// Memoise the L1's reject of warp `w` of scheduler `s`'s load of
    /// `line`.
    fn memoise_reject(&mut self, s: usize, w: usize, line: u64) {
        self.reject_mask[s] |= 1u64 << w;
        self.reject_line[sm_local_warp_bit(s as u8, w as u8) as usize] = line;
    }

    /// Drop the memoised rejects of loads of `line`, which a fill of or an
    /// allocation for `line` may have ended.
    fn forget_rejects(&mut self, line: u64) {
        for (s, mask) in self.reject_mask.iter_mut().enumerate() {
            let mut m = *mask;
            while m != 0 {
                let w = m.trailing_zeros();
                m &= m - 1;
                if self.reject_line[sm_local_warp_bit(s as u8, w as u8) as usize] == line {
                    *mask &= !(1u64 << w);
                }
            }
        }
    }

    /// Book-keeping for a successful issue: greedy favourite, instruction
    /// counts, and the load-gap statistics behind the paper's `In`.
    fn note_issued(
        &mut self,
        sched_idx: usize,
        w_idx: usize,
        kind: IssuedKind,
        stats: &mut GpuStats,
    ) {
        self.schedulers[sched_idx].note_issue(w_idx);
        let warp = &mut self.warps[sched_idx][w_idx];
        warp.instructions += 1;
        stats.bump(|c| c.instructions += 1);
        match kind {
            IssuedKind::Load => {
                if warp.seen_load {
                    let gap = warp.since_last_load;
                    stats.bump(|c| {
                        c.in_gap_sum += gap;
                        c.in_gap_count += 1;
                    });
                }
                warp.seen_load = true;
                warp.since_last_load = 0;
                stats.bump(|c| c.loads += 1);
            }
            IssuedKind::Store => {
                warp.since_last_load += 1;
                stats.bump(|c| c.stores += 1);
            }
            IssuedKind::Alu => {
                warp.since_last_load += 1;
            }
        }
    }

    /// Attempt to issue the next instruction of a warp. Returns the kind of
    /// instruction issued, or `None` if the warp could not issue (stalled,
    /// structurally rejected, or ran out of instructions).
    fn try_issue<M: MemRequester>(
        &mut self,
        sched_idx: usize,
        w_idx: usize,
        now: u64,
        mem: &mut M,
        events: &mut dyn EventSink,
        stats: &mut GpuStats,
    ) -> Option<IssuedKind> {
        let polluting = self.schedulers[sched_idx].pollute(w_idx);
        for _ in 0..MAX_SYNC_SKIPS {
            // `fetch` may exhaust the stream (ready/live transition) and a
            // sync with loads outstanding blocks the warp (ready
            // transition); route both through the counter-tracking helper.
            // A fetch that pulls from the stream (rather than re-reading a
            // stashed instruction) advances warp state even when nothing
            // issues, so it bumps the version.
            if !self.warps[sched_idx][w_idx].has_pending() {
                self.version += 1;
            }
            let instr = self.update_warp(sched_idx, w_idx, Warp::fetch)?;
            match instr {
                Instr::Alu => return Some(IssuedKind::Alu),
                Instr::SyncLoads => {
                    let blocked = self.update_warp(sched_idx, w_idx, |warp| {
                        if warp.outstanding_loads > 0 {
                            warp.waiting_sync = true;
                            true
                        } else {
                            false
                        }
                    });
                    if blocked {
                        return None;
                    }
                    // Satisfied syncs are free; keep fetching.
                    continue;
                }
                Instr::Store { line, .. } => {
                    self.l1.access_store(line);
                    mem.write(self.id, line, now, stats);
                    return Some(IssuedKind::Store);
                }
                Instr::Load { line, pc } => {
                    let warp = &mut self.warps[sched_idx][w_idx];
                    if let Some(dist) = warp.observe_reuse(line) {
                        stats.bump(|c| {
                            c.reuse_distance_sum += dist;
                            c.reuse_distance_count += 1;
                        });
                    }
                    let warp_bit = sm_local_warp_bit(sched_idx as u8, w_idx as u8);
                    let waiter = MshrWaiter {
                        scheduler: sched_idx as u8,
                        warp: w_idx as u8,
                        issued_at: now,
                    };
                    match self
                        .l1
                        .access_load(line, warp_bit, polluting, pc, now, waiter, stats)
                    {
                        AccessOutcome::Hit => {
                            let warp = &mut self.warps[sched_idx][w_idx];
                            warp.outstanding_loads += 1;
                            events.schedule(
                                now + self.hit_latency,
                                self.id,
                                SmEvent::HitDone {
                                    scheduler: sched_idx as u8,
                                    warp: w_idx as u8,
                                },
                            );
                            return Some(IssuedKind::Load);
                        }
                        AccessOutcome::Miss { mshr, primary } => {
                            let warp = &mut self.warps[sched_idx][w_idx];
                            warp.outstanding_loads += 1;
                            if primary {
                                self.forget_rejects(line);
                                // The memory system schedules the fill —
                                // immediately, or (in deferred mode) once
                                // the request is applied in global order.
                                mem.read(self.id, line, now, mshr, events, stats);
                            }
                            return Some(IssuedKind::Load);
                        }
                        AccessOutcome::Reject => {
                            // Structural hazard: stash and let the scheduler
                            // try another warp this cycle.
                            let warp = &mut self.warps[sched_idx][w_idx];
                            warp.stash(instr);
                            self.memoise_reject(sched_idx, w_idx, line);
                            return None;
                        }
                    }
                }
            }
        }
        None
    }

    /// Deliver an event (fill or hit completion) to this SM.
    pub fn handle_event(&mut self, ev: SmEvent, now: u64, stats: &mut GpuStats) {
        match ev {
            SmEvent::Fill { mshr } => {
                self.forget_rejects(self.l1.mshrs[mshr].line);
                let mut waiters = std::mem::take(&mut self.fill_scratch);
                self.l1.complete_fill_into(mshr, now, stats, &mut waiters);
                for w in &waiters {
                    self.update_warp(w.scheduler as usize, w.warp as usize, Warp::load_completed);
                }
                waiters.clear();
                self.fill_scratch = waiters;
            }
            SmEvent::HitDone { scheduler, warp } => {
                self.update_warp(scheduler as usize, warp as usize, Warp::load_completed);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssuedKind {
    Alu,
    Load,
    Store,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{InstructionStream, UniformKernel};
    use crate::memsys::MemSystem;

    struct VecSink(Vec<(u64, usize, SmEvent)>);
    impl EventSink for VecSink {
        fn schedule(&mut self, at: u64, sm: usize, ev: SmEvent) {
            self.0.push((at, sm, ev));
        }
    }

    fn setup(kernel: &UniformKernel) -> (Sm, MemSystem, GpuStats, VecSink) {
        let cfg = GpuConfig::scaled(1);
        (
            Sm::new(0, &cfg, kernel),
            MemSystem::new(&cfg),
            GpuStats::new(),
            VecSink(Vec::new()),
        )
    }

    #[test]
    fn alu_instructions_issue_every_cycle() {
        // alu_per_load = 4 means mostly ALU work early on.
        let k = UniformKernel::streaming(1, 4);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        for t in 0..4 {
            sm.step(t, &mut mem, &mut ev, &mut st);
        }
        // 2 schedulers x 4 cycles, all ALU at first.
        assert_eq!(st.total.instructions, 8);
        assert_eq!(st.total.busy_scheduler_cycles, 8);
    }

    #[test]
    fn load_miss_schedules_fill_event() {
        let k = UniformKernel::streaming(1, 0);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        sm.step(0, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.loads, 2); // one per scheduler
        assert_eq!(ev.0.len(), 2);
        assert!(matches!(ev.0[0].2, SmEvent::Fill { .. }));
    }

    #[test]
    fn warp_stalls_at_sync_until_fill() {
        let k = UniformKernel::streaming(1, 0);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        // Cycle 0: load issues. Cycle 1: sync blocks (load outstanding).
        sm.step(0, &mut mem, &mut ev, &mut st);
        sm.step(1, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.stall_scheduler_cycles, 2);
        // Deliver the fills; warps resume.
        let events: Vec<_> = ev.0.drain(..).collect();
        for (at, _, e) in events {
            sm.handle_event(e, at, &mut st);
        }
        let before = st.total.instructions;
        sm.step(1_000, &mut mem, &mut ev, &mut st);
        assert!(st.total.instructions > before);
    }

    #[test]
    fn hit_completion_wakes_warp() {
        let k = UniformKernel::resident(1, 0);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        // First load misses; complete it.
        sm.step(0, &mut mem, &mut ev, &mut st);
        let events: Vec<_> = ev.0.drain(..).collect();
        for (at, _, e) in events {
            sm.handle_event(e, at, &mut st);
        }
        // Second load to the same line: must be an L1 hit with a HitDone.
        sm.step(500, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.l1_hits, 2);
        assert!(ev
            .0
            .iter()
            .any(|(_, _, e)| matches!(e, SmEvent::HitDone { .. })));
    }

    #[test]
    fn non_vital_warps_do_not_issue() {
        let k = UniformKernel::streaming(8, 4);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        sm.set_tuple(WarpTuple::new(1, 1, 8));
        for t in 0..20 {
            sm.step(t, &mut mem, &mut ev, &mut st);
        }
        // Only warp 0 of each scheduler may have issued.
        for sched in &sm.warps {
            for (i, w) in sched.iter().enumerate() {
                if i == 0 {
                    assert!(w.instructions > 0);
                } else {
                    assert_eq!(w.instructions, 0, "warp {i} issued while non-vital");
                }
            }
        }
    }

    #[test]
    fn memoised_rejects_count_one_per_probe_while_the_mshrs_stay_exhausted() {
        // One MSHR: scheduler 0's warp 0 takes it at cycle 0 and every
        // other load is rejected until its fill.
        let k = UniformKernel::streaming(4, 0);
        let mut cfg = GpuConfig::scaled(1);
        cfg.l1_mshrs = 1;
        let mut sm = Sm::new(0, &cfg, &k);
        let mut mem = MemSystem::new(&cfg);
        let mut st = GpuStats::new();
        let mut ev = VecSink(Vec::new());
        sm.step(0, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.l1_rejects, 4, "scheduler 1 probes all 4 warps");
        assert_eq!(sm.reject_mask, vec![0, 0b1111]);
        // Scheduler 0's greedy warp blocks on its sync; warps 1-3 are
        // rejected for real and scheduler 1's 4 retries are memo hits.
        sm.step(1, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.l1_rejects, 4 + 3 + 4);
        assert_eq!(sm.reject_mask, vec![0b1110, 0b1111]);
        sm.step(2, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.l1_rejects, 11 + 3 + 4);
        // The fill frees the MSHR, so scheduler 0 probes for real and its
        // unblocked greedy warp takes it. That exhausts the file again, and
        // scheduler 1's rejects (other lines) are memo hits once more.
        let events: Vec<_> = ev.0.drain(..).collect();
        for (at, _, e) in events {
            sm.handle_event(e, at, &mut st);
        }
        sm.step(1_000, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.loads, 2);
        assert_eq!(st.total.l1_rejects, 18 + 4);
        assert_eq!(sm.reject_mask, vec![0b1110, 0b1111]);
    }

    /// Every warp loads line 7, then syncs, forever.
    struct SharedLine;
    struct SharedLineStream(bool);

    impl KernelSource for SharedLine {
        fn stream_for(&self, _: usize, _: usize, _: usize) -> Box<dyn InstructionStream> {
            Box::new(SharedLineStream(false))
        }

        fn warps_per_scheduler(&self) -> usize {
            4
        }
    }

    impl InstructionStream for SharedLineStream {
        fn next_instr(&mut self) -> Option<Instr> {
            self.0 = !self.0;
            Some(if self.0 {
                Instr::Load { line: 7, pc: 0 }
            } else {
                Instr::SyncLoads
            })
        }
    }

    #[test]
    fn a_fill_forgets_the_rejects_of_its_line() {
        // Merge limit 1: once scheduler 0 allocates line 7, every other
        // load of it is rejected until the fill makes the line resident.
        let mut cfg = GpuConfig::scaled(1);
        cfg.l1_mshrs = 1;
        cfg.mshr_merge_limit = 1;
        let mut sm = Sm::new(0, &cfg, &SharedLine);
        let mut mem = MemSystem::new(&cfg);
        let mut st = GpuStats::new();
        let mut ev = VecSink(Vec::new());
        sm.step(0, &mut mem, &mut ev, &mut st);
        assert_eq!(sm.reject_mask, vec![0, 0b1111]);
        let events: Vec<_> = ev.0.drain(..).collect();
        for (at, _, e) in events {
            sm.handle_event(e, at, &mut st);
        }
        assert_eq!(sm.reject_mask, vec![0, 0]);
        sm.step(1_000, &mut mem, &mut ev, &mut st);
        assert_eq!(st.total.l1_hits, 2, "both schedulers hit the filled line");
        assert_eq!(st.total.l1_rejects, 4);
    }

    #[test]
    #[should_panic(expected = "do not fit the 64-bit per-SM warp masks")]
    fn more_warps_per_scheduler_than_the_mask_stride_are_rejected() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.max_warps_per_scheduler = WARP_BIT_STRIDE + 1;
        Sm::new(0, &cfg, &UniformKernel::streaming(4, 0));
    }

    #[test]
    #[should_panic(expected = "do not fit the 64-bit per-SM warp masks")]
    fn more_schedulers_than_the_masks_hold_are_rejected() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.schedulers_per_sm = 64 / WARP_BIT_STRIDE + 1;
        Sm::new(0, &cfg, &UniformKernel::streaming(4, 0));
    }

    #[test]
    fn in_gap_tracks_instructions_between_loads() {
        let k = UniformKernel::streaming(1, 3);
        let (mut sm, mut mem, mut st, mut ev) = setup(&k);
        let mut t = 0;
        while st.total.in_gap_count < 4 && t < 10_000 {
            sm.step(t, &mut mem, &mut ev, &mut st);
            let events: Vec<_> = ev.0.drain(..).collect();
            for (at, _, e) in events {
                sm.handle_event(e, at.max(t), &mut st);
            }
            t += 1;
        }
        assert!(st.total.in_gap_count >= 4);
        // Gap between loads is the 3 ALU instructions (sync is free).
        assert_eq!(st.total.in_gap_sum / st.total.in_gap_count, 3);
    }
}
