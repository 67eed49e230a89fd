//! Snapshot/restore differential oracle.
//!
//! The contract behind prefix-shared execution: for every shipped control
//! policy and every kernel class, `run(k)` must be **bit-identical** to
//! `run(j); snapshot; restore-into-a-fresh-machine; resume(k − j)` — same
//! `Counters`, same final cycle, same completion status, same steering
//! trajectory, and the same controller-internal state (compared through
//! `Debug`, which covers HIE epoch logs, PCAL's converged point, the
//! random-restart RNG stream position and APCM's bypass set).
//!
//! Mid-run re-entry is covered too: a chain of snapshots, each restored
//! into a fresh machine and a fresh controller rebuilt purely from
//! `Controller::save_state` text, must compose to the same end state.
//! This is what lets any fabric worker pick up another worker's prefix
//! blob at any barrier and continue the suffix.

use std::fmt::Debug;

use gpu_sim::{ControlCtx, Controller, Counters, FixedTuple, Gpu, GpuConfig, StepMode, WarpTuple};
use poise::hie::PoiseController;
use poise::params::PoiseParams;
use poise::policies::{ApcmController, PcalSwlController, RandomRestartController};
use poise_ml::{TrainedModel, N_FEATURES};
use workloads::{AccessMix, KernelSpec, Phase};

/// Wraps a controller, recording every tuple change it steers.
struct Recording<C> {
    inner: C,
    events: Vec<(u64, WarpTuple)>,
}

impl<C> Recording<C> {
    fn new(inner: C) -> Self {
        Recording {
            inner,
            events: Vec::new(),
        }
    }
}

impl<C: Controller> Controller for Recording<C> {
    fn on_kernel_start(&mut self, ctx: &mut ControlCtx) {
        self.inner.on_kernel_start(ctx);
        self.events.push((ctx.cycle, ctx.current_tuple()));
    }

    fn on_cycle(&mut self, ctx: &mut ControlCtx) {
        let before = ctx.current_tuple();
        self.inner.on_cycle(ctx);
        let after = ctx.current_tuple();
        if before != after {
            self.events.push((ctx.cycle, after));
        }
    }

    fn on_kernel_end(&mut self, ctx: &mut ControlCtx) {
        self.inner.on_kernel_end(ctx);
    }

    fn next_wake(&self, now: u64) -> Option<u64> {
        self.inner.next_wake(now)
    }
}

fn const_model(n: f64, p: f64) -> TrainedModel {
    let mut alpha = [0.0; N_FEATURES];
    let mut beta = [0.0; N_FEATURES];
    alpha[N_FEATURES - 1] = n.ln();
    beta[N_FEATURES - 1] = p.ln();
    TrainedModel {
        alpha,
        beta,
        dispersion_n: 0.1,
        dispersion_p: 0.1,
        samples_used: 0,
        dropped_features: Vec::new(),
    }
}

/// The kernel classes of the oracle matrix (mirrors the step-mode
/// differential suite): streaming-heavy, cache-resident, a finite trace
/// that drains mid-run (exercising snapshots of a drained machine), a
/// phased compute/memory kernel, and a full-occupancy reject storm whose
/// snapshots land mid-storm, so a restored SM must rebuild its (never
/// serialised) reject memo from cold.
fn kernels() -> Vec<(&'static str, KernelSpec)> {
    let mut resident = AccessMix::memory_sensitive();
    resident.hot_lines = 4;
    resident.hot_frac = 1.0;
    resident.stream_frac = 0.0;
    resident.shared_frac = 0.0;
    resident.cold_lines = 8;
    let mut streaming = AccessMix::memory_sensitive();
    streaming.stream_frac = 0.6;
    streaming.hot_frac = 0.2;
    vec![
        (
            "streaming",
            KernelSpec::steady("snap-stream", streaming, 7).with_warps(8),
        ),
        (
            "resident",
            KernelSpec::steady("snap-resident", resident, 7).with_warps(8),
        ),
        (
            "finite",
            KernelSpec::steady("snap-finite", AccessMix::memory_sensitive(), 7)
                .with_warps(6)
                .with_trace_len(400),
        ),
        (
            "phased",
            KernelSpec::phased(
                "snap-phased",
                vec![
                    Phase {
                        mix: AccessMix::compute_intensive(),
                        instructions: 300,
                    },
                    Phase {
                        mix: AccessMix::memory_sensitive(),
                        instructions: 300,
                    },
                ],
                7,
            )
            .with_warps(8),
        ),
        (
            "storm",
            KernelSpec::steady("diff-storm", AccessMix::memory_sensitive(), 3).with_warps(24),
        ),
    ]
}

/// Step modes under test. The cycle-stepped reference loop joins the
/// matrix when the `reference-step` CI feature is on (it is ~10× slower,
/// and the step-mode differential suite already proves it identical to
/// the fast modes).
fn modes() -> Vec<StepMode> {
    let mut m = vec![StepMode::PerSm, StepMode::ParallelSm];
    if cfg!(feature = "reference-step") {
        m.push(StepMode::Reference);
    }
    m
}

const BUDGET: u64 = 40_000;

fn cfg_for(mode: StepMode) -> GpuConfig {
    let mut cfg = GpuConfig::scaled(1);
    cfg.track_pc_stats = true; // uniform config so APCM is comparable
    cfg.step_mode = mode;
    if mode == StepMode::ParallelSm {
        cfg.sim_threads = 2;
    }
    cfg
}

struct Outcome {
    counters: Counters,
    cycle: u64,
    completed: bool,
    steering: Vec<(u64, WarpTuple)>,
    /// `Debug` rendering of the controller's final state: epoch logs,
    /// tuple traces, RNG position, convergence records — everything.
    fingerprint: String,
}

fn run_cold<C: Controller + Debug>(
    mode: StepMode,
    spec: &KernelSpec,
    make: &dyn Fn() -> C,
) -> Outcome {
    let mut gpu = Gpu::new(cfg_for(mode), spec);
    let mut ctrl = Recording::new(make());
    let res = gpu.run(&mut ctrl, BUDGET);
    Outcome {
        counters: res.counters,
        cycle: gpu.cycle(),
        completed: res.completed,
        steering: ctrl.events,
        fingerprint: format!("{:?}", ctrl.inner),
    }
}

/// Run to each split point, snapshot machine + controller, throw both
/// away, rebuild from the serialized text alone, and resume. With one
/// split this is the fork path; with several it is mid-run re-entry.
fn run_resumed<C: Controller + Debug>(
    mode: StepMode,
    spec: &KernelSpec,
    make: &dyn Fn() -> C,
    splits: &[u64],
) -> Outcome {
    assert!(splits.windows(2).all(|w| w[0] < w[1]));
    assert!(!splits.is_empty() && splits[splits.len() - 1] < BUDGET);
    let mut gpu = Gpu::new(cfg_for(mode), spec);
    let mut ctrl = Recording::new(make());
    let mut steering = Vec::new();
    let mut res = gpu.run(&mut ctrl, splits[0]);
    for (i, &at) in splits.iter().enumerate() {
        let blob = gpu.snapshot();
        let state = ctrl.inner.save_state();
        steering.append(&mut ctrl.events);
        // Fresh machine, fresh controller: nothing survives but text.
        gpu = Gpu::restore(cfg_for(mode), spec, &blob).expect("snapshot must restore");
        let mut fresh = Recording::new(make());
        assert!(
            fresh.inner.load_state(&state),
            "controller state must load back"
        );
        ctrl = fresh;
        let next = splits.get(i + 1).copied().unwrap_or(BUDGET);
        res = gpu.resume(&mut ctrl, next - at);
    }
    steering.append(&mut ctrl.events);
    Outcome {
        counters: res.counters,
        cycle: gpu.cycle(),
        completed: res.completed,
        steering,
        fingerprint: format!("{:?}", ctrl.inner),
    }
}

fn assert_oracle<C: Controller + Debug>(policy: &str, make: impl Fn() -> C) {
    for (kname, spec) in kernels() {
        for mode in modes() {
            let cold = run_cold(mode, &spec, &make);
            if kname == "storm" && policy == "GTO" {
                assert!(
                    cold.counters.l1_rejects > 0,
                    "{policy}/{kname}/{mode:?}: full occupancy must storm"
                );
            }
            for (sname, splits) in [
                ("fork", vec![17_000u64]),
                ("chained", vec![9_000, 23_000, 31_000]),
            ] {
                let warm = run_resumed(mode, &spec, &make, &splits);
                assert_eq!(
                    warm.counters, cold.counters,
                    "{policy}/{kname}/{mode:?}/{sname}: counters diverged"
                );
                assert_eq!(
                    warm.cycle, cold.cycle,
                    "{policy}/{kname}/{mode:?}/{sname}: final cycle"
                );
                assert_eq!(
                    warm.completed, cold.completed,
                    "{policy}/{kname}/{mode:?}/{sname}: completion status"
                );
                assert_eq!(
                    warm.steering, cold.steering,
                    "{policy}/{kname}/{mode:?}/{sname}: steering trajectory"
                );
                assert_eq!(
                    warm.fingerprint, cold.fingerprint,
                    "{policy}/{kname}/{mode:?}/{sname}: controller state"
                );
            }
        }
    }
}

#[test]
fn gto_fixed_max_resumes_identically() {
    assert_oracle("GTO", FixedTuple::max);
}

#[test]
fn swl_fixed_diagonal_resumes_identically() {
    assert_oracle("SWL", || FixedTuple::new(WarpTuple::new(4, 4, 24)));
}

#[test]
fn static_best_fixed_off_diagonal_resumes_identically() {
    assert_oracle("Static-Best", || FixedTuple::new(WarpTuple::new(6, 2, 24)));
}

#[test]
fn poise_hie_resumes_identically() {
    assert_oracle("Poise", || {
        PoiseController::new(const_model(8.0, 2.0), PoiseParams::scaled_down(20))
    });
}

#[test]
fn pcal_swl_resumes_identically() {
    assert_oracle("PCAL-SWL", || {
        PcalSwlController::new(WarpTuple::new(4, 4, 24))
    });
}

#[test]
fn random_restart_resumes_identically() {
    assert_oracle("Random-restart", || {
        RandomRestartController::new(42, 15_000).with_windows(500, 1_000)
    });
}

#[test]
fn apcm_resumes_identically() {
    assert_oracle("APCM", || {
        ApcmController::new(30_000).with_monitor_cycles(8_000)
    });
}

#[test]
fn corrupt_controller_state_is_rejected_without_mutation() {
    // load_state is all-or-nothing: any malformed stream must leave the
    // controller exactly as constructed and return false.
    let make = || PoiseController::new(const_model(8.0, 2.0), PoiseParams::scaled_down(20));
    let spec = kernels().remove(0).1;
    let mut gpu = Gpu::new(cfg_for(StepMode::PerSm), &spec);
    let mut ctrl = make();
    gpu.run(&mut ctrl, 17_000);
    let good = ctrl.save_state();
    let last_token_mangled = {
        let mut toks: Vec<&str> = good.split(' ').collect();
        *toks.last_mut().unwrap() = "wibble";
        toks.join(" ")
    };
    for bad in [
        "",
        "poise-hie-v0 0",
        "garbage",
        &good[..good.len() / 2],           // truncated
        &format!("{good} trailing-token"), // trailing garbage
        &last_token_mangled,
    ] {
        let mut fresh = make();
        let before = format!("{fresh:?}");
        assert!(!fresh.load_state(bad), "must reject {bad:?}");
        assert_eq!(
            format!("{fresh:?}"),
            before,
            "rejected load must not mutate"
        );
    }
    let mut fresh = make();
    assert!(fresh.load_state(&good));
    assert_eq!(format!("{fresh:?}"), format!("{ctrl:?}"));
}
