//! One pass of the `run_all` path, timed from outside: `plan_jobs`, the
//! seed's permutation of the declared jobs, engine and cache open,
//! `Engine::run`, then every figure's `render`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use poise::jobs::{Engine, ProgressSink, ResultStore, RunReport, SimJob};
use poise::plan::KnobOverlay;
use poise_bench::figures::{plan_jobs, FigCtx, Figure, PlannedJobs};

use crate::sys;
use crate::trace::{Event, Recorder};

/// One benchmark workload: a real `run_all` invocation.
pub struct Workload {
    pub name: &'static str,
    /// The `--set` knobs.
    pub sets: &'static [&'static str],
    /// The `--only` figure filter (`None` = all figures).
    pub only: Option<&'static [&'static str]>,
    /// Passes run over a store an untimed cold pass filled.
    pub warm: bool,
}

/// CI's bench-smoke knobs.
const SMOKE: &[&str] = &["sms=2", "kernels_cap=1", "train_cap=3", "run_cycles=20000"];

pub const WORKLOADS: [Workload; 3] = [
    // All 23 figures cold: offline profiling, training samples, many
    // small jobs, cache writes, sweeps and prefix forking. Profiling and
    // training hold most job-seconds; evaluation runs are short.
    Workload {
        name: "smoke-cold",
        sets: SMOKE,
        only: None,
        warm: false,
    },
    // The paper's main comparison (Figs. 7–9) cold at a long horizon:
    // controller-driven simulation under HIE, PCAL, SWL and Static-Best
    // carries at least three quarters of job-seconds, with no prefix
    // forking and little rendering. Where simulator and controller
    // speed shows. `prediction_error` rides along (its samples cost a
    // few percent) so the §VII-B metric is measured here too.
    Workload {
        name: "eval-long",
        sets: &[
            "sms=4",
            "kernels_cap=2",
            "train_cap=3",
            "run_cycles=2400000",
        ],
        only: Some(&[
            "fig07_performance",
            "fig08_l1_hit_rate",
            "fig09_aml",
            "prediction_error",
        ]),
        warm: false,
    },
    // The smoke plan over a full store: every job is a cache hit, so a
    // pass is planning, cache lookup and verification, and rendering,
    // with no simulation. The edit-a-figure-and-re-render loop.
    Workload {
        name: "warm-rerender",
        sets: SMOKE,
        only: None,
        warm: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Fisher–Yates over a SplitMix64 stream: the seed's only effect on the
/// program is the order of the job list it is handed.
pub fn permute(jobs: &mut [SimJob], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..jobs.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
}

/// Everything a pass needs before the first job is dispatched.
pub struct Prepared {
    pub figures: Vec<Figure>,
    pub expansions: Vec<poise::plan::PlanExpansion>,
    pub jobs: Vec<SimJob>,
    pub sweep_shared: usize,
    pub prefix_shared: usize,
    pub ctx: FigCtx,
    pub engine: Engine,
    /// Wall seconds of `plan_jobs` alone.
    pub plan_s: f64,
    /// Wall seconds from entry to a ready engine, the permutation
    /// excluded.
    pub setup_s: f64,
}

/// Plan, permute, and open the engine over `cache_dir`, as `run_all`
/// does before it executes.
pub fn prepare(wl: &Workload, seed: u64, cache_dir: &Path) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let sets: Vec<String> = wl.sets.iter().map(|s| s.to_string()).collect();
    let only: Option<Vec<String>> = wl.only.map(|o| o.iter().map(|s| s.to_string()).collect());
    let PlannedJobs {
        figures,
        expansions,
        setup,
        mut jobs,
        sweep_shared,
        prefix_shared,
        ..
    } = plan_jobs(KnobOverlay::default(), &sets, &[], only.as_deref(), false)?;
    let plan_s = t0.elapsed().as_secs_f64();
    let tp = Instant::now();
    permute(&mut jobs, seed);
    let permute_s = tp.elapsed().as_secs_f64();
    let ctx = FigCtx::new(setup);
    let mut engine = Engine::new(cache_dir);
    engine.quiet = true;
    engine.deadline = ctx.setup.job_deadline;
    Ok(Prepared {
        figures,
        expansions,
        jobs,
        sweep_shared,
        prefix_shared,
        ctx,
        engine,
        plan_s,
        setup_s: t0.elapsed().as_secs_f64() - permute_s,
    })
}

/// One measured pass. Times are seconds from the pass start.
pub struct Pass {
    pub t0: Instant,
    pub wall_s: f64,
    pub setup_s: f64,
    pub cpu_s: f64,
    pub plan: (f64, f64),
    pub run: (f64, f64),
    pub jobs_cpu_s: f64,
    pub jobs: Vec<SimJob>,
    pub sweep_shared: usize,
    pub prefix_shared: usize,
    pub store: ResultStore,
    pub report: RunReport,
    /// `(hits, misses, stores, corrupt)` from the cache's own counters.
    pub cache: (u64, u64, u64, u64),
    /// `(figure, start, end)` per successful render.
    pub renders: Vec<(&'static str, f64, f64)>,
    /// `figure: error` per failed render.
    pub render_failures: Vec<String>,
    /// Progress events, when traced.
    pub events: Option<Vec<Event>>,
}

impl Pass {
    pub fn figures_attempted(&self) -> usize {
        self.renders.len() + self.render_failures.len()
    }
}

/// Run one pass over `cache_dir`; with `traced`, a `Recorder` observes
/// the engine.
pub fn run(wl: &Workload, seed: u64, cache_dir: &Path, traced: bool) -> Result<Pass, String> {
    let t0 = Instant::now();
    let c0 = sys::cpu_time();
    let Prepared {
        figures,
        expansions,
        jobs,
        sweep_shared,
        prefix_shared,
        ctx,
        mut engine,
        plan_s,
        setup_s,
    } = prepare(wl, seed, cache_dir)?;
    let recorder = traced.then(|| Arc::new(Recorder::default()));
    if let Some(r) = &recorder {
        engine.progress = Some(Arc::clone(r) as Arc<dyn ProgressSink>);
    }
    let secs = |at: Instant| at.duration_since(t0).as_secs_f64();
    let run_start = Instant::now();
    let cj = sys::cpu_time();
    let (store, report) = engine.run(&jobs);
    let jobs_cpu_s = (sys::cpu_time() - cj).as_secs_f64();
    let run = (secs(run_start), t0.elapsed().as_secs_f64());
    let mut renders = Vec::new();
    let mut render_failures = Vec::new();
    for (figure, exp) in figures.iter().zip(&expansions) {
        let start = t0.elapsed().as_secs_f64();
        match (figure.render)(&ctx, &exp.points, &store) {
            Ok(()) => renders.push((figure.name, start, t0.elapsed().as_secs_f64())),
            Err(e) => render_failures.push(format!("{}: {e}", figure.name)),
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (sys::cpu_time() - c0).as_secs_f64();
    let (hits, misses, stores) = engine.cache().stats.snapshot();
    Ok(Pass {
        t0,
        wall_s,
        setup_s,
        cpu_s,
        plan: (0.0, plan_s),
        run,
        jobs_cpu_s,
        jobs,
        sweep_shared,
        prefix_shared,
        store,
        report,
        cache: (hits, misses, stores, engine.cache().stats.corrupt_count()),
        renders,
        render_failures,
        events: recorder.map(|r| r.take()),
    })
}

/// The rendered outputs in `dir`, read and then removed so the next pass
/// starts from an empty directory. `sm_scaling`'s `sim Mcyc/s` column is
/// derived from execution walls and differs between identical runs; it is
/// cut by name, and every other byte must match.
pub fn take_outputs(dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let mut out = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for e in entries {
        let path = e.map_err(|e| e.to_string())?.path();
        if !path.is_file() {
            continue;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("non-UTF-8 output name {}", path.display()))?
            .to_string();
        let mut bytes = std::fs::read(&path).map_err(|e| format!("{name}: {e}"))?;
        if name == "sm_scaling.txt" {
            let text = String::from_utf8(bytes).map_err(|_| "sm_scaling.txt is not UTF-8")?;
            bytes = crate::layers::strip_column(&text, "sim Mcyc/s")?.into_bytes();
        }
        std::fs::remove_file(&path).map_err(|e| format!("{name}: {e}"))?;
        out.insert(name, bytes);
    }
    Ok(out)
}

/// `(entries, bytes)` of the cache: its top-level result files.
pub fn cache_size(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "txt"))
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let mk = || -> Vec<SimJob> {
            let sets = vec!["sms=2".to_string(), "train_cap=3".to_string()];
            plan_jobs(
                KnobOverlay::default(),
                &sets,
                &[],
                Some(&["fig07".to_string()]),
                false,
            )
            .unwrap()
            .jobs
        };
        let base = mk();
        let (mut a, mut b, mut c) = (mk(), mk(), mk());
        permute(&mut a, 7);
        permute(&mut b, 7);
        permute(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, base);
        let specs = |v: &[SimJob]| {
            let mut s: Vec<String> = v.iter().map(|j| j.spec_text()).collect();
            s.sort();
            s
        };
        assert_eq!(specs(&a), specs(&base));
        assert_eq!(
            poise::jobs::graph_closure(&a).len(),
            poise::jobs::graph_closure(&base).len()
        );
    }

    #[test]
    fn every_workload_filter_matches_its_figures() {
        for wl in &WORKLOADS {
            let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
            let p = prepare(wl, 1, &dir).unwrap_or_else(|e| panic!("{}: {e}", wl.name));
            let _ = std::fs::remove_dir_all(&dir);
            match wl.only {
                Some(only) => assert_eq!(p.figures.len(), only.len(), "{}", wl.name),
                None => assert_eq!(p.figures.len(), 23, "{}", wl.name),
            }
        }
    }
}
