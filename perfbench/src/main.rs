//! End-to-end and per-layer benchmark of the reproduction's `run_all`
//! path: `plan_jobs`, `Engine::run` on a fresh or filled cache, and every
//! figure's `render`, each timed from outside the program.
//!
//! ```text
//! perfbench --workload <smoke-cold|eval-long|warm-rerender> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Passes run back to back (a closed loop
//! with one caller) until `--seconds` would be exceeded, at least one.
//! The last line of stdout is the result object; with `--trace 0` it
//! holds the end-to-end metrics, with `--trace 1` the per-layer ones,
//! and the traced run writes its spans to `.perfbench/trace-<workload>.json`.
//!
//! The measured passes run in a child process whose stdout (the figures'
//! tables) is discarded and whose peak RSS is the pass's own; scratch
//! caches and outputs live under `.perfbench/` and are removed afterwards,
//! except the reference outputs in `.perfbench/golden/`, against which
//! every later run's figures and deterministic metrics must match.

mod layers;
mod pass;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use pass::{Pass, Workload};

const USAGE: &str =
    "usage: perfbench --workload <smoke-cold|eval-long|warm-rerender> --seed <n> --seconds <s> --trace <0|1>";

/// Setup-only repetitions per run, beside each pass's own setup, so that
/// `setup_s` is a median even when a run fits a single pass.
const SETUP_REPS: usize = 10;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("fill") => fill(&args[1..]),
        Some("measure") => measure(&args[1..]),
        _ => coordinate(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[perfbench] error: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Opts {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}\n{USAGE}"))
    };
    let name = get("--workload")?;
    let workload =
        pass::workload(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| format!("--seed must be a whole number\n{USAGE}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|_| format!("--seconds must be a whole number\n{USAGE}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}\n{USAGE}")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

fn io<T>(what: &Path, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{}: {e}", what.display()))
}

/// Spawn this executable in an internal mode with the figures' results
/// directory set; stdout is discarded, stderr goes to `log`.
fn child(args: &[String], results: &Path, log: &Path) -> Result<(), String> {
    let exe = io(Path::new("perfbench"), std::env::current_exe())?;
    let log_file = io(log, std::fs::File::create(log))?;
    let status = Command::new(exe)
        .args(args)
        .env("POISE_RESULTS_DIR", results)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log_file)
        .status()
        .map_err(|e| format!("spawn {}: {e}", args[0]))?;
    let text = std::fs::read_to_string(log).unwrap_or_default();
    for line in text.lines().filter(|l| l.starts_with("[perfbench]")) {
        eprintln!("{line}");
    }
    if !status.success() {
        let tail: Vec<&str> = text.lines().rev().take(20).collect();
        for line in tail.iter().rev() {
            eprintln!("  | {line}");
        }
        return Err(format!("{} pass failed ({status})", args[0]));
    }
    Ok(())
}

fn coordinate(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let wl = opts.workload;
    if !Path::new("crates/bench/Cargo.toml").is_file() {
        return Err("run from the repository root".to_string());
    }
    let host = sys::host_block();
    eprintln!("[perfbench] host {host}");
    // References are per measured source tree and workload definition.
    let golden = PathBuf::from(".perfbench").join("golden").join(format!(
        "{}-{}",
        wl.name,
        &poise::cache::sha256_hex(&format!("{host}\n{:?}\n{:?}", wl.sets, wl.only))[..12]
    ));
    let work = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    io(&work, std::fs::create_dir_all(&work))?;
    let result = (|| {
        if wl.warm {
            child(
                &[
                    "fill".to_string(),
                    wl.name.to_string(),
                    opts.seed.to_string(),
                    path_arg(&work),
                ],
                &work.join("fill-results"),
                &work.join("fill.log"),
            )?;
        }
        child(
            &[
                "measure".to_string(),
                wl.name.to_string(),
                opts.seed.to_string(),
                opts.seconds.to_string(),
                u8::from(opts.trace).to_string(),
                path_arg(&work),
                path_arg(&golden),
            ],
            &work.join("results"),
            &work.join("measure.log"),
        )?;
        let result = work.join("result.json");
        io(&result, std::fs::read_to_string(&result))
    })();
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", result?.trim_end());
    Ok(())
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// The untimed cold pass that fills the store a warm workload reads.
fn fill(args: &[String]) -> Result<(), String> {
    let [name, seed, work] = args else {
        return Err("fill <workload> <seed> <work dir>".to_string());
    };
    let wl = pass::workload(name).ok_or("unknown workload")?;
    let seed = seed.parse().map_err(|_| "bad seed")?;
    let work = Path::new(work);
    let p = pass::run(wl, seed, &work.join("fill-cache"), false)?;
    if !p.report.failed.is_empty() || !p.render_failures.is_empty() {
        return Err(format!(
            "fill pass failed: {} job(s), figures {:?}",
            p.report.failed.len(),
            p.render_failures
        ));
    }
    eprintln!(
        "[perfbench] fill: cold pass {:.2}s, {} jobs executed",
        p.wall_s, p.report.executed
    );
    print_shares("fill", &p);
    Ok(())
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Each layer's share of the pass's executed job-seconds
/// (`ResultStore::wall` of every job that ran).
fn print_shares(tag: &str, p: &Pass) {
    let Ok(closure) = layers::closure(&p.jobs) else {
        return;
    };
    if p.report.executed == 0 {
        eprintln!(
            "[perfbench] {tag}: job-seconds by kind: none executed ({} cache hits)",
            p.report.cache_hits
        );
        return;
    }
    let mut busy = [0.0f64; layers::LAYERS.len()];
    for cj in &closure {
        busy[cj.layer] += p.store.wall(&cj.job).unwrap_or(0.0);
    }
    let total: f64 = busy.iter().sum();
    let mut line = format!("[perfbench] {tag}: job-seconds {total:.2}s by kind:");
    for (i, (kind, _)) in layers::LAYERS.iter().enumerate() {
        let _ = write!(line, " {kind}={:.1}%", 100.0 * busy[i] / total.max(1e-12));
    }
    eprintln!("{line}");
}

/// Everything that must come out identical for every pass and seed.
struct Deterministic {
    outputs: BTreeMap<String, Vec<u8>>,
    /// `name value` lines: plan counts, executed jobs, headline numbers
    /// and the simulated statistics.
    values: String,
}

struct Headline {
    poise_hmean: f64,
    pred_err_pct: f64,
}

fn text<'a>(outputs: &'a BTreeMap<String, Vec<u8>>, name: &str) -> Result<&'a str, String> {
    let bytes = outputs
        .get(name)
        .ok_or_else(|| format!("no {name} rendered"))?;
    std::str::from_utf8(bytes).map_err(|_| format!("{name} is not UTF-8"))
}

/// The headline numbers, with Fig. 7's printed H-mean cross-checked
/// against the value computed from the rows it renders from.
fn headline(outputs: &BTreeMap<String, Vec<u8>>) -> Result<Headline, String> {
    let rows = layers::parse_main_rows(text(outputs, "main_comparison.tsv")?)?;
    let computed = layers::hmean_from_rows(&rows);
    let printed = layers::fig07_poise_hmean(text(outputs, "fig07_performance.txt")?)?;
    if (printed - computed).abs() > 0.0005 + 1e-9 {
        return Err(format!(
            "Fig. 7 prints Poise H-mean {printed} but its rows give {computed:.6}"
        ));
    }
    Ok(Headline {
        poise_hmean: computed,
        pred_err_pct: layers::pred_err_pct(text(outputs, "prediction_error.txt")?)?,
    })
}

fn deterministic(
    p: &Pass,
    closure: &[layers::ClosureJob],
    outputs: BTreeMap<String, Vec<u8>>,
) -> Result<(Deterministic, Headline), String> {
    let h = headline(&outputs)?;
    let mut values = String::new();
    let _ = writeln!(values, "poise_hmean {:.6}", h.poise_hmean);
    let _ = writeln!(values, "pred_err_pct {:.3}", h.pred_err_pct);
    let _ = writeln!(values, "plan.declared_jobs {}", p.jobs.len());
    let _ = writeln!(values, "plan.unique_jobs {}", closure.len());
    let _ = writeln!(values, "plan.sweep_shared {}", p.sweep_shared);
    let _ = writeln!(values, "plan.prefix_shared {}", p.prefix_shared);
    let _ = writeln!(values, "jobs.executed {}", p.report.executed);
    for (name, v, _) in layers::SimStats::collect(closure, &p.store)?.metrics() {
        let _ = writeln!(values, "{name} {v:?}");
    }
    Ok((Deterministic { outputs, values }, h))
}

/// `(name, value, unit)` rows of a result.
type Metrics = Vec<(String, f64, &'static str)>;

/// Per-layer metrics of one traced pass.
fn layer_metrics(
    p: &Pass,
    closure: &[layers::ClosureJob],
    cache_dir: &Path,
    nproc: usize,
) -> Result<(Metrics, Vec<trace::Span>), String> {
    let events = p.events.as_deref().ok_or("pass was not traced")?;
    let jt = trace::job_spans(events, closure, p.t0, p.run, nproc)?;
    let mut m: Metrics = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    let jobs_s = p.run.1 - p.run.0;
    put("plan.s", p.plan.1 - p.plan.0, "s");
    put("plan.declared_jobs", p.jobs.len() as f64, "count");
    put("plan.unique_jobs", closure.len() as f64, "count");
    put("plan.sweep_shared", p.sweep_shared as f64, "count");
    put("plan.prefix_shared", p.prefix_shared as f64, "count");
    put("jobs.s", jobs_s, "s");
    put("jobs.self_s", jt.self_s, "s");
    put("jobs.executed", p.report.executed as f64, "count");
    put("jobs.cache_hits", p.report.cache_hits as f64, "count");
    put("jobs.failed", p.report.failed.len() as f64, "count");
    put("jobs.retried", p.report.retried as f64, "count");
    let waves: std::collections::BTreeSet<usize> = jt.spans.iter().map(|s| s.wave).collect();
    put("jobs.waves", waves.len() as f64, "count");
    put(
        "jobs.cpu_util",
        p.jobs_cpu_s / (nproc as f64 * jobs_s),
        "ratio",
    );
    put("jobs.tail_s", jt.tail_s, "s");
    const N: usize = layers::LAYERS.len();
    let (mut count, mut busy, mut max) = ([0usize; N], [0.0f64; N], [0.0f64; N]);
    let (mut run_cycles, mut run_exec_s) = (0u64, 0.0f64);
    for s in &jt.spans {
        let cj = &closure[s.closure_idx];
        let d = s.end - s.start;
        count[cj.layer] += 1;
        busy[cj.layer] += d;
        max[cj.layer] = max[cj.layer].max(d);
        if let (poise::SimJob::Run(_), Some(_)) = (&cj.job, s.exec_start) {
            let out = p.store.get(&cj.job)?;
            run_cycles += out.as_run().map_or(0, |r| r.counters.cycles);
            run_exec_s += p.store.wall(&cj.job).unwrap_or(0.0);
        }
    }
    for (i, (_, layer)) in layers::LAYERS.iter().enumerate() {
        put(&format!("{layer}.jobs"), count[i] as f64, "count");
        put(&format!("{layer}.busy_s"), busy[i], "s");
        put(&format!("{layer}.max_s"), max[i], "s");
    }
    put(
        "experiment.run.mcycles_per_s",
        if run_exec_s > 0.0 {
            run_cycles as f64 / run_exec_s / 1e6
        } else {
            0.0
        },
        "Mcycles/s",
    );
    let (hits, misses, stores, corrupt) = p.cache;
    let (entries, bytes) = pass::cache_size(cache_dir);
    put("cache.hits", hits as f64, "count");
    put("cache.misses", misses as f64, "count");
    put("cache.stores", stores as f64, "count");
    put("cache.corrupt", corrupt as f64, "count");
    put("cache.entries", entries as f64, "count");
    put("cache.bytes", bytes as f64, "bytes");
    let render: Vec<f64> = p.renders.iter().map(|r| r.2 - r.1).collect();
    put("figures.render_s", render.iter().sum(), "s");
    put(
        "figures.render_max_s",
        render.iter().copied().fold(0.0, f64::max),
        "s",
    );
    put("figures.count", render.len() as f64, "count");
    for (name, v, unit) in layers::SimStats::collect(closure, &p.store)?.metrics() {
        put(name, v, unit);
    }
    let spans = trace::pass_spans(p.wall_s, p.plan, p.run, &jt, closure, &p.renders);
    Ok((m, spans))
}

/// The end-to-end metrics of an untraced run: medians over its passes
/// (and setup repetitions), the process's peak RSS, and the headline
/// numbers, which are the same in every pass.
fn end_to_end(walls: &[f64], setups: &[f64], cpus: &[f64], h: Option<&Headline>) -> Metrics {
    vec![
        ("wall_s".to_string(), median(walls), "s"),
        ("setup_s".to_string(), median(setups), "s"),
        ("cpu_s".to_string(), median(cpus), "s"),
        ("peak_rss_mb".to_string(), sys::peak_rss_mb(), "MB"),
        (
            "poise_hmean".to_string(),
            h.map_or(f64::NAN, |h| h.poise_hmean),
            "ratio",
        ),
        (
            "pred_err_pct".to_string(),
            h.map_or(f64::NAN, |h| h.pred_err_pct),
            "%",
        ),
    ]
}

/// The measured passes of one run; writes `result.json` into the work dir.
fn measure(args: &[String]) -> Result<(), String> {
    let [name, seed, seconds, trace, work, golden_dir] = args else {
        return Err(
            "measure <workload> <seed> <seconds> <trace> <work dir> <golden dir>".to_string(),
        );
    };
    let wl = pass::workload(name).ok_or("unknown workload")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let seconds: f64 = seconds.parse().map_err(|_| "bad seconds")?;
    let traced = trace == "1";
    let work = Path::new(work);
    let results = PathBuf::from(std::env::var("POISE_RESULTS_DIR").map_err(|_| "no results dir")?);
    let nproc = sys::nproc();
    let fill_cache = work.join("fill-cache");
    let cache_of = |n: usize| {
        if wl.warm {
            fill_cache.clone()
        } else {
            work.join(format!("cache-{n}"))
        }
    };

    let mut problems: Vec<String> = Vec::new();
    // The reference every pass must reproduce: the first pass's figures
    // and values; for a warm workload, the figures the fill pass rendered.
    let mut reference = Reference {
        outputs: match wl.warm {
            true => Some(pass::take_outputs(&work.join("fill-results"))?),
            false => None,
        },
        values: None,
    };

    let mut setup_samples = Vec::new();
    for r in 0..SETUP_REPS {
        let dir = if wl.warm {
            fill_cache.clone()
        } else {
            work.join(format!("setup-{r}"))
        };
        setup_samples.push(pass::prepare(wl, seed, &dir)?.setup_s);
    }

    let start = Instant::now();
    let (mut walls, mut cpus, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    // Every traced pass reports the same metrics in the same order.
    let mut layer_samples: Vec<(String, &str, Vec<f64>)> = Vec::new();
    let mut trace_passes: Vec<Vec<trace::Span>> = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut headline_values: Option<Headline> = None;
    let mut last_cold: Option<PathBuf> = None;
    let mut n = 0usize;
    loop {
        let traced_pass = traced && n % 2 == 1;
        let cache_dir = cache_of(n);
        let p = pass::run(wl, seed, &cache_dir, traced_pass)?;
        let outputs = pass::take_outputs(&results)?;
        let closure = layers::closure(&p.jobs)?;
        attempted += p.report.total + p.figures_attempted();
        failed += p.report.failed.len() + p.render_failures.len();
        for (label, e) in &p.report.failed {
            problems.push(format!("pass {n}: job {label} failed: {e}"));
        }
        for f in &p.render_failures {
            problems.push(format!("pass {n}: figure {f}"));
        }
        if wl.warm && p.report.executed != 0 {
            problems.push(format!(
                "pass {n}: {} jobs executed over a full store",
                p.report.executed
            ));
        }
        if n == 0 {
            print_shares(wl.name, &p);
        }
        match deterministic(&p, &closure, outputs) {
            Ok((d, h)) => {
                reference.check(d, &format!("pass {n}"), &mut problems);
                headline_values.get_or_insert(h);
            }
            Err(e) => problems.push(format!("pass {n}: {e}")),
        }
        if traced_pass {
            traced_walls.push(p.wall_s);
            let (m, spans) = layer_metrics(&p, &closure, &cache_dir, nproc)?;
            if layer_samples.is_empty() {
                layer_samples = m
                    .iter()
                    .map(|(n, _, u)| (n.clone(), *u, Vec::new()))
                    .collect();
            }
            for (sample, (_, v, _)) in layer_samples.iter_mut().zip(m) {
                sample.2.push(v);
            }
            trace_passes.push(spans);
        } else {
            walls.push(p.wall_s);
            cpus.push(p.cpu_s);
            setup_samples.push(p.setup_s);
        }
        eprintln!(
            "[perfbench] pass {n}{}: wall {:.3}s setup {:.4}s cpu {:.2}s jobs {:.3}s ({} executed, {} hits)",
            if traced_pass { " (traced)" } else { "" },
            p.wall_s,
            p.setup_s,
            p.cpu_s,
            p.run.1 - p.run.0,
            p.report.executed,
            p.report.cache_hits
        );
        if !wl.warm {
            if let Some(old) = last_cold.replace(cache_dir) {
                let _ = std::fs::remove_dir_all(old);
            }
        }
        n += 1;
        let longest = walls
            .iter()
            .chain(&traced_walls)
            .copied()
            .fold(0.0, f64::max);
        let need_both = traced && (walls.is_empty() || traced_walls.is_empty());
        if !need_both && start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }

    // A warm pass over the last cold store must be all hits, execute
    // nothing, and render the same bytes.
    if let Some(dir) = &last_cold {
        let p = pass::run(wl, seed, dir, false)?;
        let outputs = pass::take_outputs(&results)?;
        let closure = layers::closure(&p.jobs)?;
        attempted += p.report.total + p.figures_attempted();
        failed += p.report.failed.len() + p.render_failures.len();
        if p.report.executed != 0 || p.report.cache_hits != p.report.total {
            problems.push(format!(
                "warm check: {} executed, {}/{} hits",
                p.report.executed, p.report.cache_hits, p.report.total
            ));
        }
        match (deterministic(&p, &closure, outputs), &reference.outputs) {
            (Ok((d, _)), Some(r)) => compare_outputs(r, &d.outputs, "warm check", &mut problems),
            (Err(e), _) => problems.push(format!("warm check: {e}")),
            (Ok(_), None) => {}
        }
    }

    if let (Some(outputs), Some(values)) = (reference.outputs, reference.values) {
        if outputs.contains_key("sm_scaling.txt") {
            eprintln!(
                "[perfbench] known defect: sm_scaling.txt's `sim Mcyc/s` column is derived \
                 from execution walls, so it differs between identical runs; it is cut \
                 before every comparison"
            );
        }
        golden(
            Path::new(golden_dir),
            &Deterministic { outputs, values },
            &mut problems,
        )?;
    }
    for p in &problems {
        eprintln!("[perfbench] INCORRECT: {p}");
    }

    let mut metrics: Metrics = Vec::new();
    if traced {
        let overhead = 100.0 * (median(&traced_walls) / median(&walls) - 1.0);
        for (name, unit, v) in &layer_samples {
            metrics.push((name.clone(), median(v), unit));
        }
        metrics.push(("trace.overhead_pct".to_string(), overhead, "%"));
        eprintln!(
            "[perfbench] tracing overhead {overhead:+.2}% (traced wall {:.3}s vs untraced {:.3}s)",
            median(&traced_walls),
            median(&walls)
        );
        let path = PathBuf::from(".perfbench").join(format!("trace-{}.json", wl.name));
        let meta = [
            ("workload", wl.name.to_string()),
            ("seed", seed.to_string()),
            ("host", sys::host_block()),
        ];
        io(
            &path,
            std::fs::write(&path, trace::chrome_json(&trace_passes, &meta)),
        )?;
        eprintln!("[perfbench] wrote {}", path.display());
    } else {
        metrics = end_to_end(&walls, &setup_samples, &cpus, headline_values.as_ref());
        let h = headline_values.as_ref();
        if let Some(h) = h {
            eprintln!(
                "[perfbench] Fig. 7 Poise H-mean vs GTO {:.3} (paper 1.466); §VII-B prediction error {:.1}%",
                h.poise_hmean, h.pred_err_pct
            );
        }
        eprintln!(
            "[perfbench] {} passes; wall median {:.3}s; setup median {:.4}s over {} samples",
            walls.len(),
            median(&walls),
            median(&setup_samples),
            setup_samples.len()
        );
    }
    let correct = problems.is_empty() && metrics.iter().all(|m| m.1.is_finite());
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let v = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(json, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    json.push_str("}}\n");
    let out = work.join("result.json");
    io(&out, std::fs::write(&out, json))
}

fn compare_outputs(
    r: &BTreeMap<String, Vec<u8>>,
    d: &BTreeMap<String, Vec<u8>>,
    what: &str,
    problems: &mut Vec<String>,
) {
    for name in r
        .keys()
        .chain(d.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        if r.get(name) != d.get(name) {
            problems.push(format!("{what}: {name} differs from the reference"));
        }
    }
}

/// What the passes of one run are checked against, filled from the
/// first pass where no earlier source exists.
struct Reference {
    outputs: Option<BTreeMap<String, Vec<u8>>>,
    values: Option<String>,
}

impl Reference {
    fn check(&mut self, d: Deterministic, what: &str, problems: &mut Vec<String>) {
        match &self.outputs {
            Some(r) => compare_outputs(r, &d.outputs, what, problems),
            None => self.outputs = Some(d.outputs),
        }
        match &self.values {
            Some(r) => compare_values(r, &d.values, what, problems),
            None => self.values = Some(d.values),
        }
    }
}

fn compare_values(r: &str, d: &str, what: &str, problems: &mut Vec<String>) {
    for (a, b) in r.lines().zip(d.lines()).filter(|(a, b)| a != b) {
        problems.push(format!("{what}: {b} (reference {a})"));
    }
}

fn compare(r: &Deterministic, d: &Deterministic, what: &str, problems: &mut Vec<String>) {
    compare_outputs(&r.outputs, &d.outputs, what, problems);
    compare_values(&r.values, &d.values, what, problems);
}

/// Compare against the checkout's reference from earlier runs, or record
/// it: every run of the same code, at any seed, must reproduce it.
fn golden(dir: &Path, r: &Deterministic, problems: &mut Vec<String>) -> Result<(), String> {
    let values = dir.join("deterministic.txt");
    if values.is_file() {
        let mut outputs = BTreeMap::new();
        let figs = dir.join("figures");
        for e in io(&figs, std::fs::read_dir(&figs))?.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            outputs.insert(name, io(&e.path(), std::fs::read(e.path()))?);
        }
        let g = Deterministic {
            outputs,
            values: io(&values, std::fs::read_to_string(&values))?,
        };
        compare(&g, r, "against earlier runs", problems);
        return Ok(());
    }
    if !problems.is_empty() {
        return Ok(());
    }
    // Written under a temporary name and renamed, so a concurrent or
    // interrupted run never leaves a half-written reference.
    let tmp = dir.with_extension(format!("tmp-{}", std::process::id()));
    let figs = tmp.join("figures");
    io(&figs, std::fs::create_dir_all(&figs))?;
    for (name, bytes) in &r.outputs {
        io(&figs, std::fs::write(figs.join(name), bytes))?;
    }
    io(
        &tmp,
        std::fs::write(tmp.join("deterministic.txt"), &r.values),
    )?;
    if std::fs::rename(&tmp, dir).is_err() {
        // Another run recorded it first; compare against that one.
        let _ = std::fs::remove_dir_all(&tmp);
        return golden(dir, r, problems);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{section}\"")).expect("section");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section end")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\": \"")).expect("key") + key.len() + 5;
            obj[at..at + obj[at..].find('"').expect("value end")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn emitted(m: &[(String, f64, &str)]) -> Vec<(String, String)> {
        m.iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect()
    }

    #[test]
    fn headline_agrees_with_a_rendered_fig07() {
        let wl = Workload {
            name: "tiny",
            sets: &["sms=1", "kernels_cap=1", "train_cap=3", "run_cycles=4000"],
            only: Some(&["fig07_performance", "prediction_error"]),
            warm: false,
        };
        let dir = std::env::temp_dir().join(format!("perfbench-fig07-{}", std::process::id()));
        // The only test that renders, so the only reader of this variable.
        std::env::set_var("POISE_RESULTS_DIR", dir.join("results"));
        let p = pass::run(&wl, 3, &dir.join("cache"), false).unwrap();
        assert!(p.report.failed.is_empty() && p.render_failures.is_empty());
        let outputs = pass::take_outputs(&dir.join("results")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        // `headline` fails unless the printed H-mean matches the rows.
        let h = headline(&outputs).unwrap();
        let printed = layers::fig07_poise_hmean(text(&outputs, "fig07_performance.txt").unwrap());
        assert_eq!(
            format!("{:.3}", h.poise_hmean),
            format!("{:.3}", printed.unwrap())
        );
        assert!(h.pred_err_pct > 0.0);
    }

    #[test]
    fn end_to_end_metrics_match_the_declaration() {
        let h = Headline {
            poise_hmean: 1.0,
            pred_err_pct: 50.0,
        };
        let m = end_to_end(&[1.0], &[0.1], &[2.0], Some(&h));
        assert_eq!(emitted(&m), declared("end_to_end"));
    }

    #[test]
    fn per_layer_metrics_match_the_declaration() {
        let p = Pass {
            t0: Instant::now(),
            wall_s: 1.0,
            setup_s: 0.1,
            cpu_s: 1.0,
            plan: (0.0, 0.1),
            run: (0.1, 0.9),
            jobs_cpu_s: 1.0,
            jobs: Vec::new(),
            sweep_shared: 0,
            prefix_shared: 0,
            store: Default::default(),
            report: Default::default(),
            cache: (0, 0, 0, 0),
            renders: Vec::new(),
            render_failures: Vec::new(),
            events: Some(Vec::new()),
        };
        let (mut m, _) = layer_metrics(&p, &[], Path::new("no-such-cache"), 2).unwrap();
        m.push(("trace.overhead_pct".to_string(), 0.0, "%"));
        assert_eq!(emitted(&m), declared("per_layer"));
    }
}
