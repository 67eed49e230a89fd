//! Per-layer extraction from the engine's public results: job-kind
//! attribution over the dependency closure, the simulated statistics
//! summed over Run outputs, and the headline numbers parsed from the
//! rendered figures.

use std::collections::HashSet;

use poise::cache::sha256_hex;
use poise::jobs::{ResultStore, SimJob};
use poise_bench::MainRow;

/// The per-layer name of each job kind (`SimJob::kind`), in report order.
pub const LAYERS: [(&str, &str); 7] = [
    ("profile", "profiler.profile"),
    ("pbest", "profiler.pbest"),
    ("tuple", "profiler.tuple"),
    ("sample", "train.sample"),
    ("train", "train.fit"),
    ("run", "experiment.run"),
    ("prefix", "experiment.prefix"),
];

/// One unique job of the dependency closure, attributed to its layer.
pub struct ClosureJob {
    pub job: SimJob,
    /// SHA-256 of the spec text: the identity `ProgressSink` events carry.
    pub hash: String,
    /// Index into [`LAYERS`].
    pub layer: usize,
    /// Execution wave, ordered as the engine orders them.
    pub wave: usize,
}

/// The engine's wave rule (`SimJob::wave`, private to `poise::jobs`):
/// samples, profiles and other leaves first, then fits, then prefixes by
/// chain depth, then every evaluation run. Only the trace's wave
/// boundaries depend on it.
fn wave(job: &SimJob) -> usize {
    match job {
        SimJob::Train(_) => 1,
        SimJob::Prefix(r) => 2 + r.prefix_chain.len(),
        SimJob::Run(_) => usize::MAX,
        _ => 0,
    }
}

/// The deduplicated dependency closure of `jobs`, each job attributed to
/// a layer. Fails on a job kind no layer claims, so a new kind cannot
/// silently drop out of the per-layer split.
pub fn closure(jobs: &[SimJob]) -> Result<Vec<ClosureJob>, String> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut stack: Vec<SimJob> = jobs.iter().rev().cloned().collect();
    while let Some(job) = stack.pop() {
        let spec = job.spec_text();
        if !seen.insert(spec.clone()) {
            continue;
        }
        let kind = job.kind();
        let layer = LAYERS
            .iter()
            .position(|(k, _)| *k == kind)
            .ok_or_else(|| format!("job kind {kind:?} belongs to no layer"))?;
        stack.extend(job.deps().into_iter().rev());
        out.push(ClosureJob {
            hash: sha256_hex(&spec),
            layer,
            wave: wave(&job),
            job,
        });
    }
    Ok(out)
}

/// Simulated statistics summed over every Run output of a pass. They are
/// deterministic: a change that only speeds the program up leaves them
/// identical.
#[derive(Default)]
pub struct SimStats {
    pub cycles: u64,
    pub instructions: u64,
    pub l1_hits: u64,
    pub l1_accesses: u64,
    pub l1_rejects: u64,
    pub mshr_merges: u64,
    pub l2_hits: u64,
    pub l2_accesses: u64,
    pub miss_latency_sum: u64,
    pub misses_completed: u64,
    pub epochs: u64,
    pub early_outs: u64,
    pub displacement_sum: f64,
}

impl SimStats {
    pub fn collect(closure: &[ClosureJob], store: &ResultStore) -> Result<SimStats, String> {
        let mut s = SimStats::default();
        // Summed in spec-hash order: the float sums must not depend on the
        // seed's job order.
        let mut runs: Vec<&ClosureJob> = closure
            .iter()
            .filter(|cj| matches!(cj.job, SimJob::Run(_)))
            .collect();
        runs.sort_by(|a, b| a.hash.cmp(&b.hash));
        for cj in runs {
            let run = store
                .get(&cj.job)?
                .as_run()
                .ok_or_else(|| format!("{} did not produce a run", cj.job.label()))?;
            let c = &run.counters;
            s.cycles += c.cycles;
            s.instructions += c.instructions;
            s.l1_hits += c.l1_hits;
            s.l1_accesses += c.l1_accesses;
            s.l1_rejects += c.l1_rejects;
            s.mshr_merges += c.mshr_merges;
            s.l2_hits += c.l2_hits;
            s.l2_accesses += c.l2_accesses;
            s.miss_latency_sum += c.miss_latency_sum;
            s.misses_completed += c.l1_misses_completed;
            for log in &run.epoch_logs {
                s.epochs += 1;
                if log.early_out {
                    s.early_outs += 1;
                } else {
                    s.displacement_sum += log.displacement_euclid();
                }
            }
        }
        Ok(s)
    }

    /// `(name, value, unit)` rows for the per-layer report.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let searched = self.epochs - self.early_outs;
        vec![
            ("gpu-sim.cycles", self.cycles as f64, "cycles"),
            ("gpu-sim.instructions", self.instructions as f64, "count"),
            (
                "gpu-sim.l1_hit_rate",
                ratio(self.l1_hits, self.l1_accesses),
                "ratio",
            ),
            ("gpu-sim.l1_rejects", self.l1_rejects as f64, "count"),
            ("gpu-sim.mshr_merges", self.mshr_merges as f64, "count"),
            (
                "gpu-sim.l2_hit_rate",
                ratio(self.l2_hits, self.l2_accesses),
                "ratio",
            ),
            (
                "gpu-sim.aml",
                ratio(self.miss_latency_sum, self.misses_completed),
                "cycles",
            ),
            ("hie.epochs", self.epochs as f64, "count"),
            ("hie.early_outs", self.early_outs as f64, "count"),
            (
                "hie.displacement_avg",
                if searched == 0 {
                    0.0
                } else {
                    self.displacement_sum / searched as f64
                },
                "warps",
            ),
        ]
    }
}

/// The cells of an `emit_table` text whose header and cells hold no
/// spaces: `(header, rows)`, the title line skipped.
fn table(text: &str) -> Result<(Vec<&str>, Vec<Vec<&str>>), String> {
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<&str> = lines
        .next()
        .ok_or("table has no header")?
        .split_whitespace()
        .collect();
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split_whitespace().collect()).collect();
    if let Some(bad) = rows.iter().find(|r| r.len() != header.len()) {
        return Err(format!("row {bad:?} does not match header {header:?}"));
    }
    Ok((header, rows))
}

fn cell<'a>(text: &'a str, row: &str, col: &str) -> Result<&'a str, String> {
    let (header, rows) = table(text)?;
    let c = header
        .iter()
        .position(|h| *h == col)
        .ok_or_else(|| format!("no column {col:?}"))?;
    rows.iter()
        .find(|r| r[0] == row)
        .map(|r| r[c])
        .ok_or_else(|| format!("no row {row:?}"))
}

/// Fig. 7's H-mean speedup of Poise over GTO, as printed.
pub fn fig07_poise_hmean(fig07: &str) -> Result<f64, String> {
    let v = cell(fig07, "H-Mean", "Poise")?;
    v.parse()
        .map_err(|_| format!("Fig. 7 H-Mean Poise cell {v:?} is not a number"))
}

/// The §VII-B prediction error: the mean of the N and p errors, in %.
pub fn pred_err_pct(text: &str) -> Result<f64, String> {
    let pct = |row: &str| -> Result<f64, String> {
        let v = cell(text, row, "error")?;
        v.strip_suffix('%')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("prediction error {row} cell {v:?} is not a percentage"))
    };
    Ok((pct("N")? + pct("p")?) / 2.0)
}

/// Parse `main_comparison.tsv`, the rows Figs. 7–10 and 14 render from.
pub fn parse_main_rows(tsv: &str) -> Result<Vec<MainRow>, String> {
    let num = |s: &str| -> Result<f64, String> {
        s.parse()
            .map_err(|_| format!("main_comparison.tsv: bad number {s:?}"))
    };
    tsv.lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 9 {
                return Err(format!("main_comparison.tsv: bad row {line:?}"));
            }
            Ok(MainRow {
                bench: f[0].to_string(),
                scheme: f[1].to_string(),
                ipc: num(f[2])?,
                l1_hit_rate: num(f[3])?,
                aml: num(f[4])?,
                energy: num(f[5])?,
                disp_n: num(f[6])?,
                disp_p: num(f[7])?,
                disp_euclid: num(f[8])?,
            })
        })
        .collect()
}

/// The H-mean over the evaluation benchmarks of Poise IPC normalised to
/// GTO, computed from the rows.
pub fn hmean_from_rows(rows: &[MainRow]) -> f64 {
    let speedups: Vec<f64> = poise_bench::bench_order()
        .iter()
        .map(|b| {
            let ipc = |s| poise_bench::metric(rows, b, s, |r| r.ipc);
            ipc("Poise") / ipc("GTO")
        })
        .collect();
    poise::experiment::harmonic_mean(&speedups)
}

/// Remove the column headed `name` from an `emit_table` text. Columns are
/// right-aligned to a shared edge, so the column spans, on every line
/// below the title, from the end of the previous header to the end of
/// its own. Fails when the header is missing: a figure that lost the
/// column must not pass as stripped.
pub fn strip_column(text: &str, name: &str) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut span: Option<(usize, usize)> = None;
    for line in text.lines() {
        if line.starts_with('#') {
            out.push_str(line);
        } else {
            let (from, to) = match span {
                Some(s) => s,
                None => {
                    let at = line
                        .find(name)
                        .ok_or_else(|| format!("no column {name:?} in header {line:?}"))?;
                    let s = (line[..at].trim_end().len(), at + name.len());
                    span = Some(s);
                    s
                }
            };
            if line.len() < to || !line.is_char_boundary(from) || !line.is_char_boundary(to) {
                return Err(format!("line {line:?} does not span column {name:?}"));
            }
            out.push_str(&line[..from]);
            out.push_str(&line[to..]);
        }
        out.push('\n');
    }
    span.map(|_| out)
        .ok_or_else(|| format!("no column {name:?}: the table has no header"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use poise::plan::KnobOverlay;
    use poise_bench::figures::plan_jobs;

    const SMOKE: [&str; 4] = ["sms=2", "kernels_cap=1", "train_cap=3", "run_cycles=20000"];

    fn smoke_jobs() -> Vec<SimJob> {
        let sets: Vec<String> = SMOKE.iter().map(|s| s.to_string()).collect();
        plan_jobs(KnobOverlay::default(), &sets, &[], None, false)
            .expect("smoke plan")
            .jobs
    }

    #[test]
    fn attribution_accounts_for_every_closure_job() {
        let jobs = smoke_jobs();
        let ours = closure(&jobs).expect("every kind has a layer");
        let engine = poise::jobs::graph_closure(&jobs);
        assert_eq!(ours.len(), engine.len());
        let ours: HashSet<&str> = ours.iter().map(|c| c.hash.as_str()).collect();
        for (hash, label) in &engine {
            assert!(ours.contains(hash.as_str()), "{label} not attributed");
        }
        // Every layer of the smoke plan is populated.
        let layers: HashSet<usize> = closure(&jobs).unwrap().iter().map(|c| c.layer).collect();
        assert_eq!(layers.len(), LAYERS.len());
    }

    #[test]
    fn waves_put_dependencies_first() {
        let jobs = smoke_jobs();
        let all = closure(&jobs).unwrap();
        for cj in &all {
            for dep in cj.job.deps() {
                let d = all
                    .iter()
                    .find(|o| o.job.spec_text() == dep.spec_text())
                    .expect("deps are in the closure");
                assert!(d.wave < cj.wave, "{} before its dependency", cj.job.label());
            }
        }
    }

    const FIG07: &str = "# Fig. 7 — IPC normalised to GTO
bench    GTO    SWL  PCAL-SWL  Poise  Static-Best
   aa  1.000  1.200     1.300  1.100        1.400
   bb  1.000  1.500     1.400  1.250        1.600
H-Mean  1.000  1.333     1.345  1.171        1.497
";

    #[test]
    fn fig07_hmean_is_the_poise_cell() {
        assert_eq!(fig07_poise_hmean(FIG07).unwrap(), 1.171);
        assert!(fig07_poise_hmean("# t\nbench GTO\nH-Mean 1.0\n").is_err());
    }

    #[test]
    fn prediction_error_is_the_mean_of_n_and_p() {
        let text = "# SVII-B\n output   error\n      N   66.9%\n      p  125.9%\nkernels      24\n";
        assert!((pred_err_pct(text).unwrap() - 96.4).abs() < 1e-9);
    }

    #[test]
    fn main_rows_round_trip_through_the_tsv() {
        let tsv = "bench\tscheme\tipc\tl1_hit_rate\taml\tenergy\tdisp_n\tdisp_p\tdisp_euclid\n\
                   ii\tPoise\t1.250000\t0.400000\t512.500\t1000.000\t1.0000\t0.9000\t1.6000\n";
        let rows = parse_main_rows(tsv).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].scheme, "Poise");
        assert_eq!(rows[0].ipc, 1.25);
        assert!(parse_main_rows("h\nx\ty\n").is_err());
    }

    #[test]
    fn stripping_removes_only_the_named_column() {
        let text = "# sm_scaling — all schemes
sms  scheme    IPC  vs GTO  sim Mcyc/s  sim_threads
  2     GTO  0.500   1.000        3.21            1
  2   Poise  0.600   1.200       12.80            1
";
        let stripped = strip_column(text, "sim Mcyc/s").unwrap();
        assert_eq!(
            stripped,
            "# sm_scaling — all schemes
sms  scheme    IPC  vs GTO  sim_threads
  2     GTO  0.500   1.000            1
  2   Poise  0.600   1.200            1
"
        );
        // Two runs differing only in the stripped column compare equal.
        let other = text.replace("3.21", "9.99").replace("12.80", " 7.00");
        assert_eq!(strip_column(&other, "sim Mcyc/s").unwrap(), stripped);
        assert!(strip_column(text, "no such column").is_err());
    }
}
