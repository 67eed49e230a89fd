//! The traced run's spans. Job spans come from `ProgressSink` event
//! times: a worker thread takes its next job as soon as it resolves the
//! previous one, so each thread's terminal events partition its time in a
//! wave. A job's span runs from the thread's previous terminal event in
//! the wave (or the wave's start) to its own; the wave ends at its last
//! terminal event, and the next wave starts there. The first wave starts
//! at its first job's execution: what the engine does before dispatching
//! stays in its self time.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use poise::jobs::{JobEvent, JobStatus, ProgressSink};

use crate::layers::{ClosureJob, LAYERS};

/// One recorded lifecycle event.
pub struct Event {
    pub at: Instant,
    pub thread: ThreadId,
    pub hash: String,
    pub status: JobStatus,
}

/// The benchmark's `ProgressSink`: events are kept in memory and turned
/// into spans after the pass.
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl ProgressSink for Recorder {
    fn job_event(&self, e: &JobEvent) {
        let ev = Event {
            at: Instant::now(),
            thread: std::thread::current().id(),
            hash: e.spec_hash.clone(),
            status: e.status,
        };
        self.events.lock().expect("event log").push(ev);
    }
}

impl Recorder {
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("event log"))
    }
}

/// A job's span, in seconds from the pass start.
pub struct JobSpan {
    pub closure_idx: usize,
    pub wave: usize,
    pub thread: usize,
    pub start: f64,
    pub end: f64,
    /// When execution began (after the cache missed); `None` for a hit.
    pub exec_start: Option<f64>,
}

/// The jobs layer of one traced pass.
pub struct JobsTrace {
    pub spans: Vec<JobSpan>,
    /// Core-seconds during which a core idled at the end of a wave while
    /// the wave's stragglers finished.
    pub tail_s: f64,
    /// The part of the engine's span that no job span covers.
    pub self_s: f64,
}

/// Turn a pass's events into job spans. `t0` is the pass start, `run`
/// the engine's span in seconds from it.
pub fn job_spans(
    events: &[Event],
    closure: &[ClosureJob],
    t0: Instant,
    run: (f64, f64),
    nproc: usize,
) -> Result<JobsTrace, String> {
    let by_hash: HashMap<&str, usize> = closure
        .iter()
        .enumerate()
        .map(|(i, c)| (c.hash.as_str(), i))
        .collect();
    let secs = |at: Instant| at.duration_since(t0).as_secs_f64();
    let mut starts: HashMap<&str, f64> = HashMap::new();
    let mut threads: Vec<ThreadId> = Vec::new();
    // (wave, closure idx, thread idx, end)
    let mut terminal: Vec<(usize, usize, usize, f64)> = Vec::new();
    for e in events {
        let idx = *by_hash
            .get(e.hash.as_str())
            .ok_or_else(|| format!("event for job {} outside the closure", e.hash))?;
        if e.status == JobStatus::Started {
            starts.insert(&e.hash, secs(e.at));
        }
        if e.status.is_terminal() {
            let t = match threads.iter().position(|t| *t == e.thread) {
                Some(t) => t,
                None => {
                    threads.push(e.thread);
                    threads.len() - 1
                }
            };
            terminal.push((closure[idx].wave, idx, t, secs(e.at)));
        }
    }
    if terminal.len() != closure.len() {
        return Err(format!(
            "{} terminal events for {} jobs",
            terminal.len(),
            closure.len()
        ));
    }
    terminal.sort_by(|a, b| (a.0, a.3).partial_cmp(&(b.0, b.3)).expect("finite times"));

    let mut spans = Vec::with_capacity(terminal.len());
    let (mut tail_s, mut wave_start, mut covered) = (0.0, run.0, 0.0);
    let mut wave_idx = 0;
    let mut i = 0;
    while i < terminal.len() {
        let wave = terminal[i].0;
        let j = terminal[i..]
            .iter()
            .position(|t| t.0 != wave)
            .map_or(terminal.len(), |n| i + n);
        let members = &terminal[i..j];
        let wave_end = members.iter().map(|m| m.3).fold(wave_start, f64::max);
        let mut last: HashMap<usize, f64> = HashMap::new();
        let mut first_start = wave_end;
        for &(_, idx, thread, end) in members {
            let exec_start = starts.get(closure[idx].hash.as_str()).copied();
            let start = match last.get(&thread) {
                Some(&prev) => prev,
                // The engine expands the graph before the first wave
                // dispatches, unseen by the sink: a thread's first job
                // there starts when it began executing (a hit's lookup is
                // left to the engine's self time).
                None if wave_idx == 0 => exec_start.unwrap_or(end),
                None => wave_start,
            };
            first_start = first_start.min(start);
            spans.push(JobSpan {
                closure_idx: idx,
                wave: wave_idx,
                thread,
                start,
                end,
                exec_start,
            });
            last.insert(thread, end);
        }
        if wave_idx == 0 {
            wave_start = first_start;
        }
        // The engine fans a wave over min(nproc, jobs) threads; a thread
        // that never resolved a job idled for the whole wave.
        let slots = nproc.min(members.len()).max(last.len());
        tail_s += last.values().map(|end| wave_end - end).sum::<f64>()
            + (slots - last.len()) as f64 * (wave_end - wave_start);
        covered += wave_end - wave_start;
        wave_start = wave_end;
        wave_idx += 1;
        i = j;
    }
    Ok(JobsTrace {
        spans,
        tail_s,
        self_s: (run.1 - run.0) - covered,
    })
}

/// A span for the trace file.
pub struct Span {
    pub name: String,
    pub cat: &'static str,
    pub thread: usize,
    pub start: f64,
    pub end: f64,
    pub args: Vec<(&'static str, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Spans of one traced pass: the pass, `plan`, `jobs`, one per job
/// (kind, wave, hit or miss), and one per figure render.
pub fn pass_spans(
    wall: f64,
    plan: (f64, f64),
    run: (f64, f64),
    jobs: &JobsTrace,
    closure: &[ClosureJob],
    renders: &[(&'static str, f64, f64)],
) -> Vec<Span> {
    let mut out = vec![
        Span {
            name: "pass".to_string(),
            cat: "pass",
            thread: 0,
            start: 0.0,
            end: wall,
            args: Vec::new(),
        },
        Span {
            name: "plan".to_string(),
            cat: "plan",
            thread: 0,
            start: plan.0,
            end: plan.1,
            args: Vec::new(),
        },
        Span {
            name: "jobs".to_string(),
            cat: "jobs",
            thread: 0,
            start: run.0,
            end: run.1,
            args: vec![("self_s", format!("{:.6}", jobs.self_s))],
        },
    ];
    for s in &jobs.spans {
        let cj = &closure[s.closure_idx];
        out.push(Span {
            name: cj.job.label(),
            cat: LAYERS[cj.layer].1,
            // Thread 0 carries the pass-level spans; workers follow.
            thread: s.thread + 1,
            start: s.start,
            end: s.end,
            args: vec![
                ("kind", cj.job.kind().to_string()),
                ("wave", s.wave.to_string()),
                (
                    "cache",
                    if s.exec_start.is_some() {
                        "miss"
                    } else {
                        "hit"
                    }
                    .to_string(),
                ),
                (
                    "exec_s",
                    s.exec_start
                        .map_or("0".to_string(), |x| format!("{:.6}", s.end - x)),
                ),
            ],
        });
    }
    for &(name, start, end) in renders {
        out.push(Span {
            name: name.to_string(),
            cat: "figures",
            thread: 0,
            start,
            end,
            args: Vec::new(),
        });
    }
    out
}

/// Chrome trace-event JSON (loadable in Perfetto or `about:tracing`):
/// one process per pass, times in microseconds from its start.
pub fn chrome_json(passes: &[Vec<Span>], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_str(k), json_str(v));
    }
    out.push_str("},\"traceEvents\":[\n");
    let mut first = true;
    for (pid, spans) in passes.iter().enumerate() {
        for s in spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.1},\"dur\":{:.1},\"args\":{{",
                json_str(&s.name),
                json_str(s.cat),
                pid,
                s.thread,
                s.start * 1e6,
                (s.end - s.start) * 1e6
            );
            for (i, (k, v)) in s.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_str(k), json_str(v));
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::closure;
    use poise::jobs::{ModelSpec, SimJob};
    use poise::Setup;
    use std::time::Duration;

    #[test]
    fn spans_partition_each_thread_and_count_the_tail() {
        // Two samples (wave 0) and their fit (wave 1).
        let setup = Setup {
            train_cap_per_benchmark: 1,
            ..Setup::default()
        };
        let mut model = ModelSpec::default_training(&setup);
        model.kernels.truncate(2);
        let jobs = closure(&[SimJob::Train(model)]).unwrap();
        assert_eq!(jobs.len(), 3);
        let t0 = Instant::now();
        let at = |s: f64| t0 + Duration::from_secs_f64(s);
        let (a, b) = (
            std::thread::current().id(),
            std::thread::spawn(|| std::thread::current().id())
                .join()
                .unwrap(),
        );
        let ev = |s: f64, thread, hash: &str, status| Event {
            at: at(s),
            thread,
            hash: hash.to_string(),
            status,
        };
        let (fit, s1, s2) = (&jobs[0].hash, &jobs[1].hash, &jobs[2].hash);
        let events = vec![
            ev(1.1, a, s1, JobStatus::Started),
            ev(1.2, b, s2, JobStatus::Started),
            ev(2.0, b, s2, JobStatus::Done),
            ev(4.0, a, s1, JobStatus::Done),
            ev(4.5, a, fit, JobStatus::Hit),
        ];
        let t = job_spans(&events, &jobs, t0, (1.0, 5.0), 2).unwrap();
        let span = |h: &str| {
            t.spans
                .iter()
                .find(|s| jobs[s.closure_idx].hash == h)
                .unwrap()
        };
        assert!((span(s1).start - 1.1).abs() < 1e-9 && (span(s1).end - 4.0).abs() < 1e-9);
        assert!((span(s2).start - 1.2).abs() < 1e-9 && (span(s2).end - 2.0).abs() < 1e-9);
        assert_eq!(span(s1).wave, 0);
        assert!((span(fit).start - 4.0).abs() < 1e-9 && span(fit).exec_start.is_none());
        // Wave 0 (1.1 s to 4 s): thread b idles 2 s; wave 1 (one job)
        // has no tail. The engine's own time: 1.0–1.1 s and 4.5–5 s.
        assert!((t.tail_s - 2.0).abs() < 1e-9, "{}", t.tail_s);
        assert!((t.self_s - 0.6).abs() < 1e-9, "{}", t.self_s);
        // A missing terminal event is an error, not a silent gap.
        assert!(job_spans(&events[..4], &jobs, t0, (1.0, 5.0), 2).is_err());
    }

    #[test]
    fn trace_json_escapes_names() {
        let spans = vec![Span {
            name: "run[\"x\"]".to_string(),
            cat: "experiment.run",
            thread: 1,
            start: 0.5,
            end: 1.5,
            args: vec![("kind", "run".to_string())],
        }];
        let json = chrome_json(&[spans], &[("workload", "eval-long".to_string())]);
        assert!(json.contains("\"name\":\"run[\\\"x\\\"]\""));
        assert!(json.contains("\"ts\":500000.0,\"dur\":1000000.0"));
    }
}
