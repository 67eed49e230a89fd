//! The identity oracle: every job of the smoke plan's dependency closure,
//! identified once through one shared [`JobIds`] memo (as the engine
//! does), must carry exactly the identity a from-scratch render gives it —
//! spec text, spec hash and cache key.

use std::collections::{HashMap, HashSet};

use poise::cache::sha256_hex;
use poise::jobs::{graph_closure, JobIds, SimJob, CACHE_VERSION};
use poise::plan::KnobOverlay;
use poise_bench::figures::plan_jobs;

/// The CI bench-smoke knobs.
const SMOKE: [&str; 4] = ["sms=2", "kernels_cap=1", "train_cap=3", "run_cycles=20000"];

#[test]
fn memoised_identities_match_from_scratch_renders() {
    let sets: Vec<String> = SMOKE.iter().map(|s| s.to_string()).collect();
    let planned = plan_jobs(KnobOverlay::default(), &sets, &[], None, false).expect("smoke plan");

    // The closure, deduplicated by the from-scratch text.
    let mut closure: Vec<(SimJob, String)> = Vec::new();
    let mut seen = HashSet::new();
    let mut worklist = planned.jobs.clone();
    while let Some(job) = worklist.pop() {
        let text = job.spec_text();
        if seen.insert(text.clone()) {
            worklist.extend(job.deps());
            closure.push((job, text));
        }
    }
    assert!(
        closure.len() > 400,
        "the smoke closure has {} jobs",
        closure.len()
    );

    let mut ids = JobIds::default();
    let digests = "dep 0123\ndep tuples swl=(2, 2) best=(4, 1)\n";
    let mut by_hash = HashMap::new();
    for (job, text) in &closure {
        let id = ids.id(job);
        assert_eq!(id.text(), text, "{}", job.label());
        assert_eq!(id.hex(), sha256_hex(text), "{}", job.label());
        assert_eq!(
            id.cache_key(digests),
            sha256_hex(&format!("{CACHE_VERSION}\n{text}--deps--\n{digests}")),
            "{}",
            job.label()
        );
        // Distinct texts never share a memo entry.
        assert!(
            by_hash.insert(*id.hash(), text).is_none(),
            "{}",
            job.label()
        );
    }

    // The engine's own expansion reaches the same identity set.
    let engine: HashSet<String> = graph_closure(&planned.jobs)
        .into_iter()
        .map(|(hash, _)| hash)
        .collect();
    let scratch: HashSet<String> = closure.iter().map(|(_, t)| sha256_hex(t)).collect();
    assert_eq!(engine, scratch);
}
