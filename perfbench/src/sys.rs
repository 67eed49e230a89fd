//! Process resource usage and the host block, read without touching the
//! file system: `getrusage(2)` for CPU time and peak RSS, `cpuid` for the
//! CPU model.

use std::path::Path;
use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets: two timevals
/// followed by fourteen longs, of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for the duration of
    // the call (layout above), and RUSAGE_SELF is always a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    r
}

/// User plus system CPU time of this process so far, all threads.
pub fn cpu_time() -> Duration {
    let r = rusage();
    let us = |t: &Timeval| Duration::from_micros((t.sec * 1_000_000 + t.usec) as u64);
    us(&r.utime) + us(&r.stime)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU brand string from `cpuid` leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // The extended leaves are only read after leaf 0x8000_0000 reports
    // them.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

/// The host block recorded with every result: core count, CPU model,
/// compiler, and the identity of the measured source tree.
pub fn host_block() -> String {
    format!(
        "nproc={} cpu=\"{}\" rustc=\"{}\" commit={} source_sha256={}",
        nproc(),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
        source_digest()
    )
}

/// `HEAD` when the checkout is a git work tree, else `none`, read from
/// `.git` directly so that nothing outside the checkout is consulted.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        }),
        None => Some(head.to_string()),
    };
    match commit.map(|c| c.trim().to_string()) {
        Some(c) if c.len() >= 12 && c.bytes().all(|b| b.is_ascii_hexdigit()) => c[..12].to_string(),
        _ => "none".to_string(),
    }
}

/// SHA-256 over the workspace's manifests and sources (path and bytes of
/// each file, in path order): names the measured code even where the
/// checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        std::path::PathBuf::from("Cargo.toml"),
        std::path::PathBuf::from("Cargo.lock"),
    ];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.sort();
    let mut h = poise::cache::Sha256::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.update(f.to_string_lossy().as_bytes());
            h.update(&bytes);
        }
    }
    h.finish_hex()[..16].to_string()
}
