//! Timing loop, percentiles, peak memory and the run fingerprint.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest timed operations per run: the p90 then has at least ten
/// samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// What one timed phase measured.
pub struct Samples {
    /// Wall time of each operation, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// When each operation's reply was checked, in seconds since the
    /// timed phase began.
    pub done_s: Vec<f64>,
    /// Operations whose reply failed its check.
    pub failed: u64,
}

/// A closed loop with one client: runs `op(i)` back to back for
/// `seconds` (and at least [`MIN_SAMPLES`] times), timing each call, and
/// checks each reply with `check(i, &reply)` outside the per-operation
/// time.
pub fn closed_loop<R>(
    seconds: u64,
    mut op: impl FnMut(usize) -> R,
    mut check: impl FnMut(usize, &R) -> bool,
) -> Samples {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut lat_ms = Vec::new();
    let mut done_s = Vec::new();
    let mut failed = 0;
    for i in 0.. {
        let t = Instant::now();
        let reply = std::hint::black_box(op(i));
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !check(i, &reply) {
            failed += 1;
        }
        done_s.push(start.elapsed().as_secs_f64());
        if start.elapsed() >= budget && lat_ms.len() >= MIN_SAMPLES {
            break;
        }
    }
    Samples {
        lat_ms,
        done_s,
        failed,
    }
}

/// Groups the throughput is taken over.
const RATE_GROUPS: usize = 10;

impl Samples {
    /// Operations per second of the timed phase: the median over
    /// [`RATE_GROUPS`] runs of consecutive operations of each run's
    /// operations divided by its wall time, so one slow stretch of the
    /// phase does not set the figure.
    pub fn ops_per_s(&self) -> f64 {
        let n = self.done_s.len();
        let rates: Vec<f64> = (0..RATE_GROUPS)
            .map(|g| (g * n / RATE_GROUPS, (g + 1) * n / RATE_GROUPS))
            .filter(|(a, b)| b > a)
            .map(|(a, b)| {
                let from = if a == 0 { 0.0 } else { self.done_s[a - 1] };
                (b - a) as f64 / (self.done_s[b - 1] - from)
            })
            .collect();
        median(&rates)
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`, and how many samples
/// lie strictly beyond its rank.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0).0
}

/// Runs `f` `reps` times and returns each run's wall time in seconds and
/// the last result (earlier results are dropped before the next run).
pub fn timed_reps<R>(reps: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (times, last.expect("reps >= 1"))
}

/// Times `reps` more set-ups with `f` and returns the median of them and
/// `before`. Set-ups timed before and after the timed phase sample the
/// machine at two moments of the run.
pub fn setup_median<R>(mut before: Vec<f64>, reps: usize, f: impl FnMut() -> R) -> f64 {
    before.extend(timed_reps(reps, f).0);
    median(&before)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository root (the parent of this package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The run fingerprint: pinned thread count, cores, build profile,
/// source revision and the run's own arguments, as one JSON object.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let root = repo_root();
    let git = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("none".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"bddfc_threads\":{},\"nproc\":{nproc},\"profile\":\"{profile}\",\"git_rev\":\"{git}\",\
         \"src_digest\":\"{:016x}\",\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"trace\":{trace}}}",
        bddfc_core::par::num_threads(),
        source_digest(&root)
    )
}

/// FNV-1a over the workspace sources (paths and contents, in sorted
/// order): identifies the code under test where no git metadata exists.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), (90.0, 10));
        assert_eq!(percentile(&xs, 50.0), (50.0, 50));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn closed_loop_runs_at_least_min_samples() {
        let s = closed_loop(0, |i| i, |_, _| true);
        assert_eq!(s.lat_ms.len(), MIN_SAMPLES);
        assert_eq!(s.failed, 0);
        assert!(s.ops_per_s() > 0.0);
    }
}
