//! Minimal dependency-free timing helpers for the `benches/` binaries
//! (`harness = false`) and the timed tests, replacing the external
//! Criterion harness so the workspace builds offline.
//!
//! Two helpers, with one rule for gates:
//!
//! * [`bench()`] reports a row: a warmup pass, then `iters` timed runs,
//!   with min / median / max wall-clock per run. Rows record the
//!   trajectory. No gate reads their absolute values, which move with
//!   the host's speed and load.
//! * [`paired_ratio`] decides every timed gate. It times two closures
//!   back to back in each pair, alternating which one runs first, and
//!   returns the median of the per-pair time ratios. A change of host
//!   speed slower than one pair cancels out of each ratio, and the
//!   alternation cancels an order effect such as the second side
//!   finding warm caches. A gate asserts a bound on that median.
//!
//! ## Machine-readable output
//!
//! Passing `--json` to a bench binary (or setting `BDDFC_BENCH_JSON=1`)
//! makes every [`bench()`] row *also* append one JSON line to
//! `BENCH_<target>.json` in the working directory — `schema`, `target`,
//! `name`, `min_ns`, `median_ns`, `max_ns` and the worker-thread count —
//! so the perf trajectory stays comparable across commits. Each binary
//! opts in by calling [`init_json`] with its target name at the top of
//! `main`. An I/O failure while appending is a panic, not a warning:
//! silently dropped rows are indistinguishable from a bench that never
//! ran.

use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Schema version stamped into every JSON row; bump when a field is
/// added, removed or reinterpreted. Matches
/// `bddfc_core::obs::SCHEMA_VERSION` so bench rows and engine telemetry
/// can be joined by a single reader.
pub const SCHEMA_VERSION: u32 = bddfc_core::obs::SCHEMA_VERSION;

/// Destination `(path, target)` of JSON rows, set once by [`init_json`].
static JSON_SINK: Mutex<Option<(String, String)>> = Mutex::new(None);

/// Enables the JSON sink for this process when `--json` appears among the
/// process arguments (unknown cargo-injected flags like `--bench` are
/// ignored) or `BDDFC_BENCH_JSON` is set. Rows append to
/// `BENCH_<target>.json`.
pub fn init_json(target: &str) {
    let wanted = std::env::args().any(|a| a == "--json")
        || std::env::var_os("BDDFC_BENCH_JSON").is_some();
    if wanted {
        *JSON_SINK.lock().unwrap() = Some((format!("BENCH_{target}.json"), target.to_string()));
    }
}

use bddfc_core::obs::json_escape as escape_json;

/// Formats one schema-versioned JSON row for `row`, as appended to
/// `BENCH_<target>.json`. Separated from the I/O so the exact wire
/// format is unit-testable.
pub fn format_row(target: &str, row: &BenchRow, threads: usize) -> String {
    format!(
        "{{\"schema\":{},\"target\":\"{}\",\"name\":\"{}\",\"min_ns\":{},\"median_ns\":{},\"max_ns\":{},\"threads\":{}}}\n",
        SCHEMA_VERSION,
        escape_json(target),
        escape_json(&row.name),
        row.times[0].as_nanos(),
        row.median().as_nanos(),
        row.times[row.times.len() - 1].as_nanos(),
        threads,
    )
}

/// Appends one row to the JSON sink, if enabled. Panics on I/O errors:
/// a bench invoked with `--json` that cannot persist its rows must not
/// pretend it succeeded.
fn emit_json(row: &BenchRow) {
    // Clone the destination out of the lock before doing I/O so a panic
    // below cannot poison the sink for concurrent bench threads.
    let sink = JSON_SINK.lock().unwrap().clone();
    let Some((path, target)) = sink else { return };
    let line = format_row(&target, row, bddfc_core::par::num_threads());
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .unwrap_or_else(|e| panic!("could not append bench row to {path}: {e}"));
}

/// One benchmark row: timings plus the (blackboxed) result of the last run.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Label, e.g. `chase_throughput/Restricted/30`.
    pub name: String,
    /// Per-iteration wall-clock times, sorted ascending.
    pub times: Vec<Duration>,
}

impl BenchRow {
    /// Median per-iteration time.
    pub fn median(&self) -> Duration {
        self.times[self.times.len() / 2]
    }
}

/// Runs `f` once for warmup and `iters` timed times; prints and returns
/// the row. The closure's return value is written to a volatile sink so
/// the optimizer cannot delete the computation.
pub fn bench<T>(name: &str, iters: usize, mut f: impl FnMut() -> T) -> BenchRow {
    black_box(f()); // warmup
    let mut times: Vec<Duration> = (0..iters).map(|_| time(&mut f)).collect();
    times.sort_unstable();
    let row = BenchRow { name: name.to_string(), times };
    emit_json(&row);
    println!(
        "{:<44} min {:>10.3?}  median {:>10.3?}  max {:>10.3?}  ({} iters)",
        row.name,
        row.times[0],
        row.median(),
        row.times[row.times.len() - 1],
        iters
    );
    row
}

/// Times `a` against `b` over `pairs` pairs and returns the median of
/// the per-pair ratios `t_a / t_b`; prints one line with `name`, the
/// median and the quartiles.
///
/// Each side runs once untimed first. Within a pair the two sides run
/// back to back: even pairs run `a` first, odd pairs run `b` first. For
/// an even number of pairs the median is the geometric mean of the two
/// middle ratios, so a ratio and its inverse centre on 1.
pub fn paired_ratio<A, B>(
    name: &str,
    pairs: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> f64 {
    assert!(pairs > 0, "paired_ratio needs at least one pair");
    black_box(a());
    black_box(b());
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (t_a, t_b) = if i % 2 == 0 {
                let t_a = time(&mut a);
                (t_a, time(&mut b))
            } else {
                let t_b = time(&mut b);
                (time(&mut a), t_b)
            };
            t_a.as_secs_f64() / t_b.as_secs_f64()
        })
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    let n = ratios.len();
    let median = if n % 2 == 1 {
        ratios[n / 2]
    } else {
        (ratios[n / 2 - 1] * ratios[n / 2]).sqrt()
    };
    println!(
        "{name:<44} paired median {median:.3}  quartiles {:.3}..{:.3}  ({pairs} pairs)",
        ratios[n / 4],
        ratios[(3 * n) / 4],
    );
    median
}

/// Wall-clock time of one call of `f`, its result black-boxed.
fn time<T>(f: &mut impl FnMut() -> T) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

/// An identity function the optimizer must assume reads and writes its
/// argument (`std::hint::black_box`, re-exported under the historical
/// local name; the workspace MSRV of 1.75 has it stabilized).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut n = 0u64;
        let row = bench("smoke", 5, || {
            n += 1;
            n * 2
        });
        assert_eq!(row.times.len(), 5);
        assert_eq!(n, 6); // warmup + 5 timed iterations
        assert!(row.median() >= row.times[0]);
    }

    #[test]
    fn json_rows_are_schema_versioned() {
        let row = BenchRow {
            name: "chase_throughput/Restricted/30".to_string(),
            times: vec![
                Duration::from_nanos(10),
                Duration::from_nanos(20),
                Duration::from_nanos(30),
            ],
        };
        let line = format_row("chase", &row, 7);
        assert!(line.starts_with("{\"schema\":1,\"target\":\"chase\","), "{line}");
        assert!(line.contains("\"name\":\"chase_throughput/Restricted/30\""));
        assert!(line.contains("\"min_ns\":10,\"median_ns\":20,\"max_ns\":30,\"threads\":7"));
        assert!(line.ends_with("}\n"));
    }

    /// `n` iterations of work the optimizer cannot fold away.
    fn spin(n: u64) -> u64 {
        (0..n).fold(0, |acc, i| black_box(acc ^ i))
    }

    #[test]
    fn paired_ratio_reads_twice_the_work_as_two() {
        let r = paired_ratio("twice", 41, || spin(400_000), || spin(200_000));
        assert!((1.6..=2.4).contains(&r), "{r}");
    }

    #[test]
    fn paired_ratio_alternates_which_side_runs_first() {
        let order = std::cell::RefCell::new(String::new());
        paired_ratio("order", 4, || order.borrow_mut().push('a'), || order.borrow_mut().push('b'));
        // One untimed run of each side, then ab, ba, ab, ba.
        assert_eq!(order.into_inner(), "ababbaabba");
    }

    #[test]
    fn paired_ratio_cancels_an_order_effect() {
        // Each side does the same work and sleeps 2 ms more when it runs
        // first in its pair. Always running `a` first would read about 3.
        let calls = std::cell::Cell::new(0usize);
        let side = || {
            let k = calls.replace(calls.get() + 1);
            let first = k >= 2 && k % 2 == 0;
            std::thread::sleep(Duration::from_millis(if first { 3 } else { 1 }));
        };
        let r = paired_ratio("order effect", 8, side, side);
        assert!((0.8..=1.25).contains(&r), "{r}");
    }

    #[test]
    fn one_pair_gives_that_pairs_ratio() {
        let (t_a, t_b) = (std::cell::Cell::new(0.0), std::cell::Cell::new(0.0));
        let timed = |cell: &std::cell::Cell<f64>, ms| {
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(ms));
            cell.set(t0.elapsed().as_secs_f64());
        };
        let r = paired_ratio("one pair", 1, || timed(&t_a, 10), || timed(&t_b, 5));
        let inner = t_a.get() / t_b.get();
        assert!((r / inner - 1.0).abs() < 0.05, "paired {r} vs the pair's own {inner}");
    }

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(41) + 1, 42);
        assert_eq!(black_box(String::from("x")), "x");
    }
}
