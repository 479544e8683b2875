//! Minimal dependency-free micro-benchmark helper for the `benches/`
//! binaries (`harness = false`), replacing the external Criterion
//! harness so the workspace builds offline.
//!
//! Methodology: a warmup pass, then `iters` timed runs; the row reports
//! min / median / max wall-clock per run. Medians are robust enough for
//! the coarse "did this get slower by 10×" regressions these benches
//! guard against; rigorous statistics are out of scope by design.
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
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed());
    }
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

    #[test]
    fn black_box_is_identity() {
        assert_eq!(black_box(41) + 1, 42);
        assert_eq!(black_box(String::from("x")), "x");
    }
}
