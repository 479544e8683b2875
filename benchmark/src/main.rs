//! End-to-end and per-layer benchmark for the bddfc workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it runs one timed workload and prints its end-to-end
//! metrics; with `--trace 1` it runs the traced replay of all four
//! workloads and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md for the workloads and what each metric should move.

mod inputs;
mod measure;
mod replica;
mod timed;
mod traced;
mod tracer;

use measure::percentile;
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["serve_read", "serve_write", "chase_e13", "fc_pipeline"];

/// Thread count every workload runs at (this benchmark's runner has two
/// cores, and two is the library's default there).
const THREADS: &str = "2";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

fn timed_run(args: &Args) -> String {
    let out = match args.workload.as_str() {
        "serve_read" => timed::serve_read(args.seed, args.seconds),
        "serve_write" => timed::serve_write(args.seed, args.seconds),
        "chase_e13" => timed::chase_e13(args.seed, args.seconds),
        _ => timed::fc_pipeline(args.seed, args.seconds),
    };
    let s = &out.samples;
    let n = s.lat_ms.len();
    let (p50, _) = percentile(&s.lat_ms, 50.0);
    let (p90, beyond) = percentile(&s.lat_ms, 90.0);
    println!(
        "# samples={n} beyond_p90={beyond} checks_after_timing={}",
        out.extra.0
    );
    let attempted = n as u64 + out.extra.0;
    let failed = s.failed + out.extra.1;
    let metrics = [
        ("setup_s".to_string(), out.setup_s, "s"),
        ("ops_per_s".to_string(), s.ops_per_s(), "1/s"),
        ("latency_p50_ms".to_string(), p50, "ms"),
        ("latency_p90_ms".to_string(), p90, "ms"),
        ("peak_rss_mb".to_string(), measure::peak_rss_mb(), "MB"),
    ];
    result_line(attempted, failed, &metrics)
}

fn traced_run(args: &Args) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let rep = traced::run(args.seed, &mut file)?;
    std::io::Write::flush(&mut file)?;
    println!("# spans written to {path}");
    Ok(result_line(rep.attempted, rep.failed, &rep.metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bddfc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin the thread count before any library call reads it.
    std::env::set_var("BDDFC_THREADS", THREADS);
    println!(
        "# fingerprint {}",
        measure::fingerprint(&args.workload, args.seed, args.seconds, args.trace)
    );
    let line = if args.trace {
        match traced_run(&args) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("bddfc-benchmark: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        timed_run(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
