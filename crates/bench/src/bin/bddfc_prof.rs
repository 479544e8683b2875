//! `bddfc-prof` — hierarchical span profiler over the zoo workloads.
//!
//! Runs one workload with every engine wired to a recording
//! [`Memory`] sink, then renders the per-rule /
//! per-predicate attribution tables, the span tree, a log2 latency
//! histogram, and (on request) a collapsed-stack flamegraph file and a
//! JSONL trace.
//!
//! ```text
//! bddfc-prof --list
//! bddfc-prof --workload e13
//! bddfc-prof --workload e13 --flame e13.folded --trace e13.jsonl
//! bddfc-prof --workload e13 --check      # deterministic output + invariants
//! ```
//!
//! `--check` suppresses every gauge-derived number (wall times,
//! percentages, the histogram) so its stdout is byte-identical at any
//! `BDDFC_THREADS` setting, and cross-checks the telemetry against the
//! engines' legacy counters; any violation exits nonzero.

use bddfc_bench::prof::{run_workload, Report, WORKLOADS};
use bddfc_core::obs::Memory;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    list: bool,
    check: bool,
    flame: Option<String>,
    trace: Option<String>,
    cap: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: bddfc-prof --workload <name> [--check] [--flame PATH] [--trace PATH] [--cap N]\n\
         \x20      bddfc-prof --list\n\
         \n\
         --workload <name>  zoo workload to profile (see --list)\n\
         --check            deterministic output only; verify telemetry invariants\n\
         --flame PATH       write collapsed stacks (flamegraph.pl / inferno format)\n\
         --trace PATH       write the recorded telemetry as JSON lines\n\
         --cap N            event/span log capacity (default 65536)\n\
         --list             list available workloads"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        list: false,
        check: false,
        flame: None,
        trace: None,
        cap: 1 << 16,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        });
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--flame" => args.flame = Some(value("--flame")),
            "--trace" => args.trace = Some(value("--trace")),
            "--cap" => {
                args.cap = value("--cap").parse().unwrap_or_else(|e| {
                    eprintln!("--cap: {e}");
                    usage()
                })
            }
            "--check" => args.check = true,
            "--list" => args.list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.list {
        println!("available workloads:");
        for &(name, summary) in WORKLOADS {
            println!("  {name:<10} {summary}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload.as_deref() else { usage() };

    let sink = Memory::new(args.cap);
    let Some(run) = run_workload(workload, &sink) else {
        eprintln!("unknown workload {workload:?}; try --list");
        return ExitCode::from(2);
    };
    if sink.dropped() > 0 || sink.spans_dropped() > 0 {
        eprintln!(
            "warning: log capacity {} exceeded ({} events, {} spans dropped); \
             raise --cap for a complete profile",
            args.cap,
            sink.dropped(),
            sink.spans_dropped()
        );
    }
    let report = Report::new(&sink, run, !args.check);

    println!("workload: {workload}");
    println!();
    print!("{}", report.render_tables());
    print!("{}", report.render_span_tree());
    if !args.check {
        println!();
        print!("{}", report.render_histogram());
    }

    if let Some(path) = &args.flame {
        let folded = report.render_folded();
        if let Err(e) = std::fs::write(path, &folded) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
        println!("wrote {} collapsed stacks to {path}", folded.lines().count());
    }
    if let Some(path) = &args.trace {
        if let Err(e) = std::fs::write(path, report.render_trace()) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote telemetry trace to {path}");
    }

    if args.check {
        println!();
        match report.reconcile() {
            Ok(lines) => {
                for l in lines {
                    println!("check: {l}");
                }
                println!("check: ok");
            }
            Err(e) => {
                eprintln!("check FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
