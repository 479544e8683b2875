//! Profiler acceptance suite: `bddfc-prof`'s `--check` report must be
//! byte-identical across thread counts, its attribution must reconcile
//! with the legacy `ChaseStats` counters, the collapsed-stack output
//! must be well-formed, and the `bddfc-prof` CLI must pass its smoke
//! run.

use bddfc::core::par;
use bddfc_bench::prof::{run_workload, Report};
use bddfc_core::obs::Memory;
use std::process::Command;

const THREADS: [usize; 3] = [1, 2, 7];

/// Runs a workload and renders everything deterministic (`--check`
/// mode): tables, span tree, reconciliation lines.
fn check_render(workload: &str, threads: usize) -> String {
    par::with_thread_count(threads, || {
        let sink = Memory::new(1 << 16);
        let run = run_workload(workload, &sink).expect("known workload");
        assert_eq!(sink.dropped(), 0, "{workload}: raise the test capacity");
        let report = Report::new(&sink, run, false);
        let checks = report.reconcile().expect("telemetry invariants hold");
        format!(
            "{}{}{}",
            report.render_tables(),
            report.render_span_tree(),
            checks.join("\n")
        )
    })
}

#[test]
fn check_reports_are_byte_identical_across_thread_counts() {
    for workload in ["e13", "example1", "saturate", "rewrite"] {
        let base = check_render(workload, THREADS[0]);
        for &t in &THREADS[1..] {
            assert_eq!(
                base,
                check_render(workload, t),
                "{workload}: --check report differs at {t} threads"
            );
        }
    }
}

#[test]
fn e13_profile_reconciles_with_chase_stats() {
    let sink = Memory::new(1 << 16);
    let run = run_workload("e13", &sink).expect("e13 exists");
    let stats = run.chase_stats.clone().expect("e13 chases");
    let total = stats.total_body_matches();
    assert!(total > 0);
    // The per-rule trigger events must account for every body match the
    // legacy counters saw, and the per-round summaries must agree.
    let sum = |name: &str| -> u64 {
        sink.events()
            .iter()
            .filter(|e| e.engine == "chase" && e.name == name)
            .filter_map(|e| e.field("body_matches"))
            .sum()
    };
    assert_eq!(sum("trigger"), total, "per-rule attribution leaks body matches");
    assert_eq!(sum("round"), total, "per-round summaries leak body matches");
    // And the rendered table shows the one transitivity rule.
    let report = Report::new(&sink, run, true);
    let tables = report.render_tables();
    assert!(tables.contains("E(X,Y), E(Y,Z) -> E(X,Z)"), "{tables}");
    report.reconcile().expect("reconciliation passes");
}

#[test]
fn folded_flamegraph_output_is_wellformed() {
    let sink = Memory::new(1 << 16);
    let run = run_workload("e13", &sink).expect("e13 exists");
    let folded = Report::new(&sink, run, true).render_folded();
    assert!(!folded.is_empty());
    let mut saw_round = false;
    for line in folded.lines() {
        // Collapsed-stack format: `frame;frame;frame <weight>` — one
        // space, splitting stack from an integer weight; frames carry
        // no spaces or empty segments.
        let (stack, weight) = line.rsplit_once(' ').expect("stack and weight");
        assert!(weight.parse::<u64>().is_ok(), "non-integer weight in {line:?}");
        assert!(!stack.contains(' '), "space inside a frame in {line:?}");
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "empty frame in {line:?}");
        }
        saw_round |= stack.starts_with("chase/run;chase/round[");
    }
    assert!(saw_round, "expected chase/round stacks in:\n{folded}");
}

/// `cargo run -p bddfc-bench --bin bddfc-prof -- --workload e13 --check`
/// is the CI smoke run the README documents; keep it green from inside
/// `cargo test`.
#[test]
fn prof_cli_check_smoke() {
    let out = Command::new(env!("CARGO"))
        .args(["run", "-q", "-p", "bddfc-bench", "--bin", "bddfc-prof", "--"])
        .args(["--workload", "e13", "--check"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo run bddfc-prof");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "bddfc-prof --check failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("check: ok"), "{stdout}");
    assert!(stdout.contains("profile — chase/trigger by rule"), "{stdout}");
}
