//! Integration tests for `bddfc-serve`: the incremental chase service.
//!
//! Covers the PR's acceptance criteria end to end:
//! * the E13 workload answers an insert-then-query session without
//!   re-running already-applied chase rounds (obs round counters);
//! * interleaved insert/query/retract sessions are byte-identical at
//!   1, 2 and 7 worker threads;
//! * the golden transcript fixture under `tests/serve/` replays
//!   in-process;
//! * a misconfigured `BDDFC_THREADS` kills the binary at startup with a
//!   message naming the offending value.

use bddfc_core::obs::metrics::MetricsSnapshot;
use bddfc_core::obs::Memory;
use bddfc_core::{par, Atom, Program, Rule, Term, Theory, Vocabulary};
use bddfc_serve::{transcript, ServeConfig, Server};
use bddfc_zoo::generate::random_graph;
use std::process::{Command, Output, Stdio};

/// The transitive-closure theory `E(X,Y), E(Y,Z) -> E(X,Z)` over a
/// fresh vocabulary's binary `E`.
fn tc_program(voc: &mut Vocabulary) -> (Theory, bddfc_core::PredId) {
    let e = voc.pred("E", 2);
    let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
    let rule = Rule::single(
        vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ],
        Atom::new(e, vec![Term::Var(x), Term::Var(z)]),
    );
    (Theory::new(vec![rule]), e)
}

/// `("chase", "round")` events seen so far — one per applied round.
fn rounds(sink: &Memory) -> u64 {
    sink.event_counts()
        .iter()
        .find(|(k, _)| *k == ("chase", "round"))
        .map_or(0, |&(_, n)| n)
}

/// Acceptance criterion: on the E13 workload (TC over
/// `random_graph(60, 180, 13)`), an insert re-fires only the delta —
/// the second query is answered without re-running the rounds the load
/// already applied, and queries themselves run zero chase rounds.
#[test]
fn e13_insert_then_query_reuses_applied_rounds() {
    let mut voc = Vocabulary::new();
    let graph = random_graph(&mut voc, 60, 180, 13);
    let (theory, _) = tc_program(&mut voc);
    let program = Program { voc, theory, instance: graph, queries: Vec::new() };

    let sink = Memory::new(1 << 16);
    let server = Server::with_sink(&program, ServeConfig::default(), &sink);
    let loaded = rounds(&sink);
    assert!(loaded >= 2, "the initial closure must run real rounds, got {loaded}");

    assert_eq!(transcript(&server, "query E(v0,v0)\n").trim(), "true");
    assert_eq!(rounds(&sink), loaded, "a query must run zero chase rounds");

    // A new node wired into the closed graph: the delta re-closes in a
    // couple of rounds instead of re-running the whole load.
    let t = transcript(&server, "insert E(u,v0).\n");
    assert!(t.starts_with("ok epoch=2"), "{t}");
    let delta = rounds(&sink) - loaded;
    assert!(
        delta >= 1 && delta < loaded,
        "insert must resume incrementally: {delta} delta rounds vs {loaded} at load"
    );

    let after_insert = rounds(&sink);
    assert_eq!(transcript(&server, "query E(u,v0)\n").trim(), "true");
    assert_eq!(
        rounds(&sink),
        after_insert,
        "the post-insert query must be answered from the resident instance"
    );
}

/// Interleaved insert/query/retract sessions produce byte-identical
/// responses at 1, 2 and 7 worker threads (the in-process override
/// behind `BDDFC_THREADS`).
#[test]
fn interleaved_sessions_are_byte_identical_across_thread_counts() {
    let mut voc = Vocabulary::new();
    let (theory, _) = tc_program(&mut voc);
    let program =
        Program { voc, theory, instance: bddfc_core::Instance::new(), queries: Vec::new() };
    let script = "insert E(a,b). E(b,c).\n\
                  query E(a,c)\n\
                  insert E(c,d). E(d,e).\n\
                  query E(a,e)\n\
                  retract E(b,c).\n\
                  query E(a,e)\n\
                  query E(c,e)\n\
                  stats\n\
                  quit\n";
    let run = |threads: usize| {
        par::with_thread_count(threads, || {
            let server = Server::new(&program, ServeConfig::default());
            transcript(&server, script)
        })
    };
    let one = run(1);
    assert!(one.contains("true") && one.contains("false"), "{one}");
    for threads in [2usize, 7] {
        assert_eq!(one, run(threads), "session responses diverged at {threads} threads");
    }
}

/// Satellite: `stats` answers one schema-versioned JSON line whose
/// shape is pinned here field by field.
#[test]
fn stats_is_one_schema_versioned_json_line() {
    let mut voc = Vocabulary::new();
    let (theory, _) = tc_program(&mut voc);
    let program =
        Program { voc, theory, instance: bddfc_core::Instance::new(), queries: Vec::new() };
    let server = Server::new(&program, ServeConfig::default());
    let t = transcript(&server, "insert E(a,b). E(b,c).\nquery E(a,c)\nstats\n");
    let stats = t.lines().last().unwrap();
    assert_eq!(
        stats,
        "{\"schema\":1,\"epoch\":1,\"facts\":3,\"base\":2,\"segments\":1,\
         \"rounds_total\":2,\"fixpoint\":true,\"inserts\":1,\"retracts\":0,\"queries\":1}",
        "{t}"
    );
}

/// Satellite: the `explain` protocol command is covered end to end,
/// including its per-command latency histogram bucket — two explains
/// (one resident, one not) land as two observations under
/// `command="explain"`, and the failed one counts as an error.
#[test]
fn explain_requests_hit_their_latency_histogram_bucket() {
    let mut voc = Vocabulary::new();
    let (theory, _) = tc_program(&mut voc);
    let program =
        Program { voc, theory, instance: bddfc_core::Instance::new(), queries: Vec::new() };
    let server = Server::new(&program, ServeConfig::default());
    let t = transcript(
        &server,
        "insert E(a,b). E(b,c).\nexplain E(a,c)\nexplain E(c,a)\nmetrics\n",
    );
    assert!(t.contains("ok depth=1"), "{t}");
    assert!(t.contains("err not resident: E(c,a)"), "{t}");

    let snap = server.metrics_snapshot().expect("metrics on by default");
    let explain = Some(("command", "explain"));
    assert_eq!(snap.counter("bddfc_requests_total", explain), 2);
    assert_eq!(snap.counter("bddfc_request_errors_total", explain), 1);
    assert_eq!(
        snap.histogram_count("bddfc_request_latency_ns", explain),
        2,
        "each explain must land one latency observation"
    );

    // The `metrics` protocol reply is one JSON line: deterministic
    // prefix first, every timing-derived datum in the trailing object.
    let mline = t.lines().find(|l| l.starts_with("{\"schema\":1,\"counters\"")).unwrap();
    assert!(mline.contains(",\"timing\":{"), "{mline}");
}

/// The timing-free projection of a Prometheus scrape: drops the
/// `_ns`-named families (the naming rule for timing-derived series)
/// and the `bddfc_slowlog_*` family (timing-dependent by nature).
fn deterministic_prometheus(snap: &MetricsSnapshot) -> String {
    snap.to_prometheus()
        .lines()
        .filter(|l| !l.contains("_ns") && !l.contains("bddfc_slowlog"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Acceptance criterion: metrics snapshots — the JSON command's
/// deterministic form and the Prometheus scrape with timing-derived
/// families excluded — are byte-identical at 1, 2 and 7 worker
/// threads, alongside the session transcript itself.
#[test]
fn metrics_snapshots_are_byte_identical_across_thread_counts() {
    let mut voc = Vocabulary::new();
    let (theory, _) = tc_program(&mut voc);
    let program =
        Program { voc, theory, instance: bddfc_core::Instance::new(), queries: Vec::new() };
    let script = "insert E(a,b). E(b,c).\n\
                  query E(a,c)\n\
                  insert E(c,d). E(d,e).\n\
                  explain E(a,e)\n\
                  retract E(b,c).\n\
                  query E(a,e)\n\
                  bogus\n\
                  stats\n\
                  quit\n";
    let run = |threads: usize| {
        par::with_thread_count(threads, || {
            let server = Server::new(&program, ServeConfig::default());
            let t = transcript(&server, script);
            let snap = server.metrics_snapshot().expect("metrics on by default");
            (t, snap.to_json_deterministic(), deterministic_prometheus(&snap))
        })
    };
    let one = run(1);
    assert!(one.1.starts_with("{\"schema\":1,\"counters\":{"), "{}", one.1);
    assert!(one.1.contains("bddfc_dred_overdeleted_total"), "{}", one.1);
    assert!(one.2.contains("bddfc_requests_total{command=\"query\"} 2"), "{}", one.2);
    assert!(one.2.contains("bddfc_chase_rounds_total"), "{}", one.2);
    for threads in [2usize, 7] {
        let other = run(threads);
        assert_eq!(one.0, other.0, "transcript diverged at {threads} threads");
        assert_eq!(one.1, other.1, "metrics JSON diverged at {threads} threads");
        assert_eq!(one.2, other.2, "Prometheus scrape diverged at {threads} threads");
    }
}

/// The slow-query log records threshold crossers with span trees and
/// serves them back through the `slowlog` protocol command.
#[test]
fn slowlog_records_and_dumps_threshold_crossers() {
    let mut voc = Vocabulary::new();
    let (theory, _) = tc_program(&mut voc);
    let program =
        Program { voc, theory, instance: bddfc_core::Instance::new(), queries: Vec::new() };
    // Threshold 0 ms: everything is slow.
    let config = ServeConfig { slow_ms: Some(0), ..ServeConfig::default() };
    let server = Server::new(&program, config);
    let t = transcript(&server, "insert E(a,b). E(b,c).\nquery E(a,c)\nslowlog\n");
    let lines: Vec<&str> = t.lines().collect();
    // insert + query recorded; the slowlog dump itself is not yet in
    // the ring it prints.
    assert_eq!(lines[2], "ok n=2", "{t}");
    assert!(lines[3].contains("\"command\":\"insert\""), "{t}");
    assert!(lines[3].contains("\"spans\":[") && lines[3].contains("\"rules\":["), "{t}");
    assert!(lines[4].contains("\"command\":\"query\""), "{t}");

    // A threshold nothing crosses records nothing.
    let quiet = Server::new(
        &program,
        ServeConfig { slow_ms: Some(60_000), ..ServeConfig::default() },
    );
    let t = transcript(&quiet, "insert E(a,b).\nslowlog\n");
    assert!(t.lines().nth(1) == Some("ok n=0"), "{t}");

    // Disabled log names the flag that turns it on.
    let off = Server::new(&program, ServeConfig::default());
    let t = transcript(&off, "slowlog\n");
    assert_eq!(t.trim(), "err slowlog disabled (start with --slow-ms)");
}

/// The `analyze` protocol command returns the load-time static
/// analysis as one JSON line: a termination certificate for the
/// (weakly acyclic) TC theory, a cost model, and lints — byte-identical
/// across thread counts and equal to the server's stored line.
#[test]
fn analyze_command_returns_one_json_line() {
    let mut voc = Vocabulary::new();
    let (theory, _) = tc_program(&mut voc);
    let program =
        Program { voc, theory, instance: bddfc_core::Instance::new(), queries: Vec::new() };
    let run = |threads: usize| {
        par::with_thread_count(threads, || {
            let server = Server::new(&program, ServeConfig::default());
            let t = transcript(&server, "insert E(a,b). E(b,c).\nanalyze\n");
            assert_eq!(t.lines().last(), Some(server.analysis_json()), "{t}");
            t
        })
    };
    let one = run(1);
    let line = one.lines().last().unwrap();
    assert!(line.starts_with("{\"schema\":1,\"program\":\"load\","), "{line}");
    assert!(!line.contains('\n'), "{line}");
    // Datalog TC is trivially weakly acyclic: a certificate must exist.
    assert!(line.contains("\"termination\":{"), "{line}");
    assert!(line.contains("\"cost\":{"), "{line}");
    for threads in [2usize, 7] {
        assert_eq!(one, run(threads), "analyze output diverged at {threads} threads");
    }
}

/// The checked-in golden transcript replays in-process: same commands,
/// same bytes. `ci.sh` replays the same fixture through the binary.
#[test]
fn golden_transcript_replays_in_process() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/serve");
    let src = std::fs::read_to_string(format!("{dir}/session.dlg")).unwrap();
    let commands = std::fs::read_to_string(format!("{dir}/session.commands")).unwrap();
    let golden = std::fs::read_to_string(format!("{dir}/session.golden")).unwrap();
    let program = bddfc_core::parse_program(&src).unwrap();
    let server = Server::new(&program, ServeConfig::default());
    assert_eq!(transcript(&server, &commands), golden);
}

/// Runs the `bddfc-serve` binary with the given environment, stdin
/// closed, against the golden program fixture.
fn serve_with_env(envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["run", "-q", "-p", "bddfc-serve", "--bin", "bddfc-serve", "--"])
        .arg("tests/serve/session.dlg")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null());
    for &(k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("cargo run bddfc-serve")
}

/// Satellite: non-numeric and zero `BDDFC_THREADS` are rejected loudly
/// instead of being treated as "no override".
#[test]
fn bad_threads_env_fails_loudly_at_startup() {
    for bad in ["abc", "0"] {
        let out = serve_with_env(&[("BDDFC_THREADS", bad)]);
        assert!(!out.status.success(), "BDDFC_THREADS={bad} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("BDDFC_THREADS must be a positive integer, got `{bad}`")),
            "BDDFC_THREADS={bad}: {stderr}"
        );
    }
}
