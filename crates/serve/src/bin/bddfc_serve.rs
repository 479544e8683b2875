//! `bddfc-serve` — serve a Datalog∃ program incrementally.
//!
//! ```text
//! bddfc-serve [PROGRAM.dlg] [--tcp ADDR]
//!             [--max-rounds N] [--max-facts N] [--deny-unbounded]
//!             [--metrics-tcp ADDR] [--no-metrics]
//!             [--slow-ms N] [--slow-log FILE]
//! ```
//!
//! Loads `PROGRAM.dlg` (rules + initial facts; optional — without it the
//! service starts empty and rule-free), chases the initial facts, then
//! speaks the line protocol of `bddfc_serve::proto` on stdin/stdout.
//! With `--tcp ADDR` it instead listens on `ADDR` and serves each
//! connection as its own session over one shared instance — reads are
//! snapshot-isolated, so sessions never observe each other's
//! half-applied mutations.
//!
//! At load the program runs through `bddfc-analyze`. When the analyzer
//! certifies termination (weak acyclicity) and `--max-rounds` was not
//! given, the round budget is sized from the certified bound — raised
//! to `round_bound + 1` when that exceeds the default, so a certified
//! program always closes to fixpoint. When no certificate exists the
//! service warns on stderr (mutations may stop at the budget), or
//! refuses to start under `--deny-unbounded`. The `analyze` protocol
//! command returns the full analysis as one JSON line.
//!
//! `--metrics-tcp ADDR` additionally serves Prometheus text exposition
//! over a hand-rolled HTTP/1.0 endpoint on `ADDR` (`0` or
//! `127.0.0.1:0` for an ephemeral port; the bound address is announced
//! on stderr as `bddfc-serve: metrics on ADDR`). `--no-metrics` turns
//! the registry off entirely. `--slow-ms N` arms the slow-query log at
//! an `N`-millisecond threshold (dump it with the `slowlog` command);
//! `--slow-log FILE` also streams every slow entry to `FILE` as JSONL,
//! lossily — write failures are counted, never fatal.

use bddfc_core::parser::Program;
use bddfc_serve::{run_session, ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: bddfc-serve [PROGRAM.dlg] [--tcp ADDR] \
         [--max-rounds N] [--max-facts N] [--deny-unbounded] \
         [--metrics-tcp ADDR] [--no-metrics] [--slow-ms N] [--slow-log FILE]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    // Fail a misconfigured `BDDFC_THREADS` loudly at startup, not
    // mid-session on the first chase round.
    let _ = bddfc_core::par::num_threads();

    let mut program_path: Option<String> = None;
    let mut config = ServeConfig::default();
    let mut tcp: Option<String> = None;
    let mut metrics_tcp: Option<String> = None;
    let mut slow_log: Option<String> = None;
    let mut deny_unbounded = false;
    let mut max_rounds_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-unbounded" => deny_unbounded = true,
            "--tcp" => tcp = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-tcp" => metrics_tcp = Some(args.next().unwrap_or_else(|| usage())),
            "--no-metrics" => config.metrics = false,
            "--slow-ms" => {
                let v = args.next().unwrap_or_else(|| usage());
                config.slow_ms = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--slow-log" => slow_log = Some(args.next().unwrap_or_else(|| usage())),
            "--max-rounds" => {
                let v = args.next().unwrap_or_else(|| usage());
                config.max_rounds = v.parse().unwrap_or_else(|_| usage());
                max_rounds_set = true;
            }
            "--max-facts" => {
                let v = args.next().unwrap_or_else(|| usage());
                config.max_facts = v.parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => {
                if program_path.replace(other.to_string()).is_some() {
                    usage();
                }
            }
        }
    }

    let program = match &program_path {
        None => Program {
            voc: bddfc_core::Vocabulary::new(),
            theory: bddfc_core::Theory::default(),
            instance: bddfc_core::Instance::new(),
            queries: Vec::new(),
        },
        Some(path) => {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bddfc-serve: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match bddfc_core::parse_program(&src) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("bddfc-serve: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    // Pre-flight static analysis: refuse (or warn) when termination is
    // not certified, and size the default round budget from the
    // certified bound. The +1 is the engine's final empty round that
    // *observes* the fixpoint.
    let analysis = bddfc_analyze::analyze(&program);
    match &analysis.certificate {
        Some(cert) => {
            if !max_rounds_set {
                let need =
                    u32::try_from(cert.round_bound.saturating_add(1)).unwrap_or(u32::MAX);
                if need > config.max_rounds {
                    eprintln!(
                        "bddfc-serve: round budget raised to {need} from the \
                         certified static bound"
                    );
                    config.max_rounds = need;
                }
            }
        }
        None => {
            if deny_unbounded {
                eprintln!(
                    "bddfc-serve: no termination certificate (not provably weakly \
                     acyclic); refusing to start under --deny-unbounded"
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "bddfc-serve: no termination certificate (not provably weakly \
                 acyclic); mutations may stop at the round/fact budget"
            );
        }
    }

    let mut server = Server::new(&program, config);

    if let Some(path) = &slow_log {
        if config.slow_ms.is_none() {
            eprintln!("bddfc-serve: --slow-log has no effect without --slow-ms");
        }
        match std::fs::OpenOptions::new().create(true).append(true).open(path) {
            Ok(file) => server.set_slow_writer(Box::new(file)),
            Err(e) => {
                eprintln!("bddfc-serve: cannot open slow log {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The metrics endpoint runs on a detached thread sharing the server
    // via Arc; it dies with the process.
    let server = std::sync::Arc::new(server);
    if let Some(addr) = &metrics_tcp {
        // `--metrics-tcp 0` is shorthand for an ephemeral localhost port.
        let addr = if addr == "0" { "127.0.0.1:0" } else { addr.as_str() };
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("bddfc-serve: cannot bind metrics endpoint {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match listener.local_addr() {
            Ok(bound) => eprintln!("bddfc-serve: metrics on {bound}"),
            Err(e) => eprintln!("bddfc-serve: metrics on {addr} (local_addr failed: {e})"),
        }
        let srv = std::sync::Arc::clone(&server);
        std::thread::spawn(move || bddfc_serve::http::serve_metrics(listener, &*srv));
    }

    match tcp {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = run_session(&*server, stdin.lock(), stdout.lock()) {
                eprintln!("bddfc-serve: session error: {e}");
                return ExitCode::FAILURE;
            }
        }
        Some(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("bddfc-serve: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("bddfc-serve: listening on {addr}");
            std::thread::scope(|scope| {
                for conn in listener.incoming() {
                    match conn {
                        Ok(stream) => {
                            let server = &*server;
                            scope.spawn(move || {
                                let reader = BufReader::new(&stream);
                                let mut writer = &stream;
                                let _ = run_session(server, reader, &mut writer);
                                let _ = writer.flush();
                            });
                        }
                        Err(e) => eprintln!("bddfc-serve: accept failed: {e}"),
                    }
                }
            });
        }
    }
    ExitCode::SUCCESS
}
