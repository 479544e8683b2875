//! Thread-count determinism suite: every parallelized component — chase,
//! datalog saturation, type analyzer, UCQ rewriter and bounded model
//! finder — must produce byte-identical outputs for `BDDFC_THREADS` in
//! {1, 2, 7}, across the paper zoo and seeded random programs. The
//! shard-then-merge contract of `bddfc_core::par` (results collected
//! per shard, merged in input order, order-sensitive phases sequential)
//! is what makes this hold; this suite is the executable statement of
//! that contract.
//!
//! Every multi-thread run goes through [`at_threads`], which turns off
//! `par`'s small-region cutoff: the zoo's inputs are small enough that
//! the default cutoff would keep them on the calling thread, and the
//! comparisons would pass without sharding anything. Each test of an
//! engine with parallel regions (all but the sequential datalog
//! reference) also checks, through `par::sharded_regions`, that the
//! sharded path ran.

use bddfc::chase::{
    chase, chase_with, find_model, find_model_with, saturate_datalog, saturate_datalog_with,
    ChaseConfig, ChaseResult, ChaseStrategy, ChaseVariant, FinderConfig,
};
use bddfc::core::obs::Memory;
use bddfc::core::par;
use bddfc::core::{Instance, Program, Theory, Vocabulary};
use bddfc::rewrite::{rewrite_query, rewrite_query_with, RewriteConfig};
use bddfc::types::TypeAnalyzer;
use bddfc_fuzz::gen::random_program;
use bddfc_fuzz::proptest_lite::run_prop;

/// The thread counts the suite compares: the sequential baseline, the
/// smallest genuine fork-join, and an odd count that never divides the
/// work evenly (so shard boundaries move).
const THREADS: [usize; 3] = [1, 2, 7];

/// Runs `f` at `threads` threads with `par`'s small-region cutoff off,
/// so every region of two or more items is split across threads.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    par::with_thread_count(threads, || par::with_min_work(0, f))
}

/// Asserts that this thread split at least one region across threads
/// since `par::sharded_regions()` read `before`, so a test's comparisons
/// did not pass on the sequential path alone.
fn assert_sharded_since(before: u64, test: &str) {
    assert!(par::sharded_regions() > before, "{test}: no region ran sharded");
}

fn zoo_programs() -> Vec<(&'static str, Program)> {
    vec![
        ("example1", bddfc::zoo::example1()),
        ("example1_m_prime", bddfc::zoo::example1_m_prime()),
        ("chain_theory", bddfc::zoo::chain_theory()),
        ("remark3", bddfc::zoo::remark3()),
        ("total_order_4", bddfc::zoo::total_order(4)),
        ("example7", bddfc::zoo::example7()),
        ("example9", bddfc::zoo::example9()),
        ("section54", bddfc::zoo::section54()),
        ("notorious", bddfc::zoo::notorious()),
        ("order_theory", bddfc::zoo::order_theory()),
        ("linear_ontology", bddfc::zoo::linear_ontology()),
        ("guarded_example", bddfc::zoo::guarded_example()),
        ("sticky_example", bddfc::zoo::sticky_example()),
    ]
}

fn assert_chase_identical(name: &str, db: &Instance, theory: &Theory, voc: &Vocabulary) {
    for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
        for strategy in [ChaseStrategy::SemiNaive, ChaseStrategy::Naive] {
            let config = ChaseConfig {
                max_rounds: 4,
                max_facts: 4_000,
                variant,
                strategy,
            };
            let run = |threads: usize| -> ChaseResult {
                at_threads(threads, || chase(db, theory, &mut voc.clone(), config))
            };
            let base = run(THREADS[0]);
            for &t in &THREADS[1..] {
                let other = run(t);
                let ctx = format!("{name}/{variant:?}/{strategy:?} at {t} threads");
                assert_eq!(base.instance, other.instance, "{ctx}: instance");
                assert_eq!(base.depth_map(), other.depth_map(), "{ctx}: depth map");
                assert_eq!(base.rounds, other.rounds, "{ctx}: rounds");
                assert_eq!(base.status, other.status, "{ctx}: status");
                assert_eq!(
                    base.stats.body_matches_per_round, other.stats.body_matches_per_round,
                    "{ctx}: work counters"
                );
            }
        }
    }
}

#[test]
fn chase_is_thread_count_invariant_on_zoo() {
    let sharded = par::sharded_regions();
    for (name, prog) in zoo_programs() {
        assert_chase_identical(name, &prog.instance, &prog.theory, &prog.voc);
    }
    assert_sharded_since(sharded, "chase_is_thread_count_invariant_on_zoo");
}

#[test]
fn chase_is_thread_count_invariant_on_random_programs() {
    let sharded = par::sharded_regions();
    run_prop("chase_is_thread_count_invariant_on_random_programs", 12, |g| {
        let seed = g.u64_in("seed", 0, 1 << 32);
        let prog = random_program(seed);
        assert_chase_identical("random", &prog.instance, &prog.theory, &prog.voc);
        Ok(())
    });
    assert_sharded_since(sharded, "chase_is_thread_count_invariant_on_random_programs");
}

#[test]
fn saturation_is_thread_count_invariant() {
    for (name, prog) in zoo_programs() {
        let base =
            at_threads(1, || saturate_datalog(&prog.instance, &prog.theory));
        for &t in &THREADS[1..] {
            let other =
                at_threads(t, || saturate_datalog(&prog.instance, &prog.theory));
            assert_eq!(base.instance, other.instance, "{name} at {t} threads: instance");
            assert_eq!(base.rounds, other.rounds, "{name} at {t} threads: rounds");
            assert_eq!(base.derived, other.derived, "{name} at {t} threads: derived");
            assert_eq!(
                base.body_matches_per_round, other.body_matches_per_round,
                "{name} at {t} threads: work counters"
            );
        }
    }
}

#[test]
fn analyzer_partition_is_thread_count_invariant() {
    let sharded = par::sharded_regions();
    for (name, prog) in zoo_programs() {
        // Chase a little first so the instance has nulls to classify.
        let mut voc = prog.voc.clone();
        let chased = chase(
            &prog.instance,
            &prog.theory,
            &mut voc,
            ChaseConfig { max_rounds: 3, max_facts: 500, ..Default::default() },
        );
        for n in [2usize, 3] {
            let run = |threads: usize| {
                at_threads(threads, || {
                    TypeAnalyzer::new(&chased.instance, &mut voc.clone(), n).partition()
                })
            };
            let base = run(THREADS[0]);
            for &t in &THREADS[1..] {
                assert_eq!(base, run(t), "{name}, n = {n}, at {t} threads: partition");
            }
        }
    }
    assert_sharded_since(sharded, "analyzer_partition_is_thread_count_invariant");
}

#[test]
fn rewriter_is_thread_count_invariant() {
    let sharded = par::sharded_regions();
    // Zoo programs with single-head theories, plus budget-capped
    // divergent cases; queries are the programs' own where present.
    let mut cases: Vec<(String, Theory, bddfc::core::ConjunctiveQuery, Vocabulary, RewriteConfig)> =
        Vec::new();
    for (name, prog) in zoo_programs() {
        if !prog.theory.is_single_head() {
            continue;
        }
        for (qi, q) in prog.queries.iter().enumerate() {
            cases.push((
                format!("{name}/q{qi}"),
                prog.theory.clone(),
                q.clone(),
                prog.voc.clone(),
                RewriteConfig { max_disjuncts: 15, max_steps: 300, max_piece: 2 },
            ));
        }
    }
    let mut voc = Vocabulary::new();
    let th = Theory::new(vec![
        bddfc::core::parse_rule("E(X,Y), E(Y,Z) -> E(X,Z)", &mut voc).unwrap(),
    ]);
    let mut q = bddfc::core::parse_query("E(U,V)", &mut voc).unwrap();
    q.free = vec![voc.var("U"), voc.var("V")];
    cases.push((
        "transitivity_capped".into(),
        th,
        q,
        voc,
        RewriteConfig { max_disjuncts: 25, max_steps: 5_000, max_piece: 2 },
    ));
    assert!(!cases.is_empty(), "expected at least one single-head rewriting case");

    for (name, theory, query, voc, config) in cases {
        let run = |threads: usize| {
            at_threads(threads, || {
                rewrite_query(&query, &theory, &mut voc.clone(), config).expect("single-head")
            })
        };
        let base = run(THREADS[0]);
        for &t in &THREADS[1..] {
            let other = run(t);
            let ctx = format!("{name} at {t} threads");
            assert_eq!(base.ucq, other.ucq, "{ctx}: rewritten UCQ");
            assert_eq!(base.saturated, other.saturated, "{ctx}: saturation flag");
            assert_eq!(base.steps, other.steps, "{ctx}: step count");
            assert_eq!(base.max_depth, other.max_depth, "{ctx}: depth witness");
        }
    }
    assert_sharded_since(sharded, "rewriter_is_thread_count_invariant");
}

/// Telemetry determinism: with a `Memory` sink attached, every engine's
/// aggregated counters and per-event-kind counts — not just its outputs
/// — must be identical across thread counts. This is the executable form
/// of the fields-vs-gauges contract in `bddfc_core::obs`: event *fields*
/// are algorithmic work counts and thread-blind; only *gauges*
/// (`wall_ns`, `threads`) may vary, and they are excluded from
/// aggregation.
#[test]
fn telemetry_counters_are_thread_count_invariant() {
    let sharded = par::sharded_regions();
    for (name, prog) in zoo_programs() {
        let run = |threads: usize| {
            at_threads(threads, || {
                let sink = Memory::new(4096);
                let mut voc = prog.voc.clone();
                let chased = chase_with(
                    &prog.instance,
                    &prog.theory,
                    &mut voc,
                    ChaseConfig { max_rounds: 3, max_facts: 2_000, ..Default::default() },
                    &sink,
                );
                let sat = saturate_datalog_with(&prog.instance, &prog.theory, &sink);
                let outcome = find_model_with(
                    &prog.instance,
                    &prog.theory,
                    &mut prog.voc.clone(),
                    prog.queries.first(),
                    FinderConfig { max_size: 3, max_nodes: 20_000 },
                    &sink,
                );
                let partition = TypeAnalyzer::new(&chased.instance, &mut voc, 2)
                    .partition_with(&sink);
                let rewritten = prog.queries.first().and_then(|q| {
                    rewrite_query_with(
                        q,
                        &prog.theory,
                        &mut prog.voc.clone(),
                        RewriteConfig { max_disjuncts: 15, max_steps: 300, max_piece: 2 },
                        &sink,
                    )
                });
                (
                    chased.instance,
                    sat.instance,
                    outcome,
                    partition,
                    rewritten.map(|r| r.ucq),
                    sink.counters(),
                    sink.event_counts(),
                )
            })
        };
        let base = run(THREADS[0]);
        assert!(
            !base.6.is_empty(),
            "{name}: expected telemetry events from the instrumented engines"
        );
        for &t in &THREADS[1..] {
            let other = run(t);
            let ctx = format!("{name} at {t} threads");
            assert_eq!(base.0, other.0, "{ctx}: chase instance");
            assert_eq!(base.1, other.1, "{ctx}: saturated instance");
            assert_eq!(base.2, other.2, "{ctx}: finder outcome");
            assert_eq!(base.3, other.3, "{ctx}: partition");
            assert_eq!(base.4, other.4, "{ctx}: rewritten UCQ");
            assert_eq!(base.5, other.5, "{ctx}: telemetry counters");
            assert_eq!(base.6, other.6, "{ctx}: telemetry event counts");
        }
    }
    assert_sharded_since(sharded, "telemetry_counters_are_thread_count_invariant");
}

/// Bounded-capacity semantics of the `Memory` sink: with a tiny cap the
/// event and span *logs* stop growing, but counters keep accumulating
/// over every event, and `dropped()` / `spans_dropped()` report the
/// elided tail exactly — at any thread count. The drop decision happens
/// in the sink's sequential record path, so even which events survive in
/// the log is deterministic.
#[test]
fn memory_sink_bounded_cap_is_thread_count_invariant() {
    let sharded = par::sharded_regions();
    let prog = bddfc::zoo::example1();
    let config = ChaseConfig { max_rounds: 4, max_facts: 2_000, ..Default::default() };
    let run = |threads: usize, cap: usize| {
        at_threads(threads, || {
            let sink = Memory::new(cap);
            let _ = chase_with(&prog.instance, &prog.theory, &mut prog.voc.clone(), config, &sink);
            (
                sink.len(),
                sink.dropped(),
                // Deterministic event payload only: gauges (wall_ns) vary
                // run to run and are excluded by the obs contract.
                sink.events()
                    .iter()
                    .map(|e| (e.engine, e.name, e.parent, e.key, e.fields.clone()))
                    .collect::<Vec<_>>(),
                sink.counters(),
                sink.spans_opened(),
                sink.spans_dropped(),
                sink.spans()
                    .iter()
                    .map(|s| (s.id, s.parent, s.engine, s.name, s.key))
                    .collect::<Vec<_>>(),
            )
        })
    };
    let unbounded = run(1, 1 << 16);
    assert_eq!(unbounded.1, 0, "cap 65536 must not drop anything here");
    let total_events = unbounded.0;
    let total_spans = unbounded.4;
    assert!(total_events > 3, "workload too small to exercise the bound");
    assert!(total_spans > 3);

    const CAP: usize = 3;
    let base = run(THREADS[0], CAP);
    assert_eq!(base.2.len(), CAP, "event log must stop at the cap");
    assert_eq!(base.1, total_events - CAP as u64, "dropped() must be exact");
    assert_eq!(base.3, unbounded.3, "counters must keep accumulating past the cap");
    assert_eq!(base.4, total_spans, "span ids must keep advancing past the cap");
    assert_eq!(base.5, total_spans - CAP as u64, "spans_dropped() must be exact");
    // The surviving log prefix matches the unbounded run's prefix.
    assert_eq!(base.2[..], unbounded.2[..CAP]);
    assert_eq!(base.6[..], unbounded.6[..CAP]);
    for &t in &THREADS[1..] {
        assert_eq!(run(t, CAP), base, "bounded Memory sink at {t} threads");
    }
    assert_sharded_since(sharded, "memory_sink_bounded_cap_is_thread_count_invariant");
}

/// Span-id determinism: the deterministic half of a span — id, parent,
/// engine, name, attribution key — is byte-identical across thread
/// counts for every engine, on the whole zoo. Only `start_ns`/`end_ns`
/// are gauges.
#[test]
fn span_identities_are_thread_count_invariant() {
    let sharded = par::sharded_regions();
    for (name, prog) in zoo_programs() {
        let run = |threads: usize| {
            at_threads(threads, || {
                let sink = Memory::new(1 << 14);
                let mut voc = prog.voc.clone();
                let _ = chase_with(
                    &prog.instance,
                    &prog.theory,
                    &mut voc,
                    ChaseConfig { max_rounds: 3, max_facts: 2_000, ..Default::default() },
                    &sink,
                );
                let _ = saturate_datalog_with(&prog.instance, &prog.theory, &sink);
                let _ = find_model_with(
                    &prog.instance,
                    &prog.theory,
                    &mut prog.voc.clone(),
                    prog.queries.first(),
                    FinderConfig { max_size: 3, max_nodes: 20_000 },
                    &sink,
                );
                let spans = sink.spans();
                assert!(spans.iter().all(|s| s.is_closed()), "{name}: span left open");
                spans
                    .iter()
                    .map(|s| (s.id, s.parent, s.engine, s.name, s.key))
                    .collect::<Vec<_>>()
            })
        };
        let base = run(THREADS[0]);
        assert!(!base.is_empty(), "{name}: expected spans from the instrumented engines");
        // Sequential ids starting at 1, by construction.
        for (i, s) in base.iter().enumerate() {
            assert_eq!(s.0, i as u64 + 1, "{name}: span ids must be sequential");
        }
        for &t in &THREADS[1..] {
            assert_eq!(base, run(t), "{name} at {t} threads: span identities");
        }
    }
    assert_sharded_since(sharded, "span_identities_are_thread_count_invariant");
}

#[test]
fn model_finder_is_thread_count_invariant() {
    let sharded = par::sharded_regions();
    for (name, prog) in zoo_programs() {
        let forbidden = prog.queries.first();
        let run = |threads: usize| {
            at_threads(threads, || {
                find_model(
                    &prog.instance,
                    &prog.theory,
                    &mut prog.voc.clone(),
                    forbidden,
                    FinderConfig { max_size: 3, max_nodes: 20_000 },
                )
            })
        };
        let base = run(THREADS[0]);
        for &t in &THREADS[1..] {
            // SearchOutcome equality covers the certified model itself.
            assert_eq!(base, run(t), "{name} at {t} threads: finder outcome");
        }
    }
    assert_sharded_since(sharded, "model_finder_is_thread_count_invariant");
}
