//! Batched hash-join kernel vs the tuple-at-a-time `hom` search, pinned
//! to one worker thread so the comparison isolates the join strategy
//! rather than the scheduler.
//!
//! `e13/*` measures the kernels directly: both re-enumerate every
//! rule-body homomorphism of the E13 theory over the same frozen chased
//! instance — the work `collect_repairs` does each naive round, the
//! kernel projecting each match on its rule's frontier — with no
//! admission, null invention or insertion in the loop. The gate is the
//! paired median of `hom` time over kernel time
//! ([`bddfc_bench::paired_ratio`]), which must be at least 3x: an
//! unchanged kernel reads about 3.5x on a 2-vCPU host and a kernel
//! slowed 1.7x about 2.0x. `tc/batch` times the chase end to end on a
//! join-heavy datalog theory.

use bddfc_bench::{bench, paired_ratio};
use bddfc_chase::{chase, ChaseConfig, ChaseVariant};
use bddfc_core::hom::{self, Binding};
use bddfc_core::join::for_each_projection;
use bddfc_core::{par, parse_into, Vocabulary};
use std::ops::ControlFlow;

/// Body-match enumeration over the chased E13 instance per kernel,
/// single-threaded: one row per kernel, then the paired `hom`/kernel
/// time ratio, which is returned.
fn e13_kernel() -> f64 {
    let mut voc = Vocabulary::new();
    let db = bddfc_zoo::random_graph(&mut voc, 100, 200, 42);
    let (theory, _, _) = parse_into(
        "E(X,Y) -> exists Z . E(Y,Z). E(X,Y), E(Y,Z) -> R(X,Z).",
        &mut voc,
    )
    .unwrap();
    // One chase materializes the frozen instance both kernels sweep.
    let inst = chase(
        &db,
        &theory,
        &mut voc,
        ChaseConfig {
            max_rounds: 3,
            max_facts: 2_000_000,
            variant: ChaseVariant::Restricted,
            ..Default::default()
        },
    )
    .instance;
    let tuple = || -> u64 {
        let mut matches = 0u64;
        for rule in &theory.rules {
            let _ = hom::for_each_hom(&inst, &rule.body, &Binding::default(), |_| {
                matches += 1;
                ControlFlow::<()>::Continue(())
            });
        }
        matches
    };
    // The kernel side projects each match on its rule's frontier, as
    // the chase's trigger collection does.
    let frontiers: Vec<Vec<_>> = theory
        .rules
        .iter()
        .map(|rule| {
            let mut f: Vec<_> = rule.frontier().into_iter().collect();
            f.sort_unstable();
            f
        })
        .collect();
    let batch = || -> u64 {
        let store = inst.columnar();
        let matches = |(rule, frontier): (&bddfc_core::Rule, &Vec<_>)| {
            let full = |j: usize| 0..store.rows(rule.body[j].pred);
            for_each_projection(store, &rule.body, None, full, frontier, None, None, |v| {
                std::hint::black_box(v);
            })
        };
        theory.rules.iter().zip(&frontiers).map(matches).sum::<u64>()
    };
    par::with_thread_count(1, || {
        bench("join_kernel/e13/tuple", 10, tuple);
        bench("join_kernel/e13/batch", 10, batch);
        paired_ratio("join_kernel/e13/tuple_vs_batch", 101, tuple, batch)
    })
}

/// Transitive closure on a dense-ish graph — the pure-join hot path the
/// kernel was built for (two-atom self-join, no existentials), end to
/// end through the chase.
fn tc_throughput() {
    let mut voc = Vocabulary::new();
    let db = bddfc_zoo::random_graph(&mut voc, 60, 180, 13);
    let (theory, _, _) = parse_into("E(X,Y), E(Y,Z) -> E(X,Z).", &mut voc).unwrap();
    par::with_thread_count(1, || {
        bench("join_kernel/tc/batch", 5, || {
            let mut v = voc.clone();
            chase(
                &db,
                &theory,
                &mut v,
                ChaseConfig { max_rounds: 8, max_facts: 200_000, ..Default::default() },
            )
            .instance
            .len()
        })
    });
}

fn main() {
    bddfc_bench::init_json("join");
    let speedup = e13_kernel();
    tc_throughput();
    println!("join_kernel_speedup: {speedup:.2}x (e13, 1 thread, paired tuple/batch median)");
    assert!(
        speedup >= 3.0,
        "batched join kernel must be at least 3x faster than the tuple \
         hom search on e13 (got {speedup:.2}x)"
    );
}
