//! Batched hash-join kernel vs the tuple-at-a-time `hom` search, pinned
//! to one worker thread so the comparison isolates the join strategy
//! rather than the scheduler.
//!
//! `e13/*` measures the kernels directly: both re-enumerate every
//! rule-body homomorphism of the E13 theory over the same frozen chased
//! instance — the work `collect_repairs` does each naive round — with no
//! admission, null invention or insertion in the loop. The batch kernel
//! must beat `hom` by at least 2× on the median there (a conservative
//! floor — the roadmap target is 5×; the actual ratio is printed so
//! `BENCH_join.json` tracks the real trajectory). `tc/batch` times the
//! chase end to end on a join-heavy datalog theory.

use bddfc_bench::{bench, black_box};
use bddfc_chase::{chase, ChaseConfig, ChaseVariant};
use bddfc_core::hom::{self, Binding};
use bddfc_core::join::eval_body;
use bddfc_core::{par, parse_into, Vocabulary};
use std::ops::ControlFlow;

/// Body-match enumeration over the chased E13 instance per kernel,
/// single-threaded. Returns `(tuple_median_ns, batch_median_ns)`.
fn e13_kernel() -> (f64, f64) {
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
    let median_ns = |label: &str, count: &dyn Fn(&bddfc_core::Rule) -> u64| {
        let row = par::with_thread_count(1, || {
            bench(&format!("join_kernel/e13/{label}"), 10, || {
                black_box(theory.rules.iter().map(count).sum::<u64>())
            })
        });
        row.median().as_nanos() as f64
    };
    let tuple = median_ns("tuple", &|rule| {
        let mut matches = 0u64;
        let _ = hom::for_each_hom(&inst, &rule.body, &Binding::default(), |_| {
            matches += 1;
            ControlFlow::<()>::Continue(())
        });
        matches
    });
    let batch = median_ns("batch", &|rule| {
        eval_body(inst.columnar(), &rule.body, None, None).rows() as u64
    });
    (tuple, batch)
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
    let (tuple_ns, batch_ns) = e13_kernel();
    tc_throughput();
    let speedup = tuple_ns / batch_ns;
    println!("join_kernel_speedup: {speedup:.2}x (e13, 1 thread, tuple/batch medians)");
    assert!(
        speedup >= 2.0,
        "batched join kernel must be at least 2x faster than the tuple \
         hom search on e13 (got {speedup:.2}x)"
    );
}
