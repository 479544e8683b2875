//! Benches for the chase engine (experiments E1 and E13), plus the
//! semi-naive work-ratio check: on Example 1's transitive-closure
//! program the semi-naive engine must attempt at least 2.5× fewer body
//! matches per run than the naive oracle. Timed comparisons use
//! [`bddfc_bench::paired_ratio`].

use bddfc_bench::{bench, paired_ratio};
use bddfc_chase::{chase, ChaseConfig, ChaseStrategy, ChaseVariant};
use bddfc_core::{par, parse_into, parse_program, Vocabulary};

/// E13 — chase throughput over random graphs, restricted vs. oblivious.
fn chase_throughput() {
    for nodes in [30usize, 100] {
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let mut voc = Vocabulary::new();
            let db = bddfc_zoo::random_graph(&mut voc, nodes, nodes * 2, 42);
            let (theory, _, _) = parse_into(
                "E(X,Y) -> exists Z . E(Y,Z). E(X,Y), E(Y,Z) -> R(X,Z).",
                &mut voc,
            )
            .unwrap();
            bench(&format!("chase_throughput/{variant:?}/{nodes}"), 10, || {
                let mut v = voc.clone();
                chase(
                    &db,
                    &theory,
                    &mut v,
                    ChaseConfig {
                        max_rounds: 3,
                        max_facts: 2_000_000,
                        variant,
                        ..Default::default()
                    },
                )
                .instance
                .len()
            });
        }
    }
}

/// E1 — divergence of Example 1 on the triangle image, per prefix depth.
fn chase_divergence() {
    for rounds in [6u32, 12] {
        let prog = bddfc_zoo::example1();
        let mut voc = prog.voc.clone();
        let (_, mp, _) = parse_into("E(a,b). E(b,c). E(c,a).", &mut voc).unwrap();
        bench(&format!("chase_divergence_example1/{rounds}"), 10, || {
            let mut v = voc.clone();
            chase(&mp, &prog.theory, &mut v, ChaseConfig::rounds(rounds))
                .instance
                .len()
        });
    }
}

/// Semi-naive vs naive trigger counts on Example 1's transitive-closure
/// rule over a chain — the engine's own work metric, asserted ≥2.5×
/// (5,887 naive vs 2,300 semi-naive, 2.56×, when each delta-touching
/// match is enumerated once) — and the paired naive/semi-naive time
/// ratio, printed only.
fn seminaive_work_ratio() {
    let edges: String = (1..=24).map(|i| format!("E(v{i},v{}). ", i + 1)).collect();
    let prog =
        parse_program(&format!("E(X,Y), E(Y,Z) -> E(X,Z). {edges}")).unwrap();
    let run = |strategy| {
        chase(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            ChaseConfig::default().with_strategy(strategy),
        )
    };
    let [semi, naive] = [ChaseStrategy::SemiNaive, ChaseStrategy::Naive].map(|strategy| {
        bench(&format!("seminaive_ratio/{strategy:?}"), 3, || run(strategy).instance.len());
        run(strategy).stats.total_body_matches()
    });
    println!("seminaive_ratio: {naive} naive vs {semi} semi-naive body matches");
    paired_ratio(
        "seminaive_ratio/naive_vs_seminaive_time",
        41,
        || run(ChaseStrategy::Naive).instance.len(),
        || run(ChaseStrategy::SemiNaive).instance.len(),
    );
    assert!(
        2 * naive >= 5 * semi,
        "semi-naive must do at least 2.5x fewer body matches ({naive} vs {semi})"
    );
}

/// Multi-thread speedup on the E13 throughput workload: the paired
/// median of 1-thread over 4-thread time must be ≥1.3. Skipped with a
/// notice on machines with fewer than 4 cores, where the comparison is
/// meaningless.
fn thread_speedup() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!(
            "chase_thread_speedup: SKIPPED — {cores} core(s) available, \
             need >= 4 for the 4-vs-1 thread comparison"
        );
        return;
    }
    let mut voc = Vocabulary::new();
    let db = bddfc_zoo::random_graph(&mut voc, 300, 600, 42);
    let (theory, _, _) = parse_into(
        "E(X,Y) -> exists Z . E(Y,Z). E(X,Y), E(Y,Z) -> R(X,Z).",
        &mut voc,
    )
    .unwrap();
    let run = |threads: usize| {
        par::with_thread_count(threads, || {
            chase(
                &db,
                &theory,
                &mut voc.clone(),
                ChaseConfig { max_rounds: 3, max_facts: 2_000_000, ..Default::default() },
            )
            .instance
            .len()
        })
    };
    let speedup = paired_ratio("chase_thread_speedup/1_vs_4", 21, || run(1), || run(4));
    assert!(
        speedup >= 1.3,
        "expected a >=1.3x paired median speedup with 4 threads over 1, got {speedup:.2}x"
    );
}

fn main() {
    bddfc_bench::init_json("chase");
    chase_throughput();
    chase_divergence();
    seminaive_work_ratio();
    thread_speedup();
}
