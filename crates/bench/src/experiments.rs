//! The experiment suite: one function per experiment id of DESIGN.md,
//! each printing the paper-claim vs. the measured value.

use bddfc_chase::{
    chase, chase_size_comparison, countermodel, ChaseConfig, ChaseVariant, SearchOutcome,
};
use bddfc_core::{hom, parse_into, parse_query, Fact, Instance, Vocabulary};
use bddfc_finite::{finite_countermodel, FcConfig, FcOutcome};
use bddfc_rewrite::{kappa, rewrite_query, RewriteConfig};
use bddfc_types::{find_conservative_n, natural_coloring, Quotient, TypeAnalyzer};
use bddfc_core::fxhash::FxHashSet;
use std::time::Instant;

/// An experiment: id, paper source, and the row generator.
pub struct Experiment {
    /// The id used in DESIGN.md / EXPERIMENTS.md (e.g. "e3").
    pub id: &'static str,
    /// Where in the paper the claim comes from.
    pub source: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Produces the table rows.
    pub run: fn() -> Vec<String>,
}

/// Every experiment, in id order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment { id: "e1", source: "Example 1", title: "triangle image of the chain chase diverges", run: e1 },
        Experiment { id: "e2", source: "Example 2", title: "ptp2 vs ptp3 of chain and triangle", run: e2 },
        Experiment { id: "e3", source: "Example 3", title: "uncolored chain quotient: class counts and the self-loop", run: e3 },
        Experiment { id: "e4", source: "Example 4", title: "colored chain: conservative n per m", run: e4 },
        Experiment { id: "e5", source: "Example 6/Remark 3", title: "total order is not conservative", run: e5 },
        Experiment { id: "e6", source: "Examples 7/8, Lemma 5", title: "quotient saturation derives flesh without new elements", run: e6 },
        Experiment { id: "e7", source: "Example 9, Lemmas 8/9", title: "tree quotient: undirected cycles, no short directed ones", run: e7 },
        Experiment { id: "e8", source: "Theorem 2", title: "FC pipeline: certified countermodel sizes", run: e8 },
        Experiment { id: "e9", source: "Section 5.5", title: "non-FC theories: bounded model search exhausts", run: e9 },
        Experiment { id: "e10", source: "Section 5.6", title: "guarded->binary translation size factors", run: e10 },
        Experiment { id: "e11", source: "Sections 5.2/5.3", title: "ternary & multi-head reduction size factors", run: e11 },
        Experiment { id: "e12", source: "Definition 2", title: "rewriting size/time vs query length", run: e12 },
        Experiment { id: "e13", source: "systems", title: "chase throughput and restricted-vs-oblivious sizes", run: e13 },
        Experiment { id: "e14", source: "systems", title: "type partition cost vs structure size and n", run: e14 },
        Experiment { id: "e15", source: "Lemma 13", title: "bounded-degree structures are conservative", run: e15 },
        Experiment { id: "e16", source: "Section 5.5, Conjecture 2", title: "the order-definability probe", run: e16 },
        Experiment { id: "e17", source: "Section 4", title: "query shapes, the normalization measure, derivation depth", run: e17 },
    ]
}

/// Runs one experiment by id; returns `None` for unknown ids.
pub fn run_experiment(id: &str) -> Option<Vec<String>> {
    all_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)())
}

fn e1() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<8} {:>8} {:>10} {:>10}",
        "input", "rounds", "E-atoms", "U-atoms"
    )];
    let prog = bddfc_zoo::example1();
    for rounds in [4u32, 8, 12] {
        let mut voc = prog.voc.clone();
        let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::rounds(rounds));
        let e = voc.find_pred("E").unwrap();
        let u = voc.find_pred("U").unwrap();
        rows.push(format!(
            "{:<8} {:>8} {:>10} {:>10}",
            "chain",
            rounds,
            res.instance.facts_with_pred(e).len(),
            res.instance.facts_with_pred(u).len()
        ));
    }
    for rounds in [4u32, 8, 12] {
        let mut voc = prog.voc.clone();
        let (_, mp, _) = parse_into("E(a,b). E(b,c). E(c,a).", &mut voc).unwrap();
        let res = chase(&mp, &prog.theory, &mut voc, ChaseConfig::rounds(rounds));
        let e = voc.find_pred("E").unwrap();
        let u = voc.find_pred("U").unwrap();
        rows.push(format!(
            "{:<8} {:>8} {:>10} {:>10}",
            "M'",
            rounds,
            res.instance.facts_with_pred(e).len(),
            res.instance.facts_with_pred(u).len()
        ));
    }
    rows.push("paper: chain chase has no U-atom; M' grows 3 U-chains forever".into());
    rows
}

fn e2() -> Vec<String> {
    let mut voc = Vocabulary::new();
    let e = voc.pred("E", 2);
    let a = voc.constant("a");
    let mut chain_inst = Instance::new();
    let mut prev = a;
    for _ in 0..8 {
        let next = voc.fresh_null("c");
        chain_inst.insert(Fact::new(e, vec![prev, next]));
        prev = next;
    }
    let mut tri = Instance::new();
    let b = voc.fresh_null("b");
    let c = voc.fresh_null("c");
    tri.insert(Fact::new(e, vec![a, b]));
    tri.insert(Fact::new(e, vec![b, c]));
    tri.insert(Fact::new(e, vec![c, a]));
    let mut rows = vec![format!("{:<36} {:>8}", "inclusion", "holds")];
    for (label, n, reversed) in [
        ("ptp2(chain,a) <= ptp2(tri,a)", 2usize, false),
        ("ptp3(chain,a) <= ptp3(tri,a)", 3, false),
        ("ptp3(tri,a) <= ptp3(chain,a)", 3, true),
    ] {
        let holds = if reversed {
            TypeAnalyzer::new(&tri, &mut voc, n).ptp_included_in(a, &chain_inst, a)
        } else {
            TypeAnalyzer::new(&chain_inst, &mut voc, n).ptp_included_in(a, &tri, a)
        };
        rows.push(format!("{label:<36} {holds:>8}"));
    }
    rows.push("paper: the 3-variable cycle query separates the types at n = 3".into());
    rows
}

fn e3() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<4} {:>10} {:>12} {:>10}",
        "n", "chain len", "classes", "self-loop"
    )];
    for n in 2..=4usize {
        let mut voc = Vocabulary::new();
        let (inst, elems) = bddfc_zoo::anonymous_chain(&mut voc, 16);
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, n);
        let partition = analyzer.partition();
        let classes = partition.len();
        let q = Quotient::new(&inst, partition, &mut voc);
        let e = voc.find_pred("E").unwrap();
        let interior = q.project(elems[8]);
        let has_loop = q.instance.contains(&Fact::new(e, vec![interior, interior]));
        rows.push(format!("{n:<4} {:>10} {classes:>12} {has_loop:>10}", 17));
    }
    rows.push(
        "paper (Def. 3 literal, finite prefix): 2(n-1)+1 classes, interior self-loop; \
         the infinite chain gives n classes — see EXPERIMENTS.md"
            .into(),
    );
    rows
}

fn e4() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<4} {:>6} {:>10} {:>10} {:>8}",
        "m", "n", "classes", "colors", "time ms"
    )];
    for m in 1..=3usize {
        let mut voc = Vocabulary::new();
        let (inst, _) = bddfc_zoo::anonymous_chain(&mut voc, 24);
        let t0 = Instant::now();
        match find_conservative_n(&inst, &mut voc, m, m.max(2)..=(m + 4)) {
            Some((n, check)) => rows.push(format!(
                "{m:<4} {n:>6} {:>10} {:>10} {:>8}",
                check.quotient.class_count(),
                check.coloring.color_count(),
                t0.elapsed().as_millis()
            )),
            None => rows.push(format!("{m:<4} {:>6}", "none")),
        }
    }
    rows.push("paper: some n works for every m (Main Lemma); quotient shrinks the chain".into());
    rows
}

fn e5() -> Vec<String> {
    // Example 6's claim is about *identification*: any quotient of a
    // strict total order that merges elements creates Lt(x,x), which no
    // element's ptp₁ contains. The natural coloring keeps all elements
    // apart (each has a different predecessor count => lightness), so it
    // is vacuously conservative; the trivial single-color coloring merges
    // and must fail.
    let mut rows = vec![format!(
        "{:<10} {:<10} {:>6} {:>14} {:>10} {:>8}",
        "order size", "coloring", "n", "conservative", "classes", "merges"
    )];
    for size in [6usize, 8] {
        let mut voc = Vocabulary::new();
        let lt = voc.pred("Lt", 2);
        let elems: Vec<_> = (0..size).map(|_| voc.fresh_null("o")).collect();
        let mut inst = Instance::new();
        for i in 0..size {
            for j in (i + 1)..size {
                inst.insert(Fact::new(lt, vec![elems[i], elems[j]]));
            }
        }
        let sigma: FxHashSet<_> = inst.used_preds().collect();
        let natural = natural_coloring(&inst, &mut voc, 1);
        let trivial = {
            let color = bddfc_types::Color { hue: 0, lightness: 0 };
            let mut color_of = bddfc_core::fxhash::FxHashMap::default();
            for e in inst.domain() {
                color_of.insert(e, color);
            }
            let mut pred_of = bddfc_core::fxhash::FxHashMap::default();
            pred_of.insert(color, voc.pred("K_triv", 1));
            bddfc_types::Coloring { color_of, pred_of }
        };
        for (name, coloring) in [("natural", &natural), ("trivial", &trivial)] {
            let n = 2;
            let check =
                bddfc_types::check_conservative(&inst, coloring, &mut voc, n, 1, &sigma);
            rows.push(format!(
                "{size:<10} {name:<10} {n:>6} {:>14} {:>10} {:>8}",
                check.is_conservative(),
                check.quotient.class_count(),
                check.quotient.class_count() < size
            ));
        }
    }
    rows.push("paper (Ex. 6): every coloring that merges anything fails at size 1".into());
    rows
}

fn e6() -> Vec<String> {
    let prog = bddfc_zoo::example7();
    let mut voc = prog.voc.clone();
    let query = parse_query("R(X,Y), E(X,Y)", &mut voc).unwrap();
    let out = finite_countermodel(&prog.instance, &prog.theory, &query, &mut voc, FcConfig::default());
    let mut rows = vec![format!(
        "{:<10} {:>8} {:>8} {:>10} {:>14} {:>12}",
        "theory", "|M|", "n", "kappa", "off-diag R", "lemma5"
    )];
    match out {
        FcOutcome::Countermodel(cert) => {
            let r = voc.find_pred("R").unwrap();
            let off = cert
                .model
                .facts_with_pred(r)
                .iter()
                .filter(|&&i| {
                    let f = cert.model.fact(i);
                    f.args[0] != f.args[1]
                })
                .count();
            rows.push(format!(
                "{:<10} {:>8} {:>8} {:>10} {:>14} {:>12}",
                "example7", cert.model_size, cert.n, cert.kappa, off, cert.lemma5_no_new_elements
            ));
        }
        other => rows.push(format!("example7: unexpected outcome {other:?}")),
    }
    rows.push("paper (Ex. 8): saturation derives R-atoms not projected from flesh;".into());
    rows.push("paper (Lemma 5): the final chase creates no new elements".into());
    rows
}

fn e7() -> Vec<String> {
    let prog = bddfc_zoo::example9();
    let mut voc = prog.voc.clone();
    let query = parse_query("F(X,X)", &mut voc).unwrap();
    let out = finite_countermodel(&prog.instance, &prog.theory, &query, &mut voc, FcConfig::default());
    let mut rows = vec![format!(
        "{:<10} {:>6} {:>16} {:>18}",
        "theory", "|M|", "directed 2-cyc", "undirected 4-cyc"
    )];
    if let FcOutcome::Countermodel(cert) = out {
        let dcyc = parse_query("F(X,Y), F(Y,X)", &mut voc).unwrap();
        let ucyc = parse_query("F(X1,Y1), F(X2,Y1), G(X2,Y2), G(X1,Y2)", &mut voc).unwrap();
        rows.push(format!(
            "{:<10} {:>6} {:>16} {:>18}",
            "example9",
            cert.model_size,
            hom::satisfies_cq(&cert.model, &dcyc),
            hom::satisfies_cq(&cert.model, &ucyc)
        ));
    } else {
        rows.push("example9: pipeline failed".into());
    }
    rows.push("paper (Lemma 9 / Ex. 9): no short directed cycles, undirected ones exist".into());
    rows
}

fn e8() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<10} {:<26} {:>8} {:>4} {:>6} {:>8} {:>9}",
        "theory", "query", "|M|", "n", "kappa", "prefix", "time ms"
    )];
    let cases: Vec<(&str, bddfc_core::Program, &str)> = vec![
        ("chain", bddfc_zoo::chain_theory(), "E(X,X)"),
        ("chain", bddfc_zoo::chain_theory(), "E(X,Y), E(Y,X)"),
        ("example7", bddfc_zoo::example7(), "R(X,Y), E(X,Y)"),
        ("example9", bddfc_zoo::example9(), "F(X,X)"),
        ("linear", bddfc_zoo::linear_ontology(), "HasParent(W,W)"),
    ];
    for (name, prog, q_src) in cases {
        let mut voc = prog.voc.clone();
        let q = parse_query(q_src, &mut voc).unwrap();
        let t0 = Instant::now();
        let out = finite_countermodel(&prog.instance, &prog.theory, &q, &mut voc, FcConfig::default());
        let ms = t0.elapsed().as_millis();
        match out {
            FcOutcome::Countermodel(cert) => rows.push(format!(
                "{name:<10} {q_src:<26} {:>8} {:>4} {:>6} {:>8} {ms:>9}",
                cert.model_size, cert.n, cert.kappa, cert.chase_depth
            )),
            FcOutcome::Entailed { depth } => {
                rows.push(format!("{name:<10} {q_src:<26} entailed at depth {depth}"))
            }
            FcOutcome::Inconclusive(r) => {
                rows.push(format!("{name:<10} {q_src:<26} inconclusive: {r}"))
            }
        }
    }
    rows.push("paper (Thm 2): a certified finite countermodel exists for each".into());
    rows
}

fn e9() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<12} {:>6} {:>26} {:>9}",
        "theory", "size", "outcome", "time ms"
    )];
    for (name, prog) in [
        ("order", bddfc_zoo::order_theory()),
        ("notorious", bddfc_zoo::notorious()),
    ] {
        let q = prog.queries[0].clone();
        for size in 2..=4usize {
            let mut voc = prog.voc.clone();
            let t0 = Instant::now();
            let out = countermodel(&prog.instance, &prog.theory, &mut voc, &q, size);
            let ms = t0.elapsed().as_millis();
            let desc = match out {
                SearchOutcome::Found(m) => format!("FOUND ({} facts)", m.len()),
                SearchOutcome::NoModelWithin(n) => format!("no model within {n}"),
                SearchOutcome::Budget => "budget".into(),
            };
            rows.push(format!("{name:<12} {size:>6} {desc:>26} {ms:>9}"));
        }
    }
    // Contrast: FC theory.
    let chain = bddfc_zoo::chain_theory();
    let mut voc = chain.voc.clone();
    let q = parse_query("E(X,X)", &mut voc).unwrap();
    let out = countermodel(&chain.instance, &chain.theory, &mut voc, &q, 4);
    rows.push(format!(
        "{:<12} {:>6} {:>26}",
        "chain(FC)",
        4,
        match out {
            SearchOutcome::Found(m) => format!("FOUND ({} facts)", m.len()),
            other => format!("{other:?}"),
        }
    ));
    rows.push("paper (§5.5): both theories have NO finite countermodel at any size".into());
    rows
}

fn e10() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<26} {:>8} {:>8} {:>10} {:>8} {:>10}",
        "guarded theory", "rules in", "rules out", "monadic", "binary", "thm3"
    )];
    let inputs = [
        ("R(X,Y,Z) -> exists W . S(Y,Z,W). S(X,Y,Z), P(X) -> P(Z).", "3-ary pair"),
        ("Mentors(X,Y) -> exists Z . Mentors(Y,Z). Mentors(X,Y), Senior(X) -> Senior(Y).", "mentors"),
        ("G(X,Y,Z,W) -> exists V . H(X,Y,Z,V).", "4-ary single"),
    ];
    for (src, name) in inputs {
        let mut voc = Vocabulary::new();
        let (theory, _, _) = parse_into(src, &mut voc).unwrap();
        match bddfc_classes::guarded_to_binary(&theory, &mut voc) {
            Ok(tr) => rows.push(format!(
                "{name:<26} {:>8} {:>8} {:>10} {:>8} {:>10}",
                theory.len(),
                tr.theory.len(),
                tr.monadic.len(),
                bddfc_classes::is_binary(&tr.theory, &voc),
                bddfc_classes::is_theorem3_fragment(&tr.theory)
            )),
            Err(e) => rows.push(format!("{name:<26} rejected: {e}")),
        }
    }
    rows.push("paper (§5.6): guarded programs are binary in disguise; output is Thm-3 shaped".into());
    rows
}

fn e11() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<16} {:>9} {:>9} {:>12}",
        "reduction", "rules in", "rules out", "preds added"
    )];
    {
        let mut voc = Vocabulary::new();
        let (theory, _, _) = parse_into(
            "P(X,Y,Z,X) -> exists T . R(X,Y,Z,T). R(X,Y,Z,T) -> S(X,T).",
            &mut voc,
        )
        .unwrap();
        let before = voc.pred_count();
        let red = bddfc_classes::to_ternary(&theory, &mut voc);
        rows.push(format!(
            "{:<16} {:>9} {:>9} {:>12}",
            "ternary(5.2)",
            theory.len(),
            red.theory.len(),
            voc.pred_count() - before
        ));
    }
    {
        let mut voc = Vocabulary::new();
        let (theory, _, _) =
            parse_into("P(X) -> E(X,Z), U(Z). E(X,Y), U(Y) -> M(X), N(Y).", &mut voc).unwrap();
        let before = voc.pred_count();
        let single = bddfc_classes::eliminate_multi_heads(&theory, &mut voc);
        rows.push(format!(
            "{:<16} {:>9} {:>9} {:>12}",
            "multihead(5.3)",
            theory.len(),
            single.len(),
            voc.pred_count() - before
        ));
    }
    rows.push("paper: both reductions are polynomial and preserve certain answers".into());
    rows
}

fn e12() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<14} {:>10} {:>10} {:>10} {:>9}",
        "unfold depth", "disjuncts", "steps", "depth", "time ms"
    )];
    // A rule chain A0 -> A1 -> ... -> A_k plus a side entry per level: the
    // rewriting of the last predicate unfolds k levels with a union per
    // level, so both size and depth grow linearly in k.
    for k in [2usize, 4, 6, 8] {
        let mut voc = Vocabulary::new();
        let mut src = String::new();
        for i in 0..k {
            src.push_str(&format!("A{i}(X) -> A{}(X). ", i + 1));
            src.push_str(&format!("B{i}(X,Y) -> A{}(Y). ", i + 1));
        }
        let (theory, _, _) = parse_into(&src, &mut voc).unwrap();
        let ak = voc.find_pred(&format!("A{k}")).unwrap();
        let w = voc.var("W");
        let q = bddfc_core::ConjunctiveQuery::with_free(
            vec![bddfc_core::Atom::new(ak, vec![bddfc_core::Term::Var(w)])],
            vec![w],
        );
        let t0 = Instant::now();
        let res = rewrite_query(&q, &theory, &mut voc, RewriteConfig::default()).unwrap();
        assert!(res.saturated);
        rows.push(format!(
            "{k:<14} {:>10} {:>10} {:>10} {:>9}",
            res.ucq.len(),
            res.steps,
            res.max_depth,
            t0.elapsed().as_millis()
        ));
    }
    let mut voc = Vocabulary::new();
    let (theory, _, _) = parse_into(
        "P(X) -> exists Z . E(X,Z). A(X) -> P(X). E(X,Y) -> U(Y).",
        &mut voc,
    )
    .unwrap();
    let kap = kappa(&theory, &mut voc, RewriteConfig::default());
    rows.push(format!("kappa of the linear ontology: {kap:?}"));
    rows.push("paper (Def. 2): BDD theories rewrite into finite UCQs; kappa is finite".into());
    rows
}

fn e13() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<8} {:>8} {:>10} {:>12} {:>12} {:>9}",
        "nodes", "edges", "variant", "facts out", "facts/s", "time ms"
    )];
    for nodes in [30usize, 100, 300] {
        let edges = nodes * 2;
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let mut voc = Vocabulary::new();
            let db = bddfc_zoo::random_graph(&mut voc, nodes, edges, 42);
            let (theory, _, _) = parse_into(
                "E(X,Y) -> exists Z . E(Y,Z). E(X,Y), E(Y,Z) -> R(X,Z).",
                &mut voc,
            )
            .unwrap();
            let t0 = Instant::now();
            let res = chase(
                &db,
                &theory,
                &mut voc,
                ChaseConfig { max_rounds: 4, max_facts: 2_000_000, variant, ..Default::default() },
            );
            let dt = t0.elapsed();
            let per_s = (res.instance.len() as f64 / dt.as_secs_f64()) as u64;
            rows.push(format!(
                "{nodes:<8} {edges:>8} {:>10} {:>12} {per_s:>12} {:>9}",
                format!("{variant:?}"),
                res.instance.len(),
                dt.as_millis()
            ));
        }
    }
    // Restricted vs oblivious on the cycle (Section 1.1's contrast).
    let mut voc = Vocabulary::new();
    let (theory, db, _) = parse_into(
        "E(X,Y) -> exists Z . E(Y,Z). E(a,b). E(b,c). E(c,a).",
        &mut voc,
    )
    .unwrap();
    let (r, o) = chase_size_comparison(&db, &theory, &mut voc, ChaseConfig::rounds(6));
    rows.push(format!("cycle D: restricted = {r} facts, oblivious = {o} facts"));
    rows.push("paper (§1.1): the non-oblivious chase creates witnesses only if needed".into());
    rows
}

fn e14() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<8} {:>6} {:>10} {:>9}",
        "chain", "n", "classes", "time ms"
    )];
    for len in [20usize, 40, 80] {
        for n in [2usize, 3, 4] {
            let mut voc = Vocabulary::new();
            let (inst, _) = bddfc_zoo::anonymous_chain(&mut voc, len);
            let t0 = Instant::now();
            let analyzer = TypeAnalyzer::new(&inst, &mut voc, n);
            let classes = analyzer.partition().len();
            rows.push(format!(
                "{len:<8} {n:>6} {classes:>10} {:>9}",
                t0.elapsed().as_millis()
            ));
        }
    }
    rows.push("systems: partition cost grows with n (neighbourhood radius), classes stay 2(n-1)+1".into());
    rows
}

fn e15() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<10} {:>6} {:>6} {:>12} {:>9}",
        "structure", "m", "n", "conservative", "time ms"
    )];
    // Bounded-degree structure: chain plus doubling chords (the §5.5
    // chase shape, degree ≤ 4).
    let mut voc = Vocabulary::new();
    let e = voc.pred("E", 2);
    let r = voc.pred("R", 2);
    let elems: Vec<_> = (0..20).map(|_| voc.fresh_null("x")).collect();
    let mut inst = Instance::new();
    for i in 0..19 {
        inst.insert(Fact::new(e, vec![elems[i], elems[i + 1]]));
    }
    for i in 0..10 {
        inst.insert(Fact::new(r, vec![elems[i], elems[2 * i]]));
    }
    for m in [1usize, 2] {
        let t0 = Instant::now();
        match find_conservative_n(&inst, &mut voc, m, m.max(2)..=6) {
            Some((n, check)) => rows.push(format!(
                "{:<10} {m:>6} {n:>6} {:>12} {:>9}",
                "chords",
                check.is_conservative(),
                t0.elapsed().as_millis()
            )),
            None => rows.push(format!("{:<10} {m:>6} none", "chords")),
        }
    }
    rows.push("paper (Lemma 13): bounded degree => ptp-conservative".into());
    rows
}


fn e16() -> Vec<String> {
    let mut rows = vec![format!(
        "{:<12} {:>14} {:>12} {:>10}",
        "theory", "defines order", "chain len", "is FC"
    )];
    // Conjecture 2 (refuted): non-FC iff defines an ordering. The "if"
    // half is a sound non-FC detector; the notorious example breaks the
    // "only if" half.
    let cases: [(&str, bddfc_core::Program, bool); 3] = [
        ("order", bddfc_zoo::order_theory(), false),
        ("notorious", bddfc_zoo::notorious(), false),
        ("chain", bddfc_zoo::chain_theory(), true),
    ];
    for (name, prog, is_fc) in cases {
        let mut voc = prog.voc.clone();
        let witness = bddfc_classes::order_probe(&prog.instance, &prog.theory, &mut voc, 10, 6);
        rows.push(format!(
            "{name:<12} {:>14} {:>12} {:>10}",
            witness.is_some(),
            witness.as_ref().map(|w| w.chain.len()).unwrap_or(0),
            is_fc
        ));
    }
    rows.push("paper: 'order' defines one (=> not FC); 'notorious' does NOT yet is".into());
    rows.push("still not FC (see e9) — Conjecture 2's 'only if' fails, as claimed".into());
    rows
}

fn e17() -> Vec<String> {
    use bddfc_rewrite::{find_fork, measure, resolve_fork_with, shape};
    let mut rows = vec![format!("{:<44} {:>22} {:>9}", "query", "shape", "measure")];
    let mut voc = Vocabulary::new();
    let _ = voc.pred("P", 2);
    for src in [
        "E(X,Y), E(Y,Z), F(Y,W)",
        "E(X,Y), E(Y,Z), E(Z,X)",
        "F(X1,Y1), F(X2,Y1), G(X2,Y2), G(X1,Y2)",
        "E(X,X)",
    ] {
        let q = parse_query(src, &mut voc).unwrap();
        rows.push(format!("{src:<44} {:>22} {:>9}", format!("{:?}", shape(&q)), measure(&q)));
    }
    // One Lemma 11 normalization step on the Example 9 diamond.
    let diamond = parse_query("F(X1,Y1), F(X2,Y1), G(X2,Y2), G(X1,Y2)", &mut voc).unwrap();
    let fork = find_fork(&diamond).expect("diamond has a fork");
    let p = voc.find_pred("P").unwrap();
    let resolved = resolve_fork_with(&diamond, &fork, p);
    rows.push(format!(
        "normalization step: measure {} -> {} (strictly decreasing, Lemma 10)",
        measure(&diamond),
        measure(&resolved)
    ));
    // Derivation-depth trace (the object BDD bounds).
    let prog = bddfc_core::parse_program(
        "E(X,Y), E(Y,Z) -> E(X,Z). E(a,b). E(b,c). E(c,d). E(d,e2).",
    )
    .unwrap();
    let mut voc2 = prog.voc.clone();
    let traced = bddfc_chase::traced_chase(&prog.instance, &prog.theory, &mut voc2, 8);
    let max_h = traced
        .instance
        .facts()
        .iter()
        .map(|f| traced.explain(f).map(|t| t.height()).unwrap_or(0))
        .max()
        .unwrap_or(0);
    rows.push(format!(
        "derivation trees over TC of a 4-edge chain: {} facts, max height {max_h}",
        traced.instance.len()
    ));
    rows.push("paper (Sec. 4): trees are harmless, directed cycles impossible,".into());
    rows.push("undirected cycles are normalized away with a decreasing measure".into());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_runs() {
        for exp in all_experiments() {
            let rows = (exp.run)();
            assert!(rows.len() >= 2, "experiment {} produced no rows", exp.id);
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("nope").is_none());
        assert!(run_experiment("e3").is_some());
    }

    #[test]
    fn saturation_smoke() {
        let mut voc = Vocabulary::new();
        let (theory, db, _) =
            parse_into("E(X,Y), E(Y,Z) -> E(X,Z). E(a,b). E(b,c).", &mut voc).unwrap();
        let res = bddfc_chase::saturate_datalog(&db, &theory);
        assert_eq!(res.instance.len(), 3);
    }
}
