//! Integration tests pinning, per experiment id of DESIGN.md, the
//! checkable claims each example of the paper makes.

use bddfc::prelude::*;
use bddfc::types::check_conservative;
use bddfc_core::fxhash::FxHashSet;

/// E1 — Example 1: the chase of D = {E(a,b)} is an infinite E-chain
/// (one new element per round); the 3-cycle image M′ is *not* a model
/// (the triangle rule fires) and Chase(M′, T) diverges.
#[test]
fn e1_triangle_collapse_diverges() {
    let prog = bddfc::zoo::example1();
    let mut voc = prog.voc.clone();

    let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::rounds(10));
    assert_eq!(res.instance.len(), 11); // E-chain only, one edge per round
    let u = voc.find_pred("U").unwrap();
    assert!(res.instance.facts_with_pred(u).is_empty());

    // M' = the 3-cycle: a homomorphic image of the chase (parsed into the
    // *same* vocabulary so predicate ids line up)…
    let mut voc2 = prog.voc.clone();
    let (_, m_prime, _) =
        bddfc::core::parse_into("E(a,b). E(b,c). E(c,a).", &mut voc2).unwrap();
    // …that is not a model of T: the triangle rule is violated,
    assert!(!bddfc::core::satisfaction::satisfies_theory(&m_prime, &prog.theory));
    // …and chasing it diverges: U-chains keep growing.
    let res2 = chase(&m_prime, &prog.theory, &mut voc2, ChaseConfig::rounds(12));
    assert!(!res2.is_fixpoint());
    let u2 = voc2.find_pred("U").unwrap();
    assert_eq!(res2.instance.facts_with_pred(u2).len(), 3 * 12);
}

/// E2 — Example 2: ptp₂ of `a` agrees between the chain and the
/// triangle; ptp₃ differs (the 3-cycle query appears).
#[test]
fn e2_types_of_chain_vs_triangle() {
    let mut voc = Vocabulary::new();
    // Anonymous chain from a (a named, rest nulls — as in the paper,
    // where only D's elements are named).
    let e = voc.pred("E", 2);
    let u = voc.pred("U", 2);
    let _ = u;
    let a = voc.constant("a");
    let mut chain_inst = Instance::new();
    let mut prev = a;
    for _ in 0..8 {
        let next = voc.fresh_null("c");
        chain_inst.insert(bddfc::core::Fact::new(e, vec![prev, next]));
        prev = next;
    }
    // Triangle through a with anonymous b', c'.
    let mut tri = Instance::new();
    let b = voc.fresh_null("b");
    let c = voc.fresh_null("c");
    tri.insert(bddfc::core::Fact::new(e, vec![a, b]));
    tri.insert(bddfc::core::Fact::new(e, vec![b, c]));
    tri.insert(bddfc::core::Fact::new(e, vec![c, a]));

    // ptp₂(chain, a) ⊆ ptp₂(triangle, a): the quotient direction, always
    // automatic. (Example 2 states the two ptp₂ are *equal*; read
    // literally that is loose — the triangle adds an edge *into* a, and
    // the 2-variable query "∃x E(x,a)" sees it. The paper only uses the
    // n = 3 difference, which we pin below. See EXPERIMENTS.md, E2.)
    let an2 = TypeAnalyzer::new(&chain_inst, &mut voc, 2);
    assert!(an2.ptp_included_in(a, &tri, a));
    let an2t = TypeAnalyzer::new(&tri, &mut voc, 2);
    assert!(!an2t.ptp_included_in(a, &chain_inst, a));
    // Restricted to out-edges only, the ptp₂'s agree: drop E(c,a).
    let mut tri_out = Instance::new();
    tri_out.insert(bddfc::core::Fact::new(e, vec![a, b]));
    tri_out.insert(bddfc::core::Fact::new(e, vec![b, c]));
    let an2o = TypeAnalyzer::new(&tri_out, &mut voc, 2);
    assert!(an2o.ptp_included_in(a, &chain_inst, a));

    // ptp₃ differs: the triangle contains the 3-cycle query at a.
    let an3t = TypeAnalyzer::new(&tri, &mut voc, 3);
    assert!(!an3t.ptp_included_in(a, &chain_inst, a));
    // The chain types still embed into the triangle.
    let an3c = TypeAnalyzer::new(&chain_inst, &mut voc, 3);
    assert!(an3c.ptp_included_in(a, &tri, a));
}

/// E3 — Example 3: the quotient of the anonymous chain has a self-loop
/// class, and the positive 1-type of the loop class is *not* the type of
/// any chain element (conservativity fails without colors).
#[test]
fn e3_uncolored_chain_quotient() {
    let mut voc = Vocabulary::new();
    let (chain_inst, elems) = bddfc::zoo::anonymous_chain(&mut voc, 14);
    let n = 3;
    let analyzer = TypeAnalyzer::new(&chain_inst, &mut voc, n);
    let quotient = Quotient::new(&chain_inst, analyzer.partition(), &mut voc);
    // 2(n−1)+1 classes on a finite prefix (both rims distinguished).
    assert_eq!(quotient.class_count(), 2 * (n - 1) + 1);
    let e = voc.find_pred("E").unwrap();
    let interior = quotient.project(elems[7]);
    assert!(quotient
        .instance
        .contains(&bddfc::core::Fact::new(e, vec![interior, interior])));
    // ∃y E(y,y) is in the loop class's ptp₁ but in no chain element's.
    let q = parse_query("E(W,W)", &mut voc).unwrap();
    assert!(bddfc::core::hom::satisfies_cq(&quotient.instance, &q));
    assert!(!bddfc::core::hom::satisfies_cq(&chain_inst, &q));
}

/// E4 — Example 4: with the natural coloring, some n makes the quotient
/// conservative up to size m; and the conservative quotient of the chain
/// is strictly smaller than the chain.
#[test]
fn e4_colored_chain_is_conservative() {
    let mut voc = Vocabulary::new();
    let (chain_inst, _) = bddfc::zoo::anonymous_chain(&mut voc, 20);
    let m = 2;
    let (n, check) = find_conservative_n(&chain_inst, &mut voc, m, 2..=6)
        .expect("Main Lemma: some n works");
    assert!(check.is_conservative());
    assert!(check.quotient.class_count() < chain_inst.domain_size());
    assert!(n <= 4);
}

/// E5 — Example 6 / Remark 3: the total order is not conservative for
/// any coloring at size 1 (a self-loop appears); Remark 3's theory
/// satisfies (♠3) — all small queries already true — while failing (♠2).
#[test]
fn e5_total_order_not_conservative() {
    // A strict total order on 8 anonymous elements.
    let mut voc = Vocabulary::new();
    let lt = voc.pred("Lt", 2);
    let elems: Vec<_> = (0..8).map(|_| voc.fresh_null("o")).collect();
    let mut inst = Instance::new();
    for i in 0..8 {
        for j in (i + 1)..8 {
            inst.insert(bddfc::core::Fact::new(lt, vec![elems[i], elems[j]]));
        }
    }
    // Even the *natural* coloring cannot be conservative at size 1 here
    // while identifying anything: with few enough hues some pair merges
    // and Lt(x,x) appears. We check: no n in range yields a conservative
    // quotient that actually shrinks the structure.
    let sigma: FxHashSet<_> = inst.used_preds().collect();
    let coloring = natural_coloring(&inst, &mut voc, 1);
    let mut shrinking_conservative = false;
    for n in 1..=3 {
        let check = check_conservative(&inst, &coloring, &mut voc, n, 1, &sigma);
        if check.is_conservative() && check.quotient.class_count() < 8 {
            shrinking_conservative = true;
        }
    }
    assert!(!shrinking_conservative);
}

/// E6 — Examples 7/8 + Lemma 5: the skeleton quotient's only R-atoms are
/// diagonal; saturation derives off-diagonal R-atoms without creating
/// elements; the pipeline certifies the final model.
#[test]
fn e6_example7_saturation_and_lemma5() {
    let prog = bddfc::zoo::example7();
    let mut voc = prog.voc.clone();
    let query = parse_query("R(X,Y), E(X,Y)", &mut voc).unwrap();
    let out = finite_countermodel(
        &prog.instance,
        &prog.theory,
        &query,
        &mut voc,
        FcConfig::default(),
    );
    let cert = out.model().expect("Theorem 2");
    assert!(cert.lemma5_no_new_elements, "Lemma 5: no new elements");
    // The model has off-diagonal R-atoms (Example 8's observation).
    let r = voc.find_pred("R").unwrap();
    let off_diag = cert
        .model
        .facts_with_pred(r)
        .iter()
        .any(|&i| {
            let f = cert.model.fact(i);
            f.args[0] != f.args[1]
        });
    assert!(off_diag, "datalog saturation derived off-diagonal R-atoms");
    let failures =
        certify_countermodel(&cert.model, &prog.instance, &prog.theory, &query, &voc);
    assert!(failures.is_empty());
}

/// E7 — Example 9: the quotient of the F/G tree contains an undirected
/// 4-cycle but no short *directed* cycle (Lemma 9), and the pipeline
/// still certifies a countermodel.
#[test]
fn e7_example9_undirected_cycles_are_harmless() {
    let prog = bddfc::zoo::example9();
    let mut voc = prog.voc.clone();
    let query = parse_query("F(X,X)", &mut voc).unwrap();
    let out = finite_countermodel(
        &prog.instance,
        &prog.theory,
        &query,
        &mut voc,
        FcConfig::default(),
    );
    let cert = out.model().expect("Theorem 2 on the tree theory");
    // No directed F-loop (that is the query), and no directed 2-cycle
    // via F on distinct elements either — Lemma 9 for small m.
    let q2 = parse_query("F(X,Y), F(Y,X)", &mut voc).unwrap();
    assert!(!bddfc::core::hom::satisfies_cq(&cert.model, &q2));
    // But an undirected "diamond" (Example 9's 4-cycle) exists: two
    // distinct elements sharing an F-child and a G-child pattern.
    let diamond = parse_query("F(X1,Y1), F(X2,Y1), G(X2,Y2), G(X1,Y2)", &mut voc).unwrap();
    assert!(
        bddfc::core::hom::satisfies_cq(&cert.model, &diamond),
        "the quotient folds the tree into undirected cycles"
    );
}

/// E9 — §5.5: the notorious example has no countermodel up to size 4,
/// while the chase prefix never satisfies the query.
#[test]
fn e9_notorious_example_not_fc() {
    let prog = bddfc::zoo::notorious();
    let mut voc = prog.voc.clone();
    let q = &prog.queries[0];
    // Chase prefix: query never becomes true.
    let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::rounds(12));
    assert!(!bddfc::core::hom::satisfies_cq(&res.instance, q));
    // Finite models: exhaustive search up to 4 elements finds none.
    let out = countermodel(&prog.instance, &prog.theory, &mut voc, q, 4);
    assert_eq!(out, SearchOutcome::NoModelWithin(4));
}

/// E9b — §5.5 intro: the order theory defines an ordering and is not FC.
#[test]
fn e9b_order_theory_not_fc() {
    let prog = bddfc::zoo::order_theory();
    let mut voc = prog.voc.clone();
    let q = &prog.queries[0];
    let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::rounds(8));
    assert!(!bddfc::core::hom::satisfies_cq(&res.instance, q));
    let out = countermodel(&prog.instance, &prog.theory, &mut voc, q, 4);
    assert_eq!(out, SearchOutcome::NoModelWithin(4));
}

/// E10 — §5.6: the guarded→binary translation emits a binary theory in
/// the Theorem 3 fragment.
#[test]
fn e10_guarded_translation_shape() {
    let mut voc = Vocabulary::new();
    let (theory, _, _) = bddfc::core::parse_into(
        "R(X,Y,Z) -> exists W . S(Y,Z,W).
         S(X,Y,Z), P(X) -> P(Z).",
        &mut voc,
    )
    .unwrap();
    let tr = guarded_to_binary(&theory, &mut voc).unwrap();
    assert!(bddfc::classes::is_binary(&tr.theory, &voc));
    assert!(bddfc::classes::is_theorem3_fragment(&tr.theory));
}

/// E11 — §5.2/§5.3: reductions preserve certain answers.
#[test]
fn e11_reductions_preserve_certain_answers() {
    // Ternary reduction.
    let mut voc = Vocabulary::new();
    let (theory, db, _) = bddfc::core::parse_into(
        "P(X,Y,Z,X) -> exists T . R(X,Y,Z,T).
         R(X,Y,Z,T) -> S(X,T).
         P(a,b,c,a).",
        &mut voc,
    )
    .unwrap();
    let mut red = to_ternary(&theory, &mut voc);
    let db_t = red.translate_instance(&db, &mut voc);
    let q = parse_query("S(a,W)", &mut voc).unwrap();
    let q_t = red.translate_query(&q, &mut voc);
    let orig = certain_cq(&db, &theory, &mut voc.clone(), &q, ChaseConfig::rounds(8));
    let new = certain_cq(&db_t, &red.theory, &mut voc.clone(), &q_t, ChaseConfig::rounds(16));
    assert!(orig.is_true() && new.is_true());

    // Multi-head elimination.
    let mut voc2 = Vocabulary::new();
    let (theory2, db2, _) = bddfc::core::parse_into(
        "P(X) -> E(X,Z), U(Z). P(a).",
        &mut voc2,
    )
    .unwrap();
    let single = bddfc::classes::eliminate_multi_heads(&theory2, &mut voc2);
    let q2 = parse_query("E(a,W), U(W)", &mut voc2).unwrap();
    let orig = certain_cq(&db2, &theory2, &mut voc2.clone(), &q2, ChaseConfig::rounds(6));
    let new = certain_cq(&db2, &single, &mut voc2.clone(), &q2, ChaseConfig::rounds(12));
    assert!(orig.is_true() && new.is_true());
}

/// E12 — Definition 2: rewriting-based and chase-based certain answers
/// agree across a matrix of BDD theories, instances and queries.
#[test]
fn e12_rewriting_chase_agreement() {
    let theories = [
        "P(X) -> exists Z . E(X,Z). E(X,Y) -> U(Y).",
        "A(X) -> B(X). B(X) -> exists Z . E(X,Z). E(X,Y) -> exists W . E(Y,W).",
    ];
    let dbs = ["P(a).", "E(a,b). P(b).", "A(a). E(b,b).", "U(c)."];
    let queries = ["U(W)", "E(X1,X2), E(X2,X3)", "P(W), E(W,V)", "B(W)"];
    for t_src in theories {
        for db_src in dbs {
            for q_src in queries {
                let mut voc = Vocabulary::new();
                let (theory, _, _) = bddfc::core::parse_into(t_src, &mut voc).unwrap();
                let (_, db, _) = bddfc::core::parse_into(db_src, &mut voc).unwrap();
                let q = parse_query(q_src, &mut voc).unwrap();
                let via_chase =
                    certain_cq(&db, &theory, &mut voc.clone(), &q, ChaseConfig::rounds(16));
                let via_rw = bddfc::rewrite::certainly_entailed_rewriting(
                    &db,
                    &theory,
                    &mut voc,
                    &q,
                    RewriteConfig::default(),
                );
                if let (Some(rw), true) = (via_rw, via_chase.is_decided()) {
                    assert_eq!(
                        rw,
                        via_chase.is_true(),
                        "disagreement: T={t_src} D={db_src} Q={q_src}"
                    );
                }
            }
        }
    }
}

/// E15 — Lemma 13: a bounded-degree binary structure admits a
/// conservative coloring (radius-based hues).
#[test]
fn e15_bounded_degree_conservative() {
    // The §5.5 chase shape: chain plus R-chords — bounded degree.
    let mut voc = Vocabulary::new();
    let e = voc.pred("E", 2);
    let r = voc.pred("R", 2);
    let elems: Vec<_> = (0..16).map(|_| voc.fresh_null("x")).collect();
    let mut inst = Instance::new();
    for i in 0..15 {
        inst.insert(bddfc::core::Fact::new(e, vec![elems[i], elems[i + 1]]));
    }
    for i in 0..8 {
        inst.insert(bddfc::core::Fact::new(r, vec![elems[i], elems[2 * i]]));
    }
    let m = 2;
    let found = find_conservative_n(&inst, &mut voc, m, 2..=6);
    assert!(found.is_some(), "Lemma 13: bounded degree ⟹ ptp-conservative");
}

/// E16 — Conjecture 2: the order theory defines an ordering, the
/// notorious example does not (yet neither is FC — see E9).
#[test]
fn e16_order_probe() {
    let order = bddfc::zoo::order_theory();
    let mut voc = order.voc.clone();
    let w = order_probe(&order.instance, &order.theory, &mut voc, 10, 6)
        .expect("the order theory defines an ordering");
    assert!(w.chain.len() >= 6);

    let notorious = bddfc::zoo::notorious();
    let mut voc2 = notorious.voc.clone();
    assert!(
        order_probe(&notorious.instance, &notorious.theory, &mut voc2, 10, 6).is_none(),
        "the notorious example defines no ordering (Conjecture 2's 'only if' fails)"
    );
}

/// E17 — Section 4: the query-shape trichotomy and the normalization
/// measure.
#[test]
fn e17_query_shapes_and_measure() {
    use bddfc::rewrite::{find_fork, measure, resolve_fork_with};
    let mut voc = Vocabulary::new();
    let p = voc.pred("P", 2);
    let tree = parse_query("E(X,Y), E(Y,Z)", &mut voc).unwrap();
    assert_eq!(shape(&tree), QueryShape::UndirectedTree);
    let cycle = parse_query("E(X,Y), E(Y,X)", &mut voc).unwrap();
    assert_eq!(shape(&cycle), QueryShape::DirectedCycle);
    let diamond = parse_query("F(X1,Y1), F(X2,Y1), G(X2,Y2), G(X1,Y2)", &mut voc).unwrap();
    assert_eq!(shape(&diamond), QueryShape::UndirectedCycleOnly);
    let fork = find_fork(&diamond).expect("(♥) pattern present");
    let resolved = resolve_fork_with(&diamond, &fork, p);
    assert!(measure(&resolved) < measure(&diamond), "Lemma 10's measure decreases");
}
