//! UCQ rewriting by piece unification — the engine behind the BDD
//! property (Definition 2).
//!
//! A theory `T` is BDD iff every query `Φ` admits a *positive first order
//! rewriting*: a UCQ `Φ'` with `T, D ⊨ Φ ⇔ D ⊨ Φ'` for all `D`. The
//! rewriting is computed by backward-chaining: pick a disjunct `q`, a rule
//! `body ⇒ ∃z̄ h`, and a *piece* — a set of atoms of `q` unifiable with
//! `h` such that every variable merged with an existential `z̄` position
//! occurs nowhere outside the piece and is not an answer variable. Then
//! `θ(q ∖ piece) ∪ θ(body)` is a new disjunct. Saturation (up to
//! homomorphic subsumption) yields the rewriting; for BDD theories the
//! process terminates, and its output is exactly the `Φ'` used throughout
//! Section 3 of the paper.

use crate::subsume::{insert_minimal, insert_minimal_counted, SubsumeStats};
use crate::unify::{unify_with_all, Subst};
use bddfc_core::fxhash::{FxHashMap, FxHashSet};
use bddfc_core::obs::{Event, EventSink, SpanTimer, NULL};
use bddfc_core::par;
use bddfc_core::{Atom, ConjunctiveQuery, Rule, Term, Theory, Ucq, VarId, Vocabulary};

/// `par` work units (about one chase witness check each, see
/// [`par::MIN_PAR_WORK`]) per (frontier query, rule) pair a generation
/// piece-unifies: generations cost 10–110 µs per pair on the E12 and
/// transitivity rewritings.
const EXPAND_WORK: usize = 256;

/// Budgets for a rewriting run.
#[derive(Clone, Copy, Debug)]
pub struct RewriteConfig {
    /// Maximum number of disjuncts kept (after subsumption pruning).
    pub max_disjuncts: usize,
    /// Maximum number of rewrite steps attempted.
    pub max_steps: usize,
    /// Maximum piece size considered (number of query atoms unified with
    /// one head at once).
    pub max_piece: usize,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig { max_disjuncts: 2_000, max_steps: 200_000, max_piece: 4 }
    }
}

/// The outcome of a rewriting run.
#[derive(Clone, Debug)]
pub struct RewriteResult {
    /// The rewriting computed so far: always *sound* (every disjunct is
    /// entailed); *complete* — a true positive first-order rewriting —
    /// exactly when [`RewriteResult::saturated`].
    pub ucq: Ucq,
    /// Did the process reach a fixpoint within budget? If so the theory
    /// admits a UCQ rewriting for this query (the BDD witness).
    pub saturated: bool,
    /// Number of successful rewrite steps (new disjuncts generated,
    /// including later-subsumed ones).
    pub steps: usize,
    /// Maximal rewrite depth (generations of backward chaining) over the
    /// retained disjuncts: an upper bound witness for the derivation depth
    /// `k_Φ` of the standard BDD definition.
    pub max_depth: usize,
}

/// Checks the piece condition for one existential variable class.
///
/// `class` is the set of variables unified with an existential head
/// variable; `piece_vars` the variables occurring in the piece;
/// `outside_vars` the variables occurring in the query outside the piece.
fn existential_class_ok(
    class: &[VarId],
    rule_body_vars: &FxHashSet<VarId>,
    query_free: &FxHashSet<VarId>,
    outside_vars: &FxHashSet<VarId>,
) -> bool {
    for v in class {
        // Merged with a frontier/body variable of the rule: the witness
        // would have to equal a pre-existing value — not sound.
        if rule_body_vars.contains(v) {
            return false;
        }
        if query_free.contains(v) || outside_vars.contains(v) {
            return false;
        }
    }
    true
}

/// Attempts one piece rewriting of `query` with `rule` (already renamed
/// apart) over the atom subset `piece` (indices into `query.atoms`).
/// Returns the new disjunct on success.
fn rewrite_step(
    query: &ConjunctiveQuery,
    rule: &Rule,
    piece: &[usize],
) -> Option<ConjunctiveQuery> {
    let head = &rule.head[0];
    let piece_atoms: Vec<&Atom> = piece.iter().map(|&i| &query.atoms[i]).collect();
    let subst: Subst = unify_with_all(head, &piece_atoms)?;

    let rule_body_vars = rule.body_vars();
    let query_free: FxHashSet<VarId> = query.free.iter().copied().collect();
    let piece_set: FxHashSet<usize> = piece.iter().copied().collect();
    let outside_vars: FxHashSet<VarId> = query
        .atoms
        .iter()
        .enumerate()
        .filter(|(i, _)| !piece_set.contains(i))
        .flat_map(|(_, a)| a.vars())
        .collect();

    let existentials = rule.existential_vars();
    for &z in &existentials {
        match subst.walk(Term::Var(z)) {
            Term::Const(_) => return None,
            Term::Var(_) => {
                let class = subst.class_of(Term::Var(z));
                // Two distinct existential variables may never be merged:
                // the chase assigns them distinct fresh nulls.
                if class.iter().any(|v| *v != z && existentials.contains(v)) {
                    return None;
                }
                // Restrict attention to the query's variables in the class
                // (plus rule body variables, which are fatal regardless).
                if !existential_class_ok(&class, &rule_body_vars, &query_free, &outside_vars) {
                    return None;
                }
            }
        }
    }

    // Answer variables must remain variables.
    for &f in &query.free {
        if matches!(subst.walk(Term::Var(f)), Term::Const(_)) {
            return None;
        }
    }

    let mut atoms: Vec<Atom> = Vec::new();
    let mut seen = FxHashSet::default();
    for (i, atom) in query.atoms.iter().enumerate() {
        if !piece_set.contains(&i) {
            let a = subst.apply_atom(atom);
            if seen.insert(a.clone()) {
                atoms.push(a);
            }
        }
    }
    for atom in &rule.body {
        let a = subst.apply_atom(atom);
        if seen.insert(a.clone()) {
            atoms.push(a);
        }
    }
    let free = query
        .free
        .iter()
        .map(|&f| match subst.walk(Term::Var(f)) {
            Term::Var(v) => v,
            Term::Const(_) => unreachable!("checked above"),
        })
        .collect();
    Some(ConjunctiveQuery { atoms, free })
}

/// Enumerates the non-empty subsets of `candidates` of size ≤ `cap`.
fn subsets(candidates: &[usize], cap: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let n = candidates.len();
    // Size-bounded enumeration; pieces beyond the cap are rare in practice
    // (the piece must unify with a *single* head atom).
    fn rec(cands: &[usize], start: usize, cap: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if !cur.is_empty() {
            out.push(cur.clone());
        }
        if cur.len() == cap {
            return;
        }
        for i in start..cands.len() {
            cur.push(cands[i]);
            rec(cands, i + 1, cap, cur, out);
            cur.pop();
        }
    }
    let mut cur = Vec::new();
    rec(candidates, 0, cap.min(n), &mut cur, &mut out);
    out
}

/// Computes the UCQ rewriting of `query` under `theory` within budget.
///
/// Requires single-head rules (the paper's standing assumption); returns
/// `None` if the theory has a multi-head rule.
///
/// Backward chaining proceeds generation by generation (the same order
/// the former FIFO queue visited). Per generation, the rules are renamed
/// apart once sequentially (the vocabulary is mutable state); expanding
/// each frontier disjunct is then read-only and fans out across threads,
/// every item emitting its candidates in canonical (rule, piece) order.
/// Subsumption minimization and the step/disjunct budgets apply on the
/// merged batch, sequentially, so the retained UCQ is identical at any
/// thread count.
pub fn rewrite_query(
    query: &ConjunctiveQuery,
    theory: &Theory,
    voc: &mut Vocabulary,
    config: RewriteConfig,
) -> Option<RewriteResult> {
    rewrite_query_with(query, theory, voc, config, &NULL)
}

/// A dedup key for frontier admission that identifies a CQ up to
/// renaming of its existential variables: atoms are ordered by a
/// name-independent shape, existential variables are then numbered by
/// first occurrence in that order, and the renumbered atoms re-sorted.
/// The renumbering is a bijection, so equal keys imply the two CQs are
/// literally identical after renaming — hence logically equivalent.
/// (Ties in the shape sort can give isomorphic CQs distinct keys; that
/// only costs a re-exploration, never a lost rewriting.)
fn frontier_key(q: &ConjunctiveQuery) -> Vec<u64> {
    const CONST_TAG: u64 = 1 << 32;
    const FREE_TAG: u64 = 2 << 32;
    const EXIST_TAG: u64 = 3 << 32;
    let free: FxHashSet<VarId> = q.free.iter().copied().collect();
    // Shape: existential variables are blanked to the position of their
    // first occurrence within the atom (capturing intra-atom repeats).
    let shape = |a: &Atom| -> Vec<u64> {
        let mut s = vec![a.pred.0 as u64];
        for t in &a.args {
            s.push(match t {
                Term::Const(c) => CONST_TAG | c.0 as u64,
                Term::Var(v) if free.contains(v) => FREE_TAG | v.0 as u64,
                Term::Var(_) => {
                    EXIST_TAG | a.args.iter().position(|u| u == t).unwrap() as u64
                }
            });
        }
        s
    };
    let mut order: Vec<(Vec<u64>, usize)> =
        q.atoms.iter().enumerate().map(|(i, a)| (shape(a), i)).collect();
    order.sort();
    let mut canon: FxHashMap<VarId, u64> = FxHashMap::default();
    let mut rendered: Vec<Vec<u64>> = Vec::with_capacity(order.len());
    for &(_, i) in &order {
        let a = &q.atoms[i];
        let mut r = vec![a.pred.0 as u64];
        for t in &a.args {
            r.push(match t {
                Term::Const(c) => CONST_TAG | c.0 as u64,
                Term::Var(v) if free.contains(v) => FREE_TAG | v.0 as u64,
                Term::Var(v) => {
                    let next = canon.len() as u64;
                    EXIST_TAG | *canon.entry(*v).or_insert(next)
                }
            });
        }
        rendered.push(r);
    }
    rendered.sort();
    // Pred ids carry no tag and args always do, so the flattened stream
    // parses back unambiguously into atoms.
    rendered.into_iter().flatten().collect()
}

/// Like [`rewrite_query`], but reports one `rewrite`/`generation` event
/// per frontier generation into `sink`. Fields: `generation`, `frontier`
/// (disjuncts expanded this generation), `expanded` (candidate disjuncts
/// processed), `inserted` (candidates that survived subsumption),
/// `subsume_pairs` / `prefilter_rejects` / `hom_checks` (the prefilter
/// hit rate is `prefilter_rejects / subsume_pairs`), `steps_total` and
/// `disjuncts_total` (budget consumption), `budget_truncated`; gauges:
/// `wall_ns`, `threads`. Generations cut short by a budget still emit
/// their event before returning.
pub fn rewrite_query_with<S: EventSink>(
    query: &ConjunctiveQuery,
    theory: &Theory,
    voc: &mut Vocabulary,
    config: RewriteConfig,
    sink: &S,
) -> Option<RewriteResult> {
    if !theory.is_single_head() {
        return None;
    }
    // Per-frontier-item attribution: piece-unification attempts and
    // produced rewritings per rule and per piece size, plus per-rule
    // wall time. Only built when a recording sink is installed.
    struct ItemAttr {
        rule_tried: Vec<u64>,
        rule_produced: Vec<u64>,
        rule_ns: Vec<u64>,
        piece_tried: Vec<u64>,
        piece_produced: Vec<u64>,
    }
    let mut disjuncts: Vec<ConjunctiveQuery> = Vec::new();
    insert_minimal(&mut disjuncts, query.clone());
    // Canonical keys of every CQ ever admitted to a frontier. Frontier
    // admission must NOT prune by subsumption: dropping a merely
    // subsumed CQ also drops its future rewritings, which need not be
    // subsumed themselves (found by bddfc-fuzz: a subsumed intermediate
    // whose descendant was the only disjunct matching the database).
    // The output set `disjuncts` still minimizes by subsumption — that
    // direction is sound for UCQ evaluation. Dedup here is by renaming
    // of existential variables (equal keys imply isomorphic CQs), not
    // full logical equivalence: a missed equivalence only re-explores,
    // while pairwise homomorphism checks against everything explored
    // would dominate the whole rewriting on single-predicate queries.
    let mut explored: FxHashSet<Vec<u64>> = FxHashSet::default();
    explored.insert(frontier_key(query));
    let mut frontier: Vec<(ConjunctiveQuery, usize)> = vec![(query.clone(), 0)];

    let mut steps = 0usize;
    let mut max_depth = 0usize;
    let mut generation = 0u64;
    let run_span = if S::ENABLED { sink.span_open("rewrite", "run", 0, None) } else { 0 };

    while !frontier.is_empty() {
        let timer = SpanTimer::start();
        generation += 1;
        let gen_span = if S::ENABLED {
            sink.span_open("rewrite", "generation", run_span, Some(("generation", generation)))
        } else {
            0
        };
        let renamed: Vec<Rule> = theory.rules.iter().map(|r| r.rename_apart(voc)).collect();
        let expansions: Vec<(Vec<ConjunctiveQuery>, Option<ItemAttr>)> =
            par::par_map(&frontier, frontier.len() * renamed.len() * EXPAND_WORK, |(q, _)| {
                let mut out = Vec::new();
                let mut attr = if S::ENABLED {
                    Some(ItemAttr {
                        rule_tried: vec![0; renamed.len()],
                        rule_produced: vec![0; renamed.len()],
                        rule_ns: vec![0; renamed.len()],
                        piece_tried: vec![0; config.max_piece + 1],
                        piece_produced: vec![0; config.max_piece + 1],
                    })
                } else {
                    None
                };
                for (rule_idx, rule) in renamed.iter().enumerate() {
                    let rule_timer = if S::ENABLED { Some(SpanTimer::start()) } else { None };
                    let head_pred = rule.head[0].pred;
                    let candidates: Vec<usize> = q
                        .atoms
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.pred == head_pred)
                        .map(|(i, _)| i)
                        .collect();
                    // Datalog heads have no existential positions, so unifying
                    // two query atoms with the head at once only *specializes* a
                    // singleton-piece rewriting — singletons are complete and
                    // avoid the subset blow-up. Existential heads genuinely need
                    // multi-atom pieces (atoms sharing a witness variable).
                    let piece_cap = if rule.is_datalog() { 1 } else { config.max_piece };
                    for piece in subsets(&candidates, piece_cap) {
                        let rewritten = rewrite_step(q, rule, &piece);
                        if let Some(a) = attr.as_mut() {
                            let size = piece.len().min(config.max_piece);
                            a.rule_tried[rule_idx] += 1;
                            a.piece_tried[size] += 1;
                            if rewritten.is_some() {
                                a.rule_produced[rule_idx] += 1;
                                a.piece_produced[size] += 1;
                            }
                        }
                        if let Some(new_q) = rewritten {
                            out.push(new_q);
                        }
                    }
                    if let (Some(a), Some(t)) = (attr.as_mut(), rule_timer) {
                        a.rule_ns[rule_idx] += t.elapsed_ns();
                    }
                }
                (out, attr)
            });
        let (expansions, item_attrs): (Vec<Vec<ConjunctiveQuery>>, Vec<Option<ItemAttr>>) =
            expansions.into_iter().unzip();
        if S::ENABLED {
            // Merge the per-item attribution (par_map preserves frontier
            // order, so the merge — and every count — is deterministic)
            // and emit per-rule / per-piece-size events under this
            // generation's span.
            let mut merged: Option<ItemAttr> = None;
            for a in item_attrs.into_iter().flatten() {
                match merged.as_mut() {
                    None => merged = Some(a),
                    Some(m) => {
                        for (dst, src) in [
                            (&mut m.rule_tried, &a.rule_tried),
                            (&mut m.rule_produced, &a.rule_produced),
                            (&mut m.rule_ns, &a.rule_ns),
                            (&mut m.piece_tried, &a.piece_tried),
                            (&mut m.piece_produced, &a.piece_produced),
                        ] {
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += s;
                            }
                        }
                    }
                }
            }
            if let Some(m) = merged {
                for rule_idx in 0..m.rule_tried.len() {
                    if m.rule_tried[rule_idx] == 0 {
                        continue;
                    }
                    sink.record(Event {
                        engine: "rewrite",
                        name: "rule",
                        parent: gen_span,
                        key: Some(("rule", rule_idx as u64)),
                        fields: &[
                            ("pieces_tried", m.rule_tried[rule_idx]),
                            ("rewrites", m.rule_produced[rule_idx]),
                        ],
                        gauges: &[("wall_ns", m.rule_ns[rule_idx])],
                    });
                }
                for size in 0..m.piece_tried.len() {
                    if m.piece_tried[size] == 0 {
                        continue;
                    }
                    sink.record(Event {
                        engine: "rewrite",
                        name: "piece",
                        parent: gen_span,
                        key: Some(("piece", size as u64)),
                        fields: &[
                            ("tried", m.piece_tried[size]),
                            ("rewrites", m.piece_produced[size]),
                        ],
                        gauges: &[],
                    });
                }
            }
        }
        let mut next = Vec::new();
        let mut gen_stats = SubsumeStats::default();
        let mut expanded = 0u64;
        let mut inserted = 0u64;
        let mut truncated = false;
        'generation: for ((_, depth), new_qs) in frontier.iter().zip(expansions) {
            for new_q in new_qs {
                if steps >= config.max_steps {
                    truncated = true;
                    break 'generation;
                }
                steps += 1;
                expanded += 1;
                if !explored.insert(frontier_key(&new_q)) {
                    continue;
                }
                // Subsumed-but-novel CQs stay in the frontier (see
                // `explored`) without counting as disjuncts, so bound
                // total exploration separately; overrunning it reports
                // the run as truncated — unsaturated is always a sound
                // verdict, unlike saturated-with-missing-disjuncts.
                if explored.len() > 4 * config.max_disjuncts {
                    truncated = true;
                    break 'generation;
                }
                max_depth = max_depth.max(depth + 1);
                if insert_minimal_counted(&mut disjuncts, new_q.clone(), &mut gen_stats) {
                    inserted += 1;
                    if disjuncts.len() > config.max_disjuncts {
                        truncated = true;
                        break 'generation;
                    }
                }
                next.push((new_q, depth + 1));
            }
        }
        if S::ENABLED {
            sink.record(Event {
                engine: "rewrite",
                name: "generation",
                parent: gen_span,
                key: None,
                fields: &[
                    ("generation", generation),
                    ("frontier", frontier.len() as u64),
                    ("expanded", expanded),
                    ("inserted", inserted),
                    ("subsume_pairs", gen_stats.pairs),
                    ("prefilter_rejects", gen_stats.prefilter_rejects),
                    ("hom_checks", gen_stats.hom_checks),
                    ("steps_total", steps as u64),
                    ("disjuncts_total", disjuncts.len() as u64),
                    ("budget_truncated", u64::from(truncated)),
                ],
                gauges: &[
                    ("wall_ns", timer.elapsed_ns()),
                    ("threads", par::num_threads() as u64),
                ],
            });
            sink.span_close(gen_span);
        }
        if truncated {
            if S::ENABLED {
                sink.span_close(run_span);
            }
            return Some(RewriteResult {
                ucq: Ucq::new(disjuncts),
                saturated: false,
                steps,
                max_depth,
            });
        }
        frontier = next;
    }

    if S::ENABLED {
        sink.span_close(run_span);
    }
    Some(RewriteResult { ucq: Ucq::new(disjuncts), saturated: true, steps, max_depth })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::{parse_program, parse_query, parse_rule};

    #[test]
    fn linear_rule_rewrites_path_query() {
        // Linear (hence BDD) theory: P(x) -> ∃z E(x,z).
        let mut voc = Vocabulary::new();
        let th = Theory::new(vec![parse_rule("P(X) -> E(X,Z)", &mut voc).unwrap()]);
        let q = parse_query("E(U,V)", &mut voc).unwrap();
        let res = rewrite_query(&q, &th, &mut voc, RewriteConfig::default()).unwrap();
        assert!(res.saturated);
        // Rewriting: E(U,V) ∨ P(U).
        assert_eq!(res.ucq.len(), 2);
    }

    #[test]
    fn existential_join_blocks_rewriting_step() {
        // E(U,V), F(V,W): V is shared; unifying E's head witness with V is
        // only legal if V occurs nowhere else — here it does.
        let mut voc = Vocabulary::new();
        let th = Theory::new(vec![parse_rule("P(X) -> E(X,Z)", &mut voc).unwrap()]);
        let q = parse_query("E(U,V), F(V,W)", &mut voc).unwrap();
        let res = rewrite_query(&q, &th, &mut voc, RewriteConfig::default()).unwrap();
        assert!(res.saturated);
        assert_eq!(res.ucq.len(), 1); // no rewriting applies
    }

    #[test]
    fn transitivity_diverges_within_budget() {
        // E(x,y), E(y,z) -> E(x,z) is datalog but not BDD (path queries
        // unfold forever).
        let mut voc = Vocabulary::new();
        let th = Theory::new(vec![parse_rule("E(X,Y), E(Y,Z) -> E(X,Z)", &mut voc).unwrap()]);
        // With U,V free the rewriting is the infinite family of path
        // queries. (The Boolean "some edge exists" query, by contrast,
        // saturates immediately: transitivity derives edges only from
        // edges.)
        let mut q = parse_query("E(U,V)", &mut voc).unwrap();
        q.free = vec![voc.var("U"), voc.var("V")];
        let res = rewrite_query(
            &q,
            &th,
            &mut voc,
            RewriteConfig { max_disjuncts: 30, max_steps: 10_000, max_piece: 2 },
        )
        .unwrap();
        assert!(!res.saturated);
    }

    #[test]
    fn datalog_projection_rewrites() {
        // U(x) :- E(x,y). Query U(a)? becomes U(a) ∨ E(a,Y).
        let mut voc = Vocabulary::new();
        let th = Theory::new(vec![parse_rule("E(X,Y) -> U(X)", &mut voc).unwrap()]);
        let q = parse_query("U(W)", &mut voc).unwrap();
        let res = rewrite_query(&q, &th, &mut voc, RewriteConfig::default()).unwrap();
        assert!(res.saturated);
        assert_eq!(res.ucq.len(), 2);
        assert_eq!(res.max_depth, 1);
    }

    #[test]
    fn two_step_unfolding() {
        let mut voc = Vocabulary::new();
        let th = Theory::new(vec![
            parse_rule("A(X) -> B(X)", &mut voc).unwrap(),
            parse_rule("B(X) -> C(X)", &mut voc).unwrap(),
        ]);
        let q = parse_query("C(W)", &mut voc).unwrap();
        let res = rewrite_query(&q, &th, &mut voc, RewriteConfig::default()).unwrap();
        assert!(res.saturated);
        // C(W) ∨ B(W) ∨ A(W).
        assert_eq!(res.ucq.len(), 3);
        assert_eq!(res.max_depth, 2);
    }

    #[test]
    fn piece_with_two_atoms() {
        // Head E(X,Z) with Z existential; query E(U,V), E(W,V): both atoms
        // share V, so V can only be the witness if *both* atoms join the
        // piece (forcing U ~ W).
        let mut voc = Vocabulary::new();
        let th = Theory::new(vec![parse_rule("P(X) -> E(X,Z)", &mut voc).unwrap()]);
        let q = parse_query("E(U,V), E(W,V)", &mut voc).unwrap();
        let res = rewrite_query(&q, &th, &mut voc, RewriteConfig::default()).unwrap();
        assert!(res.saturated);
        // Expected disjuncts: the original, and P(U) (with U ~ W).
        assert_eq!(res.ucq.len(), 2);
        let has_p = res
            .ucq
            .disjuncts
            .iter()
            .any(|d| d.atoms.len() == 1 && voc.pred_name(d.atoms[0].pred) == "P");
        assert!(has_p);
    }

    #[test]
    fn free_variables_are_protected() {
        // Query with answer variable V: the witness position cannot be
        // projected onto an answer variable.
        let mut voc = Vocabulary::new();
        let th = Theory::new(vec![parse_rule("P(X) -> E(X,Z)", &mut voc).unwrap()]);
        let mut q = parse_query("E(U,V)", &mut voc).unwrap();
        q.free = vec![voc.var("V")];
        let res = rewrite_query(&q, &th, &mut voc, RewriteConfig::default()).unwrap();
        assert!(res.saturated);
        assert_eq!(res.ucq.len(), 1); // only the original disjunct
    }

    #[test]
    fn multi_head_theory_is_rejected() {
        let mut voc = Vocabulary::new();
        let th = Theory::new(vec![parse_rule("P(X) -> E(X,Z), U(Z)", &mut voc).unwrap()]);
        let q = parse_query("E(U,V)", &mut voc).unwrap();
        assert!(rewrite_query(&q, &th, &mut voc, RewriteConfig::default()).is_none());
    }

    #[test]
    fn sink_reports_generations_and_prefilter_split() {
        use bddfc_core::obs::Memory;
        let mut voc = Vocabulary::new();
        let th = Theory::new(vec![
            parse_rule("A(X) -> B(X)", &mut voc).unwrap(),
            parse_rule("B(X) -> C(X)", &mut voc).unwrap(),
        ]);
        let q = parse_query("C(W)", &mut voc).unwrap();
        let sink = Memory::new(64);
        let res =
            rewrite_query_with(&q, &th, &mut voc, RewriteConfig::default(), &sink).unwrap();
        assert!(res.saturated);
        // C → B → A, then one empty-frontier exit: 3 productive-or-final
        // generations, each emitting one event.
        let gens = sink.counter("rewrite", "generation", "generation");
        assert!(gens >= 1 + 2 + 3, "triangular generation sum, got {gens}");
        assert_eq!(sink.counter("rewrite", "generation", "inserted"), 2);
        assert_eq!(sink.counter("rewrite", "generation", "expanded"), res.steps as u64);
        let pairs = sink.counter("rewrite", "generation", "subsume_pairs");
        assert_eq!(
            pairs,
            sink.counter("rewrite", "generation", "prefilter_rejects")
                + sink.counter("rewrite", "generation", "hom_checks")
        );
        assert_eq!(sink.counter("rewrite", "generation", "budget_truncated"), 0);
    }

    #[test]
    fn rewriting_is_sound_and_complete_on_instances() {
        // Cross-validate against the chase on a linear theory.
        let prog = parse_program(
            "P(X) -> exists Z . E(X,Z).
             E(X,Y) -> U(Y).
             P(a). E(b,c).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let q = parse_query("U(W)", &mut voc).unwrap();
        let res = rewrite_query(&q, &prog.theory, &mut voc, RewriteConfig::default()).unwrap();
        assert!(res.saturated);
        // D ⊨ Φ′ should hold: E(b,c) gives U(c) via rule 2, and P(a)
        // gives a witness via rule 1 then U via rule 2.
        assert!(bddfc_core::hom::satisfies_ucq(&prog.instance, &res.ucq));
        // And on an instance with no P and no E, it should fail.
        let empty = bddfc_core::Instance::new();
        assert!(!bddfc_core::hom::satisfies_ucq(&empty, &res.ucq));
    }
}
