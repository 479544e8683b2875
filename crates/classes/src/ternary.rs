//! The ternary reduction of Section 5.2 (Theorem 4).
//!
//! Every predicate of arity `k ≥ 4` is list-encoded by a chain of ternary
//! *link* predicates, "giving names to lists of variables, in the good old
//! Prolog way": `P(x₁,…,xₖ)` becomes
//!
//! ```text
//! P₁(x₁,x₂,w₁) ∧ P₂(w₁,x₃,w₂) ∧ … ∧ P_{k-2}(w_{k-3}, x_{k-1}, w_{k-2})
//!              ∧ P_fin(w_{k-2}, xₖ)
//! ```
//!
//! In rule *bodies* and queries the `wᵢ` are ordinary (existentially read)
//! variables; a rule *deriving* `P` must invent the list names, so it is
//! split into a chain of TGDs exactly as in the paper's example — which
//! also means datalog rules with wide heads become existential TGDs in the
//! ternary theory (harmless for certain answers, as §5.4 notes).

use bddfc_core::{Atom, ConjunctiveQuery, Fact, Instance, PredId, Rule, Term, Theory, Vocabulary};
use bddfc_core::fxhash::FxHashMap;

/// The per-predicate encoding: the chain of link predicates.
#[derive(Clone, Debug)]
pub struct ChainEncoding {
    /// Ternary link predicates `P₁ … P_{k-2}`.
    pub links: Vec<PredId>,
    /// The final binary predicate `P_fin` holding `(list, xₖ)`.
    pub fin: PredId,
}

/// A ternary reduction of a theory, with the signature map needed to
/// translate queries and instances.
#[derive(Clone, Debug)]
pub struct TernaryReduction {
    /// The reduced theory (all predicates of arity ≤ 3).
    pub theory: Theory,
    /// Encodings for every reduced predicate.
    pub encodings: FxHashMap<PredId, ChainEncoding>,
}

fn encoding_for(
    pred: PredId,
    voc: &mut Vocabulary,
    encodings: &mut FxHashMap<PredId, ChainEncoding>,
) -> ChainEncoding {
    if let Some(e) = encodings.get(&pred) {
        return e.clone();
    }
    let k = voc.arity(pred);
    debug_assert!(k >= 4);
    let name = voc.pred_name(pred).to_owned();
    let links: Vec<PredId> = (1..=k - 2)
        .map(|i| voc.fresh_pred(&format!("{name}_l{i}"), 3))
        .collect();
    let fin = voc.fresh_pred(&format!("{name}_fin"), 2);
    let enc = ChainEncoding { links, fin };
    encodings.insert(pred, enc.clone());
    enc
}

/// Expands a wide atom into its view conjunction, using `fresh` to mint
/// the list variables. Returns the replacement atoms.
fn expand_atom(
    atom: &Atom,
    voc: &mut Vocabulary,
    encodings: &mut FxHashMap<PredId, ChainEncoding>,
) -> Vec<Atom> {
    let enc = encoding_for(atom.pred, voc, encodings);
    let mut out = Vec::new();
    let mut prev = Term::Var(voc.fresh_var("w"));
    for (i, link) in enc.links.iter().enumerate() {
        let args = if i == 0 {
            vec![atom.args[0], atom.args[1], prev]
        } else {
            let next = Term::Var(voc.fresh_var("w"));
            let a = vec![prev, atom.args[i + 1], next];
            prev = next;
            a
        };
        out.push(Atom::new(*link, args));
    }
    out.push(Atom::new(enc.fin, vec![prev, *atom.args.last().expect("arity ≥ 4")]));
    out
}

/// Reduces a single-head theory to arity ≤ 3 (Theorem 4's construction).
pub fn to_ternary(theory: &Theory, voc: &mut Vocabulary) -> TernaryReduction {
    let mut encodings: FxHashMap<PredId, ChainEncoding> = FxHashMap::default();
    let mut rules: Vec<Rule> = Vec::new();

    for rule in &theory.rules {
        // Expand wide body atoms in place.
        let mut body = Vec::new();
        for atom in &rule.body {
            if atom.args.len() >= 4 {
                body.extend(expand_atom(atom, voc, &mut encodings));
            } else {
                body.push(atom.clone());
            }
        }
        let mut heads_done = false;
        for head in &rule.head {
            if head.args.len() < 4 {
                rules.push(Rule::single(body.clone(), head.clone()));
                heads_done = true;
                continue;
            }
            // Wide head: chain of TGDs, each re-matching the body plus the
            // links built so far (the paper's example pattern).
            let enc = encoding_for(head.pred, voc, &mut encodings);
            let mut ctx = body.clone();
            let mut prev: Option<Term> = None;
            for (i, link) in enc.links.iter().enumerate() {
                let w = Term::Var(voc.fresh_var("hw"));
                let atom = if i == 0 {
                    Atom::new(*link, vec![head.args[0], head.args[1], w])
                } else {
                    Atom::new(*link, vec![prev.expect("chained"), head.args[i + 1], w])
                };
                rules.push(Rule::single(ctx.clone(), atom.clone()));
                ctx.push(atom);
                prev = Some(w);
            }
            let last = *head.args.last().expect("arity ≥ 4");
            rules.push(Rule::single(
                ctx,
                Atom::new(enc.fin, vec![prev.expect("chained"), last]),
            ));
            heads_done = true;
        }
        debug_assert!(heads_done);
    }
    TernaryReduction { theory: Theory::new(rules), encodings }
}

impl TernaryReduction {
    /// Translates a query over the original signature. A wide predicate
    /// the theory never mentions gets its encoding registered here, so a
    /// later [`TernaryReduction::translate_instance`] encodes its facts
    /// with the same link predicates (and the reverse order works too).
    pub fn translate_query(
        &mut self,
        query: &ConjunctiveQuery,
        voc: &mut Vocabulary,
    ) -> ConjunctiveQuery {
        let mut atoms = Vec::new();
        for atom in &query.atoms {
            if atom.args.len() >= 4 {
                atoms.extend(expand_atom(atom, voc, &mut self.encodings));
            } else {
                atoms.push(atom.clone());
            }
        }
        ConjunctiveQuery { atoms, free: query.free.clone() }
    }

    /// Translates a database instance (fresh nulls name the lists),
    /// registering an encoding for every wide predicate the theory never
    /// mentions.
    pub fn translate_instance(&mut self, db: &Instance, voc: &mut Vocabulary) -> Instance {
        let mut out = Instance::new();
        for fact in db.facts() {
            if fact.args.len() < 4 {
                out.insert(fact.clone());
                continue;
            }
            let enc = encoding_for(fact.pred, voc, &mut self.encodings);
            let mut prev = voc.fresh_null("lst");
            for (i, link) in enc.links.iter().enumerate() {
                if i == 0 {
                    out.insert(Fact::new(*link, vec![fact.args[0], fact.args[1], prev]));
                } else {
                    let next = voc.fresh_null("lst");
                    out.insert(Fact::new(*link, vec![prev, fact.args[i + 1], next]));
                    prev = next;
                }
            }
            out.insert(Fact::new(
                enc.fin,
                vec![prev, *fact.args.last().expect("arity ≥ 4")],
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_chase::{certain_cq, ChaseConfig};
    use bddfc_core::{parse_into, parse_query};

    #[test]
    fn output_is_ternary() {
        let mut voc = Vocabulary::new();
        let (theory, _, _) = parse_into(
            "P(X,Y,Z,X) -> exists T . R(X,Y,Z,T).
             R(X,Y,Z,T) -> S(X,T).",
            &mut voc,
        )
        .unwrap();
        let red = to_ternary(&theory, &mut voc);
        assert!(red.theory.preds().into_iter().all(|p| voc.arity(p) <= 3));
    }

    #[test]
    fn arity4_head_splits_into_three_rules() {
        // The paper's example: one arity-4 TGD becomes three rules.
        let mut voc = Vocabulary::new();
        let (theory, _, _) =
            parse_into("P(X,Y,Z,X) -> exists T . R(X,Y,Z,T).", &mut voc).unwrap();
        let red = to_ternary(&theory, &mut voc);
        assert_eq!(red.theory.len(), 3);
    }

    #[test]
    fn certain_answers_preserved_through_reduction() {
        let mut voc = Vocabulary::new();
        let (theory, db, _) = parse_into(
            "P(X,Y,Z,X) -> exists T . R(X,Y,Z,T).
             R(X,Y,Z,T) -> S(X,T).
             P(a,b,c,a).",
            &mut voc,
        )
        .unwrap();
        let mut red = to_ternary(&theory, &mut voc);
        let db_t = red.translate_instance(&db, &mut voc);
        for q_src in ["S(a,W)", "R(a,b,c,W)", "R(b,a,c,W)", "S(b,W)"] {
            let q = parse_query(q_src, &mut voc).unwrap();
            let q_t = red.translate_query(&q, &mut voc);
            let orig = certain_cq(&db, &theory, &mut voc.clone(), &q, ChaseConfig::rounds(8));
            let new = certain_cq(&db_t, &red.theory, &mut voc.clone(), &q_t, ChaseConfig::rounds(16));
            assert_eq!(orig.is_true(), new.is_true(), "query {q_src}");
        }
    }

    #[test]
    fn narrow_predicates_untouched() {
        let mut voc = Vocabulary::new();
        let (theory, db, _) = parse_into(
            "E(X,Y) -> exists Z . E(Y,Z). E(a,b).",
            &mut voc,
        )
        .unwrap();
        let mut red = to_ternary(&theory, &mut voc);
        assert_eq!(red.theory.len(), 1);
        assert!(red.encodings.is_empty());
        let db_t = red.translate_instance(&db, &mut voc);
        assert_eq!(db_t.len(), db.len());
    }

    #[test]
    fn instance_translation_builds_chain() {
        let mut voc = Vocabulary::new();
        let (theory, db, _) = parse_into(
            "R(X,Y,Z,T) -> S(X,T). R(a,b,c,d).",
            &mut voc,
        )
        .unwrap();
        let mut red = to_ternary(&theory, &mut voc);
        let db_t = red.translate_instance(&db, &mut voc);
        // arity 4: 2 links + 1 fin = 3 facts.
        assert_eq!(db_t.len(), 3);
    }

    #[test]
    fn wide_predicates_outside_the_theory_translate_consistently() {
        // No rule mentions the arity-4 Q, so the reduction has no encoding
        // for it until the instance and the query register one.
        let mut voc = Vocabulary::new();
        let (theory, db, _) = parse_into(
            "E(X,Y) -> S(X). E(a,b). Q(a,b,c,d).",
            &mut voc,
        )
        .unwrap();
        let mut red = to_ternary(&theory, &mut voc);
        let q_pred = voc.find_pred("Q").unwrap();
        assert!(!red.encodings.contains_key(&q_pred));
        let db_t = red.translate_instance(&db, &mut voc);
        // E(a,b) plus 2 links + 1 fin for Q(a,b,c,d).
        assert_eq!(db_t.len(), 4);
        assert!(red.encodings.contains_key(&q_pred));
        for (q_src, holds) in [("Q(a,b,c,d)", true), ("Q(a,W,c,d)", true), ("Q(a,b,d,c)", false)] {
            let q = parse_query(q_src, &mut voc).unwrap();
            let q_t = red.translate_query(&q, &mut voc);
            let new =
                certain_cq(&db_t, &red.theory, &mut voc.clone(), &q_t, ChaseConfig::rounds(4));
            assert_eq!(new.is_true(), holds, "query {q_src}");
        }
    }
}
