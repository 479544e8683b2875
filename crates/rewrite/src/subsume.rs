//! Homomorphic containment and equivalence of conjunctive queries.
//!
//! The rewriting engine keeps its UCQ small by discarding disjuncts that
//! are subsumed by (mapped into by) more general ones. Containment is
//! decided the classical way: `Q_specific ⊑ Q_general` iff `Q_general`
//! maps homomorphically into the frozen (canonical) instance of
//! `Q_specific`, sending free variables to their frozen counterparts in
//! order.
//!
//! Freezing here uses *ephemeral* constants — ids in a reserved high range
//! never handed out by any [`bddfc_core::Vocabulary`] — so the hot
//! subsumption path allocates no interner entries. The homomorphism
//! engine only compares ids, so this is safe.

use bddfc_core::fxhash::FxHashMap;
use bddfc_core::{hom, Binding, ConjunctiveQuery, ConstId, Fact, Instance, PredId, Term, VarId};

/// Base of the ephemeral constant range. Real vocabularies hand out ids
/// sequentially from 0 and could not practically reach 2³¹ symbols.
const EPHEMERAL_BASE: u32 = 1 << 31;

/// Freezes a query into an instance using ephemeral constants; returns the
/// instance and the variable map.
fn freeze_ephemeral(cq: &ConjunctiveQuery) -> (Instance, FxHashMap<VarId, ConstId>) {
    let mut map: FxHashMap<VarId, ConstId> = FxHashMap::default();
    let mut inst = Instance::new();
    let mut next = EPHEMERAL_BASE;
    for atom in &cq.atoms {
        let mut args = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            match t {
                Term::Const(c) => {
                    debug_assert!(c.0 < EPHEMERAL_BASE, "real constant in ephemeral range");
                    args.push(*c);
                }
                Term::Var(v) => {
                    let c = *map.entry(*v).or_insert_with(|| {
                        let c = ConstId(next);
                        // Wrapping back to 0 would collide with real
                        // vocabulary ids and silently corrupt containment
                        // answers — fail loudly instead.
                        next = next.checked_add(1).unwrap_or_else(|| {
                            panic!(
                                "ephemeral constant counter wrapped past u32::MAX \
                                 freezing a query with {} atoms",
                                cq.atoms.len()
                            )
                        });
                        c
                    });
                    args.push(c);
                }
            }
        }
        inst.insert(Fact::new(atom.pred, args));
    }
    (inst, map)
}

/// The sorted, deduplicated predicate list of a query — the cheap
/// signature the subsumption prefilter compares.
fn signature(cq: &ConjunctiveQuery) -> Vec<PredId> {
    let mut preds: Vec<PredId> = cq.atoms.iter().map(|a| a.pred).collect();
    preds.sort_unstable();
    preds.dedup();
    preds
}

/// Is the sorted-deduplicated set `general` contained in `specific`?
fn sig_included(general: &[PredId], specific: &[PredId]) -> bool {
    let mut rest = specific;
    'outer: for g in general {
        while let Some((s, tail)) = rest.split_first() {
            rest = tail;
            if s == g {
                continue 'outer;
            }
            if s > g {
                return false;
            }
        }
        return false;
    }
    true
}

/// Does every instance satisfying `specific` also satisfy `general`?
/// (I.e. `specific ⊑ general`; `general` homomorphically maps into
/// `specific`.) Free variable tuples are matched positionally.
///
/// A homomorphism sends every atom of `general` onto a same-predicate
/// atom of `specific`, so predicate-*set* containment is a sound, cheap
/// prefilter before the backtracking search. Atom counts carry no such
/// condition: distinct atoms of `general` may collapse onto one atom of
/// `specific` (a larger query can subsume a smaller one).
pub fn subsumes(general: &ConjunctiveQuery, specific: &ConjunctiveQuery) -> bool {
    sig_included(&signature(general), &signature(specific))
        && subsumes_unfiltered(general, specific)
}

/// [`subsumes`] without the signature prefilter — the oracle the
/// differential test pins the prefiltered path against.
#[doc(hidden)]
pub fn subsumes_unfiltered(general: &ConjunctiveQuery, specific: &ConjunctiveQuery) -> bool {
    if general.free.len() != specific.free.len() {
        return false;
    }
    let (frozen, var_map) = freeze_ephemeral(specific);
    let mut init = Binding::default();
    for (&gv, &sv) in general.free.iter().zip(specific.free.iter()) {
        let Some(&target) = var_map.get(&sv) else {
            // A free variable of `specific` not occurring in its atoms:
            // cannot anchor the mapping; treat conservatively.
            return false;
        };
        // Two general free vars may coincide; enforce consistency.
        if let Some(&existing) = init.get(&gv) {
            if existing != target {
                return false;
            }
        }
        init.insert(gv, target);
    }
    hom::hom_exists(&frozen, &general.atoms, &init)
}

/// Are the two queries homomorphically equivalent?
pub fn equivalent(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    subsumes(a, b) && subsumes(b, a)
}

/// Work counters for the subsumption machinery: how often the cheap
/// predicate-signature prefilter answered a pair, versus falling through
/// to the backtracking homomorphism check. The prefilter hit rate is
/// `prefilter_rejects / pairs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubsumeStats {
    /// Ordered (candidate, existing) pairs examined.
    pub pairs: u64,
    /// Pairs the signature prefilter rejected without a hom check.
    pub prefilter_rejects: u64,
    /// Pairs that needed the full backtracking homomorphism check.
    pub hom_checks: u64,
}

/// Inserts `cq` into a set of pairwise-incomparable disjuncts: drops it if
/// subsumed by an existing disjunct, else removes disjuncts it subsumes
/// and appends it. Returns `true` if the query was inserted.
pub fn insert_minimal(disjuncts: &mut Vec<ConjunctiveQuery>, cq: ConjunctiveQuery) -> bool {
    let mut stats = SubsumeStats::default();
    insert_minimal_counted(disjuncts, cq, &mut stats)
}

/// [`insert_minimal`] with work counters: every subsumption pair examined
/// bumps `stats`, splitting prefilter rejections from full hom checks.
pub fn insert_minimal_counted(
    disjuncts: &mut Vec<ConjunctiveQuery>,
    cq: ConjunctiveQuery,
    stats: &mut SubsumeStats,
) -> bool {
    let sig = signature(&cq);
    for existing in disjuncts.iter() {
        stats.pairs += 1;
        if sig_included(&signature(existing), &sig) {
            stats.hom_checks += 1;
            if subsumes_unfiltered(existing, &cq) {
                return false;
            }
        } else {
            stats.prefilter_rejects += 1;
        }
    }
    disjuncts.retain(|existing| {
        stats.pairs += 1;
        if sig_included(&sig, &signature(existing)) {
            stats.hom_checks += 1;
            !subsumes_unfiltered(&cq, existing)
        } else {
            stats.prefilter_rejects += 1;
            true
        }
    });
    disjuncts.push(cq);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::{parse_query, Vocabulary};

    #[test]
    fn shorter_path_subsumes_longer() {
        let mut voc = Vocabulary::new();
        let p1 = parse_query("E(X,Y)", &mut voc).unwrap();
        let p2 = parse_query("E(X,Y), E(Y,Z)", &mut voc).unwrap();
        assert!(subsumes(&p1, &p2));
        assert!(!subsumes(&p2, &p1));
    }

    #[test]
    fn loop_is_most_specific() {
        let mut voc = Vocabulary::new();
        let path = parse_query("E(X,Y), E(Y,Z)", &mut voc).unwrap();
        let lp = parse_query("E(W,W)", &mut voc).unwrap();
        assert!(subsumes(&path, &lp));
        assert!(!subsumes(&lp, &path));
    }

    #[test]
    fn equivalence_up_to_redundancy() {
        let mut voc = Vocabulary::new();
        let q1 = parse_query("E(X,Y)", &mut voc).unwrap();
        let q2 = parse_query("E(X,Y), E(X2,Y2)", &mut voc).unwrap();
        assert!(equivalent(&q1, &q2));
    }

    #[test]
    fn constants_block_subsumption() {
        let mut voc = Vocabulary::new();
        let qa = parse_query("E(a,Y)", &mut voc).unwrap();
        let qv = parse_query("E(X,Y)", &mut voc).unwrap();
        assert!(subsumes(&qv, &qa));
        assert!(!subsumes(&qa, &qv));
    }

    #[test]
    fn free_variables_anchor_the_mapping() {
        let mut voc = Vocabulary::new();
        let mut q1 = parse_query("E(X,Y)", &mut voc).unwrap();
        q1.free = vec![voc.var("X")];
        let mut q2 = parse_query("E(X,Y)", &mut voc).unwrap();
        q2.free = vec![voc.var("Y")];
        // Boolean-ly equivalent but answer variables differ.
        assert!(!subsumes(&q1, &q2));
        assert!(subsumes(&q1, &q1.clone()));
    }

    #[test]
    fn insert_minimal_keeps_antichain() {
        let mut voc = Vocabulary::new();
        let edge = parse_query("E(X,Y)", &mut voc).unwrap();
        let path = parse_query("E(X,Y), E(Y,Z)", &mut voc).unwrap();
        let lp = parse_query("E(W,W)", &mut voc).unwrap();
        let mut set = Vec::new();
        assert!(insert_minimal(&mut set, path));
        // Path subsumes loop, so loop is rejected.
        assert!(!insert_minimal(&mut set, lp));
        assert_eq!(set.len(), 1);
        assert!(insert_minimal(&mut set, edge));
        // Edge subsumes path: set collapses to {edge}.
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].atoms.len(), 1);
    }

    #[test]
    fn counted_insert_splits_prefilter_from_hom_checks() {
        let mut voc = Vocabulary::new();
        let edge = parse_query("E(X,Y)", &mut voc).unwrap();
        let other = parse_query("F(X,Y)", &mut voc).unwrap();
        let longer = parse_query("E(X,Y), E(Y,Z)", &mut voc).unwrap();
        let mut set = Vec::new();
        let mut stats = SubsumeStats::default();
        assert!(insert_minimal_counted(&mut set, edge, &mut stats));
        // Empty set: nothing to compare against.
        assert_eq!(stats, SubsumeStats::default());
        assert!(insert_minimal_counted(&mut set, other, &mut stats));
        // F(X,Y) vs E(X,Y): disjoint signatures, both directions answered
        // by the prefilter.
        assert_eq!(stats.pairs, 2);
        assert_eq!(stats.prefilter_rejects, 2);
        assert_eq!(stats.hom_checks, 0);
        // The 2-path is subsumed by the edge — the very first pair passes
        // the prefilter (E ⊆ E), the hom check answers, and the scan
        // returns early without ever reaching F(X,Y).
        assert!(!insert_minimal_counted(&mut set, longer, &mut stats));
        assert_eq!(stats.pairs, 3);
        assert_eq!(stats.hom_checks, 1);
        assert_eq!(stats.pairs, stats.prefilter_rejects + stats.hom_checks);
    }

    #[test]
    fn arity_mismatch_never_subsumes() {
        let mut voc = Vocabulary::new();
        let mut q1 = parse_query("E(X,Y)", &mut voc).unwrap();
        q1.free = vec![voc.var("X")];
        let q2 = parse_query("E(X,Y)", &mut voc).unwrap();
        assert!(!subsumes(&q1, &q2));
    }

    #[test]
    fn prefilter_agrees_with_unfiltered_oracle() {
        // Differential pin: `subsumes` (signature-prefiltered) must answer
        // exactly like the raw homomorphism check on every ordered pair of
        // a diverse query zoo — including pairs the prefilter rejects.
        let mut voc = Vocabulary::new();
        let sources = [
            "E(X,Y)",
            "E(X,Y), E(Y,Z)",
            "E(W,W)",
            "E(X,Y), E(X2,Y2)",
            "E(a,Y)",
            "E(X,Y), F(Y,Z)",
            "F(X,Y)",
            "F(X,X), E(X,Y), G(Y)",
            "G(X), G(Y)",
            "E(X,Y), E(Y,X), F(X,X)",
        ];
        let mut zoo: Vec<ConjunctiveQuery> =
            sources.iter().map(|s| parse_query(s, &mut voc).unwrap()).collect();
        // A few with answer variables, to exercise the anchored path.
        let mut anchored = parse_query("E(U,V), E(V,W)", &mut voc).unwrap();
        anchored.free = vec![voc.var("U")];
        zoo.push(anchored);
        for general in &zoo {
            for specific in &zoo {
                assert_eq!(
                    subsumes(general, specific),
                    subsumes_unfiltered(general, specific),
                    "prefilter changed the answer for {general:?} vs {specific:?}"
                );
            }
        }
    }

    #[test]
    fn free_var_paths_are_incomparable() {
        // With endpoints free, E(U,V) does not subsume the 2-path.
        let mut voc = Vocabulary::new();
        let mut edge = parse_query("E(U,V)", &mut voc).unwrap();
        edge.free = vec![voc.var("U"), voc.var("V")];
        let mut path = parse_query("E(U,W), E(W,V)", &mut voc).unwrap();
        path.free = vec![voc.var("U"), voc.var("V")];
        assert!(!subsumes(&edge, &path));
        assert!(!subsumes(&path, &edge));
    }
}
