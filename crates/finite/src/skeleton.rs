//! The skeleton `S(D, T)` (Definition 12) and its structure (Lemma 3).
//!
//! The skeleton of a chase is the substructure consisting of all elements,
//! the atoms of `D`, and the atoms of the tuple-generating predicates
//! (TGPs). Its atoms are the *skeleton atoms*; everything else in the
//! chase (derived by datalog rules) is *flesh*. For theories in (♠5)
//! form the skeleton's non-constant part is a forest of bounded degree —
//! simple enough to be ptp-conservative, yet rich enough to regenerate the
//! whole chase by datalog saturation alone (Lemma 4).

use bddfc_core::{ConstId, Instance, PredId, Theory, Vocabulary};
use bddfc_core::fxhash::{FxHashMap, FxHashSet};

/// Extracts `S(D,T)`: the atoms of `db` plus all TGP atoms of `chased`.
pub fn skeleton(chased: &Instance, db: &Instance, theory: &Theory) -> Instance {
    let tgps = theory.tgps();
    let mut out = Instance::new();
    for fact in db.facts() {
        out.insert(fact.clone());
    }
    for fact in chased.facts() {
        if tgps.contains(&fact.pred) {
            out.insert(fact.clone());
        }
    }
    out
}

/// Structural report on a skeleton, per Lemma 3.
#[derive(Clone, Debug, Default)]
pub struct SkeletonReport {
    /// (i) `S_non` is acyclic.
    pub acyclic: bool,
    /// (ii) every non-constant element has in-degree ≤ 1 among skeleton
    /// atoms restricted to non-constants.
    pub in_degree_le_1: bool,
    /// (iv) the maximal degree observed among non-constant elements.
    pub max_degree: usize,
    /// Number of non-constant elements.
    pub non_constant_elements: usize,
}

/// Validates the Lemma 3 structure of a skeleton: the restriction to
/// non-constant elements must be a forest (acyclic, in-degree ≤ 1) of
/// degree bounded by `|Σ| + 1`.
pub fn analyze_skeleton(skel: &Instance, voc: &Vocabulary) -> SkeletonReport {
    let non: FxHashSet<ConstId> = skel.domain().filter(|&c| voc.is_null(c)).collect();
    let mut in_deg: FxHashMap<ConstId, usize> = FxHashMap::default();
    let mut out_edges: FxHashMap<ConstId, Vec<ConstId>> = FxHashMap::default();
    let mut degree: FxHashMap<ConstId, usize> = FxHashMap::default();
    for fact in skel.facts() {
        if fact.args.len() != 2 {
            continue;
        }
        let (a, b) = (fact.args[0], fact.args[1]);
        if non.contains(&a) {
            *degree.entry(a).or_default() += 1;
        }
        if non.contains(&b) && (b != a || !non.contains(&a)) {
            *degree.entry(b).or_default() += 1;
        }
        if non.contains(&a) && non.contains(&b) {
            *in_deg.entry(b).or_default() += 1;
            out_edges.entry(a).or_default().push(b);
        }
    }
    let in_degree_le_1 = in_deg.values().all(|&d| d <= 1);

    // Cycle detection on the non-constant digraph (iterative DFS).
    let mut color: FxHashMap<ConstId, u8> = FxHashMap::default(); // 0 new, 1 open, 2 done
    let mut acyclic = true;
    for &start in &non {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color.insert(start, 1);
        while let Some(&(node, idx)) = stack.last() {
            let succs = out_edges.get(&node).map_or(&[][..], |v| v.as_slice());
            if idx < succs.len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let next = succs[idx];
                match color.get(&next).copied().unwrap_or(0) {
                    0 => {
                        color.insert(next, 1);
                        stack.push((next, 0));
                    }
                    1 => acyclic = false,
                    _ => {}
                }
            } else {
                color.insert(node, 2);
                stack.pop();
            }
        }
        if !acyclic {
            break;
        }
    }

    SkeletonReport {
        acyclic,
        in_degree_le_1,
        max_degree: degree.values().copied().max().unwrap_or(0),
        non_constant_elements: non.len(),
    }
}

/// Partitions the predicates of a chase into skeleton (D-relations and
/// TGPs) and flesh (everything else) for reporting.
pub fn skeleton_flesh_preds(
    chased: &Instance,
    db: &Instance,
    theory: &Theory,
) -> (FxHashSet<PredId>, FxHashSet<PredId>) {
    let tgps = theory.tgps();
    let mut skeleton_preds: FxHashSet<PredId> = db.used_preds().collect();
    skeleton_preds.extend(tgps.iter().copied());
    let flesh: FxHashSet<PredId> = chased
        .used_preds()
        .filter(|p| !skeleton_preds.contains(p))
        .collect();
    (skeleton_preds, flesh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::normalize_spade5;
    use bddfc_chase::{chase, saturate_datalog, ChaseConfig};
    use bddfc_core::parse_program;

    #[test]
    fn skeleton_of_example7() {
        // Example 7: E(x,y) → ∃z E(y,z); E(x,y),E(x',y) → R(x,x').
        // Skeleton = D ∪ E-atoms; flesh = R-atoms.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(X2,Y) -> R(X,X2).
             E(a,b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let norm = normalize_spade5(&prog.theory, &mut voc).unwrap();
        let res = chase(&prog.instance, &norm, &mut voc, ChaseConfig::rounds(8));
        let skel = skeleton(&res.instance, &prog.instance, &norm);
        let r = voc.find_pred("R").unwrap();
        assert!(skel.facts_with_pred(r).is_empty(), "flesh atom in skeleton");
        // All chase elements appear in the skeleton.
        assert_eq!(skel.domain_size(), res.instance.domain_size());
    }

    #[test]
    fn skeleton_is_forest_for_normalized_theory() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y) -> exists Z . G(Y,Z).
             E(a,b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let norm = normalize_spade5(&prog.theory, &mut voc).unwrap();
        let res = chase(&prog.instance, &norm, &mut voc, ChaseConfig::rounds(6));
        let skel = skeleton(&res.instance, &prog.instance, &norm);
        let report = analyze_skeleton(&skel, &voc);
        assert!(report.acyclic && report.in_degree_le_1, "{report:?}");
        assert!(report.max_degree <= voc.pred_count() + 1);
    }

    #[test]
    fn lemma4_chase_rebuilt_from_skeleton_by_datalog_alone() {
        // Lemma 4: Chase(S,T) = Chase(D,T); moreover rebuilding from S only
        // triggers datalog rules.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(X2,Y) -> R(X,X2).
             E(a,b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let norm = normalize_spade5(&prog.theory, &mut voc).unwrap();
        let res = chase(&prog.instance, &norm, &mut voc, ChaseConfig::rounds(6));
        let skel = skeleton(&res.instance, &prog.instance, &norm);
        let rebuilt = saturate_datalog(&skel, &norm);
        // Lemma 4 concerns the infinite chase; on a finite prefix the
        // saturation is *complete* over the skeleton while the prefix is
        // depth-truncated, so the checkable inclusion is: every prefix
        // fact is regenerated from the skeleton by datalog alone.
        assert!(rebuilt.instance.models(&res.instance));
        // And the rebuilt instance recovers flesh atoms: R(e,e) for chain
        // elements.
        let r = voc.find_pred("R").unwrap();
        assert!(!rebuilt.instance.facts_with_pred(r).is_empty());
        // No new elements were created (datalog saturation cannot).
        assert_eq!(rebuilt.instance.domain_size(), skel.domain_size());
    }

    #[test]
    fn flesh_preds_detected() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(X2,Y) -> R(X,X2).
             E(a,b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let norm = normalize_spade5(&prog.theory, &mut voc).unwrap();
        let res = chase(&prog.instance, &norm, &mut voc, ChaseConfig::rounds(4));
        let (skel_preds, flesh) = skeleton_flesh_preds(&res.instance, &prog.instance, &norm);
        let r = voc.find_pred("R").unwrap();
        assert!(flesh.contains(&r));
        assert!(!skel_preds.contains(&r));
    }

    #[test]
    fn cyclic_input_reported_not_forest() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let mut inst = Instance::new();
        let a = voc.fresh_null("a");
        let b = voc.fresh_null("b");
        inst.insert(bddfc_core::Fact::new(e, vec![a, b]));
        inst.insert(bddfc_core::Fact::new(e, vec![b, a]));
        let report = analyze_skeleton(&inst, &voc);
        assert!(!report.acyclic);
    }
}
