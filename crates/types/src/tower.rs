//! The quotient tower of Section 2.3: "how the finite structures are
//! born", and the *converging to the Chase* trick.
//!
//! For a fixed (colored) structure `C̄`, the quotients `Mₙ(C̄)` form a
//! tower: `Mₙ₋₁(C̄)` is a homomorphic image of `Mₙ(C̄)` (Lemma 1), so a
//! query true at `qₙ(e)` in `Mₙ` is true at `qₙ₋₁(e)` in `Mₙ₋₁`
//! (Remark 2's monotonicity — the pillar of the Lemma 11 normalization
//! argument, where a counterexample at level `n+1` is pushed down to
//! level `n`). This module materializes finite segments of the tower and
//! checks these laws, which our property tests and experiments exercise.

use crate::analyzer::TypeAnalyzer;
use crate::quotient::Quotient;
use bddfc_core::{ConjunctiveQuery, ConstId, Instance, Vocabulary};
use bddfc_core::fxhash::FxHashMap;

/// A finite segment `M_lo(C̄), …, M_hi(C̄)` of the quotient tower.
pub struct QuotientTower {
    /// The parameter of the first level.
    pub lo: usize,
    /// The quotients, `levels[i]` being `M_{lo+i}(C̄)`.
    pub levels: Vec<Quotient>,
}

impl QuotientTower {
    /// Builds the tower segment for `n ∈ lo..=hi` over the structure.
    pub fn build(inst: &Instance, voc: &mut Vocabulary, lo: usize, hi: usize) -> Self {
        let mut levels = Vec::with_capacity(hi - lo + 1);
        for n in lo..=hi {
            let partition = TypeAnalyzer::new(inst, voc, n).partition();
            levels.push(Quotient::new(inst, partition, voc));
        }
        QuotientTower { lo, levels }
    }

    /// The quotient at level `n`.
    pub fn level(&self, n: usize) -> &Quotient {
        &self.levels[n - self.lo]
    }

    /// Lemma 1, computationally: the level-(n−1) projection factors
    /// through the level-n one — whenever `qₙ` identifies two elements,
    /// so does `qₙ₋₁`. Returns `true` if the law holds on this structure.
    pub fn factoring_holds(&self, inst: &Instance) -> bool {
        let domain = inst.sorted_domain();
        for w in self.levels.windows(2) {
            let (coarse, fine) = (&w[0], &w[1]);
            let mut image: FxHashMap<ConstId, ConstId> = FxHashMap::default();
            for &e in &domain {
                let f = fine.project(e);
                let c = coarse.project(e);
                match image.get(&f) {
                    Some(&prev) if prev != c => return false,
                    _ => {
                        image.insert(f, c);
                    }
                }
            }
        }
        true
    }
}

/// Checks Remark 2's downward closure for a profile: once false at some
/// level, it stays false at all higher levels.
pub fn is_downward_closed(profile: &[(usize, bool)]) -> bool {
    let mut seen_false = false;
    for &(_, holds) in profile {
        if seen_false && holds {
            return false;
        }
        if !holds {
            seen_false = true;
        }
    }
    true
}

/// Convenience: a pointed query `∃x̄ Ψ(x̄, y)` from atoms and the free
/// variable `y`.
pub fn pointed_query(atoms: Vec<bddfc_core::Atom>, y: bddfc_core::VarId) -> ConjunctiveQuery {
    ConjunctiveQuery::with_free(atoms, vec![y])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::{hom, Atom, Binding, Fact, Term};

    /// Remark 2's monotonicity for a pointed query: if
    /// `Mₙ(C̄) ⊨ ∃x̄ Ψ(x̄, qₙ(e))` then `Mₙ′(C̄) ⊨ ∃x̄ Ψ(x̄, qₙ′(e))` for
    /// every `n′ < n` in the segment. Returns the per-level truth values
    /// `(n, holds)`, to be checked with [`is_downward_closed`].
    fn pointed_query_profile(
        tower: &QuotientTower,
        query: &ConjunctiveQuery,
        free_var: bddfc_core::VarId,
        e: ConstId,
    ) -> Vec<(usize, bool)> {
        tower
            .levels
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut init = Binding::default();
                init.insert(free_var, q.project(e));
                (tower.lo + i, hom::hom_exists(&q.instance, &query.atoms, &init))
            })
            .collect()
    }

    fn chain(voc: &mut Vocabulary, len: usize) -> (Instance, Vec<ConstId>) {
        let e = voc.pred("E", 2);
        let elems: Vec<ConstId> = (0..=len).map(|_| voc.fresh_null("a")).collect();
        let mut inst = Instance::new();
        for i in 0..len {
            inst.insert(Fact::new(e, vec![elems[i], elems[i + 1]]));
        }
        (inst, elems)
    }

    #[test]
    fn lemma1_factoring_on_chain() {
        let mut voc = Vocabulary::new();
        let (inst, _) = chain(&mut voc, 14);
        let tower = QuotientTower::build(&inst, &mut voc, 2, 5);
        assert!(tower.factoring_holds(&inst));
        // Levels weakly grow in size.
        for w in tower.levels.windows(2) {
            assert!(w[0].class_count() <= w[1].class_count());
        }
    }

    #[test]
    fn remark2_monotonicity_for_inpath_queries() {
        let mut voc = Vocabulary::new();
        let (inst, elems) = chain(&mut voc, 14);
        let e = voc.find_pred("E").unwrap();
        let y = voc.fresh_var("Y");
        let x1 = voc.fresh_var("X1");
        let x2 = voc.fresh_var("X2");
        // Ψ(x̄, y) = E(x1, x2) ∧ E(x2, y): "y has an in-path of length 2".
        let q = pointed_query(
            vec![
                Atom::new(e, vec![Term::Var(x1), Term::Var(x2)]),
                Atom::new(e, vec![Term::Var(x2), Term::Var(y)]),
            ],
            y,
        );
        let tower = QuotientTower::build(&inst, &mut voc, 2, 5);
        for &el in &elems {
            let profile = pointed_query_profile(&tower, &q, y, el);
            assert!(is_downward_closed(&profile), "element {el:?}: {profile:?}");
        }
    }

    #[test]
    fn low_levels_see_phantom_cycles() {
        // The paper's motivation: at low n the quotient closes a loop, so
        // the self-loop query is true at the interior class — but it
        // disappears as n grows past the element's depth.
        let mut voc = Vocabulary::new();
        let (inst, elems) = chain(&mut voc, 14);
        let e = voc.find_pred("E").unwrap();
        let y = voc.fresh_var("Yl");
        let q = pointed_query(vec![Atom::new(e, vec![Term::Var(y), Term::Var(y)])], y);
        let tower = QuotientTower::build(&inst, &mut voc, 2, 6);
        // Element a3: at n = 2 it is merged into the looped interior; at
        // n = 5 its in-path length 3 < 4 separates it from the loop class.
        let profile = pointed_query_profile(&tower, &q, y, elems[3]);
        assert!(is_downward_closed(&profile), "{profile:?}");
        assert!(profile.first().unwrap().1, "phantom loop at n = 2");
        assert!(!profile.last().unwrap().1, "resolved at n = 6");
    }

    #[test]
    fn downward_closure_checker() {
        assert!(is_downward_closed(&[(2, true), (3, true), (4, false)]));
        assert!(is_downward_closed(&[(2, false), (3, false)]));
        assert!(!is_downward_closed(&[(2, false), (3, true)]));
    }
}
