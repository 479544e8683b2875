//! Colors, colorings, and the *natural* colorings of Definition 14.
//!
//! A color `K^l_h` (Definition 6) is a unary predicate with a *hue* `h`
//! and a *lightness* `l`. A coloring of `C` (Definition 7) assigns exactly
//! one color atom to every element. A **natural** coloring additionally
//! guarantees (Definition 14):
//!
//! 1. elements within the `m`-fold predecessor closure of one another
//!    (`e' ∈ Pₘ(e)`) have different hues — this is what rules out short
//!    directed cycles in the quotient (Lemma 9);
//! 2. same lightness ⟹ the predecessor neighbourhoods
//!    `C ↾ (P(e) ∪ C_con)` are isomorphic (with `e` marked) — this is what
//!    powers the normalization step (Lemma 11).
//!
//! Hues are assigned greedily along a topological-ish order; lightness is
//! the canonical code of the marked predecessor neighbourhood, computed by
//! brute force over the (small, Lemma 3 (iv)) neighbourhood.

use bddfc_core::{ConstId, Fact, Instance, PredId, Vocabulary};
use bddfc_core::fxhash::{FxHashMap, FxHashSet};

/// A color: hue `h` and lightness `l` (the paper's `K^l_h`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Color {
    /// The hue (must differ within `Pₘ` closures).
    pub hue: u32,
    /// The lightness (encodes the isomorphism type of `P(e)`).
    pub lightness: u32,
}

/// An assignment of one color to every domain element.
#[derive(Clone, Debug)]
pub struct Coloring {
    /// Color of each element.
    pub color_of: FxHashMap<ConstId, Color>,
    /// The unary predicate standing for each used color.
    pub pred_of: FxHashMap<Color, PredId>,
}

impl Coloring {
    /// Produces `C̄`: the instance extended with one color atom per
    /// element (Definition 7).
    pub fn apply(&self, inst: &Instance) -> Instance {
        let mut out = inst.clone();
        for (&e, color) in &self.color_of {
            out.insert(Fact::new(self.pred_of[color], vec![e]));
        }
        out
    }

    /// Number of distinct colors used.
    pub fn color_count(&self) -> usize {
        self.pred_of.len()
    }
}

/// Computes `P(e)` (Definition 10): `{e}` for constants, else `{e}`
/// together with all non-constant direct predecessors of `e` in any
/// binary-or-wider relation (any earlier argument position of a fact in
/// which `e` occurs later).
pub fn predecessors(inst: &Instance, voc: &Vocabulary, e: ConstId) -> FxHashSet<ConstId> {
    let mut out: FxHashSet<ConstId> = [e].into_iter().collect();
    if !voc.is_null(e) {
        return out;
    }
    for &fidx in inst.facts_with_element(e) {
        let fact = inst.fact(fidx);
        // For binary signatures this is exactly "x with R(x,e)". We read
        // the general case as: arguments strictly before some occurrence
        // of e.
        if let Some(last_pos) = fact.args.iter().rposition(|&c| c == e) {
            for &c in &fact.args[..last_pos] {
                if voc.is_null(c) && c != e {
                    out.insert(c);
                }
            }
        }
    }
    out
}

/// Computes `Pₘ(e)` (Definition 13): the m-fold iteration of `P`.
pub fn predecessors_m(
    inst: &Instance,
    voc: &Vocabulary,
    e: ConstId,
    m: usize,
) -> FxHashSet<ConstId> {
    let mut current = predecessors(inst, voc, e);
    for _ in 0..m {
        let mut next = FxHashSet::default();
        for &a in &current {
            next.extend(predecessors(inst, voc, a));
        }
        if next.len() == current.len() {
            break;
        }
        current = next;
    }
    current
}

/// Canonical code of the marked structure `C ↾ (P(e) ∪ C_con)` with `e`
/// distinguished: lexicographically least encoding over all orderings of
/// the non-constant, non-`e` elements. Constants are rigid; the
/// neighbourhood is small (Lemma 3 (iv)), so brute force is fine.
pub fn neighbourhood_code(inst: &Instance, voc: &Vocabulary, e: ConstId) -> Vec<u64> {
    let constants: FxHashSet<ConstId> =
        inst.domain().filter(|&c| !voc.is_null(c)).collect();
    let const_facts = constant_facts(inst, &constants);
    neighbourhood_code_cached(inst, voc, e, &constants, &const_facts)
}

/// Facts entirely over constants — shared by every neighbourhood.
fn constant_facts(inst: &Instance, constants: &FxHashSet<ConstId>) -> Vec<usize> {
    let mut out = Vec::new();
    let mut seen = FxHashSet::default();
    for &c in constants {
        for &fidx in inst.facts_with_element(c) {
            if seen.insert(fidx)
                && inst.fact(fidx).args.iter().all(|a| constants.contains(a))
            {
                out.push(fidx);
            }
        }
    }
    out.sort_unstable();
    out
}

/// The workhorse behind [`neighbourhood_code`], taking the precomputed
/// constant set and constant-only facts (an O(|C|) saving per element on
/// large structures).
fn neighbourhood_code_cached(
    inst: &Instance,
    voc: &Vocabulary,
    e: ConstId,
    constants: &FxHashSet<ConstId>,
    const_facts: &[usize],
) -> Vec<u64> {
    let p: FxHashSet<ConstId> = predecessors(inst, voc, e);
    let keep = |c: ConstId| p.contains(&c) || constants.contains(&c);
    // Atoms of C ↾ (P(e) ∪ C_con): facts incident to P(e) with all args
    // kept, plus the (shared) constant-only facts.
    let mut sub = Instance::new();
    for &member in &p {
        for &fidx in inst.facts_with_element(member) {
            let fact = inst.fact(fidx);
            if fact.args.iter().all(|&a| keep(a)) {
                sub.insert(fact.clone());
            }
        }
    }
    for &fidx in const_facts {
        sub.insert(inst.fact(fidx).clone());
    }

    // Elements to permute: P(e) ∖ {e} restricted to nulls.
    let mut movable: Vec<ConstId> = p
        .iter()
        .copied()
        .filter(|&c| c != e && voc.is_null(c))
        .collect();
    movable.sort_unstable();

    let encode = |order: &[ConstId]| -> Vec<u64> {
        let pos: FxHashMap<ConstId, u64> = order
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u64))
            .collect();
        // Exact per-atom tuple encoding: predicate, then one tagged value
        // per argument. Constants keep global identity (tag 3); `e` is
        // tag 1; movable elements get their order position (tag 2).
        let mut atoms: Vec<Vec<u64>> = sub
            .facts()
            .iter()
            .map(|f| {
                let mut code: Vec<u64> = Vec::with_capacity(1 + f.args.len());
                code.push(f.pred.0 as u64);
                for &a in &f.args {
                    code.push(if a == e {
                        1 << 32
                    } else if let Some(&p) = pos.get(&a) {
                        (2 << 32) | p
                    } else {
                        (3 << 32) | a.0 as u64
                    });
                }
                code
            })
            .collect();
        atoms.sort_unstable();
        // Flatten with length prefixes to keep the encoding injective.
        let mut flat = Vec::new();
        for atom in atoms {
            flat.push(atom.len() as u64);
            flat.extend(atom);
        }
        flat
    };

    // Brute-force minimal code over permutations of the movable elements.
    let mut best: Option<Vec<u64>> = None;
    permute(&mut movable.clone(), 0, &mut |order| {
        let code = encode(order);
        if best.as_ref().is_none_or(|b| code < *b) {
            best = Some(code);
        }
    });
    best.unwrap_or_default()
}

fn permute(items: &mut [ConstId], k: usize, visit: &mut impl FnMut(&[ConstId])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// Builds a natural coloring of `inst` for parameter `m` (Definition 14).
///
/// Lightness = index of the canonical neighbourhood code; hue = greedy
/// proper coloring of the conflict graph `{(e,e') : e' ∈ Pₘ(e), e ≠ e'}`.
pub fn natural_coloring(inst: &Instance, voc: &mut Vocabulary, m: usize) -> Coloring {
    let domain = inst.sorted_domain();

    // Lightness classes (constant-only facts computed once).
    let constants: FxHashSet<ConstId> =
        inst.domain().filter(|&c| !voc.is_null(c)).collect();
    let const_facts = constant_facts(inst, &constants);
    let mut code_ids: FxHashMap<Vec<u64>, u32> = FxHashMap::default();
    let mut lightness: FxHashMap<ConstId, u32> = FxHashMap::default();
    for &e in &domain {
        let code = neighbourhood_code_cached(inst, voc, e, &constants, &const_facts);
        let next = code_ids.len() as u32;
        let id = *code_ids.entry(code).or_insert(next);
        lightness.insert(e, id);
    }

    // Conflict graph: symmetrized Pₘ relation.
    let mut conflicts: FxHashMap<ConstId, FxHashSet<ConstId>> = FxHashMap::default();
    for &e in &domain {
        for other in predecessors_m(inst, voc, e, m) {
            if other != e {
                conflicts.entry(e).or_default().insert(other);
                conflicts.entry(other).or_default().insert(e);
            }
        }
    }

    // Greedy hue assignment in deterministic order.
    let mut hue: FxHashMap<ConstId, u32> = FxHashMap::default();
    for &e in &domain {
        let used: FxHashSet<u32> = conflicts
            .get(&e)
            .map(|ns| ns.iter().filter_map(|n| hue.get(n).copied()).collect())
            .unwrap_or_default();
        let mut h = 0u32;
        while used.contains(&h) {
            h += 1;
        }
        hue.insert(e, h);
    }

    // Materialize color predicates.
    let mut color_of = FxHashMap::default();
    let mut pred_of: FxHashMap<Color, PredId> = FxHashMap::default();
    for &e in &domain {
        let color = Color { hue: hue[&e], lightness: lightness[&e] };
        color_of.insert(e, color);
        pred_of
            .entry(color)
            .or_insert_with(|| voc.pred(&format!("K_{}_{}", color.hue, color.lightness), 1));
    }
    Coloring { color_of, pred_of }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(voc: &mut Vocabulary, len: usize) -> (Instance, Vec<ConstId>) {
        let e = voc.pred("E", 2);
        let mut inst = Instance::new();
        let elems: Vec<ConstId> = (0..=len).map(|_| voc.fresh_null("a")).collect();
        for i in 0..len {
            inst.insert(Fact::new(e, vec![elems[i], elems[i + 1]]));
        }
        (inst, elems)
    }

    #[test]
    fn predecessor_sets_on_chain() {
        let mut voc = Vocabulary::new();
        let (inst, elems) = chain(&mut voc, 5);
        let p = predecessors(&inst, &voc, elems[3]);
        assert_eq!(p.len(), 2); // {a3, a2}
        assert!(p.contains(&elems[2]));
        let p2 = predecessors_m(&inst, &voc, elems[3], 2);
        assert_eq!(p2.len(), 4); // {a3, a2, a1, a0}
    }

    #[test]
    fn constants_have_singleton_predecessors() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let a = voc.constant("a");
        let n = voc.fresh_null("n");
        let mut inst = Instance::new();
        inst.insert(Fact::new(e, vec![n, a]));
        assert_eq!(predecessors(&inst, &voc, a).len(), 1);
        // The null has no predecessors besides itself here.
        assert_eq!(predecessors(&inst, &voc, n).len(), 1);
    }

    #[test]
    fn natural_coloring_uses_m_plus_two_hues_on_chain() {
        // Definition 13's P₀(e) already contains the direct predecessor,
        // so Pₘ reaches m+1 steps back and a chain needs m+2 hues. (The
        // informal Example 4 cycles m+1 colors; Definition 14 is the
        // slightly stronger constraint the proofs use.)
        let mut voc = Vocabulary::new();
        let (inst, elems) = chain(&mut voc, 12);
        let m = 3;
        let coloring = natural_coloring(&inst, &mut voc, m);
        let hues: FxHashSet<u32> = coloring.color_of.values().map(|c| c.hue).collect();
        assert_eq!(hues.len(), m + 2);
        // Conflict condition: e and its m-fold predecessors differ in hue.
        for &e in &elems {
            for other in predecessors_m(&inst, &voc, e, m) {
                if other != e {
                    assert_ne!(
                        coloring.color_of[&e].hue,
                        coloring.color_of[&other].hue
                    );
                }
            }
        }
    }

    #[test]
    fn lightness_reflects_neighbourhood_isomorphism() {
        // Interior chain elements share a lightness; the root (no
        // predecessor) has its own.
        let mut voc = Vocabulary::new();
        let (inst, elems) = chain(&mut voc, 8);
        let coloring = natural_coloring(&inst, &mut voc, 2);
        let l = |e: ConstId| coloring.color_of[&e].lightness;
        assert_eq!(l(elems[3]), l(elems[5]));
        assert_ne!(l(elems[0]), l(elems[3]));
    }

    #[test]
    fn apply_adds_one_color_atom_per_element() {
        let mut voc = Vocabulary::new();
        let (inst, _) = chain(&mut voc, 6);
        let coloring = natural_coloring(&inst, &mut voc, 2);
        let colored = coloring.apply(&inst);
        assert_eq!(colored.len(), inst.len() + inst.domain_size());
        // Exactly one color atom per element.
        for e in inst.domain() {
            let count = coloring
                .pred_of
                .values()
                .filter(|&&p| {
                    colored.contains(&Fact::new(p, vec![e]))
                })
                .count();
            assert_eq!(count, 1);
        }
    }

    #[test]
    fn neighbourhood_code_invariant_under_renaming() {
        // Two chains with different element ids: interior elements get
        // identical codes.
        let mut voc = Vocabulary::new();
        let (inst1, elems1) = chain(&mut voc, 6);
        let (inst2, elems2) = chain(&mut voc, 6);
        let c1 = neighbourhood_code(&inst1, &voc, elems1[3]);
        let c2 = neighbourhood_code(&inst2, &voc, elems2[4]);
        assert_eq!(c1, c2);
    }

    #[test]
    fn branching_nodes_get_distinct_lightness() {
        // An element with two predecessor relations differs from one with
        // a single predecessor.
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let f = voc.pred("F", 2);
        let mut inst = Instance::new();
        let (a, b, c, d) = (
            voc.fresh_null("a"),
            voc.fresh_null("b"),
            voc.fresh_null("c"),
            voc.fresh_null("d"),
        );
        inst.insert(Fact::new(e, vec![a, b]));
        inst.insert(Fact::new(f, vec![c, b]));
        inst.insert(Fact::new(e, vec![a, d]));
        let coloring = natural_coloring(&inst, &mut voc, 1);
        assert_ne!(
            coloring.color_of[&b].lightness,
            coloring.color_of[&d].lightness
        );
    }
}
