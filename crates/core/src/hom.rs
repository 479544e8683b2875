//! The homomorphism engine: backtracking evaluation of conjunctive queries
//! over indexed instances.
//!
//! This is the computational workhorse of the whole workspace — rule
//! applicability in the chase, query answering, subsumption in the
//! rewriting engine and model checking all reduce to "find (all / one / no)
//! homomorphisms of this atom set into this instance extending this partial
//! binding".
//!
//! The search picks, at every step, the *most constrained* remaining atom
//! (fewest candidate facts under the current binding, estimated through the
//! columnar `(position, element)` postings of the atom's predicate), which
//! keeps the join tree narrow without any query planning machinery.

use crate::columnar::{Matching, Relation};
use crate::fxhash::FxHashMap;
use crate::instance::Instance;
use crate::query::{ConjunctiveQuery, Ucq};
use crate::symbols::{ConstId, VarId};
use crate::term::{Atom, Term};
use std::ops::ControlFlow;

/// A partial assignment of variables to domain elements.
pub type Binding = FxHashMap<VarId, ConstId>;

/// The candidate rows of an atom's relation under a partial binding:
/// either a posting list of row numbers, or the full row range.
enum Cand<'i> {
    /// Row numbers from the tightest `(position, element)` posting list.
    Rows(Matching<'i>),
    /// No position is bound: every row of the relation, in order.
    All(usize),
}

impl Cand<'_> {
    fn len(&self) -> usize {
        match self {
            Cand::Rows(rows) => rows.len(),
            Cand::All(n) => *n,
        }
    }

    fn for_each(&self, mut f: impl FnMut(usize) -> ControlFlow<()>) -> ControlFlow<()> {
        match self {
            Cand::Rows(rows) => {
                for r in rows.iter() {
                    f(r as usize)?;
                }
            }
            Cand::All(n) => {
                for r in 0..*n {
                    f(r)?;
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Estimates the candidate rows for `atom` under `binding`, returning the
/// tightest available columnar posting list: the shortest `(position,
/// element)` list over the bound positions, falling back to the whole
/// relation. Row order is insertion order either way.
fn candidates<'i>(inst: &'i Instance, atom: &Atom, binding: &Binding) -> Cand<'i> {
    let Some(rel) = inst.columnar().relation(atom.pred) else {
        return Cand::All(0);
    };
    if rel.arity() != atom.args.len() {
        return Cand::All(0);
    }
    let mut best: Option<Matching<'i>> = None;
    for (pos, term) in atom.args.iter().enumerate() {
        let bound = match term {
            Term::Const(c) => Some(*c),
            Term::Var(v) => binding.get(v).copied(),
        };
        if let Some(c) = bound {
            let slice = rel.matching(pos, c);
            if best.is_none_or(|b| slice.len() < b.len()) {
                best = Some(slice);
            }
        }
    }
    match best {
        Some(rows) => Cand::Rows(rows),
        None => Cand::All(rel.rows()),
    }
}

/// Attempts to extend `binding` so that `atom` matches row `row` of its
/// predicate's relation. Returns the list of variables newly bound (for
/// backtracking), or `None` on mismatch.
fn try_match(rel: &Relation, atom: &Atom, row: usize, binding: &mut Binding) -> Option<Vec<VarId>> {
    let mut newly = Vec::new();
    for (pos, term) in atom.args.iter().enumerate() {
        let c = rel.get(row, pos);
        match term {
            Term::Const(k) => {
                if *k != c {
                    undo(binding, &newly);
                    return None;
                }
            }
            Term::Var(v) => match binding.get(v) {
                Some(&b) if b == c => {}
                Some(_) => {
                    undo(binding, &newly);
                    return None;
                }
                None => {
                    binding.insert(*v, c);
                    newly.push(*v);
                }
            },
        }
    }
    Some(newly)
}

fn undo(binding: &mut Binding, newly: &[VarId]) {
    for v in newly {
        binding.remove(v);
    }
}

/// Recursive backtracking over the remaining atoms. `remaining` holds
/// indices into `atoms` still to be matched.
fn search<F>(
    inst: &Instance,
    atoms: &[Atom],
    remaining: &mut Vec<usize>,
    binding: &mut Binding,
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&Binding) -> ControlFlow<()>,
{
    if remaining.is_empty() {
        return visit(binding);
    }
    // Most-constrained-atom heuristic.
    let (slot, _) = remaining
        .iter()
        .enumerate()
        .map(|(slot, &ai)| (slot, candidates(inst, &atoms[ai], binding).len()))
        .min_by_key(|&(_, n)| n)
        .expect("remaining non-empty");
    let ai = remaining.swap_remove(slot);
    let atom = &atoms[ai];
    let cand = candidates(inst, atom, binding);
    let flow = match inst.columnar().relation(atom.pred) {
        Some(rel) => cand.for_each(|row| {
            if let Some(newly) = try_match(rel, atom, row, binding) {
                let flow = search(inst, atoms, remaining, binding, visit);
                undo(binding, &newly);
                flow
            } else {
                ControlFlow::Continue(())
            }
        }),
        None => ControlFlow::Continue(()),
    };
    // Restore `remaining` before unwinding (on Break) or backtracking.
    remaining.push(ai);
    flow
}

/// Visits every homomorphism of `atoms` into `inst` extending `init`.
/// The callback may stop the enumeration by returning
/// [`ControlFlow::Break`]. Returns `Break` iff the callback broke.
pub fn for_each_hom<F>(
    inst: &Instance,
    atoms: &[Atom],
    init: &Binding,
    mut visit: F,
) -> ControlFlow<()>
where
    F: FnMut(&Binding) -> ControlFlow<()>,
{
    let mut binding = init.clone();
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    search(inst, atoms, &mut remaining, &mut binding, &mut visit)
}

/// Finds one homomorphism of `atoms` into `inst` extending `init`.
pub fn find_hom(inst: &Instance, atoms: &[Atom], init: &Binding) -> Option<Binding> {
    let mut found = None;
    let _ = for_each_hom(inst, atoms, init, |b| {
        found = Some(b.clone());
        ControlFlow::Break(())
    });
    found
}

/// Does a homomorphism of `atoms` into `inst` extending `init` exist?
pub fn hom_exists(inst: &Instance, atoms: &[Atom], init: &Binding) -> bool {
    find_hom(inst, atoms, init).is_some()
}

/// Does the instance satisfy the (Boolean reading of the) conjunctive
/// query? Free variables are treated as existential, per the paper's
/// convention.
pub fn satisfies_cq(inst: &Instance, cq: &ConjunctiveQuery) -> bool {
    hom_exists(inst, &cq.atoms, &Binding::default())
}

/// Does the instance satisfy the UCQ (some disjunct holds)?
pub fn satisfies_ucq(inst: &Instance, ucq: &Ucq) -> bool {
    ucq.disjuncts.iter().any(|d| satisfies_cq(inst, d))
}

/// All distinct answer tuples of a conjunctive query (projection of the
/// homomorphisms onto the free variables), sorted for determinism.
pub fn answers(inst: &Instance, cq: &ConjunctiveQuery) -> Vec<Vec<ConstId>> {
    let mut out: Vec<Vec<ConstId>> = Vec::new();
    let mut seen = crate::fxhash::FxHashSet::default();
    let _ = for_each_hom(inst, &cq.atoms, &Binding::default(), |b| {
        let tuple: Vec<ConstId> = cq.free.iter().map(|v| b[v]).collect();
        if seen.insert(tuple.clone()) {
            out.push(tuple);
        }
        ControlFlow::Continue(())
    });
    out.sort_unstable();
    out
}

/// All distinct answer tuples of a UCQ.
pub fn ucq_answers(inst: &Instance, ucq: &Ucq) -> Vec<Vec<ConstId>> {
    let mut seen = crate::fxhash::FxHashSet::default();
    let mut out = Vec::new();
    for d in &ucq.disjuncts {
        for t in answers(inst, d) {
            if seen.insert(t.clone()) {
                out.push(t);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Vocabulary;
    use crate::term::Fact;

    fn cycle(voc: &mut Vocabulary, n: usize) -> Instance {
        let e = voc.pred("E", 2);
        let mut inst = Instance::new();
        for i in 0..n {
            let a = voc.constant(&format!("c{i}"));
            let b = voc.constant(&format!("c{}", (i + 1) % n));
            inst.insert(Fact::new(e, vec![a, b]));
        }
        inst
    }

    #[test]
    fn triangle_query_on_triangle() {
        let mut voc = Vocabulary::new();
        let inst = cycle(&mut voc, 3);
        let e = voc.find_pred("E").unwrap();
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let tri = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
            Atom::new(e, vec![Term::Var(z), Term::Var(x)]),
        ];
        assert!(hom_exists(&inst, &tri, &Binding::default()));
    }

    #[test]
    fn triangle_query_on_square_fails() {
        let mut voc = Vocabulary::new();
        let inst = cycle(&mut voc, 4);
        let e = voc.find_pred("E").unwrap();
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let tri = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
            Atom::new(e, vec![Term::Var(z), Term::Var(x)]),
        ];
        assert!(!hom_exists(&inst, &tri, &Binding::default()));
    }

    #[test]
    fn initial_binding_restricts_matches() {
        let mut voc = Vocabulary::new();
        let inst = cycle(&mut voc, 3);
        let e = voc.find_pred("E").unwrap();
        let (x, y) = (voc.var("X"), voc.var("Y"));
        let atoms = vec![Atom::new(e, vec![Term::Var(x), Term::Var(y)])];
        let c0 = voc.find_const("c0").unwrap();
        let c1 = voc.find_const("c1").unwrap();
        let mut init = Binding::default();
        init.insert(x, c0);
        let hom = find_hom(&inst, &atoms, &init).unwrap();
        assert_eq!(hom[&y], c1);
    }

    #[test]
    fn constants_in_atoms_must_match() {
        let mut voc = Vocabulary::new();
        let inst = cycle(&mut voc, 3);
        let e = voc.find_pred("E").unwrap();
        let c0 = voc.find_const("c0").unwrap();
        let c2 = voc.find_const("c2").unwrap();
        let y = voc.var("Y");
        // E(c0, Y) matches only Y=c1.
        let atoms = vec![Atom::new(e, vec![Term::Const(c0), Term::Var(y)])];
        let c1 = voc.find_const("c1").unwrap();
        assert_eq!(find_hom(&inst, &atoms, &Binding::default()).unwrap()[&y], c1);
        // E(c0, c2) does not hold in a 3-cycle.
        let atoms = vec![Atom::new(e, vec![Term::Const(c0), Term::Const(c2)])];
        assert!(!hom_exists(&inst, &atoms, &Binding::default()));
    }

    #[test]
    fn repeated_variable_needs_loop() {
        let mut voc = Vocabulary::new();
        let mut inst = cycle(&mut voc, 3);
        let e = voc.find_pred("E").unwrap();
        let x = voc.var("X");
        let atoms = vec![Atom::new(e, vec![Term::Var(x), Term::Var(x)])];
        assert!(!hom_exists(&inst, &atoms, &Binding::default()));
        let c0 = voc.find_const("c0").unwrap();
        inst.insert(Fact::new(e, vec![c0, c0]));
        assert!(hom_exists(&inst, &atoms, &Binding::default()));
    }

    #[test]
    fn answers_are_sorted_and_distinct() {
        let mut voc = Vocabulary::new();
        let inst = cycle(&mut voc, 3);
        let e = voc.find_pred("E").unwrap();
        let (x, y) = (voc.var("X"), voc.var("Y"));
        let cq = ConjunctiveQuery::with_free(
            vec![Atom::new(e, vec![Term::Var(x), Term::Var(y)])],
            vec![x],
        );
        let ans = answers(&inst, &cq);
        assert_eq!(ans.len(), 3);
        assert!(ans.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_query_is_true() {
        let inst = Instance::new();
        assert!(satisfies_cq(&inst, &ConjunctiveQuery::boolean(vec![])));
    }

    #[test]
    fn ucq_any_disjunct() {
        let mut voc = Vocabulary::new();
        let inst = cycle(&mut voc, 4);
        let e = voc.find_pred("E").unwrap();
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let tri = ConjunctiveQuery::boolean(vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
            Atom::new(e, vec![Term::Var(z), Term::Var(x)]),
        ]);
        let edge = ConjunctiveQuery::boolean(vec![Atom::new(e, vec![Term::Var(x), Term::Var(y)])]);
        assert!(!satisfies_ucq(&inst, &Ucq::new(vec![tri.clone()])));
        assert!(satisfies_ucq(&inst, &Ucq::new(vec![tri, edge])));
    }

    /// Index-free oracle for [`candidates`]: every fact compatible with
    /// `atom` under `binding` by linear scan.
    fn candidates_scan(inst: &Instance, atom: &Atom, binding: &Binding) -> Vec<usize> {
        (0..inst.len())
            .filter(|&idx| {
                let fact = inst.fact(idx);
                fact.pred == atom.pred
                    && fact.args.len() == atom.args.len()
                    && atom.args.iter().zip(fact.args.iter()).all(|(t, &c)| match t {
                        Term::Const(k) => *k == c,
                        Term::Var(v) => binding.get(v).is_none_or(|&b| b == c),
                    })
            })
            .collect()
    }

    #[test]
    fn indexed_candidates_cover_exactly_the_scan_matches() {
        use crate::prng::SplitMix64;
        let mut rng = SplitMix64::new(99);
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let u = voc.pred("U", 1);
        let elems: Vec<_> = (0..6).map(|i| voc.constant(&format!("c{i}"))).collect();
        let mut inst = Instance::new();
        for _ in 0..60 {
            if rng.flip() {
                inst.insert(Fact::new(e, vec![*rng.pick(&elems), *rng.pick(&elems)]));
            } else {
                inst.insert(Fact::new(u, vec![*rng.pick(&elems)]));
            }
        }
        let (x, y) = (voc.var("X"), voc.var("Y"));
        // Atoms of every binding shape: unbound, half-bound, constant.
        let shapes = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Const(elems[0]), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(x), Term::Const(elems[1])]),
            Atom::new(u, vec![Term::Var(x)]),
            Atom::new(u, vec![Term::Const(elems[2])]),
        ];
        for atom in &shapes {
            for bound_x in [None, Some(elems[3])] {
                let mut binding = Binding::default();
                if let Some(c) = bound_x {
                    binding.insert(x, c);
                }
                // Candidates are per-relation row numbers; map them to
                // global fact indexes through the by-predicate list.
                let with_pred = inst.facts_with_pred(atom.pred);
                let cand = candidates(&inst, atom, &binding);
                let mut rows: Vec<usize> = Vec::new();
                let _ = cand.for_each(|r| {
                    rows.push(r);
                    ControlFlow::Continue(())
                });
                let by_index: Vec<usize> = rows.iter().map(|&r| with_pred[r]).collect();
                let by_scan = candidates_scan(&inst, atom, &binding);
                // The index may over-approximate (it prunes on one bound
                // position), but must contain every scan match, and
                // try_match must accept exactly the scan matches.
                for idx in &by_scan {
                    assert!(by_index.contains(idx), "index missed fact {idx} for {atom:?}");
                }
                let rel = inst.columnar().relation(atom.pred).unwrap();
                let accepted: Vec<usize> = rows
                    .into_iter()
                    .filter(|&row| {
                        let mut b = binding.clone();
                        try_match(rel, atom, row, &mut b).is_some()
                    })
                    .map(|row| with_pred[row])
                    .collect();
                assert_eq!(accepted, by_scan, "atom {atom:?}, bound_x {bound_x:?}");
            }
        }
    }

    #[test]
    fn early_break_stops_enumeration() {
        let mut voc = Vocabulary::new();
        let inst = cycle(&mut voc, 50);
        let e = voc.find_pred("E").unwrap();
        let (x, y) = (voc.var("X"), voc.var("Y"));
        let atoms = vec![Atom::new(e, vec![Term::Var(x), Term::Var(y)])];
        let mut count = 0;
        let flow = for_each_hom(&inst, &atoms, &Binding::default(), |_| {
            count += 1;
            ControlFlow::Break(())
        });
        assert!(flow.is_break());
        assert_eq!(count, 1);
    }
}
