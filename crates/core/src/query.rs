//! Conjunctive queries and unions of conjunctive queries.
//!
//! Following the paper (footnote 1 and Section 1.1), a *query* is a
//! conjunctive query without negation; free variables that are omitted are
//! treated as existentially quantified, so a [`ConjunctiveQuery`] with an
//! empty `free` list is a Boolean query. Unions of conjunctive queries
//! ([`Ucq`]) appear as positive first-order rewritings (Definition 2).

use crate::symbols::{ConstId, VarId, Vocabulary};
use crate::term::{Atom, Term};
use crate::fxhash::{FxHashMap, FxHashSet};
use std::fmt;

/// A conjunctive query: a conjunction of atoms with a tuple of free
/// (answer) variables; all other variables are existential.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConjunctiveQuery {
    /// The conjuncts.
    pub atoms: Vec<Atom>,
    /// The free (answer) variables, in answer-tuple order. Empty for a
    /// Boolean query.
    pub free: Vec<VarId>,
}

impl ConjunctiveQuery {
    /// Creates a Boolean conjunctive query.
    pub fn boolean(atoms: Vec<Atom>) -> Self {
        ConjunctiveQuery { atoms, free: Vec::new() }
    }

    /// Creates a conjunctive query with answer variables.
    pub fn with_free(atoms: Vec<Atom>, free: Vec<VarId>) -> Self {
        ConjunctiveQuery { atoms, free }
    }

    /// The set of all variables occurring in the query.
    pub fn variables(&self) -> FxHashSet<VarId> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// The number of distinct variables (the paper counts query size in
    /// variables, e.g. in Definition 3).
    pub fn var_count(&self) -> usize {
        self.variables().len()
    }

    /// The set of constants occurring in the query.
    pub fn constants(&self) -> FxHashSet<ConstId> {
        self.atoms.iter().flat_map(|a| a.constants()).collect()
    }

    /// The existential variables: those not in `free`.
    pub fn existential_vars(&self) -> FxHashSet<VarId> {
        let free: FxHashSet<VarId> = self.free.iter().copied().collect();
        self.variables().difference(&free).copied().collect()
    }

    /// Applies a variable substitution to every atom (free variables are
    /// substituted in the answer tuple as well when they map to variables).
    pub fn apply(&self, subst: &impl Fn(VarId) -> Option<Term>) -> ConjunctiveQuery {
        let atoms = self.atoms.iter().map(|a| a.apply(subst)).collect();
        let free = self
            .free
            .iter()
            .map(|&v| match subst(v) {
                Some(Term::Var(w)) => w,
                _ => v,
            })
            .collect();
        ConjunctiveQuery { atoms, free }
    }

    /// Renames every variable through `fresh`, producing a variable-disjoint
    /// copy. `fresh` must be injective.
    pub fn rename(&self, fresh: &FxHashMap<VarId, VarId>) -> ConjunctiveQuery {
        self.apply(&|v| fresh.get(&v).map(|&w| Term::Var(w)))
    }

    /// Renames the query apart from any already-interned variable.
    pub fn rename_apart(&self, voc: &mut Vocabulary) -> ConjunctiveQuery {
        let mut map = FxHashMap::default();
        for v in self.variables() {
            let name = voc.var_name(v).to_owned();
            map.insert(v, voc.fresh_var(&name));
        }
        self.rename(&map)
    }

    /// Renders the query using names from `voc`.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> DisplayCq<'a> {
        DisplayCq { cq: self, voc }
    }
}

/// A union of conjunctive queries. All disjuncts must share the same free
/// variable tuple length (checked by [`Ucq::new`]).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Ucq {
    /// The disjuncts.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl Ucq {
    /// Creates a UCQ.
    ///
    /// # Panics
    /// Panics if disjuncts disagree on the number of free variables.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Self {
        if let Some(first) = disjuncts.first() {
            let n = first.free.len();
            assert!(
                disjuncts.iter().all(|d| d.free.len() == n),
                "UCQ disjuncts must have equal answer arity"
            );
        }
        Ucq { disjuncts }
    }

    /// The UCQ with a single disjunct.
    pub fn single(cq: ConjunctiveQuery) -> Self {
        Ucq { disjuncts: vec![cq] }
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Is the union empty (equivalent to `false`)?
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Renders the UCQ using names from `voc`.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> DisplayUcq<'a> {
        DisplayUcq { ucq: self, voc }
    }
}

/// Helper for [`ConjunctiveQuery::display`].
pub struct DisplayCq<'a> {
    cq: &'a ConjunctiveQuery,
    voc: &'a Vocabulary,
}

impl fmt::Display for DisplayCq<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.cq.free.is_empty() {
            write!(f, "(")?;
            for (i, v) in self.cq.free.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.voc.var_name(*v))?;
            }
            write!(f, ") <- ")?;
        }
        for (i, a) in self.cq.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.display(self.voc))?;
        }
        Ok(())
    }
}

/// Helper for [`Ucq::display`].
pub struct DisplayUcq<'a> {
    ucq: &'a Ucq,
    voc: &'a Vocabulary,
}

impl fmt::Display for DisplayUcq<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.ucq.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{}", d.display(self.voc))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::PredId;

    fn path_query(voc: &mut Vocabulary) -> (ConjunctiveQuery, PredId, VarId, VarId, VarId) {
        let e = voc.pred("E", 2);
        let x = voc.var("X");
        let y = voc.var("Y");
        let z = voc.var("Z");
        let cq = ConjunctiveQuery::boolean(vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ]);
        (cq, e, x, y, z)
    }

    #[test]
    fn variable_accounting() {
        let mut voc = Vocabulary::new();
        let (cq, _, x, _, _) = path_query(&mut voc);
        assert_eq!(cq.var_count(), 3);
        assert!(cq.existential_vars().contains(&x));
    }

    #[test]
    fn rename_apart_gives_disjoint_vars() {
        let mut voc = Vocabulary::new();
        let (cq, _, _, _, _) = path_query(&mut voc);
        let cq2 = cq.rename_apart(&mut voc);
        assert!(cq.variables().is_disjoint(&cq2.variables()));
        assert_eq!(cq2.var_count(), 3);
    }

    #[test]
    #[should_panic(expected = "equal answer arity")]
    fn ucq_arity_mismatch_panics() {
        let mut voc = Vocabulary::new();
        let (cq, _, x, _, _) = path_query(&mut voc);
        let mut with_free = cq.clone();
        with_free.free = vec![x];
        Ucq::new(vec![cq, with_free]);
    }

    #[test]
    fn display_round_trip_shapes() {
        let mut voc = Vocabulary::new();
        let (cq, _, _, _, _) = path_query(&mut voc);
        assert_eq!(cq.display(&voc).to_string(), "E(X,Y), E(Y,Z)");
    }
}
