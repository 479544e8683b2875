//! Terms and atoms: the syntactic building blocks of queries and rules.

use crate::symbols::{ConstId, PredId, VarId, Vocabulary};
use std::fmt;

/// A term appearing in a rule or query atom: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A (possibly existentially quantified) variable.
    Var(VarId),
    /// A named constant from the signature.
    Const(ConstId),
}

impl Term {
    /// The variable inside, if any.
    #[inline]
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    #[inline]
    pub fn as_const(self) -> Option<ConstId> {
        match self {
            Term::Const(c) => Some(c),
            Term::Var(_) => None,
        }
    }

    /// Is this term a variable?
    #[inline]
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl From<VarId> for Term {
    fn from(v: VarId) -> Self {
        Term::Var(v)
    }
}

impl From<ConstId> for Term {
    fn from(c: ConstId) -> Self {
        Term::Const(c)
    }
}

/// An atom `R(t₁, …, tₖ)` over terms; used in rule bodies, rule heads and
/// conjunctive queries.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The relation symbol.
    pub pred: PredId,
    /// The argument terms, of length equal to the predicate's arity.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates an atom. The caller is responsible for arity correctness;
    /// [`Atom::check_arity`] validates it against a vocabulary.
    pub fn new(pred: PredId, args: Vec<Term>) -> Self {
        Atom { pred, args }
    }

    /// Validates the atom's arity against the vocabulary.
    pub fn check_arity(&self, voc: &Vocabulary) -> bool {
        voc.arity(self.pred) == self.args.len()
    }

    /// Iterates over the variables of the atom (with repetitions).
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// Iterates over the constants of the atom (with repetitions).
    pub fn constants(&self) -> impl Iterator<Item = ConstId> + '_ {
        self.args.iter().filter_map(|t| t.as_const())
    }

    /// Converts a ground atom into a [`Fact`]. Returns `None` if any
    /// argument is a variable.
    pub fn to_fact(&self) -> Option<Fact> {
        let mut args = Vec::with_capacity(self.args.len());
        for t in &self.args {
            args.push(t.as_const()?);
        }
        Some(Fact::new(self.pred, args))
    }

    /// Applies a variable substitution, leaving unmapped variables intact.
    pub fn apply(&self, subst: &impl Fn(VarId) -> Option<Term>) -> Atom {
        Atom {
            pred: self.pred,
            args: self
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => subst(*v).unwrap_or(*t),
                    Term::Const(_) => *t,
                })
                .collect(),
        }
    }

    /// Renders the atom using names from `voc`.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> DisplayAtom<'a> {
        DisplayAtom { atom: self, voc }
    }
}

/// A ground atom `R(c₁, …, cₖ)`: the unit of storage in an [`crate::Instance`].
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fact {
    /// The relation symbol.
    pub pred: PredId,
    /// The argument elements.
    pub args: Vec<ConstId>,
}

impl Fact {
    /// Creates a fact.
    pub fn new(pred: PredId, args: Vec<ConstId>) -> Self {
        Fact { pred, args }
    }

    /// Renders the fact using names from `voc`.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> DisplayFact<'a> {
        DisplayFact { fact: self, voc }
    }
}

/// Helper for [`Atom::display`].
pub struct DisplayAtom<'a> {
    atom: &'a Atom,
    voc: &'a Vocabulary,
}

impl fmt::Display for DisplayAtom<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.voc.pred_name(self.atom.pred))?;
        for (i, t) in self.atom.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match t {
                Term::Var(v) => write!(f, "{}", self.voc.var_name(*v))?,
                Term::Const(c) => write!(f, "{}", self.voc.const_name(*c))?,
            }
        }
        write!(f, ")")
    }
}

/// Helper for [`Fact::display`].
pub struct DisplayFact<'a> {
    fact: &'a Fact,
    voc: &'a Vocabulary,
}

impl fmt::Display for DisplayFact<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.voc.pred_name(self.fact.pred))?;
        for (i, c) in self.fact.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.voc.const_name(*c))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vocabulary, PredId, VarId, ConstId) {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let x = voc.var("X");
        let a = voc.constant("a");
        (voc, e, x, a)
    }

    #[test]
    fn atom_display_uses_names() {
        let (voc, e, x, a) = setup();
        let atom = Atom::new(e, vec![Term::Var(x), Term::Const(a)]);
        assert_eq!(atom.display(&voc).to_string(), "E(X,a)");
    }

    #[test]
    fn ground_atom_converts_to_fact() {
        let (voc, e, _, a) = setup();
        let atom = Atom::new(e, vec![Term::Const(a), Term::Const(a)]);
        let fact = atom.to_fact().unwrap();
        assert_eq!(fact.display(&voc).to_string(), "E(a,a)");
    }

    #[test]
    fn non_ground_atom_has_no_fact() {
        let (_, e, x, a) = setup();
        let atom = Atom::new(e, vec![Term::Var(x), Term::Const(a)]);
        assert!(atom.to_fact().is_none());
    }

    #[test]
    fn apply_substitutes_only_mapped_vars() {
        let (mut voc, e, x, a) = setup();
        let y = voc.var("Y");
        let atom = Atom::new(e, vec![Term::Var(x), Term::Var(y)]);
        let out = atom.apply(&|v| (v == x).then_some(Term::Const(a)));
        assert_eq!(out.args, vec![Term::Const(a), Term::Var(y)]);
    }

    #[test]
    fn arity_check() {
        let (voc, e, x, _) = setup();
        assert!(!Atom::new(e, vec![Term::Var(x)]).check_arity(&voc));
        assert!(Atom::new(e, vec![Term::Var(x), Term::Var(x)]).check_arity(&voc));
    }
}
