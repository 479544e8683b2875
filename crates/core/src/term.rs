//! Terms and atoms: the syntactic building blocks of queries and rules.

use crate::symbols::{ConstId, PredId, VarId, Vocabulary};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

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

/// Argument lists up to this length are stored inline in [`Args`].
const INLINE_ARGS: usize = 4;

/// The argument elements of a [`Fact`]: an immutable `[ConstId]` that
/// clones and drops without touching the heap allocator. Up to
/// four elements live inline; longer lists share one reference-counted
/// slice. Equality, order, hashing and `Debug` are the slice's, so an
/// `Args` behaves exactly like the `Vec<ConstId>` it stands for (hash-map
/// iteration orders over facts included).
#[derive(Clone)]
pub struct Args(ArgsRepr);

#[derive(Clone)]
enum ArgsRepr {
    Inline { len: u8, buf: [ConstId; INLINE_ARGS] },
    Shared(Arc<[ConstId]>),
}

impl Deref for Args {
    type Target = [ConstId];

    #[inline]
    fn deref(&self) -> &[ConstId] {
        match &self.0 {
            ArgsRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            ArgsRepr::Shared(s) => s,
        }
    }
}

impl From<&[ConstId]> for Args {
    fn from(s: &[ConstId]) -> Self {
        if s.len() <= INLINE_ARGS {
            let mut buf = [ConstId(0); INLINE_ARGS];
            buf[..s.len()].copy_from_slice(s);
            Args(ArgsRepr::Inline { len: s.len() as u8, buf })
        } else {
            Args(ArgsRepr::Shared(s.into()))
        }
    }
}

impl From<Vec<ConstId>> for Args {
    fn from(v: Vec<ConstId>) -> Self {
        Args::from(v.as_slice())
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a ConstId;
    type IntoIter = std::slice::Iter<'a, ConstId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        **self == **other
    }
}

impl Eq for Args {}

impl PartialEq<[ConstId]> for Args {
    fn eq(&self, other: &[ConstId]) -> bool {
        **self == *other
    }
}

impl PartialEq<&[ConstId]> for Args {
    fn eq(&self, other: &&[ConstId]) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<ConstId>> for Args {
    fn eq(&self, other: &Vec<ConstId>) -> bool {
        **self == **other
    }
}

impl PartialOrd for Args {
    fn partial_cmp(&self, other: &Args) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Args {
    fn cmp(&self, other: &Args) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Args {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A ground atom `R(c₁, …, cₖ)`: the unit of storage in an [`crate::Instance`].
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fact {
    /// The relation symbol.
    pub pred: PredId,
    /// The argument elements.
    pub args: Args,
}

impl Fact {
    /// Creates a fact.
    pub fn new(pred: PredId, args: Vec<ConstId>) -> Self {
        Fact { pred, args: args.into() }
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

    /// `Args` stands in for `Vec<ConstId>` exactly: same hash (so hash-map
    /// iteration orders over facts do not move), order, equality and
    /// `Debug`, inline and shared alike.
    #[test]
    fn args_behave_like_the_vec_they_replace() {
        use crate::fxhash::FxHasher;
        let hash = |x: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            x(&mut h);
            h.finish()
        };
        let vecs: Vec<Vec<ConstId>> = (0..8)
            .flat_map(|n| [(0..n).map(ConstId).collect(), vec![ConstId(7); n as usize]])
            .collect();
        for v in &vecs {
            let a = Args::from(v.clone());
            assert_eq!(&*a, v.as_slice());
            assert_eq!(a, *v);
            assert_eq!(hash(&|h| a.hash(h)), hash(&|h| v.hash(h)));
            assert_eq!(format!("{a:?}"), format!("{v:?}"));
            assert_eq!(a.clone().iter().collect::<Vec<_>>(), v.iter().collect::<Vec<_>>());
            for w in &vecs {
                assert_eq!(a.cmp(&Args::from(w.as_slice())), v.cmp(w));
            }
        }
    }

    #[test]
    fn arity_check() {
        let (voc, e, x, _) = setup();
        assert!(!Atom::new(e, vec![Term::Var(x)]).check_arity(&voc));
        assert!(Atom::new(e, vec![Term::Var(x), Term::Var(x)]).check_arity(&voc));
    }
}
