//! Rules (TGDs and plain datalog rules) and theories.
//!
//! The paper works with *theories*: finite sets of existential single-head
//! TGDs `∀x̄ (Φ(x̄) ⇒ ∃y Q(y, ȳ))` and plain datalog rules. We represent
//! both with one [`Rule`] type — a rule is existential iff some head
//! variable does not occur in the body. Multi-head rules are also allowed
//! structurally (Section 5.3 discusses them); engines that require
//! single-head rules validate this explicitly.

use crate::query::ConjunctiveQuery;
use crate::span::{RuleSpans, SrcSpan};
use crate::symbols::{ConstId, PredId, VarId, Vocabulary};
use crate::term::{Atom, Term};
use crate::fxhash::FxHashSet;
use std::fmt;

/// A rule `body ⇒ ∃(head-only vars) head₁ ∧ … ∧ headₖ`.
///
/// Equality compares the logical content (`body`, `head`) only; the
/// source [`RuleSpans`] are provenance and two rules differing only in
/// where they were parsed from compare equal.
#[derive(Clone, Debug)]
pub struct Rule {
    /// The body conjunction (must be non-empty for a safe rule).
    pub body: Vec<Atom>,
    /// The head conjunction (singleton for the paper's TGDs).
    pub head: Vec<Atom>,
    /// Source positions, when the rule came out of the parser. Boxed so
    /// the common programmatic (span-free) rule stays small.
    pub spans: Option<Box<RuleSpans>>,
}

impl PartialEq for Rule {
    fn eq(&self, other: &Self) -> bool {
        self.body == other.body && self.head == other.head
    }
}

impl Eq for Rule {}

/// The kind of a rule, derived from its variable usage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RuleKind {
    /// Every head variable occurs in the body: a plain datalog rule.
    Datalog,
    /// Some head variable is existentially quantified: an existential TGD.
    ExistentialTgd,
}

impl Rule {
    /// Creates a rule (without source positions).
    pub fn new(body: Vec<Atom>, head: Vec<Atom>) -> Self {
        Rule { body, head, spans: None }
    }

    /// Creates a single-head rule (without source positions).
    pub fn single(body: Vec<Atom>, head: Atom) -> Self {
        Rule { body, head: vec![head], spans: None }
    }

    /// Attaches source positions (used by the parser).
    pub fn with_spans(mut self, spans: RuleSpans) -> Self {
        debug_assert_eq!(spans.body.len(), self.body.len());
        debug_assert_eq!(spans.head.len(), self.head.len());
        self.spans = Some(Box::new(spans));
        self
    }

    /// The source span of the whole rule, if it was parsed from text.
    pub fn span(&self) -> Option<SrcSpan> {
        self.spans.as_ref().map(|s| s.rule)
    }

    /// The source span of the `i`-th body atom, if known.
    pub fn body_span(&self, i: usize) -> Option<SrcSpan> {
        self.spans.as_ref().and_then(|s| s.body.get(i).copied())
    }

    /// The source span of the `i`-th head atom, if known.
    pub fn head_span(&self, i: usize) -> Option<SrcSpan> {
        self.spans.as_ref().and_then(|s| s.head.get(i).copied())
    }

    /// Variables occurring in the body.
    pub fn body_vars(&self) -> FxHashSet<VarId> {
        self.body.iter().flat_map(|a| a.vars()).collect()
    }

    /// Variables occurring in the head.
    pub fn head_vars(&self) -> FxHashSet<VarId> {
        self.head.iter().flat_map(|a| a.vars()).collect()
    }

    /// The existential variables: head variables absent from the body.
    pub fn existential_vars(&self) -> FxHashSet<VarId> {
        let body = self.body_vars();
        self.head_vars().into_iter().filter(|v| !body.contains(v)).collect()
    }

    /// The frontier: variables shared between body and head.
    pub fn frontier(&self) -> FxHashSet<VarId> {
        let body = self.body_vars();
        self.head_vars().into_iter().filter(|v| body.contains(v)).collect()
    }

    /// Classifies the rule as datalog or existential TGD.
    pub fn kind(&self) -> RuleKind {
        if self.existential_vars().is_empty() {
            RuleKind::Datalog
        } else {
            RuleKind::ExistentialTgd
        }
    }

    /// Is this a plain datalog rule?
    pub fn is_datalog(&self) -> bool {
        self.kind() == RuleKind::Datalog
    }

    /// Is this rule single-head (the paper's standing assumption)?
    pub fn is_single_head(&self) -> bool {
        self.head.len() == 1
    }

    /// The body viewed as a Boolean conjunctive query.
    pub fn body_query(&self) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(self.body.clone())
    }

    /// Is the rule *safe*: every frontier variable of the head occurs in the
    /// body, and the body is non-empty? (Existential variables are allowed.)
    /// For datalog rules this is the classical safety condition.
    pub fn is_safe(&self) -> bool {
        !self.body.is_empty()
    }

    /// All predicates mentioned by the rule, body then head.
    pub fn preds(&self) -> impl Iterator<Item = PredId> + '_ {
        self.body.iter().chain(self.head.iter()).map(|a| a.pred)
    }

    /// All constants mentioned by the rule.
    pub fn constants(&self) -> FxHashSet<ConstId> {
        self.body
            .iter()
            .chain(self.head.iter())
            .flat_map(|a| a.constants())
            .collect()
    }

    /// Renames all variables apart from anything already interned.
    pub fn rename_apart(&self, voc: &mut Vocabulary) -> Rule {
        let mut map = crate::fxhash::FxHashMap::default();
        let mut all: Vec<VarId> = self.body_vars().into_iter().collect();
        all.extend(self.head_vars());
        for v in all {
            map.entry(v).or_insert_with(|| {
                let name = voc.var_name(v).to_owned();
                voc.fresh_var(&name)
            });
        }
        let subst = |v: VarId| map.get(&v).map(|&w| Term::Var(w));
        Rule {
            body: self.body.iter().map(|a| a.apply(&subst)).collect(),
            head: self.head.iter().map(|a| a.apply(&subst)).collect(),
            spans: self.spans.clone(),
        }
    }

    /// A one-line human label: the pretty-printed rule, with its source
    /// position appended when known — `` `E(X,Y) -> E(Y,Z)` at 3:1 ``.
    /// The canonical way to name a rule in a diagnostic or error.
    pub fn describe(&self, voc: &Vocabulary) -> String {
        match self.span() {
            Some(span) => format!("`{}` at {span}", self.display(voc)),
            None => format!("`{}`", self.display(voc)),
        }
    }

    /// Renders the rule using names from `voc`.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> DisplayRule<'a> {
        DisplayRule { rule: self, voc }
    }
}

/// A finite set of rules — the paper's *theory* (Datalog∃ program).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Theory {
    /// The rules, in declaration order.
    pub rules: Vec<Rule>,
}

impl Theory {
    /// Creates a theory from rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        Theory { rules }
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the theory empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The existential TGDs of the theory.
    pub fn tgds(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| !r.is_datalog())
    }

    /// The plain datalog rules of the theory.
    pub fn datalog_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| r.is_datalog())
    }

    /// Are all rules single-head (the paper's standing assumption)?
    pub fn is_single_head(&self) -> bool {
        self.rules.iter().all(|r| r.is_single_head())
    }

    /// All predicates mentioned by some rule.
    pub fn preds(&self) -> FxHashSet<PredId> {
        self.rules.iter().flat_map(|r| r.preds()).collect()
    }

    /// The *tuple-generating predicates* (TGPs, condition (♠5)): predicates
    /// occurring in the head of some existential TGD.
    pub fn tgps(&self) -> FxHashSet<PredId> {
        self.tgds().flat_map(|r| r.head.iter().map(|a| a.pred)).collect()
    }

    /// Does the theory satisfy condition (♠5) of Section 3.1?
    ///
    /// 1. every existential TGD has a single head atom of the form
    ///    `∃z R(y, z)` — binary, the frontier variable first and the unique
    ///    existential witness second;
    /// 2. no TGP occurs in the head of a datalog rule.
    pub fn satisfies_spade5(&self) -> bool {
        let tgps = self.tgps();
        for rule in &self.rules {
            match rule.kind() {
                RuleKind::ExistentialTgd => {
                    if !rule.is_single_head() {
                        return false;
                    }
                    let head = &rule.head[0];
                    if head.args.len() != 2 {
                        return false;
                    }
                    let ex = rule.existential_vars();
                    let first_is_frontier = matches!(
                        head.args[0],
                        Term::Var(v) if !ex.contains(&v)
                    ) || head.args[0].as_const().is_some();
                    let second_is_witness =
                        matches!(head.args[1], Term::Var(v) if ex.contains(&v));
                    if !first_is_frontier || !second_is_witness || ex.len() != 1 {
                        return false;
                    }
                }
                RuleKind::Datalog => {
                    if rule.head.iter().any(|a| tgps.contains(&a.pred)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Renders the theory, one rule per line.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> DisplayTheory<'a> {
        DisplayTheory { theory: self, voc }
    }
}

impl FromIterator<Rule> for Theory {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> Self {
        Theory::new(iter.into_iter().collect())
    }
}

/// Helper for [`Rule::display`].
pub struct DisplayRule<'a> {
    rule: &'a Rule,
    voc: &'a Vocabulary,
}

impl fmt::Display for DisplayRule<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.rule.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.display(self.voc))?;
        }
        write!(f, " -> ")?;
        let ex = self.rule.existential_vars();
        if !ex.is_empty() {
            let mut names: Vec<&str> = ex.iter().map(|&v| self.voc.var_name(v)).collect();
            names.sort_unstable();
            write!(f, "exists {} . ", names.join(","))?;
        }
        for (i, a) in self.rule.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.display(self.voc))?;
        }
        Ok(())
    }
}

/// Helper for [`Theory::display`].
pub struct DisplayTheory<'a> {
    theory: &'a Theory,
    voc: &'a Vocabulary,
}

impl fmt::Display for DisplayTheory<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.theory.rules {
            writeln!(f, "{}.", rule.display(self.voc))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 1 of the paper.
    fn example1(voc: &mut Vocabulary) -> Theory {
        let e = voc.pred("E", 2);
        let u = voc.pred("U", 2);
        let (x, y, z, t) = (voc.var("X"), voc.var("Y"), voc.var("Z"), voc.var("T"));
        let va = |v: VarId| Term::Var(v);
        Theory::new(vec![
            Rule::single(
                vec![Atom::new(e, vec![va(x), va(y)])],
                Atom::new(e, vec![va(y), va(z)]),
            ),
            Rule::single(
                vec![
                    Atom::new(e, vec![va(x), va(y)]),
                    Atom::new(e, vec![va(y), va(z)]),
                    Atom::new(e, vec![va(z), va(x)]),
                ],
                Atom::new(u, vec![va(x), va(t)]),
            ),
            Rule::single(
                vec![Atom::new(u, vec![va(x), va(y)])],
                Atom::new(u, vec![va(y), va(z)]),
            ),
        ])
    }

    #[test]
    fn kinds_are_detected() {
        let mut voc = Vocabulary::new();
        let th = example1(&mut voc);
        assert_eq!(th.tgds().count(), 3);
        assert_eq!(th.datalog_rules().count(), 0);
        assert!(th.is_single_head());
    }

    #[test]
    fn datalog_rule_detected() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let r = Rule::single(
            vec![
                Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
            ],
            Atom::new(e, vec![Term::Var(x), Term::Var(z)]),
        );
        assert!(r.is_datalog());
        assert!(r.existential_vars().is_empty());
        assert_eq!(r.frontier().len(), 2);
    }

    #[test]
    fn tgps_and_spade5() {
        let mut voc = Vocabulary::new();
        let th = example1(&mut voc);
        let e = voc.find_pred("E").unwrap();
        let u = voc.find_pred("U").unwrap();
        let tgps = th.tgps();
        assert!(tgps.contains(&e) && tgps.contains(&u));
        // Example 1 already satisfies (♠5): all TGD heads are R(y,z) with z new.
        assert!(th.satisfies_spade5());
    }

    #[test]
    fn spade5_rejects_tgp_in_datalog_head() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let tgd = Rule::single(
            vec![Atom::new(e, vec![Term::Var(x), Term::Var(y)])],
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        );
        let dl = Rule::single(
            vec![
                Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
            ],
            Atom::new(e, vec![Term::Var(x), Term::Var(z)]),
        );
        let th = Theory::new(vec![tgd, dl]);
        assert!(!th.satisfies_spade5());
    }

    #[test]
    fn spade5_rejects_witness_first() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        // E(x,y) -> exists z. E(z,y): witness in the *first* position.
        let tgd = Rule::single(
            vec![Atom::new(e, vec![Term::Var(x), Term::Var(y)])],
            Atom::new(e, vec![Term::Var(z), Term::Var(y)]),
        );
        assert!(!Theory::new(vec![tgd]).satisfies_spade5());
    }

    #[test]
    fn rename_apart_preserves_shape() {
        let mut voc = Vocabulary::new();
        let th = example1(&mut voc);
        let r = &th.rules[1];
        let r2 = r.rename_apart(&mut voc);
        assert_eq!(r2.body.len(), 3);
        assert!(r.body_vars().is_disjoint(&r2.body_vars()));
        assert_eq!(r2.kind(), RuleKind::ExistentialTgd);
    }

    #[test]
    fn display_shows_existentials() {
        let mut voc = Vocabulary::new();
        let th = example1(&mut voc);
        let s = th.rules[0].display(&voc).to_string();
        assert_eq!(s, "E(X,Y) -> exists Z . E(Y,Z)");
    }
}
