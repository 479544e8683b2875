//! Rule and theory satisfaction, and violation enumeration.
//!
//! `M ⊨ T` checking is what certifies every finite model this workspace
//! produces; violation enumeration is what drives the chase.

use crate::hom::{self, Binding};
use crate::instance::Instance;
use crate::rule::{Rule, Theory};
use crate::symbols::VarId;
use std::ops::ControlFlow;

/// A witness that a rule is violated in an instance: a homomorphism of the
/// body that admits no extension satisfying the head.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Index of the violated rule in the theory (when enumerated through
    /// [`theory_violations`]; `0` for single-rule APIs).
    pub rule_idx: usize,
    /// The body homomorphism with no head extension.
    pub binding: Binding,
}

/// Restricts a binding to the given variables (used to canonicalize
/// violations: only frontier variables matter for head satisfaction).
pub fn restrict_binding(binding: &Binding, vars: &[VarId]) -> Binding {
    vars.iter()
        .filter_map(|v| binding.get(v).map(|&c| (*v, c)))
        .collect()
}

/// Is the head of `rule` satisfiable in `inst` under the (body) binding?
/// I.e. does some extension of `binding` to the existential variables make
/// every head atom true? This is the *non-oblivious* applicability check of
/// Section 1.1: "such that there is no y ∈ D satisfying D ⊨ Q(y, ȳ)".
pub fn head_satisfied(inst: &Instance, rule: &Rule, binding: &Binding) -> bool {
    hom::hom_exists(inst, &rule.head, binding)
}

/// Does the instance satisfy the rule?
pub fn satisfies_rule(inst: &Instance, rule: &Rule) -> bool {
    first_violation(inst, rule).is_none()
}

/// Finds one violation of the rule, if any.
pub fn first_violation(inst: &Instance, rule: &Rule) -> Option<Violation> {
    let mut found = None;
    let _ = hom::for_each_hom(inst, &rule.body, &Binding::default(), |b| {
        if head_satisfied(inst, rule, b) {
            ControlFlow::Continue(())
        } else {
            found = Some(Violation { rule_idx: 0, binding: b.clone() });
            ControlFlow::Break(())
        }
    });
    found
}

/// Enumerates all violations of the rule. Bindings are restricted to the
/// body variables actually used by the head (the rule frontier), and
/// deduplicated, so each returned violation demands a distinct repair —
/// exactly the grain at which the paper's `Chase¹` creates witnesses
/// (`c_{t,x̄}` depends on the rule and the frontier tuple).
pub fn rule_violations(inst: &Instance, rule: &Rule) -> Vec<Violation> {
    let mut frontier: Vec<VarId> = rule.frontier().into_iter().collect();
    frontier.sort_unstable();
    let mut seen = crate::fxhash::FxHashSet::default();
    let mut out = Vec::new();
    let _ = hom::for_each_hom(inst, &rule.body, &Binding::default(), |b| {
        let key: Vec<_> = frontier.iter().map(|v| b[v]).collect();
        if seen.contains(&key) {
            return ControlFlow::Continue(());
        }
        let restricted = restrict_binding(b, &frontier);
        if !head_satisfied(inst, rule, &restricted) {
            seen.insert(key);
            out.push(Violation { rule_idx: 0, binding: restricted });
        } else {
            seen.insert(key);
        }
        ControlFlow::Continue(())
    });
    out
}

/// Does the instance satisfy every rule of the theory?
pub fn satisfies_theory(inst: &Instance, theory: &Theory) -> bool {
    theory.rules.iter().all(|r| satisfies_rule(inst, r))
}

/// Enumerates all violations across the theory, tagged with rule indices.
pub fn theory_violations(inst: &Instance, theory: &Theory) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, rule) in theory.rules.iter().enumerate() {
        for mut v in rule_violations(inst, rule) {
            v.rule_idx = i;
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Vocabulary;
    use crate::term::{Atom, Fact, Term};

    fn succ_theory(voc: &mut Vocabulary) -> Theory {
        let e = voc.pred("E", 2);
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        Theory::new(vec![Rule::single(
            vec![Atom::new(e, vec![Term::Var(x), Term::Var(y)])],
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        )])
    }

    #[test]
    fn loop_satisfies_successor_rule() {
        let mut voc = Vocabulary::new();
        let th = succ_theory(&mut voc);
        let e = voc.find_pred("E").unwrap();
        let a = voc.constant("a");
        let mut inst = Instance::new();
        inst.insert(Fact::new(e, vec![a, a]));
        assert!(satisfies_theory(&inst, &th));
    }

    #[test]
    fn chain_end_violates_successor_rule() {
        let mut voc = Vocabulary::new();
        let th = succ_theory(&mut voc);
        let e = voc.find_pred("E").unwrap();
        let a = voc.constant("a");
        let b = voc.constant("b");
        let mut inst = Instance::new();
        inst.insert(Fact::new(e, vec![a, b]));
        let viols = theory_violations(&inst, &th);
        assert_eq!(viols.len(), 1);
        // The violated frontier is Y = b.
        let y = voc.find_pred("E").map(|_| voc.var("Y")).unwrap();
        assert_eq!(viols[0].binding[&y], b);
    }

    #[test]
    fn violations_deduplicate_on_frontier() {
        let mut voc = Vocabulary::new();
        let th = succ_theory(&mut voc);
        let e = voc.find_pred("E").unwrap();
        let (a, b, c) = (voc.constant("a"), voc.constant("b"), voc.constant("c"));
        let mut inst = Instance::new();
        // Two edges into c: both body homs share frontier Y=c — one repair.
        inst.insert(Fact::new(e, vec![a, c]));
        inst.insert(Fact::new(e, vec![b, c]));
        let viols = rule_violations(&inst, &th.rules[0]);
        assert_eq!(viols.len(), 1);
    }

    #[test]
    fn datalog_violation_detected() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let trans = Rule::single(
            vec![
                Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
            ],
            Atom::new(e, vec![Term::Var(x), Term::Var(z)]),
        );
        let (a, b, c) = (voc.constant("a"), voc.constant("b"), voc.constant("c"));
        let mut inst = Instance::new();
        inst.insert(Fact::new(e, vec![a, b]));
        inst.insert(Fact::new(e, vec![b, c]));
        assert!(!satisfies_rule(&inst, &trans));
        inst.insert(Fact::new(e, vec![a, c]));
        assert!(satisfies_rule(&inst, &trans));
    }

    #[test]
    fn multi_head_satisfaction_requires_single_witness_for_all_atoms() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let u = voc.pred("U", 1);
        let (x, z) = (voc.var("X"), voc.var("Z"));
        // E(x,x) -> exists z. E(x,z) ∧ U(z): the same z must serve both atoms.
        let rule = Rule::new(
            vec![Atom::new(e, vec![Term::Var(x), Term::Var(x)])],
            vec![
                Atom::new(e, vec![Term::Var(x), Term::Var(z)]),
                Atom::new(u, vec![Term::Var(z)]),
            ],
        );
        let a = voc.constant("a");
        let b = voc.constant("b");
        let c = voc.constant("c");
        let mut inst = Instance::new();
        inst.insert(Fact::new(e, vec![a, a]));
        inst.insert(Fact::new(e, vec![a, b]));
        inst.insert(Fact::new(u, vec![c]));
        // E(a,b) holds and U(c) holds but no single z works.
        assert!(!satisfies_rule(&inst, &rule));
        inst.insert(Fact::new(u, vec![b]));
        assert!(satisfies_rule(&inst, &rule));
    }
}
