//! Provenance-tracking chase: which rule, under which premises, derived
//! each fact.
//!
//! The BDD property is all about *derivation depth* (Section 1.1: a
//! theory is BDD iff every entailed query is witnessed within a bounded
//! number of chase steps). The plain engine records depths; this traced
//! run additionally records, for every derived fact, the rule and the
//! premise facts of its first derivation, so a full derivation tree (the
//! object whose height the BDD definition bounds) can be extracted and
//! inspected. It has no chase loop of its own: [`traced_chase`] runs the
//! engine's budgeted driver `ChaseStepper::run` with provenance
//! recording on, the same path incremental maintenance uses.

use crate::engine::{ChaseStatus, ChaseStepper, ChaseStrategy, ChaseVariant};
use bddfc_core::fxhash::FxHashMap;
use bddfc_core::{Fact, Instance, Theory, Vocabulary};
use std::ops::ControlFlow;

/// Provenance of one derived fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// Index of the rule that derived the fact.
    pub rule_idx: usize,
    /// The premise facts (the grounded rule body of the first
    /// derivation).
    pub premises: Vec<Fact>,
    /// The chase round at which the fact appeared (`0` = database).
    pub round: u32,
}

/// A chase run with provenance.
#[derive(Clone, Debug)]
pub struct TracedChase {
    /// The chased instance.
    pub instance: Instance,
    /// Provenance for every non-database fact.
    pub provenance: FxHashMap<Fact, Derivation>,
    /// Rounds completed that added facts (the empty round that certifies
    /// a fixpoint is not counted).
    pub rounds: u32,
    /// Did the run reach a fixpoint?
    pub fixpoint: bool,
}

/// A derivation tree, rooted at a fact.
///
/// Chains of existential rules routinely produce derivations tens of
/// thousands of steps deep, so every operation on this type — including
/// `Clone` and `Drop` — is implemented iteratively with explicit
/// worklists; none of them recurses on tree depth.
#[derive(Debug)]
pub struct DerivationTree {
    /// The derived fact.
    pub fact: Fact,
    /// The rule used, if the fact was derived (`None` for database facts).
    pub rule_idx: Option<usize>,
    /// Subtrees for the premises.
    pub premises: Vec<DerivationTree>,
}

impl DerivationTree {
    /// Height of the tree: 0 for database facts. This is the quantity
    /// the BDD property bounds.
    pub fn height(&self) -> u32 {
        // The height is the maximum node depth, so a depth-annotated
        // traversal suffices — no post-order bookkeeping needed.
        let mut max = 0u32;
        let mut stack: Vec<(&DerivationTree, u32)> = vec![(self, 0)];
        while let Some((t, depth)) = stack.pop() {
            max = max.max(depth);
            for p in &t.premises {
                stack.push((p, depth + 1));
            }
        }
        max
    }

    /// Total number of rule applications in the tree.
    pub fn size(&self) -> usize {
        let mut n = 0usize;
        let mut stack: Vec<&DerivationTree> = vec![self];
        while let Some(t) = stack.pop() {
            n += usize::from(t.rule_idx.is_some());
            stack.extend(t.premises.iter());
        }
        n
    }

    /// Renders the tree, indented, in pre-order. Indentation saturates
    /// at 64 levels so the rendering of an n-deep chain stays O(n), not
    /// O(n²), in output size.
    pub fn display(&self, voc: &Vocabulary) -> String {
        const MAX_INDENT: usize = 64;
        let mut out = String::new();
        let mut stack: Vec<(&DerivationTree, usize)> = vec![(self, 0)];
        while let Some((t, indent)) = stack.pop() {
            out.push_str(&"  ".repeat(indent.min(MAX_INDENT)));
            out.push_str(&t.fact.display(voc).to_string());
            match t.rule_idx {
                Some(r) => out.push_str(&format!("   [rule #{r}]\n")),
                None => out.push_str("   [database]\n"),
            }
            // Reversed so the leftmost premise is rendered first.
            for p in t.premises.iter().rev() {
                stack.push((p, indent + 1));
            }
        }
        out
    }

}

impl Clone for DerivationTree {
    fn clone(&self) -> Self {
        // Breadth-first flatten: each node records the contiguous index
        // range its children occupy, then clones assemble bottom-up.
        let mut nodes: Vec<&DerivationTree> = vec![self];
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut i = 0;
        while i < nodes.len() {
            let node = nodes[i];
            let start = nodes.len();
            nodes.extend(node.premises.iter());
            ranges.push((start, nodes.len()));
            i += 1;
        }
        let mut built: Vec<Option<DerivationTree>> = (0..nodes.len()).map(|_| None).collect();
        for idx in (0..nodes.len()).rev() {
            let (start, end) = ranges[idx];
            let premises = (start..end)
                .map(|c| built[c].take().expect("child built before parent"))
                .collect();
            built[idx] = Some(DerivationTree {
                fact: nodes[idx].fact.clone(),
                rule_idx: nodes[idx].rule_idx,
                premises,
            });
        }
        built[0].take().expect("root built last")
    }
}

impl Drop for DerivationTree {
    fn drop(&mut self) {
        // Detach the subtrees into a flat worklist so the compiler's
        // recursive drop glue only ever sees leaf nodes.
        let mut stack = std::mem::take(&mut self.premises);
        while let Some(mut t) = stack.pop() {
            stack.append(&mut t.premises);
        }
    }
}

/// Runs a restricted chase recording provenance; bounded by `max_rounds`
/// and by no fact cap.
///
/// Runs `ChaseStepper::run` (restricted, semi-naive) with provenance
/// recording, the path incremental maintenance records its derivations
/// with, so the facts, fresh-null names and rounds are exactly those of
/// [`crate::chase`] under the same round budget.
pub fn traced_chase(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    max_rounds: u32,
) -> TracedChase {
    let mut stepper =
        ChaseStepper::new(db, theory, ChaseVariant::Restricted, ChaseStrategy::SemiNaive);
    let mut derivations = Vec::new();
    let (stop, steps) = stepper.run(voc, max_rounds, usize::MAX, Some(&mut derivations), |_| {
        ControlFlow::Continue(())
    });
    let fixpoint = stop == Some(ChaseStatus::Fixpoint);
    let rounds = steps - u32::from(fixpoint);
    let provenance = derivations.into_iter().collect();
    TracedChase { instance: stepper.into_instance(), provenance, rounds, fixpoint }
}

impl TracedChase {
    /// Extracts the derivation tree of a fact (database facts are
    /// leaves). Returns `None` if the fact is not in the instance.
    ///
    /// Iterative on derivation depth (a chained existential rule makes
    /// derivations as deep as the run is long, far beyond what the call
    /// stack tolerates): a breadth-first pass flattens the provenance
    /// graph into an indexed node list, then the tree is assembled
    /// bottom-up. Facts shared between derivations are expanded once per
    /// occurrence — the result is a tree, exactly as the recursive
    /// definition reads.
    pub fn explain(&self, fact: &Fact) -> Option<DerivationTree> {
        if !self.instance.contains(fact) {
            return None;
        }
        let mut facts: Vec<Fact> = vec![fact.clone()];
        let mut ranges: Vec<(usize, usize, Option<usize>)> = Vec::new();
        let mut i = 0;
        while i < facts.len() {
            let (rule_idx, premises): (Option<usize>, &[Fact]) =
                match self.provenance.get(&facts[i]) {
                    None => (None, &[]),
                    Some(d) => (Some(d.rule_idx), &d.premises),
                };
            let start = facts.len();
            facts.extend(premises.iter().cloned());
            ranges.push((start, facts.len(), rule_idx));
            i += 1;
        }
        let mut built: Vec<Option<DerivationTree>> = (0..facts.len()).map(|_| None).collect();
        for idx in (0..facts.len()).rev() {
            let (start, end, rule_idx) = ranges[idx];
            let premises = (start..end)
                .map(|c| built[c].take().expect("child built before parent"))
                .collect();
            built[idx] = Some(DerivationTree { fact: facts[idx].clone(), rule_idx, premises });
        }
        Some(built[0].take().expect("root built last"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::parse_program;

    #[test]
    fn database_facts_have_height_zero() {
        let prog = parse_program("E(a,b).").unwrap();
        let mut voc = prog.voc.clone();
        let traced = traced_chase(&prog.instance, &Default::default(), &mut voc, 4);
        assert!(traced.fixpoint);
        let tree = traced.explain(prog.instance.facts().first().unwrap()).unwrap();
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.size(), 0);
    }

    #[test]
    fn chain_derivations_have_linear_height() {
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let mut voc = prog.voc.clone();
        let traced = traced_chase(&prog.instance, &prog.theory, &mut voc, 5);
        assert_eq!(traced.rounds, 5);
        // The deepest fact has a derivation of height 5.
        let max_height = traced
            .instance
            .facts()
            .iter()
            .map(|f| traced.explain(f).unwrap().height())
            .max()
            .unwrap();
        assert_eq!(max_height, 5);
    }

    #[test]
    fn transitive_closure_explanations() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z). E(a,b). E(b,c). E(c,d).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let traced = traced_chase(&prog.instance, &prog.theory, &mut voc, 8);
        assert!(traced.fixpoint);
        let e = voc.find_pred("E").unwrap();
        let a = voc.find_const("a").unwrap();
        let d = voc.find_const("d").unwrap();
        let ad = Fact::new(e, vec![a, d]);
        let tree = traced.explain(&ad).unwrap();
        assert!(tree.height() >= 2); // needs two compositions
        assert!(tree.display(&voc).contains("[rule #0]"));
        // All leaves are database facts.
        fn leaves_are_db(t: &DerivationTree) -> bool {
            if t.premises.is_empty() {
                t.rule_idx.is_none()
            } else {
                t.premises.iter().all(leaves_are_db)
            }
        }
        assert!(leaves_are_db(&tree));
    }

    #[test]
    fn traced_matches_untraced_instance() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(Y,Z) -> R(X,Z).
             E(a,b).",
        )
        .unwrap();
        let mut voc1 = prog.voc.clone();
        let traced = traced_chase(&prog.instance, &prog.theory, &mut voc1, 6);
        let mut voc2 = prog.voc.clone();
        let plain = crate::chase(
            &prog.instance,
            &prog.theory,
            &mut voc2,
            crate::ChaseConfig::rounds(6),
        );
        assert_eq!(traced.instance.len(), plain.instance.len());
        // Provenance round agrees with the plain engine's depth label.
        let depth = plain.depth_map();
        for (fact, deriv) in &traced.provenance {
            assert_eq!(depth[fact], deriv.round);
        }
    }

    #[test]
    fn hundred_thousand_deep_chain_does_not_overflow_the_stack() {
        // A hand-built provenance chain P(n_0) ⊢ P(n_1) ⊢ … ⊢ P(n_N):
        // running traced_chase for 100k rounds would dominate the test's
        // runtime, but the tree machinery must survive such depths either
        // way (the restricted chase on `E(X,Y) -> exists Z . E(Y,Z)`
        // produces exactly this shape, one round per level).
        const N: usize = 100_000;
        let mut voc = Vocabulary::new();
        let p = voc.pred("P", 1);
        let mut inst = Instance::new();
        let mut provenance: FxHashMap<Fact, Derivation> = FxHashMap::default();
        let mut prev: Option<Fact> = None;
        let mut deepest = None;
        for i in 0..=N {
            let fact = Fact::new(p, vec![voc.fresh_null("n")]);
            inst.insert(fact.clone());
            if let Some(prev) = prev.take() {
                provenance.insert(
                    fact.clone(),
                    Derivation { rule_idx: 0, premises: vec![prev], round: i as u32 },
                );
            }
            deepest = Some(fact.clone());
            prev = Some(fact);
        }
        let traced = TracedChase {
            instance: inst,
            provenance,
            rounds: N as u32,
            fixpoint: true,
        };
        let deepest = deepest.unwrap();
        // Construction, height, size, display, clone and drop all run on
        // a 100k-deep tree without recursing on depth.
        let tree = traced.explain(&deepest).unwrap();
        assert_eq!(tree.height(), N as u32);
        assert_eq!(tree.size(), N);
        let copy = tree.clone();
        assert_eq!(copy.height(), N as u32);
        let rendered = tree.display(&voc);
        assert_eq!(rendered.lines().count(), N + 1);
        assert!(rendered.ends_with("[database]\n"));
        drop(copy);
        drop(tree);
    }

    #[test]
    fn missing_fact_has_no_explanation() {
        let prog = parse_program("E(a,b).").unwrap();
        let mut voc = prog.voc.clone();
        let traced = traced_chase(&prog.instance, &Default::default(), &mut voc, 2);
        let e = voc.find_pred("E").unwrap();
        let b = voc.find_const("b").unwrap();
        assert!(traced.explain(&Fact::new(e, vec![b, b])).is_none());
    }
}
