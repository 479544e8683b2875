//! Datalog saturation: the small, independent reference evaluator.
//!
//! The finite-model pipeline of Section 3 chases the quotient `Mη(S̄)`
//! with the full theory but — by Lemma 5 — only the datalog rules ever
//! fire. This module applies *only* the datalog rules to a fixpoint,
//! which always terminates (no new elements are ever created).
//!
//! It is built on nothing but [`hom::for_each_hom`] — no join kernel, no
//! `par` sharding — so it checks the chase engine from outside: on a
//! datalog theory the restricted chase's fixpoint must be the same
//! instance (the `chase_vs_datalog_reference` fuzz property and the
//! benchmark's `chase_e13` check compare the two). Evaluation is
//! semi-naive: each round, for every datalog rule and every body atom,
//! the atom is unified with each fact of the previous round's delta and
//! the body is enumerated from that binding, so every derivation uses at
//! least one delta fact. A body-less rule has no delta to join and fires
//! once, in the first round.

use bddfc_core::fxhash::FxHashSet;
use bddfc_core::obs::{Event, EventSink, SpanTimer, NULL};
use bddfc_core::{hom, par, Atom, Binding, ConstId, Fact, Instance, Term, Theory};
use std::ops::ControlFlow;

/// The result of a datalog saturation.
#[derive(Clone, Debug)]
pub struct SaturationResult {
    /// The saturated instance (a model of the datalog rules).
    pub instance: Instance,
    /// Number of semi-naive rounds performed.
    pub rounds: u32,
    /// Number of facts added on top of the input.
    pub derived: usize,
    /// Completed body-homomorphism enumerations per round (the work
    /// metric semi-naive evaluation reduces; see [`crate::ChaseStats`]).
    pub body_matches_per_round: Vec<u64>,
}

impl SaturationResult {
    /// Total body matches across all rounds.
    pub fn total_body_matches(&self) -> u64 {
        self.body_matches_per_round.iter().sum()
    }
}

/// The binding under which `atom` grounds to `fact`, if any.
fn unify(atom: &Atom, fact: &Fact) -> Option<Binding> {
    if atom.pred != fact.pred || atom.args.len() != fact.args.len() {
        return None;
    }
    let mut b = Binding::default();
    for (t, &c) in atom.args.iter().zip(&fact.args) {
        let ok = match t {
            Term::Const(k) => *k == c,
            Term::Var(v) => *b.entry(*v).or_insert(c) == c,
        };
        if !ok {
            return None;
        }
    }
    Some(b)
}

fn saturate_impl<S: EventSink>(inst: &Instance, theory: &Theory, sink: &S) -> SaturationResult {
    let run_span = if S::ENABLED { sink.span_open("saturate", "run", 0, None) } else { 0 };
    let mut current = inst.clone();
    // The previous round's new facts: a suffix of the append-only
    // `current.facts()` (the whole input before the first round).
    let mut delta = 0..current.len();
    let mut body_matches_per_round = Vec::new();
    loop {
        let timer = SpanTimer::start();
        let round = body_matches_per_round.len() as u64 + 1;
        let round_span = if S::ENABLED {
            sink.span_open("saturate", "round", run_span, Some(("round", round)))
        } else {
            0
        };
        // Enumerate against the frozen `current`; insert after the round.
        let mut matches = 0u64;
        let mut new_facts: Vec<Fact> = Vec::new();
        let mut seen: FxHashSet<Fact> = FxHashSet::default();
        let mut args: Vec<ConstId> = Vec::new();
        for rule in theory.datalog_rules() {
            let mut fire = |b: &Binding| {
                matches += 1;
                for atom in &rule.head {
                    args.clear();
                    args.extend(atom.args.iter().map(|t| match t {
                        Term::Const(c) => *c,
                        Term::Var(v) => b[v],
                    }));
                    if !current.contains_ground(atom.pred, &args) {
                        let fact = Fact::new(atom.pred, args.clone());
                        if seen.insert(fact.clone()) {
                            new_facts.push(fact);
                        }
                    }
                }
                ControlFlow::Continue(())
            };
            if rule.body.is_empty() {
                if round == 1 {
                    let _ = fire(&Binding::default());
                }
                continue;
            }
            for (pin, atom) in rule.body.iter().enumerate() {
                let mut rest = rule.body.clone();
                rest.remove(pin);
                for fact in &current.facts()[delta.clone()] {
                    if let Some(init) = unify(atom, fact) {
                        let _ = hom::for_each_hom(&current, &rest, &init, &mut fire);
                    }
                }
            }
        }
        body_matches_per_round.push(matches);
        let start = current.len();
        for fact in new_facts {
            current.insert(fact);
        }
        let round_derived = current.len() - start;
        delta = start..current.len();
        if S::ENABLED {
            sink.record(Event {
                engine: "saturate",
                name: "round",
                parent: round_span,
                key: None,
                fields: &[
                    ("round", round),
                    ("body_matches", matches),
                    ("derived", round_derived as u64),
                    ("facts_total", current.len() as u64),
                ],
                gauges: &[
                    ("wall_ns", timer.elapsed_ns()),
                    ("threads", par::num_threads() as u64),
                ],
            });
            sink.span_close(round_span);
        }
        if round_derived == 0 {
            break;
        }
    }
    if S::ENABLED {
        sink.span_close(run_span);
    }
    // Every round but the final, empty one derived something.
    let rounds = u32::try_from(body_matches_per_round.len() - 1).unwrap_or(u32::MAX);
    let derived = current.len() - inst.len();
    SaturationResult { instance: current, rounds, derived, body_matches_per_round }
}

/// Saturates `inst` under the *datalog rules* of `theory` (existential
/// TGDs are ignored), using semi-naive evaluation. Always terminates.
///
/// This is the reference evaluator, kept small rather than fast; the
/// restricted [`crate::chase`] of the datalog rules reaches the same
/// instance through the join kernel and is the fast path.
pub fn saturate_datalog(inst: &Instance, theory: &Theory) -> SaturationResult {
    saturate_impl(inst, theory, &NULL)
}

/// Like [`saturate_datalog`], but reports one `saturate`/`round` event
/// per round into `sink` (fields: round, body_matches, derived,
/// facts_total; gauges: wall_ns, threads). The final, empty round that
/// certifies the fixpoint also emits an event, aligning the event count
/// with `body_matches_per_round`.
pub fn saturate_datalog_with<S: EventSink>(
    inst: &Instance,
    theory: &Theory,
    sink: &S,
) -> SaturationResult {
    saturate_impl(inst, theory, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::satisfaction::satisfies_theory;
    use bddfc_core::{parse_program, Rule};

    #[test]
    fn transitive_closure_of_chain() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a1,a2). E(a2,a3). E(a3,a4). E(a4,a5).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        // TC of a 4-edge chain has C(5,2) = 10 pairs.
        assert_eq!(res.instance.len(), 10);
        assert_eq!(res.derived, 6);
        assert!(satisfies_theory(&res.instance, &prog.theory));
    }

    #[test]
    fn tgds_are_ignored() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        assert_eq!(res.instance.len(), 3); // only E(a,c) added
        assert_eq!(res.instance.domain_size(), 3); // no new elements ever
    }

    #[test]
    fn semi_naive_matches_naive_on_cycle() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(c,a).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        // TC of a 3-cycle is the full relation on 3 elements: 9 facts.
        assert_eq!(res.instance.len(), 9);
    }

    #[test]
    fn rounds_are_logarithmic_for_chain() {
        // Semi-naive TC derives paths of length ≤ 2^k after k rounds... at
        // least 2 rounds are needed for a chain of 4 edges and derivations
        // stop when no new facts appear.
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a1,a2). E(a2,a3). E(a3,a4). E(a4,a5).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        assert!(res.rounds >= 2 && res.rounds <= 3, "rounds = {}", res.rounds);
    }

    #[test]
    fn multiple_rules_interleave() {
        // Example 7's datalog rule plus a unary marker rule.
        let prog = parse_program(
            "E(X,Y), E(X2,Y) -> R(X,X2).
             R(X,X) -> Loop(X).
             E(a,c). E(b,c).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        let r = prog.voc.find_pred("R").unwrap();
        let l = prog.voc.find_pred("Loop").unwrap();
        assert_eq!(res.instance.facts_with_pred(r).len(), 4); // aa, ab, ba, bb
        assert_eq!(res.instance.facts_with_pred(l).len(), 2); // a, b
    }

    #[test]
    fn constants_in_rule_bodies() {
        let prog = parse_program(
            "E(a,Y) -> Marked(Y).
             E(a,b). E(b,c).",
        )
        .unwrap();
        let res = saturate_datalog(&prog.instance, &prog.theory);
        let m = prog.voc.find_pred("Marked").unwrap();
        assert_eq!(res.instance.facts_with_pred(m).len(), 1);
    }

    #[test]
    fn empty_theory_is_noop() {
        let prog = parse_program("E(a,b).").unwrap();
        let res = saturate_datalog(&prog.instance, &Default::default());
        assert_eq!(res.instance.len(), 1);
        assert_eq!(res.rounds, 0);
    }

    #[test]
    fn sink_counters_mirror_saturation_result() {
        use bddfc_core::obs::Memory;
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a1,a2). E(a2,a3). E(a3,a4). E(a4,a5).",
        )
        .unwrap();
        let sink = Memory::new(64);
        let res = saturate_datalog_with(&prog.instance, &prog.theory, &sink);
        assert_eq!(res.instance, saturate_datalog(&prog.instance, &prog.theory).instance);
        assert_eq!(sink.counter("saturate", "round", "derived"), res.derived as u64);
        assert_eq!(
            sink.counter("saturate", "round", "body_matches"),
            res.total_body_matches()
        );
        let round_events = sink
            .event_counts()
            .into_iter()
            .find(|&((e, n), _)| (e, n) == ("saturate", "round"))
            .map(|(_, c)| c);
        assert_eq!(round_events, Some(res.body_matches_per_round.len() as u64));
        // One run span + one span per round, all closed.
        let spans = sink.spans();
        assert_eq!(spans.len(), 1 + res.body_matches_per_round.len());
        assert_eq!((spans[0].engine, spans[0].name), ("saturate", "run"));
        assert!(spans.iter().all(|s| s.is_closed()));
        assert!(spans[1..].iter().all(|s| s.parent == spans[0].id));
    }

    #[test]
    fn reference_agrees_with_the_chase() {
        let edges: String = (1..=40).map(|i| format!("E(a{i},a{}). ", i + 1)).collect();
        let prog = parse_program(&format!("E(X,Y), E(Y,Z) -> E(X,Z). {edges}")).unwrap();
        let sat = saturate_datalog(&prog.instance, &prog.theory);
        let res = crate::chase(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            crate::ChaseConfig::default(),
        );
        assert!(res.is_fixpoint());
        assert_eq!(sat.instance, res.instance);
        assert_eq!(sat.derived, 40 * 41 / 2 - 40);
    }

    #[test]
    fn body_less_rules_fire_once_like_the_chase() {
        let mut voc = bddfc_core::Vocabulary::new();
        let p = voc.pred("P", 1);
        let a = voc.constant("a");
        let theory = Theory::new(vec![Rule::new(
            vec![],
            vec![Atom::new(p, vec![Term::Const(a)])],
        )]);
        let db = Instance::new();
        let sat = saturate_datalog(&db, &theory);
        let res = crate::chase(&db, &theory, &mut voc, crate::ChaseConfig::default());
        assert!(res.is_fixpoint());
        assert_eq!(sat.instance, res.instance);
        assert_eq!(sat.derived, 1);
        assert_eq!(sat.rounds, 1);
        assert_eq!(sat.body_matches_per_round, vec![1, 0]);
    }
}
