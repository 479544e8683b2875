//! Chase-based certain answers and empirical derivation-depth probing.
//!
//! `D, T ⊨ Φ` iff `Chase(D,T) ⊨ Φ` (Section 1.1). Since the chase may be
//! infinite, the decision procedure here is a *semi*-decision sound in both
//! directions when it answers, and `Unknown` when the budget runs out:
//!
//! * if the query becomes true in some `Chaseᵏ` prefix — certainly true
//!   (the chase is monotone);
//! * if the chase reaches a fixpoint without the query — certainly false;
//! * otherwise — unknown.
//!
//! The rounds run under `ChaseStepper::run`, the budget policy every
//! chase entry point shares; the query check is its per-round hook, so a
//! query witnessed on the round the fact cap trips still reads as true.

use crate::engine::{chase, ChaseConfig, ChaseStatus, ChaseStepper, ChaseVariant};
use bddfc_core::obs::{EventSink, NULL};
use bddfc_core::{hom, ConjunctiveQuery, Instance, Theory, Ucq, Vocabulary};
use std::ops::ControlFlow;

/// Outcome of a budgeted certain-answer computation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Certainty {
    /// The query is certainly entailed: `Chaseᵏ(D,T) ⊨ Φ` for the reported
    /// depth `k` — the minimal prefix depth at which it became true.
    True(u32),
    /// The chase terminated without satisfying the query.
    False,
    /// Budget exhausted before either could be concluded.
    Unknown,
}

impl Certainty {
    /// Is the entailment settled (not [`Certainty::Unknown`])?
    pub fn is_decided(self) -> bool {
        !matches!(self, Certainty::Unknown)
    }

    /// `true` iff certainly entailed.
    pub fn is_true(self) -> bool {
        matches!(self, Certainty::True(_))
    }
}

/// Which budget a [`Certainty::Unknown`] ran out of. A caller picking a
/// retry policy needs the distinction: a round-budget stop retries with
/// more rounds, a fact-budget stop means the instance itself outgrew the
/// cap and more rounds alone will not help.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetExhausted {
    /// `max_rounds` rounds ran without fixpoint or a witness.
    Rounds,
    /// The instance outgrew `max_facts` before either conclusion.
    Facts,
}

impl BudgetExhausted {
    /// The budget a run that stopped with `status` exhausted (`None` at a
    /// fixpoint).
    pub(crate) fn of(status: ChaseStatus) -> Option<Self> {
        match status {
            ChaseStatus::Fixpoint => None,
            ChaseStatus::RoundBudget => Some(BudgetExhausted::Rounds),
            ChaseStatus::FactBudget => Some(BudgetExhausted::Facts),
        }
    }
}

/// A [`Certainty`] plus *why* an undecided run stopped — kept separate
/// from the `Certainty` enum itself so existing exhaustive matches keep
/// compiling.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CertainOutcome {
    /// The verdict (what [`certain_ucq`] returns).
    pub certainty: Certainty,
    /// `Some` iff the verdict is [`Certainty::Unknown`]: the budget that
    /// stopped the run.
    pub exhausted: Option<BudgetExhausted>,
    /// Chase rounds actually executed, counting the empty round that
    /// certifies a fixpoint (0 when the query already holds in the
    /// database or `max_rounds == 0`).
    pub rounds_run: u32,
}

/// Decides `D, T ⊨ Φ` by chasing within the budget, checking the query
/// after every round. Returns the minimal witnessing depth when true —
/// the empirical counterpart of the constant `k_Ψ` in the standard BDD
/// definition (Section 1.1).
pub fn certain_cq(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    query: &ConjunctiveQuery,
    config: ChaseConfig,
) -> Certainty {
    certain_ucq(db, theory, voc, &Ucq::single(query.clone()), config)
}

/// UCQ version of [`certain_cq`].
pub fn certain_ucq(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    query: &Ucq,
    config: ChaseConfig,
) -> Certainty {
    certain_ucq_outcome(db, theory, voc, query, config).certainty
}

/// Like [`certain_ucq`], but reports the full [`CertainOutcome`] —
/// including *which* budget an undecided run exhausted.
pub fn certain_ucq_outcome(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    query: &Ucq,
    config: ChaseConfig,
) -> CertainOutcome {
    certain_ucq_outcome_with(db, theory, voc, query, config, &NULL)
}

/// The instrumented entry point behind every `certain_*` function: the
/// full [`CertainOutcome`] with per-round telemetry into `sink`
/// (`chase`/`round` events) — this is where a budgeted
/// [`Certainty::Unknown`] shows *where* the work went.
pub fn certain_ucq_outcome_with<S: EventSink>(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    query: &Ucq,
    config: ChaseConfig,
    sink: &S,
) -> CertainOutcome {
    if hom::satisfies_ucq(db, query) {
        return CertainOutcome { certainty: Certainty::True(0), exhausted: None, rounds_run: 0 };
    }
    let run_span = if S::ENABLED { sink.span_open("chase", "run", 0, None) } else { 0 };
    let mut stepper =
        ChaseStepper::with_sink(db, theory, config.variant, config.strategy, sink)
            .under_span(run_span);
    let (stop, rounds_run) = stepper.run(voc, config.max_rounds, config.max_facts, None, |inst| {
        if hom::satisfies_ucq(inst, query) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    if S::ENABLED {
        sink.span_close(run_span);
    }
    let (certainty, exhausted) = match stop {
        None => (Certainty::True(rounds_run), None),
        Some(ChaseStatus::Fixpoint) => (Certainty::False, None),
        Some(status) => (Certainty::Unknown, BudgetExhausted::of(status)),
    };
    CertainOutcome { certainty, exhausted, rounds_run }
}

/// Empirically probes the derivation depth of a query over a family of
/// instances: the maximum, over the instances, of the minimal `k` with
/// `Chaseᵏ(D,T) ⊨ Φ` (instances not entailing Φ are skipped). A theory is
/// BDD iff this is bounded over *all* instances; the probe gives a lower
/// bound on `k_Φ` and is used by tests and benchmarks.
pub fn probe_depth(
    instances: &[Instance],
    theory: &Theory,
    voc: &mut Vocabulary,
    query: &ConjunctiveQuery,
    config: ChaseConfig,
) -> Option<u32> {
    let mut max = None;
    for db in instances {
        if let Certainty::True(k) = certain_cq(db, theory, voc, query, config) {
            max = Some(max.map_or(k, |m: u32| m.max(k)));
        }
    }
    max
}

/// Compares restricted and oblivious chase sizes on the same input — the
/// contrast drawn in Section 1.1 ("as opposed to the blind Chase").
pub fn chase_size_comparison(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    config: ChaseConfig,
) -> (usize, usize) {
    let restricted = chase(
        db,
        theory,
        &mut voc.clone(),
        ChaseConfig { variant: ChaseVariant::Restricted, ..config },
    );
    let oblivious = chase(
        db,
        theory,
        voc,
        ChaseConfig { variant: ChaseVariant::Oblivious, ..config },
    );
    (restricted.instance.len(), oblivious.instance.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::parse_program;

    #[test]
    fn entailed_query_found_at_right_depth() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).
             ?- E(X1,X2), E(X2,X3), E(X3,X4).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let c = certain_cq(
            &prog.instance,
            &prog.theory,
            &mut voc,
            &prog.queries[0],
            ChaseConfig::default(),
        );
        // Path of 3 edges needs 2 chase rounds beyond E(a,b).
        assert_eq!(c, Certainty::True(2));
    }

    #[test]
    fn non_entailed_query_on_terminating_chase() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,a).
             ?- E(X,Y), E(Y,X), E(X,X), E(Y,Y), U(X).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let c = certain_cq(
            &prog.instance,
            &prog.theory,
            &mut voc,
            &prog.queries[0],
            ChaseConfig::default(),
        );
        assert_eq!(c, Certainty::False);
    }

    #[test]
    fn diverging_chase_with_never_true_query_is_unknown() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).
             ?- E(X,X).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let c = certain_cq(
            &prog.instance,
            &prog.theory,
            &mut voc,
            &prog.queries[0],
            ChaseConfig::rounds(20),
        );
        assert_eq!(c, Certainty::Unknown);
    }

    #[test]
    fn query_true_in_db_is_depth_zero() {
        let prog = parse_program("E(a,b). ?- E(X,Y).").unwrap();
        let mut voc = prog.voc.clone();
        let c = certain_cq(
            &prog.instance,
            &Default::default(),
            &mut voc,
            &prog.queries[0],
            ChaseConfig::default(),
        );
        assert_eq!(c, Certainty::True(0));
    }

    #[test]
    fn fixpoint_on_exactly_the_last_allowed_round_is_decided() {
        // TC of a 2-edge path: round 1 derives E(a,c), round 2 is empty.
        // With max_rounds == 2 the empty round lands exactly on the
        // budget boundary and must still read as a decided False.
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c).
             ?- E(X,X).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let out = certain_ucq_outcome(
            &prog.instance,
            &prog.theory,
            &mut voc,
            &Ucq::single(prog.queries[0].clone()),
            ChaseConfig::rounds(2),
        );
        assert_eq!(out.certainty, Certainty::False);
        assert_eq!(out.exhausted, None);
        assert_eq!(out.rounds_run, 2);
        // One round fewer and the same program is honestly unknown, and
        // the reason is the round budget.
        let out = certain_ucq_outcome(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            &Ucq::single(prog.queries[0].clone()),
            ChaseConfig::rounds(1),
        );
        assert_eq!(out.certainty, Certainty::Unknown);
        assert_eq!(out.exhausted, Some(BudgetExhausted::Rounds));
        assert_eq!(out.rounds_run, 1);
    }

    #[test]
    fn query_satisfied_on_the_round_the_fact_cap_trips_is_true() {
        // Round 1 grows the instance past max_facts *and* satisfies the
        // query; satisfaction is checked first, so the verdict is True —
        // a certain answer never retracts to Unknown over a budget.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).
             ?- E(X1,X2), E(X2,X3).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let out = certain_ucq_outcome(
            &prog.instance,
            &prog.theory,
            &mut voc,
            &Ucq::single(prog.queries[0].clone()),
            ChaseConfig { max_rounds: 8, max_facts: 1, ..ChaseConfig::default() },
        );
        assert_eq!(out.certainty, Certainty::True(1));
        assert_eq!(out.exhausted, None);
    }

    #[test]
    fn fact_budget_and_round_budget_are_distinguished() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).
             ?- E(X,X).",
        )
        .unwrap();
        let q = Ucq::single(prog.queries[0].clone());
        let rounds = certain_ucq_outcome(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            &q,
            ChaseConfig { max_rounds: 3, max_facts: 1_000_000, ..ChaseConfig::default() },
        );
        assert_eq!(rounds.certainty, Certainty::Unknown);
        assert_eq!(rounds.exhausted, Some(BudgetExhausted::Rounds));
        let facts = certain_ucq_outcome(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            &q,
            ChaseConfig { max_rounds: 1_000, max_facts: 2, ..ChaseConfig::default() },
        );
        assert_eq!(facts.certainty, Certainty::Unknown);
        assert_eq!(facts.exhausted, Some(BudgetExhausted::Facts));
        assert!(facts.rounds_run < 1_000, "fact cap must stop the run early");
    }

    #[test]
    fn zero_round_budget_is_unknown_unless_the_db_already_witnesses() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).
             ?- E(X,X).",
        )
        .unwrap();
        let out = certain_ucq_outcome(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            &Ucq::single(prog.queries[0].clone()),
            ChaseConfig::rounds(0),
        );
        assert_eq!(out.certainty, Certainty::Unknown);
        assert_eq!(out.exhausted, Some(BudgetExhausted::Rounds));
        assert_eq!(out.rounds_run, 0);
        // A db-level witness short-circuits even at zero rounds.
        let hit = parse_program("E(a,a). ?- E(X,X).").unwrap();
        let out = certain_ucq_outcome(
            &hit.instance,
            &Default::default(),
            &mut hit.voc.clone(),
            &Ucq::single(hit.queries[0].clone()),
            ChaseConfig::rounds(0),
        );
        assert_eq!(out.certainty, Certainty::True(0));
        assert_eq!(out.exhausted, None);
        assert_eq!(out.rounds_run, 0);
    }

    #[test]
    fn probe_depth_takes_max_over_instances() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             ?- E(X1,X2), E(X2,X3), E(X3,X4).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let d1 = bddfc_core::parse_into("E(a,b).", &mut voc).unwrap().1;
        let d2 = bddfc_core::parse_into("E(a,b). E(b,c). E(c,d).", &mut voc).unwrap().1;
        let depth = probe_depth(
            &[d1, d2],
            &prog.theory,
            &mut voc,
            &prog.queries[0],
            ChaseConfig::default(),
        );
        assert_eq!(depth, Some(2)); // max(2, 0)
    }

    #[test]
    fn restricted_never_larger_than_oblivious() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b). E(b,c). E(c,a).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let (r, o) = chase_size_comparison(
            &prog.instance,
            &prog.theory,
            &mut voc,
            ChaseConfig::rounds(6),
        );
        assert_eq!(r, 3); // cycle: every element has a successor
        assert!(o > r); // oblivious invents witnesses anyway
    }
}
