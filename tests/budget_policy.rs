//! One stop policy for every budgeted chase loop: the from-scratch chase,
//! incremental maintenance, certain answers and the traced chase must
//! stop for the same reason, after the same steps, on the same instance.
//!
//! The policy: check the round budget before each step; an empty step is
//! a fixpoint; after a non-empty step, the caller's own check runs, then
//! the fact cap. The counts differ only in whether the empty step that
//! certifies a fixpoint is counted: `ChaseResult::rounds` and
//! `TracedChase::rounds` count rounds that added facts,
//! `CertainOutcome::rounds_run` and `MaintainOutcome::rounds` count every
//! step.

use bddfc::chase::{
    certain_ucq_outcome, chase_with, traced_chase, BudgetExhausted, Certainty, ChaseConfig,
    ChaseStatus, IncrementalChase, MaintainConfig,
};
use bddfc::core::obs::NULL;
use bddfc::core::{Atom, ConjunctiveQuery, Program, Term, Ucq};
use bddfc_fuzz::gen::random_program;

/// Every ready-made paper program from the zoo.
fn zoo_programs() -> Vec<(String, Program)> {
    vec![
        ("example1", bddfc::zoo::example1()),
        ("example1_m_prime", bddfc::zoo::example1_m_prime()),
        ("chain_theory", bddfc::zoo::chain_theory()),
        ("remark3", bddfc::zoo::remark3()),
        ("total_order_4", bddfc::zoo::total_order(4)),
        ("example7", bddfc::zoo::example7()),
        ("example9", bddfc::zoo::example9()),
        ("section54", bddfc::zoo::section54()),
        ("notorious", bddfc::zoo::notorious()),
        ("order_theory", bddfc::zoo::order_theory()),
        ("linear_ontology", bddfc::zoo::linear_ontology()),
        ("guarded_example", bddfc::zoo::guarded_example()),
        ("sticky_example", bddfc::zoo::sticky_example()),
    ]
    .into_iter()
    .map(|(name, prog)| (name.to_string(), prog))
    .collect()
}

const ROUND_BUDGETS: [u32; 5] = [0, 1, 2, 3, 64];

/// The loose fact cap. Only the fast-growing programs reach it, which is
/// where the fact-cap stop meets a 64-round budget; the 1,000,000 default
/// would make example9 chase about a million facts per driver.
const LARGE_CAP: usize = 4_000;

/// Runs all four drivers of `prog` under one budget and asserts they
/// agree; the vocabulary's constant count pins the fresh nulls each one
/// invented. Returns the status the from-scratch chase stopped with.
fn assert_drivers_agree(
    name: &str,
    prog: &Program,
    max_rounds: u32,
    max_facts: usize,
) -> ChaseStatus {
    let ctx = format!("{name} max_rounds={max_rounds} max_facts={max_facts}");
    let (db, theory) = (&prog.instance, &prog.theory);
    // A query over a predicate the program never mentions: it never
    // holds, so certain answers run the chase to the same stop.
    let mut voc = prog.voc.clone();
    let absent = voc.pred("BudgetPolicyAbsent", 1);
    let x = Term::Var(voc.var("X"));
    let query = Ucq::single(ConjunctiveQuery::boolean(vec![Atom::new(absent, vec![x])]));
    let config = ChaseConfig { max_rounds, max_facts, ..ChaseConfig::default() };

    let mut voc_chase = voc.clone();
    let chased = chase_with(db, theory, &mut voc_chase, config, &NULL);
    let fixpoint = chased.is_fixpoint();
    let exhausted = match chased.status {
        ChaseStatus::Fixpoint => None,
        ChaseStatus::RoundBudget => Some(BudgetExhausted::Rounds),
        ChaseStatus::FactBudget => Some(BudgetExhausted::Facts),
    };
    let steps = chased.rounds + u32::from(fixpoint);
    let (facts, constants) = (chased.instance.facts(), voc_chase.const_count());

    let mut voc_inc = voc.clone();
    let mut inc = IncrementalChase::new(theory);
    let out = inc.insert(db.facts(), &mut voc_inc, MaintainConfig { max_rounds, max_facts });
    assert_eq!(
        (out.complete, out.exhausted, out.rounds, inc.instance().facts(), voc_inc.const_count()),
        (fixpoint, exhausted, steps, facts, constants),
        "{ctx}: incremental maintenance"
    );

    let mut voc_ans = voc.clone();
    let ans = certain_ucq_outcome(db, theory, &mut voc_ans, &query, config);
    let certainty = if fixpoint { Certainty::False } else { Certainty::Unknown };
    assert_eq!(
        (ans.certainty, ans.exhausted, ans.rounds_run, voc_ans.const_count()),
        (certainty, exhausted, steps, constants),
        "{ctx}: certain answers"
    );

    // `traced_chase` takes no fact cap: a run the cap did not stop is the
    // same run without it.
    if chased.status != ChaseStatus::FactBudget {
        let mut voc_traced = voc.clone();
        let traced = traced_chase(db, theory, &mut voc_traced, max_rounds);
        assert_eq!(
            (traced.fixpoint, traced.rounds, traced.instance.facts(), voc_traced.const_count()),
            (fixpoint, chased.rounds, facts, constants),
            "{ctx}: traced chase"
        );
    }
    chased.status
}

/// Zoo programs plus `random_program(0..40)`, without the programs a
/// resumed stepper treats differently: body-less rules fire only on a
/// from-scratch opening round, and an empty database leaves incremental
/// maintenance nothing to close.
fn programs() -> Vec<(String, Program)> {
    let mut all = zoo_programs();
    all.extend((0..40).map(|seed| (format!("random_program({seed})"), random_program(seed))));
    all.retain(|(_, prog)| {
        prog.theory.rules.iter().all(|r| !r.body.is_empty()) && !prog.instance.is_empty()
    });
    all
}

#[test]
fn every_budgeted_driver_stops_alike() {
    let programs = programs();
    assert!(programs.len() >= 40, "the filter must keep most programs, kept {}", programs.len());
    let mut seen = [false; 3];
    for (name, prog) in &programs {
        let small_cap = prog.instance.len() + 5;
        for max_rounds in ROUND_BUDGETS {
            for max_facts in [small_cap, LARGE_CAP] {
                let status = assert_drivers_agree(name, prog, max_rounds, max_facts);
                seen[status as usize] = true;
            }
        }
    }
    assert_eq!(seen, [true; 3], "the cases must reach every stop reason");
}
