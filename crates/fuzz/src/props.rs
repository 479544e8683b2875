//! The differential property registry: every cross-engine invariant the
//! repository pins, as named, Result-returning checks over one parsed
//! program.
//!
//! Each [`Prop`] is a pure function of the case (plus the explicit
//! [`PropCtx`] budgets), so a failure replays from its seed alone. The
//! registry consolidates the oracle pairs that used to live scattered
//! across `tests/{differential,lint,determinism}.rs`:
//!
//! | property | engine pair |
//! |---|---|
//! | `chase_strategy_agreement` | naive vs semi-naive chase, both variants, roundwise + full-run |
//! | `chase_restricted_embeds` | restricted chase embeds homomorphically into oblivious |
//! | `chase_certainty_strategy_blind` | `certain_ucq` verdicts + depth `k` across strategies |
//! | `chase_thread_invariance` | chase outputs + obs counters at `BDDFC_THREADS` ∈ {1,2,7} |
//! | `join_kernel_vs_hom` | join-kernel matches vs `hom` bindings per rule body (unpinned, pinned tails, semi-naive old/delta/full items at a split; full rows and frontier projections), plus `hom` model check of the chase fixpoint |
//! | `classes_witness_oracle` | witness-producing recognizers vs legacy boolean oracles |
//! | `rewrite_vs_chase` | UCQ-rewriting certain answers vs chase certain answers |
//! | `lint_stability` | linting is deterministic and panic-free |
//! | `serve_vs_scratch_chase` | bddfc-serve incremental sessions vs from-scratch chase of the folded base |
//! | `static_bound_vs_observed_rounds` | bddfc-analyze termination certificates vs the real chase |
//! | `dred_seeded_vs_full` | DRed's seeded re-derivation round vs a full round over the survivors |
//! | `chase_vs_datalog_reference` | restricted chase fixpoint of the datalog rules vs the `hom`-only `saturate_datalog` |
//!
//! [`Mutation`] deliberately breaks one engine side — the seeded
//! known-bad mutations behind `bddfc-fuzz --mutate` that prove the
//! harness catches and shrinks real discrepancies.

use crate::gen::FuzzCase;
use crate::proptest_lite::{ensure, ensure_eq, PropResult};
use bddfc_analyze::{analyze as static_analyze, domain::DomainAnalysis};
use bddfc_chase::{
    certain_ucq, certain_ucq_outcome, chase, chase_with, saturate_datalog, BudgetExhausted,
    Certainty, ChaseConfig, ChaseStatus, ChaseStepper, ChaseStrategy, ChaseVariant, Derivation,
    IncrementalChase, MaintainConfig, MaintainOutcome,
};
use bddfc_classes::{
    guard_violations, is_guarded, is_sticky, is_theorem3_fragment, is_weakly_acyclic,
    sticky_violations, theorem3_violations, weak_acyclicity_violation,
};
use bddfc_core::fxhash::{FxHashMap, FxHashSet};
use bddfc_core::obs::{Memory, NULL};
use bddfc_core::prng::SplitMix64;
use bddfc_core::satisfaction::satisfies_theory;
use bddfc_core::{
    hom, join, par, Atom, Binding, ConjunctiveQuery, ConstId, Fact, Instance, PredId, Program,
    Term, Theory, Ucq, VarId, Vocabulary,
};
use bddfc_lint::lint_source;
use bddfc_rewrite::{certainly_entailed_rewriting, RewriteConfig};
use bddfc_serve::{transcript as serve_transcript, ServeConfig, Server};
use std::ops::{ControlFlow, Range};

/// A deliberate, deterministic engine defect, injected on the
/// *secondary* side of a differential pair (`bddfc-fuzz --mutate`).
/// [`Mutation::None`] is the production configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Healthy engines.
    #[default]
    None,
    /// The secondary engine silently forgets the last rule of the theory
    /// (models a lost delta batch).
    SkipLastRule,
    /// The secondary engine reorders the first two body atoms of every
    /// multi-atom rule (perturbs the canonical repair order, so fresh
    /// null names drift).
    SwapBodyAtoms,
}

impl Mutation {
    /// Parses a `--mutate` argument.
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "skip-last-rule" => Some(Mutation::SkipLastRule),
            "swap-body-atoms" => Some(Mutation::SwapBodyAtoms),
            _ => None,
        }
    }

    /// Stable name (inverse of [`Mutation::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipLastRule => "skip-last-rule",
            Mutation::SwapBodyAtoms => "swap-body-atoms",
        }
    }

    /// The mutated theory the secondary engine side runs with.
    pub fn apply(self, theory: &Theory) -> Theory {
        match self {
            Mutation::None => theory.clone(),
            Mutation::SkipLastRule => {
                let mut rules = theory.rules.clone();
                rules.pop();
                Theory::new(rules)
            }
            Mutation::SwapBodyAtoms => {
                let rules = theory
                    .rules
                    .iter()
                    .map(|r| {
                        let mut body = r.body.clone();
                        if body.len() >= 2 {
                            body.swap(0, 1);
                        }
                        bddfc_core::Rule::new(body, r.head.clone())
                    })
                    .collect();
                Theory::new(rules)
            }
        }
    }
}

/// Budgets and mutation configuration shared by every property check.
#[derive(Clone, Copy, Debug)]
pub struct PropCtx {
    /// Round cap for chase comparisons.
    pub max_rounds: u32,
    /// Fact cap for chase comparisons.
    pub max_facts: usize,
    /// Injected engine defect ([`Mutation::None`] in production).
    pub mutation: Mutation,
}

impl Default for PropCtx {
    fn default() -> Self {
        PropCtx { max_rounds: 5, max_facts: 4_000, mutation: Mutation::None }
    }
}

/// One registered differential property.
pub struct Prop {
    /// Stable CLI-addressable name (`bddfc-fuzz --prop <name>`).
    pub name: &'static str,
    /// One-line description for `--list-props`.
    pub describe: &'static str,
    /// The check itself. `Err` is a finding; panics inside are caught by
    /// the runner and reported the same way.
    pub check: fn(&FuzzCase, &Program, &PropCtx) -> PropResult,
}

/// The registry, in fixed execution order.
pub static PROPS: &[Prop] = &[
    Prop {
        name: "chase_strategy_agreement",
        describe: "naive and semi-naive chase agree round-by-round and end-to-end",
        check: chase_strategy_agreement,
    },
    Prop {
        name: "chase_restricted_embeds",
        describe: "the restricted chase result embeds homomorphically into the oblivious one",
        check: chase_restricted_embeds,
    },
    Prop {
        name: "chase_certainty_strategy_blind",
        describe: "certain-answer verdicts and depth k are identical across chase strategies",
        check: chase_certainty_strategy_blind,
    },
    Prop {
        name: "chase_thread_invariance",
        describe: "chase outputs and obs counters are byte-identical at 1/2/7 threads",
        check: chase_thread_invariance,
    },
    Prop {
        name: "join_kernel_vs_hom",
        describe: "join-kernel body rows equal hom bindings, unpinned and pinned to delta tails",
        check: join_kernel_vs_hom,
    },
    Prop {
        name: "classes_witness_oracle",
        describe: "witness-producing class recognizers agree with the boolean oracles",
        check: classes_witness_oracle,
    },
    Prop {
        name: "rewrite_vs_chase",
        describe: "UCQ-rewriting certain answers agree with chase certain answers",
        check: rewrite_vs_chase,
    },
    Prop {
        name: "lint_stability",
        describe: "linting is deterministic (identical reports on identical input)",
        check: lint_stability,
    },
    Prop {
        name: "serve_vs_scratch_chase",
        describe: "bddfc-serve sessions agree with a from-scratch chase and are thread-invariant",
        check: serve_vs_scratch_chase,
    },
    Prop {
        name: "static_bound_vs_observed_rounds",
        describe: "bddfc-analyze termination certificates dominate the observed chase",
        check: static_bound_vs_observed_rounds,
    },
    Prop {
        name: "dred_seeded_vs_full",
        describe: "retraction's seeded re-derivation matches a full re-derivation round",
        check: dred_seeded_vs_full,
    },
    Prop {
        name: "chase_vs_datalog_reference",
        describe: "a chase fixpoint of the datalog rules equals the hom-only saturate_datalog",
        check: chase_vs_datalog_reference,
    },
];

/// Looks a property up by its stable name.
pub fn find_prop(name: &str) -> Option<&'static Prop> {
    PROPS.iter().find(|p| p.name == name)
}

/// Runs `f` at `threads` threads with `par`'s small-region cutoff off, so
/// the thread-invariance checks shard even a fuzz case's small regions
/// instead of passing on the sequential path.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    par::with_thread_count(threads, || par::with_min_work(0, f))
}

fn chase_config(ctx: &PropCtx, variant: ChaseVariant, strategy: ChaseStrategy) -> ChaseConfig {
    ChaseConfig {
        max_rounds: ctx.max_rounds,
        max_facts: ctx.max_facts,
        variant,
        strategy,
    }
}

/// Compact instance comparison: equality or a bounded message naming one
/// differing fact (full instances can be thousands of facts — the
/// shrinker, not the message, is the readable artifact).
fn ensure_same_instance(a: &Instance, b: &Instance, voc: &Vocabulary, what: &str) -> PropResult {
    if a == b {
        return Ok(());
    }
    let missing = a
        .facts()
        .iter()
        .find(|f| !b.contains(f))
        .or_else(|| b.facts().iter().find(|f| !a.contains(f)));
    Err(format!(
        "{what}: instances differ ({} vs {} facts; e.g. {})",
        a.len(),
        b.len(),
        missing.map_or_else(|| "same fact set?".into(), |f| f.display(voc).to_string()),
    ))
}

/// `chase_strategy_agreement`: naive vs semi-naive, both variants,
/// stepped round-by-round (same new facts in the same order, hence the
/// same fresh-null names) and through the public `chase` entry point.
/// The mutation runs on the semi-naive side.
fn chase_strategy_agreement(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
        let mut voc_n = prog.voc.clone();
        let mut voc_s = prog.voc.clone();
        let mut naive =
            ChaseStepper::new(&prog.instance, &prog.theory, variant, ChaseStrategy::Naive);
        let mut semi =
            ChaseStepper::new(&prog.instance, &mutated, variant, ChaseStrategy::SemiNaive);
        for round in 1..=ctx.max_rounds {
            let new_n = naive.step(&mut voc_n);
            let new_s = semi.step(&mut voc_s);
            if new_n != new_s {
                return Err(format!(
                    "{variant:?}: round {round} facts differ (naive {} vs semi-naive {})",
                    new_n.len(),
                    new_s.len()
                ));
            }
            ensure_same_instance(
                &naive.instance,
                &semi.instance,
                &voc_n,
                &format!("{variant:?}: round {round}"),
            )?;
            if new_n.is_empty() || naive.instance.len() > ctx.max_facts {
                break;
            }
        }

        let res_n = chase(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            chase_config(ctx, variant, ChaseStrategy::Naive),
        );
        let res_s = chase(
            &prog.instance,
            &mutated,
            &mut prog.voc.clone(),
            chase_config(ctx, variant, ChaseStrategy::SemiNaive),
        );
        ensure_same_instance(&res_n.instance, &res_s.instance, &prog.voc, &format!("{variant:?}: full run"))?;
        ensure_eq(res_n.depth_map(), res_s.depth_map(), &format!("{variant:?}: depth map"))?;
        ensure_eq(res_n.rounds, res_s.rounds, &format!("{variant:?}: rounds"))?;
        ensure_eq(res_n.status, res_s.status, &format!("{variant:?}: status"))?;
    }
    Ok(())
}

/// `chase_restricted_embeds`: the restricted-chase result (nulls turned
/// into existential variables) maps homomorphically into the oblivious
/// result at the same budget. The mutation runs on the oblivious side.
fn chase_restricted_embeds(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    let mut voc_r = prog.voc.clone();
    let restricted = chase(
        &prog.instance,
        &prog.theory,
        &mut voc_r,
        chase_config(ctx, ChaseVariant::Restricted, ChaseStrategy::SemiNaive),
    );
    let oblivious = chase(
        &prog.instance,
        &mutated,
        &mut prog.voc.clone(),
        chase_config(ctx, ChaseVariant::Oblivious, ChaseStrategy::SemiNaive),
    );
    let mut null_var = FxHashMap::default();
    let mut atoms = Vec::new();
    for fact in restricted.instance.facts() {
        let args = fact
            .args
            .iter()
            .map(|&c| {
                if voc_r.is_null(c) {
                    Term::Var(*null_var.entry(c).or_insert_with(|| voc_r.fresh_var("h")))
                } else {
                    Term::Const(c)
                }
            })
            .collect();
        atoms.push(Atom::new(fact.pred, args));
    }
    ensure(
        hom::hom_exists(&oblivious.instance, &atoms, &Binding::default()),
        &format!(
            "restricted chase ({} facts) does not embed into oblivious chase ({} facts)",
            restricted.instance.len(),
            oblivious.instance.len()
        ),
    )
}

/// The queries a case is probed with: its own `?-` queries plus two-atom
/// join queries over the (at most three first) binary predicates it
/// mentions.
fn derived_queries(prog: &Program) -> (Vocabulary, Vec<Ucq>) {
    let mut voc = prog.voc.clone();
    let mut queries: Vec<Ucq> = prog.queries.iter().cloned().map(Ucq::single).collect();
    let mut binary: Vec<PredId> = voc
        .preds()
        .filter(|&(_, arity)| arity == 2)
        .map(|(p, _)| p)
        .collect();
    binary.truncate(3);
    for &p in &binary {
        for &q in &binary {
            let (x, y, z) = (voc.fresh_var("dx"), voc.fresh_var("dy"), voc.fresh_var("dz"));
            queries.push(Ucq::single(ConjunctiveQuery::boolean(vec![
                Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(q, vec![Term::Var(y), Term::Var(z)]),
            ])));
        }
    }
    (voc, queries)
}

/// `chase_certainty_strategy_blind`: the `Certainty` verdict — including
/// the witnessing depth `k` in `True(k)` — must not depend on the chase
/// strategy. The mutation runs on the semi-naive side.
fn chase_certainty_strategy_blind(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    let (voc, queries) = derived_queries(prog);
    for (qi, query) in queries.iter().enumerate() {
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let c_n = certain_ucq(
                &prog.instance,
                &prog.theory,
                &mut voc.clone(),
                query,
                chase_config(ctx, variant, ChaseStrategy::Naive),
            );
            let c_s = certain_ucq(
                &prog.instance,
                &mutated,
                &mut voc.clone(),
                query,
                chase_config(ctx, variant, ChaseStrategy::SemiNaive),
            );
            ensure_eq(
                c_n,
                c_s,
                &format!("{variant:?}: Certainty diverged between strategies on query #{qi}"),
            )?;
        }
    }
    Ok(())
}

/// `chase_thread_invariance`: the chase result *and* the aggregated obs
/// counters/event counts are identical at 1, 2 and 7 worker threads —
/// the executable form of the fields-vs-gauges contract. The mutation
/// runs at every thread count above 1.
fn chase_thread_invariance(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    let run = |threads: usize, theory: &Theory| {
        at_threads(threads, || {
            let sink = Memory::new(1 << 14);
            let res = chase_with(
                &prog.instance,
                theory,
                &mut prog.voc.clone(),
                chase_config(ctx, ChaseVariant::Restricted, ChaseStrategy::SemiNaive),
                &sink,
            );
            (res, sink.counters(), sink.event_counts())
        })
    };
    let base = run(1, &prog.theory);
    for threads in [2usize, 7] {
        let other = run(threads, &mutated);
        ensure_same_instance(
            &base.0.instance,
            &other.0.instance,
            &prog.voc,
            &format!("{threads} threads"),
        )?;
        ensure_eq(base.0.depth_map(), other.0.depth_map(), &format!("{threads} threads: depth map"))?;
        ensure_eq(base.0.rounds, other.0.rounds, &format!("{threads} threads: rounds"))?;
        ensure_eq(base.0.status, other.0.status, &format!("{threads} threads: status"))?;
        ensure_eq(base.1.clone(), other.1, &format!("{threads} threads: obs counters"))?;
        ensure_eq(base.2.clone(), other.2, &format!("{threads} threads: obs event counts"))?;
    }
    Ok(())
}

/// Most `hom` bindings `join_kernel_vs_hom` collects for one rule
/// body. A rule with more is skipped, with a line on stderr: one chase
/// round can overshoot `max_facts` by orders of magnitude, and the
/// bindings of a body over such an instance do not fit in memory.
const JOIN_ORACLE_CAP: usize = 1 << 16;

/// `join_kernel_vs_hom`: the join kernel agrees with the backtracking
/// `hom` search at the kernel seam. The case is chased once; on the
/// chased instance, for every rule body, the sorted multiset of
/// [`join::for_each_projection`] matches must equal
/// [`hom::for_each_hom`]'s bindings, both projected on the body
/// variables and on the rule's frontier — unpinned, and with each body
/// atom pinned to a seeded tail segment of its relation (the `hom` side
/// keeps the bindings whose grounded pinned atom lies in that segment).
/// Then, at a seeded split point of the instance, the semi-naive items
/// (pinned at atom `i`: atoms before `i` read the facts before the
/// split, atom `i` those after it, atoms after `i` everything) must
/// together yield exactly the `hom` bindings that use a fact after the
/// split, each once. When the chase reached a fixpoint, the result must
/// also satisfy the theory by `hom`-based model checking, which keeps an
/// end-to-end check that does not go through the kernel. The mutation
/// runs on the kernel side: both the chase and the kernel evaluations
/// use the mutated theory. A rule body with more than `JOIN_ORACLE_CAP`
/// bindings is skipped and reported on stderr.
fn join_kernel_vs_hom(case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    let cfg = chase_config(ctx, ChaseVariant::Restricted, ChaseStrategy::SemiNaive);
    let res = chase(&prog.instance, &mutated, &mut prog.voc.clone(), cfg);
    let inst = &res.instance;
    if res.status == ChaseStatus::Fixpoint {
        ensure(
            satisfies_theory(inst, &prog.theory),
            "chase fixpoint does not satisfy the theory (hom model check)",
        )?;
    }
    let store = inst.columnar();
    let mut rng = SplitMix64::new(case.seed);
    for (i, rule) in prog.theory.rules.iter().enumerate() {
        let mut vars: Vec<VarId> = rule.body_vars().into_iter().collect();
        vars.sort_unstable();
        let mut frontier: Vec<VarId> = rule.frontier().into_iter().collect();
        frontier.sort_unstable();
        let mut oracle: Vec<Vec<ConstId>> = Vec::new();
        let capped = hom::for_each_hom(inst, &rule.body, &Binding::default(), |b| {
            oracle.push(vars.iter().map(|v| b[v]).collect());
            if oracle.len() > JOIN_ORACLE_CAP {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break();
        if capped {
            eprintln!(
                "join_kernel_vs_hom: case {:#x} rule {i}: more than {JOIN_ORACLE_CAP} hom \
                 bindings, kernel comparison skipped",
                case.seed
            );
            continue;
        }
        oracle.sort_unstable();
        let ground = |row: &[ConstId], atom: &Atom| -> Fact {
            let args: Vec<ConstId> = atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => row[vars.binary_search(v).expect("body variable")],
                })
                .collect();
            Fact::new(atom.pred, args)
        };
        // Sorted oracle rows projected on the frontier.
        let on_frontier = |rows: &[Vec<ConstId>]| -> Vec<Vec<ConstId>> {
            let slots: Vec<usize> =
                frontier.iter().map(|v| vars.binary_search(v).expect("frontier var")).collect();
            let mut out: Vec<Vec<ConstId>> =
                rows.iter().map(|row| slots.iter().map(|&s| row[s]).collect()).collect();
            out.sort_unstable();
            out
        };
        // The kernel's sorted matches projected on `project`, atom `j`
        // reading rows `range(j)`. A rule the mutation dropped yields no
        // kernel rows at all.
        let kernel = |lead: Option<usize>,
                      range: &dyn Fn(usize) -> Range<usize>,
                      project: &[VarId]|
         -> Vec<Vec<ConstId>> {
            let Some(krule) = mutated.rules.get(i) else {
                return Vec::new();
            };
            let mut rows = Vec::new();
            join::for_each_projection(store, &krule.body, lead, range, project, None, None, |v| {
                rows.push(v.to_vec())
            });
            rows.sort_unstable();
            rows
        };
        let kbody = mutated.rules.get(i).map_or(&rule.body, |r| &r.body);
        let full = |j: usize| 0..store.rows(kbody[j].pred);
        ensure_eq(
            oracle.clone(),
            kernel(None, &full, &vars),
            &format!("rule {i}: unpinned kernel rows vs hom"),
        )?;
        ensure_eq(
            on_frontier(&oracle),
            kernel(None, &full, &frontier),
            &format!("rule {i}: unpinned kernel frontier projections vs hom"),
        )?;
        for (pin, atom) in rule.body.iter().enumerate() {
            let facts = inst.facts_with_pred(atom.pred);
            let start = rng.below(facts.len() + 1);
            let tail: FxHashSet<&Fact> = facts[start..].iter().map(|&f| inst.fact(f)).collect();
            let expect: Vec<Vec<ConstId>> =
                oracle.iter().filter(|row| tail.contains(&ground(row, atom))).cloned().collect();
            // The kernel pins its own atom at `pin` (a mutation may have
            // moved it), restricted to the same-length tail.
            let rows = store.rows(kbody[pin].pred);
            let seg = rows - (facts.len() - start).min(rows)..rows;
            let pinned = |j: usize| if j == pin { seg.clone() } else { full(j) };
            ensure_eq(
                on_frontier(&expect),
                kernel(Some(pin), &pinned, &frontier),
                &format!(
                    "rule {i}: kernel frontier projections with atom {pin} pinned to rows \
                     {start}.. vs hom"
                ),
            )?;
            ensure_eq(
                expect,
                kernel(Some(pin), &pinned, &vars),
                &format!("rule {i}: kernel rows with atom {pin} pinned to rows {start}.. vs hom"),
            )?;
        }
        // Semi-naive items at a split point of the instance: the rows of
        // each relation before the split are its old prefix.
        let split = rng.below(inst.len() + 1);
        let late: FxHashSet<&Fact> = inst.facts()[split..].iter().collect();
        let expect: Vec<Vec<ConstId>> = oracle
            .iter()
            .filter(|row| rule.body.iter().any(|atom| late.contains(&ground(row, atom))))
            .cloned()
            .collect();
        let old_end = |j: usize| {
            store
                .relation(kbody[j].pred)
                .map_or(0, |rel| rel.ids().partition_point(|&id| id < split))
        };
        let mut got: Vec<Vec<ConstId>> = Vec::new();
        for pin in 0..kbody.len() {
            let range = |j: usize| {
                join::seminaive_range(j, pin, old_end(j), store.rows(kbody[j].pred))
            };
            got.extend(kernel(Some(pin), &range, &vars));
        }
        got.sort_unstable();
        ensure_eq(
            expect,
            got,
            &format!(
                "rule {i}: semi-naive items at split {split} vs hom bindings touching the tail"
            ),
        )?;
    }
    Ok(())
}

/// `chase_vs_datalog_reference`: the chase engine end to end against the
/// independent datalog reference. The case's datalog rules are chased
/// (restricted, semi-naive, context budgets); when that reaches a
/// fixpoint it must equal [`saturate_datalog`]'s instance, which
/// evaluates the same rules with `hom` alone — no join kernel, no `par`.
/// The mutation runs on the chase side.
fn chase_vs_datalog_reference(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let datalog = Theory::new(prog.theory.datalog_rules().cloned().collect());
    let mutated = ctx.mutation.apply(&datalog);
    let cfg = chase_config(ctx, ChaseVariant::Restricted, ChaseStrategy::SemiNaive);
    let res = chase(&prog.instance, &mutated, &mut prog.voc.clone(), cfg);
    if res.status != ChaseStatus::Fixpoint {
        return Ok(());
    }
    let reference = saturate_datalog(&prog.instance, &datalog);
    ensure_same_instance(&reference.instance, &res.instance, &prog.voc, "reference vs chase")
}

/// `classes_witness_oracle`: every witness-producing recognizer agrees
/// with its legacy boolean oracle, and every witness re-validates
/// against the theory from scratch. The mutation checks the *mutated*
/// theory both ways (witnesses must stay self-consistent on any input).
fn classes_witness_oracle(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let theory = ctx.mutation.apply(&prog.theory);

    let guards = guard_violations(&theory);
    ensure(
        is_guarded(&theory) == guards.is_empty(),
        "guard witness/oracle disagree",
    )?;
    for v in &guards {
        v.validate(&theory).map_err(|e| format!("bogus guard witness: {e}"))?;
    }

    let sticky = sticky_violations(&theory);
    ensure(
        is_sticky(&theory) == sticky.is_empty(),
        "sticky witness/oracle disagree",
    )?;
    for v in &sticky {
        v.validate(&theory).map_err(|e| format!("bogus sticky witness: {e}"))?;
    }

    let wa = weak_acyclicity_violation(&theory);
    ensure(
        is_weakly_acyclic(&theory) == wa.is_none(),
        "weak-acyclicity witness/oracle disagree",
    )?;
    if let Some(v) = &wa {
        v.validate(&theory).map_err(|e| format!("bogus WA witness: {e}"))?;
    }

    let t3 = theorem3_violations(&theory);
    ensure(
        is_theorem3_fragment(&theory) == t3.is_empty(),
        "theorem3 witness/oracle disagree",
    )?;
    for v in &t3 {
        v.validate(&theory).map_err(|e| format!("bogus theorem3 witness: {e}"))?;
    }
    Ok(())
}

/// `rewrite_vs_chase`: where the UCQ rewriting saturates (Definition 2
/// applies), evaluating the rewriting over `D` must agree with the
/// chase-based certain answer whenever the chase decides within budget.
/// Single-head theories only (the rewriter's contract). The mutation
/// runs on the rewriting side.
fn rewrite_vs_chase(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    if !prog.theory.is_single_head() {
        return Ok(());
    }
    let mutated = ctx.mutation.apply(&prog.theory);
    let (voc, queries) = derived_queries(prog);
    let config = RewriteConfig { max_disjuncts: 15, max_steps: 300, max_piece: 2 };
    for (qi, ucq) in queries.iter().enumerate() {
        // The rewriter takes single CQs; probe each disjunct separately.
        for cq in &ucq.disjuncts {
            let via_rw = certainly_entailed_rewriting(
                &prog.instance,
                &mutated,
                &mut voc.clone(),
                cq,
                config,
            );
            let Some(rw) = via_rw else { continue }; // did not saturate
            let chase_verdict = certain_ucq(
                &prog.instance,
                &prog.theory,
                &mut voc.clone(),
                &Ucq::single(cq.clone()),
                chase_config(ctx, ChaseVariant::Restricted, ChaseStrategy::SemiNaive),
            );
            if !chase_verdict.is_decided() {
                continue;
            }
            ensure_eq(
                rw,
                chase_verdict.is_true(),
                &format!("rewriting and chase disagree on query #{qi}"),
            )?;
        }
    }
    Ok(())
}

/// `serve_vs_scratch_chase`: an incremental `bddfc-serve` session
/// (insert half the facts, query, insert the rest, query, retract the
/// first half, query, then, when the chase terminates within budget,
/// retract and re-insert up to four single facts of the second half,
/// querying after each retraction and at the end) produces certain
/// answers that agree with a
/// from-scratch chase of the *folded base* — the mutation log replayed
/// into a plain fact set — at every query point where both sides
/// decided, and the whole-session transcript is byte-identical at 1, 2
/// and 7 worker threads. The mutation runs on the resident (serve)
/// side.
fn serve_vs_scratch_chase(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let mutated = ctx.mutation.apply(&prog.theory);
    // The case's own queries plus two-atom join probes — like
    // `derived_queries`, but with parser-friendly variable names, since
    // these queries travel through the serve protocol as *text*.
    let mut qvoc = prog.voc.clone();
    let mut queries: Vec<Ucq> = prog.queries.iter().cloned().map(Ucq::single).collect();
    let mut binary: Vec<PredId> =
        qvoc.preds().filter(|&(_, arity)| arity == 2).map(|(p, _)| p).collect();
    binary.truncate(3);
    let (x, y, z) = (qvoc.var("SVX"), qvoc.var("SVY"), qvoc.var("SVZ"));
    for &p in &binary {
        for &q in &binary {
            queries.push(Ucq::single(ConjunctiveQuery::boolean(vec![
                Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(q, vec![Term::Var(y), Term::Var(z)]),
            ])));
        }
    }
    let facts = prog.instance.facts();
    let (first, second) = facts.split_at(facts.len() / 2);

    enum Step<'a> {
        Ins(&'a [Fact]),
        Ret(&'a [Fact]),
        Query(usize),
    }
    let mut steps: Vec<Step<'_>> = Vec::new();
    let probe_all = |steps: &mut Vec<Step<'_>>| {
        for qi in 0..queries.len() {
            steps.push(Step::Query(qi));
        }
    };
    if !first.is_empty() {
        steps.push(Step::Ins(first));
    }
    probe_all(&mut steps);
    if !second.is_empty() {
        steps.push(Step::Ins(second));
    }
    probe_all(&mut steps);
    if !first.is_empty() {
        steps.push(Step::Ret(first));
    }
    probe_all(&mut steps);
    // The one-fact write shape: retract a single base fact, then put it
    // back, so small DRed cones and re-insertion after retraction run.
    // Only where the chase terminates within the budgets: each mutation
    // of a budget-cut instance runs another round, so a cycle would grow
    // it without bound.
    let config = chase_config(ctx, ChaseVariant::Restricted, ChaseStrategy::SemiNaive);
    if chase(&prog.instance, &prog.theory, &mut prog.voc.clone(), config).is_fixpoint() {
        for f in second.iter().take(4) {
            steps.push(Step::Ret(std::slice::from_ref(f)));
            probe_all(&mut steps);
            steps.push(Step::Ins(std::slice::from_ref(f)));
        }
        probe_all(&mut steps);
    }

    let payload = |fs: &[Fact]| -> String {
        fs.iter().map(|f| format!("{}.", f.display(&qvoc))).collect::<Vec<_>>().join(" ")
    };
    let mut script = String::new();
    for step in &steps {
        match step {
            Step::Ins(fs) => script.push_str(&format!("insert {}\n", payload(fs))),
            Step::Ret(fs) => script.push_str(&format!("retract {}\n", payload(fs))),
            Step::Query(qi) => {
                let body = queries[*qi].disjuncts[0]
                    .atoms
                    .iter()
                    .map(|a| a.display(&qvoc).to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                script.push_str(&format!("query {body}\n"));
            }
        }
    }
    script.push_str("stats\n");

    let serve_prog = Program {
        voc: qvoc.clone(),
        theory: mutated,
        instance: Instance::new(),
        queries: Vec::new(),
    };
    let config = ServeConfig {
        max_rounds: ctx.max_rounds,
        max_facts: ctx.max_facts,
        ..ServeConfig::default()
    };
    let run = |threads: usize| {
        at_threads(threads, || {
            let server = Server::new(&serve_prog, config);
            serve_transcript(&server, &script)
        })
    };
    let transcript = run(1);
    for threads in [2usize, 7] {
        ensure_eq(
            transcript.clone(),
            run(threads),
            &format!("serve transcript at {threads} threads"),
        )?;
    }

    // Differential: replay the mutation log into a plain base instance
    // and ask the from-scratch chase at every query point.
    let lines: Vec<&str> = transcript.lines().collect();
    ensure_eq(lines.len(), steps.len() + 1, "one response line per command (plus stats)")?;
    let mut base = Instance::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Ins(fs) => {
                for f in *fs {
                    base.insert(f.clone());
                }
                ensure(lines[i].starts_with("ok "), &format!("insert failed: {}", lines[i]))?;
            }
            Step::Ret(fs) => {
                let kept: Vec<Fact> =
                    base.facts().iter().filter(|f| !fs.contains(f)).cloned().collect();
                base = Instance::new();
                for f in kept {
                    base.insert(f);
                }
                ensure(lines[i].starts_with("ok "), &format!("retract failed: {}", lines[i]))?;
            }
            Step::Query(qi) => {
                let resident = lines[i];
                if resident != "true" && resident != "false" {
                    ensure(
                        resident.starts_with("unknown"),
                        &format!("unexpected query reply: {resident}"),
                    )?;
                    continue;
                }
                let outcome = certain_ucq_outcome(
                    &base,
                    &prog.theory,
                    &mut qvoc.clone(),
                    &queries[*qi],
                    chase_config(ctx, ChaseVariant::Restricted, ChaseStrategy::SemiNaive),
                );
                let scratch = match outcome.certainty {
                    Certainty::True(_) => "true",
                    Certainty::False => "false",
                    Certainty::Unknown => continue, // scratch budget ran out first
                };
                ensure_eq(
                    resident,
                    scratch,
                    &format!("serve and scratch chase disagree on query #{qi} at step {i}"),
                )?;
            }
        }
    }
    Ok(())
}

/// `static_bound_vs_observed_rounds`: the static analyzer is sound
/// against the real chase —
///
/// * the counting-lattice weak-acyclicity verdict agrees with the
///   position-graph oracle of `bddfc-classes`;
/// * a termination certificate implies weak acyclicity, and every
///   emitted certificate passes its own independent validator;
/// * the restricted semi-naive chase never exceeds a certified bound:
///   a fixpoint within the session budgets stays within `round_bound`
///   rounds and `fact_bound` distinct facts, and a budget stop with the
///   budget at or past the certified bound is a soundness violation;
/// * the analysis JSON is byte-identical at 1, 2 and 7 worker threads.
///
/// The mutation runs on the analyzer side: bounds computed from a
/// defective view of the theory must be caught by the real chase.
fn static_bound_vs_observed_rounds(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let analyzed = Program {
        voc: prog.voc.clone(),
        theory: ctx.mutation.apply(&prog.theory),
        instance: prog.instance.clone(),
        queries: prog.queries.clone(),
    };
    let dom = DomainAnalysis::analyze(&analyzed);
    ensure_eq(
        dom.weakly_acyclic,
        bddfc_classes::is_weakly_acyclic(&analyzed.theory),
        "domain analysis disagrees with the weak-acyclicity oracle",
    )?;

    let a = static_analyze(&analyzed);
    let render = |threads: usize| {
        at_threads(threads, || static_analyze(&analyzed).json("fuzz", &analyzed))
    };
    let one = render(1);
    ensure_eq(one.clone(), a.json("fuzz", &analyzed), "analysis JSON is unstable")?;
    for threads in [2usize, 7] {
        ensure_eq(
            one.clone(),
            render(threads),
            &format!("analysis JSON diverged at {threads} threads"),
        )?;
    }

    // No certificate is always permitted for a WA theory (the counting
    // lattice may have saturated), never the other way around.
    let Some(cert) = &a.certificate else {
        return Ok(());
    };
    ensure(dom.weakly_acyclic, "certificate emitted for a non-weakly-acyclic theory")?;
    cert.validate(&analyzed).map_err(|e| format!("certificate fails its own validator: {e}"))?;

    let res = chase(
        &prog.instance,
        &prog.theory,
        &mut prog.voc.clone(),
        chase_config(ctx, ChaseVariant::Restricted, ChaseStrategy::SemiNaive),
    );
    match res.status {
        ChaseStatus::Fixpoint => {
            ensure(
                u64::from(res.rounds) <= cert.round_bound,
                &format!("observed {} rounds > certified {}", res.rounds, cert.round_bound),
            )?;
            ensure(
                res.instance.len() as u64 <= cert.fact_bound,
                &format!(
                    "observed {} facts > certified {}",
                    res.instance.len(),
                    cert.fact_bound
                ),
            )?;
        }
        // A budget stop is only consistent with the certificate when
        // the budget ran out *before* the bound: the engine needs
        // `round_bound` productive rounds plus one empty round to
        // observe the fixpoint the certificate promises.
        ChaseStatus::RoundBudget => {
            ensure(
                u64::from(ctx.max_rounds) < cert.round_bound.saturating_add(1),
                &format!(
                    "no fixpoint within {} rounds despite certified round bound {}",
                    ctx.max_rounds, cert.round_bound
                ),
            )?;
        }
        ChaseStatus::FactBudget => {
            ensure(
                (ctx.max_facts as u64) < cert.fact_bound,
                &format!(
                    "fact budget {} overrun despite certified fact bound {}",
                    ctx.max_facts, cert.fact_bound
                ),
            )?;
        }
    }
    Ok(())
}

/// `dred_seeded_vs_full`: every retraction of an [`IncrementalChase`]
/// equals the full DRed it replaces, rebuilt here from the public API:
/// over-delete along the recorded derivations, rebuild the survivors,
/// then resume the chase with *every* survivor as delta. The resident
/// result must match in facts (in order), fresh-null names, recorded
/// derivations and [`MaintainOutcome`]. Sessions insert the case's
/// facts, retract the first half and then one more fact, re-insert
/// both, cycle up to four single facts, retract a derived fact (a no-op)
/// and finally every fact, under
/// the context's round budget, under a two-round budget that leaves
/// existential chains cut short, and with a zero-round first retraction.
/// Every mutation of a budget-cut instance runs at least one more round,
/// so a session stops early once the instance passes the fact budget.
/// The mutation runs on the resident side.
fn dred_seeded_vs_full(_case: &FuzzCase, prog: &Program, ctx: &PropCtx) -> PropResult {
    let resident_theory = ctx.mutation.apply(&prog.theory);
    let facts = prog.instance.facts();
    let (first, second) = facts.split_at(facts.len() / 2);
    let mut session: Vec<(bool, &[Fact], &str)> = vec![(true, first, "the first half")];
    // A second retraction before anything is re-inserted inherits what
    // the first left pending.
    if let Some(f) = second.first() {
        session.push((true, std::slice::from_ref(f), "one fact after the first half"));
        session.push((false, std::slice::from_ref(f), ""));
    }
    session.push((false, first, ""));
    for f in facts.iter().step_by((facts.len() / 4).max(1)).take(4) {
        session.push((true, std::slice::from_ref(f), "one fact"));
        session.push((false, std::slice::from_ref(f), ""));
    }
    // (round budget, the first retraction's round budget): a zero-round
    // retraction leaves every survivor pending for the next mutation.
    let budgets = [(ctx.max_rounds, ctx.max_rounds), (2, 2), (ctx.max_rounds, 0)];
    for (max_rounds, first_rounds) in budgets {
        let config = MaintainConfig { max_rounds, max_facts: ctx.max_facts };
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&resident_theory);
        inc.insert(facts, &mut voc, config);
        let derived = inc.instance().facts().iter().find(|f| !facts.contains(f)).cloned();
        for (i, &(retract, fs, what)) in session.iter().enumerate() {
            if inc.instance().len() > config.max_facts {
                break;
            }
            if retract {
                let rounds = if i == 0 { first_rounds } else { max_rounds };
                let step = MaintainConfig { max_rounds: rounds, ..config };
                checked_retract(&mut inc, &mut voc, fs, step, &prog.theory, what)?;
            } else {
                inc.insert(fs, &mut voc, config);
            }
        }
        if let Some(d) = derived {
            checked_retract(&mut inc, &mut voc, &[d], config, &prog.theory, "a derived fact")?;
        }
        checked_retract(&mut inc, &mut voc, facts, config, &prog.theory, "every fact")?;
    }
    Ok(())
}

/// One retraction of `fs` from `inc`, checked against full DRed over
/// `theory` (see [`dred_seeded_vs_full`]).
fn checked_retract(
    inc: &mut IncrementalChase,
    voc: &mut Vocabulary,
    fs: &[Fact],
    config: MaintainConfig,
    theory: &Theory,
    what: &str,
) -> PropResult {
    let before = inc.traced_view();
    let (rounds_before, complete_before, exhausted_before) =
        (inc.rounds_total(), inc.complete(), inc.exhausted());
    let mut base: FxHashSet<Fact> = inc.base().iter().cloned().collect();
    let mut ref_voc = voc.clone();
    let out = inc.retract(fs, voc, config);

    // Over-delete along the recorded derivations.
    let mut prov = before.provenance;
    let (mut retracted, mut deleted, mut work) = (0, FxHashSet::default(), Vec::new());
    for f in fs {
        if base.remove(f) {
            retracted += 1;
            if !prov.contains_key(f) && deleted.insert(f.clone()) {
                work.push(f.clone());
            }
        }
    }
    let seeds = deleted.len();
    let mut rev: FxHashMap<Fact, Vec<Fact>> = FxHashMap::default();
    for (f, d) in &prov {
        for p in &d.premises {
            rev.entry(p.clone()).or_default().push(f.clone());
        }
    }
    while let Some(x) = work.pop() {
        for dep in rev.get(&x).into_iter().flatten() {
            if prov.remove(dep).is_some() && !base.contains(dep) && deleted.insert(dep.clone()) {
                work.push(dep.clone());
            }
        }
    }
    let mut survivors = Instance::new();
    for f in before.instance.facts().iter().filter(|f| !deleted.contains(*f)) {
        survivors.insert(f.clone());
    }
    let rederive_from = survivors.len();

    // Re-derive with every survivor as delta, budgeted like a mutation.
    let mut expected = MaintainOutcome {
        new_facts: 0,
        retracted,
        overdeleted: deleted.len() - seeds,
        rounds: 0,
        complete: complete_before,
        exhausted: exhausted_before,
        facts_total: before.instance.len(),
    };
    let mut derivs: Vec<(Fact, Derivation)> = Vec::new();
    let result = if retracted == 0 || survivors.is_empty() {
        survivors
    } else {
        let len = survivors.len();
        let mut stepper = ChaseStepper::resume(
            survivors,
            theory,
            ChaseVariant::Restricted,
            ChaseStrategy::SemiNaive,
            &NULL,
            0..len,
        );
        let status = loop {
            if stepper.pending_delta().is_empty() {
                break None;
            }
            if expected.rounds >= config.max_rounds {
                break Some(BudgetExhausted::Rounds);
            }
            let grown = stepper.instance.len();
            stepper.step_traced(&mut ref_voc, &mut derivs);
            expected.rounds += 1;
            if stepper.instance.len() == grown {
                break None;
            }
            if stepper.instance.len() > config.max_facts {
                break Some(BudgetExhausted::Facts);
            }
        };
        (expected.complete, expected.exhausted) = (status.is_none(), status);
        stepper.into_instance()
    };
    if retracted > 0 {
        expected.new_facts = result.len() - rederive_from;
        expected.facts_total = result.len();
    }
    ensure_eq(out, expected, &format!("retract {what}: outcome"))?;
    ensure(
        inc.instance().facts() == result.facts(),
        &format!("retract {what}: resident facts differ from full DRed (or their order)"),
    )?;
    let nulls = |v: &Vocabulary| -> Vec<String> {
        (0..v.const_count()).map(|i| v.const_name(ConstId(i as u32)).to_string()).collect()
    };
    ensure_eq(nulls(voc), nulls(&ref_voc), &format!("retract {what}: fresh-null names"))?;
    for (f, mut d) in derivs {
        d.round = u32::try_from(rounds_before).unwrap_or(u32::MAX).saturating_add(d.round);
        prov.insert(f, d);
    }
    ensure(
        inc.traced_view().provenance == prov,
        &format!("retract {what}: recorded derivations differ from full DRed"),
    )?;
    ensure(inc.check_support().is_none(), &format!("retract {what}: unsupported fact"))
}

/// `lint_stability`: linting the case source twice gives byte-identical
/// reports (text and JSON) and never panics. (Panic-freedom is enforced
/// by the runner's catch-unwind; this check makes it a named property.)
fn lint_stability(case: &FuzzCase, _prog: &Program, _ctx: &PropCtx) -> PropResult {
    let a = lint_source("fuzz-case", &case.src);
    let b = lint_source("fuzz-case", &case.src);
    ensure(a.json() == b.json(), "lint JSON output is unstable")?;
    ensure(a.render() == b.render(), "lint rendered output is unstable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for p in PROPS {
            assert!(std::ptr::eq(find_prop(p.name).unwrap(), p));
        }
        let mut names: Vec<_> = PROPS.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PROPS.len());
    }

    #[test]
    fn healthy_engines_pass_all_props_on_sample_seeds() {
        let ctx = PropCtx::default();
        for seed in 0..30 {
            let case = gen_case(seed);
            let prog = case.program().unwrap();
            for prop in PROPS {
                (prop.check)(&case, &prog, &ctx).unwrap_or_else(|e| {
                    panic!("seed {seed}, prop {}: {e}\n{}", prop.name, case.src)
                });
            }
        }
    }

    #[test]
    fn skip_last_rule_mutation_is_caught_somewhere() {
        let ctx = PropCtx { mutation: Mutation::SkipLastRule, ..PropCtx::default() };
        let caught = (0..40).any(|seed| {
            let case = gen_case(seed);
            let prog = case.program().unwrap();
            PROPS.iter().any(|p| {
                crate::proptest_lite::run_case_caught(|| (p.check)(&case, &prog, &ctx)).is_err()
            })
        });
        assert!(caught, "the known-bad mutation must be caught within 40 seeds");
    }
}
