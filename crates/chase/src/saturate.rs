//! Semi-naive saturation under the datalog rules of a theory.
//!
//! The finite-model pipeline of Section 3 chases the quotient `Mη(S̄)`
//! with the full theory but — by Lemma 5 — only the datalog rules ever
//! fire. This module provides the saturation step directly: it applies
//! *only* the datalog rules to a fixpoint, which always terminates (no new
//! elements are ever created), using semi-naive evaluation (every derived
//! fact must use at least one fact from the previous delta).

use bddfc_core::fxhash::FxHashSet;
use bddfc_core::join;
use bddfc_core::obs::{Event, EventSink, SpanTimer, NULL};
use bddfc_core::par;
use bddfc_core::{ConstId, Fact, Instance, PredId, Rule, Term, Theory};
use std::ops::Range;

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

/// Evaluates one work item — a datalog rule with the batch join kernel,
/// optionally pinned to a delta tail segment — and grounds its head once
/// per output row, reading head arguments straight out of the batch's
/// columns instead of materializing per-row bindings. Pure over `inst`,
/// so items shard freely across threads; `seen` is only a local dedup
/// (the round merge re-dedups globally).
fn batch_rule(
    inst: &Instance,
    rule: &Rule,
    pinned: Option<(usize, Range<usize>)>,
    out: &mut Vec<Fact>,
    seen: &mut FxHashSet<Fact>,
    matches: &mut u64,
    joins: Option<&mut join::JoinStats>,
) {
    let batch = join::eval_body(inst.columnar(), &rule.body, pinned, joins);
    if batch.rows() == 0 {
        return;
    }
    *matches += batch.rows() as u64;
    /// Where one head-atom argument comes from, resolved once per call.
    enum Src {
        Const(ConstId),
        Col(usize),
    }
    let heads: Vec<(PredId, Vec<Src>)> = rule
        .head
        .iter()
        .map(|atom| {
            let srcs = atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Src::Const(*c),
                    Term::Var(v) => Src::Col(
                        batch.col_of(*v).expect("datalog head variable bound by body"),
                    ),
                })
                .collect();
            (atom.pred, srcs)
        })
        .collect();
    for row in 0..batch.rows() {
        for (pred, srcs) in &heads {
            let args: Vec<ConstId> = srcs
                .iter()
                .map(|s| match s {
                    Src::Const(c) => *c,
                    Src::Col(i) => batch.get(row, *i),
                })
                .collect();
            let fact = Fact::new(*pred, args);
            if !inst.contains(&fact) && seen.insert(fact.clone()) {
                out.push(fact);
            }
        }
    }
}

fn saturate_impl<S: EventSink>(
    inst: &Instance,
    theory: &Theory,
    naive: bool,
    sink: &S,
) -> SaturationResult {
    // Keep each datalog rule's index in the *theory* — the attribution
    // key shared with the chase's `chase`/`trigger` events.
    let datalog: Vec<(usize, &Rule)> =
        theory.rules.iter().enumerate().filter(|(_, r)| r.is_datalog()).collect();
    // Per-shard attribution (indexed by datalog position), merged
    // sequentially; only built when a recording sink is installed.
    struct ShardAttr {
        rule_matches: Vec<u64>,
        rule_ns: Vec<u64>,
        joins: join::JoinStats,
    }
    let new_attr = || {
        if S::ENABLED {
            Some(ShardAttr {
                rule_matches: vec![0; datalog.len()],
                rule_ns: vec![0; datalog.len()],
                joins: join::JoinStats::default(),
            })
        } else {
            None
        }
    };
    let run_span = if S::ENABLED { sink.span_open("saturate", "run", 0, None) } else { 0 };
    let mut current = inst.clone();
    let mut delta = inst.clone();
    let mut rounds = 0;
    let mut derived = 0;
    let mut body_matches_per_round = Vec::new();
    loop {
        let timer = SpanTimer::start();
        let round_span = if S::ENABLED {
            sink.span_open(
                "saturate",
                "round",
                run_span,
                Some(("round", body_matches_per_round.len() as u64 + 1)),
            )
        } else {
            0
        };
        // One work item per rule (naive) or per (rule, pinned atom)
        // (semi-naive): the pin's delta facts are exactly the tail
        // `delta_count` rows of its relation in `current` (append-only
        // segments; nothing else is inserted between rounds).
        let mut items = Vec::new();
        for (di, (_, rule)) in datalog.iter().enumerate() {
            if naive {
                items.push((di, None));
                continue;
            }
            for (pin, atom) in rule.body.iter().enumerate() {
                let k = delta.facts_with_pred(atom.pred).len();
                if k == 0 {
                    continue;
                }
                let rows = current.columnar().rows(atom.pred);
                debug_assert!(k <= rows, "delta larger than its relation");
                items.push((di, Some((pin, rows - k..rows))));
            }
        }
        // Phase 1 (parallel): every shard derives candidate facts with a
        // shard-local dedup against the frozen `current`, in work-list
        // order, so the merged stream is the one a sequential loop builds.
        let shard_out: Vec<(Vec<Fact>, u64, Option<ShardAttr>)> =
            par::par_chunks(items.len(), |range| {
                let mut out = Vec::new();
                let mut seen = FxHashSet::default();
                let mut matches = 0u64;
                let mut attr = new_attr();
                for (di, pinned) in &items[range] {
                    let t = attr.is_some().then(SpanTimer::start);
                    let before = matches;
                    batch_rule(
                        &current,
                        datalog[*di].1,
                        pinned.clone(),
                        &mut out,
                        &mut seen,
                        &mut matches,
                        attr.as_mut().map(|a| &mut a.joins),
                    );
                    if let Some(a) = attr.as_mut() {
                        a.rule_ns[*di] += t.expect("timer set with attr").elapsed_ns();
                        a.rule_matches[*di] += matches - before;
                    }
                }
                (out, matches, attr)
            });
        // Phase 2 (sequential): merge shards in input order with a global
        // first-occurrence dedup.
        let mut new_facts = Vec::new();
        let mut seen: FxHashSet<Fact> = FxHashSet::default();
        let mut matches = 0u64;
        let mut merged_attr = new_attr();
        for (shard, m, attr) in shard_out {
            matches += m;
            if let (Some(total), Some(a)) = (merged_attr.as_mut(), attr) {
                for (di, (&rm, &ns)) in a.rule_matches.iter().zip(&a.rule_ns).enumerate() {
                    total.rule_matches[di] += rm;
                    total.rule_ns[di] += ns;
                }
                total.joins.merge(&a.joins);
            }
            for fact in shard {
                if seen.insert(fact.clone()) {
                    new_facts.push(fact);
                }
            }
        }
        body_matches_per_round.push(matches);
        let fixpoint = new_facts.is_empty();
        let mut round_derived = 0u64;
        if !fixpoint {
            rounds += 1;
            let mut next_delta = Instance::new();
            for fact in new_facts {
                if current.insert(fact.clone()) {
                    derived += 1;
                    round_derived += 1;
                    next_delta.insert(fact);
                }
            }
            delta = next_delta;
        }
        if S::ENABLED {
            if let Some(a) = merged_attr {
                for (di, &(theory_idx, _)) in datalog.iter().enumerate() {
                    // Skip rules that never completed a match this round;
                    // the skip decision only reads deterministic fields.
                    if a.rule_matches[di] == 0 {
                        continue;
                    }
                    sink.record(Event {
                        engine: "saturate",
                        name: "rule",
                        parent: round_span,
                        key: Some(("rule", theory_idx as u64)),
                        fields: &[("body_matches", a.rule_matches[di])],
                        gauges: &[("wall_ns", a.rule_ns[di])],
                    });
                }
                for (pred, c) in a.joins.sorted() {
                    if c.builds > 0 {
                        sink.record(Event {
                            engine: "join",
                            name: "build",
                            parent: round_span,
                            key: Some(("pred", u64::from(pred.0))),
                            fields: &[("builds", c.builds), ("rows", c.build_rows)],
                            gauges: &[("wall_ns", c.build_ns)],
                        });
                    }
                    if c.probes > 0 {
                        sink.record(Event {
                            engine: "join",
                            name: "probe",
                            parent: round_span,
                            key: Some(("pred", u64::from(pred.0))),
                            fields: &[
                                ("probes", c.probes),
                                ("rows", c.probe_rows),
                                ("matches", c.matches),
                            ],
                            gauges: &[("wall_ns", c.probe_ns)],
                        });
                    }
                }
            }
            sink.record(Event {
                engine: "saturate",
                name: "round",
                parent: round_span,
                key: None,
                fields: &[
                    ("round", body_matches_per_round.len() as u64),
                    ("body_matches", matches),
                    ("derived", round_derived),
                    ("facts_total", current.len() as u64),
                ],
                gauges: &[
                    ("wall_ns", timer.elapsed_ns()),
                    ("threads", par::num_threads() as u64),
                ],
            });
            sink.span_close(round_span);
        }
        if fixpoint {
            break;
        }
    }
    if S::ENABLED {
        sink.span_close(run_span);
    }
    SaturationResult { instance: current, rounds, derived, body_matches_per_round }
}

/// Saturates `inst` under the *datalog rules* of `theory` (existential
/// TGDs are ignored), using semi-naive evaluation. Always terminates.
pub fn saturate_datalog(inst: &Instance, theory: &Theory) -> SaturationResult {
    saturate_impl(inst, theory, false, &NULL)
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
    saturate_impl(inst, theory, false, sink)
}

/// Naive-evaluation oracle for [`saturate_datalog`]: every round
/// re-enumerates all body homomorphisms over the full instance. Same
/// result, more work — kept for differential testing.
pub fn saturate_datalog_naive(inst: &Instance, theory: &Theory) -> SaturationResult {
    saturate_impl(inst, theory, true, &NULL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::parse_program;
    use bddfc_core::satisfaction::satisfies_theory;

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
        // Per-rule attribution (keyed by theory rule index) reconciles
        // with the round totals, and join probes are charged.
        assert_eq!(
            sink.counter("saturate", "rule", "body_matches"),
            res.total_body_matches()
        );
        assert!(sink.counter("join", "probe", "probes") > 0);
        assert!(sink.counter("join", "probe", "matches") >= res.total_body_matches());
        // One run span + one span per round, all closed.
        let spans = sink.spans();
        assert_eq!(spans.len(), 1 + res.body_matches_per_round.len());
        assert_eq!((spans[0].engine, spans[0].name), ("saturate", "run"));
        assert!(spans.iter().all(|s| s.is_closed()));
        assert!(spans[1..].iter().all(|s| s.parent == spans[0].id));
    }

    #[test]
    fn naive_oracle_agrees_and_works_harder() {
        let edges: String = (1..=40).map(|i| format!("E(a{i},a{}). ", i + 1)).collect();
        let prog = parse_program(&format!("E(X,Y), E(Y,Z) -> E(X,Z). {edges}")).unwrap();
        let semi = saturate_datalog(&prog.instance, &prog.theory);
        let naive = saturate_datalog_naive(&prog.instance, &prog.theory);
        assert_eq!(semi.instance, naive.instance);
        assert_eq!(semi.derived, naive.derived);
        assert!(
            naive.total_body_matches() >= 2 * semi.total_body_matches(),
            "naive {} vs semi-naive {}",
            naive.total_body_matches(),
            semi.total_body_matches()
        );
    }
}
