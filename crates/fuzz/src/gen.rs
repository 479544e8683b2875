//! Seeded, stratified generation of random Datalog∃ programs.
//!
//! Every case is rendered as parseable `.dlg` source (one statement per
//! line — the granularity the shrinker works at), so a failing case *is*
//! its own reproducer and corpus files diff cleanly in review.
//!
//! Generation is stratified across the recognized classes: each seed
//! deterministically picks a [`Strat`] and a class-shaped template that
//! *guarantees* membership by construction (pinned by tests against the
//! `bddfc_classes` recognizers), so the differential properties keep
//! exercising guarded/sticky/weakly-acyclic/Theorem-3 ground instead of
//! drifting into the unrestricted soup.
//!
//! This module also hosts the two generators that used to be duplicated
//! inline across `tests/{differential,determinism,lint}.rs`:
//! [`random_program`] and [`random_program_source`].

use crate::proptest_lite::Gen;
use bddfc_core::prng::SplitMix64;
use bddfc_core::{parse_program, Fact, Instance, Program, Vocabulary};
use bddfc_zoo::random_linear_theory;

/// The generator strata: one per recognized Datalog∃ class, plus the
/// anything-goes stratum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Strat {
    /// Every rule body has a guard atom containing all body variables.
    Guarded,
    /// Linear rules with repetition-free bodies (sticky by construction:
    /// no variable ever occurs twice in a body, so no marked join exists).
    Sticky,
    /// Layered rules (head predicate strictly above every body
    /// predicate), so the dependency graph is acyclic.
    WeaklyAcyclic,
    /// Every TGD has at most one frontier variable (the Theorem 3 shape
    /// `Ψ(x̄,y) ⇒ ∃z̄ Φ(y,z̄)`); datalog rules are unrestricted.
    Theorem3,
    /// Unrestricted: joins, multi-heads, constants, repeated variables.
    Unrestricted,
}

impl Strat {
    /// All strata, in the order seeds cycle through them.
    pub const ALL: [Strat; 5] = [
        Strat::Guarded,
        Strat::Sticky,
        Strat::WeaklyAcyclic,
        Strat::Theorem3,
        Strat::Unrestricted,
    ];

    /// Stable lower-case name (used in reports and corpus headers).
    pub fn name(self) -> &'static str {
        match self {
            Strat::Guarded => "guarded",
            Strat::Sticky => "sticky",
            Strat::WeaklyAcyclic => "weakly-acyclic",
            Strat::Theorem3 => "theorem3",
            Strat::Unrestricted => "unrestricted",
        }
    }
}

/// One generated (or replayed) fuzz case: a seed, the stratum it was
/// drawn from, and parseable `.dlg` source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// The case seed ([`gen_case`] is a pure function of it).
    pub seed: u64,
    /// The stratum the template was drawn from (`None` for corpus
    /// replays, where only the text is known).
    pub strat: Option<Strat>,
    /// The program as `.dlg` source, one statement per line.
    pub src: String,
}

impl FuzzCase {
    /// Parses the case. Generated cases always parse; replayed corpus
    /// files might not (that is a corpus error, not a finding).
    pub fn program(&self) -> Result<Program, bddfc_core::ParseError> {
        parse_program(&self.src)
    }
}

/// The fixed signature every generated case draws from. Keeping one
/// arity per predicate name means concatenating any generated statements
/// can never produce an arity clash.
const UNARY: &[&str] = &["A", "B"];
const BINARY: &[&str] = &["P", "Q", "R"];
const TERNARY: &[&str] = &["T"];
/// Body/frontier variable pool.
const VARS: &[&str] = &["X", "Y", "Z", "W"];
/// Existential variable pool (disjoint from `VARS` so templates can
/// introduce head-only variables without capturing a body variable).
const EVARS: &[&str] = &["V0", "V1"];
const CONSTS: &[&str] = &["a", "b", "c"];

/// A predicate of the given arity from the fixed signature.
fn pred_of_arity(rng: &mut SplitMix64, arity: usize) -> &'static str {
    match arity {
        1 => UNARY[rng.below(UNARY.len())],
        2 => BINARY[rng.below(BINARY.len())],
        3 => TERNARY[rng.below(TERNARY.len())],
        _ => unreachable!("signature has arities 1..=3"),
    }
}

fn render_atom(pred: &str, args: &[String]) -> String {
    format!("{pred}({})", args.join(","))
}

/// A ground fact over the signature.
fn random_fact(rng: &mut SplitMix64) -> String {
    let arity = rng.range(1, 4);
    let pred = pred_of_arity(rng, arity);
    let args: Vec<String> = (0..arity)
        .map(|_| CONSTS[rng.below(CONSTS.len())].to_string())
        .collect();
    format!("{}.", render_atom(pred, &args))
}

/// A guarded rule: a guard atom over `k` distinct variables plus up to
/// two side atoms over subsets of them; single head over the guard
/// variables, possibly introducing an existential.
fn guarded_rule(rng: &mut SplitMix64) -> String {
    let k = rng.range(1, 4);
    let vars: Vec<&str> = VARS[..k].to_vec();
    let guard = {
        // A permutation of the k body variables fills the arity-k guard.
        let mut perm = vars.clone();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let args: Vec<String> = perm.iter().map(|v| v.to_string()).collect();
        render_atom(pred_of_arity(rng, k), &args)
    };
    let mut body = vec![guard];
    for _ in 0..rng.below(3) {
        let arity = rng.range(1, k + 1);
        let args: Vec<String> = (0..arity)
            .map(|_| vars[rng.below(vars.len())].to_string())
            .collect();
        body.push(render_atom(pred_of_arity(rng, arity), &args));
    }
    let head_arity = rng.range(1, 4);
    let exist = rng.flip();
    let args: Vec<String> = (0..head_arity)
        .map(|i| {
            if exist && i == head_arity - 1 {
                EVARS[rng.below(EVARS.len())].to_string()
            } else {
                vars[rng.below(vars.len())].to_string()
            }
        })
        .collect();
    let head = render_atom(pred_of_arity(rng, head_arity), &args);
    format!("{} -> {}.", body.join(", "), head)
}

/// A sticky rule: single repetition-free body atom, head over distinct
/// variables (body subset plus optional existentials).
fn sticky_rule(rng: &mut SplitMix64) -> String {
    let arity = rng.range(1, 4);
    let body_vars: Vec<&str> = VARS[..arity].to_vec();
    let body = render_atom(
        pred_of_arity(rng, arity),
        &body_vars.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
    );
    let head_arity = rng.range(1, 4);
    // Draw head args without repetition from body vars then existentials,
    // so no variable ever occurs twice anywhere in the rule.
    let mut pool: Vec<String> = body_vars.iter().map(|v| v.to_string()).collect();
    for e in EVARS {
        pool.push((*e).to_string());
    }
    let mut args = Vec::new();
    for _ in 0..head_arity {
        let i = rng.below(pool.len());
        args.push(pool.swap_remove(i));
    }
    let head = render_atom(pred_of_arity(rng, head_arity), &args);
    format!("{body} -> {head}.")
}

/// A weakly acyclic rule set: predicates are layered `A,B < P,Q,R < T`
/// by arity, and every head predicate sits strictly above every body
/// predicate, so the position dependency graph is a DAG.
fn weakly_acyclic_rule(rng: &mut SplitMix64) -> String {
    // Body from layer 1 or 2, head strictly above.
    let body_arity = rng.range(1, 3);
    let nbody = rng.range(1, 3);
    let vars: Vec<&str> = VARS[..body_arity.max(2)].to_vec();
    let body: Vec<String> = (0..nbody)
        .map(|_| {
            let a = rng.range(1, body_arity + 1);
            let args: Vec<String> = (0..a)
                .map(|_| vars[rng.below(vars.len())].to_string())
                .collect();
            render_atom(pred_of_arity(rng, a), &args)
        })
        .collect();
    let head_arity = body_arity + 1; // strictly higher layer
    let exist = rng.flip();
    let args: Vec<String> = (0..head_arity)
        .map(|i| {
            if exist && i == 0 {
                EVARS[rng.below(EVARS.len())].to_string()
            } else {
                vars[rng.below(vars.len())].to_string()
            }
        })
        .collect();
    let head = render_atom(pred_of_arity(rng, head_arity), &args);
    format!("{} -> {}.", body.join(", "), head)
}

/// A Theorem 3 fragment rule: either an unrestricted datalog rule or a
/// TGD whose head shares at most one (frontier) variable with the body.
fn theorem3_rule(rng: &mut SplitMix64) -> String {
    let nbody = rng.range(1, 3);
    let body: Vec<String> = (0..nbody)
        .map(|_| {
            let a = rng.range(1, 4);
            let args: Vec<String> = (0..a)
                .map(|_| VARS[rng.below(VARS.len())].to_string())
                .collect();
            render_atom(pred_of_arity(rng, a), &args)
        })
        .collect();
    let body_text = body.join(", ");
    if rng.flip() {
        // Datalog rule (no existentials): unrestricted frontier. Reuse
        // only body variables.
        let body_vars: Vec<&str> = VARS
            .iter()
            .filter(|v| body.iter().any(|a| has_var(a, v)))
            .copied()
            .collect();
        let a = rng.range(1, 4);
        let args: Vec<String> = (0..a)
            .map(|_| body_vars[rng.below(body_vars.len())].to_string())
            .collect();
        format!("{body_text} -> {}.", render_atom(pred_of_arity(rng, a), &args))
    } else {
        // TGD: one frontier variable, everything else existential or
        // constant.
        let body_vars: Vec<&str> = VARS
            .iter()
            .filter(|v| body.iter().any(|a| has_var(a, v)))
            .copied()
            .collect();
        let frontier = body_vars[rng.below(body_vars.len())];
        let a = rng.range(1, 4);
        let fpos = rng.below(a);
        let args: Vec<String> = (0..a)
            .map(|i| {
                if i == fpos {
                    frontier.to_string()
                } else if rng.flip() {
                    EVARS[rng.below(EVARS.len())].to_string()
                } else {
                    CONSTS[rng.below(CONSTS.len())].to_string()
                }
            })
            .collect();
        format!("{body_text} -> {}.", render_atom(pred_of_arity(rng, a), &args))
    }
}

/// Does the rendered atom mention the variable? Exact-token check: all
/// argument names in the pools are single-token and comma-separated.
fn has_var(atom: &str, var: &str) -> bool {
    let inner = &atom[atom.find('(').map_or(0, |i| i + 1)..atom.len().saturating_sub(1)];
    inner.split(',').any(|t| t == var)
}

/// An unrestricted rule: any body/head shapes, repeated variables,
/// constants, multi-heads.
fn unrestricted_rule(rng: &mut SplitMix64) -> String {
    let atom = |rng: &mut SplitMix64, pool: usize| {
        let a = rng.range(1, 4);
        let args: Vec<String> = (0..a)
            .map(|_| {
                let k = rng.below(pool + CONSTS.len());
                if k < pool {
                    VARS[k].to_string()
                } else {
                    CONSTS[k - pool].to_string()
                }
            })
            .collect();
        render_atom(pred_of_arity(rng, a), &args)
    };
    let pool = rng.range(1, VARS.len() + 1);
    let nbody = rng.range(1, 4);
    let body: Vec<String> = (0..nbody).map(|_| atom(rng, pool)).collect();
    let nhead = rng.range(1, 3);
    let head: Vec<String> = (0..nhead).map(|_| atom(rng, VARS.len())).collect();
    format!("{} -> {}.", body.join(", "), head.join(", "))
}

/// Generates the fuzz case for a seed: stratum, theory, instance and
/// (sometimes) a query, rendered one statement per line. Pure function
/// of the seed — byte-identical across runs, platforms and thread
/// counts.
pub fn gen_case(seed: u64) -> FuzzCase {
    let mut rng = SplitMix64::new(seed);
    let strat = Strat::ALL[rng.below(Strat::ALL.len())];
    let nrules = rng.range(1, 7);
    let mut lines: Vec<String> = Vec::new();
    lines.push(format!("% bddfc-fuzz seed={seed:#x} strat={}", strat.name()));
    for _ in 0..nrules {
        lines.push(match strat {
            Strat::Guarded => guarded_rule(&mut rng),
            Strat::Sticky => sticky_rule(&mut rng),
            Strat::WeaklyAcyclic => weakly_acyclic_rule(&mut rng),
            Strat::Theorem3 => theorem3_rule(&mut rng),
            Strat::Unrestricted => unrestricted_rule(&mut rng),
        });
    }
    let nfacts = rng.range(2, 9);
    for _ in 0..nfacts {
        lines.push(random_fact(&mut rng));
    }
    if rng.flip() {
        // A two-atom join query over binary predicates, for parser
        // coverage and the certain-answer properties.
        let p = BINARY[rng.below(BINARY.len())];
        let q = BINARY[rng.below(BINARY.len())];
        lines.push(format!("?- {p}(X,Y), {q}(Y,Z)."));
    }
    let mut src = lines.join("\n");
    src.push('\n');
    FuzzCase { seed, strat: Some(strat), src }
}

/// A seeded random program over three binary predicates: a random linear
/// theory plus a random instance. Promoted from the identical copies in
/// `tests/differential.rs` and `tests/determinism.rs` — seeds produce
/// the same programs they always did.
pub fn random_program(seed: u64) -> Program {
    let mut voc = Vocabulary::new();
    let theory = random_linear_theory(&mut voc, 3, 6, seed);
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let preds: Vec<_> = (0..3).map(|i| voc.pred(&format!("R{i}"), 2)).collect();
    let consts: Vec<_> = (0..5).map(|i| voc.constant(&format!("c{i}"))).collect();
    let mut instance = Instance::new();
    for _ in 0..8 {
        let p = preds[rng.below(preds.len())];
        let a = consts[rng.below(consts.len())];
        let b = consts[rng.below(consts.len())];
        instance.insert(Fact::new(p, vec![a, b]));
    }
    Program { voc, theory, instance, queries: vec![] }
}

/// A random Datalog∃ program as source text: 1–5 rules over a small fixed
/// signature, bodies of 1–3 atoms with shared variables (joins), heads
/// that reuse body variables, drop them (existentials arise implicitly)
/// or mention constants. Promoted verbatim from `tests/lint.rs`.
pub fn random_program_source(g: &mut Gen) -> String {
    const PREDS: &[(&str, usize)] = &[("A", 1), ("B", 2), ("C", 3), ("D", 2)];
    const VARS: &[&str] = &["X", "Y", "Z", "W"];
    const CONSTS: &[&str] = &["a", "b"];
    let nrules = g.usize_in("rules", 1, 6);
    let mut out = String::new();
    for r in 0..nrules {
        let atom = |g: &mut Gen, kind: &str, pool: usize| {
            let (name, arity) = PREDS[g.usize_in(&format!("r{r}/{kind}/pred"), 0, PREDS.len())];
            let args: Vec<&str> = (0..arity)
                .map(|i| {
                    let k = g.usize_in(&format!("r{r}/{kind}/arg{i}"), 0, pool + CONSTS.len());
                    if k < pool {
                        VARS[k]
                    } else {
                        CONSTS[k - pool]
                    }
                })
                .collect();
            format!("{name}({})", args.join(","))
        };
        let nbody = g.usize_in(&format!("r{r}/body_atoms"), 1, 4);
        let body_pool = g.usize_in(&format!("r{r}/body_pool"), 1, VARS.len());
        let body: Vec<String> = (0..nbody).map(|_| atom(g, "body", body_pool)).collect();
        let head = atom(g, "head", VARS.len());
        out.push_str(&format!("{} -> {}.\n", body.join(", "), head));
    }
    out.push_str("A(a). B(a,b).\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_classes::{is_guarded, is_linear, is_sticky, is_theorem3_fragment, is_weakly_acyclic};

    #[test]
    fn every_seed_parses() {
        for seed in 0..500 {
            let case = gen_case(seed);
            case.program()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", case.src));
        }
    }

    #[test]
    fn strata_templates_guarantee_membership() {
        let (mut g, mut s, mut w, mut t) = (0, 0, 0, 0);
        for seed in 0..500 {
            let case = gen_case(seed);
            let prog = case.program().unwrap();
            match case.strat.unwrap() {
                Strat::Guarded => {
                    g += 1;
                    assert!(is_guarded(&prog.theory), "seed {seed}:\n{}", case.src);
                }
                Strat::Sticky => {
                    s += 1;
                    assert!(is_linear(&prog.theory), "seed {seed}:\n{}", case.src);
                    assert!(is_sticky(&prog.theory), "seed {seed}:\n{}", case.src);
                }
                Strat::WeaklyAcyclic => {
                    w += 1;
                    assert!(is_weakly_acyclic(&prog.theory), "seed {seed}:\n{}", case.src);
                }
                Strat::Theorem3 => {
                    t += 1;
                    assert!(is_theorem3_fragment(&prog.theory), "seed {seed}:\n{}", case.src);
                }
                Strat::Unrestricted => {}
            }
        }
        assert!(g > 50 && s > 50 && w > 50 && t > 50, "strata coverage: {g}/{s}/{w}/{t}");
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 7, 0xdead_beef] {
            assert_eq!(gen_case(seed), gen_case(seed));
        }
    }

    #[test]
    fn random_program_matches_historical_construction() {
        // The promoted generator must keep producing what the inline
        // test copies produced (they seeded the zoo's linear theory).
        let mut voc = Vocabulary::new();
        let theory = random_linear_theory(&mut voc, 3, 6, 42);
        let prog = random_program(42);
        assert_eq!(prog.theory, theory);
        assert_eq!(prog.instance.len() <= 8, true);
    }
}
