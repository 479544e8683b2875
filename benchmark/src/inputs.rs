//! Seeded inputs for the four workloads, with the closed-form answers the
//! benchmark checks replies against.

use bddfc_core::prng::SplitMix64;
use bddfc_core::{parse_into, parse_program, parse_query, ConjunctiveQuery, Instance, Program};
use bddfc_core::{Theory, Vocabulary};

/// The serve ontology: weakly acyclic, so every query is decided.
pub const ORG_RULES: &str = "Works(X,D) -> exists M . Heads(M,D).
Heads(M,D), Works(X,D) -> Reports(X,M).
Sub(D,E), Heads(M,E), Works(X,D) -> Reports(X,M).
Reports(X,M) -> Person(M).
";

/// People per department in both serve workloads.
pub const PEOPLE_PER_DEPT: usize = 10;

/// Size of the pool of fresh person names the write workload cycles
/// through, so the vocabulary stops growing after the first updates.
pub const WRITE_NAME_POOL: u64 = 64;

/// A random organisation: every person `pI` works in one department
/// `dJ`, and every department but `d0` sits under an earlier one.
pub struct Org {
    /// Department of each person.
    pub dept_of: Vec<usize>,
    /// Parent department of each department (`Sub(dJ, parent)`).
    pub parent: Vec<Option<usize>>,
    /// Whether a department has a worker, hence a head.
    pub staffed: Vec<bool>,
}

impl Org {
    /// `people` people in `people / PEOPLE_PER_DEPT` departments.
    pub fn generate(people: usize, seed: u64) -> Org {
        let depts = (people / PEOPLE_PER_DEPT).max(2);
        let mut rng = SplitMix64::new(seed);
        let parent: Vec<Option<usize>> =
            (0..depts).map(|j| (j > 0).then(|| rng.below(j))).collect();
        let dept_of: Vec<usize> = (0..people).map(|_| rng.below(depts)).collect();
        let mut staffed = vec![false; depts];
        for &d in &dept_of {
            staffed[d] = true;
        }
        Org {
            dept_of,
            parent,
            staffed,
        }
    }

    /// The program text a client would load: rules, then facts.
    pub fn program_text(&self) -> String {
        let mut s = String::from(ORG_RULES);
        for (j, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                s.push_str(&format!("Sub(d{j},d{p}).\n"));
            }
        }
        for (i, d) in self.dept_of.iter().enumerate() {
            s.push_str(&format!("Works(p{i},d{d}).\n"));
        }
        s
    }

    /// Closed form of `Reports(pI,M), Heads(M,dJ)`: person `i` reports to
    /// a head of department `j` iff `j` has a head and is `i`'s own
    /// department or its parent.
    pub fn reports_to_head_of(&self, i: usize, j: usize) -> bool {
        let d = self.dept_of[i];
        self.staffed[j] && (d == j || self.parent[d] == Some(j))
    }

    /// Facts an insert of `Works(nK,dJ)` adds when `j` is staffed: the
    /// fact itself, a report to `j`'s head, and one to the parent's head
    /// when the parent has one.
    pub fn insert_new_facts(&self, j: usize) -> usize {
        2 + usize::from(self.parent[j].is_some_and(|p| self.staffed[p]))
    }

    /// The `i`-th query of the read stream: half aim at the person's own
    /// or parent department (mostly `true`), half at a random one.
    pub fn query(&self, rng: &mut SplitMix64) -> (String, bool) {
        let i = rng.below(self.dept_of.len());
        let d = self.dept_of[i];
        let j = if rng.flip() {
            match self.parent[d] {
                Some(p) if rng.flip() => p,
                _ => d,
            }
        } else {
            rng.below(self.parent.len())
        };
        (
            format!("query Reports(p{i},M), Heads(M,d{j})"),
            self.reports_to_head_of(i, j),
        )
    }

    /// The `k`-th update of the write stream: the insert line, the
    /// retract line and the insert's expected `new=` count.
    pub fn update(&self, k: u64, rng: &mut SplitMix64) -> (String, String, usize) {
        let staffed: Vec<usize> = (0..self.staffed.len())
            .filter(|&j| self.staffed[j])
            .collect();
        let j = *rng.pick(&staffed);
        let fact = format!("Works(n{},d{j}).", k % WRITE_NAME_POOL);
        (
            format!("insert {fact}"),
            format!("retract {fact}"),
            self.insert_new_facts(j),
        )
    }
}

/// The E13 transitive-closure input: seeded random graphs and the rule.
pub struct ChaseInput {
    /// Vocabulary with the graphs' constants and the rule's symbols.
    pub voc: Vocabulary,
    /// The graphs, chased in turn, so a run's figures average over
    /// graph shapes instead of hanging on one.
    pub dbs: Vec<Instance>,
    /// `E(X,Y), E(Y,Z) -> E(X,Z)`.
    pub theory: Theory,
}

/// Nodes of each E13 graph.
pub const CHASE_NODES: usize = 120;
/// Edges of each E13 graph.
pub const CHASE_EDGES: usize = 360;
/// Graphs per run.
pub const CHASE_GRAPHS: usize = 8;
/// Round budget of the E13 chase (transitive closure needs far fewer).
pub const CHASE_ROUNDS: u32 = 8;

impl ChaseInput {
    /// The seeded graphs and the transitive-closure rule.
    pub fn generate(seed: u64) -> ChaseInput {
        let mut voc = Vocabulary::new();
        let mut rng = SplitMix64::new(seed);
        let dbs = (0..CHASE_GRAPHS)
            .map(|_| bddfc_zoo::random_graph(&mut voc, CHASE_NODES, CHASE_EDGES, rng.next_u64()))
            .collect();
        let (theory, _, _) =
            parse_into("E(X,Y), E(Y,Z) -> E(X,Z).", &mut voc).expect("transitive closure parses");
        ChaseInput { voc, dbs, theory }
    }
}

/// One Theorem 2 case: a zoo program, a query it does not entail, and
/// the countermodel size EXPERIMENTS.md (E8) records.
pub struct FcCase {
    /// The program.
    pub prog: Program,
    /// The query, parsed into `voc`.
    pub query: ConjunctiveQuery,
    /// `prog.voc` extended with the query's variables.
    pub voc: Vocabulary,
    /// Expected `|M|`.
    pub model_size: usize,
}

/// The three E8 cases one `fc_pipeline` operation certifies, in order.
pub fn fc_cases() -> Vec<FcCase> {
    [
        (bddfc_zoo::paper::CHAIN_THEORY_SRC, "E(X,X)", 9),
        (bddfc_zoo::paper::EXAMPLE7_SRC, "R(X,Y), E(X,Y)", 11),
        (bddfc_zoo::paper::LINEAR_ONTOLOGY_SRC, "HasParent(W,W)", 13),
    ]
    .into_iter()
    .map(|(src, q, model_size)| {
        let prog = parse_program(src).expect("zoo source parses");
        let mut voc = prog.voc.clone();
        let query = parse_query(q, &mut voc).expect("case query parses");
        FcCase {
            prog,
            query,
            voc,
            model_size,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_chase::{certain_ucq_outcome, Certainty, ChaseConfig};
    use bddfc_core::Ucq;

    /// The closed form agrees with a from-scratch chase on every
    /// (person, department) pair of a small organisation.
    #[test]
    fn closed_form_matches_certain_answers() {
        let org = Org::generate(60, 7);
        let prog = parse_program(&org.program_text()).unwrap();
        for i in 0..org.dept_of.len() {
            for j in 0..org.parent.len() {
                let mut voc = prog.voc.clone();
                let q = parse_query(&format!("Reports(p{i},M), Heads(M,d{j})"), &mut voc).unwrap();
                let out = certain_ucq_outcome(
                    &prog.instance,
                    &prog.theory,
                    &mut voc,
                    &Ucq::single(q),
                    ChaseConfig::default(),
                );
                let expected = org.reports_to_head_of(i, j);
                assert_eq!(
                    matches!(out.certainty, Certainty::True(_)),
                    expected,
                    "p{i} d{j}"
                );
                assert!(!matches!(out.certainty, Certainty::Unknown));
            }
        }
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        assert_eq!(
            Org::generate(500, 3).program_text(),
            Org::generate(500, 3).program_text()
        );
        assert_ne!(
            Org::generate(500, 3).program_text(),
            Org::generate(500, 4).program_text()
        );
    }
}
