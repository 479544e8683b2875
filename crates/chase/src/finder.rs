//! A complete bounded-size finite model finder.
//!
//! Given a theory `T`, an instance `D`, an optional forbidden query `Φ` and
//! a size bound `N`, the finder searches for a finite `M ⊇ D` with
//! `M ⊨ T`, `M ⊭ Φ` and at most `N` domain elements — exactly the object
//! whose existence Finite Controllability (Definition 1) asserts.
//!
//! The search is a DFS over *repairs*: at each node it picks the first rule
//! violation and branches over all ways to supply witnesses — every
//! existing element, or one fresh element drawn from a canonical pool
//! (using the lowest-index unused pool element is a sound symmetry
//! reduction: unused pool elements are interchangeable). The search is
//! **complete**: if some model of size ≤ N avoiding Φ exists, the branch
//! that mirrors it (choose witnesses the model chooses) is explored, so
//! `NoModelWithin` answers are proofs of non-existence up to size N.
//!
//! This is the tool that demonstrates, computationally, the *failure* of FC
//! for the Section 5.5 "notorious example".

use bddfc_core::fxhash::FxHashSet;
use bddfc_core::obs::{Event, EventSink, SpanTimer, NULL};
use bddfc_core::par;
use bddfc_core::satisfaction::theory_violations;
use bddfc_core::{hom, ConjunctiveQuery, ConstId, Fact, Instance, Term, Theory, VarId, Vocabulary};

/// Limits for the model search.
#[derive(Clone, Copy, Debug)]
pub struct FinderConfig {
    /// Maximum number of domain elements in the model.
    pub max_size: usize,
    /// Maximum number of DFS nodes to expand before giving up.
    pub max_nodes: u64,
}

impl FinderConfig {
    /// Search for models of at most `max_size` elements with a default node
    /// budget.
    pub fn size(max_size: usize) -> Self {
        FinderConfig { max_size, max_nodes: 2_000_000 }
    }
}

/// Outcome of a bounded model search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A model was found.
    Found(Instance),
    /// The search space up to the size bound was exhausted: **no** model of
    /// at most `max_size` elements exists (under the forbidden query).
    NoModelWithin(usize),
    /// The node budget ran out before the space was exhausted.
    Budget,
}

impl SearchOutcome {
    /// The model, if found.
    pub fn model(&self) -> Option<&Instance> {
        match self {
            SearchOutcome::Found(m) => Some(m),
            _ => None,
        }
    }
}

struct Finder<'a> {
    theory: &'a Theory,
    forbidden: Option<&'a ConjunctiveQuery>,
    pool: Vec<ConstId>,
    max_size: usize,
    nodes_left: u64,
    visited: FxHashSet<Vec<Fact>>,
    /// When this search runs as top-level branch `idx` of a parallel
    /// [`find_model`], the shared short-circuit flag. A branch abandons
    /// only once a *strictly earlier* branch has found a model — its own
    /// result is then discarded, so abandoning cannot change the outcome.
    cancel: Option<(&'a par::Cancel, usize)>,
}

enum Dfs {
    Found(Instance),
    Exhausted,
    Budget,
}

impl Finder<'_> {
    fn canonical_key(inst: &Instance) -> Vec<Fact> {
        let mut facts = inst.facts().to_vec();
        facts.sort_unstable();
        facts
    }

    fn dfs(&mut self, inst: &Instance) -> Dfs {
        if let Some((cancel, idx)) = self.cancel {
            if cancel.superseded(idx) {
                return Dfs::Exhausted; // discarded by the combiner anyway
            }
        }
        if self.nodes_left == 0 {
            return Dfs::Budget;
        }
        self.nodes_left -= 1;
        if let Some(q) = self.forbidden {
            if hom::satisfies_cq(inst, q) {
                return Dfs::Exhausted; // dead branch: query is monotone
            }
        }
        let violations = theory_violations(inst, self.theory);
        let Some(violation) = violations.first() else {
            return Dfs::Found(inst.clone());
        };
        let rule = &self.theory.rules[violation.rule_idx];
        let mut ex: Vec<VarId> = rule.existential_vars().into_iter().collect();
        ex.sort_unstable();

        // Candidate witnesses: every current domain element, plus the first
        // unused pool element (fresh elements are interchangeable).
        let mut domain = inst.sorted_domain();
        if domain.len() < self.max_size {
            if let Some(&fresh) = self.pool.iter().find(|c| !inst.in_domain(**c)) {
                domain.push(fresh);
            }
        }

        // Enumerate all assignments of `ex` to candidates.
        let mut assignment = vec![0usize; ex.len()];
        let mut budget_hit = false;
        loop {
            let mut binding = violation.binding.clone();
            for (i, &v) in ex.iter().enumerate() {
                binding.insert(v, domain[assignment[i]]);
            }
            let mut next = inst.clone();
            let mut ok = true;
            for atom in &rule.head {
                let grounded = atom.apply(&|v| binding.get(&v).map(|&c| Term::Const(c)));
                match grounded.to_fact() {
                    Some(f) => {
                        next.insert(f);
                    }
                    None => ok = false,
                }
            }
            if ok && next.domain_size() <= self.max_size {
                let key = Self::canonical_key(&next);
                if self.visited.insert(key) {
                    match self.dfs(&next) {
                        Dfs::Found(m) => return Dfs::Found(m),
                        Dfs::Budget => budget_hit = true,
                        Dfs::Exhausted => {}
                    }
                }
            }
            // Advance the odometer; empty `ex` means a single iteration.
            if ex.is_empty() {
                break;
            }
            let mut i = 0;
            loop {
                assignment[i] += 1;
                if assignment[i] < domain.len() {
                    break;
                }
                assignment[i] = 0;
                i += 1;
                if i == ex.len() {
                    break;
                }
            }
            if i == ex.len() {
                break;
            }
        }
        if budget_hit {
            Dfs::Budget
        } else {
            Dfs::Exhausted
        }
    }
}

/// Searches for a finite model `M ⊇ db`, `M ⊨ theory`, `M ⊭ forbidden`
/// with at most `config.max_size` elements.
///
/// The root node is expanded sequentially; its child branches are
/// independent searches (each with a fresh memo table and a node budget of
/// `max_nodes - 1`) and explore on separate threads. The branch list is in
/// the canonical odometer order and the combiner reports the
/// lowest-index found model, so the outcome is identical at any thread
/// count: every branch below the winner always runs to completion, and a
/// branch's verdict is a pure function of its instance and budget.
pub fn find_model(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    forbidden: Option<&ConjunctiveQuery>,
    config: FinderConfig,
) -> SearchOutcome {
    find_model_with(db, theory, voc, forbidden, config, &NULL)
}

/// Like [`find_model`], but reports one `finder`/`search` event into
/// `sink` when the search concludes. Fields: `branches` (root branches
/// opened), `cancelled` (branches whose results the lowest-winner rule
/// discards, i.e. those after the winning index — a deterministic count,
/// unlike the timing-dependent mid-run cancellations), `winner` (1-based
/// winning branch index, 0 if none), `found`, `budget_hit`; gauges:
/// `wall_ns`, `threads`.
pub fn find_model_with<S: EventSink>(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    forbidden: Option<&ConjunctiveQuery>,
    config: FinderConfig,
    sink: &S,
) -> SearchOutcome {
    let timer = SpanTimer::start();
    let span = if S::ENABLED { sink.span_open("finder", "search", 0, None) } else { 0 };
    let (outcome, branches, winner) = find_model_impl(db, theory, voc, forbidden, config);
    if S::ENABLED {
        let cancelled = winner.map_or(0, |w| branches.saturating_sub(w as u64 + 1));
        sink.record(Event {
            engine: "finder",
            name: "search",
            parent: span,
            key: None,
            fields: &[
                ("branches", branches),
                ("cancelled", cancelled),
                ("winner", winner.map_or(0, |w| w as u64 + 1)),
                ("found", u64::from(matches!(outcome, SearchOutcome::Found(_)))),
                ("budget_hit", u64::from(matches!(outcome, SearchOutcome::Budget))),
            ],
            gauges: &[
                ("wall_ns", timer.elapsed_ns()),
                ("threads", par::num_threads() as u64),
            ],
        });
        sink.span_close(span);
    }
    outcome
}

/// The search body shared by [`find_model`] and [`find_model_with`];
/// besides the outcome it reports how many root branches were opened and
/// which one (if any) produced the winning model.
fn find_model_impl(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    forbidden: Option<&ConjunctiveQuery>,
    config: FinderConfig,
) -> (SearchOutcome, u64, Option<usize>) {
    let base_elems = db.domain_size();
    let pool_size = config.max_size.saturating_sub(base_elems);
    let pool: Vec<ConstId> = (0..pool_size).map(|_| voc.fresh_null("w")).collect();

    // Expand the root by hand — one `dfs` step's worth of budget and the
    // same child enumeration — so the branches can fan out.
    if config.max_nodes == 0 {
        return (SearchOutcome::Budget, 0, None);
    }
    if let Some(q) = forbidden {
        if hom::satisfies_cq(db, q) {
            return (SearchOutcome::NoModelWithin(config.max_size), 0, None);
        }
    }
    let violations = theory_violations(db, theory);
    let Some(violation) = violations.first() else {
        return (SearchOutcome::Found(db.clone()), 0, None);
    };
    let rule = &theory.rules[violation.rule_idx];
    let mut ex: Vec<VarId> = rule.existential_vars().into_iter().collect();
    ex.sort_unstable();

    // Candidate witnesses: every current domain element, plus the first
    // unused pool element (fresh elements are interchangeable).
    let mut domain = db.sorted_domain();
    if domain.len() < config.max_size {
        if let Some(&fresh) = pool.iter().find(|c| !db.in_domain(**c)) {
            domain.push(fresh);
        }
    }

    // Enumerate the root's children in canonical odometer order,
    // deduplicated among themselves.
    let mut branches: Vec<Instance> = Vec::new();
    if !ex.is_empty() && domain.is_empty() {
        return (SearchOutcome::NoModelWithin(config.max_size), 0, None);
    }
    let mut seen: FxHashSet<Vec<Fact>> = FxHashSet::default();
    let mut assignment = vec![0usize; ex.len()];
    loop {
        let mut binding = violation.binding.clone();
        for (i, &v) in ex.iter().enumerate() {
            binding.insert(v, domain[assignment[i]]);
        }
        let mut next = db.clone();
        let mut ok = true;
        for atom in &rule.head {
            let grounded = atom.apply(&|v| binding.get(&v).map(|&c| Term::Const(c)));
            match grounded.to_fact() {
                Some(f) => {
                    next.insert(f);
                }
                None => ok = false,
            }
        }
        if ok && next.domain_size() <= config.max_size && seen.insert(Finder::canonical_key(&next))
        {
            branches.push(next);
        }
        // Advance the odometer; empty `ex` means a single iteration.
        if ex.is_empty() {
            break;
        }
        let mut i = 0;
        loop {
            assignment[i] += 1;
            if assignment[i] < domain.len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
            if i == ex.len() {
                break;
            }
        }
        if i == ex.len() {
            break;
        }
    }

    let branch_budget = config.max_nodes - 1;
    // A branch may search its whole node budget; counting one work unit
    // per budgeted node (a node costs far more than a witness check)
    // keeps root branches parallel at the default budgets.
    let work = usize::try_from(branch_budget).unwrap_or(usize::MAX).saturating_mul(branches.len());
    let outcomes: Vec<Dfs> = par::par_map_cancel(&branches, work, |idx, inst, cancel| {
        let mut finder = Finder {
            theory,
            forbidden,
            pool: pool.clone(),
            max_size: config.max_size,
            nodes_left: branch_budget,
            visited: FxHashSet::default(),
            cancel: Some((cancel, idx)),
        };
        let out = finder.dfs(inst);
        if matches!(out, Dfs::Found(_)) {
            cancel.win(idx);
        }
        out
    });

    // Combine exactly as the sequential child loop did: the first found
    // model wins; a budget hit anywhere else taints exhaustion.
    let opened = branches.len() as u64;
    let mut budget_hit = false;
    for (idx, out) in outcomes.into_iter().enumerate() {
        match out {
            Dfs::Found(m) => return (SearchOutcome::Found(m), opened, Some(idx)),
            Dfs::Budget => budget_hit = true,
            Dfs::Exhausted => {}
        }
    }
    let outcome = if budget_hit {
        SearchOutcome::Budget
    } else {
        SearchOutcome::NoModelWithin(config.max_size)
    };
    (outcome, opened, None)
}

/// Convenience wrapper asking the FC question at a fixed size: is there a
/// finite model of `db, theory` of size ≤ N in which `query` is false?
pub fn countermodel(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    query: &ConjunctiveQuery,
    max_size: usize,
) -> SearchOutcome {
    find_model(db, theory, voc, Some(query), FinderConfig::size(max_size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::parse_program;
    use bddfc_core::satisfaction::satisfies_theory;

    #[test]
    fn successor_rule_folds_into_cycle() {
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let mut voc = prog.voc.clone();
        let out = find_model(&prog.instance, &prog.theory, &mut voc, None, FinderConfig::size(3));
        let m = out.model().expect("model exists");
        assert!(satisfies_theory(m, &prog.theory));
        assert!(m.models(&prog.instance));
        assert!(m.domain_size() <= 3);
    }

    #[test]
    fn countermodel_for_fc_theory_found() {
        // Chase of E(a,b) under the successor rule never has E(X,X);
        // a finite countermodel avoiding loops needs a 2-cycle b->c->b or
        // similar: E(X,X) must stay false.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z). E(a,b). ?- E(X,X).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let out = countermodel(&prog.instance, &prog.theory, &mut voc, &prog.queries[0], 4);
        let m = out.model().expect("countermodel exists");
        assert!(satisfies_theory(m, &prog.theory));
        assert!(!hom::satisfies_cq(m, &prog.queries[0]));
    }

    #[test]
    fn impossible_size_is_exhausted() {
        // With only 1 element available, E(a,b) forces 2 elements — in
        // fact the db alone already needs two, so no model of size 1.
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let mut voc = prog.voc.clone();
        let out = find_model(&prog.instance, &prog.theory, &mut voc, None, FinderConfig::size(1));
        assert_eq!(out, SearchOutcome::NoModelWithin(1));
    }

    #[test]
    fn forbidden_query_prunes_to_exhaustion() {
        // Forbid every edge: E(a,b) itself violates it, no model at all.
        let prog = parse_program("E(a,b). ?- E(X,Y).").unwrap();
        let mut voc = prog.voc.clone();
        let out = countermodel(&prog.instance, &Default::default(), &mut voc, &prog.queries[0], 5);
        assert_eq!(out, SearchOutcome::NoModelWithin(5));
    }

    #[test]
    fn datalog_rules_are_applied_deterministically() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z). E(a,b). E(b,c).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let out = find_model(&prog.instance, &prog.theory, &mut voc, None, FinderConfig::size(3));
        let m = out.model().unwrap();
        assert_eq!(m.len(), 3); // transitive closure, no choice points
    }

    #[test]
    fn notorious_example_has_no_small_countermodel() {
        // Section 5.5: T = { E(x,y) -> ∃z E(y,z);
        //                    R(x,y), E(x,x'), E(y,z), E(z,y') -> R(x',y') }
        // D = { E(a0,a1), R(a0,a0) }, Φ = E(x,y) ∧ R(y,y).
        // The paper proves every finite model satisfies Φ; we verify it
        // computationally up to size 4.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             R(X,Y), E(X,X2), E(Y,Z), E(Z,Y2) -> R(X2,Y2).
             E(a0,a1). R(a0,a0).
             ?- E(X,Y), R(Y,Y).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let out = countermodel(&prog.instance, &prog.theory, &mut voc, &prog.queries[0], 4);
        assert_eq!(out, SearchOutcome::NoModelWithin(4));
    }

    #[test]
    fn notorious_example_without_forbidden_query_has_model() {
        // Sanity: dropping the ¬Φ constraint, a small model exists.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             R(X,Y), E(X,X2), E(Y,Z), E(Z,Y2) -> R(X2,Y2).
             E(a0,a1). R(a0,a0).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let out = find_model(&prog.instance, &prog.theory, &mut voc, None, FinderConfig::size(4));
        let m = out.model().expect("model exists");
        assert!(satisfies_theory(m, &prog.theory));
    }

    #[test]
    fn sink_reports_branches_and_winner() {
        use bddfc_core::obs::Memory;
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let sink = Memory::new(8);
        let mut voc = prog.voc.clone();
        let out = find_model_with(
            &prog.instance,
            &prog.theory,
            &mut voc,
            None,
            FinderConfig::size(3),
            &sink,
        );
        assert!(out.model().is_some());
        assert_eq!(sink.event_counts(), vec![(("finder", "search"), 1)]);
        assert_eq!(sink.counter("finder", "search", "found"), 1);
        let branches = sink.counter("finder", "search", "branches");
        let winner = sink.counter("finder", "search", "winner");
        let cancelled = sink.counter("finder", "search", "cancelled");
        assert!(branches >= 1);
        assert!(winner >= 1 && winner <= branches);
        // Deterministic definition: everything after the winner counts as
        // cancelled, regardless of actual mid-run timing.
        assert_eq!(cancelled, branches - winner);
    }

    #[test]
    fn budget_is_reported() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y) -> exists Z . F(Y,Z).
             F(X,Y) -> exists Z . E(Y,Z).
             E(a,b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let out = find_model(
            &prog.instance,
            &prog.theory,
            &mut voc,
            None,
            // One node suffices only to expand the root; its first repair
            // then exhausts the budget before any model can be completed.
            FinderConfig { max_size: 12, max_nodes: 1 },
        );
        assert_eq!(out, SearchOutcome::Budget);
    }
}
