//! Incremental chase maintenance: a resident chased instance that
//! absorbs fact insertions as semi-naive delta rounds and fact
//! retractions by DRed-style over-delete/re-derive.
//!
//! ## Why insertion is "just another round"
//!
//! A semi-naive chase round enumerates only triggers that join at least
//! one fact from the previous round's delta — the invariant being that
//! every trigger contained entirely in older facts was already processed
//! (repaired, or skipped because a witness existed; the chase never
//! deletes, so the witness persists). An *insertion into a fixpoint
//! instance* satisfies exactly the same invariant with the inserted
//! facts as the delta, so [`IncrementalChase::insert_with`] simply
//! appends the new facts and resumes the engine's [`ChaseStepper`] with
//! them as the pending delta: rounds already applied are never re-run,
//! and only rules whose bodies can touch the delta re-fire. The closure
//! rounds of every mutation run under `ChaseStepper::run`, the budget
//! policy every chase entry point shares, so a [`MaintainConfig`] stops
//! a closure exactly where a [`crate::ChaseConfig`] with the same limits
//! stops a from-scratch chase.
//!
//! ## Why retraction needs provenance
//!
//! The chase is monotone; deletion is not. Removing a base fact may
//! invalidate derived facts, which may invalidate further facts, while
//! other copies remain independently derivable. The classical answer is
//! **DRed** (delete-and-rederive): over-delete everything whose recorded
//! derivation (transitively) used a deleted fact, then re-run the chase
//! on the survivors so anything with an alternative derivation comes
//! back. To support this, maintenance rounds run through
//! [`ChaseStepper::step_traced`], recording one canonical derivation
//! ([`Derivation`], the same structure `trace::traced_chase` produces)
//! per derived fact.
//!
//! A retraction costs its cone, not the instance, in two places:
//!
//! * **Over-deletion** walks a reverse premise→dependents index. It is
//!   built from the recorded derivations on the first retraction (so a
//!   load that never retracts never pays for it) and from then on kept
//!   in step with them as derivations are recorded, replaced and
//!   removed.
//! * **Re-derivation** is one *seeded* round instead of a full one
//!   (`ChaseStepper::rederive`). It enumerates the triggers whose head
//!   unifies with a deleted fact, with the frontier bound to that fact's
//!   values, plus the triggers of whatever delta an earlier budget-cut
//!   mutation left pending. Then closure rounds continue as usual.
//!
//! *Why the seeded round equals a full one.* Before the retraction,
//! every trigger inside the processed prefix of the instance had a
//! witness: the restricted chase repaired it or found it satisfied, and
//! the chase never deletes. So a survivor trigger that is unwitnessed
//! now either joins a pending-delta fact, or lost a witness fact `d` to
//! the deletion. Then `d` is the image of a head atom under a
//! homomorphism extending the trigger's frontier, so the head atom
//! unifies with `d` and the trigger is among the seeded candidates. The
//! candidates are thus a superset of the repairs a full round over the
//! survivors would admit, and admission drops the rest. Repairs are
//! applied in the same canonical `(rule, frontier)` order, so the
//! round yields the same facts, null names and derivations, and is
//! counted as one round even when it admits nothing.
//!
//! The resident instance is held behind an `Arc`
//! ([`IncrementalChase::shared_instance`]), so a service can publish it
//! without a copy. A retraction builds a fresh survivor instance and
//! copies nothing; an insertion copies the instance once if a published
//! snapshot still shares it.
//!
//! The maintained invariant, restored after every mutation: **every
//! resident fact is a base fact or carries a recorded derivation whose
//! premises are themselves resident**. By induction every resident fact
//! has a full derivation tree over the current base, so the resident
//! instance maps homomorphically into every model of (base, theory) —
//! which is what makes resident-instance query answers *certain*
//! answers (a query witnessed in the resident instance is certainly
//! entailed even before fixpoint; "certainly false" additionally needs
//! the fixpoint flag).
//!
//! The maintained chase is always the restricted variant under
//! semi-naive evaluation — the pair whose resumption invariant the
//! module relies on (restricted admission is stateless; oblivious
//! resumption would need the fired set carried across mutations).

use crate::answers::BudgetExhausted;
use crate::engine::{ChaseStepper, ChaseStrategy, ChaseVariant};
use crate::trace::{Derivation, DerivationTree, TracedChase};
use bddfc_core::fxhash::{FxHashMap, FxHashSet};
use bddfc_core::obs::{EventSink, NULL};
use bddfc_core::{Fact, Instance, Theory, Vocabulary};
use std::ops::ControlFlow;
use std::sync::Arc;

/// The reverse premise index: each premise to the derived facts whose
/// recorded derivation uses it (once per derivation, however often the
/// premise repeats in the body).
type ReverseIndex = FxHashMap<Fact, Vec<Fact>>;

/// The distinct premises of a derivation, in body order.
fn distinct_premises(d: &Derivation) -> impl Iterator<Item = &Fact> {
    d.premises.iter().enumerate().filter(|(i, p)| !d.premises[..*i].contains(p)).map(|(_, p)| p)
}

/// Adds `fact`'s derivation `d` to the reverse index.
fn link(rev: &mut ReverseIndex, fact: &Fact, d: &Derivation) {
    for p in distinct_premises(d) {
        rev.entry(p.clone()).or_default().push(fact.clone());
    }
}

/// Removes `fact`'s derivation `d` from the reverse index, except under
/// `skip` (a premise whose whole entry the caller already took).
fn unlink(rev: &mut ReverseIndex, fact: &Fact, d: &Derivation, skip: Option<&Fact>) {
    for p in distinct_premises(d).filter(|p| Some(*p) != skip) {
        let Some(deps) = rev.get_mut(p) else { continue };
        if let Some(i) = deps.iter().position(|f| f == fact) {
            deps.swap_remove(i);
        }
        if deps.is_empty() {
            rev.remove(p);
        }
    }
}

/// The reverse index of `provenance`, built from scratch.
fn reverse_index(provenance: &FxHashMap<Fact, Derivation>) -> ReverseIndex {
    let mut rev = ReverseIndex::default();
    for (f, d) in provenance {
        link(&mut rev, f, d);
    }
    rev
}

/// Per-mutation resource limits for incremental maintenance — the
/// analogue of [`crate::engine::ChaseConfig`] for a single
/// insert/retract's closure rounds.
#[derive(Clone, Copy, Debug)]
pub struct MaintainConfig {
    /// Maximum closure rounds one mutation may run.
    pub max_rounds: u32,
    /// Stop (incomplete) once the instance exceeds this many facts.
    pub max_facts: usize,
}

impl Default for MaintainConfig {
    fn default() -> Self {
        MaintainConfig { max_rounds: 64, max_facts: 1_000_000 }
    }
}

/// What one mutation did to the resident instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaintainOutcome {
    /// Facts added to the instance by this mutation (inserted base facts
    /// that were genuinely new, plus everything its closure rounds
    /// derived — for a retraction, everything re-derivation brought
    /// back).
    pub new_facts: usize,
    /// Base facts actually removed (retraction only).
    pub retracted: usize,
    /// Derived facts removed by the DRed over-deletion cascade, beyond
    /// the retracted base facts themselves (retraction only; counts
    /// facts later re-derived too).
    pub overdeleted: usize,
    /// Closure rounds this mutation ran, counting the empty round that
    /// certifies a fixpoint.
    pub rounds: u32,
    /// Whether the resident instance is at a fixpoint of the theory.
    pub complete: bool,
    /// `Some` iff `!complete`: which budget stopped the closure.
    pub exhausted: Option<BudgetExhausted>,
    /// Resident instance size after the mutation.
    pub facts_total: usize,
}

/// A resident chased instance with provenance, maintained incrementally
/// under fact insertions and retractions (see the module docs).
pub struct IncrementalChase {
    theory: Theory,
    /// Base (extensional) facts, in first-insertion order.
    base: Vec<Fact>,
    base_set: FxHashSet<Fact>,
    /// The resident instance: base plus everything derived so far.
    /// Shared with the epochs a service publishes; a mutation copies it
    /// only while an epoch still holds it.
    instance: Arc<Instance>,
    /// Copy-on-write copies of `instance` made so far.
    instance_copies: u64,
    /// One recorded derivation per derived resident fact.
    provenance: FxHashMap<Fact, Derivation>,
    /// `provenance` reversed, kept in step with it from the first
    /// retraction on (`None` before: a load that never retracts never
    /// pays for it).
    rev: Option<ReverseIndex>,
    /// Start of the unprocessed suffix of `instance.facts()` — equal to
    /// `instance.len()` exactly when the closure is complete.
    delta_start: usize,
    complete: bool,
    exhausted: Option<BudgetExhausted>,
    rounds_total: u64,
    /// Static cardinality priors for the batch join planner (see
    /// [`IncrementalChase::with_priors`]).
    priors: Option<bddfc_core::Priors>,
}

impl IncrementalChase {
    /// An empty maintained instance under `theory`. Empty instances are
    /// vacuously at fixpoint (rule bodies are non-empty).
    pub fn new(theory: &Theory) -> Self {
        IncrementalChase {
            theory: theory.clone(),
            base: Vec::new(),
            base_set: FxHashSet::default(),
            instance: Arc::new(Instance::new()),
            instance_copies: 0,
            provenance: FxHashMap::default(),
            rev: None,
            delta_start: 0,
            complete: true,
            exhausted: None,
            rounds_total: 0,
            priors: None,
        }
    }

    /// Seeds every closure's batch join planner with static cardinality
    /// priors (from the `bddfc-analyze` cost model). Priors are
    /// tie-breakers below live cardinalities, so the maintained instance
    /// is identical with or without them; only join work can differ.
    pub fn with_priors(mut self, priors: bddfc_core::Priors) -> Self {
        self.priors = (!priors.is_empty()).then_some(priors);
        self
    }

    /// The resident instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The resident instance as a shared handle, for publishing it
    /// without a copy. While the handle lives, the next mutation that
    /// changes the instance in place copies it first.
    pub fn shared_instance(&self) -> Arc<Instance> {
        Arc::clone(&self.instance)
    }

    /// Copy-on-write copies of the resident instance made so far: one
    /// per mutation that had to change an instance still shared through
    /// [`IncrementalChase::shared_instance`].
    pub fn instance_copies(&self) -> u64 {
        self.instance_copies
    }

    /// The resident instance for an in-place change, copied first if it
    /// is shared.
    fn instance_mut(&mut self) -> &mut Instance {
        if Arc::get_mut(&mut self.instance).is_none() {
            self.instance_copies += 1;
        }
        Arc::make_mut(&mut self.instance)
    }

    /// The theory the instance is maintained under.
    pub fn theory(&self) -> &Theory {
        &self.theory
    }

    /// Current base facts, in first-insertion order.
    pub fn base(&self) -> &[Fact] {
        &self.base
    }

    /// Whether the resident instance is at a fixpoint of the theory.
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// Which budget stopped the last incomplete closure (`None` when
    /// [`IncrementalChase::complete`]).
    pub fn exhausted(&self) -> Option<BudgetExhausted> {
        self.exhausted
    }

    /// Total closure rounds run over the lifetime of this instance.
    pub fn rounds_total(&self) -> u64 {
        self.rounds_total
    }

    /// Number of derived resident facts carrying a recorded derivation —
    /// the size of the provenance (derivation) index.
    pub fn provenance_len(&self) -> usize {
        self.provenance.len()
    }

    /// Inserts base facts and closes over them with semi-naive delta
    /// rounds (plus any delta still pending from an earlier exhausted
    /// mutation). Already-present facts are absorbed silently — they
    /// become base-supported in addition to whatever support they had.
    pub fn insert_with<S: EventSink>(
        &mut self,
        facts: &[Fact],
        voc: &mut Vocabulary,
        config: MaintainConfig,
        sink: &S,
    ) -> MaintainOutcome {
        let before = self.instance.len();
        for f in facts {
            if self.base_set.insert(f.clone()) {
                self.base.push(f.clone());
            }
        }
        if facts.iter().any(|f| !self.instance.contains(f)) {
            let instance = self.instance_mut();
            for f in facts {
                instance.insert(f.clone());
            }
        }
        let mut outcome = self.close(voc, config, sink, None);
        outcome.new_facts = self.instance.len() - before;
        outcome
    }

    /// [`IncrementalChase::insert_with`] without telemetry.
    pub fn insert(
        &mut self,
        facts: &[Fact],
        voc: &mut Vocabulary,
        config: MaintainConfig,
    ) -> MaintainOutcome {
        self.insert_with(facts, voc, config, &NULL)
    }

    /// Retracts base facts by DRed: over-delete every fact whose
    /// recorded derivation transitively used a deleted fact, then
    /// re-derive from the survivors so facts with alternative
    /// derivations come back. Retracting a fact that is not currently a
    /// base fact is a no-op (in particular, purely-derived facts cannot
    /// be retracted — they would immediately be re-derived).
    pub fn retract_with<S: EventSink>(
        &mut self,
        facts: &[Fact],
        voc: &mut Vocabulary,
        config: MaintainConfig,
        sink: &S,
    ) -> MaintainOutcome {
        let mut retracted = 0usize;
        let mut deleted: FxHashSet<Fact> = FxHashSet::default();
        let mut work: Vec<Fact> = Vec::new();
        for f in facts {
            if self.base_set.remove(f) {
                retracted += 1;
                // A retracted base fact survives as a derived fact if it
                // has a recorded derivation; otherwise it is a deletion
                // seed.
                if !self.provenance.contains_key(f) {
                    if deleted.insert(f.clone()) {
                        work.push(f.clone());
                    }
                }
            }
        }
        if retracted == 0 {
            return self.outcome(0);
        }
        self.base.retain(|f| self.base_set.contains(f));
        let seed_count = deleted.len();

        // Over-delete: walk the dependency cone of the seeds through the
        // reverse index (built on the first retraction, maintained
        // since). A dependent loses its stored derivation; if it is not
        // base-supported it is deleted and cascades. A deleted fact
        // supports nothing afterwards, so its index entry goes whole.
        let rev = self.rev.get_or_insert_with(|| reverse_index(&self.provenance));
        while let Some(x) = work.pop() {
            let Some(deps) = rev.remove(&x) else { continue };
            for dep in deps {
                let Some(d) = self.provenance.remove(&dep) else { continue };
                unlink(rev, &dep, &d, Some(&x));
                if !self.base_set.contains(&dep) && deleted.insert(dep.clone()) {
                    work.push(dep);
                }
            }
        }
        let overdeleted = deleted.len() - seed_count;

        // Rebuild the survivor instance (the store is append-only, so
        // deletion is reconstruction), preserving insertion order. The
        // unprocessed suffix maps onto the survivors' suffix.
        let mut survivors = Instance::new();
        let mut delta_start = 0;
        for (i, f) in self.instance.facts().iter().enumerate() {
            if !deleted.contains(f) {
                delta_start += usize::from(i < self.delta_start);
                survivors.insert(f.clone());
            }
        }
        let rederive_from = survivors.len();
        self.instance = Arc::new(survivors);
        self.delta_start = delta_start;

        // Re-derive: one seeded round enumerates the triggers whose head
        // unifies with a deleted fact, plus the pending delta (see the
        // module docs), then closure rounds continue as usual.
        let deleted: Vec<Fact> = deleted.into_iter().collect();
        let mut outcome = self.close(voc, config, sink, Some(&deleted));
        outcome.retracted = retracted;
        outcome.overdeleted = overdeleted;
        outcome.new_facts = self.instance.len() - rederive_from;
        outcome
    }

    /// [`IncrementalChase::retract_with`] without telemetry.
    pub fn retract(
        &mut self,
        facts: &[Fact],
        voc: &mut Vocabulary,
        config: MaintainConfig,
    ) -> MaintainOutcome {
        self.retract_with(facts, voc, config, &NULL)
    }

    /// Runs provenance-recording closure rounds over the pending delta
    /// until fixpoint or budget, under [`ChaseStepper::run`]. After a
    /// retraction, `deleted` holds the deleted facts: the first round is
    /// then the seeded re-derivation round, run (and counted) even when
    /// it finds nothing, unless no fact survived at all.
    fn close<S: EventSink>(
        &mut self,
        voc: &mut Vocabulary,
        config: MaintainConfig,
        sink: &S,
        deleted: Option<&[Fact]>,
    ) -> MaintainOutcome {
        let seeds = deleted.filter(|_| !self.instance.is_empty());
        if seeds.is_none() && self.delta_start == self.instance.len() {
            // Nothing pending (e.g. every inserted fact was already
            // resident): the completeness state is unchanged.
            return self.outcome(0);
        }
        self.instance_mut();
        let instance = Arc::into_inner(std::mem::take(&mut self.instance))
            .expect("instance_mut leaves the instance unshared");
        let delta = self.delta_start..instance.len();
        let mut stepper = ChaseStepper::resume(
            instance,
            &self.theory,
            ChaseVariant::Restricted,
            ChaseStrategy::SemiNaive,
            sink,
            delta,
        );
        if let Some(p) = &self.priors {
            stepper = stepper.with_priors(p.clone());
        }
        if let Some(d) = seeds {
            stepper = stepper.rederive(d);
        }
        let mut derivs: Vec<(Fact, Derivation)> = Vec::new();
        let (stop, rounds) = stepper.run(
            voc,
            config.max_rounds,
            config.max_facts,
            Some(&mut derivs),
            |_| ControlFlow::Continue(()),
        );
        self.exhausted = stop.and_then(BudgetExhausted::of);
        self.complete = self.exhausted.is_none();
        self.delta_start = if seeds.is_some() && rounds == 0 {
            // A zero-round budget cut off the seeded round: everything is
            // pending, so the next mutation re-enumerates every trigger.
            0
        } else {
            // At a fixpoint this is the empty last round, which starts at
            // the end of the instance.
            stepper.pending_delta().start
        };
        let round_base = self.rounds_total;
        self.rounds_total += u64::from(rounds);
        self.instance = Arc::new(stepper.into_instance());
        for (f, mut d) in derivs {
            // Stepper-local round numbers are rebased onto the lifetime
            // counter so provenance stays monotone across mutations.
            d.round = u32::try_from(round_base).unwrap_or(u32::MAX).saturating_add(d.round);
            self.record(f, d);
        }
        self.outcome(rounds)
    }

    /// The outcome of a mutation that ran `rounds` closure rounds, before
    /// the caller fills in its own fact counts.
    fn outcome(&self, rounds: u32) -> MaintainOutcome {
        MaintainOutcome {
            new_facts: 0,
            retracted: 0,
            overdeleted: 0,
            rounds,
            complete: self.complete,
            exhausted: self.exhausted,
            facts_total: self.instance.len(),
        }
    }

    /// Records `d` as `fact`'s derivation, keeping the reverse index (if
    /// built) in step, including when `d` replaces an earlier one.
    fn record(&mut self, fact: Fact, d: Derivation) {
        if let Some(rev) = &mut self.rev {
            if let Some(old) = self.provenance.get(&fact) {
                unlink(rev, &fact, old, None);
            }
            link(rev, &fact, &d);
        }
        self.provenance.insert(fact, d);
    }

    /// Extracts the derivation tree of a resident fact (`None` if the
    /// fact is not resident). Base facts are leaves.
    pub fn explain(&self, fact: &Fact) -> Option<DerivationTree> {
        self.traced_view().explain(fact)
    }

    /// A [`TracedChase`] view of the resident state (clones instance and
    /// provenance — meant for debugging commands, not hot paths).
    pub fn traced_view(&self) -> TracedChase {
        TracedChase {
            instance: (*self.instance).clone(),
            provenance: self.provenance.clone(),
            rounds: u32::try_from(self.rounds_total).unwrap_or(u32::MAX),
            fixpoint: self.complete,
        }
    }

    /// Debug invariant: every resident fact is base-supported or carries
    /// a recorded derivation whose premises are resident. Returns the
    /// first violating fact, if any.
    pub fn check_support(&self) -> Option<&Fact> {
        self.instance.facts().iter().find(|f| {
            if self.base_set.contains(f) {
                return false;
            }
            match self.provenance.get(f) {
                Some(d) => !d.premises.iter().all(|p| self.instance.contains_ground(p.pred, &p.args)),
                None => true,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, ChaseConfig};
    use bddfc_core::hom;
    use bddfc_core::parse_program;

    fn cfg() -> MaintainConfig {
        MaintainConfig::default()
    }

    /// Datalog closures are confluent, so incremental and scratch
    /// instances must be *equal as sets*, not merely query-equivalent.
    #[test]
    fn datalog_insert_batches_match_scratch_chase() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(c,d). E(d,e).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let facts: Vec<_> = prog.instance.facts().to_vec();
        let (first, rest) = facts.split_at(2);
        let out = inc.insert(first, &mut voc, cfg());
        assert!(out.complete);
        let out = inc.insert(rest, &mut voc, cfg());
        assert!(out.complete);
        let scratch =
            chase(&prog.instance, &prog.theory, &mut prog.voc.clone(), ChaseConfig::default());
        assert!(scratch.is_fixpoint());
        assert_eq!(*inc.instance(), scratch.instance);
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn datalog_retract_matches_scratch_chase_of_surviving_base() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(c,d). E(a,d).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        // Retract E(b,c): E(a,c), E(b,d) and E(a,d)-via-chain lose their
        // derivations; E(a,d) survives (still base), the others go.
        let retract = vec![prog.instance.facts()[1].clone()];
        let out = inc.retract(&retract, &mut voc, cfg());
        assert!(out.complete);
        assert_eq!(out.retracted, 1);
        assert!(out.overdeleted >= 2, "E(a,c) and E(b,d) must be over-deleted");
        let mut base = Instance::new();
        for f in inc.base() {
            base.insert(f.clone());
        }
        let scratch = chase(&base, &prog.theory, &mut prog.voc.clone(), ChaseConfig::default());
        assert_eq!(*inc.instance(), scratch.instance);
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn retract_keeps_facts_with_alternative_derivations() {
        // E(a,c) is both base and derivable from E(a,b), E(b,c):
        // retracting it from the base must keep it resident.
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(a,c).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        let eac = prog.instance.facts()[2].clone();
        let out = inc.retract(&[eac.clone()], &mut voc, cfg());
        assert_eq!(out.retracted, 1);
        assert!(inc.instance().contains_ground(eac.pred, &eac.args));
        assert!(inc.check_support().is_none());
        // Now cut its only derivation: it must disappear with it.
        let eab = prog.instance.facts()[0].clone();
        inc.retract(&[eab.clone()], &mut voc, cfg());
        assert!(!inc.instance().contains_ground(eac.pred, &eac.args));
        assert!(!inc.instance().contains_ground(eab.pred, &eab.args));
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn existential_retract_cascades_through_nulls() {
        let prog = parse_program(
            "P(X) -> exists Z . E(X,Z).
             E(X,Y) -> U(Y).
             P(a). P(b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let out = inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        assert!(out.complete);
        // P(a), P(b), E(a,n), E(b,n'), U(n), U(n').
        assert_eq!(inc.instance().len(), 6);
        let pa = prog.instance.facts()[0].clone();
        let out = inc.retract(&[pa], &mut voc, cfg());
        assert!(out.complete);
        // P(a)'s null chain (E(a,n), U(n)) must go with it, nothing
        // comes back, and the provenance index reflects the surviving
        // derived facts.
        assert_eq!(out.overdeleted, 2);
        assert_eq!(out.new_facts, 0);
        assert_eq!(inc.instance().len(), 3);
        assert!(inc.check_support().is_none());
        assert_eq!(inc.provenance_len(), 2, "E(b,n') and U(n') stay derived");
    }

    #[test]
    fn retraction_outcomes_sum_across_retractions() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(a,c).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        // Retracting base E(a,c) leaves it derivable: the cascade
        // deletes nothing, and re-derivation brings E(a,c) back from
        // E(a,b), E(b,c).
        let eac = prog.instance.facts()[2].clone();
        let first = inc.retract(&[eac], &mut voc, cfg());
        assert_eq!((first.overdeleted, first.new_facts), (0, 1));
        // Retracting E(a,b) takes that derivation's premise: E(a,c) is
        // over-deleted and nothing brings it back.
        let eab = prog.instance.facts()[0].clone();
        let second = inc.retract(&[eab], &mut voc, cfg());
        assert_eq!((second.overdeleted, second.new_facts), (1, 0));
        let totals =
            (first.overdeleted + second.overdeleted, first.new_facts + second.new_facts);
        assert_eq!(totals, (1, 1), "over-deleted and re-derived across both retractions");
        assert_eq!(inc.provenance_len(), 0, "no derived facts survive");
    }

    #[test]
    fn insert_into_fixpoint_runs_only_delta_rounds() {
        // A chased 16-node chain; appending one edge at the end closes
        // in 2 rounds (one deriving, one observing fixpoint), far fewer
        // than the from-scratch closure.
        let mut src = String::from("E(X,Y), E(Y,Z) -> E(X,Z).\n");
        for i in 0..16 {
            src.push_str(&format!("E(v{i},v{}).\n", i + 1));
        }
        let prog = parse_program(&src).unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let initial = inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        assert!(initial.complete);
        assert!(initial.rounds >= 4, "closing a 16-chain takes several rounds");
        let e = voc.pred("E", 2);
        let v16 = voc.constant("v16");
        let v17 = voc.constant("v17");
        let out = inc.insert(&[Fact::new(e, vec![v16, v17])], &mut voc, cfg());
        assert!(out.complete);
        assert_eq!(out.rounds, 2, "delta maintenance must not re-run applied rounds");
        // All transitive pairs ending at v17 appeared in one round.
        assert_eq!(out.new_facts, 17);
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn exhausted_insert_resumes_pending_delta_on_next_mutation() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let tight = MaintainConfig { max_rounds: 2, ..MaintainConfig::default() };
        let out = inc.insert(&prog.instance.facts().to_vec(), &mut voc, tight);
        assert!(!out.complete);
        assert_eq!(out.exhausted, Some(BudgetExhausted::Rounds));
        let len_after = inc.instance().len();
        // An unrelated insert must pick the pending delta back up: two
        // more rounds of the diverging chain get appended.
        let u = voc.pred("U", 1);
        let c = voc.constant("c");
        let out = inc.insert(&[Fact::new(u, vec![c])], &mut voc, tight);
        assert!(!out.complete);
        assert!(inc.instance().len() > len_after + 1);
        assert!(inc.check_support().is_none());
    }

    #[test]
    fn resident_true_answers_are_certain_even_when_incomplete() {
        // Every resident fact has a derivation tree over the base, so a
        // witnessed query is entailed no matter how the closure was cut
        // short.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).
             ?- E(X1,X2), E(X2,X3), E(X3,X4).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let tight = MaintainConfig { max_rounds: 3, ..MaintainConfig::default() };
        let out = inc.insert(&prog.instance.facts().to_vec(), &mut voc, tight);
        assert!(!out.complete);
        let q = bddfc_core::Ucq::single(prog.queries[0].clone());
        assert!(hom::satisfies_ucq(inc.instance(), &q));
        let scratch = crate::answers::certain_ucq(
            &prog.instance,
            &prog.theory,
            &mut prog.voc.clone(),
            &q,
            ChaseConfig::default(),
        );
        assert!(scratch.is_true());
    }

    /// The maintained reverse index equals one rebuilt from the
    /// provenance (as multisets per key), and the support invariant
    /// holds.
    fn assert_index_in_step(inc: &IncrementalChase, step: &str) {
        let sorted = |rev: &ReverseIndex| {
            let mut v: Vec<(Fact, Vec<Fact>)> =
                rev.iter().map(|(p, deps)| (p.clone(), deps.clone())).collect();
            for (_, deps) in &mut v {
                deps.sort();
            }
            v.sort();
            v
        };
        if let Some(rev) = &inc.rev {
            assert_eq!(sorted(rev), sorted(&reverse_index(&inc.provenance)), "{step}");
        }
        assert!(inc.check_support().is_none(), "{step}");
    }

    /// Scripted insert/retract sessions: the index is built on the first
    /// retraction and stays in step with the provenance from then on.
    fn run_index_script(src: &str, config: MaintainConfig) {
        let prog = parse_program(src).unwrap();
        let facts = prog.instance.facts().to_vec();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        let (first, second) = facts.split_at(facts.len() / 2);
        inc.insert(first, &mut voc, config);
        assert!(inc.rev.is_none(), "no index before the first retraction");
        let mut steps: Vec<(bool, Vec<Fact>)> = vec![
            (true, facts.iter().take(1).cloned().collect()),
            (false, second.to_vec()),
            (true, first.to_vec()),
            (false, first.to_vec()),
        ];
        for f in facts.iter().rev().take(4) {
            steps.push((true, vec![f.clone()]));
            steps.push((false, vec![f.clone()]));
        }
        steps.push((true, facts.clone()));
        for (i, (retract, fs)) in steps.iter().enumerate() {
            if *retract {
                inc.retract(fs, &mut voc, config);
            } else {
                inc.insert(fs, &mut voc, config);
            }
            assert_index_in_step(&inc, &format!("step {i} of {src}"));
        }
        assert!(inc.instance().is_empty() && inc.provenance.is_empty());
        assert_eq!(inc.rev, Some(ReverseIndex::default()));
    }

    #[test]
    fn reverse_index_stays_in_step_with_provenance() {
        let programs = [
            // Example 1 on its 3-cycle: existential chains, cut by budget.
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(Y,Z), E(Z,X) -> exists T . U(X,T).
             U(X,Y) -> exists Z . U(Y,Z).
             E(a,b). E(b,c). E(c,a).",
            // Transitive closure: shared premises, many derivations each.
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(c,d). E(d,a). E(b,d).",
            // A repeated premise and a multi-atom existential head.
            "E(X,Y), E(Y,X) -> exists Z . R(X,Z), R(Z,Y).
             R(X,Y) -> S(Y).
             E(a,a). E(a,b). E(b,a). S(a).",
        ];
        for config in [MaintainConfig::default(), MaintainConfig { max_rounds: 2, ..cfg() }] {
            for src in programs {
                run_index_script(src, config);
            }
        }
        // Seeded random programs over three binary predicates.
        let shapes = [
            "A(X,Y), B(Y,Z) -> C(X,Z).",
            "A(X,Y) -> exists Z . B(Y,Z).",
            "A(X,Y) -> C(Y,X).",
            "A(X,X) -> exists Z . B(X,Z), C(Z,X).",
            "A(X,Y), B(X,Y) -> C(X,X).",
        ];
        for seed in 0..40u64 {
            let mut rng = bddfc_core::prng::SplitMix64::new(seed);
            let preds = ["E", "F", "G"];
            let mut src = String::new();
            for _ in 0..rng.range(1, 4) {
                let mut rule = rng.pick(&shapes).to_string();
                for (slot, name) in [("A(", "E"), ("B(", "F"), ("C(", "G")] {
                    let p = if rng.flip() { *rng.pick(&preds) } else { name };
                    rule = rule.replace(slot, &format!("{p}("));
                }
                src.push_str(&rule);
                src.push('\n');
            }
            for _ in 0..rng.range(2, 8) {
                let (p, x, y) = (rng.pick(&preds), rng.below(4), rng.below(4));
                src.push_str(&format!("{p}(c{x},c{y}).\n"));
            }
            run_index_script(&src, MaintainConfig { max_rounds: 4, ..cfg() });
        }
    }

    #[test]
    fn replacing_a_derivation_moves_its_index_entries() {
        // E(a,c) is derivable through b and through d; replacing its
        // recorded derivation moves its dependency from one path to the
        // other, so retracting the old path no longer touches it.
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(a,d). E(d,c).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(prog.instance.facts(), &mut voc, cfg());
        let e = voc.pred("E", 2);
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| voc.constant(n));
        let eac = Fact::new(e, vec![a, c]);
        // A first retraction builds the index.
        let extra = Fact::new(e, vec![c, voc.constant("e")]);
        inc.insert(std::slice::from_ref(&extra), &mut voc, cfg());
        inc.retract(&[extra], &mut voc, cfg());
        assert!(inc.rev.is_some());
        let old = inc.provenance[&eac].clone();
        let via = if old.premises[0].args[1] == b { d } else { b };
        let other = Derivation {
            rule_idx: 0,
            premises: vec![Fact::new(e, vec![a, via]), Fact::new(e, vec![via, c])],
            round: old.round,
        };
        inc.record(eac.clone(), other);
        assert_index_in_step(&inc, "after replacing a derivation");
        let old_path = old.premises[1].clone();
        let out = inc.retract(&[old_path], &mut voc, cfg());
        assert_eq!(out.overdeleted, 0, "E(a,c) no longer depends on the old path");
        assert!(inc.instance().contains(&eac));
        assert_index_in_step(&inc, "after retracting the old path");
        let out = inc.retract(&[Fact::new(e, vec![via, c])], &mut voc, cfg());
        assert_eq!(out.overdeleted, 1);
        assert!(!inc.instance().contains(&eac));
        assert_index_in_step(&inc, "after retracting the new path");
    }

    #[test]
    fn explain_builds_a_tree_over_the_current_base() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c). E(c,d).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let mut inc = IncrementalChase::new(&prog.theory);
        inc.insert(&prog.instance.facts().to_vec(), &mut voc, cfg());
        let e = voc.pred("E", 2);
        let a = voc.constant("a");
        let d = voc.constant("d");
        let tree = inc.explain(&Fact::new(e, vec![a, d])).expect("E(a,d) is derived");
        assert!(tree.height() >= 1);
        assert!(inc.explain(&Fact::new(e, vec![d, a])).is_none());
    }
}
