//! The chase engine, implementing Section 1.1 of the paper.
//!
//! `Chase¹(D,T)` is one *simultaneous* round: for every rule `t` and every
//! frontier tuple `x̄` satisfying the body such that no witness for the
//! head exists (the **non-oblivious** condition — "new elements are only
//! created if needed"), a fresh labelled null `c_{t,x̄}` is created and the
//! head atom added. `Chaseⁱ⁺¹ = Chase¹(Chaseⁱ)` and `Chase = ⋃ᵢ Chaseⁱ`.
//!
//! The engine also provides the *oblivious* chase (fires every trigger
//! regardless of existing witnesses) for the comparisons in Section 1.1's
//! footnote and our benchmarks.
//!
//! ## Evaluation strategy
//!
//! Round `i+1` can only contain a *violated* trigger whose body joins at
//! least one fact created in round `i`: a trigger lying entirely in older
//! facts was already enumerated in round `i` and either repaired (so its
//! head is now witnessed) or skipped because a witness existed (and the
//! chase never deletes facts, so it still exists). The default
//! [`ChaseStrategy::SemiNaive`] exploits this by pinning each body atom to
//! the previous round's delta in turn and completing the join against the
//! full instance — the witness check (`head_satisfied`) always consults
//! the full instance, so the paper's non-oblivious semantics is preserved
//! *exactly*. [`ChaseStrategy::Naive`] re-derives every round from scratch
//! and is kept as the differential-testing oracle; both strategies apply
//! repairs in the same canonical order (rule index, then frontier tuple),
//! so they produce identical instances, null names and depths round by
//! round.

use crate::trace::Derivation;
use bddfc_core::fxhash::{FxHashMap, FxHashSet};
use bddfc_core::join;
use bddfc_core::obs::{Event, EventSink, Null, SpanTimer, NULL};
use bddfc_core::par;
use bddfc_core::{
    hom, Binding, ConstId, Fact, Instance, PredId, Rule, Term, Theory, VarId, Vocabulary,
};
use std::ops::{ControlFlow, Range};

/// Which chase variant to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ChaseVariant {
    /// The paper's chase: create a witness only when none exists.
    #[default]
    Restricted,
    /// Fire every trigger exactly once, regardless of existing witnesses.
    Oblivious,
}

/// How each round's triggers are enumerated. Both strategies compute the
/// same rounds; they differ only in work done (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ChaseStrategy {
    /// Only enumerate body matches that join at least one fact from the
    /// previous round's delta.
    #[default]
    SemiNaive,
    /// Re-enumerate every body match against the whole instance, every
    /// round. The differential-testing oracle.
    Naive,
}

/// Resource limits for a chase run. The chase of a Datalog∃ program need
/// not terminate (Example 1), so every entry point takes a budget.
#[derive(Clone, Copy, Debug)]
pub struct ChaseConfig {
    /// Maximum number of `Chase¹` rounds.
    pub max_rounds: u32,
    /// Maximum number of facts; the run stops after the round that exceeds it.
    pub max_facts: usize,
    /// Chase variant.
    pub variant: ChaseVariant,
    /// Trigger enumeration strategy.
    pub strategy: ChaseStrategy,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 64,
            max_facts: 1_000_000,
            variant: ChaseVariant::Restricted,
            strategy: ChaseStrategy::SemiNaive,
        }
    }
}

impl ChaseConfig {
    /// A config bounded only by the number of rounds (`Chaseᵏ`).
    pub fn rounds(k: u32) -> Self {
        ChaseConfig { max_rounds: k, ..Default::default() }
    }

    /// Sets the variant.
    pub fn with_variant(mut self, v: ChaseVariant) -> Self {
        self.variant = v;
        self
    }

    /// Sets the evaluation strategy.
    pub fn with_strategy(mut self, s: ChaseStrategy) -> Self {
        self.strategy = s;
        self
    }
}

/// Why a chase run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaseStatus {
    /// A fixpoint was reached: the result models the theory.
    Fixpoint,
    /// The round budget was exhausted before reaching a fixpoint.
    RoundBudget,
    /// The fact budget was exhausted before reaching a fixpoint.
    FactBudget,
}

/// Work counters for a chase run — the trigger counter the benchmarks
/// compare across strategies.
///
/// **Deprecation note:** this one deterministic counter predates the
/// unified telemetry layer, whose per-round `chase`/`round` events (see
/// [`chase_with`] and [`bddfc_core::obs`]) also report candidates,
/// witness checks, triggers pruned, nulls created and wall time. It is
/// kept for the work-ratio assertions of the benches and tests and for
/// the profiler's reconciliation check; new instrumentation should
/// attach a sink instead of growing this struct.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Completed body homomorphisms enumerated in each round (including
    /// the final, empty round that certifies a fixpoint).
    pub body_matches_per_round: Vec<u64>,
}

impl ChaseStats {
    /// Total body-match attempts across all rounds.
    pub fn total_body_matches(&self) -> u64 {
        self.body_matches_per_round.iter().sum()
    }
}

/// The result of a chase run.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The (partially) chased instance.
    pub instance: Instance,
    /// Prefix lengths of `instance.facts()` by derivation depth:
    /// the first `round_ends[d]` facts have depth ≤ `d`, so
    /// `round_ends[0]` is the size of the input `D`. The chase is
    /// append-only, which makes depth a positional property — storing
    /// the boundaries costs O(rounds) instead of a map entry per fact.
    round_ends: Vec<usize>,
    /// Number of completed rounds.
    pub rounds: u32,
    /// Why the run stopped.
    pub status: ChaseStatus,
    /// Work counters (see [`ChaseStats`]).
    pub stats: ChaseStats,
}

impl ChaseResult {
    /// Did the chase terminate (so `instance ⊨ T`)?
    pub fn is_fixpoint(&self) -> bool {
        self.status == ChaseStatus::Fixpoint
    }

    /// Derivation depth of the fact stored at `idx`: the round at which
    /// it appeared (`0` for the facts of `D`). This is the depth the BDD
    /// property (Section 1.1) quantifies over.
    pub fn fact_depth(&self, idx: bddfc_core::FactIdx) -> u32 {
        self.round_ends.partition_point(|&end| end <= idx) as u32
    }

    /// Derivation depth of every fact, as a map (see
    /// [`ChaseResult::fact_depth`]); built on demand — round-by-round
    /// comparisons and certificate extraction want the associative view,
    /// the chase itself never pays for it.
    pub fn depth_map(&self) -> FxHashMap<Fact, u32> {
        self.instance
            .facts()
            .iter()
            .enumerate()
            .map(|(idx, f)| (f.clone(), self.fact_depth(idx)))
            .collect()
    }

    /// The maximal derivation depth of any fact.
    pub fn max_depth(&self) -> u32 {
        (self.round_ends.len() - 1) as u32
    }
}

/// One pending repair: a rule index plus the frontier key to repair. The
/// `(rule_idx, key)` pair identifies the paper's trigger `(t, x̄)` and
/// fixes the canonical application order; everything a repair grounds is
/// a pure function of the pair (via the rule's [`RuleTemplate`]).
struct Repair {
    rule_idx: usize,
    key: Key,
}

/// One candidate trigger emitted by the parallel enumeration phase.
/// Deduplication and admission run later, sequentially, on the merged
/// list — a trigger is a pure function of its `(rule, key)` pair, so
/// first-occurrence dedup yields identical values at any shard split.
struct Candidate {
    rule_idx: usize,
    key: Key,
}

/// A compact frontier key: widths ≤ 2 (the overwhelmingly common case)
/// pack into one machine word so per-row dedup, the oblivious fired set
/// and the canonical repair sort hash and compare a `u64` instead of
/// allocating a heap vector per body match. The packed order
/// `(a << 32) | b` compares like the unpacked `(a, b)` pair, so packed
/// and wide keys induce the same canonical candidate order per rule (a
/// rule's frontier width is fixed, so a rule never mixes variants and
/// the derived cross-variant order is never exercised).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    /// Frontier width ≤ 2, packed high-to-low in frontier order.
    Packed(u64),
    /// Frontier width > 2.
    Wide(Vec<ConstId>),
}

impl Key {
    /// The key of the frontier values `vals` (in sorted-frontier order).
    fn of(vals: &[ConstId]) -> Key {
        match *vals {
            [] => Key::Packed(0),
            [a] => Key::Packed(u64::from(a.0)),
            [a, b] => Key::Packed((u64::from(a.0) << 32) | u64::from(b.0)),
            _ => Key::Wide(vals.to_vec()),
        }
    }
}

/// Where one head-atom argument comes from when a repair grounds it: a
/// rule constant, a frontier value (by index into the sorted frontier),
/// or a fresh null (by index into the sorted existential variables).
#[derive(Clone, Copy)]
enum ArgSrc {
    Const(ConstId),
    Frontier(usize),
    Ex(usize),
}

/// How a [`RuleTemplate`] decides head satisfaction, by the shape of the
/// rule head; every plan gives the verdict of
/// [`bddfc_core::satisfaction::head_satisfied`] on the key's frontier
/// binding.
enum HeadPlan {
    /// No existentials: one hash probe per head atom.
    Grounded,
    /// Exactly one head atom holds the existentials, each occurring
    /// once: grounded probes plus one posting-list scan.
    SingleAtom(usize),
    /// Shared/repeated existentials: general homomorphism search.
    General,
}

/// One admission round's witness index for a [`HeadPlan::SingleAtom`]
/// rule: the special atom's relation projected onto its non-existential
/// positions (packed into a `u64` when at most two), built once per
/// round against the frozen instance and probed once per candidate.
enum WitnessSet {
    /// The variant or plan never consults a witness for this rule.
    Unused,
    /// Projections over at most two bound positions, packed.
    Packed(FxHashSet<u64>),
    /// Wider projections, one allocated row each.
    Wide(FxHashSet<Vec<ConstId>>),
    /// No bound positions: satisfiability is bare row existence.
    AnyRow(bool),
}

/// A rule's head compiled against its sorted frontier and sorted
/// existential variables, so admission checks and repair application
/// ground head atoms straight from the trigger key — no per-candidate
/// `Binding` materialization anywhere on the hot path.
struct RuleTemplate {
    frontier: Vec<VarId>,
    /// Sorted existential variables (fresh-null creation order).
    ex: Vec<VarId>,
    /// Per head atom: predicate plus one source per argument position.
    head: Vec<(PredId, Vec<ArgSrc>)>,
    plan: HeadPlan,
}

impl RuleTemplate {
    fn new(rule: &Rule) -> Self {
        let frontier = sorted_frontier(rule);
        let mut ex: Vec<VarId> = rule.existential_vars().into_iter().collect();
        ex.sort_unstable();
        let head: Vec<(PredId, Vec<ArgSrc>)> = rule
            .head
            .iter()
            .map(|atom| {
                let srcs = atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => ArgSrc::Const(*c),
                        Term::Var(v) => match frontier.binary_search(v) {
                            Ok(i) => ArgSrc::Frontier(i),
                            Err(_) => ArgSrc::Ex(
                                ex.binary_search(v).expect("head var is frontier or existential"),
                            ),
                        },
                    })
                    .collect();
                (atom.pred, srcs)
            })
            .collect();
        let plan = Self::plan_of(&head, ex.len());
        RuleTemplate { frontier, ex, head, plan }
    }

    /// Picks the plan: no existentials grounds every head atom; every
    /// existential confined to one head atom, once each, reduces the
    /// witness check to one probe of a projection of that atom's
    /// relation.
    fn plan_of(head: &[(PredId, Vec<ArgSrc>)], ex_count: usize) -> HeadPlan {
        if ex_count == 0 {
            return HeadPlan::Grounded;
        }
        let touched: Vec<usize> = head
            .iter()
            .enumerate()
            .filter(|(_, (_, srcs))| srcs.iter().any(|s| matches!(s, ArgSrc::Ex(_))))
            .map(|(i, _)| i)
            .collect();
        if let [only] = touched[..] {
            let mut counts = vec![0usize; ex_count];
            for (_, srcs) in head {
                for s in srcs {
                    if let ArgSrc::Ex(j) = s {
                        counts[*j] += 1;
                    }
                }
            }
            if counts.iter().all(|&c| c == 1) {
                return HeadPlan::SingleAtom(only);
            }
        }
        HeadPlan::General
    }

    /// The frontier values a key carries, unpacked into `buf` for packed
    /// keys (ordered like the sorted frontier — see [`Key::of`]).
    fn key_vals<'a>(&self, key: &'a Key, buf: &'a mut [ConstId; 2]) -> &'a [ConstId] {
        match key {
            Key::Wide(v) => v,
            Key::Packed(bits) => match self.frontier.len() {
                0 => &[],
                1 => {
                    buf[0] = ConstId(*bits as u32);
                    &buf[..1]
                }
                _ => {
                    buf[0] = ConstId((*bits >> 32) as u32);
                    buf[1] = ConstId(*bits as u32);
                    &buf[..2]
                }
            },
        }
    }

    /// Is the head satisfiable in `inst` for the trigger `key`? Same
    /// verdicts as `head_satisfied` on the key's frontier binding.
    /// `witness` must be this rule's [`WitnessSet`] built against the
    /// same (frozen) instance.
    fn satisfied(&self, inst: &Instance, rule: &Rule, key: &Key, witness: &WitnessSet) -> bool {
        let mut kbuf = [ConstId(0); 2];
        let fvals = self.key_vals(key, &mut kbuf);
        match self.plan {
            HeadPlan::Grounded => (0..self.head.len()).all(|i| self.atom_holds(inst, i, fvals)),
            HeadPlan::SingleAtom(idx) => {
                (0..self.head.len()).all(|i| i == idx || self.atom_holds(inst, i, fvals))
                    && self.witness_holds(idx, fvals, witness)
            }
            HeadPlan::General => {
                let binding: Binding =
                    self.frontier.iter().copied().zip(fvals.iter().copied()).collect();
                hom::hom_exists(inst, &rule.head, &binding)
            }
        }
    }

    /// Builds the witness projection of the special atom `idx` for one
    /// admission round: the relation's rows projected onto the atom's
    /// non-existential positions. Membership of a candidate's bound
    /// values is exactly "some row agrees with the key on every bound
    /// position" — the [`HeadPlan::SingleAtom`] satisfiability test —
    /// turned into one hash probe per candidate.
    fn build_witness_set(&self, inst: &Instance, idx: usize) -> WitnessSet {
        let (pred, srcs) = &self.head[idx];
        let Some(rel) = inst.columnar().relation(*pred) else {
            return WitnessSet::AnyRow(false);
        };
        let bound: Vec<usize> = srcs
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s, ArgSrc::Ex(_)))
            .map(|(pos, _)| pos)
            .collect();
        match bound[..] {
            [] => WitnessSet::AnyRow(rel.rows() > 0),
            [p] => WitnessSet::Packed(
                (0..rel.rows()).map(|t| u64::from(rel.get(t, p).0)).collect(),
            ),
            [p0, p1] => WitnessSet::Packed(
                (0..rel.rows())
                    .map(|t| {
                        (u64::from(rel.get(t, p0).0) << 32) | u64::from(rel.get(t, p1).0)
                    })
                    .collect(),
            ),
            _ => WitnessSet::Wide(
                (0..rel.rows())
                    .map(|t| bound.iter().map(|&p| rel.get(t, p)).collect())
                    .collect(),
            ),
        }
    }

    /// Probes the prebuilt witness projection with the candidate's bound
    /// values (same ascending-position order the set was built in).
    fn witness_holds(&self, idx: usize, fvals: &[ConstId], witness: &WitnessSet) -> bool {
        let (_, srcs) = &self.head[idx];
        let mut vals = [ConstId(0); 8];
        let mut heap;
        let slots: &mut [ConstId] = if srcs.len() <= 8 {
            &mut vals
        } else {
            heap = vec![ConstId(0); srcs.len()];
            &mut heap
        };
        let mut n = 0;
        for s in srcs {
            match *s {
                ArgSrc::Const(c) => {
                    slots[n] = c;
                    n += 1;
                }
                ArgSrc::Frontier(i) => {
                    slots[n] = fvals[i];
                    n += 1;
                }
                ArgSrc::Ex(_) => {}
            }
        }
        let bound = &slots[..n];
        match witness {
            WitnessSet::AnyRow(nonempty) => *nonempty,
            WitnessSet::Packed(set) => {
                let packed = match bound {
                    [a] => u64::from(a.0),
                    [a, b] => (u64::from(a.0) << 32) | u64::from(b.0),
                    _ => unreachable!("packed witness has 1 or 2 bound positions"),
                };
                set.contains(&packed)
            }
            WitnessSet::Wide(set) => set.contains(bound),
            WitnessSet::Unused => {
                unreachable!("witness consulted for a rule it was not built for")
            }
        }
    }

    /// Does the (existential-free) head atom `idx`, grounded from the
    /// key, hold in the instance? Allocation-free for arity ≤ 8.
    fn atom_holds(&self, inst: &Instance, idx: usize, fvals: &[ConstId]) -> bool {
        let (pred, srcs) = &self.head[idx];
        let mut buf = [ConstId(0); 8];
        let mut heap;
        let args: &mut [ConstId] = if srcs.len() <= 8 {
            &mut buf[..srcs.len()]
        } else {
            heap = vec![ConstId(0); srcs.len()];
            &mut heap
        };
        for (slot, s) in args.iter_mut().zip(srcs) {
            *slot = match *s {
                ArgSrc::Const(c) => c,
                ArgSrc::Frontier(i) => fvals[i],
                ArgSrc::Ex(_) => unreachable!("grounded head atom has no existentials"),
            };
        }
        inst.contains_ground(*pred, args)
    }

}

/// Per-rule attribution counters for one round, filled only when a
/// recording sink is installed (`S::ENABLED`); each becomes one
/// `chase`/`trigger` event keyed by rule index.
#[derive(Clone, Copy, Default)]
struct RuleWork {
    /// Completed body homomorphisms of this rule.
    body_matches: u64,
    /// Deduplicated candidate triggers of this rule reaching admission.
    candidates: u64,
    /// Repairs of this rule that actually fired.
    triggers_fired: u64,
    /// Wall time spent enumerating this rule's body joins (a gauge).
    enum_ns: u64,
}

/// Per-round work counters accumulated by the enumeration and admission
/// phases; the deterministic *fields* of the round's telemetry event.
#[derive(Default)]
struct RoundWork {
    /// Completed body homomorphisms enumerated.
    body_matches: u64,
    /// Deduplicated candidate triggers reaching admission.
    candidates: u64,
    /// Candidates whose head was actually joined against the instance
    /// (`head_satisfied`) — all of them under Restricted, only datalog
    /// rules under Oblivious.
    witness_checks: u64,
    /// Per-rule attribution, indexed by rule; **empty** when telemetry
    /// is disabled (the collectors size it iff `S::ENABLED`).
    rule_work: Vec<RuleWork>,
    /// Per-predicate join build/probe attribution (empty when telemetry
    /// is disabled).
    joins: join::JoinStats,
}

impl RoundWork {
    /// Whether per-rule attribution is being collected this round.
    fn tracking(&self) -> bool {
        !self.rule_work.is_empty()
    }
}

/// Applies the Restricted/Oblivious admission check to the deduplicated
/// candidate triggers, in their merged (shard-boundary-independent)
/// order. Witness checks (`head_satisfied`) are read-only joins against
/// the frozen instance and run in parallel; the `fired` bookkeeping of
/// the oblivious variant mutates shared state and stays sequential.
fn admit_candidates(
    inst: &Instance,
    theory: &Theory,
    templates: &[RuleTemplate],
    variant: ChaseVariant,
    fired: &mut FxHashSet<(usize, Key)>,
    cands: Vec<Candidate>,
    work: &mut RoundWork,
) -> Vec<Repair> {
    work.candidates += cands.len() as u64;
    // unwitnessed[i]: candidate i's head has no witness in the frozen
    // instance (only consulted where the variant cares). Per-rule
    // precompiled key templates replace the general hom search on common
    // shapes and ground head atoms without building bindings.
    //
    // A rule is datalog iff its template has no existentials; consulting
    // the template avoids rebuilding variable sets per candidate.
    let is_dl: Vec<bool> = templates.iter().map(|t| t.ex.is_empty()).collect();
    work.witness_checks += match variant {
        ChaseVariant::Restricted => cands.len() as u64,
        ChaseVariant::Oblivious => {
            cands.iter().filter(|c| is_dl[c.rule_idx]).count() as u64
        }
    };
    // Witness projections for the rules whose admission will consult one
    // this round: single-special-atom existential rules under the
    // restricted variant (the oblivious variant only re-checks datalog
    // heads, which are grounded lookups).
    let mut has_cand = vec![false; templates.len()];
    for c in &cands {
        has_cand[c.rule_idx] = true;
    }
    let witness: Vec<WitnessSet> = templates
        .iter()
        .enumerate()
        .map(|(i, tmpl)| match tmpl.plan {
            HeadPlan::SingleAtom(idx)
                if has_cand[i] && variant == ChaseVariant::Restricted =>
            {
                tmpl.build_witness_set(inst, idx)
            }
            _ => WitnessSet::Unused,
        })
        .collect();
    let unwitnessed: Vec<bool> = par::par_map(&cands, cands.len(), |c| {
        let rule = &theory.rules[c.rule_idx];
        let tmpl = &templates[c.rule_idx];
        let wit = &witness[c.rule_idx];
        match variant {
            ChaseVariant::Restricted => !tmpl.satisfied(inst, rule, &c.key, wit),
            // Datalog rules are idempotent; skip if the head is present.
            ChaseVariant::Oblivious => {
                is_dl[c.rule_idx] && !tmpl.satisfied(inst, rule, &c.key, wit)
            }
        }
    });
    if work.tracking() {
        for c in &cands {
            work.rule_work[c.rule_idx].candidates += 1;
        }
    }
    let mut out = Vec::new();
    for (c, unwit) in cands.into_iter().zip(unwitnessed) {
        let fire = match variant {
            ChaseVariant::Restricted => unwit,
            ChaseVariant::Oblivious => {
                if is_dl[c.rule_idx] {
                    unwit
                } else {
                    fired.insert((c.rule_idx, c.key.clone()))
                }
            }
        };
        if fire {
            if work.tracking() {
                work.rule_work[c.rule_idx].triggers_fired += 1;
            }
            out.push(Repair { rule_idx: c.rule_idx, key: c.key });
        }
    }
    out
}

/// The sorted frontier of a rule (the variables a trigger key ranges over).
fn sorted_frontier(rule: &Rule) -> Vec<VarId> {
    let mut frontier: Vec<VarId> = rule.frontier().into_iter().collect();
    frontier.sort_unstable();
    frontier
}

/// One trigger-collection work item: a rule body evaluated by the join
/// kernel over the whole instance (`None`) or as the semi-naive item
/// pinned at one body atom (`Some(pin)`, read through
/// [`join::seminaive_range`]), or by `hom`'s binding-seeded search under
/// a partial frontier binding (see [`rederive_items`]).
enum WorkItem {
    Kernel(usize, Option<usize>),
    Seeded(usize, Binding),
}

/// `par` work units per estimated row of a trigger-collection item (the
/// unit is one witness check, see [`par::MIN_PAR_WORK`]): each row drives
/// probes of the rest of its body, so regions below about a thousand
/// rows stay on the calling thread.
const ROW_WORK: usize = 8;

impl WorkItem {
    /// The item's estimated rows: its pinned atom's delta rows (from
    /// `delta_count`), the whole instance when unpinned, one for a
    /// binding-seeded search.
    fn est_rows(
        &self,
        theory: &Theory,
        inst: &Instance,
        delta_count: &FxHashMap<PredId, usize>,
    ) -> usize {
        match *self {
            WorkItem::Kernel(rule_idx, Some(pin)) => {
                delta_count.get(&theory.rules[rule_idx].body[pin].pred).copied().unwrap_or(0)
            }
            WorkItem::Kernel(_, None) => inst.len(),
            WorkItem::Seeded(..) => 1,
        }
    }
}

/// The frontier key of a body homomorphism `b` (packed like
/// [`Key::of`], so both enumerators produce identical keys).
fn key_of_binding(frontier: &[VarId], b: &Binding) -> Key {
    let val = |v: &VarId| b[v];
    match frontier {
        [] => Key::Packed(0),
        [a] => Key::Packed(u64::from(val(a).0)),
        [a, c] => Key::Packed((u64::from(val(a).0) << 32) | u64::from(val(c).0)),
        _ => Key::Wide(frontier.iter().map(val).collect()),
    }
}

/// The re-derivation work items for `deleted`: for every fact and every
/// head atom of a rule with a body that unifies with it, the body under
/// the frontier values the unifier fixes (the whole body when it fixes
/// none). Existential variables unify with anything, but consistently,
/// as the head's witness homomorphism would map them.
fn rederive_items(theory: &Theory, templates: &[RuleTemplate], deleted: &[Fact]) -> Vec<WorkItem> {
    let mut seen: FxHashSet<(usize, Vec<Option<ConstId>>)> = FxHashSet::default();
    let mut items = Vec::new();
    let mut ex: Vec<Option<ConstId>> = Vec::new();
    for (rule_idx, tmpl) in templates.iter().enumerate() {
        if theory.rules[rule_idx].body.is_empty() {
            continue;
        }
        for (pred, srcs) in &tmpl.head {
            for d in deleted.iter().filter(|d| d.pred == *pred && d.args.len() == srcs.len()) {
                let mut front = vec![None; tmpl.frontier.len()];
                ex.clear();
                ex.resize(tmpl.ex.len(), None);
                let unifies = srcs.iter().zip(&d.args).all(|(src, &c)| {
                    let slot = match *src {
                        ArgSrc::Const(k) => return k == c,
                        ArgSrc::Frontier(i) => &mut front[i],
                        ArgSrc::Ex(j) => &mut ex[j],
                    };
                    *slot.get_or_insert(c) == c
                });
                if !unifies || !seen.insert((rule_idx, front.clone())) {
                    continue;
                }
                let init: Binding = tmpl
                    .frontier
                    .iter()
                    .zip(front)
                    .filter_map(|(&v, c)| c.map(|c| (v, c)))
                    .collect();
                items.push(if init.is_empty() {
                    WorkItem::Kernel(rule_idx, None)
                } else {
                    WorkItem::Seeded(rule_idx, init)
                });
            }
        }
    }
    items
}

/// Collects this round's repairs against the *frozen* instance, per the
/// simultaneous semantics of `Chase¹`. The two strategies differ only in
/// their work items:
///
/// * [`ChaseStrategy::Naive`] evaluates every rule body unpinned, once
///   per rule;
/// * [`ChaseStrategy::SemiNaive`] evaluates one item per `(rule, body
///   atom)`, the atom pinned to its delta tail, so only matches joining
///   at least one fact of `delta` are enumerated. The delta exploits the
///   append-only columnar layout: between rounds nothing but the round's
///   new facts is inserted, so the delta facts of predicate `p` are
///   exactly the last `delta_count(p)` rows of `p`'s relation — a
///   contiguous segment, no copying — and the rows before them are its
///   old prefix. In the item pinned at body atom `i`, the atoms before
///   `i` read only their old prefix and the atoms after `i` their whole
///   relation, so a match touching the delta is enumerated once, by its
///   first delta atom. A body-less rule joins no delta, so its single
///   empty trigger is only ever new on the opening round (`first_round`).
///
/// `extra` items join either strategy's: incremental maintenance uses
/// them to re-enumerate only the triggers a retraction can have left
/// unwitnessed (see [`ChaseStepper::rederive`]). They, and the naive
/// items, read every relation whole.
///
/// Items are read-only and run in parallel, emitting `(rule, key)` pairs
/// only (everything a trigger grounds is a pure function of the pair).
/// A kernel item never materializes its last join step: the kernel
/// hands it each match's frontier values
/// ([`join::for_each_projection`]), and packed keys are deduplicated
/// per item as `u64`s before they become candidates. Global
/// first-occurrence dedup and admission then run sequentially on the
/// merged stream, so the surviving candidates are identical at any
/// shard split, in an order [`apply_repairs`] does not depend on.
/// Generic over the sink *type* only: with `S::ENABLED == false` (the
/// `Null` sink) every attribution branch is statically eliminated.
fn collect_repairs<S: EventSink>(
    inst: &Instance,
    theory: &Theory,
    templates: &[RuleTemplate],
    variant: ChaseVariant,
    fired: &mut FxHashSet<(usize, Key)>,
    strategy: ChaseStrategy,
    delta: &[Fact],
    first_round: bool,
    extra: Vec<WorkItem>,
    priors: Option<&join::Priors>,
    work: &mut RoundWork,
) -> Vec<Repair> {
    if S::ENABLED && work.rule_work.is_empty() {
        work.rule_work = vec![RuleWork::default(); theory.rules.len()];
    }
    let mut items: Vec<WorkItem> = Vec::new();
    // Delta rows per predicate (semi-naive only): the delta is the last
    // `delta_count[p]` rows of `p`'s relation, the rest its old prefix.
    let mut delta_count: FxHashMap<PredId, usize> = FxHashMap::default();
    match strategy {
        ChaseStrategy::Naive => {
            items.extend((0..theory.rules.len()).map(|r| WorkItem::Kernel(r, None)))
        }
        ChaseStrategy::SemiNaive => {
            for f in delta {
                *delta_count.entry(f.pred).or_default() += 1;
            }
            for (rule_idx, rule) in theory.rules.iter().enumerate() {
                if rule.body.is_empty() {
                    if first_round {
                        items.push(WorkItem::Kernel(rule_idx, None));
                    }
                    continue;
                }
                for (pin, atom) in rule.body.iter().enumerate() {
                    let Some(&k) = delta_count.get(&atom.pred) else { continue };
                    debug_assert!(
                        k <= inst.columnar().rows(atom.pred),
                        "delta larger than its relation"
                    );
                    items.push(WorkItem::Kernel(rule_idx, Some(pin)));
                }
            }
        }
    }
    items.extend(extra);
    /// Per-shard attribution, merged sequentially; `None` when telemetry
    /// is disabled.
    struct ShardAttr {
        rule_matches: Vec<u64>,
        rule_ns: Vec<u64>,
        joins: join::JoinStats,
    }
    // Phase 1 (parallel): one evaluation per work item; shards
    // emit locally-new `(rule, key)` pairs in work-list order. Shard-local
    // dedup is sound because phase 2 dedups again globally: the first
    // occurrence in the merged stream survives either way.
    let est_rows = |item: &WorkItem| item.est_rows(theory, inst, &delta_count);
    let est_work = items.iter().map(est_rows).sum::<usize>() * ROW_WORK;
    let shard_out: Vec<(Vec<(usize, Key)>, u64, Option<ShardAttr>)> =
        par::par_chunks(items.len(), est_work, |range| {
            let mut out = Vec::new();
            let mut matches = 0u64;
            let mut local_seen: FxHashSet<(usize, Key)> = FxHashSet::default();
            // One item's packed keys, reused across the shard's items.
            let mut item_keys: FxHashSet<u64> = FxHashSet::default();
            let mut attr = if S::ENABLED {
                Some(ShardAttr {
                    rule_matches: vec![0; theory.rules.len()],
                    rule_ns: vec![0; theory.rules.len()],
                    joins: join::JoinStats::default(),
                })
            } else {
                None
            };
            for item in &items[range] {
                let timer = attr.is_some().then(SpanTimer::start);
                let mut emit = |k: (usize, Key)| {
                    if !local_seen.contains(&k) {
                        local_seen.insert(k.clone());
                        out.push(k);
                    }
                };
                let (rule_idx, rows) = match item {
                    WorkItem::Seeded(rule_idx, init) => {
                        let frontier = &templates[*rule_idx].frontier;
                        let mut rows = 0u64;
                        let _ = hom::for_each_hom(inst, &theory.rules[*rule_idx].body, init, |b| {
                            rows += 1;
                            emit((*rule_idx, key_of_binding(frontier, b)));
                            ControlFlow::Continue(())
                        });
                        (*rule_idx, rows)
                    }
                    WorkItem::Kernel(rule_idx, pinned) => {
                        let body = &theory.rules[*rule_idx].body;
                        let store = inst.columnar();
                        let range = |j: usize| {
                            let pred = body[j].pred;
                            let rows = store.rows(pred);
                            match *pinned {
                                Some(pin) => {
                                    let delta = delta_count.get(&pred).copied().unwrap_or(0);
                                    join::seminaive_range(j, pin, rows - delta, rows)
                                }
                                None => 0..rows,
                            }
                        };
                        item_keys.clear();
                        let rows = join::for_each_projection(
                            store,
                            body,
                            *pinned,
                            range,
                            &templates[*rule_idx].frontier,
                            attr.as_mut().map(|a| &mut a.joins),
                            priors,
                            |vals| match Key::of(vals) {
                                Key::Packed(bits) if !item_keys.insert(bits) => {}
                                key => emit((*rule_idx, key)),
                            },
                        );
                        (*rule_idx, rows)
                    }
                };
                matches += rows;
                if let Some(a) = attr.as_mut() {
                    a.rule_ns[rule_idx] += timer.expect("timer set with attr").elapsed_ns();
                    a.rule_matches[rule_idx] += rows;
                }
            }
            (out, matches, attr)
        });
    // Phase 2 (sequential): merge in input order and dedup per (rule,
    // key). With a single shard the local dedup above was already global,
    // so the re-check is skipped (the surviving set is identical either
    // way).
    let single_shard = shard_out.len() == 1;
    let mut seen: FxHashSet<(usize, Key)> = FxHashSet::default();
    let mut cands: Vec<Candidate> = Vec::new();
    for (shard, matches, attr) in shard_out {
        work.body_matches += matches;
        if let Some(a) = attr {
            for (rw, (&m, &ns)) in
                work.rule_work.iter_mut().zip(a.rule_matches.iter().zip(&a.rule_ns))
            {
                rw.body_matches += m;
                rw.enum_ns += ns;
            }
            work.joins.merge(&a.joins);
        }
        for k in shard {
            if single_shard || !seen.contains(&k) {
                if !single_shard {
                    seen.insert(k.clone());
                }
                let (rule_idx, key) = k;
                cands.push(Candidate { rule_idx, key });
            }
        }
    }
    admit_candidates(inst, theory, templates, variant, fired, cands, work)
}

/// Applies repairs in the canonical `(rule, frontier tuple)` order — the
/// order both strategies share, so fresh-null naming is reproducible and
/// strategy-independent. Head atoms ground straight from each repair's
/// key through the rule's [`RuleTemplate`] (fresh nulls created in
/// sorted-existential order, as before) into a reused scratch buffer, so
/// the only allocations are the genuinely new facts. Returns the
/// instance length *before* the insertions (so the new facts of the
/// round are `inst.facts()[start..]`) and the number of fresh nulls
/// invented.
fn apply_repairs(
    inst: &mut Instance,
    templates: &[RuleTemplate],
    voc: &mut Vocabulary,
    mut repairs: Vec<Repair>,
    mut record: Option<&mut Vec<(Fact, usize)>>,
) -> (usize, u64) {
    repairs.sort_by(|a, b| (a.rule_idx, &a.key).cmp(&(b.rule_idx, &b.key)));
    // Most repairs insert their head atoms; reserving up front keeps the
    // content-hash table from rehashing mid-round.
    inst.reserve(repairs.iter().map(|r| templates[r.rule_idx].head.len()).sum());
    let start = inst.len();
    let mut nulls_created = 0u64;
    let mut exvals: Vec<ConstId> = Vec::new();
    let mut args: Vec<ConstId> = Vec::new();
    for (repair_idx, repair) in repairs.iter().enumerate() {
        let tmpl = &templates[repair.rule_idx];
        let mut kbuf = [ConstId(0); 2];
        let fvals = tmpl.key_vals(&repair.key, &mut kbuf);
        exvals.clear();
        exvals.extend(tmpl.ex.iter().map(|_| voc.fresh_null("n")));
        nulls_created += tmpl.ex.len() as u64;
        for (pred, srcs) in &tmpl.head {
            args.clear();
            args.extend(srcs.iter().map(|s| match *s {
                ArgSrc::Const(c) => c,
                ArgSrc::Frontier(i) => fvals[i],
                ArgSrc::Ex(j) => exvals[j],
            }));
            let inserted = inst.insert_ground(*pred, &args);
            if inserted {
                // Only the traced path (incremental maintenance) pays for
                // the Fact materialization; the hot path passes `None`.
                if let Some(out) = record.as_deref_mut() {
                    out.push((Fact { pred: *pred, args: args.as_slice().into() }, repair_idx));
                }
            }
        }
    }
    (start, nulls_created)
}

/// A resumable round-by-round chase driver: owns the growing instance,
/// the previous round's delta and the work counters. Every budgeted
/// entry point of this crate (the from-scratch chase, certain answers,
/// the traced chase and incremental maintenance) steps it through one
/// loop, `ChaseStepper::run`, so they share one stop policy; a caller
/// that steps it directly interleaves its own checks between rounds.
///
/// The driver is generic over an [`EventSink`]; the default [`Null`]
/// sink compiles the telemetry away entirely (see [`bddfc_core::obs`]).
/// Each completed [`ChaseStepper::step`] emits one `chase`/`round`
/// event whose fields are round, body_matches, candidates,
/// witness_checks, triggers_fired, triggers_pruned, new_facts,
/// nulls_created and facts_total, with wall_ns/threads gauges.
pub struct ChaseStepper<'t, S: EventSink = Null> {
    theory: &'t Theory,
    /// The instance chased so far.
    pub instance: Instance,
    variant: ChaseVariant,
    strategy: ChaseStrategy,
    fired: FxHashSet<(usize, Key)>,
    /// Per-rule key templates, compiled once from the theory.
    templates: Vec<RuleTemplate>,
    /// The previous round's delta, as a range into `instance.facts()`
    /// (the chase is append-only, so a round's new facts are a suffix).
    delta: Range<usize>,
    first_round: bool,
    /// Re-derivation work the next round enumerates besides the delta
    /// (see [`ChaseStepper::rederive`]).
    rederive: Vec<WorkItem>,
    rounds_done: u64,
    sink: &'t S,
    parent_span: u64,
    /// Static cardinality priors the batch join planner consults as
    /// tie-breakers (see [`ChaseStepper::with_priors`]).
    priors: Option<join::Priors>,
    /// Work counters, one entry per completed [`ChaseStepper::step`].
    pub stats: ChaseStats,
}

impl<'t> ChaseStepper<'t, Null> {
    /// Starts a chase of `db` under `theory` with telemetry disabled.
    pub fn new(
        db: &Instance,
        theory: &'t Theory,
        variant: ChaseVariant,
        strategy: ChaseStrategy,
    ) -> Self {
        ChaseStepper::with_sink(db, theory, variant, strategy, &NULL)
    }
}

impl<'t, S: EventSink> ChaseStepper<'t, S> {
    /// Starts a chase of `db` under `theory`, reporting per-round
    /// telemetry into `sink`.
    pub fn with_sink(
        db: &Instance,
        theory: &'t Theory,
        variant: ChaseVariant,
        strategy: ChaseStrategy,
        sink: &'t S,
    ) -> Self {
        ChaseStepper {
            theory,
            templates: theory.rules.iter().map(RuleTemplate::new).collect(),
            instance: db.clone(),
            variant,
            strategy,
            fired: FxHashSet::default(),
            delta: 0..db.len(),
            first_round: true,
            rederive: Vec::new(),
            rounds_done: 0,
            sink,
            parent_span: 0,
            priors: None,
            stats: ChaseStats::default(),
        }
    }

    /// Resumes a chase over an already (partially) chased `instance`:
    /// `delta` marks the suffix of `instance.facts()` that has not yet
    /// been enumerated from — typically facts appended since the last
    /// fixpoint. Unlike [`ChaseStepper::with_sink`] this takes ownership
    /// of the instance (no clone) and skips the full first-round
    /// enumeration: the semi-naive invariant assumed is that every
    /// trigger contained entirely in `instance.facts()[..delta.start]`
    /// has already been processed. Body-less rules do not re-fire on a
    /// resumed stepper (they fired on the original first round), and the
    /// oblivious fired-set starts empty — resumption is meant for the
    /// restricted variant, where admission is stateless.
    ///
    /// This is the incremental-maintenance entry point: an insertion is
    /// exactly "append the new facts, resume with them as the delta".
    pub fn resume(
        instance: Instance,
        theory: &'t Theory,
        variant: ChaseVariant,
        strategy: ChaseStrategy,
        sink: &'t S,
        delta: Range<usize>,
    ) -> Self {
        debug_assert!(delta.end <= instance.len());
        ChaseStepper {
            theory,
            templates: theory.rules.iter().map(RuleTemplate::new).collect(),
            instance,
            variant,
            strategy,
            fired: FxHashSet::default(),
            delta,
            first_round: false,
            rederive: Vec::new(),
            rounds_done: 0,
            sink,
            parent_span: 0,
            priors: None,
            stats: ChaseStats::default(),
        }
    }

    /// Makes the next round also enumerate every trigger that the
    /// deletion of `deleted` from a resumed instance can have left
    /// unwitnessed: for each deleted fact and each head atom of a rule
    /// with a body that unifies with it, the rule's body matches agreeing
    /// with the unifier's frontier values. A trigger of the restricted
    /// chase that had a witness and lost it lost a witness fact, and that
    /// fact is the image of a head atom under the trigger's frontier, so
    /// these candidates cover every such trigger; admission drops the
    /// ones still witnessed. Body-less rules are skipped, as on any
    /// resumed round.
    ///
    /// This is DRed's re-derivation round: after a retraction, resuming
    /// the survivors with their pending delta and this work admits
    /// exactly the repairs a full round over the survivors would.
    pub(crate) fn rederive(mut self, deleted: &[Fact]) -> Self {
        self.rederive = rederive_items(self.theory, &self.templates, deleted);
        self
    }

    /// Parents every span and event this stepper emits under `span`
    /// (typically a `chase`/`run` span the caller opened on the same
    /// sink). 0 — the default — means "no enclosing span".
    pub fn under_span(mut self, span: u64) -> Self {
        self.parent_span = span;
        self
    }

    /// Seeds the batch join planner with static cardinality priors (from
    /// the `bddfc-analyze` cost model). Priors are tie-breakers below
    /// live cardinalities, so the chase *result* — facts, null names,
    /// rounds — is identical with or without them; only the join order
    /// (and hence work) on runtime-tied atoms can change.
    pub fn with_priors(mut self, priors: join::Priors) -> Self {
        self.priors = (!priors.is_empty()).then_some(priors);
        self
    }

    /// The current unprocessed delta: the facts appended by the last
    /// completed round (or the initial delta before any round), which the
    /// next [`ChaseStepper::step`] will enumerate from. A driver that
    /// stops before fixpoint hands this to a later
    /// [`ChaseStepper::resume`] to pick up exactly where it left off.
    pub fn pending_delta(&self) -> Range<usize> {
        self.delta.clone()
    }

    /// Consumes the stepper, returning the chased instance without a
    /// clone.
    pub fn into_instance(self) -> Instance {
        self.instance
    }

    /// Runs one `Chase¹` round; returns the facts it added (empty iff the
    /// instance reached a fixpoint of the theory).
    ///
    /// With a recording sink, each round opens a `chase`/`round` span
    /// (keyed by round number) under which it emits one `chase`/`trigger`
    /// event per active rule (keyed by rule index), one `join`/`build` +
    /// `join`/`probe` event per joined predicate (keyed by predicate id)
    /// and the round summary event.
    pub fn step(&mut self, voc: &mut Vocabulary) -> Vec<Fact> {
        let start = self.step_impl(voc, None);
        self.instance.facts()[start..].to_vec()
    }

    /// Runs one round like [`ChaseStepper::step`], but returns the index
    /// of the first fact the round added (the new facts are
    /// `instance.facts()[start..]`) and appends `(fact, derivation)`
    /// pairs for every fact the round inserted to `out` — the premises
    /// are the grounded body of one (canonically chosen) homomorphism
    /// witnessing the trigger against the pre-round instance. This is
    /// what incremental maintenance records so DRed retraction can later
    /// over-delete exactly the facts whose recorded derivations lost a
    /// premise, and what [`crate::traced_chase`] records.
    ///
    /// Costs one extra homomorphism search per fired trigger; the
    /// untraced path is unaffected.
    pub fn step_traced(
        &mut self,
        voc: &mut Vocabulary,
        out: &mut Vec<(Fact, Derivation)>,
    ) -> usize {
        self.step_impl(voc, Some(out))
    }

    /// Runs rounds until a stop, under the one budget policy every chase
    /// entry point shares:
    ///
    /// 1. before each step, `max_rounds` steps already run stop the run
    ///    with [`ChaseStatus::RoundBudget`];
    /// 2. a step that adds no fact is a fixpoint
    ///    ([`ChaseStatus::Fixpoint`]);
    /// 3. after a step that adds facts, `after_round` sees the instance
    ///    first — a `Break` stops the run with status `None` (the
    ///    certain-answer loop's "query witnessed");
    /// 4. then an instance of more than `max_facts` facts stops the run
    ///    with [`ChaseStatus::FactBudget`].
    ///
    /// Returns the stop and the number of steps run, counting the empty
    /// step that certifies a fixpoint. With `traced`, every round records
    /// its derivations as [`ChaseStepper::step_traced`] does.
    pub(crate) fn run(
        &mut self,
        voc: &mut Vocabulary,
        max_rounds: u32,
        max_facts: usize,
        mut traced: Option<&mut Vec<(Fact, Derivation)>>,
        mut after_round: impl FnMut(&Instance) -> ControlFlow<()>,
    ) -> (Option<ChaseStatus>, u32) {
        let mut steps = 0;
        let stop = loop {
            if steps >= max_rounds {
                break Some(ChaseStatus::RoundBudget);
            }
            let start = self.step_impl(voc, traced.as_deref_mut());
            steps += 1;
            if self.instance.len() == start {
                break Some(ChaseStatus::Fixpoint);
            }
            if after_round(&self.instance).is_break() {
                break None;
            }
            if self.instance.len() > max_facts {
                break Some(ChaseStatus::FactBudget);
            }
        };
        (stop, steps)
    }

    fn step_impl(
        &mut self,
        voc: &mut Vocabulary,
        traced: Option<&mut Vec<(Fact, Derivation)>>,
    ) -> usize {
        let timer = S::ENABLED.then(SpanTimer::start);
        let round_span = if S::ENABLED {
            self.sink.span_open(
                "chase",
                "round",
                self.parent_span,
                Some(("round", self.rounds_done + 1)),
            )
        } else {
            0
        };
        let mut work = RoundWork::default();
        let repairs = collect_repairs::<S>(
            &self.instance,
            self.theory,
            &self.templates,
            self.variant,
            &mut self.fired,
            self.strategy,
            &self.instance.facts()[self.delta.clone()],
            self.first_round,
            std::mem::take(&mut self.rederive),
            self.priors.as_ref(),
            &mut work,
        );
        self.first_round = false;
        let triggers_fired = repairs.len() as u64;
        self.stats.body_matches_per_round.push(work.body_matches);
        // Premise recovery must run against the pre-round instance, and
        // must align with the order apply_repairs inserts in — so sort
        // here (the comparator is the one apply_repairs uses; sorting
        // twice is idempotent) and ground one witnessing homomorphism
        // per repair.
        let mut repairs = repairs;
        let mut recorded: Vec<(Fact, usize)> = Vec::new();
        let premises: Vec<(usize, Vec<Fact>)> = if traced.is_some() {
            repairs.sort_by(|a, b| (a.rule_idx, &a.key).cmp(&(b.rule_idx, &b.key)));
            repairs
                .iter()
                .map(|r| {
                    let tmpl = &self.templates[r.rule_idx];
                    let mut kbuf = [ConstId(0); 2];
                    let fvals = tmpl.key_vals(&r.key, &mut kbuf);
                    let mut init = Binding::default();
                    for (&v, &c) in tmpl.frontier.iter().zip(fvals) {
                        init.insert(v, c);
                    }
                    let rule = &self.theory.rules[r.rule_idx];
                    let b = hom::find_hom(&self.instance, &rule.body, &init)
                        .expect("repair key was produced by a body homomorphism");
                    let prem = rule
                        .body
                        .iter()
                        .map(|a| {
                            a.apply(&|v| b.get(&v).map(|&c| Term::Const(c)))
                                .to_fact()
                                .expect("body grounded by homomorphism")
                        })
                        .collect();
                    (r.rule_idx, prem)
                })
                .collect()
        } else {
            Vec::new()
        };
        let record = traced.is_some().then_some(&mut recorded);
        let (start, nulls_created) =
            apply_repairs(&mut self.instance, &self.templates, voc, repairs, record);
        if let Some(out) = traced {
            let round = u32::try_from(self.rounds_done + 1).unwrap_or(u32::MAX);
            for (fact, repair_idx) in recorded {
                let (rule_idx, prem) = &premises[repair_idx];
                out.push((
                    fact,
                    Derivation {
                        rule_idx: *rule_idx,
                        premises: prem.clone(),
                        round,
                    },
                ));
            }
        }
        let new_fact_count = (self.instance.len() - start) as u64;
        self.delta = start..self.instance.len();
        self.rounds_done += 1;
        if let Some(timer) = timer {
            let wall_ns = timer.elapsed_ns();
            for (rule_idx, rw) in work.rule_work.iter().enumerate() {
                if rw.body_matches == 0 && rw.candidates == 0 && rw.triggers_fired == 0 {
                    continue;
                }
                self.sink.record(Event {
                    engine: "chase",
                    name: "trigger",
                    parent: round_span,
                    key: Some(("rule", rule_idx as u64)),
                    fields: &[
                        ("body_matches", rw.body_matches),
                        ("candidates", rw.candidates),
                        ("triggers_fired", rw.triggers_fired),
                    ],
                    gauges: &[("wall_ns", rw.enum_ns)],
                });
            }
            for (pred, c) in work.joins.sorted() {
                if c.builds > 0 {
                    self.sink.record(Event {
                        engine: "join",
                        name: "build",
                        parent: round_span,
                        key: Some(("pred", u64::from(pred.0))),
                        fields: &[("builds", c.builds), ("rows", c.build_rows)],
                        gauges: &[("wall_ns", c.build_ns)],
                    });
                }
                if c.probes > 0 {
                    self.sink.record(Event {
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
            self.sink.record(Event {
                engine: "chase",
                name: "round",
                parent: round_span,
                key: None,
                fields: &[
                    ("round", self.rounds_done),
                    ("body_matches", work.body_matches),
                    ("candidates", work.candidates),
                    ("witness_checks", work.witness_checks),
                    ("triggers_fired", triggers_fired),
                    ("triggers_pruned", work.candidates - triggers_fired),
                    ("new_facts", new_fact_count),
                    ("nulls_created", nulls_created),
                    ("facts_total", self.instance.len() as u64),
                ],
                gauges: &[
                    ("wall_ns", wall_ns),
                    ("threads", par::num_threads() as u64),
                ],
            });
            self.sink.span_close(round_span);
        }
        start
    }
}

/// Runs the chase of `db` under `theory` within the given budget.
pub fn chase(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    config: ChaseConfig,
) -> ChaseResult {
    chase_with(db, theory, voc, config, &NULL)
}

/// Like [`chase`], but reports per-round telemetry into `sink` (one
/// `chase`/`round` span + event per completed [`ChaseStepper::step`],
/// all nested under one `chase`/`run` span).
pub fn chase_with<S: EventSink>(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    config: ChaseConfig,
    sink: &S,
) -> ChaseResult {
    chase_with_priors(db, theory, voc, config, sink, None)
}

/// [`chase_with`] seeding the batch join planner with static
/// cardinality priors (see [`ChaseStepper::with_priors`]; the chase
/// result is invariant, only join work can differ).
pub fn chase_with_priors<S: EventSink>(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    config: ChaseConfig,
    sink: &S,
    priors: Option<join::Priors>,
) -> ChaseResult {
    let run_span = if S::ENABLED { sink.span_open("chase", "run", 0, None) } else { 0 };
    // A run with no finite budget at all only terminates if the chase
    // does; when the position dependency graph has a special-edge cycle
    // that cannot be proven, so say so up front (`bddfc-lint` reports the
    // same finding as B103, with the full cycle witness).
    if S::ENABLED && config.max_rounds == u32::MAX && config.max_facts == usize::MAX {
        if let Some(cycle) = bddfc_core::posgraph::PosGraph::new(theory).special_cycle() {
            sink.record(Event {
                engine: "chase",
                name: "warning",
                parent: run_span,
                key: Some(("rule", cycle[0].rule as u64)),
                fields: &[
                    ("not_weakly_acyclic", 1),
                    ("cycle_edges", cycle.len() as u64),
                ],
                gauges: &[],
            });
        }
    }
    let mut stepper =
        ChaseStepper::with_sink(db, theory, config.variant, config.strategy, sink)
            .under_span(run_span);
    if let Some(p) = priors {
        stepper = stepper.with_priors(p);
    }
    let mut round_ends = vec![db.len()];
    let (stop, steps) = stepper.run(voc, config.max_rounds, config.max_facts, None, |inst| {
        round_ends.push(inst.len());
        ControlFlow::Continue(())
    });
    let status = stop.expect("the chase never breaks off a run itself");
    if S::ENABLED {
        sink.span_close(run_span);
    }
    let rounds = steps - u32::from(status == ChaseStatus::Fixpoint);
    ChaseResult { instance: stepper.instance, round_ends, rounds, status, stats: stepper.stats }
}

/// Computes `Chaseᵏ(D, T)` exactly (stops early on fixpoint).
pub fn chase_k(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    k: u32,
) -> ChaseResult {
    chase(db, theory, voc, ChaseConfig { max_rounds: k, max_facts: usize::MAX, ..Default::default() })
}

/// The telemetry-free chase loop `tests/overhead.rs` uses as its
/// wall-clock baseline: the same enumeration / admission / application
/// kernel as [`chase`], driven without the
/// stepper's stats vectors or any [`EventSink`] plumbing. If someone
/// adds always-on telemetry work to the public path, the public
/// Null-sink chase drifts away from this baseline and the overhead
/// guard fails. Not part of the supported API.
#[doc(hidden)]
pub fn chase_uninstrumented_baseline(
    db: &Instance,
    theory: &Theory,
    voc: &mut Vocabulary,
    config: ChaseConfig,
) -> Instance {
    let mut inst = db.clone();
    let templates: Vec<RuleTemplate> = theory.rules.iter().map(RuleTemplate::new).collect();
    let mut fired: FxHashSet<(usize, Key)> = FxHashSet::default();
    let mut delta = 0..db.len();
    let mut first_round = true;
    let mut rounds = 0;
    loop {
        if rounds >= config.max_rounds {
            break;
        }
        let mut work = RoundWork::default();
        let repairs = collect_repairs::<Null>(
            &inst,
            theory,
            &templates,
            config.variant,
            &mut fired,
            config.strategy,
            &inst.facts()[delta.clone()],
            first_round,
            Vec::new(),
            None,
            &mut work,
        );
        first_round = false;
        let (start, _nulls) = apply_repairs(&mut inst, &templates, voc, repairs, None);
        delta = start..inst.len();
        if delta.is_empty() {
            break;
        }
        rounds += 1;
        if inst.len() > config.max_facts {
            break;
        }
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::parse_program;

    #[test]
    fn chain_grows_one_per_round() {
        // Example 1's first rule alone: an infinite E-chain.
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::rounds(10));
        assert_eq!(res.status, ChaseStatus::RoundBudget);
        assert_eq!(res.instance.len(), 11); // E(a,b) + 10 new edges
        assert_eq!(res.max_depth(), 10);
    }

    #[test]
    fn loop_reaches_fixpoint_immediately() {
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,a).").unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::default());
        assert!(res.is_fixpoint());
        assert_eq!(res.instance.len(), 1);
        assert_eq!(res.rounds, 0);
    }

    #[test]
    fn restricted_reuses_existing_witness() {
        // b already has a successor, so no null is created for it.
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b). E(b,a).").unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::default());
        assert!(res.is_fixpoint());
        assert_eq!(res.instance.len(), 2);
    }

    #[test]
    fn oblivious_fires_every_trigger() {
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b). E(b,a).").unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(
            &prog.instance,
            &prog.theory,
            &mut voc,
            ChaseConfig::rounds(3).with_variant(ChaseVariant::Oblivious),
        );
        // Oblivious chase keeps inventing successors: strictly more facts.
        assert!(res.instance.len() > 2);
        assert_eq!(res.status, ChaseStatus::RoundBudget);
    }

    #[test]
    fn oblivious_does_not_refire_same_trigger() {
        // A single fact with a self-loop: one trigger, fired once.
        let prog = parse_program("E(X,X) -> exists Z . E(X,Z). E(a,a).").unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(
            &prog.instance,
            &prog.theory,
            &mut voc,
            ChaseConfig::rounds(5).with_variant(ChaseVariant::Oblivious),
        );
        assert!(res.is_fixpoint());
        assert_eq!(res.instance.len(), 2); // E(a,a) + E(a,n0)
    }

    #[test]
    fn datalog_transitive_closure() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z). E(a,b). E(b,c). E(c,d).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::default());
        assert!(res.is_fixpoint());
        assert_eq!(res.instance.len(), 6); // 3 base + ac, bd, ad
        assert_eq!(res.instance.domain_size(), 4); // no new elements
    }

    #[test]
    fn depth_tracks_rounds() {
        let prog = parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z). E(a,b). E(b,c). E(c,d). E(d,e).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::default());
        assert!(res.is_fixpoint());
        // Paths of length 2 and 3 appear in round 1; length 4 in round 2
        // (ae = composition of two round-1 facts).
        assert_eq!(res.max_depth(), 2);
    }

    #[test]
    fn example1_triangle_is_fixpoint_for_first_rule_but_not_theory() {
        // The 3-cycle M' of Example 1 satisfies the successor rule but
        // triggers the triangle rule, and then U-chains diverge.
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(X,Y), E(Y,Z), E(Z,X) -> exists T . U(X,T).
             U(X,Y) -> exists Z . U(Y,Z).
             E(a,b). E(b,c). E(c,a).",
        )
        .unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::rounds(8));
        assert_eq!(res.status, ChaseStatus::RoundBudget); // diverges
        let u = voc.find_pred("U").unwrap();
        // Three U-chains (one per triangle vertex), each 8 atoms deep.
        assert_eq!(res.instance.facts_with_pred(u).len(), 3 * 8);
    }

    #[test]
    fn chase_k_matches_paper_notation() {
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let mut voc = prog.voc.clone();
        let res = chase_k(&prog.instance, &prog.theory, &mut voc, 3);
        assert_eq!(res.instance.len(), 4);
        assert_eq!(res.rounds, 3);
    }

    #[test]
    fn fact_budget_stops_run() {
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(
            &prog.instance,
            &prog.theory,
            &mut voc,
            ChaseConfig { max_rounds: u32::MAX, max_facts: 5, ..Default::default() },
        );
        assert_eq!(res.status, ChaseStatus::FactBudget);
        assert!(res.instance.len() >= 5);
    }

    #[test]
    fn multi_head_tgd_creates_shared_witness() {
        let prog = parse_program("P(X) -> E(X,Z), U(Z). P(a).").unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::default());
        assert!(res.is_fixpoint());
        let e = voc.find_pred("E").unwrap();
        let u = voc.find_pred("U").unwrap();
        let ef = res.instance.facts_with_pred(e);
        let uf = res.instance.facts_with_pred(u);
        assert_eq!((ef.len(), uf.len()), (1, 1));
        // Same witness in both atoms.
        let w1 = res.instance.fact(ef[0]).args[1];
        let w2 = res.instance.fact(uf[0]).args[0];
        assert_eq!(w1, w2);
    }

    /// Both strategies, both variants: same instance, same null names,
    /// same depths — the in-crate smoke version of tests/differential.rs.
    #[test]
    fn naive_and_seminaive_agree_exactly() {
        let src = "E(X,Y) -> exists Z . E(Y,Z).
                   E(X,Y), E(Y,Z) -> E(X,Z).
                   E(X,Y), E(Y,Z), E(Z,X) -> exists T . U(X,T).
                   E(a,b). E(b,c). E(c,a).";
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let prog = parse_program(src).unwrap();
            let mut voc_n = prog.voc.clone();
            let naive = chase(
                &prog.instance,
                &prog.theory,
                &mut voc_n,
                ChaseConfig::rounds(5).with_variant(variant).with_strategy(ChaseStrategy::Naive),
            );
            let mut voc_s = prog.voc.clone();
            let semi = chase(
                &prog.instance,
                &prog.theory,
                &mut voc_s,
                ChaseConfig::rounds(5)
                    .with_variant(variant)
                    .with_strategy(ChaseStrategy::SemiNaive),
            );
            assert_eq!(naive.instance, semi.instance, "{variant:?}");
            assert_eq!(naive.depth_map(), semi.depth_map(), "{variant:?}");
            assert_eq!(naive.rounds, semi.rounds, "{variant:?}");
            assert_eq!(naive.status, semi.status, "{variant:?}");
        }
    }

    /// The point of semi-naive evaluation: on transitive closure of the
    /// Example 1 chain, re-deriving every round from scratch does at least
    /// twice the body-match work.
    #[test]
    fn seminaive_does_less_work_on_transitive_closure() {
        let n = 24;
        let mut src = String::from("E(X,Y), E(Y,Z) -> E(X,Z).\n");
        for i in 0..n {
            src.push_str(&format!("E(a{i},a{}).\n", i + 1));
        }
        let prog = parse_program(&src).unwrap();
        let run = |strategy| {
            let mut voc = prog.voc.clone();
            chase(
                &prog.instance,
                &prog.theory,
                &mut voc,
                ChaseConfig::default().with_strategy(strategy),
            )
        };
        let naive = run(ChaseStrategy::Naive);
        let semi = run(ChaseStrategy::SemiNaive);
        assert_eq!(naive.instance, semi.instance);
        let (n_work, s_work) =
            (naive.stats.total_body_matches(), semi.stats.total_body_matches());
        assert!(
            n_work >= 2 * s_work,
            "expected ≥2× savings, got naive = {n_work}, semi-naive = {s_work}"
        );
    }

    #[test]
    fn stats_record_one_entry_per_enumeration_round() {
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let mut voc = prog.voc.clone();
        let res = chase(&prog.instance, &prog.theory, &mut voc, ChaseConfig::rounds(4));
        // 4 productive rounds, each enumerating at least one body match.
        assert_eq!(res.stats.body_matches_per_round.len(), 4);
        assert!(res.stats.body_matches_per_round.iter().all(|&m| m > 0));
    }

    #[test]
    fn chase_with_memory_sink_counts_rounds_and_matches_null_run() {
        use bddfc_core::obs::Memory;
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,b).").unwrap();
        let sink = Memory::new(64);
        let mut voc1 = prog.voc.clone();
        let observed =
            chase_with(&prog.instance, &prog.theory, &mut voc1, ChaseConfig::rounds(4), &sink);
        let mut voc2 = prog.voc.clone();
        let plain = chase(&prog.instance, &prog.theory, &mut voc2, ChaseConfig::rounds(4));
        // Attaching a sink never changes the output.
        assert_eq!(observed.instance, plain.instance);
        // One round event, one per-rule trigger event and one join/probe
        // event (the one-atom body is a single segment scan — no hash
        // table is ever built) per round; the chain adds one fact and
        // one null per round, and the counters mirror ChaseStats.
        assert_eq!(
            sink.event_counts(),
            vec![
                (("chase", "round"), 4),
                (("chase", "trigger"), 4),
                (("join", "probe"), 4)
            ]
        );
        assert_eq!(sink.counter("join", "probe", "matches"), 4);
        assert_eq!(sink.counter("chase", "round", "new_facts"), 4);
        assert_eq!(sink.counter("chase", "round", "nulls_created"), 4);
        assert_eq!(
            sink.counter("chase", "round", "body_matches"),
            observed.stats.total_body_matches()
        );
        assert_eq!(sink.counter("chase", "round", "triggers_fired"), 4);
        // Per-rule attribution reconciles with the round totals.
        assert_eq!(
            sink.counter("chase", "trigger", "body_matches"),
            observed.stats.total_body_matches()
        );
        assert_eq!(sink.counter("chase", "trigger", "triggers_fired"), 4);
        // One run span enclosing four round spans, ids 1..=5, all closed.
        let spans = sink.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[0].engine, spans[0].name, spans[0].id), ("chase", "run", 1));
        assert!(spans.iter().all(|s| s.is_closed()));
        for (i, s) in spans[1..].iter().enumerate() {
            assert_eq!((s.name, s.parent, s.key), ("round", 1, Some(("round", i as u64 + 1))));
        }
        // Every event is parented under a round span.
        assert!(sink.events().iter().all(|e| e.parent >= 2));
    }

    #[test]
    fn unbudgeted_run_on_unprovable_theory_emits_a_warning() {
        use bddfc_core::obs::Memory;
        // Not weakly acyclic, but the self-loop witnesses the head, so
        // the restricted chase still reaches a fixpoint immediately.
        let prog = parse_program("E(X,Y) -> exists Z . E(Y,Z). E(a,a).").unwrap();
        let unbudgeted =
            ChaseConfig { max_rounds: u32::MAX, max_facts: usize::MAX, ..Default::default() };
        let sink = Memory::new(64);
        let mut voc = prog.voc.clone();
        let res = chase_with(&prog.instance, &prog.theory, &mut voc, unbudgeted, &sink);
        assert!(res.is_fixpoint());
        let warnings: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| (e.engine, e.name) == ("chase", "warning"))
            .cloned()
            .collect();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].key, Some(("rule", 0)));
        assert!(warnings[0].fields.iter().any(|&(k, v)| k == "not_weakly_acyclic" && v == 1));

        // A budgeted run of the same theory stays silent, and so does an
        // unbudgeted run of a weakly acyclic theory.
        let sink2 = Memory::new(64);
        let mut voc2 = prog.voc.clone();
        let _ = chase_with(&prog.instance, &prog.theory, &mut voc2, ChaseConfig::default(), &sink2);
        assert!(sink2.events().iter().all(|e| e.name != "warning"));
        let wa = parse_program("P(X) -> exists Z . E(X,Z). P(a).").unwrap();
        let sink3 = Memory::new(64);
        let mut voc3 = wa.voc.clone();
        let _ = chase_with(&wa.instance, &wa.theory, &mut voc3, unbudgeted, &sink3);
        assert!(sink3.events().iter().all(|e| e.name != "warning"));
    }

    #[test]
    fn stepper_matches_batch_run() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z). E(X,Y), E(Y,Z) -> R(X,Z). E(a,b).",
        )
        .unwrap();
        let mut voc1 = prog.voc.clone();
        let mut stepper = ChaseStepper::new(
            &prog.instance,
            &prog.theory,
            ChaseVariant::Restricted,
            ChaseStrategy::SemiNaive,
        );
        for _ in 0..6 {
            stepper.step(&mut voc1);
        }
        let mut voc2 = prog.voc.clone();
        let batch = chase(&prog.instance, &prog.theory, &mut voc2, ChaseConfig::rounds(6));
        assert_eq!(stepper.instance, batch.instance);
    }
}
