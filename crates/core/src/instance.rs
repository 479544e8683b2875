//! Database instances: indexed stores of ground facts.
//!
//! An [`Instance`] is the paper's "database instance … a set of facts",
//! kept as three structures that every insert updates: the fact vector in
//! insertion order, a content-hash table for O(1) duplicate detection,
//! and a [`ColumnarStore`] (struct-of-arrays per predicate, also the
//! batched join kernel's input). The columnar relations are the one
//! by-predicate access path: each row carries its fact's [`FactIdx`], so
//! [`Instance::facts_with_pred`] is a relation's id column, and their
//! `(position, element)` postings answer position-constrained lookups.
//! The by-element access paths (active domain, element posting lists)
//! live off the chase hot path: they are built lazily on first use and
//! invalidated by the next insert.

use crate::columnar::ColumnarStore;
use crate::fxhash::{FxHashMap, FxHashSet, FxHasher};
use crate::symbols::{ConstId, PredId, Vocabulary};
use crate::term::Fact;
use std::fmt;
use std::hash::Hasher;
use std::sync::OnceLock;

/// Position of a fact in its instance's insertion-ordered fact vector.
pub type FactIdx = usize;

/// The lazily-built by-element access paths: element posting lists
/// (which double as the active domain, their key set).
#[derive(Clone, Debug, Default)]
struct ElemIndex {
    by_const: FxHashMap<ConstId, Vec<FactIdx>>,
}

impl ElemIndex {
    fn build(facts: &[Fact]) -> Self {
        let mut by_const: FxHashMap<ConstId, Vec<FactIdx>> = FxHashMap::default();
        for (idx, fact) in facts.iter().enumerate() {
            for (pos, &c) in fact.args.iter().enumerate() {
                // Record each fact once per *distinct* element it contains.
                if fact.args[..pos].iter().all(|&p| p != c) {
                    by_const.entry(c).or_default().push(idx);
                }
            }
        }
        ElemIndex { by_const }
    }
}

/// Content hash of a ground fact, computable from `(pred, args)` without
/// materializing a [`Fact`] — the duplicate-detection key.
fn fact_hash(pred: PredId, args: &[ConstId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(pred.0);
    for &c in args {
        h.write_u32(c.0);
    }
    h.finish()
}

/// An indexed set of ground facts over interned symbols.
#[derive(Clone, Debug, Default)]
pub struct Instance {
    facts: Vec<Fact>,
    /// Content-hash duplicate table: fact hash -> index of the first fact
    /// stored with that hash. True 64-bit collisions between *distinct*
    /// facts spill to `collisions`, which stays empty in practice.
    by_hash: FxHashMap<u64, FactIdx>,
    collisions: Vec<FactIdx>,
    columnar: ColumnarStore,
    elems: OnceLock<ElemIndex>,
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a fact; returns `true` if it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let hash = fact_hash(fact.pred, &fact.args);
        if self.lookup(hash, fact.pred, &fact.args).is_some() {
            return false;
        }
        self.insert_new(hash, fact);
        true
    }

    /// Inserts the ground fact `pred(args)` if new (allocating only in
    /// that case); returns `true` if it was new. The allocation-free
    /// duplicate path is what the chase's repair loop leans on.
    pub fn insert_ground(&mut self, pred: PredId, args: &[ConstId]) -> bool {
        let hash = fact_hash(pred, args);
        if self.lookup(hash, pred, args).is_some() {
            return false;
        }
        self.insert_new(hash, Fact::new(pred, args.to_vec()));
        true
    }

    /// Reserves room for at least `additional` more facts in the fact
    /// list and the duplicate table, so a caller about to apply a known
    /// batch of insertions (the chase repair loop) avoids incremental
    /// rehashing of the content-hash table mid-batch.
    pub fn reserve(&mut self, additional: usize) {
        self.facts.reserve(additional);
        self.by_hash.reserve(additional);
    }

    /// The stored index of `pred(args)` under its content `hash`, if any.
    fn lookup(&self, hash: u64, pred: PredId, args: &[ConstId]) -> Option<FactIdx> {
        if let Some(&idx) = self.by_hash.get(&hash) {
            let f = &self.facts[idx];
            if f.pred == pred && f.args == args {
                return Some(idx);
            }
            // A different fact owns this hash slot: scan the spill list.
            return self
                .collisions
                .iter()
                .copied()
                .find(|&i| self.facts[i].pred == pred && self.facts[i].args == args);
        }
        None
    }

    fn insert_new(&mut self, hash: u64, fact: Fact) {
        let idx = self.facts.len();
        match self.by_hash.entry(hash) {
            // A different fact owns this hash slot (a true 64-bit
            // collision): the newcomer spills, the owner stays.
            std::collections::hash_map::Entry::Occupied(_) => self.collisions.push(idx),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(idx);
            }
        }
        self.columnar.push(idx, &fact);
        self.elems.take();
        self.facts.push(fact);
    }

    /// The by-element access paths, built on first use after an insert.
    fn elems(&self) -> &ElemIndex {
        self.elems.get_or_init(|| ElemIndex::build(&self.facts))
    }

    /// Inserts every fact from an iterator; returns how many were new.
    pub fn extend<I: IntoIterator<Item = Fact>>(&mut self, facts: I) -> usize {
        facts.into_iter().filter(|f| self.insert(f.clone())).count()
    }

    /// Does the instance contain this exact fact?
    pub fn contains(&self, fact: &Fact) -> bool {
        self.contains_ground(fact.pred, &fact.args)
    }

    /// Does the instance contain the ground fact `pred(args)`? Probes the
    /// content-hash table directly, so callers (like the chase's head
    /// checks) never materialize a [`Fact`] just to ask.
    pub fn contains_ground(&self, pred: PredId, args: &[ConstId]) -> bool {
        self.lookup(fact_hash(pred, args), pred, args).is_some()
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// All facts, in insertion order.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// The fact stored at `idx`.
    pub fn fact(&self, idx: FactIdx) -> &Fact {
        &self.facts[idx]
    }

    /// The columnar (struct-of-arrays) mirror of this instance's facts,
    /// per predicate in insertion order: the by-predicate access path and
    /// the batched join kernel's input.
    pub fn columnar(&self) -> &ColumnarStore {
        &self.columnar
    }

    /// Indexes of facts with the given predicate, ascending.
    pub fn facts_with_pred(&self, pred: PredId) -> &[FactIdx] {
        self.columnar.relation(pred).map_or(&[], |r| r.ids())
    }

    /// Indexes of all facts containing the element `c` (each fact listed
    /// once, regardless of how many positions `c` fills).
    pub fn facts_with_element(&self, c: ConstId) -> &[FactIdx] {
        self.elems().by_const.get(&c).map_or(&[], |v| v.as_slice())
    }

    /// The active domain: every element occurring in some fact.
    pub fn domain(&self) -> impl Iterator<Item = ConstId> + '_ {
        self.elems().by_const.keys().copied()
    }

    /// Does the element occur in some fact?
    pub fn in_domain(&self, c: ConstId) -> bool {
        self.elems().by_const.contains_key(&c)
    }

    /// Size of the active domain.
    pub fn domain_size(&self) -> usize {
        self.elems().by_const.len()
    }

    /// The active domain as a sorted vector (deterministic order).
    pub fn sorted_domain(&self) -> Vec<ConstId> {
        let mut v: Vec<ConstId> = self.domain().collect();
        v.sort_unstable();
        v
    }

    /// Is `other` a sub-instance of `self` (the paper's `C₁ ⊨ C₂`)?
    pub fn models(&self, other: &Instance) -> bool {
        other.facts.iter().all(|f| self.contains(f))
    }

    /// Restriction `C ↾ A` to the atoms whose arguments all lie in `A`
    /// (Notation, Section 1.1).
    pub fn restrict_to_elements(&self, elements: &FxHashSet<ConstId>) -> Instance {
        let mut out = Instance::new();
        for f in &self.facts {
            if f.args.iter().all(|c| elements.contains(c)) {
                out.insert(f.clone());
            }
        }
        out
    }

    /// Restriction `C ↾ Σ` to the atoms over the given predicates.
    pub fn restrict_to_preds(&self, preds: &FxHashSet<PredId>) -> Instance {
        let mut out = Instance::new();
        for f in &self.facts {
            if preds.contains(&f.pred) {
                out.insert(f.clone());
            }
        }
        out
    }

    /// The predicates actually used by some fact, ascending.
    pub fn used_preds(&self) -> impl Iterator<Item = PredId> + '_ {
        self.columnar.preds()
    }

    /// Renders all facts, sorted, one per line.
    pub fn display<'a>(&'a self, voc: &'a Vocabulary) -> DisplayInstance<'a> {
        DisplayInstance { inst: self, voc }
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        // Both sides are deduplicated sets, so equal size + inclusion
        // one way is set equality.
        self.facts.len() == other.facts.len() && self.facts.iter().all(|f| other.contains(f))
    }
}

impl Eq for Instance {}

impl FromIterator<Fact> for Instance {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        let mut inst = Instance::new();
        inst.extend(iter);
        inst
    }
}

/// Helper for [`Instance::display`].
pub struct DisplayInstance<'a> {
    inst: &'a Instance,
    voc: &'a Vocabulary,
}

impl fmt::Display for DisplayInstance<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut lines: Vec<String> = self
            .inst
            .facts
            .iter()
            .map(|fact| fact.display(self.voc).to_string())
            .collect();
        lines.sort();
        for line in lines {
            writeln!(f, "{line}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(voc: &mut Vocabulary, n: usize) -> Instance {
        let e = voc.pred("E", 2);
        let mut inst = Instance::new();
        for i in 0..n {
            let a = voc.constant(&format!("a{i}"));
            let b = voc.constant(&format!("a{}", i + 1));
            inst.insert(Fact::new(e, vec![a, b]));
        }
        inst
    }

    #[test]
    fn insert_deduplicates() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let a = voc.constant("a");
        let mut inst = Instance::new();
        assert!(inst.insert(Fact::new(e, vec![a, a])));
        assert!(!inst.insert(Fact::new(e, vec![a, a])));
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.domain_size(), 1);
    }

    #[test]
    fn indexes_answer_lookups() {
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 3);
        let e = voc.find_pred("E").unwrap();
        let a1 = voc.find_const("a1").unwrap();
        assert_eq!(inst.facts_with_pred(e), &[0, 1, 2]);
        // a1 occurs once in position 0 and once in position 1.
        let rel = inst.columnar().relation(e).unwrap();
        assert_eq!(rel.matching(0, a1).len(), 1);
        assert_eq!(rel.matching(1, a1).len(), 1);
    }

    #[test]
    fn restriction_to_elements() {
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 3);
        let keep: FxHashSet<ConstId> =
            [voc.find_const("a0").unwrap(), voc.find_const("a1").unwrap()]
                .into_iter()
                .collect();
        let small = inst.restrict_to_elements(&keep);
        assert_eq!(small.len(), 1);
    }

    #[test]
    fn models_is_subset_check() {
        let mut voc = Vocabulary::new();
        let big = chain(&mut voc, 4);
        let mut voc2 = voc.clone();
        let small = chain(&mut voc2, 2);
        assert!(big.models(&small));
        assert!(!small.models(&big));
    }

    #[test]
    fn incremental_index_matches_rebuild() {
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 10);
        assert_eq!(*inst.columnar(), ColumnarStore::rebuild(inst.facts()));
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 2);
        let s = inst.display(&voc).to_string();
        assert_eq!(s, "E(a0,a1).\nE(a1,a2).\n");
    }
}
