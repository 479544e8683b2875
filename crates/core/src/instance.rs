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
//!
//! ## Storage and copies
//!
//! Every part of an instance is a flat buffer of `Copy` data: facts keep
//! short argument lists inline (see [`crate::term::Args`]), the
//! content-hash table maps hashes to indexes, and a relation is a few
//! columns plus a CSR posting table. Cloning an instance is therefore a
//! fixed number of buffer copies, and dropping one a fixed number of
//! frees, however many facts it holds: the copy-on-write step of a
//! service write and the release of a superseded snapshot cost memcpys,
//! not an allocation per fact or per posting list.
//!
//! ## In-place removal
//!
//! [`Instance::remove`] deletes facts without a rebuild. It compacts the
//! fact vector, the content-hash table and every touched relation from
//! the first removed index on, keeping insertion order, so the result
//! equals an instance rebuilt from the survivors in order. Work is
//! proportional to the facts stored from the earliest removed one on: a
//! retraction of recently inserted facts costs their number, not the
//! instance's size.

use crate::columnar::{ColumnarStore, REMOVED};
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
        self.insert_new(hash, Fact { pred, args: args.into() });
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

    /// Removes the given facts in place (absent ones are skipped),
    /// keeping the survivors' insertion order, and returns the removed
    /// facts' former indexes, ascending. The result equals the instance
    /// rebuilt by inserting the survivors in order: the same fact
    /// indexes, duplicate table, columns and postings. Costs time
    /// proportional to the facts stored from the earliest removed one on
    /// (see the module docs).
    pub fn remove<'a>(&mut self, facts: impl IntoIterator<Item = &'a Fact>) -> Vec<FactIdx> {
        let mut gone: Vec<FactIdx> = facts
            .into_iter()
            .filter_map(|f| self.lookup(fact_hash(f.pred, &f.args), f.pred, &f.args))
            .collect();
        gone.sort_unstable();
        gone.dedup();
        let Some(&first) = gone.first() else { return gone };
        // The new index of every fact from `first` on.
        let mut remap = Vec::with_capacity(self.facts.len() - first);
        let mut victims = gone.iter().peekable();
        let mut next = first;
        for i in first..self.facts.len() {
            if victims.next_if_eq(&&i).is_some() {
                remap.push(REMOVED);
            } else {
                remap.push(next);
                next += 1;
            }
        }
        // Owners of a duplicate-table slot move down with their fact; a
        // removed owner frees its slot.
        let mut orphaned: Vec<u64> = Vec::new();
        for (i, &to) in (first..).zip(&remap) {
            let f = &self.facts[i];
            let hash = fact_hash(f.pred, &f.args);
            if let Some(slot) = self.by_hash.get_mut(&hash).filter(|slot| **slot == i) {
                if to == REMOVED {
                    self.by_hash.remove(&hash);
                    orphaned.push(hash);
                } else {
                    *slot = to;
                }
            }
        }
        let mut w = first;
        for (i, &to) in (first..).zip(&remap) {
            if to != REMOVED {
                self.facts.swap(w, i);
                w += 1;
            }
        }
        self.facts.truncate(w);
        if !self.collisions.is_empty() {
            self.collisions.retain_mut(|i| {
                if *i >= first {
                    *i = remap[*i - first];
                }
                *i != REMOVED
            });
            // A freed slot passes to the earliest surviving fact spilled
            // under the same hash, the one a rebuild would make owner.
            for hash in orphaned {
                let facts = &self.facts;
                let heir = self
                    .collisions
                    .iter()
                    .position(|&i| fact_hash(facts[i].pred, &facts[i].args) == hash);
                if let Some(k) = heir {
                    self.by_hash.insert(hash, self.collisions.remove(k));
                }
            }
        }
        self.columnar.remove(first, &remap);
        self.elems.take();
        gone
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
    use crate::prng::SplitMix64;

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

    /// A seeded soup of facts over three predicates and eight elements
    /// (with duplicates, which the instance absorbs).
    fn soup(voc: &mut Vocabulary, n: usize, seed: u64) -> Vec<Fact> {
        let mut rng = SplitMix64::new(seed);
        let e = voc.pred("E", 2);
        let u = voc.pred("U", 1);
        let t = voc.pred("T", 3);
        let elems: Vec<ConstId> = (0..8).map(|i| voc.constant(&format!("c{i}"))).collect();
        let mut pick = |k: usize| (0..k).map(|_| *rng.pick(&elems)).collect::<Vec<_>>();
        (0..n).map(|i| Fact::new([e, u, t][i % 3], pick([2, 1, 3][i % 3]))).collect()
    }

    /// Asserts that `inst` equals `rebuilt` part by part: facts in
    /// order, duplicate table, columns, per-predicate ids and postings.
    fn assert_same_store(inst: &Instance, rebuilt: &Instance, voc: &Vocabulary) {
        assert_eq!(inst.facts(), rebuilt.facts());
        assert_eq!(inst.by_hash, rebuilt.by_hash);
        assert_eq!(inst.collisions, rebuilt.collisions);
        assert_eq!(inst.columnar(), rebuilt.columnar());
        for (p, _) in voc.preds() {
            assert_eq!(inst.facts_with_pred(p), rebuilt.facts_with_pred(p));
            let Some(rel) = inst.columnar().relation(p) else { continue };
            let oracle = rebuilt.columnar().relation(p).unwrap();
            for pos in 0..rel.arity() {
                for c in (0..8).filter_map(|i| voc.find_const(&format!("c{i}"))) {
                    let got: Vec<u32> = rel.matching(pos, c).iter().collect();
                    assert_eq!(got, oracle.matching(pos, c).iter().collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn remove_equals_a_rebuild_of_the_survivors() {
        for seed in 1..=6 {
            let mut voc = Vocabulary::new();
            let facts = soup(&mut voc, 400, seed);
            let mut rng = SplitMix64::new(seed);
            for prefix in [0, 1, 40, 150, 400] {
                let before: Instance = facts[..prefix].iter().cloned().collect();
                let stored = before.facts();
                // Victims: a tail, a scattered sample, or everything.
                let victims: Vec<Fact> = match rng.below(3) {
                    0 => stored[stored.len().saturating_sub(1 + rng.below(5))..].to_vec(),
                    1 => stored.iter().filter(|_| rng.below(4) == 0).cloned().collect(),
                    _ => stored.to_vec(),
                };
                let mut inst = before.clone();
                // Build every relation's postings, with a tail on some,
                // so removal meets sealed tables to keep or drop.
                for p in inst.used_preds() {
                    let c = inst.columnar().relation(p).unwrap().get(0, 0);
                    inst.columnar().relation(p).unwrap().matching(0, c);
                }
                for f in facts[prefix..].iter().take(rng.below(8)) {
                    inst.insert(f.clone());
                }
                let grown = inst.facts().to_vec();
                let gone = inst.remove(&victims);
                let expect_gone: Vec<FactIdx> =
                    (0..grown.len()).filter(|&i| victims.contains(&grown[i])).collect();
                assert_eq!(gone, expect_gone, "seed {seed} prefix {prefix}");
                let survivors: Vec<Fact> =
                    grown.iter().filter(|f| !victims.contains(f)).cloned().collect();
                let rebuilt: Instance = survivors.iter().cloned().collect();
                assert_same_store(&inst, &rebuilt, &voc);
                for f in &grown {
                    assert_eq!(inst.contains(f), !victims.contains(f));
                }
                assert_eq!(inst.sorted_domain(), rebuilt.sorted_domain());
                // The store stays usable: re-inserting the victims appends
                // them as a rebuild would.
                let mut again = inst;
                let mut rebuilt_again = rebuilt;
                for f in &victims {
                    assert_eq!(again.insert(f.clone()), rebuilt_again.insert(f.clone()));
                }
                assert_same_store(&again, &rebuilt_again, &voc);
            }
        }
    }

    /// Two distinct binary facts over `PredId(0)` with equal
    /// [`fact_hash`]es. The hasher folds a word in as `h = (h.rotl(26) ^
    /// w) * K` from `h = 0`, and a `u32` word reaches only the low half of
    /// `h.rotl(26)`. After first arguments `a` and `a + D` the states
    /// `a·K` and `(a + D)·K` differ by `D·K ≡ -40 (mod 2^38)`, so with
    /// `a·K mod 64 >= 40` they agree on bits 6..38, the high half after
    /// the rotation; the second arguments then cancel the low halves.
    fn colliding_pair() -> (Fact, Fact) {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        const D: u32 = 257_293_944;
        let a = 2; // 2·K ≡ 42 (mod 64)
        let low = |x: u32| u64::from(x).wrapping_mul(K).rotate_left(26) as u32;
        let f = Fact::new(PredId(0), vec![ConstId(a), ConstId(0)]);
        let g = Fact::new(PredId(0), vec![ConstId(a + D), ConstId(low(a) ^ low(a + D))]);
        (f, g)
    }

    #[test]
    fn removing_a_colliding_owner_hands_its_slot_on() {
        let (f, g) = colliding_pair();
        assert_ne!(f, g);
        assert_eq!(fact_hash(f.pred, &f.args), fact_hash(g.pred, &g.args));
        let mut voc = Vocabulary::new();
        voc.pred("E", 2);
        let other = |a| Fact::new(PredId(0), vec![ConstId(a), ConstId(a)]);
        let all = [other(1), f.clone(), other(2), g.clone(), other(3)];
        for victim in [&f, &g] {
            let mut inst: Instance = all.iter().cloned().collect();
            assert_eq!(inst.collisions, vec![3], "the later fact spills");
            assert_eq!(inst.remove([victim]), vec![if victim == &f { 1 } else { 3 }]);
            let rebuilt: Instance = all.iter().filter(|h| *h != victim).cloned().collect();
            assert_same_store(&inst, &rebuilt, &voc);
            assert!(inst.collisions.is_empty());
            assert!(!inst.contains(victim));
            assert!(all.iter().filter(|h| *h != victim).all(|h| inst.contains(h)));
        }
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 2);
        let s = inst.display(&voc).to_string();
        assert_eq!(s, "E(a0,a1).\nE(a1,a2).\n");
    }
}
