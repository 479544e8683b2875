//! Columnar (struct-of-arrays) fact storage: the instance's by-predicate
//! access path and the relation layer behind the batched hash-join
//! kernel ([`crate::join`]).
//!
//! A [`ColumnarStore`] keeps, per predicate, one append-only `Vec<ConstId>`
//! per argument position plus an `ids` column holding each row's
//! instance-wide [`FactIdx`]. Row `i` of predicate `P` is the `i`-th fact
//! of `P` in instance insertion order, so the store is a transposed view
//! of the instance's fact vector: scans walk dense `u32` columns instead
//! of chasing one heap-allocated `Fact` per tuple, and
//! [`Relation::ids`] is the ascending list of `P`'s facts that
//! [`crate::Instance::facts_with_pred`] returns. Because rows are only
//! ever appended, any *segment* of a relation is a contiguous row range
//! `lo..hi`; the semi-naive chase exploits this by remembering how many
//! facts a round added per predicate — the round's delta is exactly the
//! relation's tail segment, no copying required.
//!
//! Each relation also serves `(position, element) -> sorted row list`
//! posting lists in per-relation row space. The join kernel uses them
//! for its index-probe path when the probing frontier is much smaller
//! than the stored relation; the homomorphism engine uses them for its
//! candidate selection. Postings are *derived* data: they are built
//! lazily from the columns on the first [`Relation::matching`] call
//! after an append and torn down by the next append, so insert-heavy
//! phases that never consult them (the oblivious chase's admission path)
//! pay nothing for their upkeep.
//!
//! The store is maintained incrementally by [`crate::Instance::insert`];
//! [`ColumnarStore::rebuild`] is the from-scratch oracle the unit tests
//! compare against.

use crate::fxhash::FxHashMap;
use crate::instance::FactIdx;
use crate::symbols::{ConstId, PredId};
use crate::term::Fact;
use std::sync::OnceLock;

/// One predicate's struct-of-arrays relation: `arity` parallel columns of
/// equal length and the column of each row's instance-wide fact index,
/// plus lazily-derived per-`(position, element)` posting lists over rows.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    arity: usize,
    cols: Vec<Vec<ConstId>>,
    ids: Vec<FactIdx>,
    postings: OnceLock<FxHashMap<(u8, ConstId), Vec<u32>>>,
}

/// Postings are derived data, so equality is column equality.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.cols == other.cols && self.ids == other.ids
    }
}

impl Eq for Relation {}

impl Relation {
    fn new(arity: usize) -> Self {
        Relation {
            arity,
            cols: vec![Vec::new(); arity],
            ids: Vec::new(),
            postings: OnceLock::new(),
        }
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of stored rows.
    pub fn rows(&self) -> usize {
        self.ids.len()
    }

    /// The column of argument position `pos` (length [`Relation::rows`]).
    pub fn col(&self, pos: usize) -> &[ConstId] {
        &self.cols[pos]
    }

    /// The instance-wide fact index of every row, ascending (row `i` is
    /// fact `ids()[i]` of the instance).
    pub fn ids(&self) -> &[FactIdx] {
        &self.ids
    }

    /// The element at `(row, pos)`.
    #[inline]
    pub fn get(&self, row: usize, pos: usize) -> ConstId {
        self.cols[pos][row]
    }

    /// Rows whose position `pos` holds element `c`, sorted ascending.
    /// Served from the lazily-built posting lists (rebuilt on the first
    /// call after an append).
    pub fn matching(&self, pos: usize, c: ConstId) -> &[u32] {
        self.postings().get(&(pos as u8, c)).map_or(&[], |v| v.as_slice())
    }

    /// The posting lists, derived from the columns on first use.
    fn postings(&self) -> &FxHashMap<(u8, ConstId), Vec<u32>> {
        self.postings.get_or_init(|| {
            let mut postings: FxHashMap<(u8, ConstId), Vec<u32>> = FxHashMap::default();
            for (pos, col) in self.cols.iter().enumerate() {
                for (row, &c) in col.iter().enumerate() {
                    postings.entry((pos as u8, c)).or_default().push(row as u32);
                }
            }
            postings
        })
    }

    fn push(&mut self, idx: FactIdx, args: &[ConstId]) {
        debug_assert_eq!(args.len(), self.arity, "arity drift within a relation");
        debug_assert!(self.ids.len() < u32::MAX as usize, "relation row id overflow");
        for (&c, col) in args.iter().zip(self.cols.iter_mut()) {
            col.push(c);
        }
        self.ids.push(idx);
        self.postings.take();
    }
}

/// Per-predicate columnar relations, addressed by [`PredId`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColumnarStore {
    rels: Vec<Relation>,
}

impl ColumnarStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the fact stored at instance index `idx` as a new row of its
    /// predicate's relation. Callers must present facts in increasing
    /// `idx` order (instance insertion order) so rows mirror per-predicate
    /// insertion order and every [`Relation::ids`] stays ascending.
    pub fn push(&mut self, idx: FactIdx, fact: &Fact) {
        let p = fact.pred.index();
        if p >= self.rels.len() {
            self.rels.resize_with(p + 1, Relation::default);
        }
        let rel = &mut self.rels[p];
        if rel.ids.is_empty() && rel.arity != fact.args.len() {
            *rel = Relation::new(fact.args.len());
        }
        rel.push(idx, &fact.args);
    }

    /// The relation of `pred`, if any row was ever stored for it.
    pub fn relation(&self, pred: PredId) -> Option<&Relation> {
        self.rels.get(pred.index()).filter(|r| !r.ids.is_empty())
    }

    /// The predicates with at least one row, ascending.
    pub fn preds(&self) -> impl Iterator<Item = PredId> + '_ {
        self.rels
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.ids.is_empty())
            .map(|(i, _)| PredId(i as u32))
    }

    /// Number of rows stored for `pred` (0 for unknown predicates).
    pub fn rows(&self, pred: PredId) -> usize {
        self.rels.get(pred.index()).map_or(0, |r| r.ids.len())
    }

    /// Builds the store of a fact slice from scratch. Semantically equal
    /// to pushing every fact in order onto an empty store.
    pub fn rebuild(facts: &[Fact]) -> Self {
        let mut store = ColumnarStore::new();
        for (idx, fact) in facts.iter().enumerate() {
            store.push(idx, fact);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::SplitMix64;
    use crate::symbols::Vocabulary;

    fn soup(voc: &mut Vocabulary, n: usize, seed: u64) -> Vec<Fact> {
        let mut rng = SplitMix64::new(seed);
        let e = voc.pred("E", 2);
        let u = voc.pred("U", 1);
        let t = voc.pred("T", 3);
        let elems: Vec<ConstId> = (0..8).map(|i| voc.constant(&format!("c{i}"))).collect();
        (0..n)
            .map(|_| match rng.below(3) {
                0 => Fact::new(e, vec![*rng.pick(&elems), *rng.pick(&elems)]),
                1 => Fact::new(u, vec![*rng.pick(&elems)]),
                _ => Fact::new(t, vec![*rng.pick(&elems), *rng.pick(&elems), *rng.pick(&elems)]),
            })
            .collect()
    }

    #[test]
    fn incremental_matches_rebuild() {
        let mut voc = Vocabulary::new();
        let facts = soup(&mut voc, 200, 5);
        let mut incremental = ColumnarStore::new();
        for (i, fact) in facts.iter().enumerate() {
            incremental.push(i, fact);
            if i % 50 == 0 {
                assert_eq!(incremental, ColumnarStore::rebuild(&facts[..=i]));
            }
        }
        assert_eq!(incremental, ColumnarStore::rebuild(&facts));
    }

    #[test]
    fn ids_match_a_scan_of_the_facts() {
        let mut voc = Vocabulary::new();
        let facts = soup(&mut voc, 150, 23);
        let mut store = ColumnarStore::new();
        for (i, fact) in facts.iter().enumerate() {
            store.push(i, fact);
            // Checked at several prefixes, not just the end.
            if i % 50 == 0 || i + 1 == facts.len() {
                let prefix = &facts[..=i];
                let mut used: Vec<PredId> = prefix.iter().map(|f| f.pred).collect();
                used.sort_unstable();
                used.dedup();
                assert_eq!(store.preds().collect::<Vec<_>>(), used);
                for p in ["E", "U", "T"].map(|n| voc.find_pred(n).unwrap()) {
                    let ids = store.relation(p).map_or(&[][..], |r| r.ids());
                    let scan: Vec<FactIdx> =
                        (0..prefix.len()).filter(|&j| prefix[j].pred == p).collect();
                    assert_eq!(ids, scan.as_slice(), "ids of {p:?} at prefix {i}");
                }
            }
        }
    }

    #[test]
    fn columns_transpose_the_fact_vector() {
        let mut voc = Vocabulary::new();
        let facts = soup(&mut voc, 120, 17);
        let store = ColumnarStore::rebuild(&facts);
        let e = voc.find_pred("E").unwrap();
        let rel = store.relation(e).unwrap();
        let e_facts: Vec<&Fact> = facts.iter().filter(|f| f.pred == e).collect();
        assert_eq!(rel.rows(), e_facts.len());
        assert_eq!(rel.arity(), 2);
        for (row, fact) in e_facts.iter().enumerate() {
            for pos in 0..2 {
                assert_eq!(rel.get(row, pos), fact.args[pos]);
            }
        }
    }

    #[test]
    fn postings_are_sorted_and_exact() {
        let mut voc = Vocabulary::new();
        let facts = soup(&mut voc, 150, 29);
        let store = ColumnarStore::rebuild(&facts);
        let t = voc.find_pred("T").unwrap();
        let rel = store.relation(t).unwrap();
        for pos in 0..3 {
            for i in 0..8 {
                let c = voc.find_const(&format!("c{i}")).unwrap();
                let rows = rel.matching(pos, c);
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "unsorted postings");
                let expect: Vec<u32> = (0..rel.rows())
                    .filter(|&r| rel.get(r, pos) == c)
                    .map(|r| r as u32)
                    .collect();
                assert_eq!(rows, expect.as_slice());
            }
        }
    }

    #[test]
    fn missing_predicates_are_empty() {
        let store = ColumnarStore::new();
        assert_eq!(store.rows(PredId(3)), 0);
        assert!(store.relation(PredId(3)).is_none());
        assert_eq!(store.preds().count(), 0);
    }

    #[test]
    fn zero_arity_relations_count_rows() {
        let mut voc = Vocabulary::new();
        let p = voc.pred("P", 0);
        let mut store = ColumnarStore::new();
        store.push(0, &Fact::new(p, vec![]));
        assert_eq!(store.rows(p), 1);
        assert_eq!(store.relation(p).unwrap().arity(), 0);
    }
}
