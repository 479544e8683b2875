//! Columnar (struct-of-arrays) fact storage: the instance's by-predicate
//! access path and the relation layer behind the batched hash-join
//! kernel ([`crate::join`]).
//!
//! A [`ColumnarStore`] keeps, per predicate, one `Vec<ConstId>` per
//! argument position plus an `ids` column holding each row's
//! instance-wide [`FactIdx`]. Row `i` of predicate `P` is the `i`-th fact
//! of `P` in instance insertion order, so the store is a transposed view
//! of the instance's fact vector: scans walk dense `u32` columns instead
//! of chasing one `Fact` per tuple, and [`Relation::ids`] is the
//! ascending list of `P`'s facts that
//! [`crate::Instance::facts_with_pred`] returns. Rows are appended in
//! insertion order, so any *segment* of a relation is a contiguous row
//! range `lo..hi`; the semi-naive chase exploits this by remembering how
//! many facts a round added per predicate — the round's delta is exactly
//! the relation's tail segment, no copying required. Removal
//! ([`crate::Instance::remove`]) compacts the rows in place, keeping
//! that order.
//!
//! ## Postings: sealed, tail, reseal
//!
//! Each relation also answers `(position, element) -> ascending rows`
//! ([`Relation::matching`]). The join kernel uses this for its
//! index-probe path when the probing frontier is much smaller than the
//! stored relation; the homomorphism engine uses it for candidate
//! selection. The postings are derived data with a three-step
//! lifecycle:
//!
//! * **Sealed.** The first `matching` call indexes every row present
//!   into one flat CSR table: all lists back to back in one `Vec<u32>`,
//!   plus a map from `(position, element)` to a `Copy` range of it. A
//!   relation's postings are thus two allocations, whatever their
//!   number of lists, and cloning or dropping them is a memcpy or a free.
//! * **Tail.** Rows appended after sealing form an unsealed tail that
//!   `matching` serves by a column scan. The tail never exceeds
//!   [`TAIL_MAX`] rows, so a few-row write (a service insert) keeps the
//!   sealed table instead of re-indexing the relation.
//! * **Reseal.** An append that takes the tail past [`TAIL_MAX`] drops
//!   the sealed table; the next `matching` call indexes every row again.
//!   A chase round that appends thousands of rows reseals once, when the
//!   next round first consults the postings, and phases that never
//!   consult them (the oblivious chase's admission path) pay nothing.
//!   Removal keeps the sealed table unless it removes a sealed row.
//!
//! The store is maintained incrementally by [`crate::Instance::insert`]
//! and [`crate::Instance::remove`]; [`ColumnarStore::rebuild`] is the
//! from-scratch oracle the unit tests compare against.

use crate::fxhash::FxHashMap;
use crate::instance::FactIdx;
use crate::symbols::{ConstId, PredId};
use crate::term::Fact;
use std::ops::Range;
use std::sync::OnceLock;

/// Most rows a relation's unsealed posting tail holds before the next
/// append drops the sealed table (see the module docs). One `u64` mask
/// covers the tail in a [`Matching`].
pub const TAIL_MAX: usize = 64;

/// Marks a removed fact in the index remap [`ColumnarStore::remove`]
/// takes.
pub(crate) const REMOVED: FactIdx = FactIdx::MAX;

/// A relation's sealed postings: every `(position, element)` row list
/// over rows `0..sealed`, back to back in `rows`.
#[derive(Clone, Debug)]
struct Postings {
    sealed: usize,
    rows: Vec<u32>,
    ranges: FxHashMap<(u8, ConstId), (u32, u32)>,
}

impl Postings {
    /// Indexes every row of `cols` (each of length `sealed`).
    fn build(cols: &[Vec<ConstId>], sealed: usize) -> Self {
        // Count each list, lay the lists out back to back, then fill:
        // while filling, a range's end is the list's next free slot.
        let mut ranges: FxHashMap<(u8, ConstId), (u32, u32)> = FxHashMap::default();
        for (pos, col) in cols.iter().enumerate() {
            for &c in col {
                ranges.entry((pos as u8, c)).or_insert((0, 0)).1 += 1;
            }
        }
        let mut next = 0u32;
        for r in ranges.values_mut() {
            let len = r.1;
            *r = (next, next);
            next += len;
        }
        let mut rows = vec![0u32; next as usize];
        for (pos, col) in cols.iter().enumerate() {
            for (row, &c) in col.iter().enumerate() {
                let r = ranges.get_mut(&(pos as u8, c)).expect("every element was counted");
                rows[r.1 as usize] = row as u32;
                r.1 += 1;
            }
        }
        Postings { sealed, rows, ranges }
    }

    fn list(&self, pos: usize, c: ConstId) -> &[u32] {
        self.ranges
            .get(&(pos as u8, c))
            .map_or(&[], |&(lo, hi)| &self.rows[lo as usize..hi as usize])
    }
}

/// The rows of a relation holding one element at one position, ascending
/// (what [`Relation::matching`] returns): a sealed posting list followed
/// by the matching rows of the unsealed tail.
#[derive(Clone, Copy, Debug)]
pub struct Matching<'a> {
    sealed: &'a [u32],
    /// Bit `i` set: row `tail_start + i` matches.
    tail: u64,
    tail_start: u32,
}

impl<'a> Matching<'a> {
    /// Number of matching rows.
    pub fn len(&self) -> usize {
        self.sealed.len() + self.tail.count_ones() as usize
    }

    /// Does no row match?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The matching rows, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let (start, mut bits) = (self.tail_start, self.tail);
        self.sealed.iter().copied().chain(std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                start + i
            })
        }))
    }

    /// The matching rows inside `range`, ascending.
    pub fn within(&self, range: Range<usize>) -> impl Iterator<Item = u32> + 'a {
        let lo = self.sealed.partition_point(|&t| (t as usize) < range.start);
        let hi = self.sealed.partition_point(|&t| (t as usize) < range.end);
        let start = self.tail_start as usize;
        let bit = |row: usize| row.saturating_sub(start).min(64) as u32;
        let (a, b) = (bit(range.start), bit(range.end));
        let mask = if a < b { (u64::MAX >> (64 - (b - a))) << a } else { 0 };
        Matching { sealed: &self.sealed[lo..hi], tail: self.tail & mask, ..*self }.iter()
    }
}

/// One predicate's struct-of-arrays relation: `arity` parallel columns of
/// equal length and the column of each row's instance-wide fact index,
/// plus lazily-derived per-`(position, element)` posting lists over rows.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    arity: usize,
    cols: Vec<Vec<ConstId>>,
    ids: Vec<FactIdx>,
    postings: OnceLock<Postings>,
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

    /// Rows whose position `pos` holds element `c`, ascending: the sealed
    /// posting list (indexed on the first call after a reseal) plus a
    /// scan of the at most [`TAIL_MAX`] rows appended since.
    pub fn matching(&self, pos: usize, c: ConstId) -> Matching<'_> {
        let postings = self.postings.get_or_init(|| Postings::build(&self.cols, self.ids.len()));
        let tail = self.cols[pos][postings.sealed..]
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &t)| m | (u64::from(t == c) << i));
        Matching { sealed: postings.list(pos, c), tail, tail_start: postings.sealed as u32 }
    }

    fn push(&mut self, idx: FactIdx, args: &[ConstId]) {
        debug_assert_eq!(args.len(), self.arity, "arity drift within a relation");
        debug_assert!(self.ids.len() < u32::MAX as usize, "relation row id overflow");
        for (&c, col) in args.iter().zip(self.cols.iter_mut()) {
            col.push(c);
        }
        self.ids.push(idx);
        if self.postings.get().is_some_and(|p| self.ids.len() - p.sealed > TAIL_MAX) {
            self.postings.take();
        }
    }

    /// Drops the rows of removed facts and renumbers the rest in place
    /// (see [`ColumnarStore::remove`]). Rows before the first removed one
    /// keep their numbers, so the sealed postings survive unless a
    /// sealed row goes.
    fn remove(&mut self, first: FactIdx, remap: &[FactIdx]) {
        let start = self.ids.partition_point(|&i| i < first);
        let mut first_removed = None;
        let mut w = start;
        for r in start..self.ids.len() {
            let to = remap[self.ids[r] - first];
            if to == REMOVED {
                first_removed.get_or_insert(r);
                continue;
            }
            self.ids[w] = to;
            for col in &mut self.cols {
                col[w] = col[r];
            }
            w += 1;
        }
        let Some(first_removed) = first_removed else { return };
        if self.postings.get().is_some_and(|p| first_removed < p.sealed) {
            self.postings.take();
        }
        self.ids.truncate(w);
        for col in &mut self.cols {
            col.truncate(w);
        }
    }
}

/// Per-predicate columnar relations, addressed by [`PredId`].
#[derive(Clone, Debug, Default)]
pub struct ColumnarStore {
    rels: Vec<Relation>,
}

/// Equal stores hold equal relations for the same predicates; a
/// relation emptied by removal counts as absent, as it does for
/// [`ColumnarStore::relation`].
impl PartialEq for ColumnarStore {
    fn eq(&self, other: &Self) -> bool {
        self.preds().eq(other.preds())
            && self.preds().all(|p| self.relation(p) == other.relation(p))
    }
}

impl Eq for ColumnarStore {}

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

    /// Removes the rows of removed facts, in place and in order, and
    /// renumbers the survivors: `remap[i - first]` is the new index of
    /// fact `i >= first`, or [`REMOVED`]. Facts before `first` keep their
    /// index, so only relations with rows from `first` on are touched.
    pub(crate) fn remove(&mut self, first: FactIdx, remap: &[FactIdx]) {
        for rel in &mut self.rels {
            if rel.ids.last().is_some_and(|&i| i >= first) {
                rel.remove(first, remap);
            }
        }
    }

    /// The relation of `pred`, if it has a row.
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

    /// The rows of `rel` holding `c` at `pos`, by a scan of the column.
    fn scan(rel: &Relation, pos: usize, c: ConstId) -> Vec<u32> {
        (0..rel.rows()).filter(|&r| rel.get(r, pos) == c).map(|r| r as u32).collect()
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

    /// Postings consulted between appends of every size (sealed lists
    /// with a growing tail, and reseals when the tail passes `TAIL_MAX`)
    /// answer exactly what a fresh rebuild of the same prefix answers.
    #[test]
    fn interleaved_matching_equals_a_rebuild() {
        for seed in [3, 11, 42] {
            let mut voc = Vocabulary::new();
            let facts = soup(&mut voc, 1500, seed);
            let elems: Vec<ConstId> =
                (0..8).map(|i| voc.find_const(&format!("c{i}")).unwrap()).collect();
            let mut rng = SplitMix64::new(seed);
            let mut store = ColumnarStore::new();
            let mut next = 0;
            let (mut tails, mut reseals) = (0, 0);
            while next < facts.len() {
                // Steps from 1 row to well past the tail bound.
                let step = 1 + rng.below(3 * TAIL_MAX);
                let sealed_before: Vec<Option<usize>> =
                    store.rels.iter().map(|r| r.postings.get().map(|p| p.sealed)).collect();
                for fact in facts.iter().skip(next).take(step) {
                    store.push(next, fact);
                    next += 1;
                }
                for (rel, before) in store.rels.iter().zip(&sealed_before) {
                    match (before, rel.postings.get()) {
                        (Some(_), Some(p)) => {
                            assert!(rel.rows() - p.sealed <= TAIL_MAX);
                            tails += 1;
                        }
                        (Some(_), None) => reseals += 1,
                        _ => {}
                    }
                }
                let fresh = ColumnarStore::rebuild(&facts[..next]);
                assert_eq!(store, fresh);
                for p in store.preds() {
                    let (rel, oracle) = (store.relation(p).unwrap(), fresh.relation(p).unwrap());
                    for pos in 0..rel.arity() {
                        for &c in &elems {
                            let got = rel.matching(pos, c);
                            let want: Vec<u32> = oracle.matching(pos, c).iter().collect();
                            assert_eq!(got.iter().collect::<Vec<_>>(), want, "prefix {next}");
                            assert_eq!(got.len(), want.len());
                            let lo = rng.below(rel.rows() + 1);
                            let hi = lo + rng.below(rel.rows() + 1 - lo);
                            let inside: Vec<u32> = want
                                .iter()
                                .copied()
                                .filter(|&t| (lo..hi).contains(&(t as usize)))
                                .collect();
                            assert_eq!(got.within(lo..hi).collect::<Vec<_>>(), inside);
                        }
                    }
                }
            }
            assert!(tails > 0 && reseals > 0, "both postings paths ran ({tails}, {reseals})");
        }
    }

    #[test]
    fn tail_appends_and_removals_keep_the_sealed_postings() {
        let mut voc = Vocabulary::new();
        let u = voc.pred("U", 1);
        let c = voc.constant("c");
        let mut store = ColumnarStore::new();
        for i in 0..10 {
            store.push(i, &Fact::new(u, vec![c]));
        }
        assert_eq!(store.relation(u).unwrap().matching(0, c).len(), 10);
        for i in 10..10 + TAIL_MAX {
            store.push(i, &Fact::new(u, vec![c]));
        }
        let rel = store.relation(u).unwrap();
        assert_eq!(rel.postings.get().map(|p| p.sealed), Some(10), "a tail within the bound");
        assert_eq!(rel.matching(0, c).len(), 10 + TAIL_MAX);
        store.push(10 + TAIL_MAX, &Fact::new(u, vec![c]));
        assert!(store.relation(u).unwrap().postings.get().is_none(), "one row past it reseals");

        // Removal keeps the sealed table while it only takes tail rows.
        let rows = store.rows(u);
        assert_eq!(store.relation(u).unwrap().matching(0, c).len(), rows);
        store.push(rows, &Fact::new(u, vec![c]));
        store.push(rows + 1, &Fact::new(u, vec![c]));
        store.remove(rows, &[REMOVED, rows]);
        let rel = store.relation(u).unwrap();
        assert_eq!(rel.postings.get().map(|p| p.sealed), Some(rows));
        assert_eq!(rel.ids()[rows], rows);
        assert_eq!(rel.matching(0, c).len(), rows + 1);
        let remap: Vec<FactIdx> =
            (0..=rows).map(|i| if i == 0 { REMOVED } else { i - 1 }).collect();
        store.remove(0, &remap);
        assert!(store.relation(u).unwrap().postings.get().is_none(), "a sealed row went");
        assert_eq!(store, ColumnarStore::rebuild(&vec![Fact::new(u, vec![c]); rows]));
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
        let facts = soup(&mut voc, 400, 29);
        let mut store = ColumnarStore::new();
        for (i, fact) in facts.iter().enumerate() {
            store.push(i, fact);
            // Checked at several prefixes, so lists are read sealed, with
            // a tail and after reseals, not just once at the end.
            if i % 37 != 0 && i + 1 != facts.len() {
                continue;
            }
            for p in store.preds() {
                let rel = store.relation(p).unwrap();
                for pos in 0..rel.arity() {
                    for e in 0..8 {
                        let c = voc.find_const(&format!("c{e}")).unwrap();
                        let rows: Vec<u32> = rel.matching(pos, c).iter().collect();
                        assert!(rows.windows(2).all(|w| w[0] < w[1]), "unsorted postings");
                        assert_eq!(rows, scan(rel, pos, c));
                    }
                }
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
