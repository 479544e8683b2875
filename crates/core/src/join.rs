//! The batched hash-join kernel over [`crate::columnar`] relations.
//!
//! The tuple-at-a-time homomorphism engine ([`crate::hom`]) re-probes
//! index hash maps once per candidate fact per partial binding. This
//! module evaluates a whole *frontier* of bindings per probe instead: a
//! [`BindingBatch`] is itself columnar (one `Vec<ConstId>` per variable),
//! and [`join_atom`] extends every row of the batch against one body atom
//! in a single pass, choosing between
//!
//! * a **hash join** that builds a table on the smaller side (the live
//!   relation segment or the frontier) and probes the other,
//! * an **index probe** through the relation's posting lists when the
//!   frontier is much smaller than the relation, and
//! * a **cross product** when the atom shares no variable with the
//!   frontier.
//!
//! All three paths emit output rows in the canonical `(frontier row,
//! relation row)` lexicographic order, so downstream consumers observe
//! the same batch whatever side the table was built on — and, because
//! work items are fixed before any parallel fan-out, the same batch at
//! any `BDDFC_THREADS` value.
//!
//! [`plan`] orders a rule body by live predicate cardinalities (smallest
//! first, pinned delta atom first in semi-naive rounds, connected atoms
//! before cross products, ties broken by atom index), and [`eval_body`]
//! folds [`join_atom`] over that order.
//!
//! The chase and datalog saturation always enumerate rule bodies through
//! this kernel; [`crate::hom`] is its differential oracle at this seam.

use crate::columnar::{ColumnarStore, Relation};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::symbols::{ConstId, PredId, VarId};
use crate::term::{Atom, Term};
use std::ops::Range;

/// A columnar frontier of variable bindings: one column per schema
/// variable, all of length [`BindingBatch::rows`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BindingBatch {
    schema: Vec<VarId>,
    cols: Vec<Vec<ConstId>>,
    rows: usize,
}

impl BindingBatch {
    /// The unit frontier: one row binding nothing (the join identity).
    pub fn unit() -> Self {
        BindingBatch { schema: Vec::new(), cols: Vec::new(), rows: 1 }
    }

    /// An empty frontier (no rows) over the given schema.
    pub fn empty(schema: Vec<VarId>) -> Self {
        let cols = vec![Vec::new(); schema.len()];
        BindingBatch { schema, cols, rows: 0 }
    }

    /// Number of binding rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The bound variables, in binding order.
    pub fn schema(&self) -> &[VarId] {
        &self.schema
    }

    /// The schema slot of `v`, if bound.
    pub fn col_of(&self, v: VarId) -> Option<usize> {
        self.schema.iter().position(|&s| s == v)
    }

    /// The column of schema slot `slot`.
    pub fn col(&self, slot: usize) -> &[ConstId] {
        &self.cols[slot]
    }

    /// The element bound at `(row, slot)`.
    #[inline]
    pub fn get(&self, row: usize, slot: usize) -> ConstId {
        self.cols[slot][row]
    }
}

/// Per-predicate counters for one kernel invocation, aggregated into the
/// `join`/`build` and `join`/`probe` telemetry events. The count fields
/// are pure functions of the input (deterministic at any thread count);
/// the `*_ns` wall times are gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredJoinCounters {
    /// Hash tables built over this predicate's rows or against them.
    pub builds: u64,
    /// Rows hashed while building.
    pub build_rows: u64,
    /// Wall time spent building (a gauge).
    pub build_ns: u64,
    /// Probe passes against this predicate.
    pub probes: u64,
    /// Rows examined while probing (frontier rows, relation rows or
    /// posting-list entries, whichever side was probed).
    pub probe_rows: u64,
    /// Output rows the probe emitted.
    pub matches: u64,
    /// Wall time spent probing (a gauge).
    pub probe_ns: u64,
}

/// Per-predicate join attribution: accumulated shard-locally, merged
/// sequentially, emitted sorted by predicate id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    per_pred: FxHashMap<PredId, PredJoinCounters>,
}

impl JoinStats {
    fn entry(&mut self, pred: PredId) -> &mut PredJoinCounters {
        self.per_pred.entry(pred).or_default()
    }

    /// Charges one table build of `rows` hashed rows to `pred`.
    pub fn note_build(&mut self, pred: PredId, rows: u64, ns: u64) {
        let e = self.entry(pred);
        e.builds += 1;
        e.build_rows += rows;
        e.build_ns += ns;
    }

    /// Charges one probe pass over `rows` examined rows emitting
    /// `matches` output rows to `pred`.
    pub fn note_probe(&mut self, pred: PredId, rows: u64, matches: u64, ns: u64) {
        let e = self.entry(pred);
        e.probes += 1;
        e.probe_rows += rows;
        e.matches += matches;
        e.probe_ns += ns;
    }

    /// Folds another stats block into this one (for shard merging).
    pub fn merge(&mut self, other: &JoinStats) {
        for (&pred, c) in &other.per_pred {
            let e = self.entry(pred);
            e.builds += c.builds;
            e.build_rows += c.build_rows;
            e.build_ns += c.build_ns;
            e.probes += c.probes;
            e.probe_rows += c.probe_rows;
            e.matches += c.matches;
            e.probe_ns += c.probe_ns;
        }
    }

    /// `(pred, counters)` rows sorted by predicate id.
    pub fn sorted(&self) -> Vec<(PredId, PredJoinCounters)> {
        let mut rows: Vec<(PredId, PredJoinCounters)> =
            self.per_pred.iter().map(|(&p, &c)| (p, c)).collect();
        rows.sort_unstable_by_key(|&(p, _)| p);
        rows
    }

    /// Whether no work was ever charged.
    pub fn is_empty(&self) -> bool {
        self.per_pred.is_empty()
    }
}

/// Static per-predicate cardinality priors, produced by the
/// `bddfc-analyze` domain abstraction and consulted by
/// [`plan_with_priors`] when runtime cardinalities do not decide an
/// order on their own. A missing entry means "no static information"
/// and sorts last among otherwise-tied atoms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Priors {
    map: FxHashMap<PredId, u64>,
}

impl Priors {
    /// Builds priors from `(predicate, static cardinality bound)` pairs.
    pub fn new(entries: impl IntoIterator<Item = (PredId, u64)>) -> Self {
        Priors { map: entries.into_iter().collect() }
    }

    /// The static cardinality bound for `p`, if the analysis produced one.
    pub fn get(&self, p: PredId) -> Option<u64> {
        self.map.get(&p).copied()
    }

    /// Whether no predicate carries a prior.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Orders the body atoms of a rule for left-deep join evaluation.
///
/// The heuristic: the pinned (delta) atom, if any, always comes first;
/// afterwards, repeatedly pick the atom with the smallest live predicate
/// cardinality among those sharing a variable with the already-bound set
/// (falling back to all remaining atoms when none is connected), breaking
/// cardinality ties by original atom index. Returns the atom indices in
/// execution order.
pub fn plan(body: &[Atom], pinned: Option<usize>, card: impl Fn(PredId) -> usize) -> Vec<usize> {
    plan_with_priors(body, pinned, card, None)
}

/// [`plan`] with optional static cardinality priors wedged between the
/// live cardinality and the atom-index tie-break: the selection key per
/// atom is `(disconnected, live cardinality, static prior, index)`.
///
/// Live postings always dominate — priors only decide among atoms whose
/// runtime cardinalities are equal, which is exactly the state before
/// runtime postings exist (every derived predicate at 0 rows on the
/// first round, or any genuine tie later). Because the key refines the
/// [`plan`] key rather than replacing any component, passing `None` (or
/// priors that never break a tie) reproduces [`plan`]'s order bit for
/// bit — and the chase result is invariant either way, since repair
/// candidates are deduplicated by frontier key and applied in canonical
/// order whatever join order produced them.
pub fn plan_with_priors(
    body: &[Atom],
    pinned: Option<usize>,
    card: impl Fn(PredId) -> usize,
    priors: Option<&Priors>,
) -> Vec<usize> {
    let n = body.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: FxHashSet<VarId> = FxHashSet::default();
    if let Some(p) = pinned {
        order.push(p);
        used[p] = true;
        bound.extend(body[p].vars());
    }
    let prior = |p: PredId| -> u64 {
        priors.and_then(|pr| pr.get(p)).unwrap_or(u64::MAX)
    };
    while order.len() < n {
        // Minimize (disconnected, cardinality, prior, index): connected
        // atoms beat cross products, then smaller relations, then smaller
        // static bounds, then source order.
        let next = (0..n)
            .filter(|&i| !used[i])
            .map(|i| {
                let connected = body[i].vars().any(|v| bound.contains(&v));
                (!connected, card(body[i].pred), prior(body[i].pred), i)
            })
            .min()
            .expect("unused atom remains")
            .3;
        order.push(next);
        used[next] = true;
        bound.extend(body[next].vars());
    }
    order
}

/// How each argument position of the probe atom relates to the incoming
/// frontier.
struct AtomShape {
    /// `(position, required element)` — constant arguments.
    consts: Vec<(usize, ConstId)>,
    /// `(position, frontier slot)` — variables the frontier already binds.
    keys: Vec<(usize, usize)>,
    /// `(position, variable)` — first occurrence of a new variable.
    news: Vec<(usize, VarId)>,
    /// `(position, earlier position)` — repeated new variable.
    dups: Vec<(usize, usize)>,
}

fn shape(atom: &Atom, batch: &BindingBatch) -> AtomShape {
    let mut s = AtomShape { consts: Vec::new(), keys: Vec::new(), news: Vec::new(), dups: Vec::new() };
    for (pos, term) in atom.args.iter().enumerate() {
        match term {
            Term::Const(c) => s.consts.push((pos, *c)),
            Term::Var(v) => {
                if let Some(slot) = batch.col_of(*v) {
                    s.keys.push((pos, slot));
                } else if let Some(&(first, _)) = s.news.iter().find(|&&(_, nv)| nv == *v) {
                    s.dups.push((pos, first));
                } else {
                    s.news.push((pos, *v));
                }
            }
        }
    }
    s
}

/// Does relation row `t` satisfy the atom's constant and repeated-variable
/// constraints (everything except the join key)?
#[inline]
fn row_passes(rel: &Relation, t: usize, s: &AtomShape) -> bool {
    s.consts.iter().all(|&(pos, c)| rel.get(t, pos) == c)
        && s.dups.iter().all(|&(pos, first)| rel.get(t, pos) == rel.get(t, first))
}

/// Join keys over at most two columns pack into one `u64`; wider keys
/// fall back to allocated vectors.
enum Table {
    Packed(FxHashMap<u64, Vec<u32>>),
    Wide(FxHashMap<Vec<ConstId>, Vec<u32>>),
}

#[inline]
fn pack2(a: ConstId, b: ConstId) -> u64 {
    (u64::from(a.0) << 32) | u64::from(b.0)
}

#[inline]
fn rel_key_packed(rel: &Relation, t: usize, keys: &[(usize, usize)]) -> u64 {
    match keys {
        [(p, _)] => u64::from(rel.get(t, *p).0),
        [(p0, _), (p1, _)] => pack2(rel.get(t, *p0), rel.get(t, *p1)),
        _ => unreachable!("packed keys have 1 or 2 columns"),
    }
}

#[inline]
fn batch_key_packed(batch: &BindingBatch, r: usize, keys: &[(usize, usize)]) -> u64 {
    match keys {
        [(_, s)] => u64::from(batch.get(r, *s).0),
        [(_, s0), (_, s1)] => pack2(batch.get(r, *s0), batch.get(r, *s1)),
        _ => unreachable!("packed keys have 1 or 2 columns"),
    }
}

/// Gathers the output batch from canonical `(frontier row, relation row)`
/// pairs: the frontier columns come along unchanged, the atom's new
/// variables are appended from the relation's columns.
fn gather(batch: &BindingBatch, rel: &Relation, s: &AtomShape, pairs: &[(u32, u32)]) -> BindingBatch {
    let mut schema = batch.schema.clone();
    schema.extend(s.news.iter().map(|&(_, v)| v));
    let mut cols = Vec::with_capacity(schema.len());
    for slot in 0..batch.schema.len() {
        let src = batch.col(slot);
        cols.push(pairs.iter().map(|&(r, _)| src[r as usize]).collect());
    }
    for &(pos, _) in &s.news {
        let src = rel.col(pos);
        cols.push(pairs.iter().map(|&(_, t)| src[t as usize]).collect());
    }
    BindingBatch { schema, cols, rows: pairs.len() }
}

/// When the live relation segment has at least this many rows per
/// frontier row, probe the relation's posting lists instead of hashing a
/// side — the batched analogue of the tuple engine's index lookups.
const INDEX_PROBE_FACTOR: usize = 8;

/// Extends every row of `batch` against `atom`, restricted to the
/// relation rows in `range` (the live segment: the full relation, or the
/// delta tail in semi-naive rounds). Output rows appear in canonical
/// `(frontier row, relation row)` order; the output schema is the input
/// schema plus the atom's new variables in first-occurrence order.
pub fn join_atom(
    store: &ColumnarStore,
    batch: &BindingBatch,
    atom: &Atom,
    range: Range<usize>,
    stats: Option<&mut JoinStats>,
) -> BindingBatch {
    let s = shape(atom, batch);
    let mut out_schema: Vec<VarId> = batch.schema.clone();
    out_schema.extend(s.news.iter().map(|&(_, v)| v));
    let Some(rel) = store.relation(atom.pred) else {
        return BindingBatch::empty(out_schema);
    };
    if batch.rows == 0 || range.is_empty() || rel.arity() != atom.args.len() {
        return BindingBatch::empty(out_schema);
    }
    let timed = stats.is_some();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    if s.keys.is_empty() {
        // Cross product: filter the segment once, pair with every
        // frontier row in order.
        let timer = timed.then(crate::obs::SpanTimer::start);
        let matched: Vec<u32> =
            range.clone().filter(|&t| row_passes(rel, t, &s)).map(|t| t as u32).collect();
        for r in 0..batch.rows as u32 {
            pairs.extend(matched.iter().map(|&t| (r, t)));
        }
        if let Some(stats) = stats {
            let ns = timer.map_or(0, |t| t.elapsed_ns());
            stats.note_probe(atom.pred, range.len() as u64, pairs.len() as u64, ns);
        }
        return gather(batch, rel, &s, &pairs);
    }
    if range.len() >= INDEX_PROBE_FACTOR.saturating_mul(batch.rows) {
        // Index probe: per frontier row, walk the shortest posting list
        // among the key positions and verify the rest by column lookups.
        let timer = timed.then(crate::obs::SpanTimer::start);
        let mut probed = 0u64;
        for r in 0..batch.rows {
            let list = s
                .keys
                .iter()
                .map(|&(pos, slot)| rel.matching(pos, batch.get(r, slot)))
                .min_by_key(|l| l.len())
                .expect("at least one key position");
            for t in list.within(range.clone()) {
                probed += 1;
                let t_us = t as usize;
                if row_passes(rel, t_us, &s)
                    && s.keys.iter().all(|&(pos, slot)| rel.get(t_us, pos) == batch.get(r, slot))
                {
                    pairs.push((r as u32, t));
                }
            }
        }
        if let Some(stats) = stats {
            let ns = timer.map_or(0, |t| t.elapsed_ns());
            stats.note_probe(atom.pred, probed, pairs.len() as u64, ns);
        }
        return gather(batch, rel, &s, &pairs);
    }
    // Hash join, table on the smaller side.
    let packed = s.keys.len() <= 2;
    if range.len() <= batch.rows {
        // Build on the relation segment, probe frontier rows in order.
        let build_timer = timed.then(crate::obs::SpanTimer::start);
        let table = if packed {
            let mut t: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            for row in range.clone().filter(|&t| row_passes(rel, t, &s)) {
                t.entry(rel_key_packed(rel, row, &s.keys)).or_default().push(row as u32);
            }
            Table::Packed(t)
        } else {
            let mut t: FxHashMap<Vec<ConstId>, Vec<u32>> = FxHashMap::default();
            for row in range.clone().filter(|&t| row_passes(rel, t, &s)) {
                let key: Vec<ConstId> = s.keys.iter().map(|&(pos, _)| rel.get(row, pos)).collect();
                t.entry(key).or_default().push(row as u32);
            }
            Table::Wide(t)
        };
        let build_ns = build_timer.map_or(0, |t| t.elapsed_ns());
        let probe_timer = timed.then(crate::obs::SpanTimer::start);
        for r in 0..batch.rows {
            let hits = match &table {
                Table::Packed(t) => t.get(&batch_key_packed(batch, r, &s.keys)),
                Table::Wide(t) => {
                    let key: Vec<ConstId> =
                        s.keys.iter().map(|&(_, slot)| batch.get(r, slot)).collect();
                    t.get(&key)
                }
            };
            if let Some(hits) = hits {
                pairs.extend(hits.iter().map(|&t| (r as u32, t)));
            }
        }
        if let Some(stats) = stats {
            stats.note_build(atom.pred, range.len() as u64, build_ns);
            let ns = probe_timer.map_or(0, |t| t.elapsed_ns());
            stats.note_probe(atom.pred, batch.rows as u64, pairs.len() as u64, ns);
        }
    } else {
        // Build on the frontier, probe the relation segment, then restore
        // canonical order (probing ascends in relation rows, so sorting
        // by the pair is a cheap near-sorted pass).
        let build_timer = timed.then(crate::obs::SpanTimer::start);
        let table = if packed {
            let mut t: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            for r in 0..batch.rows {
                t.entry(batch_key_packed(batch, r, &s.keys)).or_default().push(r as u32);
            }
            Table::Packed(t)
        } else {
            let mut t: FxHashMap<Vec<ConstId>, Vec<u32>> = FxHashMap::default();
            for r in 0..batch.rows {
                let key: Vec<ConstId> =
                    s.keys.iter().map(|&(_, slot)| batch.get(r, slot)).collect();
                t.entry(key).or_default().push(r as u32);
            }
            Table::Wide(t)
        };
        let build_ns = build_timer.map_or(0, |t| t.elapsed_ns());
        let probe_timer = timed.then(crate::obs::SpanTimer::start);
        for row in range.clone().filter(|&t| row_passes(rel, t, &s)) {
            let hits = match &table {
                Table::Packed(t) => t.get(&rel_key_packed(rel, row, &s.keys)),
                Table::Wide(t) => {
                    let key: Vec<ConstId> =
                        s.keys.iter().map(|&(pos, _)| rel.get(row, pos)).collect();
                    t.get(&key)
                }
            };
            if let Some(hits) = hits {
                pairs.extend(hits.iter().map(|&r| (r, row as u32)));
            }
        }
        pairs.sort_unstable();
        if let Some(stats) = stats {
            stats.note_build(atom.pred, batch.rows as u64, build_ns);
            let ns = probe_timer.map_or(0, |t| t.elapsed_ns());
            stats.note_probe(atom.pred, range.len() as u64, pairs.len() as u64, ns);
        }
    }
    gather(batch, rel, &s, &pairs)
}

/// Evaluates a whole rule body over the store: plans the atom order (the
/// pinned atom, if any, restricted to its `range` segment and evaluated
/// first) and folds [`join_atom`] left-deep over the frontier. The
/// result's rows are exactly the body's homomorphisms (one row per
/// distinct fact combination); an empty body yields the unit batch.
/// Returns early — with a possibly partial schema — once the frontier
/// empties.
pub fn eval_body(
    store: &ColumnarStore,
    body: &[Atom],
    pinned: Option<(usize, Range<usize>)>,
    stats: Option<&mut JoinStats>,
) -> BindingBatch {
    eval_body_with_priors(store, body, pinned, stats, None)
}

/// [`eval_body`] planning with the static cardinality priors of
/// [`plan_with_priors`]. The *set* of result rows is identical for any
/// priors (only the join order, and hence the row order within the
/// canonical contract, may differ among runtime-cardinality ties).
pub fn eval_body_with_priors(
    store: &ColumnarStore,
    body: &[Atom],
    pinned: Option<(usize, Range<usize>)>,
    mut stats: Option<&mut JoinStats>,
    priors: Option<&Priors>,
) -> BindingBatch {
    let order =
        plan_with_priors(body, pinned.as_ref().map(|&(i, _)| i), |p| store.rows(p), priors);
    let mut batch = BindingBatch::unit();
    for &ai in &order {
        let range = match &pinned {
            Some((pi, r)) if *pi == ai => r.clone(),
            _ => 0..store.rows(body[ai].pred),
        };
        batch = join_atom(store, &batch, &body[ai], range, stats.as_deref_mut());
        if batch.rows == 0 {
            return batch;
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::{self, Binding};
    use crate::instance::Instance;
    use crate::symbols::Vocabulary;
    use crate::term::Fact;
    use std::ops::ControlFlow;

    /// All homomorphisms of `body` into `inst` by the tuple oracle, as a
    /// sorted multiset of full bindings projected on `vars`.
    fn oracle_homs(inst: &Instance, body: &[Atom], vars: &[VarId]) -> Vec<Vec<ConstId>> {
        let mut out = Vec::new();
        let _ = hom::for_each_hom(inst, body, &Binding::default(), |b| {
            out.push(vars.iter().map(|v| b[v]).collect());
            ControlFlow::Continue(())
        });
        out.sort_unstable();
        out
    }

    /// Same projection from a batch.
    fn batch_homs(batch: &BindingBatch, vars: &[VarId]) -> Vec<Vec<ConstId>> {
        let slots: Vec<usize> = vars.iter().map(|&v| batch.col_of(v).unwrap()).collect();
        let mut out: Vec<Vec<ConstId>> = (0..batch.rows())
            .map(|r| slots.iter().map(|&s| batch.get(r, s)).collect())
            .collect();
        out.sort_unstable();
        out
    }

    fn graph(voc: &mut Vocabulary, edges: &[(usize, usize)]) -> Instance {
        let e = voc.pred("E", 2);
        let mut inst = Instance::new();
        for &(a, b) in edges {
            let ca = voc.constant(&format!("c{a}"));
            let cb = voc.constant(&format!("c{b}"));
            inst.insert(Fact::new(e, vec![ca, cb]));
        }
        inst
    }

    #[test]
    fn planner_orders_by_cardinality_with_index_tie_break() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let u = voc.pred("U", 1);
        let (x, y) = (voc.var("X"), voc.var("Y"));
        // Body: E(X,Y), U(X), E(Y,X) with |E| = 10, |U| = 3.
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(u, vec![Term::Var(x)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(x)]),
        ];
        let card = |p: PredId| if p == e { 10 } else { 3 };
        // Smallest first (U), then connected E atoms in index order — the
        // cardinality tie between atoms 0 and 2 breaks by atom index.
        assert_eq!(plan(&body, None, card), vec![1, 0, 2]);
        // A pinned atom always leads, whatever its cardinality.
        assert_eq!(plan(&body, Some(2), card), vec![2, 1, 0]);
        // Equal cardinalities everywhere: pure source order.
        assert_eq!(plan(&body, None, |_| 5), vec![0, 1, 2]);
    }

    #[test]
    fn planner_prefers_connected_atoms_over_smaller_cross_products() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let u = voc.pred("U", 1);
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        // U(Z) is smallest but disconnected from the pinned atom.
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(u, vec![Term::Var(z)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ];
        let card = |p: PredId| if p == e { 10 } else { 1 };
        assert_eq!(plan(&body, Some(0), card), vec![0, 2, 1]);
    }

    #[test]
    fn path_join_matches_tuple_oracle() {
        let mut voc = Vocabulary::new();
        let inst = graph(&mut voc, &[(0, 1), (1, 2), (2, 3), (1, 3), (3, 0), (2, 2)]);
        let e = voc.find_pred("E").unwrap();
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ];
        let batch = eval_body(inst.columnar(), &body, None, None);
        assert_eq!(batch_homs(&batch, &[x, y, z]), oracle_homs(&inst, &body, &[x, y, z]));
    }

    #[test]
    fn all_probe_strategies_agree_with_the_oracle() {
        // A frontier of every size from 0 up, against segments of every
        // size, drives the cross-product, index-probe and both hash-join
        // paths through the same query.
        let mut voc = Vocabulary::new();
        let edges: Vec<(usize, usize)> = (0..40).map(|i| (i % 7, (i * 3 + 1) % 7)).collect();
        let inst = graph(&mut voc, &edges);
        let e = voc.find_pred("E").unwrap();
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let first = Atom::new(e, vec![Term::Var(x), Term::Var(y)]);
        let second = Atom::new(e, vec![Term::Var(y), Term::Var(z)]);
        let rows = inst.columnar().rows(e);
        for seed_hi in [0, 1, 3, rows] {
            // Seed the frontier from a segment prefix of E.
            let seed = join_atom(inst.columnar(), &BindingBatch::unit(), &first, 0..seed_hi, None);
            for probe_hi in [0, 1, 5, rows] {
                let got = join_atom(inst.columnar(), &seed, &second, 0..probe_hi, None);
                // Oracle: nested loop over the two segments.
                let rel = inst.columnar().relation(e).unwrap();
                let mut expect = Vec::new();
                for r in 0..seed.rows() {
                    for t in 0..probe_hi {
                        if rel.get(t, 0) == seed.get(r, seed.col_of(y).unwrap()) {
                            expect.push(vec![
                                seed.get(r, seed.col_of(x).unwrap()),
                                rel.get(t, 0),
                                rel.get(t, 1),
                            ]);
                        }
                    }
                }
                expect.sort_unstable();
                assert_eq!(batch_homs(&got, &[x, y, z]), expect, "seed {seed_hi} probe {probe_hi}");
            }
        }
    }

    #[test]
    fn canonical_order_is_frontier_major() {
        // Output rows come in (frontier row, relation row) order on every
        // strategy; with the frontier seeded in relation order this means
        // the first output column is non-decreasing.
        let mut voc = Vocabulary::new();
        let inst = graph(&mut voc, &[(0, 1), (0, 2), (1, 2), (2, 0), (2, 1), (1, 0)]);
        let e = voc.find_pred("E").unwrap();
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ];
        let batch = eval_body(inst.columnar(), &body, None, None);
        let xs = batch.col(batch.col_of(x).unwrap());
        let ys = batch.col(batch.col_of(y).unwrap());
        let pairs: Vec<(ConstId, ConstId)> =
            xs.iter().copied().zip(ys.iter().copied()).collect();
        let mut sorted_by_seed = pairs.clone();
        // The frontier enumerated E rows in order; the output must keep
        // that outer order (stably).
        let rel = inst.columnar().relation(e).unwrap();
        let seed_order: Vec<(ConstId, ConstId)> =
            (0..rel.rows()).map(|t| (rel.get(t, 0), rel.get(t, 1))).collect();
        sorted_by_seed.sort_by_key(|p| seed_order.iter().position(|q| q == p).unwrap());
        assert_eq!(pairs, sorted_by_seed);
    }

    #[test]
    fn constants_and_repeated_variables_constrain_matches() {
        let mut voc = Vocabulary::new();
        let mut inst = graph(&mut voc, &[(0, 1), (1, 1), (2, 2), (2, 1)]);
        let e = voc.find_pred("E").unwrap();
        let x = voc.var("X");
        let c1 = voc.find_const("c1").unwrap();
        // E(X,X): only the self-loops.
        let diag = vec![Atom::new(e, vec![Term::Var(x), Term::Var(x)])];
        let batch = eval_body(inst.columnar(), &diag, None, None);
        assert_eq!(batch_homs(&batch, &[x]), oracle_homs(&inst, &diag, &[x]));
        assert_eq!(batch.rows(), 2);
        // E(X,c1): constant in the second position.
        let to1 = vec![Atom::new(e, vec![Term::Var(x), Term::Const(c1)])];
        let batch = eval_body(inst.columnar(), &to1, None, None);
        assert_eq!(batch_homs(&batch, &[x]), oracle_homs(&inst, &to1, &[x]));
        // Bound repeated variable: frontier binds X, then E(X,X) keys on
        // both positions.
        let u = voc.pred("U", 1);
        let c2 = voc.find_const("c2").unwrap();
        inst.insert(Fact::new(u, vec![c1]));
        inst.insert(Fact::new(u, vec![c2]));
        let body = vec![
            Atom::new(u, vec![Term::Var(x)]),
            Atom::new(e, vec![Term::Var(x), Term::Var(x)]),
        ];
        let batch = eval_body(inst.columnar(), &body, None, None);
        assert_eq!(batch_homs(&batch, &[x]), oracle_homs(&inst, &body, &[x]));
    }

    #[test]
    fn empty_cases_produce_empty_batches() {
        let mut voc = Vocabulary::new();
        let inst = graph(&mut voc, &[(0, 1)]);
        let e = voc.find_pred("E").unwrap();
        let missing = voc.pred("Missing", 1);
        let (x, y) = (voc.var("X"), voc.var("Y"));
        // Unknown predicate: no rows, schema still extends.
        let body = vec![Atom::new(missing, vec![Term::Var(x)])];
        let batch = eval_body(inst.columnar(), &body, None, None);
        assert_eq!(batch.rows(), 0);
        assert_eq!(batch.schema(), &[x]);
        // Empty segment of a known predicate.
        let edge = Atom::new(e, vec![Term::Var(x), Term::Var(y)]);
        let batch = join_atom(inst.columnar(), &BindingBatch::unit(), &edge, 0..0, None);
        assert_eq!(batch.rows(), 0);
        // Empty frontier in, empty batch out.
        let empty = BindingBatch::empty(vec![x]);
        let batch = join_atom(inst.columnar(), &empty, &edge, 0..1, None);
        assert_eq!(batch.rows(), 0);
        assert_eq!(batch.schema(), &[x, y]);
        // Empty body: the unit frontier.
        assert_eq!(eval_body(inst.columnar(), &[], None, None).rows(), 1);
    }

    #[test]
    fn cross_products_enumerate_all_combinations() {
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let u = voc.pred("U", 1);
        let mut inst = Instance::new();
        let cs: Vec<ConstId> = (0..4).map(|i| voc.constant(&format!("c{i}"))).collect();
        inst.insert(Fact::new(e, vec![cs[0], cs[1]]));
        inst.insert(Fact::new(e, vec![cs[2], cs[3]]));
        for &c in &cs[..3] {
            inst.insert(Fact::new(u, vec![c]));
        }
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(u, vec![Term::Var(z)]),
        ];
        let batch = eval_body(inst.columnar(), &body, None, None);
        assert_eq!(batch.rows(), 6);
        assert_eq!(batch_homs(&batch, &[x, y, z]), oracle_homs(&inst, &body, &[x, y, z]));
    }

    #[test]
    fn pinned_segments_partition_the_join() {
        // Semi-naive contract: summing rows over (pin, delta-segment)
        // work items with the complementary "old" segments equals... at
        // minimum, pinning the full range equals the unpinned join.
        let mut voc = Vocabulary::new();
        let inst = graph(&mut voc, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let e = voc.find_pred("E").unwrap();
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ];
        let rows = inst.columnar().rows(e);
        let full = eval_body(inst.columnar(), &body, None, None);
        for pin in 0..2 {
            let pinned = eval_body(inst.columnar(), &body, Some((pin, 0..rows)), None);
            assert_eq!(batch_homs(&pinned, &[x, y, z]), batch_homs(&full, &[x, y, z]));
            // A strict tail segment yields a subset.
            let tail = eval_body(inst.columnar(), &body, Some((pin, rows - 2..rows)), None);
            let all = batch_homs(&full, &[x, y, z]);
            assert!(batch_homs(&tail, &[x, y, z]).iter().all(|h| all.contains(h)));
        }
    }

    #[test]
    fn wide_keys_fall_back_to_vector_tables() {
        // A 3-column join key exercises the Wide table path.
        let mut voc = Vocabulary::new();
        let t = voc.pred("T", 3);
        let mut inst = Instance::new();
        let cs: Vec<ConstId> = (0..3).map(|i| voc.constant(&format!("c{i}"))).collect();
        for a in 0..3 {
            for b in 0..3 {
                inst.insert(Fact::new(t, vec![cs[a], cs[b], cs[(a + b) % 3]]));
            }
        }
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let body = vec![
            Atom::new(t, vec![Term::Var(x), Term::Var(y), Term::Var(z)]),
            Atom::new(t, vec![Term::Var(y), Term::Var(z), Term::Var(x)]),
        ];
        let batch = eval_body(inst.columnar(), &body, None, None);
        assert_eq!(batch_homs(&batch, &[x, y, z]), oracle_homs(&inst, &body, &[x, y, z]));
    }

    #[test]
    fn stats_charge_builds_and_probes_deterministically() {
        let mut voc = Vocabulary::new();
        let inst = graph(&mut voc, &[(0, 1), (1, 2), (2, 0), (0, 2)]);
        let e = voc.find_pred("E").unwrap();
        let (x, y, z) = (voc.var("X"), voc.var("Y"), voc.var("Z"));
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ];
        let run = || {
            let mut stats = JoinStats::default();
            let batch = eval_body(inst.columnar(), &body, None, Some(&mut stats));
            (batch, stats)
        };
        let (b1, s1) = run();
        let (b2, s2) = run();
        assert_eq!(b1, b2);
        // Counts are pure functions of the input; only the ns gauges may
        // differ between runs.
        let strip = |s: &JoinStats| {
            s.sorted()
                .into_iter()
                .map(|(p, c)| (p, c.builds, c.build_rows, c.probes, c.probe_rows, c.matches))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&s1), strip(&s2));
        let rows = s1.sorted();
        assert_eq!(rows.len(), 1);
        let (pred, c) = rows[0];
        assert_eq!(pred, e);
        // Matches accumulate across both E probes: the seed scan emits one
        // row per E fact, the join emits the final frontier.
        assert_eq!(c.matches as usize, inst.columnar().rows(e) + b1.rows());
        assert!(c.probes >= 2);
        // Merging doubles every count.
        let mut merged = JoinStats::default();
        merged.merge(&s1);
        merged.merge(&s1);
        let doubled = merged.sorted()[0].1;
        assert_eq!(doubled.matches, 2 * c.matches);
        assert_eq!(doubled.probe_rows, 2 * c.probe_rows);
    }
}
