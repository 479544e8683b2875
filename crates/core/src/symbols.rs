//! Interned symbols and the [`Vocabulary`] that owns their names.
//!
//! Every logical object in this workspace (predicates, constants, variables)
//! is referred to by a small copyable id. The [`Vocabulary`] is the single
//! source of truth mapping ids back to human-readable names, predicate
//! arities, and the constant/null distinction the paper relies on
//! (`C_con` vs `C_non` in Section 1.1).

use crate::fxhash::FxHashMap;
use std::fmt;

/// Identifier of a relation symbol (predicate).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PredId(pub u32);

/// Identifier of a domain element: either a named constant from the
/// signature or a labelled null invented by the chase.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ConstId(pub u32);

/// Identifier of a variable (scoped to a rule or query, but interned
/// globally so that renaming-apart is explicit rather than accidental).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl PredId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ConstId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl VarId {
    /// Index usable for direct vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// String interner storing each name exactly once: ids map to names
/// through `names`, and names map back through a content-hash table keyed
/// by the name's 64-bit hash. The (astronomically rare, but handled)
/// case of two distinct names sharing a hash spills into `collisions`.
#[derive(Clone, Debug, Default)]
struct Interner {
    names: Vec<String>,
    by_hash: FxHashMap<u64, u32>,
    collisions: FxHashMap<String, u32>,
}

fn hash_name(name: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fxhash::FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

impl Interner {
    fn intern(&mut self, name: &str) -> (u32, bool) {
        let h = hash_name(name);
        match self.by_hash.get(&h) {
            Some(&id) if self.names[id as usize] == name => (id, false),
            Some(_) => {
                // Hash collision between distinct names.
                if let Some(&id) = self.collisions.get(name) {
                    return (id, false);
                }
                let id = self.names.len() as u32;
                self.names.push(name.to_owned());
                self.collisions.insert(name.to_owned(), id);
                (id, true)
            }
            None => {
                let id = self.names.len() as u32;
                self.names.push(name.to_owned());
                self.by_hash.insert(h, id);
                (id, true)
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        match self.by_hash.get(&hash_name(name)) {
            Some(&id) if self.names[id as usize] == name => Some(id),
            _ => self.collisions.get(name).copied(),
        }
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// Formats `{head}{prefix}{n}` into `buf` without allocating; returns
/// `None` when the pieces don't fit (callers fall back to `format!`).
fn fmt_counter_name<'b>(buf: &'b mut [u8; 48], head: &str, prefix: &str, n: u64) -> Option<&'b str> {
    const DIGITS: usize = 20; // u64::MAX has 20 decimal digits
    let mut len = 0;
    for part in [head.as_bytes(), prefix.as_bytes()] {
        if len + part.len() + DIGITS > buf.len() {
            return None;
        }
        buf[len..len + part.len()].copy_from_slice(part);
        len += part.len();
    }
    let mut digits = [0u8; DIGITS];
    let mut i = DIGITS;
    let mut v = n;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf[len..len + DIGITS - i].copy_from_slice(&digits[i..]);
    len += DIGITS - i;
    // Valid UTF-8 by construction: two `str` slices plus ASCII digits.
    std::str::from_utf8(&buf[..len]).ok()
}

/// Largest predicate arity a [`Vocabulary`] accepts. Posting-list keys in
/// [`crate::columnar::Relation`] store argument positions as `u8`;
/// enforcing the bound at registration keeps those narrow keys exact
/// instead of silently truncating.
pub const MAX_ARITY: usize = 255;

/// Symbol table shared by a theory, its instances and its queries.
///
/// A `Vocabulary` interns three separate namespaces (predicates, domain
/// elements, variables), records predicate arities, and distinguishes
/// *named constants* (part of the signature Σ, the paper's `C_con`) from
/// *labelled nulls* created during the chase (`C_non`).
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    preds: Interner,
    arities: Vec<usize>,
    consts: Interner,
    is_null: Vec<bool>,
    vars: Interner,
    fresh_counter: u64,
    /// Changes made so far (see [`Vocabulary::version`]).
    version: u64,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a predicate with the given arity.
    ///
    /// # Panics
    /// Panics if the predicate was already interned with a different arity —
    /// arity confusion is always a caller bug — or if `arity` exceeds
    /// [`MAX_ARITY`] (positions are stored as `u8` in the index layers).
    pub fn pred(&mut self, name: &str, arity: usize) -> PredId {
        assert!(
            arity <= MAX_ARITY,
            "predicate {name} registered with arity {arity}, exceeding MAX_ARITY {MAX_ARITY}"
        );
        let (id, new) = self.preds.intern(name);
        if new {
            self.arities.push(arity);
            self.version += 1;
        } else {
            assert_eq!(
                self.arities[id as usize], arity,
                "predicate {name} re-interned with arity {arity}, was {}",
                self.arities[id as usize]
            );
        }
        PredId(id)
    }

    /// Looks up a predicate by name without interning.
    pub fn find_pred(&self, name: &str) -> Option<PredId> {
        self.preds.lookup(name).map(PredId)
    }

    /// Interns a named constant (an element of `C_con`).
    pub fn constant(&mut self, name: &str) -> ConstId {
        let (id, new) = self.consts.intern(name);
        if new {
            self.is_null.push(false);
            self.version += 1;
        }
        ConstId(id)
    }

    /// Looks up a constant by name without interning.
    pub fn find_const(&self, name: &str) -> Option<ConstId> {
        self.consts.lookup(name).map(ConstId)
    }

    /// Creates a fresh labelled null (an element of `C_non`), named
    /// `_<prefix><counter>`. Nulls are guaranteed not to collide with any
    /// named constant because user-facing names may not start with `_`.
    ///
    /// This is on the chase's hot path (one call per existential variable
    /// of every fired trigger), so the candidate name is formatted into a
    /// stack buffer; the single heap allocation is the interned copy.
    pub fn fresh_null(&mut self, prefix: &str) -> ConstId {
        self.version += 1;
        let mut buf = [0u8; 48];
        loop {
            let n = self.fresh_counter;
            self.fresh_counter += 1;
            let owned;
            let name: &str = match fmt_counter_name(&mut buf, "_", prefix, n) {
                Some(s) => s,
                None => {
                    owned = format!("_{prefix}{n}");
                    &owned
                }
            };
            let (id, new) = self.consts.intern(name);
            if new {
                self.is_null.push(true);
                return ConstId(id);
            }
        }
    }

    /// Promotes an existing element to "named constant" status.
    ///
    /// Section 3.2 of the paper extends the signature with "a name for each
    /// element of D" so that database elements keep distinct positive types
    /// (Remark 1); this is the operation implementing that extension.
    pub fn name_element(&mut self, c: ConstId) {
        if std::mem::replace(&mut self.is_null[c.index()], false) {
            self.version += 1;
        }
    }

    /// Is this element a labelled null (not the interpretation of any
    /// signature constant)?
    pub fn is_null(&self, c: ConstId) -> bool {
        self.is_null[c.index()]
    }

    /// Interns a variable.
    pub fn var(&mut self, name: &str) -> VarId {
        let (id, new) = self.vars.intern(name);
        self.version += u64::from(new);
        VarId(id)
    }

    /// Creates a fresh variable guaranteed distinct from all interned ones.
    pub fn fresh_var(&mut self, prefix: &str) -> VarId {
        self.version += 1;
        loop {
            let name = format!("{prefix}#{}", self.fresh_counter);
            self.fresh_counter += 1;
            let (id, new) = self.vars.intern(&name);
            if new {
                return VarId(id);
            }
        }
    }

    /// Creates a fresh predicate with a generated, non-colliding name.
    pub fn fresh_pred(&mut self, prefix: &str, arity: usize) -> PredId {
        self.version += 1;
        loop {
            let name = format!("{prefix}#{}", self.fresh_counter);
            self.fresh_counter += 1;
            if self.preds.lookup(&name).is_none() {
                return self.pred(&name, arity);
            }
        }
    }

    /// Arity of a predicate.
    pub fn arity(&self, p: PredId) -> usize {
        self.arities[p.index()]
    }

    /// Name of a predicate.
    pub fn pred_name(&self, p: PredId) -> &str {
        self.preds.name(p.0)
    }

    /// Name of a constant or null.
    pub fn const_name(&self, c: ConstId) -> &str {
        self.consts.name(c.0)
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        self.vars.name(v.0)
    }

    /// Number of interned predicates.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Number of interned constants and nulls.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Number of interned variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// How many changes this vocabulary has seen: every call that
    /// interns a name, creates a fresh symbol or renames a null counts
    /// one, and a lookup of a known name none. A clone carries its
    /// original's count, so a vocabulary whose version still equals that
    /// of a clone taken from it earlier still equals the clone.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// All interned predicates with their arities.
    pub fn preds(&self) -> impl Iterator<Item = (PredId, usize)> + '_ {
        (0..self.preds.len() as u32).map(|i| (PredId(i), self.arities[i as usize]))
    }

}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ConstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut voc = Vocabulary::new();
        let e1 = voc.pred("E", 2);
        let e2 = voc.pred("E", 2);
        assert_eq!(e1, e2);
        assert_eq!(voc.arity(e1), 2);
        assert_eq!(voc.pred_name(e1), "E");
    }

    #[test]
    #[should_panic(expected = "re-interned")]
    fn arity_mismatch_panics() {
        let mut voc = Vocabulary::new();
        voc.pred("E", 2);
        voc.pred("E", 3);
    }

    #[test]
    fn constants_and_nulls_are_distinguished() {
        let mut voc = Vocabulary::new();
        let a = voc.constant("a");
        let n = voc.fresh_null("z");
        assert!(!voc.is_null(a));
        assert!(voc.is_null(n));
        assert_ne!(a, n);
        assert!(voc.const_name(n).starts_with('_'));
    }

    #[test]
    fn fresh_nulls_never_collide() {
        let mut voc = Vocabulary::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(voc.fresh_null("n")));
        }
    }

    #[test]
    fn name_element_promotes_null() {
        let mut voc = Vocabulary::new();
        let n = voc.fresh_null("d");
        assert!(voc.is_null(n));
        voc.name_element(n);
        assert!(!voc.is_null(n));
    }

    #[test]
    fn namespaces_are_independent() {
        let mut voc = Vocabulary::new();
        let p = voc.pred("x", 1);
        let c = voc.constant("x");
        let v = voc.var("x");
        assert_eq!(voc.pred_name(p), "x");
        assert_eq!(voc.const_name(c), "x");
        assert_eq!(voc.var_name(v), "x");
    }

    #[test]
    fn fresh_var_distinct_from_existing() {
        let mut voc = Vocabulary::new();
        let x = voc.var("X");
        let f = voc.fresh_var("X");
        assert_ne!(x, f);
    }

    #[test]
    fn max_arity_is_accepted() {
        let mut voc = Vocabulary::new();
        let p = voc.pred("Wide", MAX_ARITY);
        assert_eq!(voc.arity(p), MAX_ARITY);
    }

    #[test]
    #[should_panic(expected = "exceeding MAX_ARITY")]
    fn over_max_arity_panics_at_registration() {
        let mut voc = Vocabulary::new();
        voc.pred("TooWide", MAX_ARITY + 1);
    }
}
