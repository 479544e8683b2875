//! Allocation budgets of the resident store. Copying an instance and
//! serving one write each allocate a number of times that does not grow
//! with the instance: a counting global allocator pins this without
//! timing anything.
//!
//! A `GlobalAlloc` impl is `unsafe` by definition, hence the one
//! exception to the workspace's `unsafe_code` lint, confined to this
//! test binary: the allocator only counts and forwards to `System`.
#![allow(unsafe_code)]

use bddfc_core::prng::SplitMix64;
use bddfc_core::{par, parse_program, ConstId, Fact, Instance, Vocabulary};
use bddfc_serve::{ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// `System`, counting every allocation and reallocation per thread, so
/// tests running in parallel do not see each other's allocations.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The counter is a
// const-initialised thread-local `Cell<u64>` with no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees on `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees on `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // obtained them from `System`; the caller's guarantees carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// `n` facts over unary, binary, ternary and five-ary predicates (the
/// last longer than the inline argument buffer), on about `n / 2`
/// elements, with every relation's postings built.
fn indexed_instance(n: usize) -> Instance {
    let mut voc = Vocabulary::new();
    let preds = [voc.pred("U", 1), voc.pred("E", 2), voc.pred("T", 3), voc.pred("W", 5)];
    let mut rng = SplitMix64::new(n as u64);
    let mut inst = Instance::new();
    while inst.len() < n {
        let p = preds[rng.below(preds.len())];
        let args = (0..voc.arity(p)).map(|_| ConstId(rng.below(n / 2) as u32)).collect();
        inst.insert(Fact::new(p, args));
    }
    for p in preds {
        let rel = inst.columnar().relation(p).expect("every predicate has facts");
        rel.matching(0, rel.get(0, 0));
    }
    inst
}

#[test]
fn instance_copies_allocate_independently_of_size() {
    let small = indexed_instance(10_000);
    let large = indexed_instance(20_000);
    let copy = |inst: &Instance| allocations(|| drop(inst.clone()));
    let (at_10k, at_20k) = (copy(&small), copy(&large));
    assert_eq!(at_10k, at_20k, "a clone plus drop allocates per fact or per posting list");
}

/// The benchmark's organisation ontology (weakly acyclic).
const ORG_RULES: &str = "Works(X,D) -> exists M . Heads(M,D).
Heads(M,D), Works(X,D) -> Reports(X,M).
Sub(D,E), Heads(M,E), Works(X,D) -> Reports(X,M).
Reports(X,M) -> Person(M).
";

/// An organisation of `people` people in `people / 10` departments:
/// every department but `d0` sits under an earlier one.
fn org_program(people: usize, seed: u64) -> String {
    let depts = people / 10;
    let mut rng = SplitMix64::new(seed);
    let mut text = String::from(ORG_RULES);
    for j in 1..depts {
        text.push_str(&format!("Sub(d{j},d{}).\n", rng.below(j)));
    }
    for i in 0..people {
        text.push_str(&format!("Works(p{i},d{}).\n", rng.below(depts)));
    }
    text
}

/// Most allocations one insert plus retract of a fact over known names
/// may make, whatever the resident size. A write that copies or rebuilds
/// the resident instance fact by fact makes tens of thousands here.
const WRITE_PAIR_BUDGET: u64 = 2_000;

/// The most allocations any of a few insert+retract pairs makes, after
/// warm-up pairs that intern the fact's names and build the lazy
/// indexes.
fn write_pair_allocations(people: usize) -> u64 {
    let prog = parse_program(&org_program(people, 7)).expect("generated program parses");
    let server = Server::new(&prog, ServeConfig::default());
    let pair = || {
        for line in ["insert Works(n0,d1).", "retract Works(n0,d1)."] {
            let reply = server.handle_line(line);
            let text = reply.text().expect("writes reply");
            assert!(text.starts_with("ok ") && text.ends_with("fixpoint=true"), "{text}");
        }
    };
    for _ in 0..3 {
        pair();
    }
    (0..5).map(|_| allocations(pair)).max().expect("five pairs ran")
}

#[test]
fn a_write_allocates_within_a_fixed_budget() {
    par::with_thread_count(1, || {
        for people in [2_000, 8_000] {
            let n = write_pair_allocations(people);
            assert!(
                n <= WRITE_PAIR_BUDGET,
                "an insert+retract pair at {people} people made {n} allocations"
            );
        }
    });
}
