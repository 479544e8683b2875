//! Property tests for the fuzz harness itself: generation determinism
//! (byte-identical across runs and thread counts) and shrinker soundness
//! (every shrunk output still parses and still fails the same property).

use bddfc::core::par;
use bddfc_fuzz::check_case;
use bddfc_fuzz::gen::{gen_case, random_program, Strat};
use bddfc_fuzz::props::{find_prop, Mutation, PropCtx, PROPS};
use bddfc_fuzz::proptest_lite::{ensure, run_prop};
use bddfc_fuzz::shrink::{shrink, DEFAULT_MAX_EVALS};

/// Generation for a fixed seed is byte-identical across runs and across
/// `BDDFC_THREADS`-style worker counts — the precondition for every
/// `bddfc-fuzz --seed` reproduction line ever printed.
#[test]
fn generation_is_byte_identical_across_runs_and_thread_counts() {
    run_prop("fuzz/generation_determinism", 40, |g| {
        let seed = g.u64_in("seed", 0, 1 << 48);
        let base = gen_case(seed);
        ensure(gen_case(seed).src == base.src, "generation drifted across runs")?;
        for threads in [1usize, 2, 7] {
            let other = par::with_thread_count(threads, || gen_case(seed));
            ensure(
                other.src == base.src && other.strat == base.strat,
                &format!("generation drifted at {threads} threads"),
            )?;
        }
        Ok(())
    });
}

/// The promoted `random_program` (used by tests/{differential,
/// determinism}.rs) is equally deterministic: same theory text, same
/// sorted instance, for a fixed seed.
#[test]
fn random_program_is_deterministic() {
    run_prop("fuzz/random_program_determinism", 20, |g| {
        let seed = g.u64_in("seed", 0, 1 << 32);
        let a = random_program(seed);
        let b = par::with_thread_count(7, || random_program(seed));
        ensure(
            a.theory.display(&a.voc).to_string() == b.theory.display(&b.voc).to_string(),
            "random_program theory drifted",
        )?;
        ensure(
            a.instance.display(&a.voc).to_string() == b.instance.display(&b.voc).to_string(),
            "random_program instance drifted",
        )
    });
}

/// The registry's thread-count comparisons turn `par`'s small-region
/// cutoff off; over a few seeds they must actually split regions across
/// threads, or they would pass on the sequential path alone.
#[test]
fn thread_invariance_props_run_the_sharded_path() {
    for name in ["chase_thread_invariance", "serve_vs_scratch_chase"] {
        let prop = find_prop(name).expect("registered property");
        let before = par::sharded_regions();
        for seed in 0..8 {
            let verdict = check_case(&gen_case(seed), prop, &PropCtx::default());
            assert!(verdict.is_ok(), "{name} seed {seed}: {verdict:?}");
        }
        assert!(par::sharded_regions() > before, "{name}: no region ran sharded");
    }
}

/// Seeds cycle through all five strata, so every class template stays
/// exercised by any nontrivial fuzz run.
#[test]
fn seeds_cover_every_stratum() {
    let mut seen: Vec<Strat> = (0..32).filter_map(|s| gen_case(s).strat).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen, Strat::ALL.to_vec());
}

/// Shrinker soundness, hunted through real failures: under each injected
/// engine mutation, every shrunk reproducer still parses and still fails
/// the same property with the same context.
#[test]
fn shrinker_outputs_still_fail_and_still_parse() {
    for mutation in [Mutation::SkipLastRule, Mutation::SwapBodyAtoms] {
        let ctx = PropCtx { mutation, ..PropCtx::default() };
        let mut found = 0;
        'seeds: for seed in 0..300u64 {
            let case = gen_case(seed);
            for prop in PROPS {
                if let Err(msg) = check_case(&case, prop, &ctx) {
                    let out = shrink(&case, prop, &ctx, &msg, DEFAULT_MAX_EVALS);
                    out.case
                        .program()
                        .unwrap_or_else(|e| panic!("shrunk case must parse: {e}\n{}", out.case.src));
                    assert!(
                        check_case(&out.case, prop, &ctx).is_err(),
                        "{mutation:?}/{}: shrunk case no longer fails:\n{}",
                        prop.name,
                        out.case.src
                    );
                    assert!(out.case.src.len() <= case.src.len());
                    found += 1;
                    if found >= 3 {
                        break 'seeds;
                    }
                    continue 'seeds;
                }
            }
        }
        assert!(found >= 1, "mutation {mutation:?} was never caught in 300 seeds");
    }
}
