//! A tiny deterministic PRNG, so workload generation and property tests
//! need no external randomness crate (the hermetic-build policy).
//!
//! [`SplitMix64`] is Steele, Lea & Flood's 64-bit mixer: one addition and
//! two xor-shift-multiply rounds per output. It is equidistributed enough
//! for test-case generation and benchmarking workloads, trivially seedable,
//! and — crucially for reproducible experiments — the same seed yields the
//! same stream on every platform and every run.

/// A seeded, deterministic 64-bit PRNG (SplitMix64).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly distributed `usize` in `0..n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        // Multiply-shift range reduction (Lemire); the slight modulo bias
        // of the naive approach is avoided without a division.
        let wide = (self.next_u64() as u128) * (n as u128);
        (wide >> 64) as usize
    }

    /// A uniformly distributed value in the half-open range `lo..hi`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// Splits off an independent child generator (for nested generation
    /// that must not perturb the parent's stream).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(12345);
        let mut b = SplitMix64::new(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_reference_values() {
        // SplitMix64 reference outputs for seed 0 — pins the algorithm so
        // seeds stay stable across refactors (EXPERIMENTS.md depends on
        // seed-reproducible workloads).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(r.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(r.next_u64(), 0x06c45d188009454f);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = SplitMix64::new(42);
        let mut child = parent.fork();
        let p1 = parent.next_u64();
        let c1 = child.next_u64();
        assert_ne!(p1, c1);
        // Re-deriving the same fork point gives the same child stream.
        let mut parent2 = SplitMix64::new(42);
        let mut child2 = parent2.fork();
        assert_eq!(child2.next_u64(), c1);
    }
}
