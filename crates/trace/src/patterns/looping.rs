//! Looping access patterns (`cs`-, `glimpse`- and `tpcc1`-like).
//!
//! "Traces cs and glimpse have a looping access pattern, where all blocks
//! are regularly and repeatedly accessed" (§2.2). A pure loop over `n`
//! blocks re-references every block at recency `n - 1`, which is the
//! pathological case for LRU when `n` exceeds the cache size, and the best
//! case for LLD-based ranking because the re-reference recency is constant.

use super::Pattern;
use crate::BlockId;

/// Cycles through one or more loop scopes.
///
/// With a single scope of `n` blocks this is a pure sequential loop
/// `0, 1, …, n-1, 0, 1, …`. With several scopes (as in `glimpse`, which mixes
/// loops of different lengths) each scope is swept in turn and the whole
/// schedule repeats.
///
/// # Examples
///
/// ```
/// use ulc_trace::patterns::{LoopingPattern, Pattern};
///
/// let mut p = LoopingPattern::with_scopes(vec![2, 3]);
/// let ids: Vec<u64> = (0..10).map(|_| p.next_block().raw()).collect();
/// // scope 0 = blocks {0,1}, scope 1 = blocks {2,3,4}
/// assert_eq!(ids, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
/// ```
#[derive(Clone, Debug)]
pub struct LoopingPattern {
    /// `(first_block, len)` of each scope.
    scopes: Vec<(u64, u64)>,
    scope: usize,
    pos: u64,
    base: u64,
}

impl LoopingPattern {
    /// A single loop over blocks `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        LoopingPattern::with_scopes(vec![n])
    }

    /// Several consecutive loop scopes with the given lengths; scope `k`
    /// covers the blocks right after scope `k-1`.
    ///
    /// # Panics
    ///
    /// Panics if `scopes` is empty or any scope length is zero.
    pub fn with_scopes(scopes: Vec<u64>) -> Self {
        assert!(!scopes.is_empty(), "at least one loop scope is required");
        assert!(
            scopes.iter().all(|&n| n > 0),
            "loop scopes must be non-empty"
        );
        let mut placed = Vec::with_capacity(scopes.len());
        let mut first = 0u64;
        for n in scopes {
            placed.push((first, n));
            first += n;
        }
        LoopingPattern {
            scopes: placed,
            scope: 0,
            pos: 0,
            base: 0,
        }
    }

    /// Offsets every generated block id by `base`, so several patterns can
    /// share one block space without colliding.
    #[must_use]
    pub fn with_base(mut self, base: u64) -> Self {
        self.base = base;
        self
    }

    /// Total number of distinct blocks across all scopes.
    pub fn footprint(&self) -> u64 {
        self.scopes.iter().map(|&(_, n)| n).sum()
    }
}

impl Pattern for LoopingPattern {
    fn next_block(&mut self) -> BlockId {
        let (first, len) = self.scopes[self.scope];
        let block = BlockId::new(self.base + first + self.pos);
        self.pos += 1;
        if self.pos == len {
            self.pos = 0;
            self.scope = (self.scope + 1) % self.scopes.len();
        }
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_scope_repeats_exactly() {
        let mut p = LoopingPattern::new(4);
        let first: Vec<u64> = (0..4).map(|_| p.next_block().raw()).collect();
        let second: Vec<u64> = (0..4).map(|_| p.next_block().raw()).collect();
        assert_eq!(first, second);
        assert_eq!(first, [0, 1, 2, 3]);
    }

    #[test]
    fn every_block_has_equal_frequency_over_full_cycles() {
        let mut p = LoopingPattern::with_scopes(vec![3, 5]);
        let t = p.generate(8 * 10);
        let mut counts = fxhash::FxHashMap::default();
        for r in &t {
            *counts.entry(r.block).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 8);
        assert!(counts.values().all(|&c| c == 10));
    }

    #[test]
    fn footprint_sums_scopes() {
        assert_eq!(LoopingPattern::with_scopes(vec![2, 3, 4]).footprint(), 9);
    }

    #[test]
    fn base_shifts_ids() {
        let mut p = LoopingPattern::new(2).with_base(100);
        assert_eq!(p.next_block().raw(), 100);
        assert_eq!(p.next_block().raw(), 101);
    }

    #[test]
    fn reuse_recency_is_loop_length_minus_one() {
        // Every re-reference in a pure loop over n blocks happens after the
        // n-1 other blocks have been touched — the defining property the
        // paper exploits.
        let n = 6u64;
        let mut p = LoopingPattern::new(n);
        let t = p.generate(3 * n as usize);
        for (i, r) in t.iter().enumerate().skip(n as usize) {
            let prev = i - n as usize;
            assert_eq!(t.records()[prev].block, r.block);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_scope_rejected() {
        let _ = LoopingPattern::with_scopes(vec![3, 0]);
    }
}
