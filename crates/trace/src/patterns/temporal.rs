//! Temporally-clustered (LRU-friendly, `sprite`-like) access pattern.
//!
//! "Trace sprite has a temporally-clustered access pattern, where blocks
//! accessed more recently are the ones more likely to be accessed soon. It
//! is an LRU-friendly pattern" (§2.2).
//!
//! The generator keeps its own LRU stack of all `n` blocks and, at every
//! step, samples a *stack depth* from a distribution biased toward small
//! depths, references the block found there and moves it to the top. The
//! resulting stream has exactly the recency distribution that makes LRU
//! perform well.

use super::Pattern;
use crate::{seeded_rng, BlockId, TruncatedGeometric};
use rand::rngs::StdRng;
use ulc_cache::RecencyList;

/// LRU-friendly stream via stack-depth sampling.
///
/// # Examples
///
/// ```
/// use ulc_trace::patterns::{Pattern, TemporalPattern};
///
/// let mut p = TemporalPattern::new(100, 0.95, 11);
/// assert!(p.next_block().raw() < 100);
/// ```
#[derive(Clone, Debug)]
pub struct TemporalPattern {
    /// Blocks ordered by recency; rank 0 is most recent. The indexed
    /// list makes each step O(log n) where the former `Vec` stack paid
    /// O(n) to find and splice the sampled depth.
    stack: RecencyList,
    n: u64,
    depth_dist: TruncatedGeometric,
    base: u64,
    rng: StdRng,
}

impl TemporalPattern {
    /// Clustered references over blocks `0..n` with geometric decay `q`
    /// (larger `q` ⇒ deeper, less clustered accesses), seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `q` is outside `(0, 1)`.
    pub fn new(n: u64, q: f64, seed: u64) -> Self {
        assert!(n > 0, "block universe must be non-empty");
        // Seed the stack in id order: block 0 on top, as before.
        let mut stack = RecencyList::new(n as usize);
        for block in (0..n as usize).rev() {
            stack.move_to_front(block);
        }
        TemporalPattern {
            stack,
            n,
            depth_dist: TruncatedGeometric::new(n as usize, q),
            base: 0,
            rng: seeded_rng(seed),
        }
    }

    /// Offsets every generated block id by `base`.
    #[must_use]
    pub fn with_base(mut self, base: u64) -> Self {
        self.base = base;
        self
    }

    /// Number of distinct blocks that can be referenced.
    pub fn footprint(&self) -> u64 {
        self.n
    }
}

impl Pattern for TemporalPattern {
    fn next_block(&mut self) -> BlockId {
        let depth = self.depth_dist.sample(&mut self.rng);
        let block = self.stack.select(depth).expect("depth within stack");
        self.stack.move_to_front(block);
        BlockId::new(self.base + block as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxhash::FxHashMap;

    /// Measures the LRU stack distance of every re-reference in `blocks`.
    fn stack_distances(blocks: &[u64]) -> Vec<usize> {
        let mut stack: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        for &b in blocks {
            if let Some(pos) = stack.iter().position(|&x| x == b) {
                out.push(pos);
                stack.remove(pos);
            }
            stack.insert(0, b);
        }
        out
    }

    #[test]
    fn deterministic_under_seed() {
        let a = TemporalPattern::new(200, 0.9, 4).generate(500);
        let b = TemporalPattern::new(200, 0.9, 4).generate(500);
        assert_eq!(a, b);
    }

    #[test]
    fn most_rereferences_have_small_stack_distance() {
        let t = TemporalPattern::new(500, 0.9, 8).generate(20_000);
        let blocks: Vec<u64> = t.iter().map(|r| r.block.raw()).collect();
        let dists = stack_distances(&blocks);
        let small = dists.iter().filter(|&&d| d < 50).count();
        let frac = small as f64 / dists.len() as f64;
        assert!(frac > 0.9, "frac = {frac}: stream should be LRU-friendly");
    }

    #[test]
    fn touches_a_broad_set_of_blocks_eventually() {
        let t = TemporalPattern::new(100, 0.98, 2).generate(50_000);
        let mut counts: FxHashMap<u64, usize> = FxHashMap::default();
        for r in &t {
            *counts.entry(r.block.raw()).or_insert(0) += 1;
        }
        assert!(counts.len() > 90, "unique = {}", counts.len());
    }

    #[test]
    fn stays_in_range() {
        let mut p = TemporalPattern::new(7, 0.5, 1).with_base(50);
        for _ in 0..200 {
            let b = p.next_block().raw();
            assert!((50..57).contains(&b));
        }
    }
}
