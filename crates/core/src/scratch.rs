//! Reusable per-access scratch buffers — the zero-allocation engine core.
//!
//! Every [`crate::UniLruStack::access`] produces a variable-length set of
//! side effects: demotion transfer counts per boundary, the demoted blocks
//! with their levels, and the blocks evicted to `L_out`. Returning those in
//! freshly allocated `Vec`s (the original [`crate::StackOutcome`] shape)
//! costs several heap round-trips per reference, which dominates the
//! steady-state profile once the asymptotics (PR 1) and table constants
//! (PR 4) are fixed.
//!
//! [`AccessScratch`] holds those buffers as inline-capacity small-vectors
//! that the caller owns and reuses across accesses: warm-up may spill them
//! to the heap once (a cascade deeper than the inline capacity), but the
//! spill capacity is retained on [`AccessScratch::reset`], so a settled
//! engine never touches the allocator again — the contract DESIGN.md §5f
//! specifies and `ulc-bench`'s alloc gate enforces.
//!
//! The buffers are plain data: reading stale contents is prevented by
//! [`AccessScratch::reset`], which every `access_into` entry point calls
//! first, so a "dirty" scratch handed from a previous access (of any
//! protocol) is always equivalent to a fresh one. The golden `SimStats`
//! grid (`tests/golden_stats.rs`) pins that bit-exactly for every engine
//! through a dirty reused outcome, and `tests/scratch_vs_reference.rs`
//! for the raw stack through a dirty reused scratch.

use smallvec::SmallVec;
use ulc_cache::NodeHandle;
use ulc_trace::BlockId;

/// Inline capacity for per-boundary demotion counters. Hierarchies in the
/// paper have 2–3 levels; 8 boundaries cover any realistic tower without
/// spilling.
const BOUNDARIES_INLINE: usize = 8;

/// Inline capacity for per-access block lists (demoted, evicted, moved).
/// A single access demotes at most one block per boundary plus the
/// accessed block itself, so 8 is comfortably above the worst case.
const BLOCKS_INLINE: usize = 8;

/// Reusable scratch buffers for one access through the uniLRUstack.
///
/// Construct once (allocation-free), pass to
/// [`crate::UniLruStack::access_into`] (or any protocol `access_into`)
/// for every reference, and read the results between calls. The contents
/// are overwritten by each access; ownership of the buffers stays with
/// the caller so the allocator is never involved in steady state.
///
/// # Examples
///
/// ```
/// use ulc_core::{AccessScratch, UniLruStack};
/// use ulc_trace::BlockId;
///
/// let mut stack = UniLruStack::new(vec![2, 2]);
/// let mut scratch = AccessScratch::new();
/// for i in 0..8 {
///     let res = stack.access_into(BlockId::new(i), &mut scratch);
///     let _ = (res.placed, scratch.demotions.as_slice(), scratch.evicted.as_slice());
/// }
/// ```
#[derive(Debug, Default)]
pub struct AccessScratch {
    /// Demotion transfers per boundary (`levels - 1` entries after
    /// [`AccessScratch::reset`]).
    pub demotions: SmallVec<u32, BOUNDARIES_INLINE>,
    /// Demoted blocks: `(block, from_level, settled_level)`. A block
    /// crossing several boundaries appears once, with its final level.
    pub demoted: SmallVec<(BlockId, usize, usize), BLOCKS_INLINE>,
    /// Blocks evicted from the bottom level to `L_out` by this access.
    pub evicted: SmallVec<BlockId, BLOCKS_INLINE>,
    /// DemotionSearching working set: the cascade's touched entries as
    /// `(handle, level first demoted from)`. Internal to the stack walk;
    /// exposed to the crate so the cascade can run without borrowing
    /// conflicts against the public result buffers above.
    pub(crate) moved: SmallVec<(NodeHandle, usize), BLOCKS_INLINE>,
}

impl AccessScratch {
    /// Creates empty scratch buffers. Never allocates.
    pub fn new() -> Self {
        AccessScratch::default()
    }

    /// Clears every buffer and sizes the demotion counters for a
    /// hierarchy with `boundaries` level boundaries. Called by every
    /// `access_into` entry point, so dirty scratch is always equivalent
    /// to fresh scratch. Keeps spill capacity — allocation-free once the
    /// buffers have reached their high-water mark.
    pub fn reset(&mut self, boundaries: usize) {
        self.demotions.clear();
        self.demotions.resize(boundaries, 0);
        self.demoted.clear();
        self.evicted.clear();
        self.moved.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_sizes_demotions_and_clears_the_rest() {
        let mut s = AccessScratch::new();
        s.demotions.extend_from_slice(&[5, 5, 5, 5, 5]);
        s.demoted.push((BlockId::new(1), 0, 1));
        s.evicted.push(BlockId::new(2));
        s.moved.push((NodeHandle::default(), 3));
        s.reset(2);
        assert_eq!(s.demotions.as_slice(), &[0, 0]);
        assert!(s.demoted.is_empty());
        assert!(s.evicted.is_empty());
        assert!(s.moved.is_empty());
    }

    #[test]
    fn new_is_empty() {
        let s = AccessScratch::new();
        assert!(s.demotions.is_empty());
        assert!(s.demoted.is_empty());
        assert!(s.evicted.is_empty());
    }
}
