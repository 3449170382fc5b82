//! Reusable per-access scratch buffers — the zero-allocation engine core.
//!
//! Every [`crate::UniLruStack::access_into`] produces a variable-length
//! set of side effects: demotion transfer counts per boundary, the demoted
//! blocks with their levels, and the blocks evicted to `L_out`. Returning
//! those in freshly allocated `Vec`s costs several heap round-trips per
//! reference, which dominates the steady-state profile once the ranking
//! lists and block tables are fast (DESIGN.md §5b, §5e).
//!
//! [`AccessScratch`] holds those buffers as plain `Vec`s that the caller
//! owns and reuses across accesses. [`AccessScratch::new`] reserves room
//! for 8 entries in each, more than one access of a 2–3 level hierarchy
//! produces; a deeper cascade grows a buffer once, and
//! [`AccessScratch::reset`] keeps the capacity, so a settled engine never
//! touches the allocator again — the contract DESIGN.md §5f specifies and
//! `ulc-bench`'s alloc gate enforces. The reservation matters: unreserved
//! buffers grow on their first non-empty access, which may come after
//! warm-up, and the gate sees it.
//!
//! The buffers are plain data: reading stale contents is prevented by
//! [`AccessScratch::reset`], which every `access_into` entry point calls
//! first, so a "dirty" scratch handed from a previous access (of any
//! protocol) is always equivalent to a fresh one. That includes the
//! counters the ULC engines swap in from the caller's `AccessOutcome`,
//! whatever engine last wrote them. The golden `SimStats` grid
//! (`tests/golden_stats.rs`) pins that bit-exactly for every engine
//! through a dirty reused outcome, and `tests/scratch_vs_reference.rs`
//! for the raw stack through a dirty reused scratch and for one outcome
//! shared by several engines.

use ulc_trace::BlockId;

/// Entries reserved in each buffer. Hierarchies in the paper have 2–3
/// levels, and one access demotes at most one block per boundary, so 8
/// covers any realistic tower.
const RESERVED: usize = 8;

/// Reusable scratch buffers for one access through the uniLRUstack.
///
/// Construct once, pass to [`crate::UniLruStack::access_into`] (or any
/// protocol `access_into`) for every reference, and read the results
/// between calls. The contents are overwritten by each access; ownership
/// of the buffers stays with the caller so the allocator is never
/// involved in steady state.
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
///     let _ = (res.placed, &scratch.demotions, &scratch.evicted);
/// }
/// ```
#[derive(Debug)]
pub struct AccessScratch {
    /// Demotion transfers per boundary (`levels - 1` entries after
    /// [`AccessScratch::reset`]).
    pub demotions: Vec<u32>,
    /// Demoted blocks: `(block, from_level, settled_level)`. A block
    /// crossing several boundaries appears once, with its final level.
    pub demoted: Vec<(BlockId, usize, usize)>,
    /// Blocks evicted from the bottom level to `L_out` by this access.
    pub evicted: Vec<BlockId>,
    /// DemotionSearching working set: the cascade's touched entries as
    /// `(stamp, level first demoted from)`. Internal to the stack's
    /// cascade; exposed to the crate so the cascade can run without
    /// borrowing conflicts against the public result buffers above.
    pub(crate) moved: Vec<(u32, usize)>,
}

impl AccessScratch {
    /// Creates empty scratch buffers with room for 8 entries each.
    pub fn new() -> Self {
        AccessScratch {
            demotions: Vec::with_capacity(RESERVED),
            demoted: Vec::with_capacity(RESERVED),
            evicted: Vec::with_capacity(RESERVED),
            moved: Vec::with_capacity(RESERVED),
        }
    }

    /// Clears every buffer and sizes the demotion counters for a
    /// hierarchy with `boundaries` level boundaries. Called by every
    /// `access_into` entry point, so dirty scratch is always equivalent
    /// to fresh scratch. Keeps capacity — allocation-free once the
    /// buffers have reached their high-water mark.
    #[inline]
    pub fn reset(&mut self, boundaries: usize) {
        if self.demotions.len() == boundaries {
            // Stores only where a counter is nonzero: an access rarely
            // demotes, so this usually stores nothing, where a refill
            // would call `memset` on every access.
            for d in self.demotions.iter_mut().filter(|d| **d != 0) {
                *d = 0;
            }
        } else {
            self.demotions.clear();
            self.demotions.resize(boundaries, 0);
        }
        self.demoted.clear();
        self.evicted.clear();
        self.moved.clear();
    }
}

impl Default for AccessScratch {
    fn default() -> Self {
        AccessScratch::new()
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
        s.moved.push((7, 3));
        s.reset(2);
        assert_eq!(s.demotions, [0, 0]);
        assert!(s.demoted.is_empty());
        assert!(s.evicted.is_empty());
        assert!(s.moved.is_empty());
        s.demotions[1] = 4;
        s.reset(2);
        assert_eq!(s.demotions, [0, 0], "counters of the right length");
    }

    #[test]
    fn new_is_empty() {
        let s = AccessScratch::new();
        assert!(s.demotions.is_empty());
        assert!(s.demoted.is_empty());
        assert!(s.evicted.is_empty());
    }
}
