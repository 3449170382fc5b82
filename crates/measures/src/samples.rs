//! Per-reference measure samples — the data behind Figure 1.
//!
//! Figure 1 of the paper illustrates, on the LRU stack, how a block's
//! **R** grows between its references, how **LLD** freezes the recency of
//! the last access, how **LLD-R** switches from LLD to R once overtaken,
//! and how **ND**/**NLD** describe the future. [`trace_measures`] computes
//! all of them for every reference of a trace, so the interplay can be
//! inspected concretely (see the `fig1` binary).

use crate::INFINITE;
use ulc_cache::{lru_stack_distances, next_use_times, NEVER};
use ulc_trace::{BlockId, Trace};

/// All four §2.1 measures, evaluated at one reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasureSample {
    /// The referenced block.
    pub block: BlockId,
    /// Recency at this reference — the LRU stack distance, [`INFINITE`]
    /// on first access. This is also the block's new **LLD**.
    pub recency: u64,
    /// **LLD-R** evaluated *just before* this reference:
    /// `max(previous LLD, recency)`. [`INFINITE`] on first access.
    pub lld_r: u64,
    /// **ND**: references until the next access to this block,
    /// [`INFINITE`] if never.
    pub next_distance: u64,
    /// **NLD**: recency at which the next access will occur,
    /// [`INFINITE`] if never accessed again.
    pub next_locality_distance: u64,
}

/// Computes a [`MeasureSample`] for every reference of `trace`.
///
/// # Examples
///
/// ```
/// use ulc_measures::{trace_measures, INFINITE};
/// use ulc_trace::{BlockId, Trace};
///
/// let t = Trace::from_blocks([1u64, 2, 1].map(BlockId::new));
/// let s = trace_measures(&t);
/// assert_eq!(s[0].next_distance, 2);      // block 1 re-accessed 2 later
/// assert_eq!(s[0].next_locality_distance, 1); // ... at recency 1
/// assert_eq!(s[2].recency, 1);
/// assert_eq!(s[1].next_distance, INFINITE);
/// ```
pub fn trace_measures(trace: &Trace) -> Vec<MeasureSample> {
    let blocks: Vec<u64> = trace.iter().map(|r| r.block.raw()).collect();
    let recencies = lru_stack_distances(&blocks);
    let nld = ulc_cache::next_locality_distances(&blocks);
    let next = next_use_times(&blocks);
    let mut last_lld: fxhash::FxHashMap<u64, u64> = Default::default();
    let mut samples = Vec::with_capacity(blocks.len());
    for (i, &b) in blocks.iter().enumerate() {
        let recency = recencies[i].map_or(INFINITE, |r| r as u64);
        let lld_r = match last_lld.get(&b) {
            Some(&prev_lld) => prev_lld.max(recency),
            None => INFINITE,
        };
        samples.push(MeasureSample {
            block: trace.records()[i].block,
            recency,
            lld_r,
            next_distance: match next[i] {
                NEVER => INFINITE,
                j => j - i as u64,
            },
            next_locality_distance: nld[i].map_or(INFINITE, |v| v as u64),
        });
        last_lld.insert(b, recency);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ids: &[u64]) -> Trace {
        Trace::from_blocks(ids.iter().map(|&i| BlockId::new(i)))
    }

    #[test]
    fn first_access_is_infinite_everywhere_backward() {
        let s = trace_measures(&t(&[7]));
        assert_eq!(s[0].recency, INFINITE);
        assert_eq!(s[0].lld_r, INFINITE);
        assert_eq!(s[0].next_distance, INFINITE);
        assert_eq!(s[0].next_locality_distance, INFINITE);
    }

    #[test]
    fn figure_1_scenario() {
        // Access block 0, then three distinct blocks, then block 0 again:
        // at the re-reference, R has grown to 3; before it, LLD was inf
        // (first access), so LLD-R at the re-reference is max(inf, 3).
        // After it, LLD becomes 3.
        let s = trace_measures(&t(&[0, 1, 2, 3, 0, 4, 0]));
        assert_eq!(s[4].recency, 3);
        assert_eq!(s[4].lld_r, INFINITE, "first re-access: no prior LLD");
        // The final access to 0 happens at recency 1; its LLD-R just
        // before is max(LLD = 3, R = 1) = 3: LLD still dominates.
        assert_eq!(s[6].recency, 1);
        assert_eq!(s[6].lld_r, 3);
    }

    #[test]
    fn lld_r_switches_to_recency_once_overtaken() {
        // Block 0: accessed, re-accessed at recency 1 (LLD = 1), then not
        // touched while 4 distinct blocks pass: at its next access R = 4
        // has overtaken LLD = 1, so LLD-R = 4.
        let s = trace_measures(&t(&[0, 1, 0, 2, 3, 4, 5, 0]));
        assert_eq!(s[2].recency, 1);
        assert_eq!(s[7].recency, 4);
        assert_eq!(s[7].lld_r, 4, "R overtakes the frozen LLD");
    }

    #[test]
    fn nd_and_nld_are_future_measures() {
        let s = trace_measures(&t(&[9, 8, 9, 8]));
        assert_eq!(s[0].next_distance, 2);
        assert_eq!(s[0].next_locality_distance, 1);
        assert_eq!(s[2].next_distance, INFINITE);
    }

    #[test]
    fn loop_has_constant_measures_in_steady_state() {
        let ids: Vec<u64> = (0..5).cycle().take(25).collect();
        let s = trace_measures(&t(&ids));
        for sample in &s[5..20] {
            assert_eq!(sample.recency, 4);
            assert_eq!(sample.next_distance, 5);
            assert_eq!(sample.next_locality_distance, 4);
        }
        // And LLD-R is stable at 4 from the second re-reference on.
        for sample in &s[10..20] {
            assert_eq!(sample.lld_r, 4);
        }
    }
}
