//! The trace-driven simulation driver.

use crate::{AccessOutcome, MultiLevelPolicy, SimStats};
use ulc_trace::Trace;

/// How far ahead of the access cursor the driver issues
/// [`MultiLevelPolicy::prefetch`] hints: far enough that the hinted
/// cache line arrives before the access, near enough that it is not
/// evicted again first. Behaviour-neutral by the `prefetch` contract.
pub const PREFETCH_DISTANCE: usize = 8;

/// Runs `trace` through `policy`, warming with the first `warmup`
/// references (not measured) and measuring the rest.
///
/// # Panics
///
/// Panics if `warmup` exceeds the trace length.
///
/// # Examples
///
/// ```
/// use ulc_hierarchy::{simulate, IndLru};
/// use ulc_trace::synthetic;
///
/// let trace = synthetic::sprite(20_000);
/// let mut policy = IndLru::single_client(vec![200, 200]);
/// let stats = simulate(&mut policy, &trace, trace.warmup_len());
/// assert_eq!(stats.references as usize, trace.len() - trace.warmup_len());
/// ```
pub fn simulate<P: MultiLevelPolicy + ?Sized>(
    policy: &mut P,
    trace: &Trace,
    warmup: usize,
) -> SimStats {
    assert!(warmup <= trace.len(), "warm-up longer than the trace");
    let mut stats = SimStats::new(policy.num_levels());
    // One pooled outcome for the whole run, overwritten per reference; its
    // demotion buffer is reused or swapped, never reallocated, for engines
    // with pooled paths (DESIGN.md §5f).
    let mut outcome = AccessOutcome::miss(policy.num_levels().saturating_sub(1));
    // Batched pipeline: decode PREFETCH_DISTANCE records ahead and hint
    // the engine's block tables before the access itself runs. Hints are
    // semantics-free, so the stats are bit-identical with or without them.
    let records = trace.records();
    for (i, r) in records.iter().enumerate() {
        if let Some(ahead) = records.get(i + PREFETCH_DISTANCE) {
            policy.prefetch(ahead.client, ahead.block);
        }
        policy.access_into(r.client, r.block, &mut outcome);
        if i >= warmup {
            stats.record(&outcome);
        }
    }
    stats.faults = policy.fault_summary();
    stats
}

/// Runs `trace` through `policy` using the paper's warm-up convention:
/// the first tenth of the references warm the caches (§4.2).
pub fn simulate_with_paper_warmup<P: MultiLevelPolicy + ?Sized>(
    policy: &mut P,
    trace: &Trace,
) -> SimStats {
    simulate(policy, trace, trace.warmup_len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndLru;
    use ulc_trace::{BlockId, Trace};

    #[test]
    fn warmup_references_are_not_measured() {
        let t = Trace::from_blocks((0..100u64).map(BlockId::new));
        let mut p = IndLru::single_client(vec![10]);
        let stats = simulate(&mut p, &t, 40);
        assert_eq!(stats.references, 60);
    }

    #[test]
    fn zero_warmup_measures_everything() {
        let t = Trace::from_blocks((0..10u64).map(BlockId::new));
        let mut p = IndLru::single_client(vec![4]);
        let stats = simulate(&mut p, &t, 0);
        assert_eq!(stats.references, 10);
        assert_eq!(stats.misses, 10); // all cold
    }

    #[test]
    #[should_panic(expected = "warm-up longer")]
    fn oversized_warmup_rejected() {
        let t = Trace::from_blocks((0..5u64).map(BlockId::new));
        let mut p = IndLru::single_client(vec![4]);
        let _ = simulate(&mut p, &t, 6);
    }
}
