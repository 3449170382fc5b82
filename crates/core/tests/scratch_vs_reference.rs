//! Differential oracle suite for the raw `uniLRUstack`'s pooled path.
//!
//! [`UniLruStack::access_into`] over a reused [`AccessScratch`] that
//! starts dirty must make exactly the decisions of the spec-shaped
//! by-value [`UniLruStack::access`] — found level, placement, per-boundary
//! demotion counters, demoted and evicted blocks — reference for
//! reference. The engines' pooled paths are pinned end to end by the
//! golden `SimStats` grid (`golden_stats.rs`).

use proptest::collection::vec;
use proptest::prelude::*;
use ulc_core::{AccessScratch, UniLruStack};
use ulc_trace::BlockId;

#[test]
fn dirty_scratch_on_the_raw_stack_is_equivalent_to_fresh() {
    // Drive one uniLRUstack with `access()` (fresh buffers) and a twin
    // with `access_into` over a scratch that was first dirtied on a
    // *different* stack shape, then reused without clearing. Every
    // side-effect list must match reference for reference.
    let caps = vec![40usize, 40, 40];
    let mut fresh = UniLruStack::new(caps.clone());
    let mut pooled = UniLruStack::new(caps);

    let mut scratch = AccessScratch::new();
    let mut other = UniLruStack::new(vec![3, 2, 4, 2]);
    for i in 0..200u64 {
        let _ = other.access_into(BlockId::new(i % 9), &mut scratch);
    }

    for i in 0..5_000u64 {
        let blk = BlockId::new((i * 37) % 150);
        let f = fresh.access(blk);
        let p = pooled.access_into(blk, &mut scratch);
        assert_eq!(f.found, p.found, "step {i}: found diverged");
        assert_eq!(f.was_in_stack, p.was_in_stack, "step {i}");
        assert_eq!(f.placed, p.placed, "step {i}: placement diverged");
        assert_eq!(
            f.demotions.as_slice(),
            scratch.demotions.as_slice(),
            "step {i}: demotion counters diverged"
        );
        assert_eq!(
            f.demoted.as_slice(),
            scratch.demoted.as_slice(),
            "step {i}: demoted blocks diverged"
        );
        assert_eq!(
            f.evicted.as_slice(),
            scratch.evicted.as_slice(),
            "step {i}: evictions diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random hierarchy shapes × random reference streams: the pooled
    /// path over a continuously-reused dirty scratch makes exactly the
    /// decisions of the by-value path.
    #[test]
    fn pooled_stack_equals_by_value_on_random_traces(
        caps in vec(1usize..6, 1..5),
        blocks in vec(0u64..24, 1..250),
    ) {
        let mut fresh = UniLruStack::new(caps.clone());
        let mut pooled = UniLruStack::new(caps);
        let mut scratch = AccessScratch::new();
        for (step, &blk) in blocks.iter().enumerate() {
            let f = fresh.access(BlockId::new(blk));
            let p = pooled.access_into(BlockId::new(blk), &mut scratch);
            prop_assert_eq!(f.found, p.found, "step {}", step);
            prop_assert_eq!(f.placed, p.placed, "step {}", step);
            prop_assert_eq!(f.demotions.as_slice(), scratch.demotions.as_slice(), "step {}", step);
            prop_assert_eq!(f.demoted.as_slice(), scratch.demoted.as_slice(), "step {}", step);
            prop_assert_eq!(f.evicted.as_slice(), scratch.evicted.as_slice(), "step {}", step);
        }
    }
}
