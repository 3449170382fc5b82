//! Differential oracle suite for the raw `uniLRUstack`'s pooled path.
//!
//! [`UniLruStack::access_into`] over a reused [`AccessScratch`] that
//! starts dirty must make exactly the decisions of
//! [`UniLruStack::access`], which fills a fresh scratch per reference —
//! found level, placement, per-boundary demotion counters, demoted and
//! evicted blocks — reference for reference. The engines' pooled paths
//! are pinned end to end by the golden `SimStats` grid
//! (`golden_stats.rs`).

use proptest::collection::vec;
use proptest::prelude::*;
use ulc_core::{AccessScratch, UniLruStack};
use ulc_trace::BlockId;

#[test]
fn dirty_scratch_on_the_raw_stack_is_equivalent_to_fresh() {
    // Drive one uniLRUstack with `access()` (a fresh scratch) and a twin
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
        let (f, fx) = fresh.access(blk);
        let p = pooled.access_into(blk, &mut scratch);
        assert_eq!(f, p, "step {i}: found level or placement diverged");
        assert_eq!(
            fx.demotions, scratch.demotions,
            "step {i}: demotion counters diverged"
        );
        assert_eq!(
            fx.demoted, scratch.demoted,
            "step {i}: demoted blocks diverged"
        );
        assert_eq!(fx.evicted, scratch.evicted, "step {i}: evictions diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random hierarchy shapes × random reference streams: the pooled
    /// path over a continuously-reused dirty scratch makes exactly the
    /// decisions of the fresh-scratch path.
    #[test]
    fn pooled_stack_equals_by_value_on_random_traces(
        caps in vec(1usize..6, 1..5),
        blocks in vec(0u64..24, 1..250),
    ) {
        let mut fresh = UniLruStack::new(caps.clone());
        let mut pooled = UniLruStack::new(caps);
        let mut scratch = AccessScratch::new();
        for (step, &blk) in blocks.iter().enumerate() {
            let (f, fx) = fresh.access(BlockId::new(blk));
            let p = pooled.access_into(BlockId::new(blk), &mut scratch);
            prop_assert_eq!(f, p, "step {}", step);
            prop_assert_eq!(&fx.demotions, &scratch.demotions, "step {}", step);
            prop_assert_eq!(&fx.demoted, &scratch.demoted, "step {}", step);
            prop_assert_eq!(&fx.evicted, &scratch.evicted, "step {}", step);
        }
    }
}
