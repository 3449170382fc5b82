//! Differential oracle suite for the pooled paths' reused buffers.
//!
//! [`UniLruStack::access_into`] over a reused [`AccessScratch`] that
//! starts dirty must make exactly the decisions of
//! [`UniLruStack::access`], which fills a fresh scratch per reference —
//! found level, placement, per-boundary demotion counters, demoted and
//! evicted blocks — reference for reference. One `AccessOutcome` shared
//! by several engines must leave each engine's `SimStats` as its own
//! `simulate` gives them. The engines' pooled paths are pinned end to
//! end by the golden `SimStats` grid (`golden_stats.rs`), whose dirty
//! driver reuses an outcome within one engine.

use proptest::collection::vec;
use proptest::prelude::*;
use ulc_core::{AccessScratch, UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle, UniLruStack};
use ulc_hierarchy::{simulate, AccessOutcome, MultiLevelPolicy, SimStats, UniLru};
use ulc_trace::{synthetic, BlockId, Trace};

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

#[test]
fn one_outcome_shared_across_engines_matches_each_engines_simulate() {
    // ULC-single and uniLRU on three levels (two counters each), ULC-multi
    // on two (one counter), taking turns reference by reference on one
    // outcome. The ULC engines swap their counter buffers with it, so each
    // one's next scratch is whatever the engine before it left there: a
    // stale buffer of the right length, or one of the wrong length.
    let zipf = synthetic::zipf_small(20_000);
    let cs = synthetic::cs(20_000);
    let httpd = synthetic::httpd_multi(30_000);
    let make_ulc = || UlcSingle::new(UlcConfig::new(vec![400, 400, 400]));
    let make_multi = || UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048));
    let make_uni = || UniLru::single_client(vec![400, 400, 400]);
    let mut cells: [(&str, Box<dyn MultiLevelPolicy>, &Trace, SimStats); 3] = [
        (
            "ULC-single/zipf",
            Box::new(make_ulc()),
            &zipf,
            SimStats::new(3),
        ),
        (
            "ULC-multi/httpd",
            Box::new(make_multi()),
            &httpd,
            SimStats::new(2),
        ),
        ("uniLRU/cs", Box::new(make_uni()), &cs, SimStats::new(3)),
    ];
    let expected = [
        simulate(&mut make_ulc(), &zipf, zipf.warmup_len()),
        simulate(&mut make_multi(), &httpd, httpd.warmup_len()),
        simulate(&mut make_uni(), &cs, cs.warmup_len()),
    ];

    let mut out = AccessOutcome::default();
    let longest = cells.iter().map(|c| c.2.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (_, engine, trace, stats) in &mut cells {
            if let Some(r) = trace.records().get(i) {
                engine.access_into(r.client, r.block, &mut out);
                if i >= trace.warmup_len() {
                    stats.record(&out);
                }
            }
        }
    }
    for ((name, engine, _, mut stats), expected) in cells.into_iter().zip(expected) {
        stats.faults = engine.fault_summary();
        assert!(
            stats.demotions_by_boundary.iter().sum::<u64>() > 0,
            "{name}: the cell must demote to move counters"
        );
        assert_eq!(
            stats, expected,
            "{name}: the shared outcome changed its stats"
        );
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
