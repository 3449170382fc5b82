//! Property-based tests for the hierarchy simulator and its baselines.

use proptest::collection::vec;
use proptest::prelude::*;
use ulc_cache::LruCache;
use ulc_hierarchy::{simulate, IndLru, LruMqServer, MultiLevelPolicy, UniLru, UniLruVariant};
use ulc_trace::{BlockId, ClientId, Trace};

fn single_trace() -> impl Strategy<Value = Trace> {
    vec(0u64..48, 1..400).prop_map(|b| Trace::from_blocks(b.into_iter().map(BlockId::new)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The defining property of unified LRU: an n-level exclusive DEMOTE
    /// hierarchy has exactly the hit set of one LRU cache of aggregate
    /// size, and a reference hits level i iff its recency falls in level
    /// i's slice of the unified stack.
    #[test]
    fn uni_lru_equals_one_big_lru(
        caps in vec(1usize..8, 1..4),
        trace in single_trace(),
    ) {
        let aggregate: usize = caps.iter().sum();
        let mut uni = UniLru::single_client(caps.clone());
        let mut big = LruCache::new(aggregate);
        for r in &trace {
            let outcome = uni.access(r.client, r.block);
            let big_hit = big.access(r.block).is_hit();
            prop_assert_eq!(
                outcome.hit_level.is_some(),
                big_hit,
                "block {}",
                r.block
            );
        }
        uni.check_invariants();
    }

    /// uniLRU's per-level hit: the level index is determined by the LRU
    /// stack distance of the reference against the cumulative capacities.
    #[test]
    fn uni_lru_hit_level_is_stack_distance_slice(
        caps in vec(1usize..6, 2..4),
        trace in single_trace(),
    ) {
        let blocks: Vec<u64> = trace.iter().map(|r| r.block.raw()).collect();
        let distances = ulc_cache::lru_stack_distances(&blocks);
        let mut bounds = Vec::new();
        let mut acc = 0usize;
        for &c in &caps {
            acc += c;
            bounds.push(acc);
        }
        let mut uni = UniLru::single_client(caps.clone());
        for (i, r) in trace.iter().enumerate() {
            let outcome = uni.access(r.client, r.block);
            let expect = distances[i].and_then(|d| {
                bounds.iter().position(|&b| d < b)
            });
            prop_assert_eq!(outcome.hit_level, expect, "ref {}", i);
        }
    }

    /// indLRU never demotes and never reports a hit for a block it has
    /// not seen.
    #[test]
    fn ind_lru_sanity(
        caps in vec(1usize..8, 1..4),
        trace in single_trace(),
    ) {
        let mut ind = IndLru::single_client(caps.clone());
        let mut seen = std::collections::HashSet::new();
        for r in &trace {
            let outcome = ind.access(r.client, r.block);
            prop_assert!(outcome.demotions.iter().all(|&d| d == 0));
            if outcome.hit_level.is_some() {
                prop_assert!(seen.contains(&r.block));
            }
            seen.insert(r.block);
        }
    }

    /// The simulator's counters add up: hits + misses == measured refs.
    #[test]
    fn sim_stats_are_conserved(
        trace in single_trace(),
        warmup_frac in 0usize..10,
    ) {
        let warmup = trace.len() * warmup_frac / 10;
        let mut p = UniLru::single_client(vec![2, 3]);
        let stats = simulate(&mut p, &trace, warmup);
        let hits: u64 = stats.hits_by_level.iter().sum();
        prop_assert_eq!(hits + stats.misses, stats.references);
        prop_assert_eq!(stats.references as usize, trace.len() - warmup);
    }

    /// Every uniLRU insertion variant preserves the exclusive invariant:
    /// a block is resident in at most one level (checked via hit levels
    /// being unique per access — a block found at L1 was not also at L2,
    /// observable by removing it and probing again).
    #[test]
    fn uni_lru_variants_run_clean(
        variant_idx in 0usize..3,
        trace in single_trace(),
    ) {
        let variant = [
            UniLruVariant::MruInsert,
            UniLruVariant::LruInsert,
            UniLruVariant::Adaptive,
        ][variant_idx];
        let mut uni = UniLru::multi_client(vec![3], vec![4], variant);
        let stats = simulate(&mut uni, &trace, 0);
        prop_assert_eq!(stats.references as usize, trace.len());
        uni.check_invariants();
    }

    /// DemotionBuffer conserves demotions (hidden + exposed = inner) and
    /// never alters hit accounting.
    #[test]
    fn demotion_buffer_conserves(
        buffer in 0usize..32,
        drain_tenths in 0u32..20,
        trace in single_trace(),
    ) {
        use ulc_hierarchy::DemotionBuffer;
        let caps = vec![3usize, 4];
        let mut plain = UniLru::single_client(caps.clone());
        let plain_stats = simulate(&mut plain, &trace, 0);
        let mut wrapped = DemotionBuffer::new(
            UniLru::single_client(caps),
            buffer,
            drain_tenths as f64 / 10.0,
        );
        let wrapped_stats = simulate(&mut wrapped, &trace, 0);
        prop_assert_eq!(&plain_stats.hits_by_level, &wrapped_stats.hits_by_level);
        let plain_total: u64 = plain_stats.demotions_by_boundary.iter().sum();
        let exposed: u64 = wrapped_stats.demotions_by_boundary.iter().sum();
        prop_assert_eq!(wrapped.hidden() + wrapped.exposed(), plain_total);
        prop_assert_eq!(wrapped.exposed(), exposed);
    }

    /// EvictionBased with zero reload latency has exactly DEMOTE's hit
    /// behaviour, with zero demotion traffic.
    #[test]
    fn eviction_based_zero_latency_equals_demote(trace in single_trace()) {
        use ulc_hierarchy::EvictionBased;
        let mut eb = EvictionBased::new(vec![3], 4, 0);
        let mut uni = UniLru::multi_client(vec![3], vec![4], UniLruVariant::MruInsert);
        for r in &trace {
            let a = eb.access(r.client, r.block);
            let b = uni.access(r.client, r.block);
            prop_assert_eq!(a.hit_level, b.hit_level, "block {}", r.block);
            prop_assert_eq!(a.demotions, vec![0]);
        }
    }

    /// Multi-client MQ/indLRU accept any interleaving of clients.
    #[test]
    fn multi_client_baselines_accept_any_interleaving(
        refs in vec((0u32..3, 0u64..32), 1..300),
    ) {
        let mut mq = LruMqServer::new(vec![2, 2, 2], 6);
        let mut ind = IndLru::multi_client(vec![2, 2, 2], vec![6]);
        for &(c, b) in &refs {
            let client = ClientId::new(c);
            let block = BlockId::new(b);
            let m = mq.access(client, block);
            let i = ind.access(client, block);
            prop_assert!(m.hit_level.is_none_or(|l| l < 2));
            prop_assert!(i.hit_level.is_none_or(|l| l < 2));
        }
    }
}
