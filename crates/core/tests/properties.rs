//! Property-based tests for the ULC protocol: the O(1) engine is
//! equivalent to the executable specification, and every structural
//! invariant holds under arbitrary reference streams.

use proptest::collection::vec;
use proptest::prelude::*;
use ulc_core::reference::NaiveUlc;
use ulc_core::{Placement, UlcMulti, UlcMultiConfig, UniLruStack};
use ulc_hierarchy::MultiLevelPolicy;
use ulc_trace::{BlockId, ClientId};

fn capacities() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        vec(1usize..6, 1..2),
        vec(1usize..6, 2..3),
        vec(1usize..6, 3..4),
        vec(1usize..5, 4..5),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fast stamped-yardstick engine makes exactly the decisions of
    /// the naive positional specification, for any hierarchy shape and any
    /// reference stream.
    #[test]
    fn fast_engine_equals_naive_specification(
        caps in capacities(),
        blocks in vec(0u64..24, 1..250),
    ) {
        let mut fast = UniLruStack::new(caps.clone());
        let mut naive = NaiveUlc::new(caps.clone());
        for (step, &blk) in blocks.iter().enumerate() {
            let (f, fx) = fast.access(BlockId::new(blk));
            let n = naive.access(BlockId::new(blk));
            prop_assert_eq!(f.found, n.found, "step {}", step);
            prop_assert_eq!(f.placed, n.placed, "step {}", step);
            prop_assert_eq!(&fx.demotions, &n.demotions, "step {}", step);
            for l in 0..caps.len() {
                prop_assert_eq!(
                    fast.level_blocks(l),
                    naive.level_blocks(l),
                    "step {} level {}",
                    step,
                    l
                );
            }
            fast.check_invariants();
        }
    }

    /// Levels never exceed capacity and a block is cached at one level at
    /// most, for any stream.
    #[test]
    fn single_client_structural_invariants(
        caps in capacities(),
        blocks in vec(0u64..64, 1..400),
    ) {
        let mut stack = UniLruStack::new(caps.clone());
        for &blk in &blocks {
            stack.access(BlockId::new(blk));
        }
        stack.check_invariants();
        let mut seen = std::collections::HashSet::new();
        for (l, &cap) in caps.iter().enumerate() {
            let level_blocks = stack.level_blocks(l);
            prop_assert!(level_blocks.len() <= cap);
            for b in level_blocks {
                prop_assert!(seen.insert(b), "block cached at two levels");
            }
        }
    }

    /// A hit is only ever reported for a block that the protocol placed
    /// earlier and has not displaced since (replay consistency): we track
    /// the cached set from outcomes alone and require agreement.
    #[test]
    fn outcome_stream_is_self_consistent(
        caps in capacities(),
        blocks in vec(0u64..32, 1..300),
    ) {
        let mut stack = UniLruStack::new(caps.clone());
        let mut resident: std::collections::HashMap<u64, usize> = Default::default();
        for &blk in &blocks {
            let (out, fx) = stack.access(BlockId::new(blk));
            match out.found {
                Placement::Level(l) => {
                    prop_assert_eq!(resident.get(&blk).copied(), Some(l));
                }
                Placement::Uncached => {
                    prop_assert_eq!(resident.get(&blk), None);
                }
            }
            // Replay the placement bookkeeping.
            match out.placed {
                Placement::Level(l) => {
                    resident.insert(blk, l);
                }
                Placement::Uncached => {
                    resident.remove(&blk);
                }
            }
            for (b, _, to) in &fx.demoted {
                resident.insert(b.raw(), *to);
            }
            for b in &fx.evicted {
                resident.remove(&b.raw());
            }
        }
    }

    /// Demotion counts reported per boundary are consistent with the
    /// demoted block list.
    #[test]
    fn demotion_counts_match_demoted_blocks(
        caps in capacities(),
        blocks in vec(0u64..24, 1..250),
    ) {
        let mut stack = UniLruStack::new(caps.clone());
        for &blk in &blocks {
            let (_, fx) = stack.access(BlockId::new(blk));
            let mut expect = vec![0u32; caps.len().saturating_sub(1)];
            for &(_, from, to) in &fx.demoted {
                prop_assert!(from < to, "demotions go downward");
                for e in &mut expect[from..to] {
                    *e += 1;
                }
            }
            prop_assert_eq!(&fx.demotions, &expect);
        }
    }

    /// Multi-client: per-client stacks validate, the server never exceeds
    /// capacity, and every reported hit corresponds to a real copy.
    #[test]
    fn multi_client_invariants(
        clients in 1usize..4,
        client_cap in 1usize..5,
        server_cap in 1usize..8,
        refs in vec((0u32..4, 0u64..24), 1..300),
    ) {
        let mut ulc = UlcMulti::new(UlcMultiConfig::uniform(clients, client_cap, server_cap));
        for &(c, b) in &refs {
            let client = ClientId::new(c % clients as u32);
            let out = ulc.access(client, BlockId::new(b));
            prop_assert!(out.hit_level.is_none_or(|l| l < 2));
            prop_assert_eq!(out.demotions.len(), 1);
        }
        ulc.check_invariants();
        prop_assert!(ulc.server_len() <= server_cap);
        let total_owned: usize = ulc.server_allocation().iter().sum();
        prop_assert_eq!(total_owned, ulc.server_len());
    }

    /// With one client and a footprint that fits the aggregate (so the
    /// server never replaces anything), the multi-client protocol is
    /// *exactly* the two-level single-client protocol. Once replacements
    /// start, the two diverge by design: gLRU orders blocks by
    /// cache-request time while the client's LRU₂ orders by reference
    /// recency — the approximation §3.2.2 accepts for shared servers
    /// ("equivalent to shrinking the cache size … so a yardstick
    /// adjustment can occur").
    #[test]
    fn multi_with_one_client_tracks_single_until_replacement(
        client_cap in 1usize..5,
        server_cap in 1usize..6,
        seed in vec(0u64..64, 1..200),
    ) {
        use ulc_core::{UlcConfig, UlcSingle};
        // Restrict the universe so nothing ever falls out of the server.
        let universe = (client_cap + server_cap) as u64;
        let blocks: Vec<u64> = seed.into_iter().map(|b| b % universe).collect();
        let mut single = UlcSingle::new(UlcConfig::new(vec![client_cap, server_cap]));
        let mut multi = UlcMulti::new(UlcMultiConfig::uniform(1, client_cap, server_cap));
        for &b in &blocks {
            let s = single.access(ClientId::SINGLE, BlockId::new(b));
            let m = multi.access(ClientId::SINGLE, BlockId::new(b));
            prop_assert_eq!(s.hit_level, m.hit_level, "block {}", b);
            prop_assert_eq!(s.demotions, m.demotions, "block {}", b);
        }
        multi.check_invariants();
    }
}
