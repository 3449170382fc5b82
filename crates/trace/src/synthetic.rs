//! The paper's named workloads, rebuilt as seeded synthetic traces.
//!
//! We do not have the original trace files, so each constructor here
//! produces a stream whose *access-pattern class* matches the paper's own
//! description of that trace (§2.2 for the six small-scale traces, §4.2 for
//! the large single-client and multi-client traces). DESIGN.md §3 documents
//! every substitution.
//!
//! All constructors take the number of references to generate, so the
//! experiment harness can trade fidelity for speed; footprints (distinct
//! blocks) are fixed to the paper's values where the paper gives them.

use crate::multi::interleave;
use crate::patterns::{
    FileSetPattern, LoopingPattern, MixedPattern, Pattern, Phase, SequentialPattern,
    TemporalPattern, UniformPattern, WorkingSetDriftPattern, ZipfPattern,
};
use crate::{blocks_for_mib, Trace};

// ---------------------------------------------------------------------------
// The six small-scale traces of §2.2 (Figures 2 and 3).
// ---------------------------------------------------------------------------

/// Footprint of the small-scale `cs` stand-in, in blocks.
pub const CS_BLOCKS: u64 = 2_500;
/// Footprint of the small-scale `glimpse` stand-in, in blocks.
pub const GLIMPSE_BLOCKS: u64 = 400 + 1_600 + 3_000;
/// Footprint of the small-scale `zipf` stand-in, in blocks.
pub const ZIPF_SMALL_BLOCKS: u64 = 5_000;
/// Footprint of the small-scale `random` stand-in, in blocks.
pub const RANDOM_SMALL_BLOCKS: u64 = 5_000;
/// Footprint of the small-scale `sprite` stand-in, in blocks.
pub const SPRITE_BLOCKS: u64 = 4_000;

/// `cs`: a pure looping pattern — "all blocks are regularly and repeatedly
/// accessed".
pub fn cs(refs: usize) -> Trace {
    LoopingPattern::new(CS_BLOCKS).generate(refs)
}

/// `glimpse`: looping over several scopes of different lengths.
pub fn glimpse(refs: usize) -> Trace {
    LoopingPattern::with_scopes(vec![400, 1_600, 3_000]).generate(refs)
}

/// `zipf` (small scale): reference probability of the *i*th block ∝ 1/i.
pub fn zipf_small(refs: usize) -> Trace {
    ZipfPattern::new(ZIPF_SMALL_BLOCKS, 1.0, 0x5eed01).generate(refs)
}

/// `random` (small scale): spatially uniform references.
pub fn random_small(refs: usize) -> Trace {
    UniformPattern::new(RANDOM_SMALL_BLOCKS, 0x5eed02).generate(refs)
}

/// `sprite`: temporally-clustered, LRU-friendly references.
pub fn sprite(refs: usize) -> Trace {
    TemporalPattern::new(SPRITE_BLOCKS, 0.995, 0x5eed03).generate(refs)
}

/// `multi`: "mixed with sequential, looping and probabilistic references".
pub fn multi_small(refs: usize) -> Trace {
    MixedPattern::new(vec![
        Phase::new(Box::new(LoopingPattern::new(1_500)), 3_000),
        Phase::new(Box::new(SequentialPattern::new(100_000, 2_000)), 1_000),
        Phase::new(
            Box::new(ZipfPattern::new(3_000, 1.0, 0x5eed04).with_base(10_000)),
            3_000,
        ),
    ])
    .generate(refs)
}

/// Returns the six small-scale traces of §2.2 with their paper names.
pub fn small_suite(refs: usize) -> Vec<(&'static str, Trace)> {
    vec![
        ("cs", cs(refs)),
        ("glimpse", glimpse(refs)),
        ("zipf", zipf_small(refs)),
        ("random", random_small(refs)),
        ("sprite", sprite(refs)),
        ("multi", multi_small(refs)),
    ]
}

// ---------------------------------------------------------------------------
// The five large single-client traces of §4.2/§4.3 (Figure 6).
// ---------------------------------------------------------------------------

/// Footprint of the large `random` trace: 65,536 blocks = 512 MB (§4.2).
pub const RANDOM_LARGE_BLOCKS: u64 = 65_536;
/// Footprint of the large `zipf` trace: 98,304 blocks = 768 MB (§4.2).
pub const ZIPF_LARGE_BLOCKS: u64 = 98_304;
/// `httpd` file count (§4.2).
pub const HTTPD_FILES: u32 = 13_457;
/// `httpd` data-set size: 524 MB (§4.2).
pub const HTTPD_BLOCKS: u64 = blocks_for_mib(524);
/// `dev1` data-set size: ~600 MB (§4.2).
pub const DEV1_BLOCKS: u64 = blocks_for_mib(600);
/// `tpcc1` data-set size: ~256 MB (§4.2).
pub const TPCC1_BLOCKS: u64 = blocks_for_mib(256);

/// Large-scale `random`: uniform over 65,536 blocks (512 MB data set).
pub fn random_large(refs: usize) -> Trace {
    UniformPattern::new(RANDOM_LARGE_BLOCKS, 0x5eed10).generate(refs)
}

/// Large-scale `zipf`: Zipf over 98,304 blocks (768 MB data set).
pub fn zipf_large(refs: usize) -> Trace {
    ZipfPattern::new(ZIPF_LARGE_BLOCKS, 1.0, 0x5eed11)
        .scrambled(0x5eed12)
        .generate(refs)
}

/// How often `httpd` popularity churns: one hot/cold file swap per this
/// many file reads (web popularity drifts across a 24-hour trace).
pub const HTTPD_CHURN_INTERVAL: u64 = 100;

/// Flash-crowd recency of the `httpd` stand-ins: fraction of requests
/// re-reading a recently served file, and the recent-file window.
pub const HTTPD_RECENCY_BIAS: f64 = 0.0;
/// See [`HTTPD_RECENCY_BIAS`].
pub const HTTPD_RECENCY_WINDOW: usize = 40;

/// `httpd` as a single aggregated stream: Zipf-popular whole-file reads over
/// 13,457 files / 524 MB, with drifting popularity.
pub fn httpd_single(refs: usize) -> Trace {
    FileSetPattern::new(HTTPD_FILES, HTTPD_BLOCKS, 1.0, 0x5eed13)
        .with_popularity_churn(HTTPD_CHURN_INTERVAL)
        .with_recency_bias(HTTPD_RECENCY_BIAS, HTTPD_RECENCY_WINDOW)
        .generate(refs)
}

/// `dev1`: 15 days of desktop I/O — a broad concurrent working set
/// (editor + compiler + IDE + browser ≈ 125 MB) drifting slowly over a
/// 600 MB universe, with sequential bursts (builds, copies). The working
/// set exceeds a single 100 MB cache but fits the aggregate, the regime
/// where placement matters; the paper's trace has ~100 K references.
pub fn dev1(refs: usize) -> Trace {
    WorkingSetDriftPattern::new(DEV1_BLOCKS, 16_000, 0x5eed14)
        .with_depth_decay(0.9999)
        .with_rates(0.001, 0.005)
        .generate(refs)
}

/// Loop length of the dominant `tpcc1` loop, in blocks.
///
/// Chosen well under the paper's combined L1+L2 capacity for this workload
/// (two 50 MB caches = 12,800 blocks) so the loop's re-reference recency —
/// loop length plus interleaved index traffic — stays inside L2. This
/// reproduces the paper's signature behaviour: uniLRU serves almost every
/// `tpcc1` reference from L2 (92.5 %) with a 100 % demotion rate, while
/// ULC splits the loop across L1 and L2 with almost no demotions.
pub const TPCC1_LOOP_BLOCKS: u64 = 11_000;

/// `tpcc1`: TPC-C on Postgres — a dominant looping pattern (§4.3 observes a
/// 100 % uniLRU demotion rate, the looping signature) plus light uniform
/// index traffic over the rest of the 256 MB data set.
pub fn tpcc1(refs: usize) -> Trace {
    MixedPattern::new(vec![
        Phase::new(Box::new(LoopingPattern::new(TPCC1_LOOP_BLOCKS)), 9_500),
        Phase::new(
            Box::new(
                UniformPattern::new(TPCC1_BLOCKS - TPCC1_LOOP_BLOCKS, 0x5eed15)
                    .with_base(TPCC1_LOOP_BLOCKS),
            ),
            500,
        ),
    ])
    .generate(refs)
}

/// Returns the five large single-client traces of §4.3 with their paper
/// names.
pub fn single_client_suite(refs: usize) -> Vec<(&'static str, Trace)> {
    vec![
        ("random", random_large(refs)),
        ("zipf", zipf_large(refs)),
        ("httpd", httpd_single(refs)),
        ("dev1", dev1(refs)),
        ("tpcc1", tpcc1(refs)),
    ]
}

// ---------------------------------------------------------------------------
// The three multi-client traces of §4.4 (Figure 7).
// ---------------------------------------------------------------------------

/// Number of clients in the multi-client `httpd` workload.
pub const HTTPD_CLIENTS: usize = 7;
/// Number of clients in the `openmail` workload.
pub const OPENMAIL_CLIENTS: usize = 6;
/// Number of clients in the `db2` workload.
pub const DB2_CLIENTS: usize = 8;

/// `httpd` with its seven per-node request streams kept separate. All
/// clients share one file set (data sharing, as the paper notes), with
/// distinct request randomness.
pub fn httpd_multi(refs: usize) -> Trace {
    let patterns: Vec<Box<dyn Pattern>> = (0..HTTPD_CLIENTS)
        .map(|c| {
            Box::new(
                FileSetPattern::new(HTTPD_FILES, HTTPD_BLOCKS, 1.0, 0x5eed13)
                    .with_popularity_churn(HTTPD_CHURN_INTERVAL)
                    .with_recency_bias(HTTPD_RECENCY_BIAS, HTTPD_RECENCY_WINDOW)
                    .with_request_seed(0x5eed20 + c as u64),
            ) as Box<dyn Pattern>
        })
        .collect();
    interleave(patterns, None, refs, 0x5eed21)
}

/// `openmail`, scaled: six clients with temporally-clustered private
/// mailbox working sets and negligible sharing. `footprint_blocks` is the
/// total data-set size in blocks (the paper's system held 18.6 GB; pass a
/// scaled-down value and scale cache sizes by the same factor).
pub fn openmail(refs: usize, footprint_blocks: u64) -> Trace {
    let per_client = footprint_blocks / OPENMAIL_CLIENTS as u64;
    assert!(per_client > 0, "footprint too small for 6 clients");
    // Deep clustering: a mail working set reaches well past the client
    // cache (the server tier matters), with decay scaled to the footprint.
    let q = 1.0 - 3.0 / per_client as f64;
    let patterns: Vec<Box<dyn Pattern>> = (0..OPENMAIL_CLIENTS)
        .map(|c| {
            Box::new(
                TemporalPattern::new(per_client, q, 0x5eed30 + c as u64)
                    .with_base(c as u64 * per_client),
            ) as Box<dyn Pattern>
        })
        .collect();
    interleave(patterns, None, refs, 0x5eed31)
}

/// `db2`, scaled: eight clients running join/set/aggregation operations —
/// dominated by looping scans (§4.4 attributes uniLRU's 88.6 % demotion rate
/// to db2's looping pattern). `footprint_blocks` is the total data-set size
/// in blocks (paper: 5.2 GB).
pub fn db2_multi(refs: usize, footprint_blocks: u64) -> Trace {
    let per_client = footprint_blocks / DB2_CLIENTS as u64;
    assert!(per_client >= 10, "footprint too small for 8 clients");
    let patterns: Vec<Box<dyn Pattern>> = (0..DB2_CLIENTS)
        .map(|c| {
            // Each client loops over a large private scan range plus a
            // smaller repeatedly-joined table.
            let base = c as u64 * per_client;
            let small = per_client / 5;
            let large = per_client - small;
            Box::new(
                MixedPattern::new(vec![
                    Phase::new(
                        Box::new(LoopingPattern::with_scopes(vec![small]).with_base(base)),
                        2_000,
                    ),
                    Phase::new(
                        Box::new(LoopingPattern::with_scopes(vec![large]).with_base(base + small)),
                        8_000,
                    ),
                ]),
                // interleave() draws from patterns one reference at a time,
                // so phase alternation happens per client.
            ) as Box<dyn Pattern>
        })
        .collect();
    interleave(patterns, None, refs, 0x5eed41)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClientId;
    use fxhash::{FxHashMap, FxHashSet};

    #[test]
    fn small_suite_has_six_named_traces() {
        let suite = small_suite(1_000);
        let names: Vec<&str> = suite.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["cs", "glimpse", "zipf", "random", "sprite", "multi"]
        );
        for (name, t) in &suite {
            assert_eq!(t.len(), 1_000, "{name}");
            assert_eq!(t.num_clients(), 1, "{name}");
        }
    }

    #[test]
    fn cs_is_a_pure_loop() {
        let t = cs(2 * CS_BLOCKS as usize);
        assert_eq!(t.unique_blocks(), CS_BLOCKS as usize);
        // Second cycle repeats the first exactly.
        let r = t.records();
        for i in 0..CS_BLOCKS as usize {
            assert_eq!(r[i].block, r[i + CS_BLOCKS as usize].block);
        }
    }

    #[test]
    fn glimpse_covers_all_scopes() {
        let t = glimpse(GLIMPSE_BLOCKS as usize);
        assert_eq!(t.unique_blocks(), GLIMPSE_BLOCKS as usize);
    }

    #[test]
    fn large_footprints_match_paper() {
        assert_eq!(RANDOM_LARGE_BLOCKS, 65_536);
        assert_eq!(ZIPF_LARGE_BLOCKS, 98_304);
        assert_eq!(HTTPD_BLOCKS, 67_072); // 524 MB of 8 KB blocks
        assert_eq!(TPCC1_BLOCKS, 32_768); // 256 MB
        assert_eq!(DEV1_BLOCKS, 76_800); // 600 MB
    }

    #[test]
    fn tpcc1_is_loop_dominated() {
        let t = tpcc1(100_000);
        let loop_refs = t
            .iter()
            .filter(|r| r.block.raw() < TPCC1_LOOP_BLOCKS)
            .count();
        let frac = loop_refs as f64 / t.len() as f64;
        assert!(frac > 0.85, "loop fraction = {frac}");
    }

    #[test]
    fn httpd_multi_has_seven_clients_with_sharing() {
        let t = httpd_multi(50_000);
        assert_eq!(t.num_clients(), 7);
        // Data sharing: some block is touched by more than one client.
        let mut owners: FxHashMap<_, FxHashSet<ClientId>> = FxHashMap::default();
        for r in &t {
            owners.entry(r.block).or_default().insert(r.client);
        }
        assert!(
            owners.values().any(|s| s.len() > 1),
            "expected shared blocks between httpd clients"
        );
    }

    #[test]
    fn openmail_clients_do_not_share() {
        let t = openmail(30_000, 60_000);
        assert_eq!(t.num_clients(), 6);
        let mut owners: FxHashMap<_, FxHashSet<ClientId>> = FxHashMap::default();
        for r in &t {
            owners.entry(r.block).or_default().insert(r.client);
        }
        assert!(owners.values().all(|s| s.len() == 1));
    }

    #[test]
    fn db2_has_eight_disjoint_looping_clients() {
        let t = db2_multi(40_000, 80_000);
        assert_eq!(t.num_clients(), 8);
        // Each client's stream touches only its own tenth-ish of the space.
        let s0 = t.client_stream(ClientId::new(0));
        assert!(s0.iter().all(|b| b.raw() < 10_000));
        let s7 = t.client_stream(ClientId::new(7));
        assert!(s7.iter().all(|b| b.raw() >= 70_000));
    }

    #[test]
    fn all_generators_are_deterministic() {
        assert_eq!(zipf_large(5_000), zipf_large(5_000));
        assert_eq!(dev1(5_000), dev1(5_000));
        assert_eq!(httpd_multi(5_000), httpd_multi(5_000));
        assert_eq!(db2_multi(5_000, 20_000), db2_multi(5_000, 20_000));
        assert_eq!(openmail(5_000, 6_000), openmail(5_000, 6_000));
    }
}
