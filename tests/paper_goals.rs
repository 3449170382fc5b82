//! End-to-end tests of the three goals the paper's abstract claims for
//! ULC:
//!
//! 1. the multi-level cache retains the hit rate of a single cache of
//!    aggregate size;
//! 2. non-uniform locality strengths are ranked into the physical levels
//!    (hits concentrate at the fast levels);
//! 3. communication (demotion) overhead between caches is reduced.

use ulc::cache::LruCache;
use ulc::core::{UlcConfig, UlcSingle};
use ulc::hierarchy::{simulate, CostModel, MultiLevelPolicy, UniLru};
use ulc::trace::{synthetic, Trace};

fn run_ulc(caps: Vec<usize>, trace: &Trace) -> ulc::hierarchy::SimStats {
    let mut p = UlcSingle::new(UlcConfig::new(caps));
    simulate(&mut p, trace, trace.warmup_len())
}

fn lru_hit_rate(capacity: usize, trace: &Trace) -> f64 {
    let mut cache = LruCache::new(capacity);
    let warmup = trace.warmup_len();
    let mut hits = 0usize;
    let mut measured = 0usize;
    for (i, r) in trace.iter().enumerate() {
        let hit = cache.access(r.block).is_hit();
        if i >= warmup {
            measured += 1;
            if hit {
                hits += 1;
            }
        }
    }
    hits as f64 / measured.max(1) as f64
}

/// Goal 1: aggregate-size hit rates, within a small tolerance, across
/// pattern classes. (On looping patterns ULC can only do *better* than
/// aggregate LRU, which thrashes.)
#[test]
fn goal_1_aggregate_hit_rate() {
    let caps = vec![400usize, 400, 400];
    for (name, trace) in [
        ("sprite", synthetic::sprite(60_000)),
        ("zipf", synthetic::zipf_small(60_000)),
        ("random", synthetic::random_small(60_000)),
    ] {
        let ulc = run_ulc(caps.clone(), &trace);
        let single = lru_hit_rate(1200, &trace);
        assert!(
            ulc.total_hit_rate() > single - 0.05,
            "{name}: ULC {:.3} vs aggregate LRU {:.3}",
            ulc.total_hit_rate(),
            single
        );
    }
    // Looping: aggregate LRU of 1200 over a 2500-block loop gets zero;
    // ULC keeps a settled subset resident.
    let loop_trace = synthetic::cs(60_000);
    let ulc = run_ulc(caps, &loop_trace);
    let single = lru_hit_rate(1200, &loop_trace);
    assert!(single < 0.01);
    assert!(
        ulc.total_hit_rate() > 0.4,
        "ULC on an oversized loop: {:.3}",
        ulc.total_hit_rate()
    );
}

/// Goal 2: the hit-rate distribution is access-time-aware — upper levels
/// contribute at least their share on workloads with distinguishable
/// locality.
#[test]
fn goal_2_hits_concentrate_at_fast_levels() {
    let caps = vec![300usize, 300, 300];
    for (name, trace) in [
        ("sprite", synthetic::sprite(60_000)),
        ("zipf", synthetic::zipf_small(60_000)),
    ] {
        let stats = run_ulc(caps.clone(), &trace);
        let h = stats.hit_rates();
        assert!(
            h[0] >= h[1] && h[1] >= h[2],
            "{name}: hits should decay with depth, got {h:?}"
        );
    }
}

/// Goal 3: demotion traffic far below unified LRU on every workload
/// class, and the demotion share of access time stays single-digit.
#[test]
fn goal_3_demotion_overhead_reduced() {
    let caps = vec![400usize, 400, 400];
    let costs = CostModel::paper_three_level();
    for (name, trace) in synthetic::small_suite(50_000) {
        let ulc = run_ulc(caps.clone(), &trace);
        let mut uni = UniLru::single_client(caps.clone());
        let uni_stats = simulate(&mut uni, &trace, trace.warmup_len());
        let ulc_d: f64 = ulc.demotion_rates().iter().sum();
        let uni_d: f64 = uni_stats.demotion_rates().iter().sum();
        assert!(
            ulc_d <= uni_d + 1e-9,
            "{name}: ULC demotes {ulc_d:.3}/ref vs uniLRU {uni_d:.3}/ref"
        );
        // Absolute demotion time never exceeds uniLRU's, and its share of
        // the access time stays bounded. (LRU-friendly traces have tiny
        // T_ave, which inflates the share of even modest traffic.)
        let ulc_bd = ulc.breakdown(&costs);
        let uni_bd = uni_stats.breakdown(&costs);
        assert!(
            ulc_bd.demotion_ms <= uni_bd.demotion_ms + 1e-9,
            "{name}: ULC demotion time {:.3} vs uniLRU {:.3}",
            ulc_bd.demotion_ms,
            uni_bd.demotion_ms
        );
        assert!(
            ulc_bd.demotion_fraction() < 0.30,
            "{name}: ULC demotion share {:.3}",
            ulc_bd.demotion_fraction()
        );
    }
}

/// The §5 efficiency claim, measured end to end: ULC metadata stays
/// bounded when a stack limit is configured, with negligible hit-rate
/// loss at 4× the aggregate capacity.
#[test]
fn metadata_trimming_preserves_quality() {
    let trace = synthetic::zipf_small(60_000);
    let caps = vec![300usize, 300, 300];
    let unbounded = run_ulc(caps.clone(), &trace);
    let mut config = UlcConfig::new(caps);
    config.stack_limit = Some(4 * 900);
    let mut limited = UlcSingle::new(config);
    let limited_stats = simulate(&mut limited, &trace, trace.warmup_len());
    assert!(limited.stack().stack_len() <= 4 * 900 + 1);
    assert!(
        (limited_stats.total_hit_rate() - unbounded.total_hit_rate()).abs() < 0.03,
        "limited {:.3} vs unbounded {:.3}",
        limited_stats.total_hit_rate(),
        unbounded.total_hit_rate()
    );
}

/// The protocol reports exactly one Retrieve per reference (§3.2.1's
/// message discipline), end to end through the umbrella crate: each is
/// a hit at its source level or a miss served from disk.
#[test]
fn message_discipline() {
    let trace = synthetic::multi_small(30_000);
    let mut ulc = UlcSingle::new(UlcConfig::new(vec![200, 200, 200]));
    let stats = simulate(&mut ulc, &trace, 0);
    let retrieves = stats.hits_by_level.iter().sum::<u64>() + stats.misses;
    assert_eq!(retrieves as usize, trace.len());
    assert_eq!(ulc.name(), "ULC");
}
