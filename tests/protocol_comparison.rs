//! Cross-crate comparison of every protocol on every named workload:
//! the integration surface a downstream user exercises.

use ulc::core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc::hierarchy::{
    simulate, CostModel, IndLru, LruMqServer, MultiLevelPolicy, SimStats, UniLru, UniLruVariant,
};
use ulc::trace::{synthetic, Trace};

fn run(p: &mut dyn MultiLevelPolicy, t: &Trace) -> SimStats {
    simulate(p, t, t.warmup_len())
}

/// All three single-client schemes run every small workload and produce
/// internally consistent statistics.
#[test]
fn all_single_client_schemes_on_all_small_workloads() {
    let caps = vec![250usize, 250, 250];
    for (name, trace) in synthetic::small_suite(30_000) {
        let mut schemes: Vec<Box<dyn MultiLevelPolicy>> = vec![
            Box::new(IndLru::single_client(caps.clone())),
            Box::new(UniLru::single_client(caps.clone())),
            Box::new(UlcSingle::new(UlcConfig::new(caps.clone()))),
        ];
        for scheme in schemes.iter_mut() {
            let stats = run(scheme.as_mut(), &trace);
            let hits: u64 = stats.hits_by_level.iter().sum();
            assert_eq!(hits + stats.misses, stats.references, "{name}");
            let t = stats.average_access_time(&CostModel::paper_three_level());
            assert!(t > 0.0 && t <= 11.2 + 1.2, "{name}: T_ave = {t}");
        }
    }
}

/// All four multi-client schemes run all three multi-client workloads.
#[test]
fn all_multi_client_schemes_on_all_multi_workloads() {
    let configs = [
        ("httpd", synthetic::httpd_multi(40_000), 7usize, 512usize),
        ("openmail", synthetic::openmail(40_000, 24_000), 6, 1024),
        ("db2", synthetic::db2_multi(40_000, 24_000), 8, 512),
    ];
    for (name, trace, clients, ccap) in configs {
        let server = clients * ccap;
        let caps = vec![ccap; clients];
        let mut schemes: Vec<Box<dyn MultiLevelPolicy>> = vec![
            Box::new(IndLru::multi_client(caps.clone(), vec![server])),
            Box::new(UniLru::multi_client(
                caps.clone(),
                vec![server],
                UniLruVariant::Adaptive,
            )),
            Box::new(LruMqServer::new(caps.clone(), server)),
            Box::new(UlcMulti::new(UlcMultiConfig {
                client_capacities: caps,
                server_capacity: server,
                claim_rule: Default::default(),
            })),
        ];
        for scheme in schemes.iter_mut() {
            let stats = run(scheme.as_mut(), &trace);
            assert_eq!(
                stats.references as usize,
                trace.len() - trace.warmup_len(),
                "{name}/{}",
                scheme.name()
            );
            assert!(
                stats.miss_rate() <= 1.0 && stats.total_hit_rate() >= 0.0,
                "{name}/{}",
                scheme.name()
            );
        }
    }
}

/// The hierarchy behaves monotonically in cache size for ULC: more cache
/// never hurts the total hit rate (beyond noise) on the standard suite.
#[test]
fn ulc_hit_rate_monotone_in_cache_size() {
    for (name, trace) in [
        ("zipf", synthetic::zipf_small(50_000)),
        ("sprite", synthetic::sprite(50_000)),
    ] {
        let mut last = 0.0f64;
        for c in [100usize, 200, 400, 800] {
            let mut p = UlcSingle::new(UlcConfig::new(vec![c, c, c]));
            let stats = run(&mut p, &trace);
            assert!(
                stats.total_hit_rate() >= last - 0.02,
                "{name}: hit rate fell from {last:.3} at caps {c}"
            );
            last = stats.total_hit_rate();
        }
    }
}

/// Level counts of the protocols agree with their constructors.
#[test]
fn level_counts() {
    assert_eq!(IndLru::single_client(vec![1, 1, 1, 1]).num_levels(), 4);
    assert_eq!(UniLru::single_client(vec![1]).num_levels(), 1);
    assert_eq!(UlcSingle::new(UlcConfig::new(vec![4, 4])).num_levels(), 2);
    assert_eq!(LruMqServer::new(vec![2], 4).num_levels(), 2);
    assert_eq!(
        UlcMulti::new(UlcMultiConfig::uniform(3, 2, 8)).num_levels(),
        2
    );
}

/// ULC works on hierarchies deeper than the paper evaluates (4 levels).
#[test]
fn four_level_hierarchy() {
    let trace = synthetic::sprite(40_000);
    let mut p = UlcSingle::new(UlcConfig::new(vec![150, 150, 150, 150]));
    let stats = run(&mut p, &trace);
    assert_eq!(stats.hits_by_level.len(), 4);
    assert_eq!(stats.demotions_by_boundary.len(), 3);
    let h = stats.hit_rates();
    assert!(h[0] > h[3], "hits should favour the top: {h:?}");
    p.check_invariants();
}

/// A 1-level "hierarchy" under ULC is sane (degenerates to an
/// LRU/LIRS-flavoured single cache).
#[test]
fn one_level_hierarchy() {
    let trace = synthetic::zipf_small(30_000);
    let mut p = UlcSingle::new(UlcConfig::new(vec![500]));
    let stats = run(&mut p, &trace);
    assert!(stats.total_hit_rate() > 0.3);
    assert!(stats.demotions_by_boundary.is_empty());
}
