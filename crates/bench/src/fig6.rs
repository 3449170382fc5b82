//! Figure 6: the three-level single-client comparison (§4.3).
//!
//! Client, server and disk-array RAM cache of 100 MB each (50 MB for
//! `tpcc1`), 8 KB blocks, LAN 1 ms / SAN 0.2 ms / disk 10 ms. Three
//! panels per workload: per-level hit rates, boundary demotion rates, and
//! the average access time broken into hit/miss/demotion components.

use crate::Scale;
use serde::{Deserialize, Serialize};
use ulc_core::{UlcConfig, UlcSingle};
use ulc_hierarchy::{
    simulate, CostModel, IndLru, MultiLevelPolicy, SimStats, TimeBreakdown, UniLru,
};
use ulc_trace::{blocks_for_mib, synthetic, Trace};

/// One (workload, scheme) measurement of Figure 6.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Workload name.
    pub trace: String,
    /// Scheme name (`indLRU`, `uniLRU`, `ULC`).
    pub scheme: String,
    /// Per-level hit rates (3 entries).
    pub hit_rates: Vec<f64>,
    /// Hierarchy miss rate.
    pub miss_rate: f64,
    /// Demotion rates at the two boundaries.
    pub demotion_rates: Vec<f64>,
    /// Average access time (ms).
    pub avg_time_ms: f64,
    /// `T_ave` components.
    pub breakdown: TimeBreakdown,
}

/// Cache capacity (blocks per level) used for `trace_name` in §4.3.
pub fn capacity_for(trace_name: &str) -> usize {
    if trace_name == "tpcc1" {
        blocks_for_mib(50) as usize
    } else {
        blocks_for_mib(100) as usize
    }
}

fn measure(
    name: &str,
    scheme: &mut dyn MultiLevelPolicy,
    trace: &Trace,
    costs: &CostModel,
) -> Fig6Result {
    let stats: SimStats = simulate(scheme, trace, trace.warmup_len());
    Fig6Result {
        trace: name.to_string(),
        scheme: scheme.name().to_string(),
        hit_rates: stats.hit_rates(),
        miss_rate: stats.miss_rate(),
        demotion_rates: stats.demotion_rates(),
        avg_time_ms: stats.average_access_time(costs),
        breakdown: stats.breakdown(costs),
    }
}

/// Runs the full Figure 6 study: 5 workloads × 3 schemes, every
/// (workload, scheme) cell simulated in parallel, results in the
/// sequential loop's order.
pub fn run(scale: Scale) -> Vec<Fig6Result> {
    let costs = CostModel::paper_three_level();
    let suite = synthetic::single_client_suite(scale.large_refs());
    let grid: Vec<(&str, &Trace, usize)> = suite
        .iter()
        .flat_map(|(name, trace)| (0..3).map(move |scheme| (*name, trace, scheme)))
        .collect();
    crate::sweep::par_map(&grid, |&(name, trace, scheme)| {
        let c = capacity_for(name);
        let caps = vec![c, c, c];
        let mut policy: Box<dyn MultiLevelPolicy> = match scheme {
            0 => Box::new(IndLru::single_client(caps)),
            1 => Box::new(UniLru::single_client(caps)),
            _ => Box::new(UlcSingle::new(UlcConfig::new(caps))),
        };
        measure(name, policy.as_mut(), trace, &costs)
    })
}

/// Renders the three panels of Figure 6.
pub fn render(results: &[Fig6Result]) -> String {
    use crate::{ms, pct, row};
    let mut s = String::new();
    s.push_str("Figure 6: three-level single-client structure\n");
    let mut current = "";
    for r in results {
        if r.trace != current {
            current = &r.trace;
            s.push('\n');
            s.push_str(&row(
                &r.trace,
                &[
                    "h(L1)".into(),
                    "h(L2)".into(),
                    "h(L3)".into(),
                    "miss".into(),
                    "d(b1)".into(),
                    "d(b2)".into(),
                    "T_ave".into(),
                    "T_dem".into(),
                ],
            ));
            s.push('\n');
        }
        s.push_str(&row(
            &r.scheme,
            &[
                pct(r.hit_rates[0]),
                pct(r.hit_rates[1]),
                pct(r.hit_rates[2]),
                pct(r.miss_rate),
                pct(r.demotion_rates[0]),
                pct(r.demotion_rates[1]),
                ms(r.avg_time_ms),
                ms(r.breakdown.demotion_ms),
            ],
        ));
        s.push('\n');
    }
    s
}

/// Convenience lookup in a result set.
#[expect(
    clippy::panic,
    reason = "report lookup helper; the message needs the runtime key"
)]
pub fn find<'a>(results: &'a [Fig6Result], trace: &str, scheme: &str) -> &'a Fig6Result {
    results
        .iter()
        .find(|r| r.trace == trace && r.scheme == scheme)
        .unwrap_or_else(|| panic!("missing {trace}/{scheme}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The smoke-scale study is computed once and shared by every test.
    fn results() -> &'static [Fig6Result] {
        static RESULTS: OnceLock<Vec<Fig6Result>> = OnceLock::new();
        RESULTS.get_or_init(|| run(Scale::Smoke))
    }

    #[test]
    fn produces_15_results() {
        let r = results();
        assert_eq!(r.len(), 15);
    }

    #[test]
    fn uni_lru_beats_ind_lru_everywhere() {
        // §4.3: "significant performance improvements of uniLRU over
        // indLRU for all the five traces".
        let r = results();
        for t in ["random", "zipf", "httpd", "dev1", "tpcc1"] {
            let ind = find(r, t, "indLRU");
            let uni = find(r, t, "uniLRU");
            assert!(
                uni.avg_time_ms < ind.avg_time_ms,
                "{t}: uniLRU {:.2} !< indLRU {:.2}",
                uni.avg_time_ms,
                ind.avg_time_ms
            );
        }
    }

    #[test]
    fn ulc_beats_uni_lru_everywhere() {
        // §4.3: "ULC achieves from 11% to 71% reduction on average access
        // time … over that of uniLRU".
        let r = results();
        for t in ["random", "zipf", "httpd", "dev1", "tpcc1"] {
            let uni = find(r, t, "uniLRU");
            let ulc = find(r, t, "ULC");
            assert!(
                ulc.avg_time_ms <= uni.avg_time_ms * 1.02,
                "{t}: ULC {:.2} vs uniLRU {:.2}",
                ulc.avg_time_ms,
                uni.avg_time_ms
            );
        }
    }

    #[test]
    fn random_trace_matches_paper_shape() {
        // indLRU: L1 ~ c/universe, lower levels useless. uniLRU: each
        // level contributes ~ its share with heavy demotion (80.5% / 60.9%
        // in the paper).
        let r = results();
        let ind = find(r, "random", "indLRU");
        assert!(ind.hit_rates[1] < 0.05, "ind h2 = {}", ind.hit_rates[1]);
        let uni = find(r, "random", "uniLRU");
        let share = capacity_for("random") as f64 / synthetic::RANDOM_LARGE_BLOCKS as f64;
        for l in 0..3 {
            assert!(
                (uni.hit_rates[l] - share).abs() < 0.05,
                "uni h{} = {:.3} vs share {:.3}",
                l + 1,
                uni.hit_rates[l],
                share
            );
        }
        assert!(uni.demotion_rates[0] > 0.7, "paper: 80.5%");
        assert!(uni.demotion_rates[1] > 0.5, "paper: 60.9%");
        // ULC matches the aggregate hit rate without the demotion bill
        // (the paper reports ULC's demotion share of T_ave at 1–8.3%;
        // random is its weakest case).
        let ulc = find(r, "random", "ULC");
        let agg_uni: f64 = uni.hit_rates.iter().sum();
        let agg_ulc: f64 = ulc.hit_rates.iter().sum();
        assert!((agg_ulc - agg_uni).abs() < 0.05);
        assert!(ulc.demotion_rates[0] < 0.5 * uni.demotion_rates[0]);
        assert!(ulc.breakdown.demotion_fraction() < 0.1);
    }

    #[test]
    fn tpcc1_matches_paper_signature() {
        // The paper's headline: uniLRU demotes on 100% of references and
        // serves tpcc1 from L2 (92.5%); ULC splits hits L1-heavy
        // (50.3/45.1/3.4) with ~1.4% demotion rates.
        let r = results();
        let uni = find(r, "tpcc1", "uniLRU");
        assert!(
            uni.demotion_rates[0] > 0.9,
            "uni b1 = {:?}",
            uni.demotion_rates
        );
        assert!(uni.hit_rates[0] < 0.1, "uni h1 = {:?}", uni.hit_rates);
        assert!(uni.hit_rates[1] > 0.7, "uni h2 = {:?}", uni.hit_rates);
        let ulc = find(r, "tpcc1", "ULC");
        assert!(ulc.hit_rates[0] > 0.3, "ulc h1 = {:?}", ulc.hit_rates);
        assert!(ulc.hit_rates[1] > 0.3, "ulc h2 = {:?}", ulc.hit_rates);
        assert!(
            ulc.demotion_rates[0] < 0.1,
            "ulc demotions = {:?}",
            ulc.demotion_rates
        );
        // 44.7% of uniLRU's access time goes to demotion on tpcc1.
        assert!(uni.breakdown.demotion_fraction() > 0.3);
        assert!(ulc.breakdown.demotion_fraction() < 0.1);
    }

    #[test]
    fn ulc_demotion_cost_share_is_small() {
        // §4.3: ULC's demotion share of T_ave is 1–8.3% (avg 4.1%),
        // uniLRU's 12.6–44.7% (avg 21.5%).
        let r = results();
        let mut ulc_avg = 0.0;
        let mut uni_avg = 0.0;
        for t in ["random", "zipf", "httpd", "dev1", "tpcc1"] {
            ulc_avg += find(r, t, "ULC").breakdown.demotion_fraction();
            uni_avg += find(r, t, "uniLRU").breakdown.demotion_fraction();
        }
        ulc_avg /= 5.0;
        uni_avg /= 5.0;
        assert!(ulc_avg < 0.12, "ULC avg demotion share {ulc_avg:.3}");
        assert!(uni_avg > 0.15, "uniLRU avg demotion share {uni_avg:.3}");
        assert!(ulc_avg < uni_avg / 2.0);
    }

    #[test]
    fn render_lists_all_schemes() {
        let text = render(results());
        assert!(text.contains("indLRU"));
        assert!(text.contains("uniLRU"));
        assert!(text.contains("ULC"));
        assert!(text.contains("tpcc1"));
    }
}
