//! Ablation studies of ULC design choices (E7 in DESIGN.md).
//!
//! Not in the paper, but directly motivated by it:
//!
//! * **tempLRU hits** — §3.2's footnote treats blocks passing through the
//!   client as immediately replaced; how much is left on the table by not
//!   counting re-references that land while the block is still in client
//!   memory?
//! * **stack-limit trimming** — §5 argues cold metadata can be trimmed
//!   "without compromising the ULC locality distinction ability"; measure
//!   the hit-rate cost of progressively tighter metadata budgets.

use crate::Scale;
use serde::{Deserialize, Serialize};
use ulc_core::{UlcConfig, UlcSingle};
use ulc_hierarchy::{simulate, CostModel};
use ulc_trace::synthetic;

/// One ablation measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationResult {
    /// Workload name.
    pub trace: String,
    /// Variant description.
    pub variant: String,
    /// Total hit rate.
    pub total_hit_rate: f64,
    /// Average access time (ms).
    pub avg_time_ms: f64,
}

/// Runs the tempLRU-hit ablation over the small suite.
pub fn temp_lru_hits(scale: Scale) -> Vec<AblationResult> {
    let costs = CostModel::paper_three_level();
    let mut out = Vec::new();
    for (name, trace) in synthetic::small_suite(scale.small_refs()) {
        for (variant, count_hits) in [("paper", false), ("count-tempLRU-hits", true)] {
            let mut config = UlcConfig::new(vec![400, 400, 400]);
            config.temp_lru = count_hits.then_some(64);
            let mut ulc = UlcSingle::new(config);
            let stats = simulate(&mut ulc, &trace, trace.warmup_len());
            out.push(AblationResult {
                trace: name.to_string(),
                variant: variant.to_string(),
                total_hit_rate: stats.total_hit_rate(),
                avg_time_ms: stats.average_access_time(&costs),
            });
        }
    }
    out
}

/// Runs the metadata stack-limit ablation: §5 claims an 8.5 MB client
/// metadata budget supports a 4 GB working set; we sweep the limit from
/// "aggregate only" to unbounded and record the hit-rate cost.
pub fn stack_limit(scale: Scale) -> Vec<AblationResult> {
    let costs = CostModel::paper_three_level();
    let caps = vec![400usize, 400, 400];
    let aggregate: usize = caps.iter().sum();
    let mut out = Vec::new();
    for (name, trace) in synthetic::small_suite(scale.small_refs()) {
        for (variant, limit) in [
            ("limit=aggregate", Some(aggregate)),
            ("limit=2x", Some(2 * aggregate)),
            ("limit=4x", Some(4 * aggregate)),
            ("unbounded", None),
        ] {
            let mut config = UlcConfig::new(caps.clone());
            config.stack_limit = limit;
            let mut ulc = UlcSingle::new(config);
            let stats = simulate(&mut ulc, &trace, trace.warmup_len());
            out.push(AblationResult {
                trace: name.to_string(),
                variant: variant.to_string(),
                total_hit_rate: stats.total_hit_rate(),
                avg_time_ms: stats.average_access_time(&costs),
            });
        }
    }
    out
}

/// Runs the multi-client cold-claim-rule ablation (DESIGN.md §5a): the
/// dynamic-partition reading vs the literal §3.2.1 reading, across the
/// three Figure 7 workloads at a mid-size server.
pub fn claim_rule(scale: Scale) -> Vec<AblationResult> {
    use crate::fig7;
    use ulc_core::{ClaimRule, UlcMulti, UlcMultiConfig};
    let costs = CostModel::paper_two_level();
    let mut out = Vec::new();
    for w in fig7::workloads(scale) {
        let server = w.server_sweep[w.server_sweep.len() / 2];
        for (variant, rule) in [
            ("dynamic-partition", ClaimRule::DynamicPartition),
            ("paper-strict", ClaimRule::PaperStrict),
        ] {
            let mut ulc = UlcMulti::new(
                UlcMultiConfig::uniform(w.clients, w.client_blocks, server).with_claim_rule(rule),
            );
            let stats = simulate(&mut ulc, &w.trace, w.trace.warmup_len());
            out.push(AblationResult {
                trace: w.name.to_string(),
                variant: variant.to_string(),
                total_hit_rate: stats.total_hit_rate(),
                avg_time_ms: stats.average_access_time(&costs),
            });
        }
    }
    out
}

/// Renders a result list grouped by trace.
pub fn render(title: &str, results: &[AblationResult]) -> String {
    let mut s = format!("{title}\n");
    let mut current = "";
    for r in results {
        if r.trace != current {
            current = &r.trace;
            s.push_str(&format!("\n{}\n", r.trace));
        }
        s.push_str(&format!(
            "  {:<24} hit {:>6.1}%   T_ave {:>7.3} ms\n",
            r.variant,
            100.0 * r.total_hit_rate,
            r.avg_time_ms
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_lru_hits_never_hurt() {
        for pair in temp_lru_hits(Scale::Smoke).chunks(2) {
            let (paper, counted) = (&pair[0], &pair[1]);
            assert!(
                counted.avg_time_ms <= paper.avg_time_ms + 1e-9,
                "{}: counting tempLRU hits should never slow access",
                paper.trace
            );
        }
    }

    #[test]
    fn tighter_stack_limits_degrade_gracefully() {
        let results = stack_limit(Scale::Smoke);
        for group in results.chunks(4) {
            let unbounded = group.last().unwrap();
            for r in group {
                // A tighter metadata budget can only lose hits, and the
                // loss stays bounded (§5's claim).
                assert!(
                    r.total_hit_rate <= unbounded.total_hit_rate + 0.02,
                    "{}: {} unexpectedly beats unbounded",
                    r.trace,
                    r.variant
                );
            }
        }
    }

    #[test]
    fn render_mentions_variants() {
        let text = render("t", &stack_limit(Scale::Smoke));
        assert!(text.contains("limit=aggregate"));
        assert!(text.contains("unbounded"));
    }

    #[test]
    fn claim_rules_differ_where_expected() {
        let results = claim_rule(Scale::Smoke);
        assert_eq!(results.len(), 6);
        // On db2's looping scans the strict rule's scan resistance can
        // only help or tie; on httpd's re-read-heavy stream the dynamic
        // rule's warm server can only help or tie.
        let get = |t: &str, v: &str| {
            results
                .iter()
                .find(|r| r.trace == t && r.variant == v)
                .unwrap()
                .avg_time_ms
        };
        assert!(get("httpd", "dynamic-partition") <= get("httpd", "paper-strict") * 1.02);
        assert!(get("db2", "paper-strict") <= get("db2", "dynamic-partition") * 1.10);
    }
}
