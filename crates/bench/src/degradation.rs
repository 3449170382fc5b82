//! Graceful-degradation curves: hit rate and average access time vs
//! message-fault intensity.
//!
//! The paper's protocol argument (§3) silently assumes a reliable
//! interconnect; this study measures what each scheme loses when that
//! assumption fails. Every (workload, scheme, drop-rate) cell runs the
//! same deterministic trace through a [`FaultyPlane`] seeded from the
//! scenario, so curves are exactly reproducible and comparable across
//! schemes — the fault-injection analogue of the fig2/3 grids. The base
//! scenario (seed, duplicate/delay rates, crash schedule) comes from the
//! `--faults=` DSL on the `sweep` binary; the sweep varies its drop rate.

use crate::Scale;
use serde::{Deserialize, Serialize};
use ulc_core::{UlcMulti, UlcMultiConfig};
use ulc_hierarchy::plane::{FaultScenario, FaultyPlane};
use ulc_hierarchy::{
    simulate, CostModel, FaultSummary, IndLru, MultiLevelPolicy, SimStats, UniLru, UniLruVariant,
};
use ulc_trace::{synthetic, Trace};

/// Message drop rates each curve is sampled at.
pub const DROP_RATES: [f64; 6] = [0.0, 0.001, 0.005, 0.01, 0.05, 0.1];

/// One point of one degradation curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DegradationPoint {
    /// Scheme name.
    pub scheme: String,
    /// Message drop probability this cell ran at.
    pub drop_rate: f64,
    /// Client-level hit rate.
    pub h1: f64,
    /// Server-level hit rate.
    pub h2: f64,
    /// Average access time (ms) under the paper's two-level cost model.
    pub avg_time_ms: f64,
    /// Transport and recovery counters of the run.
    pub faults: FaultSummary,
}

/// The workload every curve runs over: the httpd multi-client trace —
/// the §4.4 configuration with the most clients sharing one server, so
/// the most cross-client message traffic to disturb.
pub struct Workload {
    /// The interleaved multi-client trace.
    pub trace: Trace,
    /// Number of clients.
    pub clients: usize,
    /// Private cache blocks per client.
    pub client_blocks: usize,
    /// Server cache blocks.
    pub server_blocks: usize,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("clients", &self.clients)
            .field("refs", &self.trace.len())
            .finish()
    }
}

/// Builds the degradation workload at the given scale.
pub fn workload(scale: Scale) -> Workload {
    Workload {
        trace: synthetic::httpd_multi(scale.multi_refs()),
        clients: 7,
        client_blocks: 1_024,
        server_blocks: 8_192,
    }
}

fn point(
    scheme: &mut dyn MultiLevelPolicy,
    w: &Workload,
    drop: f64,
    name: &str,
) -> DegradationPoint {
    let costs = CostModel::paper_two_level();
    let stats: SimStats = simulate(scheme, &w.trace, w.trace.warmup_len());
    DegradationPoint {
        scheme: name.to_string(),
        drop_rate: drop,
        h1: stats.hit_rates()[0],
        h2: stats.hit_rates()[1],
        avg_time_ms: stats.average_access_time(&costs),
        faults: stats.faults,
    }
}

/// Runs one (scheme × drop rate) cell of the grid on `base` with its drop
/// rate overridden.
pub fn run_cell(w: &Workload, base: &FaultScenario, drop: f64) -> Vec<DegradationPoint> {
    let scenario = base.clone().with_drop(drop);
    let caps = vec![w.client_blocks; w.clients];
    let mut out = Vec::new();

    let mut ind = IndLru::multi_client(caps.clone(), vec![w.server_blocks])
        .with_plane(FaultyPlane::new(scenario.clone()));
    out.push(point(&mut ind, w, drop, "indLRU"));

    let mut uni = UniLru::multi_client(
        caps.clone(),
        vec![w.server_blocks],
        UniLruVariant::MruInsert,
    )
    .with_plane(FaultyPlane::new(scenario.clone()));
    out.push(point(&mut uni, w, drop, "uniLRU"));

    let mut ulc = UlcMulti::new(UlcMultiConfig {
        client_capacities: caps,
        server_capacity: w.server_blocks,
        claim_rule: Default::default(),
    })
    .with_plane(FaultyPlane::new(scenario));
    out.push(point(&mut ulc, w, drop, "ULC"));
    out
}

/// Runs the full degradation grid — every drop rate in parallel.
pub fn run(scale: Scale, base: &FaultScenario) -> Vec<DegradationPoint> {
    let w = workload(scale);
    crate::sweep::par_map(&DROP_RATES, |&drop| run_cell(&w, base, drop))
        .into_iter()
        .flatten()
        .collect()
}

/// Renders the curves: one block per metric, rows = schemes, columns =
/// drop rates.
pub fn render(points: &[DegradationPoint]) -> String {
    let mut s = String::new();
    s.push_str("Degradation: httpd multi-client vs message drop rate\n");
    let mut rates: Vec<f64> = points.iter().map(|p| p.drop_rate).collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    for (metric, get) in [
        (
            "T_ave (ms)",
            (|p: &DegradationPoint| p.avg_time_ms) as fn(&DegradationPoint) -> f64,
        ),
        ("h1", |p| p.h1),
        ("h2", |p| p.h2),
    ] {
        s.push_str(&format!("\n{metric}\n{:>8}", "drop:"));
        for r in &rates {
            s.push_str(&format!("{:>9.3}", 100.0 * r));
        }
        s.push_str("  (%)\n");
        for scheme in ["indLRU", "uniLRU", "ULC"] {
            s.push_str(&format!("{scheme:>8}"));
            for r in &rates {
                let p = points
                    .iter()
                    .find(|p| p.scheme == scheme && p.drop_rate == *r)
                    .expect("complete grid");
                s.push_str(&format!("{:>9.3}", get(p)));
            }
            s.push('\n');
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden regression: the fig7-style ranking survives a mild fault
    /// scenario. Under 1% message loss (plus light duplication and
    /// delay, fixed seed — `FaultScenario::mild`), ULC still beats both
    /// LRU baselines on average access time: the paper's advantage is a
    /// checked artifact of the fault runs, not only of the clean ones.
    #[test]
    fn ulc_advantage_survives_one_percent_loss() {
        let w = workload(Scale::Smoke);
        let points = run_cell(&w, &FaultScenario::mild(1789), 0.01);
        let avg = |scheme: &str| {
            points
                .iter()
                .find(|p| p.scheme == scheme)
                .expect("complete cell")
                .avg_time_ms
        };
        let (ulc, uni, ind) = (avg("ULC"), avg("uniLRU"), avg("indLRU"));
        assert!(
            ulc < uni && ulc < ind,
            "ULC must stay ahead under mild faults: ULC {ulc:.3} vs uniLRU {uni:.3}, indLRU {ind:.3}"
        );
        for p in &points {
            // indLRU sends no asynchronous messages, so its losses land
            // in the RPC tally; the demote-based schemes lose both.
            assert!(
                p.faults.messages_dropped + p.faults.rpc_failures > 0,
                "{}: the scenario must actually drop traffic",
                p.scheme
            );
        }
    }

    /// More loss never helps: each scheme's hit rates are (weakly)
    /// monotone in the drop rate at the sampled extremes.
    #[test]
    fn heavy_loss_degrades_every_scheme() {
        let w = workload(Scale::Smoke);
        let clean = run_cell(&w, &FaultScenario::zero(55), 0.0);
        let lossy = run_cell(&w, &FaultScenario::zero(55), 0.10);
        for scheme in ["indLRU", "uniLRU", "ULC"] {
            let h = |points: &[DegradationPoint]| {
                let p = points.iter().find(|p| p.scheme == scheme).expect("cell");
                p.h1 + p.h2
            };
            assert!(
                h(&lossy) <= h(&clean) + 1e-9,
                "{scheme}: aggregate hits rose under loss"
            );
        }
    }

    #[test]
    fn grid_is_complete_and_renderable() {
        let w = Workload {
            trace: synthetic::httpd_multi(20_000),
            clients: 7,
            client_blocks: 256,
            server_blocks: 2_048,
        };
        let points: Vec<DegradationPoint> =
            crate::sweep::par_map(&[0.0, 0.05], |&d| run_cell(&w, &FaultScenario::zero(3), d))
                .into_iter()
                .flatten()
                .collect();
        assert_eq!(points.len(), 2 * 3);
        let text = render(&points);
        for s in ["T_ave", "h1", "h2", "ULC", "uniLRU", "indLRU"] {
            assert!(text.contains(s), "missing {s}");
        }
    }
}
