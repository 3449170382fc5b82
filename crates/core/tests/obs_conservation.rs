//! Conservation suite for the observability plane (DESIGN.md §5h).
//!
//! Every protocol is run with a live recorder attached from the very
//! first reference (warm-up 0) and its event/metric ledger reconciled
//! exactly against the run's [`SimStats`]: accesses == references,
//! hits + misses == accesses per level, demotions recorded == demotions
//! surfaced ± buffered. For the default-config exclusive `UlcSingle`
//! the event log alone must additionally replay to a consistent
//! single-residency placement ([`ulc_obs::check::replay_residency`]).
//!
//! Every run also carries a windowed [`ulc_obs::TimelineSampler`]
//! (DESIGN.md §5j) and gates the per-window conservation law: the sum
//! of all timeline windows must reproduce the final registry *exactly*
//! ([`ulc_obs::check::windows_reconcile`]) — per protocol, including
//! the crashy `FaultyPlane` leg.
#![cfg(feature = "obs")]

use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::plane::{FaultScenario, FaultyPlane};
use ulc_hierarchy::{
    simulate, DemotionBuffer, EvictionBased, IndLru, LruMqServer, MultiLevelPolicy, SimStats,
    UniLru, UniLruVariant,
};
use ulc_obs::{check, Observe};
use ulc_trace::patterns::{LoopingPattern, Pattern};
use ulc_trace::Trace;

mod common;

/// Ring big enough that the smoke-scale streams never wrap, so the
/// event-tally and residency-replay legs of the kit always engage.
const BIG_RING: usize = 1 << 20;

/// Timeline window length (ticks per window) for the per-window gate.
/// Deliberately not a divisor of the trace lengths, so the last window
/// is partial and the sum check covers ragged tails.
const WINDOW: u64 = 509;

/// Enables a truncation-free timeline sized for `trace` on an
/// already-enabled handle.
fn attach_timeline<P: MultiLevelPolicy + Observe>(policy: &mut P, trace: &Trace) {
    let capacity = (trace.len() as u64 / WINDOW + 1) as usize;
    policy.obs_mut().enable_timeline(WINDOW, capacity);
}

fn view(stats: &SimStats) -> check::StatsView<'_> {
    check::StatsView {
        references: stats.references,
        hits_by_level: &stats.hits_by_level,
        misses: stats.misses,
        demotions_by_boundary: &stats.demotions_by_boundary,
    }
}

/// Runs `policy` over `trace` with recording on from the first reference
/// and reconciles the ledger, returning the policy and stats for any
/// extra per-protocol checks.
fn reconciled<P: MultiLevelPolicy + Observe>(
    name: &str,
    mut policy: P,
    trace: &Trace,
) -> (P, SimStats) {
    let levels = policy.num_levels();
    policy.obs_mut().enable(levels, BIG_RING);
    attach_timeline(&mut policy, trace);
    let stats = simulate(&mut policy, trace, 0);
    policy
        .obs_mut()
        .add_plane_faults(stats.faults.transport_faults());
    policy.obs_mut().finish();
    let rec = policy
        .obs()
        .recorder()
        .expect("obs feature attaches a recorder");
    if let Err(e) = check::reconcile(rec, &view(&stats)) {
        panic!("{name}: conservation failed: {e}");
    }
    if let Err(e) = check::windows_reconcile(rec) {
        panic!("{name}: per-window conservation failed: {e}");
    }
    let timeline = rec.timeline().expect("timeline attached");
    assert!(
        !timeline.truncated(),
        "{name}: timeline sized for the whole run"
    );
    (policy, stats)
}

#[test]
fn ulc_single_reconciles_and_replays_single_residency() {
    // The headline loop-100k cell of the acceptance criteria, plus the
    // event-log-only residency replay the exclusive protocol permits.
    let trace = LoopingPattern::new(100_000).generate(150_000);
    let (policy, stats) = reconciled(
        "ULC/loop-100k",
        UlcSingle::new(UlcConfig::new(vec![40_000, 80_000])),
        &trace,
    );
    assert_eq!(stats.references, 150_000);
    let rec = policy.obs().recorder().expect("recorder");
    assert_eq!(rec.log().dropped(), 0, "stream must be complete for replay");
    let replay = check::replay_residency(rec.log(), policy.num_levels())
        .unwrap_or_else(|e| panic!("ULC/loop-100k: residency replay failed: {e}"));
    assert_eq!(
        replay,
        check::ResidencyReplay::Verified,
        "complete stream must verify"
    );
}

#[test]
fn truncated_ring_reports_replay_skipped_not_failed() {
    // Same cell, but with a ring two orders of magnitude too small: the
    // stream wraps and the replay must report the truncation distinctly
    // instead of flagging the surviving suffix as contradictory.
    let trace = LoopingPattern::new(100_000).generate(150_000);
    let mut policy = UlcSingle::new(UlcConfig::new(vec![40_000, 80_000]));
    let levels = policy.num_levels();
    policy.obs_mut().enable(levels, 1 << 10);
    let _ = simulate(&mut policy, &trace, 0);
    policy.obs_mut().finish();
    let rec = policy.obs().recorder().expect("recorder");
    let dropped = rec.log().dropped();
    assert!(dropped > 0, "the small ring must wrap on this stream");
    assert_eq!(
        check::replay_residency(rec.log(), levels),
        Ok(check::ResidencyReplay::SkippedTruncated { dropped }),
    );
}

#[test]
fn ulc_single_reconciles_on_every_workload() {
    for (name, trace) in common::single_client_workloads() {
        reconciled(
            &format!("ULC-single/{name}"),
            UlcSingle::new(UlcConfig::new(vec![400, 400, 400])),
            &trace,
        );
    }
}

#[test]
fn uni_lru_variants_reconcile_on_every_workload() {
    for (name, trace) in common::single_client_workloads() {
        for variant in [
            UniLruVariant::MruInsert,
            UniLruVariant::LruInsert,
            UniLruVariant::Adaptive,
        ] {
            reconciled(
                &format!("uniLRU/{variant:?}/{name}"),
                UniLru::multi_client(vec![400], vec![400, 400], variant),
                &trace,
            );
        }
    }
}

#[test]
fn ind_lru_reconciles_on_every_workload() {
    for (name, trace) in common::single_client_workloads() {
        reconciled(
            &format!("indLRU/{name}"),
            IndLru::single_client(vec![400, 400, 400]),
            &trace,
        );
    }
}

#[test]
fn eviction_based_reconciles_on_every_workload() {
    for (name, trace) in common::single_client_workloads() {
        for latency in [0u64, 7] {
            reconciled(
                &format!("evict-reload/{latency}/{name}"),
                EvictionBased::new(vec![400], 800, latency),
                &trace,
            );
        }
    }
}

#[test]
fn mq_server_reconciles_on_every_workload() {
    for (name, trace) in common::single_client_workloads() {
        reconciled(
            &format!("LRU+MQ/{name}"),
            LruMqServer::new(vec![400], 800),
            &trace,
        );
    }
}

#[test]
fn demotion_buffer_ledger_balances_events_against_surfaced_stats() {
    for (name, trace) in common::single_client_workloads() {
        let (policy, stats) = reconciled(
            &format!("buffered/{name}"),
            DemotionBuffer::new(UniLru::single_client(vec![400, 400]), 16, 0.2),
            &trace,
        );
        // The ledger must actually have been exercised: events recorded
        // at the boundary exceed the surfaced stats by the buffered count.
        let m = policy.obs().recorder().expect("recorder").metrics();
        let row = m.level(0);
        assert_eq!(
            row.demotions,
            stats.demotions_by_boundary[0] + row.buffered,
            "buffered/{name}: ledger out of balance"
        );
    }
}

#[test]
fn ulc_multi_reconciles_on_every_workload() {
    for (name, trace, clients) in common::multi_client_workloads() {
        reconciled(
            &format!("ULC/{name}"),
            UlcMulti::new(UlcMultiConfig::uniform(clients, 256, 2048)),
            &trace,
        );
    }
}

#[test]
fn faulty_plane_run_reconciles_and_reports_transport_faults() {
    // Under an actively faulty plane the counters must still balance,
    // and the run's transport faults feed the plane_faults counter via
    // `FaultSummary::transport_faults`.
    let trace = ulc_trace::synthetic::httpd_multi(30_000);
    let mut policy = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048))
        .with_plane(FaultyPlane::new(common::crashy_mild_scenario()));
    let levels = policy.num_levels();
    policy.obs_mut().enable(levels, BIG_RING);
    attach_timeline(&mut policy, &trace);
    let stats = simulate(&mut policy, &trace, 0);
    let obs = policy.obs_mut();
    obs.add_plane_faults(stats.faults.transport_faults());
    obs.finish();
    let rec = policy.obs().recorder().expect("recorder");
    check::reconcile(rec, &view(&stats))
        .unwrap_or_else(|e| panic!("ULC/faulty/httpd: conservation failed: {e}"));
    check::windows_reconcile(rec)
        .unwrap_or_else(|e| panic!("ULC/faulty/httpd: per-window conservation failed: {e}"));
    assert!(
        rec.metrics().counter(ulc_obs::CounterId::PlaneFaults) > 0,
        "the mild+crash scenario must surface transport faults"
    );
    assert!(
        rec.metrics().counter(ulc_obs::CounterId::Faults) > 0,
        "the protocol must observe faults under the crashy scenario"
    );
    // The protocol-observed Fault events are kept apart from the
    // transport tally: zero-fault runs record PlaneFaults == 0.
    let zero = FaultScenario::zero(11);
    let mut clean =
        UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048)).with_plane(FaultyPlane::new(zero));
    let levels = clean.num_levels();
    clean.obs_mut().enable(levels, BIG_RING);
    let stats = simulate(&mut clean, &trace, 0);
    let obs = clean.obs_mut();
    obs.add_plane_faults(stats.faults.transport_faults());
    obs.finish();
    let rec = clean.obs().recorder().expect("recorder");
    assert_eq!(rec.metrics().counter(ulc_obs::CounterId::PlaneFaults), 0);
}
