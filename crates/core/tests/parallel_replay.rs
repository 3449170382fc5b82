//! Differential oracle for the sharded replay executor (DESIGN.md §5i).
//!
//! The contract under test: [`ulc_core::parallel::simulate_sharded`] is
//! **bit-identical** to the serial driver [`ulc_hierarchy::simulate`] —
//! same [`SimStats`] down to the last mantissa bit of the derived rates
//! — at every shard count, every epoch length, both claim rules, and on
//! a zero-fault `FaultyPlane` (whose delivery machinery differs from the
//! reliable plane's). Actively faulty planes and policies with a
//! recorder attached must take the serial fallback and stay exact by
//! construction.

mod common;

use common::{assert_stats_bit_identical, crashy_mild_scenario, multi_client_workloads};
use proptest::prelude::*;
use ulc_core::parallel::{simulate_sharded, ShardedReplayer};
use ulc_core::{ClaimRule, UlcMulti, UlcMultiConfig};
use ulc_hierarchy::plane::{FaultScenario, FaultyPlane};
use ulc_hierarchy::{simulate, MessagePlane, MultiLevelPolicy, SimStats};
use ulc_trace::multi::interleave;
use ulc_trace::patterns::{LoopingPattern, Pattern};
use ulc_trace::Trace;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn config_for(clients: usize) -> UlcMultiConfig {
    UlcMultiConfig::uniform(clients, 256, 2048)
}

/// Serial reference stats for `trace` under `config`.
fn serial_stats(config: &UlcMultiConfig, trace: &Trace) -> SimStats {
    let mut policy = UlcMulti::new(config.clone());
    simulate(&mut policy, trace, trace.warmup_len())
}

#[test]
fn sharded_matches_serial_on_every_multi_client_workload() {
    for (name, trace, clients) in multi_client_workloads() {
        let config = config_for(clients);
        let expect = serial_stats(&config, &trace);
        for shards in SHARD_COUNTS {
            let mut policy = UlcMulti::new(config.clone());
            let got = simulate_sharded(&mut policy, &trace, trace.warmup_len(), shards);
            assert_stats_bit_identical(&format!("{name}@{shards}"), &expect, &got);
        }
    }
}

#[test]
fn sharded_matches_serial_under_paper_strict_claims() {
    // PaperStrict is the delicate leg: every delivered access writes the
    // server-fullness hint into the client stack, and the executor's
    // consumed accesses skip that write. The write is dead for a private
    // hit (a resident block never consults it), which this leg proves.
    let (name, trace, clients) = &multi_client_workloads()[0];
    let mut config = config_for(*clients);
    config.claim_rule = ClaimRule::PaperStrict;
    let expect = serial_stats(&config, trace);
    for shards in SHARD_COUNTS {
        let mut policy = UlcMulti::new(config.clone());
        let got = simulate_sharded(&mut policy, trace, trace.warmup_len(), shards);
        assert_stats_bit_identical(&format!("{name}/strict@{shards}"), &expect, &got);
    }
}

#[test]
fn sharded_matches_serial_on_zero_fault_faulty_plane() {
    // A zero-fault FaultyPlane is not lossy, so the executor takes the
    // parallel path over the plane's due-time delivery machinery.
    let (name, trace, clients) = &multi_client_workloads()[0];
    let config = config_for(*clients);
    let mut serial =
        UlcMulti::new(config.clone()).with_plane(FaultyPlane::new(FaultScenario::zero(41)));
    assert!(
        !serial.plane().lossy(),
        "zero-fault plane must not be lossy"
    );
    let expect = simulate(&mut serial, trace, trace.warmup_len());
    for shards in [2, 8] {
        let mut policy =
            UlcMulti::new(config.clone()).with_plane(FaultyPlane::new(FaultScenario::zero(41)));
        let got = simulate_sharded(&mut policy, trace, trace.warmup_len(), shards);
        assert_stats_bit_identical(&format!("{name}/faulty-zero@{shards}"), &expect, &got);
    }
}

#[test]
fn crashy_plane_takes_the_serial_fallback_and_stays_exact() {
    let (name, trace, clients) = &multi_client_workloads()[0];
    let config = config_for(*clients);
    let scenario = crashy_mild_scenario();
    let mut serial = UlcMulti::new(config.clone()).with_plane(FaultyPlane::new(scenario.clone()));
    assert!(
        serial.plane().lossy(),
        "the crashy scenario must trip the fallback predicate"
    );
    let expect = simulate(&mut serial, trace, trace.warmup_len());
    for shards in [2, 8] {
        let mut policy =
            UlcMulti::new(config.clone()).with_plane(FaultyPlane::new(scenario.clone()));
        let got = simulate_sharded(&mut policy, trace, trace.warmup_len(), shards);
        assert_stats_bit_identical(&format!("{name}/crashy@{shards}"), &expect, &got);
    }
}

#[test]
fn epoch_boundaries_are_semantics_free() {
    let (name, trace, clients) = &multi_client_workloads()[0];
    let mut trace = trace.clone();
    trace.truncate(6_000);
    let config = config_for(*clients);
    let expect = serial_stats(&config, &trace);
    for epoch_len in [1, 37, 257, 100_000] {
        let mut policy = UlcMulti::new(config.clone());
        let mut replayer = ShardedReplayer::new(&trace, 2).with_epoch_len(epoch_len);
        let got = replayer.replay(&mut policy, &trace, trace.warmup_len());
        assert_stats_bit_identical(&format!("{name}/epoch={epoch_len}"), &expect, &got);
    }
}

#[test]
fn replay_ranges_compose_to_one_full_replay() {
    // The alloc gate splits a run into a warm phase and an
    // allocation-gated steady phase via replay_range; the split point
    // must be invisible.
    let (name, trace, clients) = &multi_client_workloads()[0];
    let config = config_for(*clients);
    let expect = serial_stats(&config, trace);
    let warmup = trace.warmup_len();
    for split in [1, warmup, trace.len() / 2, trace.len() - 1] {
        let mut policy = UlcMulti::new(config.clone());
        let mut replayer = ShardedReplayer::new(trace, 2);
        let mut stats = SimStats::new(2);
        replayer.replay_range(&mut policy, trace, 0, split, warmup, &mut stats);
        replayer.replay_range(&mut policy, trace, split, trace.len(), warmup, &mut stats);
        stats.faults = policy.fault_summary();
        assert_stats_bit_identical(&format!("{name}/split={split}"), &expect, &stats);
    }
}

#[cfg(feature = "obs")]
#[test]
fn observed_run_takes_the_serial_fallback_and_records_what_simulate_records() {
    use ulc_obs::Observe;

    let (name, trace, clients) = &multi_client_workloads()[0];
    let config = config_for(*clients);
    let ring = 1 << 16;

    let mut serial = UlcMulti::new(config.clone());
    serial.obs_mut().enable(2, ring);
    let expect = simulate(&mut serial, trace, trace.warmup_len());
    serial.obs_mut().finish();
    let expect_metrics = serial.obs().recorder().expect("recorder").metrics().clone();

    for shards in [2, 8] {
        let mut policy = UlcMulti::new(config.clone());
        policy.obs_mut().enable(2, ring);
        let got = simulate_sharded(&mut policy, trace, trace.warmup_len(), shards);
        policy.obs_mut().finish();
        let got_metrics = policy.obs().recorder().expect("recorder").metrics().clone();
        assert_stats_bit_identical(&format!("{name}/obs@{shards}"), &expect, &got);
        assert_eq!(
            expect_metrics, got_metrics,
            "{name}@{shards}: recorded metrics diverged"
        );
    }
}

#[cfg(feature = "obs")]
#[test]
#[should_panic(expected = "sharded replay cannot record")]
fn replay_range_rejects_a_policy_with_a_recorder() {
    use ulc_obs::Observe;

    let (_, trace, clients) = &multi_client_workloads()[0];
    let mut policy = UlcMulti::new(config_for(*clients));
    policy.obs_mut().enable(2, 1 << 10);
    let mut replayer = ShardedReplayer::new(trace, 2);
    let mut stats = SimStats::new(2);
    replayer.replay_range(&mut policy, trace, 0, trace.len(), 0, &mut stats);
}

/// Builds a multi-client trace whose clients' block ranges partially
/// overlap, so the plan sees a mix of exclusive and shared references.
fn overlapping_trace(clients: usize, loop_size: u64, len: usize, seed: u64) -> Trace {
    let patterns: Vec<Box<dyn Pattern>> = (0..clients)
        .map(|c| {
            // Adjacent clients share half their range.
            let base = c as u64 * (loop_size / 2);
            Box::new(LoopingPattern::new(loop_size).with_base(base)) as Box<dyn Pattern>
        })
        .collect();
    interleave(patterns, None, len, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shard-count invariance: any shard count produces the serial stats
    /// on randomly interleaved, partially-overlapping workloads.
    #[test]
    fn prop_shard_count_invariance(
        clients in 2usize..6,
        loop_size in 64u64..512,
        seed in 0u64..1_000,
        shards in 2usize..9,
    ) {
        let trace = overlapping_trace(clients, loop_size, 6_000, seed);
        let config = UlcMultiConfig::uniform(clients, 64, 512);
        let expect = serial_stats(&config, &trace);
        let mut policy = UlcMulti::new(config);
        let got = simulate_sharded(&mut policy, &trace, trace.warmup_len(), shards);
        prop_assert_eq!(&expect, &got);
        prop_assert_eq!(
            expect.total_hit_rate().to_bits(),
            got.total_hit_rate().to_bits()
        );
    }
}
