//! Direct unit-level check of the zero-allocation steady-state contract
//! (DESIGN.md §5f), compiled only with the `alloc_stats` feature so the
//! counting global allocator is installed:
//!
//! ```text
//! cargo test -p ulc-bench --features alloc_stats --test alloc_gate
//! ```
//!
//! Each engine is warmed until every pooled buffer's high-water mark has
//! settled, then driven for a measured phase between [`reset`] and
//! [`snapshot`] — which must count **zero** allocations on this thread.
//! Every cell of the golden `SimStats` grid is held to it, from the one
//! catalog `crates/core/tests/golden_stats.rs` replays.

#![cfg(feature = "alloc_stats")]

#[path = "../../core/tests/common/mod.rs"]
mod common;

use ulc_bench::alloc_stats::{reset, snapshot};
use ulc_core::{ShardedReplayer, UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::{
    AccessOutcome, EvictionBased, MultiLevelPolicy, SimStats, UniLru, UniLruVariant,
};
#[cfg(feature = "obs")]
use ulc_obs::Observe;
use ulc_trace::patterns::{LoopingPattern, Pattern};
use ulc_trace::{synthetic, Trace};

/// Warms `policy` over the whole trace once, then replays the last tenth
/// with counters armed and returns the allocation count.
fn steady_allocs<P: MultiLevelPolicy>(mut policy: P, trace: &Trace) -> u64 {
    let mut out = AccessOutcome::miss(policy.num_levels().saturating_sub(1));
    for r in trace.iter() {
        policy.access_into(r.client, r.block, &mut out);
    }
    let tail = trace.len() - trace.len() / 10;
    reset();
    for r in trace.iter().skip(tail) {
        policy.access_into(r.client, r.block, &mut out);
    }
    let snap = snapshot();
    std::hint::black_box(&out);
    snap.allocs
}

/// Collects the golden-grid cells whose steady tail allocated.
struct SteadyAllocs(Vec<String>);

impl common::grid::Cells for SteadyAllocs {
    fn cell<P: MultiLevelPolicy>(&mut self, name: &str, trace: &Trace, make: impl Fn() -> P) {
        let allocs = steady_allocs(make(), trace);
        if allocs > 0 {
            self.0.push(format!("{name}: {allocs}"));
        }
    }
}

/// Every engine × configuration × workload of the golden grid, the
/// crashy `FaultyPlane` legs (drops, duplicates, delays, NACK
/// reconciliation) included, replays its last tenth allocation-free.
#[test]
fn every_golden_cell_settles_allocation_free() {
    let mut gate = SteadyAllocs(Vec::new());
    common::grid::visit(&mut gate);
    assert!(
        gate.0.is_empty(),
        "steady-state allocations per cell: {:?}",
        gate.0
    );
}

#[test]
fn settled_engines_do_not_allocate_per_access() {
    let trace = LoopingPattern::new(900).generate(60_000);
    let ulc = UlcSingle::new(UlcConfig::new(vec![400, 400, 400]));
    assert_eq!(steady_allocs(ulc, &trace), 0, "ULC steady state allocated");

    let uni = UniLru::multi_client(vec![400], vec![400, 400], UniLruVariant::MruInsert);
    assert_eq!(
        steady_allocs(uni, &trace),
        0,
        "uniLRU steady state allocated"
    );

    // Eight disjoint clients, each with its own dense level table.
    let db2 = synthetic::db2_multi(40_000, 16_000);
    let uni = UniLru::multi_client(vec![256; 8], vec![2048], UniLruVariant::MruInsert);
    assert_eq!(
        steady_allocs(uni, &db2),
        0,
        "multi-client uniLRU steady state allocated"
    );

    let evict = EvictionBased::new(vec![400], 800, 7);
    assert_eq!(
        steady_allocs(evict, &trace),
        0,
        "evict-reload steady state allocated"
    );
}

/// The multi-client engine is held to the same §5f bar: once the server
/// gLRU, the per-client stacks, and the message plane have settled, a
/// steady-state access must not touch the allocator.
#[test]
fn settled_multi_client_engine_does_not_allocate_per_access() {
    let trace = synthetic::httpd_multi(40_000);
    let ulc = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048));
    assert_eq!(
        steady_allocs(ulc, &trace),
        0,
        "ULC-multi steady state allocated"
    );
}

/// The sharded executor's steady phase must be allocation-free on the
/// orchestrating thread (the one the counting allocator observes): run
/// buffers are reserved to the epoch length up front, workers only
/// advance pre-reserved stacks, and the commit walk reuses the pooled
/// scratch. The warm phase fills every high-water mark; the measured
/// tail then replays through the same `replay_range` split the
/// throughput harness uses.
#[test]
fn sharded_replay_steady_phase_does_not_allocate() {
    let trace = synthetic::httpd_multi(40_000);
    let mut policy = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048));
    let mut replayer = ShardedReplayer::new(&trace, 2);
    let mut stats = SimStats::new(2);
    let warmup = trace.warmup_len();
    let split = trace.len() - trace.len() / 10;
    replayer.replay_range(&mut policy, &trace, 0, split, warmup, &mut stats);
    reset();
    replayer.replay_range(&mut policy, &trace, split, trace.len(), warmup, &mut stats);
    let snap = snapshot();
    std::hint::black_box(&stats);
    assert_eq!(snap.allocs, 0, "sharded steady phase allocated");
}

/// The §5f contract must hold with a live observability recorder
/// attached (DESIGN.md §5h, §5j): the ring is pre-allocated, the
/// registry is index arithmetic, and the windowed timeline is a
/// fixed-capacity array of registries whose current window is mirrored
/// by the same index arithmetic — so recording every event, span cost
/// and window sample adds zero steady-state allocations. Attaching the
/// recorder and timeline allocates once, before the measured phase.
/// (No BENCH_baseline.json re-record is needed for any of this: the
/// recorder only exists behind the `obs` feature and the baseline-gated
/// sweep builds with `alloc_stats` alone.)
#[cfg(feature = "obs")]
#[test]
fn settled_engines_do_not_allocate_per_access_while_recording() {
    fn with_recorder<P: MultiLevelPolicy + Observe>(mut policy: P) -> P {
        let levels = policy.num_levels();
        policy.obs_mut().enable(levels, 1 << 12);
        // 64 windows of 1k ticks comfortably cover both traces; span
        // costs flush into the current window at every span_end.
        policy.obs_mut().enable_timeline(1_000, 64);
        policy
    }

    let trace = LoopingPattern::new(900).generate(60_000);
    let ulc = with_recorder(UlcSingle::new(UlcConfig::new(vec![400, 400, 400])));
    assert_eq!(
        steady_allocs(ulc, &trace),
        0,
        "ULC allocated while recording"
    );

    let uni = with_recorder(UniLru::multi_client(
        vec![400],
        vec![400, 400],
        UniLruVariant::MruInsert,
    ));
    assert_eq!(
        steady_allocs(uni, &trace),
        0,
        "uniLRU allocated while recording"
    );

    let db2 = synthetic::db2_multi(40_000, 16_000);
    let uni = with_recorder(UniLru::multi_client(
        vec![256; 8],
        vec![2048],
        UniLruVariant::MruInsert,
    ));
    assert_eq!(
        steady_allocs(uni, &db2),
        0,
        "multi-client uniLRU allocated while recording"
    );

    let evict = with_recorder(EvictionBased::new(vec![400], 800, 7));
    assert_eq!(
        steady_allocs(evict, &trace),
        0,
        "evict-reload allocated while recording"
    );

    let multi_trace = synthetic::httpd_multi(40_000);
    let multi = with_recorder(UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048)));
    assert_eq!(
        steady_allocs(multi, &multi_trace),
        0,
        "ULC-multi allocated while recording"
    );
}
