//! Direct unit-level check of the zero-allocation steady-state contract
//! (DESIGN.md §5f). This target installs a counting global allocator
//! ([`counting`]), so plain `cargo test` runs it:
//!
//! ```text
//! cargo test -p ulc-bench --test alloc_gate
//! ```
//!
//! Each engine is warmed until every pooled buffer's high-water mark has
//! settled, then driven for a measured phase between [`reset`] and
//! [`allocs`] — which must count **zero** allocations on this thread.
//! Every cell of the golden `SimStats` grid is held to it, from the one
//! catalog `crates/core/tests/golden_stats.rs` replays, and so are the
//! benchmark-sized cells of [`ulc_bench::cells`], serial and sharded.

#[path = "../../core/tests/common/mod.rs"]
mod common;
#[path = "alloc_gate/counting.rs"]
mod counting;

use counting::{allocs, reset};
use ulc_bench::cells;
use ulc_bench::flight::FLIGHT_RING_CAPACITY;
use ulc_core::{ShardedReplayer, UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::{
    AccessOutcome, EvictionBased, MultiLevelPolicy, SimStats, UniLru, UniLruVariant,
};
use ulc_obs::Observe;
use ulc_trace::patterns::{LoopingPattern, Pattern};
use ulc_trace::{synthetic, Trace};

/// Trace sizes of the benchmark-sized cells.
const CELL_REFS: [usize; 2] = [120_000, 240_000];

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
    let n = allocs();
    std::hint::black_box(&out);
    n
}

/// One pass over `trace` with a recorder attached (a no-op unless the
/// `obs` feature compiled one in): the first nine tenths warm every
/// table to its high-water mark, and the allocations of the last tenth
/// are returned. Attaching allocates once, before the counter is reset.
fn single_pass_tail_allocs<P: MultiLevelPolicy + Observe>(mut policy: P, trace: &Trace) -> u64 {
    let levels = policy.num_levels();
    policy.obs_mut().enable(levels, FLIGHT_RING_CAPACITY);
    let mut out = AccessOutcome::miss(levels.saturating_sub(1));
    let split = trace.len() * 9 / 10;
    for r in trace.iter().take(split) {
        policy.access_into(r.client, r.block, &mut out);
    }
    reset();
    for r in trace.iter().skip(split) {
        policy.access_into(r.client, r.block, &mut out);
    }
    let n = allocs();
    std::hint::black_box(&out);
    n
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

/// The benchmark-sized serial cells — ULC, uniLRU and evict-reload on
/// loop-100k, ULC and uniLRU on zipf-small, ULC-multi on httpd-multi and
/// db2-multi — replay the last tenth of a single pass allocation-free,
/// with a recorder attached when `obs` is on.
#[test]
fn benchmark_cells_settle_allocation_free_in_one_pass() {
    let mut failures = Vec::new();
    let mut check = |name: &str, refs: usize, n: u64| {
        if n > 0 {
            failures.push(format!("{name}/{refs}: {n}"));
        }
    };
    for refs in CELL_REFS {
        let looping = cells::loop_100k(refs);
        check(
            "ULC/loop-100k",
            refs,
            single_pass_tail_allocs(cells::ulc_loop(), &looping),
        );
        check(
            "uniLRU/loop-100k",
            refs,
            single_pass_tail_allocs(cells::unilru_loop(), &looping),
        );
        check(
            "evict-reload/loop-100k",
            refs,
            single_pass_tail_allocs(cells::evict_reload_loop(), &looping),
        );
        let zipf = synthetic::zipf_small(refs);
        check(
            "ULC/zipf-small",
            refs,
            single_pass_tail_allocs(cells::ulc_zipf(), &zipf),
        );
        check(
            "uniLRU/zipf-small",
            refs,
            single_pass_tail_allocs(cells::unilru_zipf(), &zipf),
        );
        let httpd = synthetic::httpd_multi(refs);
        check(
            "ULC-multi/httpd-multi",
            refs,
            single_pass_tail_allocs(cells::ulc_multi_httpd(), &httpd),
        );
        let db2 = cells::db2_multi(refs);
        check(
            "ULC-multi/db2-multi",
            refs,
            single_pass_tail_allocs(cells::ulc_multi_db2(), &db2),
        );
    }
    assert!(
        failures.is_empty(),
        "steady-state allocations: {failures:?}"
    );
}

/// The sharded executor's steady phase must be allocation-free on the
/// orchestrating thread (the one the counting allocator observes): run
/// buffers are reserved to the epoch length up front, workers only
/// advance pre-reserved stacks, and the commit walk reuses the pooled
/// scratch. Both multi-client benchmark cells, at 2 and 8 shards: the
/// first nine tenths fill every high-water mark, and the last tenth
/// replays through a second `replay_range` call.
#[test]
fn sharded_replay_steady_phase_does_not_allocate() {
    let mut failures = Vec::new();
    for refs in CELL_REFS {
        let httpd = synthetic::httpd_multi(refs);
        let db2 = cells::db2_multi(refs);
        for shards in [2, 8] {
            for (name, trace, policy) in [
                ("httpd-multi", &httpd, cells::ulc_multi_httpd()),
                ("db2-multi", &db2, cells::ulc_multi_db2()),
            ] {
                let n = sharded_tail_allocs(policy, trace, shards);
                if n > 0 {
                    failures.push(format!("{name}/{refs}@{shards}: {n}"));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "sharded steady-phase allocations: {failures:?}"
    );
}

/// [`single_pass_tail_allocs`] for the sharded executor at `shards`
/// shards, without a recorder: the first nine tenths and the last tenth
/// replay through two `replay_range` calls.
fn sharded_tail_allocs(mut policy: UlcMulti, trace: &Trace, shards: usize) -> u64 {
    let mut replayer = ShardedReplayer::new(trace, shards);
    let mut stats = SimStats::new(policy.num_levels());
    let warmup = trace.warmup_len();
    let split = trace.len() * 9 / 10;
    replayer.replay_range(&mut policy, trace, 0, split, warmup, &mut stats);
    reset();
    replayer.replay_range(&mut policy, trace, split, trace.len(), warmup, &mut stats);
    let n = allocs();
    std::hint::black_box(&stats);
    n
}

/// The §5f contract must hold with a live observability recorder
/// attached (DESIGN.md §5h, §5j): the ring is pre-allocated, the
/// registry is index arithmetic, and the windowed timeline is a
/// fixed-capacity array of registries whose current window is mirrored
/// by the same index arithmetic — so recording every event, span cost
/// and window sample adds zero steady-state allocations. Attaching the
/// recorder and timeline allocates once, before the measured phase.
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

/// The counter sees this thread's allocations, so a zero reading above
/// means none happened rather than none were counted.
#[test]
fn counter_sees_vec_growth() {
    reset();
    let before = allocs();
    let v: Vec<u64> = (0..1000).collect();
    assert_eq!(v.len(), 1000);
    assert!(allocs() > before, "Vec growth must be counted");
}
