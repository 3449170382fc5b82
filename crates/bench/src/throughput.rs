//! E9: simulation-engine throughput — accesses/sec of every engine.
//!
//! Every cell times `simulate` of one protocol over one trace
//! (best-of-N) and, for the multi-client engine, the sharded executor at
//! 2 and 8 shards. A row's `speedup` is its rate over the
//! same run's live serial rate of that cell: `1.0` on serial rows, the
//! parallel scaling factor on sharded ones.
//!
//! The `sweep` binary writes the report to `BENCH_sim.json` via
//! `--bench-json=` and gates regressions against a checked-in baseline
//! via `--bench-baseline=` (see [`check_against_baseline`]).
//!
//! With the `alloc_stats` feature the harness additionally profiles heap
//! allocations per access, split into a warmup
//! phase (the first 90 % of the trace, where tables grow to their
//! high-water marks) and a steady-state phase (the last 10 %, which the
//! §5f zero-allocation contract requires to be allocation-free); see
//! [`check_alloc_gate`].

use crate::flight::FLIGHT_RING_CAPACITY;
use crate::{alloc_stats, cells, row, Scale};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use ulc_core::parallel::ShardedReplayer;
use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::{simulate, AccessOutcome, MultiLevelPolicy, SimStats, UniLru};
use ulc_obs::Observe;
use ulc_trace::{synthetic, Trace};

/// Shard counts the sharded ULC-multi cells are measured at (E11's
/// scaling curve); the checked-in baseline carries rows for each.
const THREAD_COUNTS: [usize; 2] = [2, 8];

/// One protocol × workload × trace-size measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Protocol name as used in the figures ("ULC", "uniLRU", …).
    pub protocol: String,
    /// Workload name ("loop-100k", "zipf-small", "httpd-multi").
    pub workload: String,
    /// References simulated (per run).
    pub refs: usize,
    /// Worker threads driving the replay: `1` is the serial driver;
    /// `> 1` is the sharded executor (`ulc_core::parallel`,
    /// DESIGN.md §5i), which is bit-identical to serial by contract.
    pub threads: usize,
    /// Accesses per second of the engine.
    pub interned_aps: f64,
    /// `interned_aps` over the same run's serial rate of this cell:
    /// `1.0` on serial rows, the parallel scaling factor on sharded ones.
    pub speedup: f64,
    /// Heap allocations per access during the warmup phase (first 90 %
    /// of the trace). Zero when the report was generated without the
    /// `alloc_stats` feature.
    pub warmup_allocs_per_access: f64,
    /// Heap allocations per access during the steady-state phase (last
    /// 10 % of the trace). The §5f contract requires exactly zero for the
    /// pooled ReliablePlane engines.
    pub steady_allocs_per_access: f64,
}

/// The full throughput report, serialised to `BENCH_sim.json`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Scale label the report was generated at ("smoke", "default",
    /// "full") — baseline comparisons only make sense within one scale.
    pub scale: String,
    /// One row per protocol × workload × trace size.
    pub rows: Vec<ThroughputRow>,
}

/// Trace sizes measured per workload. Several sizes per scale so the
/// report shows how the advantage behaves as tables grow.
fn trace_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![120_000, 240_000],
        Scale::Default => vec![240_000, 600_000],
        Scale::Full => vec![600_000, 2_000_000],
    }
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Default => "default",
        Scale::Full => "full",
    }
}

/// Times one full `simulate` run and returns accesses per second.
fn accesses_per_sec<P: MultiLevelPolicy>(mut policy: P, trace: &Trace) -> f64 {
    // lint:allow(determinism) wall-clock timing of the harness itself; never feeds simulator results
    let start = Instant::now();
    let stats = simulate(&mut policy, trace, trace.warmup_len());
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(stats);
    trace.len() as f64 / secs
}

/// Best-of-N timing: repeats the run until roughly a quarter second of
/// simulation time has accumulated (at least twice, at most six times)
/// and keeps the fastest rate. Taking the best absorbs one-off warm-up
/// effects (page faults, allocator growth) and scheduler preemption
/// without averaging noise into the result.
fn best_aps<P: MultiLevelPolicy, F: Fn() -> P>(build: F, trace: &Trace) -> f64 {
    let mut best = 0.0f64;
    let mut spent_secs = 0.0;
    for run in 0..6 {
        let aps = accesses_per_sec(build(), trace);
        best = best.max(aps);
        spent_secs += trace.len() as f64 / aps.max(1e-9);
        if run >= 1 && spent_secs > 0.25 {
            break;
        }
    }
    best
}

/// Profiles heap allocations per access on one engine, split at the 90 %
/// mark into warmup (tables and pools growing to their high-water marks)
/// and steady state (which the §5f contract requires allocation-free for
/// the pooled engines). Returns `(warmup, steady)` allocations/access;
/// `(0, 0)` without the `alloc_stats` feature.
///
/// The driver mirrors [`simulate`]'s pooled loop but phases the counters;
/// it runs on the calling thread, which the thread-local counters isolate
/// from any parallel sweep work.
fn alloc_profile<P: MultiLevelPolicy>(mut policy: P, trace: &Trace) -> (f64, f64) {
    if !alloc_stats::enabled() || trace.is_empty() {
        return (0.0, 0.0);
    }
    let split = trace.len() * 9 / 10;
    let mut outcome = AccessOutcome::miss(policy.num_levels().saturating_sub(1));
    alloc_stats::reset();
    for r in trace.iter().take(split) {
        policy.access_into(r.client, r.block, &mut outcome);
    }
    let warm = alloc_stats::snapshot();
    alloc_stats::reset();
    for r in trace.iter().skip(split) {
        policy.access_into(r.client, r.block, &mut outcome);
    }
    let steady = alloc_stats::snapshot();
    std::hint::black_box(&outcome);
    (
        warm.allocs as f64 / split.max(1) as f64,
        steady.allocs as f64 / (trace.len() - split).max(1) as f64,
    )
}

/// Best-of-N timing of the sharded executor. The replayer (its trace
/// plan and worker pool) is built once and reused across repetitions —
/// the plan is a pure function of the trace, reusable across runs like
/// the interned trace itself — while the protocol state is rebuilt per
/// repetition.
fn best_sharded_aps<F: Fn() -> UlcMulti>(build: F, trace: &Trace, threads: usize) -> f64 {
    let mut replayer = ShardedReplayer::new(trace, threads);
    let mut best = 0.0f64;
    let mut spent_secs = 0.0;
    for run in 0..6 {
        let mut policy = build();
        // lint:allow(determinism) wall-clock timing of the harness itself; never feeds simulator results
        let start = Instant::now();
        let stats = replayer.replay(&mut policy, trace, trace.warmup_len());
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        std::hint::black_box(stats);
        best = best.max(trace.len() as f64 / secs);
        spent_secs += secs;
        if run >= 1 && spent_secs > 0.25 {
            break;
        }
    }
    best
}

/// [`alloc_profile`] for the sharded executor: allocations per access on
/// the orchestrating thread (plan runs, stack swaps, the commit walk),
/// phased at the 90 % mark via [`ShardedReplayer::replay_range`]. The
/// thread-local counters do not observe the worker threads — by design
/// the workers only advance pre-reserved client stacks through
/// pre-filled runs, so the coordinator is where allocation pressure
/// would surface. No recorder is attached: sharded replay cannot
/// record.
fn alloc_profile_sharded<F: Fn() -> UlcMulti>(
    build: F,
    trace: &Trace,
    threads: usize,
) -> (f64, f64) {
    if !alloc_stats::enabled() || trace.is_empty() {
        return (0.0, 0.0);
    }
    let mut policy = build();
    let levels = policy.num_levels();
    let mut replayer = ShardedReplayer::new(trace, threads);
    let warmup = trace.warmup_len();
    let split = trace.len() * 9 / 10;
    let mut stats = SimStats::new(levels);
    alloc_stats::reset();
    replayer.replay_range(&mut policy, trace, 0, split, warmup, &mut stats);
    let warm = alloc_stats::snapshot();
    alloc_stats::reset();
    replayer.replay_range(&mut policy, trace, split, trace.len(), warmup, &mut stats);
    let steady = alloc_stats::snapshot();
    std::hint::black_box(&stats);
    (
        warm.allocs as f64 / split.max(1) as f64,
        steady.allocs as f64 / (trace.len() - split).max(1) as f64,
    )
}

/// Measures one sharded-executor cell. `serial_aps` is the same run's
/// serial rate of the protocol × workload × size, so `speedup` reads as
/// the parallel scaling factor.
fn measure_sharded<F: Fn() -> UlcMulti>(
    protocol: &str,
    workload: &str,
    trace: &Trace,
    threads: usize,
    serial_aps: f64,
    build: F,
) -> ThroughputRow {
    let interned_aps = best_sharded_aps(&build, trace, threads);
    let (warmup_allocs_per_access, steady_allocs_per_access) =
        alloc_profile_sharded(&build, trace, threads);
    ThroughputRow {
        protocol: protocol.to_string(),
        workload: workload.to_string(),
        refs: trace.len(),
        threads,
        interned_aps,
        speedup: interned_aps / serial_aps.max(1e-9),
        warmup_allocs_per_access,
        steady_allocs_per_access,
    }
}

/// Measures one serial cell.
fn measure<P, F>(protocol: &str, workload: &str, trace: &Trace, build: F) -> ThroughputRow
where
    P: MultiLevelPolicy + Observe,
    F: Fn() -> P,
{
    let interned_aps = best_aps(&build, trace);
    // The allocation profile runs with a live recorder attached (when the
    // `obs` feature compiled one in): the §5f zero-allocation contract
    // must hold for the *instrumented* hot path too. Attaching allocates
    // once, here, before `alloc_profile` resets the counters.
    let mut profiled = build();
    let levels = profiled.num_levels();
    profiled.obs_mut().enable(levels, FLIGHT_RING_CAPACITY);
    let (warmup_allocs_per_access, steady_allocs_per_access) = alloc_profile(profiled, trace);
    ThroughputRow {
        protocol: protocol.to_string(),
        workload: workload.to_string(),
        refs: trace.len(),
        threads: 1,
        interned_aps,
        speedup: 1.0,
        warmup_allocs_per_access,
        steady_allocs_per_access,
    }
}

/// Runs the full throughput study.
///
/// The headline workload is the D=100k looping pattern: a footprint large
/// enough that per-block tables dominate the per-reference cost.
/// `zipf-small` covers the skewed small-footprint regime and `httpd-multi`/`db2-multi` the
/// multi-client ULC engine with its message plane, each additionally
/// measured under the sharded executor at `THREAD_COUNTS`. Thread
/// counts never change results — the executor is bit-identical to the
/// serial driver at any count, which `crates/core/tests/parallel_replay.rs`
/// proves — only the wall-clock.
pub fn run(scale: Scale) -> ThroughputReport {
    let mut rows = Vec::new();
    for refs in trace_sizes(scale) {
        let looping = cells::loop_100k(refs);
        rows.push(measure("ULC", "loop-100k", &looping, cells::ulc_loop));
        rows.push(measure("uniLRU", "loop-100k", &looping, cells::unilru_loop));
        rows.push(measure(
            "evict-reload",
            "loop-100k",
            &looping,
            cells::evict_reload_loop,
        ));

        let zipf = synthetic::zipf_small(refs);
        rows.push(measure("ULC", "zipf-small", &zipf, || {
            UlcSingle::new(UlcConfig::new(vec![400, 400, 400]))
        }));
        rows.push(measure("uniLRU", "zipf-small", &zipf, || {
            UniLru::single_client(vec![400, 400, 400])
        }));

        let multi = synthetic::httpd_multi(refs);
        rows.push(measure(
            "ULC-multi",
            "httpd-multi",
            &multi,
            cells::ulc_multi_httpd,
        ));
        let httpd_serial_aps = rows.last().expect("row just pushed").interned_aps;
        for threads in THREAD_COUNTS {
            rows.push(measure_sharded(
                "ULC-multi",
                "httpd-multi",
                &multi,
                threads,
                httpd_serial_aps,
                cells::ulc_multi_httpd,
            ));
        }

        // db2-multi: eight clients over fully-disjoint scan ranges, with
        // the footprint scaled so each client's 1 000-block range is
        // L0-resident once warm — the high-exclusivity, private-hit
        // regime where the sharded executor's parallel phase covers most
        // of the trace (E11's scaling workload; httpd-multi above is the
        // low end of the same curve at ~17% exclusive references).
        let db2 = synthetic::db2_multi(refs, 8_000);
        let db2_build = || UlcMulti::new(UlcMultiConfig::uniform(8, 1024, 8192));
        rows.push(measure("ULC-multi", "db2-multi", &db2, db2_build));
        let db2_serial_aps = rows.last().expect("row just pushed").interned_aps;
        for threads in THREAD_COUNTS {
            rows.push(measure_sharded(
                "ULC-multi",
                "db2-multi",
                &db2,
                threads,
                db2_serial_aps,
                db2_build,
            ));
        }
    }
    ThroughputReport {
        scale: scale_label(scale).to_string(),
        rows,
    }
}

/// Formats accesses/sec as e.g. `3.2M/s` or `840k/s`.
pub fn fmt_aps(aps: f64) -> String {
    if aps >= 1e6 {
        format!("{:.2}M/s", aps / 1e6)
    } else {
        format!("{:.0}k/s", aps / 1e3)
    }
}

/// Renders the report as a fixed-width table.
pub fn render(report: &ThroughputReport) -> String {
    let mut s = String::new();
    s.push_str(&format!("E9: engine throughput ({} scale)\n", report.scale));
    s.push_str(&row(
        "protocol",
        &[
            "workload".into(),
            "refs".into(),
            "thr".into(),
            "aps".into(),
            "speedup".into(),
            "w-allocs/a".into(),
            "s-allocs/a".into(),
        ],
    ));
    s.push('\n');
    for r in &report.rows {
        s.push_str(&row(
            &r.protocol,
            &[
                r.workload.clone(),
                format!("{}", r.refs),
                format!("{}", r.threads),
                fmt_aps(r.interned_aps),
                format!("{:.2}x", r.speedup),
                format!("{:.4}", r.warmup_allocs_per_access),
                format!("{:.4}", r.steady_allocs_per_access),
            ],
        ));
        s.push('\n');
    }
    s
}

/// Protocols whose steady-state path must be allocation-free: the pooled
/// engines running over the default `ReliablePlane`, including the
/// multi-client engine and its sharded-executor rows. (`ULC-multi`'s
/// plane queues and the server slab's free list are reserved to their
/// bounds at construction, so even late promotion bursts no longer grow
/// them mid-run — see `GlobalLru::new` and DESIGN.md §5f.)
const ALLOC_GATED_PROTOCOLS: [&str; 4] = ["ULC", "uniLRU", "evict-reload", "ULC-multi"];

/// Enforces the §5f zero-allocation steady-state contract on a report
/// generated with the `alloc_stats` feature: every gated protocol's
/// steady-state allocations/access must be exactly zero. Returns the
/// violations, empty on success. A report generated without the feature
/// (all counters zero) passes vacuously — pair this with
/// [`crate::alloc_stats::enabled`] when gating in CI.
pub fn check_alloc_gate(report: &ThroughputReport) -> Vec<String> {
    let mut failures = Vec::new();
    for r in &report.rows {
        if ALLOC_GATED_PROTOCOLS.contains(&r.protocol.as_str()) && r.steady_allocs_per_access > 0.0
        {
            failures.push(format!(
                "{}/{}/{}@{}t: {:.6} steady-state allocations/access (contract: 0)",
                r.protocol, r.workload, r.refs, r.threads, r.steady_allocs_per_access
            ));
        }
    }
    failures
}

/// Compares `current` against a checked-in `baseline`: every row present
/// in both (matched by protocol, workload and refs) must keep its
/// interned accesses/sec at or above `(1 - max_regression)` of the
/// baseline. Returns the list of violations, empty on success.
///
/// The baseline is deliberately conservative (recorded well below a
/// healthy machine's measurement) so the gate catches real algorithmic
/// regressions, not scheduler noise.
pub fn check_against_baseline(
    current: &ThroughputReport,
    baseline: &ThroughputReport,
    max_regression: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for b in &baseline.rows {
        let Some(c) = current.rows.iter().find(|c| {
            c.protocol == b.protocol
                && c.workload == b.workload
                && c.refs == b.refs
                && c.threads == b.threads
        }) else {
            failures.push(format!(
                "baseline row {}/{}/{}@{}t missing from current report",
                b.protocol, b.workload, b.refs, b.threads
            ));
            continue;
        };
        matched += 1;
        let floor = b.interned_aps * (1.0 - max_regression);
        if c.interned_aps < floor {
            failures.push(format!(
                "{}/{}/{}@{}t: {} < {:.0}% of baseline {}",
                c.protocol,
                c.workload,
                c.refs,
                c.threads,
                fmt_aps(c.interned_aps),
                100.0 * (1.0 - max_regression),
                fmt_aps(b.interned_aps),
            ));
        }
    }
    if matched == 0 {
        failures.push("no baseline row matched the current report (scale mismatch?)".to_string());
    }
    failures
}

/// Shard counts at and above which [`check_shard_scaling`] applies its
/// floor: the widest configurations, where the parallel phase must pay
/// for itself.
pub const SHARD_GATE_MIN_THREADS: usize = 8;

/// Enforces E11's shard-scaling floor: every current sharded row at
/// [`SHARD_GATE_MIN_THREADS`] or more threads must reach at least
/// `min_speedup ×` the *serial* baseline rate of the same protocol ×
/// workload × size. Like the baseline gate, this compares against the
/// checked-in (deliberately conservative) baseline, not a live serial
/// measurement, so scheduler noise on the serial cell cannot fail the
/// sharded one. Returns the violations, empty on success.
pub fn check_shard_scaling(
    current: &ThroughputReport,
    baseline: &ThroughputReport,
    min_speedup: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for c in &current.rows {
        if c.threads < SHARD_GATE_MIN_THREADS {
            continue;
        }
        let Some(b) = baseline.rows.iter().find(|b| {
            b.threads == 1
                && b.protocol == c.protocol
                && b.workload == c.workload
                && b.refs == c.refs
        }) else {
            continue;
        };
        checked += 1;
        let floor = b.interned_aps * min_speedup;
        if c.interned_aps < floor {
            failures.push(format!(
                "{}/{}/{}@{}t: {} < {:.1}x serial baseline {}",
                c.protocol,
                c.workload,
                c.refs,
                c.threads,
                fmt_aps(c.interned_aps),
                min_speedup,
                fmt_aps(b.interned_aps),
            ));
        }
    }
    if checked == 0 {
        failures.push("no sharded row had a serial baseline row to scale against".to_string());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulc_trace::patterns::{LoopingPattern, Pattern};

    fn report(rows: Vec<ThroughputRow>) -> ThroughputReport {
        ThroughputReport {
            scale: "smoke".into(),
            rows,
        }
    }

    fn r(protocol: &str, aps: f64) -> ThroughputRow {
        ThroughputRow {
            protocol: protocol.into(),
            workload: "loop-100k".into(),
            refs: 1000,
            threads: 1,
            interned_aps: aps,
            speedup: 1.0,
            warmup_allocs_per_access: 0.0,
            steady_allocs_per_access: 0.0,
        }
    }

    fn sharded(protocol: &str, threads: usize, aps: f64) -> ThroughputRow {
        let mut row = r(protocol, aps);
        row.threads = threads;
        row
    }

    #[test]
    fn baseline_gate_passes_within_tolerance() {
        let base = report(vec![r("ULC", 1000.0)]);
        let cur = report(vec![r("ULC", 800.0)]);
        assert!(check_against_baseline(&cur, &base, 0.25).is_empty());
    }

    #[test]
    fn baseline_gate_fails_on_regression() {
        let base = report(vec![r("ULC", 1000.0)]);
        let cur = report(vec![r("ULC", 600.0)]);
        let fails = check_against_baseline(&cur, &base, 0.25);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("ULC/loop-100k"));
    }

    #[test]
    fn baseline_gate_reports_missing_rows() {
        let base = report(vec![r("ULC", 1000.0), r("uniLRU", 500.0)]);
        let cur = report(vec![r("ULC", 1000.0)]);
        let fails = check_against_baseline(&cur, &base, 0.25);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("missing"));
    }

    #[test]
    fn empty_overlap_is_a_failure() {
        let base = report(vec![r("ULC", 1000.0)]);
        let mut cur = report(vec![r("ULC", 1000.0)]);
        cur.rows[0].refs = 999;
        let fails = check_against_baseline(&cur, &base, 0.25);
        assert!(fails.iter().any(|f| f.contains("no baseline row")));
    }

    #[test]
    fn alloc_gate_holds_every_pooled_engine_including_ulc_multi() {
        let mut gated = r("ULC", 1000.0);
        gated.steady_allocs_per_access = 0.5;
        let mut multi = r("ULC-multi", 1000.0);
        multi.steady_allocs_per_access = 0.5;
        let mut sharded_multi = sharded("ULC-multi", 8, 4000.0);
        sharded_multi.steady_allocs_per_access = 0.25;
        let clean = r("uniLRU", 1000.0);
        let rep = report(vec![gated, multi, sharded_multi, clean]);
        let fails = check_alloc_gate(&rep);
        assert_eq!(fails.len(), 3, "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("ULC/loop-100k")));
        assert_eq!(
            fails.iter().filter(|f| f.contains("ULC-multi")).count(),
            2,
            "serial and sharded ULC-multi rows are both gated: {fails:?}"
        );
    }

    #[test]
    fn baseline_rows_match_on_thread_count() {
        // A serial and a sharded row of the same cell must not be
        // confused: the sharded row regressing below the serial floor is
        // only caught when matched against the sharded baseline.
        let base = report(vec![
            r("ULC-multi", 1000.0),
            sharded("ULC-multi", 8, 4000.0),
        ]);
        let cur = report(vec![
            r("ULC-multi", 1000.0),
            sharded("ULC-multi", 8, 1000.0),
        ]);
        let fails = check_against_baseline(&cur, &base, 0.25);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].contains("ULC-multi/loop-100k/1000@8t"),
            "{fails:?}"
        );
    }

    #[test]
    fn shard_scaling_gate_enforces_the_floor() {
        let base = report(vec![r("ULC-multi", 1000.0)]);
        let fast = report(vec![sharded("ULC-multi", 8, 2500.0)]);
        assert!(check_shard_scaling(&fast, &base, 2.0).is_empty());
        let slow = report(vec![sharded("ULC-multi", 8, 1500.0)]);
        let fails = check_shard_scaling(&slow, &base, 2.0);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("2.0x serial baseline"));
    }

    #[test]
    fn shard_scaling_gate_ignores_narrow_rows_but_needs_coverage() {
        let base = report(vec![r("ULC-multi", 1000.0)]);
        // A 2-thread row is below the gate's width threshold…
        let narrow = report(vec![sharded("ULC-multi", 2, 900.0)]);
        let fails = check_shard_scaling(&narrow, &base, 2.0);
        // …so nothing qualifies and the gate reports the coverage hole.
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("no sharded row"));
    }

    #[test]
    fn reports_with_keys_the_schema_dropped_still_load() {
        // Reports written by older builds carry keys the schema no longer
        // has (an `"obs"` section, per-row `reference_aps`); the gate must
        // still read them as baselines.
        let text = r#"{"scale":"smoke","rows":[{"protocol":"ULC","workload":"loop-100k",
            "refs":1000,"threads":1,"interned_aps":1.0,"reference_aps":2.0,"speedup":1.0,
            "warmup_allocs_per_access":0.0,"steady_allocs_per_access":0.0}],"obs":null}"#;
        let rep: ThroughputReport = serde_json::from_str(text).expect("older report loads");
        assert_eq!(rep.rows[0].interned_aps, 1.0);
    }

    #[test]
    fn aps_formatting() {
        assert_eq!(fmt_aps(3_200_000.0), "3.20M/s");
        assert_eq!(fmt_aps(840_000.0), "840k/s");
    }

    #[test]
    fn smoke_run_covers_every_protocol_and_size() {
        // A micro-run (not the real scale) proving the harness wiring:
        // a serial cell produces a positive rate and a unit speedup.
        let looping = LoopingPattern::new(500).generate(2_000);
        let cell = measure("ULC", "loop-tiny", &looping, || {
            UlcSingle::new(UlcConfig::new(vec![200, 400]))
        });
        assert!(cell.interned_aps > 0.0);
        assert_eq!(cell.speedup, 1.0);
        assert_eq!(cell.refs, 2_000);
    }

    #[test]
    fn report_round_trips_through_json() {
        let rep = report(vec![r("ULC", 1000.0)]);
        let text = serde_json::to_string(&rep).expect("serialises");
        let back: ThroughputReport = serde_json::from_str(&text).expect("deserialises");
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.rows[0].protocol, "ULC");
        assert_eq!(back.scale, "smoke");
    }
}
