//! Runs every figure study concurrently through the sweep engine and
//! prints a machine-readable timing summary.
//!
//! Usage: `sweep [--scale=smoke|default|full] [--json=<path>]
//! [--faults=<scenario>] [--bench-json=<path>]
//! [--bench-baseline=<path>] [--bench-only]`.
//!
//! The figure renders go to stdout in a fixed order; the
//! [`ulc_bench::sweep::SweepSummary`] (threads, wall/cpu milliseconds,
//! per-task timings) is printed as JSON to stderr and, with `--json=`,
//! written to the given path for dashboards and regression tracking.
//!
//! `--faults=` takes a [`FaultScenario`] DSL string (e.g.
//! `seed=7,dup=0.005,delay=0.02,max_delay=8,crash=500@1`) used as the
//! base scenario of the degradation study — the grid varies its drop
//! rate. Without the flag the study runs on `FaultScenario::mild(1789)`,
//! the seeded scenario the golden regression test pins.
//!
//! `--bench-json=<path>` runs the E9 engine-throughput study
//! ([`ulc_bench::throughput`]) and writes the report (accesses/sec per
//! protocol × workload × trace size, sharded ULC-multi cells at 2 and 8
//! threads) to the given path — `BENCH_sim.json` at the repo root by
//! convention.
//! `--bench-baseline=<path>` additionally compares the fresh report
//! against a checked-in baseline and exits non-zero if any
//! accesses/sec rate regressed by more than 25%, or if a wide sharded
//! ULC-multi row fails the E11 shard-scaling floor (2x the serial
//! baseline rate). `--bench-only` skips the figure sweep so CI can gate
//! throughput quickly.
//!
//! When built with the `obs` feature the allocation profile of every
//! serial row runs with a live recorder attached, so the `alloc_stats`
//! gate holds the instrumented hot path to the same zero-allocation
//! contract. Sharded rows profile without one: sharded replay cannot
//! record. The observability report itself is `obs-tool export`
//! ([`ulc_bench::flight`]).

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

use ulc_bench::sweep::Sweep;
use ulc_bench::{
    ablation, degradation, fig2, fig3, fig6, fig7, maybe_write_json, table1, throughput, Scale,
};
use ulc_hierarchy::FaultScenario;

/// Parses `--faults=<dsl>`, defaulting to the pinned mild scenario.
fn fault_scenario_from_args() -> FaultScenario {
    for arg in std::env::args() {
        if let Some(dsl) = arg.strip_prefix("--faults=") {
            return dsl
                .parse()
                .unwrap_or_else(|e| panic!("bad --faults scenario: {e}"));
        }
    }
    FaultScenario::mild(1789)
}

/// Returns the value of a `--flag=<value>` argument, if present.
fn arg_value(prefix: &str) -> Option<String> {
    std::env::args().find_map(|a| a.strip_prefix(prefix).map(str::to_string))
}

/// Maximum tolerated drop in interned accesses/sec vs the checked-in
/// baseline before the gate fails.
const MAX_BENCH_REGRESSION: f64 = 0.25;

/// Minimum speedup a wide sharded row must reach over the *serial*
/// baseline rate of its cell (the E11 acceptance floor).
const MIN_SHARD_SPEEDUP: f64 = 2.0;

/// Runs the E9 throughput study, writes the report, and applies the
/// baseline gate. Returns `false` if the gate failed.
fn run_bench(scale: Scale, json: Option<&str>, baseline: Option<&str>) -> bool {
    let report = throughput::run(scale);
    println!("{}", throughput::render(&report));
    if let Some(path) = json {
        let file =
            std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
        serde_json::to_writer_pretty(file, &report).expect("report serialises");
        eprintln!("wrote {path}");
    }
    let mut ok = true;
    if ulc_bench::alloc_stats::enabled() {
        let alloc_failures = throughput::check_alloc_gate(&report);
        if alloc_failures.is_empty() {
            eprintln!("alloc gate: ok (steady state allocation-free)");
        } else {
            for f in &alloc_failures {
                eprintln!("alloc gate FAILED: {f}");
            }
            ok = false;
        }
    }
    let Some(path) = baseline else { return ok };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let base: throughput::ThroughputReport = serde_json::from_str(&text).expect("baseline parses");
    let failures = throughput::check_against_baseline(&report, &base, MAX_BENCH_REGRESSION);
    if failures.is_empty() {
        eprintln!("bench gate: ok ({} baseline rows)", base.rows.len());
    } else {
        for f in &failures {
            eprintln!("bench gate FAILED: {f}");
        }
        ok = false;
    }
    let scaling_failures = throughput::check_shard_scaling(&report, &base, MIN_SHARD_SPEEDUP);
    if scaling_failures.is_empty() {
        eprintln!("shard-scaling gate: ok (>= {MIN_SHARD_SPEEDUP}x serial baseline)");
    } else {
        for f in &scaling_failures {
            eprintln!("shard-scaling gate FAILED: {f}");
        }
        ok = false;
    }
    ok
}

fn main() {
    let scale = Scale::from_args();
    let bench_json = arg_value("--bench-json=");
    let bench_baseline = arg_value("--bench-baseline=");
    let bench_only = std::env::args().any(|a| a == "--bench-only");
    if bench_only {
        if !run_bench(scale, bench_json.as_deref(), bench_baseline.as_deref()) {
            std::process::exit(1);
        }
        return;
    }
    let faults = fault_scenario_from_args();
    let mut sweep: Sweep<String> = Sweep::new();
    sweep.add("table1", move || table1::render(&table1::run(scale)));
    sweep.add("fig2", move || fig2::render(&fig2::run(scale)));
    sweep.add("fig3", move || fig3::render(&fig3::run(scale)));
    sweep.add("fig6", move || fig6::render(&fig6::run(scale)));
    sweep.add("fig7", move || {
        let points = fig7::run(scale);
        format!(
            "{}\n{}",
            fig7::render(&points),
            fig7::render_detail(&points)
        )
    });
    sweep.add("degradation", move || {
        degradation::render(&degradation::run(scale, &faults))
    });
    sweep.add("ablation", move || {
        let mut s = String::new();
        s.push_str(&ablation::render(
            "Ablation A: counting tempLRU hits (extension of §3.2 footnote 3)",
            &ablation::temp_lru_hits(scale),
        ));
        s.push_str(&ablation::render(
            "Ablation B: uniLRUstack metadata budget (§5 trimming claim)",
            &ablation::stack_limit(scale),
        ));
        s.push_str(&ablation::render(
            "Ablation C: multi-client cold-claim rule (DESIGN.md 5a)",
            &ablation::claim_rule(scale),
        ));
        s
    });
    let (renders, summary) = sweep.run();
    for text in &renders {
        println!("{text}");
    }
    maybe_write_json(&summary);
    eprintln!(
        "{}",
        serde_json::to_string_pretty(&summary).expect("summary serialises")
    );
    eprintln!(
        "sweep: {} tasks on {} threads, {:.0} ms wall / {:.0} ms cpu ({:.2}x)",
        summary.tasks.len(),
        summary.threads,
        summary.wall_ms,
        summary.cpu_ms,
        summary.speedup()
    );
    if (bench_json.is_some() || bench_baseline.is_some())
        && !run_bench(scale, bench_json.as_deref(), bench_baseline.as_deref())
    {
        std::process::exit(1);
    }
}
