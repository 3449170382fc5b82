//! Runs every figure study concurrently through the sweep engine and
//! prints a machine-readable timing summary.
//!
//! Usage: `sweep [--scale=smoke|default|full] [--json=<path>]
//! [--faults=<scenario>]`.
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
//! Engine speed is measured by the replay benchmark
//! (`crates/bench/src/bin/benchmark/`) and gated by
//! `scripts/rate_gate.sh`; the observability report is `obs-tool export`
//! ([`ulc_bench::flight`]).

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

use ulc_bench::sweep::Sweep;
use ulc_bench::{ablation, degradation, fig2, fig3, fig6, fig7, maybe_write_json, table1, Scale};
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

fn main() {
    let scale = Scale::from_args();
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
}
