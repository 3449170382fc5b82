//! Flight-recorder export and analysis CLI (EXPERIMENTS.md E12).
//!
//! Usage:
//!   `obs-tool export [--scale=smoke|default|full] [--refs=<n>]
//!                    [--window=<ticks>] [--out=<path>]`
//!   `obs-tool chrome [--in=<path>] [--out=<path>]`
//!   `obs-tool report [--in=<path>]`
//!   `obs-tool verify [--in=<path>]`
//!
//! `export` runs every protocol with a live recorder and windowed
//! timeline attached (requires a build with the `obs` feature — exits 2
//! otherwise), validates the dump with [`ulc_bench::flight::verify_export`]
//! and writes the versioned JSON. The other three subcommands work on
//! an existing export file and need no live recorders: `chrome`
//! converts it to a `chrome://tracing` / Perfetto trace, `report`
//! prints the derived analyses (hit-rate-vs-time, warm-up crossover,
//! demotion burstiness, span-cost percentiles), and `verify` re-parses
//! the file, re-reconciles every window sum against the final registries
//! and recomputes the derived report, exiting 1 on any mismatch — the
//! round-trip gate `scripts/tier1.sh` runs.

use ulc_bench::flight::{self, FlightExport};
use ulc_bench::Scale;

/// Returns the value of a `--flag=<value>` argument, if present.
fn arg_value(prefix: &str) -> Option<String> {
    std::env::args().find_map(|a| a.strip_prefix(prefix).map(str::to_string))
}

/// The input export path (`--in=`, default `FLIGHT_obs.json`).
fn input_path() -> String {
    arg_value("--in=").unwrap_or_else(|| "FLIGHT_obs.json".to_string())
}

fn read_export(path: &str) -> FlightExport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} is not a flight export: {e:?}"))
}

fn write_text(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Prints verification failures; returns true when the export is valid.
fn report_verification(export: &FlightExport) -> bool {
    let failures = flight::verify_export(export);
    if failures.is_empty() {
        eprintln!(
            "flight verify: ok ({} cells, {} windows each, derived report recomputes exactly)",
            export.cells.len(),
            export.cells.first().map_or(0, |c| c.windows.len()),
        );
        return true;
    }
    for f in &failures {
        eprintln!("flight verify FAILED: {f}");
    }
    false
}

fn cmd_export() {
    if !ulc_obs::recording_compiled() {
        eprintln!("obs-tool export needs a build with the `obs` feature (no recorder attached)");
        std::process::exit(2);
    }
    let refs = arg_value("--refs=").map(|v| {
        v.parse()
            .unwrap_or_else(|e| panic!("bad --refs value {v:?}: {e}"))
    });
    let window = arg_value("--window=").map_or(0u64, |v| {
        v.parse()
            .unwrap_or_else(|e| panic!("bad --window value {v:?}: {e}"))
    });
    let export = match refs {
        Some(n) => flight::collect_sized(n, window),
        None => flight::collect(Scale::from_args()),
    };
    let ok = report_verification(&export);
    let out = arg_value("--out=").unwrap_or_else(|| "FLIGHT_obs.json".to_string());
    write_text(
        &out,
        &serde_json::to_string_pretty(&export).expect("export serialises"),
    );
    if !ok {
        std::process::exit(1);
    }
}

fn cmd_chrome() {
    let export = read_export(&input_path());
    let out = arg_value("--out=").unwrap_or_else(|| "FLIGHT_trace.json".to_string());
    write_text(&out, &flight::chrome_trace(&export));
}

fn cmd_report() {
    let export = read_export(&input_path());
    print!("{}", flight::render_report(&export));
}

fn cmd_verify() {
    let export = read_export(&input_path());
    if !report_verification(&export) {
        std::process::exit(1);
    }
}

fn main() {
    let sub = std::env::args().nth(1).unwrap_or_default();
    match sub.as_str() {
        "export" => cmd_export(),
        "chrome" => cmd_chrome(),
        "report" => cmd_report(),
        "verify" => cmd_verify(),
        other => {
            eprintln!(
                "usage: obs-tool <export|chrome|report|verify> [--scale=|--refs=|--window=|--in=|--out=]\n\
                 unknown subcommand {other:?}"
            );
            std::process::exit(2);
        }
    }
}
