//! Experiment harness for the ULC reproduction.
//!
//! One module per paper artefact: [`fig2`]/[`fig3`]/[`table1`] reproduce
//! the §2.2 measure study, [`fig6`] the three-level single-client
//! comparison, [`fig7`] the multi-client server-size sweep, and
//! [`ablation`] our additional design-choice studies. Each module builds
//! the workloads, runs the protocols and returns plain data structures;
//! [`degradation`] adds our fault-injection study (hit rate vs message
//! drop rate over the `FaultyPlane`); [`flight`] is the E12
//! flight-recorder export, the harness's one observability report;
//! [`cells`] defines the cells it shares with the alloc gate;
//! the `src/bin` entry points print them in the layout of the paper's
//! tables and figures. The grid loops inside each module fan their cells
//! across cores through [`sweep::par_map`], and the `sweep` binary runs
//! whole figures concurrently with a machine-readable timing summary.
//!
//! Every experiment takes a [`Scale`] so the full study can be run at
//! paper scale (hours) or at a reduced reference-count scale (minutes)
//! with identical footprints and cache-size ratios.

#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod ablation;
pub mod cells;
pub mod degradation;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod flight;
pub mod sweep;
pub mod table1;

use serde::{Deserialize, Serialize};

/// Experiment scale: how many references to generate per workload.
///
/// Footprints and cache sizes always stay at the paper's values; only the
/// trace length varies, which changes statistical smoothness but not the
/// steady-state hit and demotion rates the paper reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// A quick run for CI and smoke tests.
    Smoke,
    /// The default: minutes, not hours.
    Default,
    /// Trace lengths close to the paper's (tens of millions of
    /// references).
    Full,
}

impl Scale {
    /// Parses `--scale=<smoke|default|full>`-style command line
    /// arguments, defaulting to [`Scale::Default`].
    pub fn from_args() -> Scale {
        for arg in std::env::args() {
            if let Some(v) = arg.strip_prefix("--scale=") {
                return match v {
                    "smoke" => Scale::Smoke,
                    "default" => Scale::Default,
                    "full" => Scale::Full,
                    #[expect(
                        clippy::panic,
                        reason = "CLI argument validation; aborting with a clear message is the contract"
                    )]
                    other => panic!("unknown scale {other:?} (use smoke|default|full)"),
                };
            }
        }
        Scale::Default
    }

    /// References for the §2.2 small-trace measure study.
    pub fn small_refs(self) -> usize {
        match self {
            Scale::Smoke => 20_000,
            Scale::Default => 120_000,
            Scale::Full => 400_000,
        }
    }

    /// References for the large single-client traces (Figure 6).
    pub fn large_refs(self) -> usize {
        match self {
            Scale::Smoke => 200_000,
            Scale::Default => 2_000_000,
            Scale::Full => 20_000_000,
        }
    }

    /// References for the multi-client traces (Figure 7).
    pub fn multi_refs(self) -> usize {
        match self {
            Scale::Smoke => 200_000,
            Scale::Default => 1_500_000,
            Scale::Full => 10_000_000,
        }
    }
}

/// Writes `value` as JSON to the path given by a `--json=<path>` command
/// line argument, if present. Every figure binary calls this so results
/// can feed external plotting.
///
/// # Panics
///
/// Panics if the file cannot be written.
#[expect(
    clippy::panic,
    reason = "documented `# Panics` contract; the message needs the runtime path"
)]
pub fn maybe_write_json<T: Serialize>(value: &T) {
    for arg in std::env::args() {
        if let Some(path) = arg.strip_prefix("--json=") {
            let file =
                std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            serde_json::to_writer_pretty(file, value).expect("JSON serialisation");
            eprintln!("wrote {path}");
        }
    }
}

/// Renders a row of fixed-width cells.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<14}");
    for c in cells {
        s.push_str(&format!("{c:>12}"));
    }
    s
}

/// Formats a rate as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(x: f64) -> String {
    format!("{x:.2}ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.small_refs() < Scale::Default.small_refs());
        assert!(Scale::Default.large_refs() < Scale::Full.large_refs());
        assert!(Scale::Smoke.multi_refs() <= Scale::Default.multi_refs());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(ms(1.5), "1.50ms");
        assert!(row("x", &["a".into(), "b".into()]).contains('x'));
    }
}
