//! Golden snapshot of the flight-recorder export of `obs-tool export`
//! (DESIGN.md §5j / EXPERIMENTS.md E12, `golden/obs_export_schema.txt`),
//! plus the round-trip contract the `obs-tool verify` gate relies on.
//! The export exists only with the `obs` feature:
//!
//! ```text
//! cargo test -p ulc-bench --features obs --test json_schema
//! ```
//!
//! The export is serialised to a [`serde::Value`], every key path is
//! collected (array elements unioned under a `[]` segment, so optional
//! per-element keys still register), and the sorted path list must equal
//! the golden file. Any field added to or removed from the contract shows
//! up as a failure that prints the actual snapshot; a deliberate schema
//! change is a deliberate edit of the golden file.

#![cfg(feature = "obs")]

use std::collections::BTreeSet;
use ulc_bench::flight::{self, FlightExport};

/// Collects every key path of `v` into `paths`. Objects append their key
/// names; arrays union all elements under one `[]` segment; leaves
/// record the path with a type tag so a field changing from number to
/// object is also caught.
fn walk(v: &serde::Value, prefix: &str, paths: &mut BTreeSet<String>) {
    match v {
        serde::Value::Object(fields) => {
            for (key, val) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                walk(val, &path, paths);
            }
        }
        serde::Value::Array(items) => {
            let path = format!("{prefix}[]");
            if items.is_empty() {
                paths.insert(path.clone());
            }
            for item in items {
                walk(item, &path, paths);
            }
        }
        serde::Value::Null => {
            paths.insert(format!("{prefix}: null"));
        }
        serde::Value::Bool(_) => {
            paths.insert(format!("{prefix}: bool"));
        }
        serde::Value::U64(_) | serde::Value::I64(_) | serde::Value::F64(_) => {
            paths.insert(format!("{prefix}: number"));
        }
        serde::Value::Str(_) => {
            paths.insert(format!("{prefix}: string"));
        }
    }
}

/// The key paths of `value`'s JSON form.
fn paths_of<T: serde::Serialize>(value: &T) -> BTreeSet<String> {
    let mut paths = BTreeSet::new();
    walk(&serde_json::to_value(value), "", &mut paths);
    paths
}

/// Fails unless `value`'s schema snapshot equals the golden file `name`,
/// printing the actual snapshot so a deliberate change can be reviewed
/// and copied in.
fn assert_schema_matches<T: serde::Serialize>(value: &T, name: &str, golden: &str) {
    let mut actual = String::new();
    for p in paths_of(value) {
        actual.push_str(&p);
        actual.push('\n');
    }
    if actual != golden {
        eprintln!("--- actual tests/golden/{name} ---\n{actual}--- end ---");
        panic!("JSON schema drifted from tests/golden/{name}");
    }
}

/// A small live export — a real `collect_sized` run, so the snapshot
/// covers exactly what `obs-tool export` writes. Sized past one wrap
/// of the tpcc1 loop so the warm-up crossover is `Some` and the
/// `CrossoverPoint` schema is pinned along with everything else.
fn representative_export() -> FlightExport {
    flight::collect_sized(24_000, 1_500)
}

#[test]
fn obs_export_schema_matches_golden() {
    assert_schema_matches(
        &representative_export(),
        "obs_export_schema.txt",
        include_str!("golden/obs_export_schema.txt"),
    );
}

#[test]
fn export_verifies_after_a_full_json_round_trip() {
    // The tier-1 contract behind `obs-tool verify`: write → parse →
    // recompute derived → bit-identical, with every window sum
    // reconciling against the final registries.
    let export = representative_export();
    assert_eq!(flight::verify_export(&export), Vec::<String>::new());
    let text = serde_json::to_string_pretty(&export).expect("serialises");
    let back: FlightExport = serde_json::from_str(&text).expect("parses");
    assert_eq!(
        back, export,
        "export must survive the round trip bit-exactly"
    );
    assert_eq!(flight::verify_export(&back), Vec::<String>::new());
    assert_eq!(flight::derive_report(&back.cells), back.derived);
    // The chrome conversion of the parsed export is itself valid JSON.
    let trace = flight::chrome_trace(&back);
    serde_json::parse(&trace).expect("chrome trace parses");
}
