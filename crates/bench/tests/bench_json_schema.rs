//! Golden snapshot of the full `sweep --bench-json` schema, `obs`
//! section included (DESIGN.md §5h).
//!
//! The report is serialised to a [`serde::Value`], every key path is
//! collected (array elements unioned under a `[]` segment, so optional
//! per-element keys still register), and the sorted path list is
//! compared against `tests/golden/bench_json_schema.txt`. Any field
//! added to or removed from the JSON contract shows up as a diff of
//! that file; regenerate it by running with `UPDATE_GOLDEN=1`.
#![cfg(feature = "obs")]

use std::collections::BTreeSet;
use ulc_bench::obs_report;
use ulc_bench::throughput::{ThroughputReport, ThroughputRow};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/bench_json_schema.txt"
);

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

/// A structurally complete report: one row with every column set and a
/// tiny live `obs` section (a real `collect_sized` run, so the snapshot
/// covers exactly what the sweep binary writes).
fn representative_report() -> ThroughputReport {
    ThroughputReport {
        scale: "smoke".to_string(),
        rows: vec![ThroughputRow {
            protocol: "ULC".to_string(),
            workload: "loop-100k".to_string(),
            refs: 1_000,
            threads: 1,
            interned_aps: 1.0e6,
            speedup: 1.0,
            warmup_allocs_per_access: 0.01,
            steady_allocs_per_access: 0.0,
        }],
        obs: Some(obs_report::collect_sized(2_000)),
    }
}

#[test]
fn bench_json_schema_matches_golden() {
    let report = representative_report();
    let value = serde_json::to_value(&report);
    let mut paths = BTreeSet::new();
    walk(&value, "", &mut paths);
    let mut snapshot = String::new();
    for p in &paths {
        snapshot.push_str(p);
        snapshot.push('\n');
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &snapshot).expect("golden file writes");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden schema file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        snapshot, golden,
        "bench JSON schema drifted from tests/golden/bench_json_schema.txt; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn obs_section_survives_a_round_trip_with_identical_schema() {
    // Deserialising the written JSON and re-serialising must not change
    // the schema — the gate reads its own output when comparing against
    // a checked-in baseline.
    let report = representative_report();
    let text = serde_json::to_string(&report).expect("serialises");
    let back: ThroughputReport = serde_json::from_str(&text).expect("deserialises");
    let mut a = BTreeSet::new();
    walk(&serde_json::to_value(&report), "", &mut a);
    let mut b = BTreeSet::new();
    walk(&serde_json::to_value(&back), "", &mut b);
    assert_eq!(a, b, "schema changed across a JSON round trip");
}
