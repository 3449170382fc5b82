//! Golden `SimStats` grid: the frozen simulated output of every engine.
//!
//! Each cell (protocol × configuration × workload) is replayed three
//! ways — through [`simulate`] (one pooled outcome, prefetch pipeline),
//! through the by-value [`MultiLevelPolicy::access`] wrapper, and through
//! `access_into` over one deliberately dirty reused outcome
//! ([`common::simulate_pooled_dirty`]). All three must produce the same
//! full [`SimStats`] — hits per level, demotions per boundary, misses and
//! every fault-summary counter — and its `{:?}` line must equal the
//! cell's line in `golden/sim_stats.txt`.
//!
//! The grid covers ULC-single, the three uniLRU variants, indLRU,
//! evict-reload at latency 0 and 7, a demotion-buffered uniLRU and LRU+MQ
//! over every smoke-scale single-client trace; ULC-multi over the three
//! multi-client workloads (httpd's file-set ids land in `BlockMap`'s
//! sparse tier); and the crashy `FaultyPlane` legs ULC/httpd and
//! uniLRU/cs, whose drop/duplicate/delay/crash fates and recovery
//! counters are frozen too.
//!
//! There is no bless switch. On a mismatch the test prints the whole
//! actual text, so an intended change to simulated numbers is a
//! deliberate edit of the golden file that shows in the diff.

use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::plane::FaultyPlane;
use ulc_hierarchy::{
    simulate, DemotionBuffer, EvictionBased, IndLru, LruMqServer, MultiLevelPolicy, UniLru,
    UniLruVariant,
};
use ulc_trace::{synthetic, Trace};

mod common;

const GOLDEN: &str = include_str!("golden/sim_stats.txt");

/// Replays one cell through the three drivers, each on a fresh engine
/// from `make`, requires them to agree, and returns the cell's line.
fn cell<P: MultiLevelPolicy>(name: &str, trace: &Trace, make: impl Fn() -> P) -> String {
    let warmup = trace.warmup_len();
    let stats = simulate(&mut make(), trace, warmup);
    let by_value = common::simulate_by_value(&mut make(), trace, warmup);
    let pooled = common::simulate_pooled_dirty(&mut make(), trace, warmup);
    assert_eq!(
        by_value, stats,
        "{name}: by-value access diverged from simulate"
    );
    assert_eq!(
        pooled, stats,
        "{name}: dirty pooled access_into diverged from simulate"
    );
    format!("{name}: {stats:?}")
}

/// Every cell of the grid, in golden-file order.
fn grid() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, trace) in common::single_client_workloads() {
        lines.push(cell(&format!("ULC-single/{name}"), &trace, || {
            UlcSingle::new(UlcConfig::new(vec![400, 400, 400]))
        }));
        for variant in [
            UniLruVariant::MruInsert,
            UniLruVariant::LruInsert,
            UniLruVariant::Adaptive,
        ] {
            lines.push(cell(&format!("uniLRU/{variant:?}/{name}"), &trace, || {
                UniLru::multi_client(vec![400], vec![400, 400], variant)
            }));
        }
        lines.push(cell(&format!("indLRU/{name}"), &trace, || {
            IndLru::single_client(vec![400, 400, 400])
        }));
        for latency in [0u64, 7] {
            lines.push(cell(
                &format!("evict-reload/{latency}/{name}"),
                &trace,
                || EvictionBased::new(vec![400], 800, latency),
            ));
        }
        lines.push(cell(&format!("buffered/{name}"), &trace, || {
            DemotionBuffer::new(UniLru::single_client(vec![400, 400]), 16, 0.2)
        }));
        lines.push(cell(&format!("LRU+MQ/{name}"), &trace, || {
            LruMqServer::new(vec![400], 800)
        }));
    }
    for (name, trace, clients) in common::multi_client_workloads() {
        lines.push(cell(&format!("ULC/{name}"), &trace, || {
            UlcMulti::new(UlcMultiConfig::uniform(clients, 256, 2048))
        }));
    }

    let scenario = common::crashy_mild_scenario();
    lines.push(cell(
        "ULC/faulty/httpd",
        &synthetic::httpd_multi(30_000),
        || {
            UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048))
                .with_plane(FaultyPlane::new(scenario.clone()))
        },
    ));
    lines.push(cell("uniLRU/faulty/cs", &synthetic::cs(30_000), || {
        UniLru::single_client(vec![500, 500, 500]).with_plane(FaultyPlane::new(scenario.clone()))
    }));
    lines
}

#[test]
fn every_cell_matches_the_golden_grid() {
    let lines = grid();
    let mut actual = lines.join("\n");
    actual.push('\n');
    if actual == GOLDEN {
        return;
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if golden.get(i) != Some(&line.as_str()) {
            eprintln!(
                "line {}:\n  golden: {:?}\n  actual: {line}",
                i + 1,
                golden.get(i)
            );
        }
    }
    eprintln!("--- actual golden/sim_stats.txt ---\n{actual}--- end ---");
    panic!(
        "SimStats drifted from golden/sim_stats.txt ({} actual vs {} golden lines)",
        lines.len(),
        golden.len()
    );
}
