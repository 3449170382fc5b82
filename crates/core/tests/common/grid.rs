//! The golden grid's cell catalog: every engine × configuration × smoke
//! workload, in `golden/sim_stats.txt` order.
//!
//! ULC-single, the three uniLRU variants, indLRU, evict-reload at latency
//! 0 and 7, a demotion-buffered uniLRU and LRU+MQ run over every
//! smoke-scale single-client trace; ULC-multi over the three multi-client
//! workloads (httpd's file-set ids land in `BlockMap`'s sparse tier); and
//! the crashy `FaultyPlane` legs ULC/httpd and uniLRU/cs.
//!
//! Two gates visit it: `golden_stats.rs` freezes each cell's `SimStats`,
//! and `crates/bench/tests/alloc_gate.rs` (which compiles this file
//! through `#[path]`) holds each cell to zero steady-state allocations.

use super::{crashy_mild_scenario, multi_client_workloads, single_client_workloads};
use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::plane::FaultyPlane;
use ulc_hierarchy::{
    DemotionBuffer, EvictionBased, IndLru, LruMqServer, MultiLevelPolicy, UniLru, UniLruVariant,
};
use ulc_trace::{synthetic, Trace};

/// What a gate does with one cell; `make` builds a fresh engine for it.
pub trait Cells {
    fn cell<P: MultiLevelPolicy>(&mut self, name: &str, trace: &Trace, make: impl Fn() -> P);
}

/// Hands every cell of the grid to `gate`, in golden-file order.
pub fn visit(gate: &mut impl Cells) {
    for (name, trace) in single_client_workloads() {
        gate.cell(&format!("ULC-single/{name}"), &trace, || {
            UlcSingle::new(UlcConfig::new(vec![400, 400, 400]))
        });
        for variant in [
            UniLruVariant::MruInsert,
            UniLruVariant::LruInsert,
            UniLruVariant::Adaptive,
        ] {
            gate.cell(&format!("uniLRU/{variant:?}/{name}"), &trace, || {
                UniLru::multi_client(vec![400], vec![400, 400], variant)
            });
        }
        gate.cell(&format!("indLRU/{name}"), &trace, || {
            IndLru::single_client(vec![400, 400, 400])
        });
        for latency in [0u64, 7] {
            gate.cell(&format!("evict-reload/{latency}/{name}"), &trace, || {
                EvictionBased::new(vec![400], 800, latency)
            });
        }
        gate.cell(&format!("buffered/{name}"), &trace, || {
            DemotionBuffer::new(UniLru::single_client(vec![400, 400]), 16, 0.2)
        });
        gate.cell(&format!("LRU+MQ/{name}"), &trace, || {
            LruMqServer::new(vec![400], 800)
        });
    }
    for (name, trace, clients) in multi_client_workloads() {
        gate.cell(&format!("ULC/{name}"), &trace, || {
            UlcMulti::new(UlcMultiConfig::uniform(clients, 256, 2048))
        });
    }

    let scenario = crashy_mild_scenario();
    gate.cell("ULC/faulty/httpd", &synthetic::httpd_multi(30_000), || {
        UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048))
            .with_plane(FaultyPlane::new(scenario.clone()))
    });
    gate.cell("uniLRU/faulty/cs", &synthetic::cs(30_000), || {
        UniLru::single_client(vec![500, 500, 500]).with_plane(FaultyPlane::new(scenario.clone()))
    });
}
