//! Multi-client demo: several clients share one server cache under ULC.
//! Shows the gLRU dynamic allocation shifting with client demand, and the
//! scheme comparison of §4.4.
//!
//! ```text
//! cargo run --release --example multi_client
//! ```

use ulc::core::{UlcMulti, UlcMultiConfig};
use ulc::hierarchy::{
    simulate, CostModel, IndLru, LruMqServer, MultiLevelPolicy, UniLru, UniLruVariant,
};
use ulc::trace::synthetic;

fn main() {
    let refs = 300_000;
    let trace = synthetic::db2_multi(refs, 80_000);
    let clients = 8usize;
    let client_blocks = 2_048;
    let server_blocks = 24_576;
    let costs = CostModel::paper_two_level();
    let caps = vec![client_blocks; clients];

    println!(
        "db2-like workload: {clients} clients x {client_blocks} blocks over a \
         {server_blocks}-block server\n"
    );

    let mut schemes: Vec<Box<dyn MultiLevelPolicy>> = vec![
        Box::new(IndLru::multi_client(caps.clone(), vec![server_blocks])),
        Box::new(UniLru::multi_client(
            caps.clone(),
            vec![server_blocks],
            UniLruVariant::MruInsert,
        )),
        Box::new(LruMqServer::new(caps.clone(), server_blocks)),
        Box::new(UlcMulti::new(UlcMultiConfig {
            client_capacities: caps,
            server_capacity: server_blocks,
            claim_rule: Default::default(),
        })),
    ];
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>12} {:>10}",
        "scheme", "h(client)", "h(server)", "miss", "demote rate", "T_ave"
    );
    for scheme in schemes.iter_mut() {
        let stats = simulate(scheme.as_mut(), &trace, trace.warmup_len());
        println!(
            "{:<8} {:>8.1}% {:>8.1}% {:>8.1}% {:>11.3} {:>8.2}ms",
            scheme.name(),
            100.0 * stats.hit_rates()[0],
            100.0 * stats.hit_rates()[1],
            100.0 * stats.miss_rate(),
            stats.demotion_rates()[0],
            stats.average_access_time(&costs)
        );
    }

    // Show the dynamic server allocation under ULC.
    let mut ulc = UlcMulti::new(UlcMultiConfig::uniform(
        clients,
        client_blocks,
        server_blocks,
    ));
    let _ = simulate(&mut ulc, &trace, 0);
    println!("\nULC server allocation (blocks owned per client):");
    for (c, owned) in ulc.server_allocation().iter().enumerate() {
        println!("  client {c}: {owned}");
    }
}
