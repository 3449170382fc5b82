//! Bring your own trace: compose a custom workload (or load one from a
//! file), run ULC on it, and put the result in context with the offline
//! OPT and aggregate-LRU bounds.
//!
//! ```text
//! cargo run --release --example custom_trace [path/to/trace.txt]
//! ```
//!
//! The optional file uses the `ulc::trace::io` text format (`client block`
//! per line). Without a file, a composed workload is generated.

use ulc::core::{UlcConfig, UlcSingle};
use ulc::hierarchy::{bound, simulate, CostModel};
use ulc::trace::patterns::{LoopingPattern, MixedPattern, Phase, TemporalPattern, ZipfPattern};
use ulc::trace::{io, Trace, TraceStats};

fn composed_workload() -> Trace {
    use ulc::trace::patterns::Pattern;
    // A database-flavoured mix: hot index (zipf), nightly scan (loop),
    // buffer-pool churn (temporal).
    MixedPattern::new(vec![
        Phase::new(Box::new(ZipfPattern::new(2_000, 1.0, 7)), 4_000),
        Phase::new(
            Box::new(LoopingPattern::new(3_000).with_base(10_000)),
            3_000,
        ),
        Phase::new(
            Box::new(TemporalPattern::new(1_500, 0.99, 8).with_base(20_000)),
            3_000,
        ),
    ])
    .generate(200_000)
}

fn main() {
    let trace = match std::env::args().nth(1) {
        Some(path) => {
            let file = std::fs::File::open(&path).expect("trace file should open");
            io::read_text(file).expect("trace file should parse")
        }
        None => composed_workload(),
    };
    println!("trace: {}", TraceStats::compute(&trace));

    let caps = vec![800usize, 800, 800];
    let aggregate: usize = caps.iter().sum();
    let warmup = trace.warmup_len();

    let mut ulc = UlcSingle::new(UlcConfig::new(caps));
    let stats = simulate(&mut ulc, &trace, warmup);
    let costs = CostModel::paper_three_level();

    println!(
        "\nULC:       total hit rate {:>6.1}%",
        100.0 * stats.total_hit_rate()
    );
    println!(
        "bounds:    aggregate LRU  {:>6.1}%   offline OPT {:>6.1}%",
        100.0 * bound::aggregate_lru_hit_rate(&trace, aggregate, warmup),
        100.0 * bound::opt_hit_rate(&trace, aggregate, warmup),
    );
    let h = stats.hit_rates();
    println!(
        "placement: L1 {:>5.1}%  L2 {:>5.1}%  L3 {:>5.1}%  (T_ave {:.2} ms)",
        100.0 * h[0],
        100.0 * h[1],
        100.0 * h[2],
        stats.average_access_time(&costs)
    );
    // A Retrieve per reference, from the level that hit or from disk,
    // and a Demote per transfer.
    println!(
        "messages:  {} retrieves, {} demotes over {} measured references",
        stats.hits_by_level.iter().sum::<u64>() + stats.misses,
        stats.demotions_by_boundary.iter().sum::<u64>(),
        stats.references
    );
}
