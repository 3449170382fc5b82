//! Illustrates Figure 1: how ND, R, NLD and LLD-R evolve for concrete
//! blocks of a small trace — and why LLD-R is the stable online stand-in
//! for NLD.
//!
//! ```text
//! cargo run --release -p ulc-bench --bin fig1
//! ```

use ulc_measures::{trace_measures, INFINITE};
use ulc_trace::{BlockId, Trace};

fn show(v: u64) -> String {
    if v == INFINITE {
        "inf".into()
    } else {
        v.to_string()
    }
}

fn main() {
    // A block `A` with looping behaviour embedded in other traffic:
    //   A . . . A . . . A  (re-referenced at recency 3 each time)
    let ids: Vec<u64> = vec![0, 1, 2, 3, 0, 4, 5, 6, 0, 7, 8, 9, 0];
    let trace = Trace::from_blocks(ids.iter().map(|&i| BlockId::new(i)));
    let samples = trace_measures(&trace);

    println!("Figure 1: measure evolution (block 0 re-referenced at recency 3)\n");
    println!(
        "{:>4} {:>6} {:>6} {:>8} {:>6} {:>6}",
        "ref", "block", "R", "LLD-R", "ND", "NLD"
    );
    for (i, s) in samples.iter().enumerate() {
        println!(
            "{:>4} {:>6} {:>6} {:>8} {:>6} {:>6}",
            i,
            s.block,
            show(s.recency),
            show(s.lld_r),
            show(s.next_distance),
            show(s.next_locality_distance),
        );
    }
    println!(
        "\nBetween block 0's references its R climbs 0→3 while its LLD stays\n\
         3, so LLD-R is constant at 3 — matching NLD exactly, without future\n\
         knowledge. R and ND change at every single reference; ranking by\n\
         them moves blocks between cache levels constantly (Figure 3), while\n\
         an LLD-R ranking leaves block 0 parked at the level that recency-3\n\
         blocks deserve. That parking spot is what ULC's yardsticks compute."
    );
}
