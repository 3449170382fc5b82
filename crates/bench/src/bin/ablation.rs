//! Runs the E7 ablation studies. Usage:
//! `ablation [--scale=smoke|default|full]`.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

use ulc_bench::{ablation, Scale};

fn main() {
    let scale = Scale::from_args();
    print!(
        "{}",
        ablation::render(
            "Ablation A: counting tempLRU hits (extension of §3.2 footnote 3)",
            &ablation::temp_lru_hits(scale),
        )
    );
    println!();
    print!(
        "{}",
        ablation::render(
            "Ablation B: uniLRUstack metadata budget (§5 trimming claim)",
            &ablation::stack_limit(scale),
        )
    );
    println!();
    print!(
        "{}",
        ablation::render(
            "Ablation C: multi-client cold-claim rule (DESIGN.md 5a)",
            &ablation::claim_rule(scale),
        )
    );
}
