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
//! The cells are the catalog in `common/grid.rs`, which the alloc gate
//! shares.
//!
//! There is no bless switch. On a mismatch the test prints the whole
//! actual text, so an intended change to simulated numbers is a
//! deliberate edit of the golden file that shows in the diff.

use common::grid;
use ulc_hierarchy::{simulate, MultiLevelPolicy};
use ulc_trace::Trace;

mod common;

const GOLDEN: &str = include_str!("golden/sim_stats.txt");

/// Collects each cell's line, in golden-file order.
struct Lines(Vec<String>);

impl grid::Cells for Lines {
    /// Replays one cell through the three drivers, each on a fresh engine
    /// from `make`, requires them to agree, and records the cell's line.
    fn cell<P: MultiLevelPolicy>(&mut self, name: &str, trace: &Trace, make: impl Fn() -> P) {
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
        self.0.push(format!("{name}: {stats:?}"));
    }
}

#[test]
fn every_cell_matches_the_golden_grid() {
    let mut lines = Lines(Vec::new());
    grid::visit(&mut lines);
    let lines = lines.0;
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
