//! §5's O(1) claim as a count. Apart from a constant number of row and
//! slot touches, the `uniLRUstack`'s work per access is the log slots its
//! yardstick scans, trims and compactions visit, which
//! `UniLruStack::slots_scanned` counts. Their mean per access must stay
//! under one constant on looping, Zipf and temporal traces whose levels
//! hold 1k, 10k and 100k blocks each: the cost per access does not grow
//! with the level size.

use ulc_core::{AccessScratch, UniLruStack};
use ulc_trace::patterns::{LoopingPattern, Pattern, TemporalPattern, ZipfPattern};

/// The bound on the mean of scanned slots per access, fixed before the
/// first run. A compaction visits at most two slots per push and the
/// tail passes each slot once, so the rest is yardstick scans.
const MAX_MEAN_SLOTS: f64 = 8.0;

/// Levels per hierarchy.
const LEVELS: usize = 3;

/// Replays `refs` references of `pattern` through a stack of [`LEVELS`]
/// levels of `per_level` blocks; returns the mean of scanned slots per
/// access.
fn mean_scanned(per_level: usize, pattern: &mut dyn Pattern, refs: usize) -> f64 {
    let mut stack = UniLruStack::new(vec![per_level; LEVELS]);
    let mut scratch = AccessScratch::new();
    for _ in 0..refs {
        stack.access_into(pattern.next_block(), &mut scratch);
    }
    stack.slots_scanned() as f64 / refs as f64
}

#[test]
fn scanned_slots_per_access_stay_under_a_constant() {
    for per_level in [1_000usize, 10_000, 100_000] {
        let n = per_level as u64;
        // Every footprint exceeds the aggregate 3n, so all three levels
        // fill, demote and evict; each trace is 12n references long.
        let refs = 12 * per_level;
        let cases: [(&str, Box<dyn Pattern>); 3] = [
            ("looping", Box::new(LoopingPattern::new(4 * n))),
            ("zipf", Box::new(ZipfPattern::new(8 * n, 1.0, 0x5ca7))),
            (
                "temporal",
                Box::new(TemporalPattern::new(8 * n, 1.0 - 0.5 / n as f64, 0x5ca8)),
            ),
        ];
        for (name, mut pattern) in cases {
            let mean = mean_scanned(per_level, &mut *pattern, refs);
            eprintln!("{name} at {per_level} blocks per level: {mean:.3} slots per access");
            assert!(
                mean < MAX_MEAN_SLOTS,
                "{name} at {per_level} blocks per level scanned {mean:.3} slots per access, \
                 over the bound {MAX_MEAN_SLOTS}"
            );
        }
    }
}
