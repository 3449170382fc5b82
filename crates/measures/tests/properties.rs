//! Property-based tests for the measures framework: the fast analyses are
//! equivalent to the brute-force reference, and conservation laws hold.

use proptest::collection::vec;
use proptest::prelude::*;
use ulc_measures::{analyze, reference, MeasureKind};
use ulc_trace::{BlockId, Trace};

/// Traces guaranteed to touch at least `segments` distinct blocks.
fn trace_with_min_blocks(
    segments: u64,
    extra: impl Strategy<Value = Vec<u64>>,
) -> impl Strategy<Value = Trace> {
    extra.prop_map(move |tail| {
        let blocks = (0..segments)
            .chain(tail)
            .map(BlockId::new)
            .collect::<Vec<_>>();
        Trace::from_blocks(blocks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast == brute force for every measure on arbitrary traces.
    #[test]
    fn fast_analysis_equals_reference(
        trace in trace_with_min_blocks(8, vec(0u64..20, 0..150)),
        segments in 2usize..8,
    ) {
        for kind in MeasureKind::ALL {
            let fast = analyze(&trace, kind, segments);
            let slow = reference::analyze_slow(&trace, kind, segments);
            prop_assert_eq!(fast, slow, "measure {}", kind);
        }
    }

    /// Fast == brute force on scan/loop-heavy traces. Sequential scans
    /// drive the indexed LLD-R analyzer's drift and static→R transition
    /// machinery, and repeated loops exercise its unchanged-order fast
    /// path — the regimes a uniform-random trace rarely reaches.
    #[test]
    fn fast_analysis_equals_reference_on_scans_and_loops(
        pieces in vec((0u64..3, 0u64..24, 2u64..20), 1..12),
        segments in 2usize..8,
    ) {
        // Opening scan guarantees `segments` (< 8) distinct blocks.
        let mut blocks: Vec<BlockId> = (0..8).map(BlockId::new).collect();
        for (shape, base, len) in pieces {
            match shape {
                // Forward scan: every block's LLD grows with the scan.
                0 => blocks.extend((base..base + len).map(BlockId::new)),
                // Loop: the second lap repeats the first's locality scope.
                1 => {
                    for _ in 0..2 {
                        blocks.extend((base..base + len).map(BlockId::new));
                    }
                }
                // Hot spot: tight re-references keep recency dominant.
                _ => blocks.extend((0..len).map(|i| BlockId::new(base + i % 3))),
            }
        }
        let trace = Trace::from_blocks(blocks);
        for kind in MeasureKind::ALL {
            let fast = analyze(&trace, kind, segments);
            let slow = reference::analyze_slow(&trace, kind, segments);
            prop_assert_eq!(fast, slow, "measure {}", kind);
        }
    }

    /// Segment hits plus cold references account for every reference, for
    /// every measure.
    #[test]
    fn reference_conservation(
        trace in trace_with_min_blocks(10, vec(0u64..40, 0..300)),
    ) {
        for kind in MeasureKind::ALL {
            let r = analyze(&trace, kind, 10);
            let seg: u64 = r.reference_counts.iter().sum();
            prop_assert_eq!(seg + r.cold_references, r.total_references);
            prop_assert_eq!(r.total_references as usize, trace.len());
            prop_assert!(r.cold_references as usize >= trace.unique_blocks().min(trace.len()));
        }
    }

    /// Cumulative ratios are monotone and end at 1 - cold_fraction.
    #[test]
    fn cumulative_ratios_monotone(
        trace in trace_with_min_blocks(10, vec(0u64..30, 0..200)),
    ) {
        for kind in MeasureKind::ALL {
            let r = analyze(&trace, kind, 10);
            let cum = r.cumulative_ratios();
            for w in cum.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-12);
            }
            let cold = r.cold_references as f64 / r.total_references.max(1) as f64;
            prop_assert!((cum.last().unwrap() + cold - 1.0).abs() < 1e-9);
        }
    }

    /// The first reference to every block is cold under every measure (a
    /// block cannot be found in the list before it ever entered it).
    #[test]
    fn distinct_single_pass_is_all_cold(n in 10u64..60) {
        let trace = Trace::from_blocks((0..n).map(BlockId::new));
        for kind in MeasureKind::ALL {
            let r = analyze(&trace, kind, 10);
            prop_assert_eq!(r.cold_references, n);
            prop_assert_eq!(r.reference_counts.iter().sum::<u64>(), 0);
        }
    }
}
