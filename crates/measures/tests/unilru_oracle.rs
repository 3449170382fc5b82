//! An exact oracle for uniLRU, independent of the golden files.
//!
//! With MRU insertion and one client, uniLRU keeps one LRU stack cut at
//! the cumulative level sizes: a reference at stack distance `d` hits the
//! level whose slice of the stack holds `d`, and misses beyond the last
//! one. So `UniLru::single_client`'s measured per-level hits must equal the
//! buckets of `ReuseHistogram::for_hierarchy` over the same warm-up, and
//! its misses the last bucket plus the cold references, on every trace.

use ulc_hierarchy::{simulate, UniLru};
use ulc_measures::ReuseHistogram;
use ulc_trace::{synthetic, Trace};

/// References per trace: a few seconds in a debug build, and long enough
/// that the third level serves hits in 21 of the 33 cells.
const REFS: usize = 100_000;

/// Per-level sizes of the three-level hierarchies, as in Fig 6.
const LEVEL_SIZES: [usize; 3] = [400, 1_600, 6_400];

#[test]
fn unilru_level_hits_equal_the_stack_distance_buckets() {
    let suites = [
        synthetic::single_client_suite(REFS),
        synthetic::small_suite(REFS),
    ];
    let mut cells = 0;
    for (name, trace) in suites.into_iter().flatten() {
        // One client: the multi-client `multi` trace is replayed as the
        // single stream its interleave makes.
        let trace = Trace::from_blocks(trace.iter().map(|r| r.block));
        let warmup = trace.warmup_len();
        for c in LEVEL_SIZES {
            let capacities = [c; 3];
            let stats = simulate(
                &mut UniLru::single_client(capacities.to_vec()),
                &trace,
                warmup,
            );
            let oracle = ReuseHistogram::for_hierarchy(&trace, &capacities, warmup);
            assert_eq!(
                stats.hits_by_level,
                oracle.counts[..3],
                "{name} at C = {c}: level hits"
            );
            assert_eq!(
                stats.misses,
                oracle.counts[3] + oracle.cold,
                "{name} at C = {c}: misses"
            );
            assert_eq!(stats.references, oracle.total, "{name} at C = {c}");
            cells += 1;
        }
    }
    assert_eq!(cells, 33);
}
