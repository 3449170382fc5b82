//! Reuse-distance (stack-distance) histograms for workload
//! characterisation.
//!
//! The whole ULC argument rests on *where* a workload's re-references
//! fall relative to the hierarchy's level boundaries: distances inside
//! `|L₁|` are client hits for everyone, distances inside the aggregate
//! reward exclusive placement, distances beyond it reward nobody. This
//! module computes the histogram and the derived "ideal" per-level hit
//! shares that an oracle placement of a given hierarchy could reach.

use ulc_cache::lru_stack_distances;
use ulc_trace::Trace;

/// A histogram of LRU stack distances with caller-chosen bucket edges.
#[derive(Clone, Debug, PartialEq)]
pub struct ReuseHistogram {
    /// Upper edges of the buckets (exclusive), ascending.
    pub edges: Vec<usize>,
    /// Re-reference counts per bucket; the last entry counts distances
    /// at or beyond the final edge.
    pub counts: Vec<u64>,
    /// First accesses (no reuse distance).
    pub cold: u64,
    /// Total references.
    pub total: u64,
}

impl ReuseHistogram {
    /// Computes the histogram of `trace` with the given bucket `edges`.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly ascending.
    pub fn compute(trace: &Trace, edges: &[usize]) -> Self {
        ReuseHistogram::compute_after(trace, edges, 0)
    }

    /// Computes the histogram with bucket edges at the cumulative level
    /// capacities of a hierarchy, counting only the references after the
    /// first `warmup`, as `ulc_hierarchy::simulate` measures them (the
    /// warm-up still shapes the stack). Bucket `i` then holds exactly the
    /// re-references an oracle *unified* placement could serve from level
    /// `i`: with MRU insertion and one client, uniLRU's level-`i` hits
    /// (`tests/unilru_oracle.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or holds a zero, or if `warmup`
    /// exceeds the trace length.
    pub fn for_hierarchy(trace: &Trace, capacities: &[usize], warmup: usize) -> Self {
        let mut edges = Vec::with_capacity(capacities.len());
        let mut acc = 0usize;
        for &c in capacities {
            acc += c;
            edges.push(acc);
        }
        ReuseHistogram::compute_after(trace, &edges, warmup)
    }

    fn compute_after(trace: &Trace, edges: &[usize], warmup: usize) -> Self {
        assert!(!edges.is_empty(), "at least one bucket edge is required");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly ascending"
        );
        assert!(warmup <= trace.len(), "warm-up longer than the trace");
        let blocks: Vec<u64> = trace.iter().map(|r| r.block.raw()).collect();
        let mut counts = vec![0u64; edges.len() + 1];
        let mut cold = 0u64;
        for d in lru_stack_distances(&blocks).into_iter().skip(warmup) {
            match d {
                Some(d) => {
                    let bucket = edges.partition_point(|&e| e <= d);
                    counts[bucket] += 1;
                }
                None => cold += 1,
            }
        }
        ReuseHistogram {
            edges: edges.to_vec(),
            counts,
            cold,
            total: (trace.len() - warmup) as u64,
        }
    }

    /// Fraction of all references in each bucket.
    pub fn fractions(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total.max(1) as f64)
            .collect()
    }

    /// Fraction of references that are first touches.
    pub fn cold_fraction(&self) -> f64 {
        self.cold as f64 / self.total.max(1) as f64
    }

    /// The aggregate hit rate an exclusive recency-based hierarchy of
    /// these capacities could reach: everything but the final bucket and
    /// the cold misses.
    pub fn unified_hit_ceiling(&self) -> f64 {
        let beyond = *self.counts.last().expect("non-empty counts");
        1.0 - (beyond + self.cold) as f64 / self.total.max(1) as f64
    }
}

impl std::fmt::Display for ReuseHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut lo = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            let share = c as f64 / self.total.max(1) as f64;
            match self.edges.get(i) {
                Some(&hi) => writeln!(f, "  [{lo:>8}, {hi:>8})  {:>6.1}%", 100.0 * share)?,
                None => writeln!(f, "  [{lo:>8},      inf)  {:>6.1}%", 100.0 * share)?,
            }
            lo = *self.edges.get(i).unwrap_or(&lo);
        }
        write!(
            f,
            "  cold               {:>6.1}%",
            100.0 * self.cold_fraction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulc_trace::{synthetic, BlockId, Trace};

    #[test]
    fn loop_mass_sits_in_one_bucket() {
        // A loop over N blocks re-references everything at distance N-1.
        let t = synthetic::cs(3 * synthetic::CS_BLOCKS as usize);
        let n = synthetic::CS_BLOCKS as usize;
        let h = ReuseHistogram::compute(&t, &[n - 1, n]);
        assert_eq!(h.counts[0], 0);
        assert_eq!(h.counts[1] as usize, 2 * n); // [n-1, n)
        assert_eq!(h.counts[2], 0);
        assert_eq!(h.cold as usize, n);
    }

    #[test]
    fn hierarchy_edges_are_cumulative() {
        let t = Trace::from_blocks((0..10u64).map(BlockId::new));
        let h = ReuseHistogram::for_hierarchy(&t, &[4, 4, 4], 0);
        assert_eq!(h.edges, vec![4, 8, 12]);
    }

    #[test]
    fn warmup_references_shape_the_stack_but_are_not_counted() {
        // Two passes over ten blocks: the first pass is all cold, every
        // reference of the second sits at distance 9.
        let t = Trace::from_blocks((0..20u64).map(|b| BlockId::new(b % 10)));
        let h = ReuseHistogram::for_hierarchy(&t, &[4, 4, 4], 10);
        assert_eq!((h.cold, h.total), (0, 10));
        assert_eq!(h.counts, vec![0, 0, 10, 0]);
    }

    #[test]
    fn ceiling_matches_unified_lru_on_a_fitting_loop() {
        let t = synthetic::cs(50_000);
        let h = ReuseHistogram::for_hierarchy(&t, &[1_000, 1_000, 1_000], 0);
        // Everything except cold fits the aggregate.
        assert!(h.unified_hit_ceiling() > 0.94);
        let bound = ulc_hierarchy::bound::aggregate_lru_hit_rate(&t, 3_000, 0);
        assert!((h.unified_hit_ceiling() - bound).abs() < 0.06);
    }

    #[test]
    fn fractions_sum_with_cold_to_one() {
        let t = synthetic::zipf_small(20_000);
        let h = ReuseHistogram::for_hierarchy(&t, &[100, 400], 0);
        let sum: f64 = h.fractions().iter().sum::<f64>() + h.cold_fraction();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_lists_every_bucket() {
        let t = synthetic::sprite(5_000);
        let text = format!("{}", ReuseHistogram::compute(&t, &[10, 100]));
        assert!(text.contains("inf"));
        assert!(text.contains("cold"));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_edges_rejected() {
        let t = synthetic::sprite(100);
        let _ = ReuseHistogram::compute(&t, &[10, 10]);
    }
}
