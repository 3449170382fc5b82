//! Property tests for the observability histograms and registry merge:
//! merging is associative and commutative, bucket counts are conserved
//! under any split/merge of the recorded value stream, and
//! `bucket_index`/`bounds` round-trip exactly on every boundary value
//! (0, 1, powers of two ± 1, `u64::MAX`).

use proptest::prelude::*;
use ulc_obs::{CounterId, HistId, MetricsRegistry, Pow2Histogram, POW2_BUCKETS};

fn hist_of(values: &[u64]) -> Pow2Histogram {
    let mut h = Pow2Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The exact bucket-edge values of the power-of-two histogram: 0, 1,
/// every `2^k - 1`, `2^k`, `2^k + 1`, and `u64::MAX`.
fn bucket_edge_values() -> Vec<u64> {
    let mut vals = vec![0u64, 1, u64::MAX];
    for k in 1..64u32 {
        let p = 1u64 << k;
        vals.push(p - 1);
        vals.push(p);
        vals.push(p.saturating_add(1));
    }
    vals
}

#[test]
fn bucket_index_and_bounds_round_trip_on_every_edge() {
    for v in bucket_edge_values() {
        let i = Pow2Histogram::bucket_index(v);
        assert!(i < POW2_BUCKETS, "value {v} indexed out of range");
        let (lo, hi) = Pow2Histogram::bounds(i);
        assert!(
            lo <= v && v <= hi,
            "value {v} outside bucket {i} [{lo}, {hi}]"
        );
        // The bounds themselves map back to the same bucket.
        assert_eq!(Pow2Histogram::bucket_index(lo), i, "lo bound of bucket {i}");
        assert_eq!(Pow2Histogram::bucket_index(hi), i, "hi bound of bucket {i}");
    }
    // Buckets tile the u64 axis with no gaps or overlaps.
    for i in 0..POW2_BUCKETS - 1 {
        let (_, hi) = Pow2Histogram::bounds(i);
        let (lo_next, _) = Pow2Histogram::bounds(i + 1);
        assert_eq!(hi + 1, lo_next, "gap between buckets {i} and {}", i + 1);
    }
    assert_eq!(Pow2Histogram::bounds(POW2_BUCKETS - 1).1, u64::MAX);
}

fn registry_of(levels: usize, values: &[u64]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new(levels);
    for &v in values {
        m.inc(CounterId::Accesses);
        m.observe(HistId::SpanCost, v);
        if let Some(row) = m.level_mut((v % levels as u64) as usize) {
            row.hits += 1;
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn split_merge_conserves_buckets(
        values in proptest::collection::vec(any::<u64>(), 0..200),
        split in 0usize..200,
    ) {
        let cut = split.min(values.len());
        let mut left = hist_of(&values[..cut]);
        let right = hist_of(&values[cut..]);
        left.merge(&right);
        let whole = hist_of(&values);
        prop_assert_eq!(left, whole);
    }

    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..100),
        b in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut ab = hist_of(&a);
        ab.merge(&hist_of(&b));
        let mut ba = hist_of(&b);
        ba.merge(&hist_of(&a));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(any::<u64>(), 0..80),
        b in proptest::collection::vec(any::<u64>(), 0..80),
        c in proptest::collection::vec(any::<u64>(), 0..80),
    ) {
        // (a + b) + c
        let mut left = hist_of(&a);
        left.merge(&hist_of(&b));
        left.merge(&hist_of(&c));
        // a + (b + c)
        let mut bc = hist_of(&b);
        bc.merge(&hist_of(&c));
        let mut right = hist_of(&a);
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn every_value_lands_in_its_bounds_bucket(v in any::<u64>()) {
        let i = Pow2Histogram::bucket_index(v);
        prop_assert!(i < POW2_BUCKETS);
        let (lo, hi) = Pow2Histogram::bounds(i);
        prop_assert!(lo <= v && v <= hi);
        let h = hist_of(&[v]);
        prop_assert_eq!(h.bucket(i), 1);
        prop_assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_merge_matches_whole_run(
        values in proptest::collection::vec(any::<u64>(), 0..150),
        split in 0usize..150,
        levels in 1usize..4,
    ) {
        let cut = split.min(values.len());
        let mut merged = registry_of(levels, &values[..cut]);
        merged.merge(&registry_of(levels, &values[cut..]));
        prop_assert_eq!(merged, registry_of(levels, &values));
    }

    #[test]
    fn edge_values_survive_split_merge(
        picks in proptest::collection::vec(0usize..192, 0..60),
        split in 0usize..60,
    ) {
        // Same conservation law, but drawing only from the bucket-edge
        // values where an off-by-one in `bucket_index` would bite.
        let edges = bucket_edge_values();
        let values: Vec<u64> = picks.iter().map(|&i| edges[i % edges.len()]).collect();
        let cut = split.min(values.len());
        let mut left = hist_of(&values[..cut]);
        left.merge(&hist_of(&values[cut..]));
        prop_assert_eq!(left, hist_of(&values));
    }
}
