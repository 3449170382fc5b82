//! Pre-registered counters and power-of-two-bucket histograms.
//!
//! Everything in the registry is fixed-size and allocated at
//! construction ([`MetricsRegistry::new`]): a flat counter array, one
//! [`LevelCounters`] row per hierarchy level and a small fixed set of
//! [`Pow2Histogram`]s. Recording is index arithmetic only, so the hot
//! path stays allocation-free. [`MetricsRegistry::merge`] adds one
//! registry into another; `TimelineSampler::summed` uses it to total
//! the windows, and its laws are proven by proptest in
//! `tests/hist_props.rs`.

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1..=64) holds values whose bit length is `i`, i.e. `[2^(i-1), 2^i)`.
pub const POW2_BUCKETS: usize = 65;

/// Whole-run counters, one slot each, identified by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CounterId {
    /// References observed (`begin_access` calls).
    Accesses,
    /// Hits at any level.
    Hits,
    /// References served from `L_out`.
    Misses,
    /// Blocks installed at a level (placements + reloads).
    Retrieves,
    /// Boundary crossings (one per boundary, matching
    /// `SimStats::demotions_by_boundary` totals plus buffered ones).
    Demotions,
    /// Demotions absorbed by a `DemotionBuffer` instead of surfacing in
    /// the per-access outcome.
    DemotionsBuffered,
    /// Blocks dropped from the hierarchy to `L_out`.
    Evictions,
    /// Recovery reconciliation rounds.
    Reconciles,
    /// Faults the protocol observed and worked around.
    Faults,
    /// Transport faults tallied from the run's fault summary
    /// (`ulc_hierarchy::FaultSummary::transport_faults`).
    PlaneFaults,
    /// Synchronous RPC round-trips issued to lower levels.
    Rpcs,
}

impl CounterId {
    /// Every counter, in declaration order.
    pub const ALL: [CounterId; 11] = [
        CounterId::Accesses,
        CounterId::Hits,
        CounterId::Misses,
        CounterId::Retrieves,
        CounterId::Demotions,
        CounterId::DemotionsBuffered,
        CounterId::Evictions,
        CounterId::Reconciles,
        CounterId::Faults,
        CounterId::PlaneFaults,
        CounterId::Rpcs,
    ];

    /// Stable snake_case name for exports.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Accesses => "accesses",
            CounterId::Hits => "hits",
            CounterId::Misses => "misses",
            CounterId::Retrieves => "retrieves",
            CounterId::Demotions => "demotions",
            CounterId::DemotionsBuffered => "demotions_buffered",
            CounterId::Evictions => "evictions",
            CounterId::Reconciles => "reconciles",
            CounterId::Faults => "faults",
            CounterId::PlaneFaults => "plane_faults",
            CounterId::Rpcs => "rpcs",
        }
    }
}

/// The pre-registered histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HistId {
    /// Demotions emitted per access (only accesses that demoted).
    DemoteBatch,
    /// RPC round-trips per access (only accesses that issued RPCs).
    RpcRounds,
    /// Modeled cost of one access span — RPC rounds, demotions and
    /// misses weighted by the level they reach
    /// ([`crate::SpanCostModel`]); only accesses with nonzero cost.
    SpanCost,
}

impl HistId {
    /// Every histogram, in declaration order.
    pub const ALL: [HistId; 3] = [HistId::DemoteBatch, HistId::RpcRounds, HistId::SpanCost];

    /// Stable snake_case name for exports.
    pub fn name(self) -> &'static str {
        match self {
            HistId::DemoteBatch => "demote_batch",
            HistId::RpcRounds => "rpc_rounds",
            HistId::SpanCost => "span_cost",
        }
    }
}

/// A histogram over `u64` values with power-of-two bucket boundaries.
///
/// Fixed storage, no allocation ever; `record` is a `leading_zeros` and
/// two adds. Bucket `i`'s range is given by [`Pow2Histogram::bounds`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pow2Histogram {
    buckets: [u64; POW2_BUCKETS],
    count: u64,
    total: u64,
}

impl Default for Pow2Histogram {
    fn default() -> Self {
        Pow2Histogram::new()
    }
}

impl Pow2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Pow2Histogram {
            buckets: [0; POW2_BUCKETS],
            count: 0,
            total: 0,
        }
    }

    /// Bucket index a value falls into.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Inclusive `(lo, hi)` range of bucket `index`.
    ///
    /// # Panics
    /// Panics if `index >= POW2_BUCKETS`.
    pub fn bounds(index: usize) -> (u64, u64) {
        assert!(index < POW2_BUCKETS, "bucket index out of range");
        if index == 0 {
            (0, 0)
        } else if index == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (index - 1), (1 << index) - 1)
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Pow2Histogram::bucket_index(value)] += 1;
        self.count += 1;
        self.total = self.total.wrapping_add(value);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values. Wrapping, so merging stays exactly
    /// associative/commutative even on adversarial inputs; realistic
    /// totals (batch sizes, span costs) never approach the wrap.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bucket `index` (see [`Pow2Histogram::bounds`]).
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// `(lo, hi, count)` for every nonzero bucket, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = Pow2Histogram::bounds(i);
                (lo, hi, n)
            })
    }

    /// Adds `other`'s contents into `self`. Associative and commutative.
    pub fn merge(&mut self, other: &Pow2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total = self.total.wrapping_add(other.total);
    }
}

/// Per-level tallies. For boundary-indexed fields (demotions, buffered)
/// the row at index `b` describes boundary `b` (level `b` → `b + 1`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelCounters {
    /// Hits served at this level.
    pub hits: u64,
    /// Blocks installed at this level.
    pub retrieves: u64,
    /// Demotions across this boundary (including buffered ones).
    pub demotions: u64,
    /// Demotions across this boundary absorbed by a demotion buffer.
    pub buffered: u64,
    /// Blocks evicted from this level to `L_out`.
    pub evictions: u64,
}

/// The fixed-shape registry: counters, per-level rows and histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: [u64; CounterId::ALL.len()],
    per_level: Vec<LevelCounters>,
    hists: [Pow2Histogram; HistId::ALL.len()],
}

impl MetricsRegistry {
    /// A registry for a hierarchy with `levels` cache levels. This is
    /// the only allocating call; everything after is index arithmetic.
    pub fn new(levels: usize) -> Self {
        MetricsRegistry {
            counters: [0; CounterId::ALL.len()],
            per_level: vec![LevelCounters::default(); levels],
            hists: [
                Pow2Histogram::new(),
                Pow2Histogram::new(),
                Pow2Histogram::new(),
            ],
        }
    }

    /// Cache levels this registry was sized for.
    pub fn levels(&self) -> usize {
        self.per_level.len()
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id as usize] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id as usize] += n;
    }

    /// Current value of a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// Read-only per-level row. Out-of-range levels (the `L_out`
    /// sentinel) return a zero row.
    pub fn level(&self, level: usize) -> LevelCounters {
        self.per_level.get(level).copied().unwrap_or_default()
    }

    /// Mutable per-level row, `None` for out-of-range levels.
    #[inline]
    pub fn level_mut(&mut self, level: usize) -> Option<&mut LevelCounters> {
        self.per_level.get_mut(level)
    }

    /// Records a value into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, value: u64) {
        self.hists[id as usize].record(value);
    }

    /// Read-only histogram access.
    pub fn hist(&self, id: HistId) -> &Pow2Histogram {
        &self.hists[id as usize]
    }

    /// Adds `other`'s tallies into `self`. Associative and commutative.
    ///
    /// # Panics
    /// Panics if the two registries were sized for different hierarchies.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        assert_eq!(
            self.per_level.len(),
            other.per_level.len(),
            "cannot merge registries sized for different hierarchies"
        );
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c += o;
        }
        for (l, o) in self.per_level.iter_mut().zip(other.per_level.iter()) {
            l.hits += o.hits;
            l.retrieves += o.retrieves;
            l.demotions += o.demotions;
            l.buffered += o.buffered;
            l.evictions += o.evictions;
        }
        for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
            h.merge(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = Pow2Histogram::bucket_index(v);
            let (lo, hi) = Pow2Histogram::bounds(i);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside bucket {i} [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn record_tracks_count_and_total() {
        let mut h = Pow2Histogram::new();
        for v in [0u64, 1, 5, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.total(), 111);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(Pow2Histogram::bucket_index(5)), 2);
    }

    #[test]
    fn registry_merge_adds_everything() {
        let mut a = MetricsRegistry::new(2);
        let mut b = MetricsRegistry::new(2);
        a.inc(CounterId::Hits);
        b.add(CounterId::Hits, 4);
        if let Some(row) = a.level_mut(1) {
            row.demotions += 3;
        }
        if let Some(row) = b.level_mut(1) {
            row.demotions += 2;
        }
        a.observe(HistId::DemoteBatch, 8);
        b.observe(HistId::DemoteBatch, 9);
        a.merge(&b);
        assert_eq!(a.counter(CounterId::Hits), 5);
        assert_eq!(a.level(1).demotions, 5);
        assert_eq!(a.hist(HistId::DemoteBatch).count(), 2);
    }

    #[test]
    #[should_panic(expected = "different hierarchies")]
    fn merge_rejects_mismatched_levels() {
        let mut a = MetricsRegistry::new(2);
        let b = MetricsRegistry::new(3);
        a.merge(&b);
    }
}
