//! Offline reference bounds for hierarchy hit rates.
//!
//! No multi-level protocol can beat Belady's OPT running on a single
//! cache of aggregate size; unified LRU defines the online recency
//! baseline at the same size. These bounds put every measured hit rate
//! in context (used by EXPERIMENTS.md).

use ulc_cache::{next_use_times, LruCache, OptCache};
use ulc_trace::Trace;

/// Hit rate of Belady's OPT with `capacity` blocks on the measured
/// portion of `trace` (after `warmup` references).
///
/// # Panics
///
/// Panics if `warmup` exceeds the trace length or `capacity` is zero.
pub fn opt_hit_rate(trace: &Trace, capacity: usize, warmup: usize) -> f64 {
    assert!(warmup <= trace.len(), "warm-up longer than the trace");
    let blocks: Vec<u64> = trace.iter().map(|r| r.block.raw()).collect();
    let next = next_use_times(&blocks);
    let mut opt = OptCache::new(capacity);
    let mut hits = 0usize;
    for (i, &b) in blocks.iter().enumerate() {
        let hit = opt.access(b, next[i]).is_hit();
        if i >= warmup && hit {
            hits += 1;
        }
    }
    hits as f64 / (trace.len() - warmup).max(1) as f64
}

/// Hit rate of a single LRU cache of `capacity` blocks on the measured
/// portion of `trace` — what unified LRU achieves in aggregate.
///
/// # Panics
///
/// Panics if `warmup` exceeds the trace length or `capacity` is zero.
pub fn aggregate_lru_hit_rate(trace: &Trace, capacity: usize, warmup: usize) -> f64 {
    assert!(warmup <= trace.len(), "warm-up longer than the trace");
    let mut lru = LruCache::new(capacity);
    let mut hits = 0usize;
    for (i, r) in trace.iter().enumerate() {
        let hit = lru.access(r.block).is_hit();
        if i >= warmup && hit {
            hits += 1;
        }
    }
    hits as f64 / (trace.len() - warmup).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, UniLru};
    use ulc_trace::synthetic;

    #[test]
    fn opt_bound_dominates_lru_bound() {
        for trace in [
            synthetic::zipf_small(30_000),
            synthetic::cs(30_000),
            synthetic::sprite(30_000),
        ] {
            let w = trace.warmup_len();
            assert!(opt_hit_rate(&trace, 900, w) >= aggregate_lru_hit_rate(&trace, 900, w) - 1e-9);
        }
    }

    #[test]
    fn uni_lru_attains_the_lru_bound() {
        let trace = synthetic::zipf_small(30_000);
        let w = trace.warmup_len();
        let mut uni = UniLru::single_client(vec![300, 300, 300]);
        let stats = simulate(&mut uni, &trace, w);
        let bound = aggregate_lru_hit_rate(&trace, 900, w);
        assert!(
            (stats.total_hit_rate() - bound).abs() < 1e-9,
            "uniLRU {:.4} vs bound {:.4}",
            stats.total_hit_rate(),
            bound
        );
    }

    #[test]
    fn opt_bound_on_loop_is_partial_residency() {
        // OPT on a loop of L blocks with capacity C hits ~C/L of the time.
        let trace = synthetic::cs(40_000); // 2500-block loop
        let rate = opt_hit_rate(&trace, 500, trace.warmup_len());
        assert!((0.15..0.35).contains(&rate), "rate = {rate}");
    }
}
