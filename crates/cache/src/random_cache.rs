//! RANDOM replacement.
//!
//! §2.2 of the paper uses RANDOM as the floor for the `random` trace: "all
//! the on-line algorithms could perform the same as RANDOM replacement for
//! trace random at most … which has a hit rate proportional to the cache
//! size".

use crate::CacheEvent;
use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::Hash;

/// A capacity-bounded cache that evicts a uniformly random resident block.
///
/// # Examples
///
/// ```
/// use ulc_cache::RandomCache;
///
/// let mut c = RandomCache::new(2, 42);
/// c.access(1);
/// c.access(2);
/// assert!(c.access(1).is_hit());
/// ```
#[derive(Clone, Debug)]
pub struct RandomCache<K: Eq + Hash + Clone> {
    slots: Vec<K>,
    index: FxHashMap<K, usize>,
    capacity: usize,
    rng: StdRng,
}

impl<K: Eq + Hash + Clone> RandomCache<K> {
    /// Creates a cache holding at most `capacity` keys; evictions are
    /// deterministic under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        RandomCache {
            slots: Vec::with_capacity(capacity),
            index: FxHashMap::default(),
            capacity,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no keys are cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Returns `true` if `key` is cached.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// References `key`, evicting a random victim on a miss when full.
    pub fn access(&mut self, key: K) -> CacheEvent<K> {
        if self.index.contains_key(&key) {
            return CacheEvent::Hit;
        }
        let evicted = if self.slots.len() == self.capacity {
            let victim_slot = self.rng.gen_range(0..self.slots.len());
            let victim = self.slots[victim_slot].clone();
            self.index.remove(&victim);
            self.slots[victim_slot] = key.clone();
            self.index.insert(key, victim_slot);
            Some(victim)
        } else {
            self.slots.push(key.clone());
            self.index.insert(key, self.slots.len() - 1);
            None
        };
        CacheEvent::Miss { evicted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_exceeds_capacity() {
        let mut c = RandomCache::new(5, 1);
        for i in 0..200u64 {
            c.access(i % 17);
            assert!(c.len() <= 5);
        }
    }

    #[test]
    fn hit_rate_proportional_to_size_on_uniform_traffic() {
        // The §2.2 claim: RANDOM's hit rate ≈ capacity / universe.
        let universe = 200u64;
        let mut x = 3u64;
        let mut draw = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) % universe
        };
        for capacity in [20usize, 100] {
            let mut c = RandomCache::new(capacity, 7);
            // Warm up.
            for _ in 0..5000 {
                c.access(draw());
            }
            let mut hits = 0;
            let n = 50_000;
            for _ in 0..n {
                if c.access(draw()).is_hit() {
                    hits += 1;
                }
            }
            let rate = hits as f64 / n as f64;
            let expect = capacity as f64 / universe as f64;
            assert!(
                (rate - expect).abs() < 0.05,
                "capacity {capacity}: rate {rate} vs expected {expect}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut c = RandomCache::new(3, 99);
            let mut hits = 0;
            for i in 0..1000u64 {
                if c.access(i * 7 % 11).is_hit() {
                    hits += 1;
                }
            }
            hits
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn index_stays_consistent_after_evictions() {
        let mut c = RandomCache::new(2, 5);
        for i in 0..100u64 {
            c.access(i);
        }
        for (k, &slot) in &c.index {
            assert_eq!(&c.slots[slot], k);
        }
        assert_eq!(c.slots.len(), c.index.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = RandomCache::<u8>::new(0, 1);
    }
}
