//! Belady's OPT replacement and next-reference precomputation.
//!
//! OPT evicts the block whose next reference is farthest in the future; it
//! is the offline optimum and the policy behind the paper's **ND** (next
//! distance) measure. The simulator feeds [`OptCache`] the next-use time of
//! every reference, precomputed by [`next_use_times`].

use crate::CacheEvent;
use fxhash::FxHashMap;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::hash::Hash;

/// Sentinel next-use time for "never referenced again".
pub const NEVER: u64 = u64::MAX;

/// Computes, for each position `i` of `items`, the position of the next
/// occurrence of `items[i]` after `i`, or [`NEVER`] if there is none.
///
/// Runs in O(n) with a single backward scan and a single hash probe per
/// step (the entry API reads and replaces the previous position in one
/// lookup; the old `get`-then-`insert` pair hashed every key twice).
/// Block-id traces should prefer
/// `ulc_trace::intern::next_use_times_interned`, which routes the scan
/// through the dense interner and does no per-step hashing at all.
///
/// # Examples
///
/// ```
/// use ulc_cache::{next_use_times, NEVER};
///
/// let next = next_use_times(&['a', 'b', 'a']);
/// assert_eq!(next, vec![2, NEVER, NEVER]);
/// ```
pub fn next_use_times<T: Eq + Hash>(items: &[T]) -> Vec<u64> {
    let mut next = vec![NEVER; items.len()];
    let mut last_seen: FxHashMap<&T, usize> = FxHashMap::default();
    for (i, item) in items.iter().enumerate().rev() {
        match last_seen.entry(item) {
            Entry::Occupied(mut e) => {
                next[i] = *e.get() as u64;
                e.insert(i);
            }
            Entry::Vacant(e) => {
                e.insert(i);
            }
        }
    }
    next
}

/// A capacity-bounded cache under Belady's OPT replacement.
///
/// The caller supplies, with every access, the time of the *next* reference
/// to that key (see [`next_use_times`]).
///
/// # Examples
///
/// ```
/// use ulc_cache::{next_use_times, OptCache};
///
/// let trace = ['a', 'b', 'c', 'a'];
/// let next = next_use_times(&trace);
/// let mut opt = OptCache::new(2);
/// let mut hits = 0;
/// for (i, &k) in trace.iter().enumerate() {
///     if opt.access(k, next[i]).is_hit() {
///         hits += 1;
///     }
/// }
/// // OPT keeps 'a' across the scan of b, c.
/// assert_eq!(hits, 1);
/// ```
#[derive(Clone, Debug)]
pub struct OptCache<K: Ord + Eq + Hash + Clone> {
    /// (next_use, key) ordered set; the victim is the last element.
    by_next_use: BTreeSet<(u64, K)>,
    next_of: FxHashMap<K, u64>,
    capacity: usize,
}

impl<K: Ord + Eq + Hash + Clone> OptCache<K> {
    /// Creates an OPT cache holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        OptCache {
            by_next_use: BTreeSet::new(),
            next_of: FxHashMap::default(),
            capacity,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.next_of.len()
    }

    /// Returns `true` if no keys are cached.
    pub fn is_empty(&self) -> bool {
        self.next_of.is_empty()
    }

    /// Returns `true` if `key` is cached.
    pub fn contains(&self, key: &K) -> bool {
        self.next_of.contains_key(key)
    }

    /// References `key`, whose next reference will occur at `next_use`
    /// (use [`NEVER`] if it is never referenced again).
    ///
    /// A key that will never be used again is not worth caching; OPT
    /// admits it only if there is spare room, and it becomes the preferred
    /// victim.
    pub fn access(&mut self, key: K, next_use: u64) -> CacheEvent<K> {
        if let Some(old) = self.next_of.get(&key).copied() {
            self.by_next_use.remove(&(old, key.clone()));
            self.by_next_use.insert((next_use, key.clone()));
            self.next_of.insert(key, next_use);
            return CacheEvent::Hit;
        }
        let evicted = if self.next_of.len() == self.capacity {
            // Evict the key with the farthest next use — unless the
            // incoming key's own next use is even farther, in which case
            // caching it is pointless (an optimal bypass).
            let farthest = self
                .by_next_use
                .iter()
                .next_back()
                .expect("full cache is non-empty")
                .clone();
            if farthest.0 <= next_use {
                return CacheEvent::Miss { evicted: None };
            }
            self.by_next_use.remove(&farthest);
            self.next_of.remove(&farthest.1);
            Some(farthest.1)
        } else {
            None
        };
        self.by_next_use.insert((next_use, key.clone()));
        self.next_of.insert(key, next_use);
        CacheEvent::Miss { evicted }
    }

    /// Runs a whole trace through OPT and returns the hit count.
    pub fn hits_on_trace(capacity: usize, items: &[K]) -> usize {
        let next = next_use_times(items);
        let mut opt = OptCache::new(capacity);
        items
            .iter()
            .enumerate()
            .filter(|(i, k)| opt.access((*k).clone(), next[*i]).is_hit())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_use_times_basic() {
        let next = next_use_times(&[1, 2, 1, 1, 3]);
        assert_eq!(next, vec![2, NEVER, 3, NEVER, NEVER]);
    }

    #[test]
    fn next_use_times_empty() {
        assert!(next_use_times::<u8>(&[]).is_empty());
    }

    #[test]
    fn opt_beats_lru_on_a_loop() {
        // Loop of n+1 blocks over a cache of n: LRU gets 0%, OPT gets
        // (n-1)/(n+1) per cycle asymptotically.
        let n = 8;
        let trace: Vec<u64> = (0..(n as u64 + 1)).cycle().take(900).collect();
        let opt_hits = OptCache::hits_on_trace(n, &trace);
        let mut lru = crate::LruCache::new(n);
        let lru_hits = trace.iter().filter(|&&b| lru.access(b).is_hit()).count();
        assert_eq!(lru_hits, 0);
        assert!(
            opt_hits > trace.len() / 2,
            "opt_hits = {opt_hits} of {}",
            trace.len()
        );
    }

    #[test]
    fn opt_is_never_worse_than_lru() {
        // Spot-check optimality against LRU on a pseudo-random trace.
        let mut x = 99u64;
        let trace: Vec<u64> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) % 64
            })
            .collect();
        for capacity in [4, 16, 32] {
            let opt_hits = OptCache::hits_on_trace(capacity, &trace);
            let mut lru = crate::LruCache::new(capacity);
            let lru_hits = trace.iter().filter(|&&b| lru.access(b).is_hit()).count();
            assert!(
                opt_hits >= lru_hits,
                "capacity {capacity}: OPT {opt_hits} < LRU {lru_hits}"
            );
        }
    }

    #[test]
    fn bypasses_dead_blocks_when_full() {
        let mut opt = OptCache::new(1);
        opt.access(1, 5);
        // Block 2 is never used again; OPT must not evict block 1 for it.
        assert_eq!(opt.access(2, NEVER), CacheEvent::Miss { evicted: None });
        assert!(opt.contains(&1));
        assert!(!opt.contains(&2));
    }

    #[test]
    fn admits_dead_blocks_into_spare_room() {
        let mut opt = OptCache::new(2);
        opt.access(1, NEVER);
        assert!(opt.contains(&1));
    }

    #[test]
    fn never_exceeds_capacity() {
        let trace: Vec<u64> = (0..500).map(|i| i * 7 % 23).collect();
        let next = next_use_times(&trace);
        let mut opt = OptCache::new(5);
        for (i, &b) in trace.iter().enumerate() {
            opt.access(b, next[i]);
            assert!(opt.len() <= 5);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = OptCache::<u8>::new(0);
    }
}
