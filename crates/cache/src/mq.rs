//! The Multi-Queue (MQ) replacement algorithm.
//!
//! MQ (Zhou, Philbin & Li, USENIX 2001) is the paper's representative of
//! the "re-design the low-level cache replacement" school (§5): it is built
//! for *second-level* buffer caches, whose request stream has had its
//! recency locality filtered out by the client cache. MQ keeps `m` LRU
//! queues; a block with reference count `f` lives in queue `⌊log2 f⌋`
//! (capped), so frequently referenced blocks survive long recency gaps.
//! Blocks whose `lifeTime` expires are demoted queue by queue, and a ghost
//! queue (`Qout`) remembers the reference counts of recently evicted blocks.
//!
//! In the Figure 7 evaluation MQ runs at the server below an independent
//! LRU client, exactly as its authors intended.

use crate::{CacheEvent, LruStack};
use std::collections::HashMap;
use std::hash::Hash;

/// Configuration for a [`MultiQueue`] cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MqConfig {
    /// Number of queues (`m` in the MQ paper). The paper uses 8.
    pub num_queues: usize,
    /// `lifeTime`: accesses a block may sit unreferenced in a queue before
    /// being demoted to the next lower queue.
    pub life_time: u64,
    /// Capacity of the ghost queue `Qout`, in entries. The MQ paper sizes
    /// it as a multiple (4×) of the cache size.
    pub ghost_capacity: usize,
}

impl MqConfig {
    /// The MQ paper's defaults for a cache of `capacity` blocks: 8 queues,
    /// `lifeTime` of 2× capacity accesses and a 4× ghost queue.
    pub fn for_capacity(capacity: usize) -> Self {
        MqConfig {
            num_queues: 8,
            life_time: (capacity as u64).max(1) * 2,
            ghost_capacity: capacity * 4,
        }
    }
}

#[derive(Clone, Debug)]
struct MqMeta {
    queue: usize,
    frequency: u64,
    expire_at: u64,
}

/// A capacity-bounded Multi-Queue cache.
///
/// # Examples
///
/// ```
/// use ulc_cache::{MqConfig, MultiQueue};
///
/// let mut mq = MultiQueue::new(64, MqConfig::for_capacity(64));
/// mq.access(1);
/// mq.access(1);
/// assert!(mq.contains(&1));
/// assert_eq!(mq.frequency(&1), Some(2));
/// ```
#[derive(Clone, Debug)]
pub struct MultiQueue<K: Eq + Hash + Clone> {
    queues: Vec<LruStack<K>>,
    meta: HashMap<K, MqMeta>,
    ghost: LruStack<K>,
    ghost_freq: HashMap<K, u64>,
    capacity: usize,
    config: MqConfig,
    now: u64,
}

impl<K: Eq + Hash + Clone> MultiQueue<K> {
    /// Creates an MQ cache holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, `config.num_queues` is zero, or
    /// `config.life_time` is zero.
    pub fn new(capacity: usize, config: MqConfig) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(config.num_queues > 0, "MQ needs at least one queue");
        assert!(config.life_time > 0, "MQ lifeTime must be positive");
        MultiQueue {
            queues: (0..config.num_queues).map(|_| LruStack::new()).collect(),
            meta: HashMap::new(),
            ghost: LruStack::new(),
            ghost_freq: HashMap::new(),
            capacity,
            config,
            now: 0,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Returns `true` if no keys are cached.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Returns `true` if `key` is cached.
    pub fn contains(&self, key: &K) -> bool {
        self.meta.contains_key(key)
    }

    /// The reference count MQ has recorded for a cached `key`.
    pub fn frequency(&self, key: &K) -> Option<u64> {
        self.meta.get(key).map(|m| m.frequency)
    }

    /// The queue index a block with reference count `f` belongs to:
    /// `min(⌊log2 f⌋, m-1)`.
    fn queue_for(&self, frequency: u64) -> usize {
        let q = 63 - frequency.max(1).leading_zeros() as usize;
        q.min(self.config.num_queues - 1)
    }

    /// The MQ `Adjust` step: at most one expired head per queue is demoted
    /// to the next lower queue.
    fn adjust(&mut self) {
        for q in (1..self.config.num_queues).rev() {
            let Some(head) = self.queues[q].bottom().cloned() else {
                continue;
            };
            let expired = self.meta.get(&head).is_some_and(|m| m.expire_at < self.now);
            if expired {
                self.queues[q].remove(&head);
                // lint:allow(hot-path-alloc) K is Copy (BlockId) on every simulation path; K::clone is a move
                self.queues[q - 1].touch(head.clone());
                let m = self.meta.get_mut(&head).expect("head has metadata");
                m.queue = q - 1;
                m.expire_at = self.now + self.config.life_time;
            }
        }
    }

    fn remember_ghost(&mut self, key: K, frequency: u64) {
        // lint:allow(hot-path-alloc) K is Copy (BlockId) on every simulation path; K::clone is a move
        self.ghost.touch(key.clone());
        self.ghost_freq.insert(key, frequency);
        while self.ghost.len() > self.config.ghost_capacity {
            if let Some(old) = self.ghost.pop_bottom() {
                self.ghost_freq.remove(&old);
            }
        }
    }

    fn evict(&mut self) -> Option<K> {
        let victim = self.queues.iter().find_map(|q| q.bottom().cloned())?;
        let meta = self.meta.remove(&victim).expect("victim has metadata");
        self.queues[meta.queue].remove(&victim);
        // lint:allow(hot-path-alloc) K is Copy (BlockId) on every simulation path; K::clone is a move
        self.remember_ghost(victim.clone(), meta.frequency);
        Some(victim)
    }

    /// References `key`.
    pub fn access(&mut self, key: K) -> CacheEvent<K> {
        self.now += 1;
        let num_queues = self.config.num_queues;
        let queue_for = |frequency: u64| -> usize {
            let q = 63 - frequency.max(1).leading_zeros() as usize;
            q.min(num_queues - 1)
        };
        let event = if let Some(m) = self.meta.get_mut(&key) {
            m.frequency += 1;
            m.expire_at = self.now + self.config.life_time;
            let new_q = queue_for(m.frequency);
            let old_q = m.queue;
            m.queue = new_q;
            if new_q != old_q {
                self.queues[old_q].remove(&key);
            }
            self.queues[new_q].touch(key);
            CacheEvent::Hit
        } else {
            let evicted = if self.meta.len() == self.capacity {
                self.evict()
            } else {
                None
            };
            // A returning ghost resumes its remembered count.
            let remembered = self.ghost_freq.remove(&key).unwrap_or(0);
            self.ghost.remove(&key);
            let frequency = remembered + 1;
            let queue = self.queue_for(frequency);
            // lint:allow(hot-path-alloc) K is Copy (BlockId) on every simulation path; K::clone is a move
            self.queues[queue].touch(key.clone());
            self.meta.insert(
                key,
                MqMeta {
                    queue,
                    frequency,
                    expire_at: self.now + self.config.life_time,
                },
            );
            CacheEvent::Miss { evicted }
        };
        self.adjust();
        event
    }

    /// Removes `key` from the cache without ghost bookkeeping, returning
    /// `true` if it was present. Used when an upper level takes exclusive
    /// ownership of the block.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.meta.remove(key) {
            Some(m) => {
                self.queues[m.queue].remove(key);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mq(capacity: usize) -> MultiQueue<u64> {
        MultiQueue::new(capacity, MqConfig::for_capacity(capacity))
    }

    #[test]
    fn queue_index_is_log2_of_frequency() {
        let m = mq(8);
        assert_eq!(m.queue_for(1), 0);
        assert_eq!(m.queue_for(2), 1);
        assert_eq!(m.queue_for(3), 1);
        assert_eq!(m.queue_for(4), 2);
        assert_eq!(m.queue_for(255), 7);
        assert_eq!(m.queue_for(1 << 30), 7); // capped at m-1
    }

    #[test]
    fn basic_hit_miss() {
        let mut m = mq(4);
        assert!(!m.access(1).is_hit());
        assert!(m.access(1).is_hit());
        assert_eq!(m.frequency(&1), Some(2));
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut m = mq(4);
        for i in 0..100 {
            m.access(i % 13);
            assert!(m.len() <= 4);
        }
    }

    #[test]
    fn frequent_blocks_survive_a_scan() {
        // The defining MQ property: a hot block outlives a long scan that
        // would flush it out of a plain LRU of the same size.
        let capacity = 16;
        let mut m = mq(capacity);
        for _ in 0..8 {
            m.access(0);
        }
        for i in 1..capacity as u64 {
            m.access(1000 + i);
        }
        assert!(
            m.contains(&0),
            "hot block should survive the cold scan under MQ"
        );
        let mut lru = crate::LruCache::new(capacity);
        for _ in 0..8 {
            lru.access(0u64);
        }
        for i in 0..capacity as u64 {
            lru.access(1000 + i);
        }
        assert!(!lru.contains(&0), "LRU flushes the hot block");
    }

    #[test]
    fn ghost_restores_frequency() {
        let mut m = MultiQueue::new(
            2,
            MqConfig {
                num_queues: 8,
                life_time: 2,
                ghost_capacity: 64,
            },
        );
        for _ in 0..5 {
            m.access(1);
        }
        // With a tiny lifeTime, block 1 expires and descends queue by
        // queue while fresh blocks stream past, and is finally evicted.
        let mut i = 0u64;
        while m.contains(&1) {
            i += 1;
            m.access(100 + i);
            assert!(i < 100, "block 1 should eventually be evicted");
        }
        // On return, MQ's ghost queue remembers the ~5 prior references.
        m.access(1);
        assert!(m.frequency(&1).unwrap() >= 6);
    }

    #[test]
    fn expiry_demotes_idle_blocks() {
        let mut m = MultiQueue::new(
            4,
            MqConfig {
                num_queues: 4,
                life_time: 3,
                ghost_capacity: 8,
            },
        );
        for _ in 0..4 {
            m.access(1); // frequency 4 → queue 2
        }
        assert_eq!(m.meta[&1].queue, 2);
        // Let it expire twice while touching other blocks.
        for i in 0..12u64 {
            m.access(100 + i % 3);
        }
        assert!(
            m.meta.get(&1).is_none_or(|meta| meta.queue < 2),
            "idle block should be demoted or evicted"
        );
    }

    #[test]
    fn eviction_prefers_lowest_queue() {
        let mut m = MultiQueue::new(
            3,
            MqConfig {
                num_queues: 4,
                life_time: 1_000_000,
                ghost_capacity: 8,
            },
        );
        m.access(1);
        m.access(1); // queue 1
        m.access(2); // queue 0
        m.access(3); // queue 0
                     // Cache full; next miss evicts from queue 0, not block 1.
        m.access(4);
        assert!(m.contains(&1));
        assert!(!m.contains(&2), "oldest queue-0 block evicted first");
    }

    #[test]
    fn remove_is_silent() {
        let mut m = mq(4);
        m.access(1);
        assert!(m.remove(&1));
        assert!(!m.remove(&1));
        assert!(!m.contains(&1));
        // No ghost entry was created by remove().
        m.access(1);
        assert_eq!(m.frequency(&1), Some(1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = MultiQueue::<u64>::new(0, MqConfig::for_capacity(1));
    }
}
