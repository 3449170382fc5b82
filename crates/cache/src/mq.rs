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

use crate::{CacheEvent, LinkedSlab, NodeHandle};
use fxhash::FxHashMap;
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
    /// The block's node in `queues[queue]`.
    node: NodeHandle,
}

/// A block in the ghost queue: its node there and the reference count it
/// resumes with if it returns.
#[derive(Clone, Copy, Debug)]
struct Ghost {
    node: NodeHandle,
    frequency: u64,
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
    /// One recency list per queue, front = most recent. A cached block
    /// sits in exactly one, and `meta` finds its node.
    queues: Vec<LinkedSlab<K>>,
    meta: FxHashMap<K, MqMeta>,
    /// `Qout`, front = most recently evicted; `ghosts` finds its nodes.
    ghost: LinkedSlab<K>,
    ghosts: FxHashMap<K, Ghost>,
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
        // Sized once for the worst case, so blocks moving between queues
        // never grow a list or table mid-run (DESIGN.md §5f): any queue
        // may hold every cached block, and the ghost queue holds one entry
        // over its bound between an eviction and its trim. The tables get
        // room for twice their entries: a hash table kept near full by
        // insert/remove churn grows to clear its tombstones, while one at
        // most half full rehashes them in place.
        let ghost_capacity = config.ghost_capacity + 1;
        MultiQueue {
            queues: (0..config.num_queues)
                .map(|_| LinkedSlab::with_capacity(capacity))
                .collect(),
            meta: FxHashMap::with_capacity_and_hasher(2 * capacity, Default::default()),
            ghost: LinkedSlab::with_capacity(ghost_capacity),
            ghosts: FxHashMap::with_capacity_and_hasher(2 * ghost_capacity, Default::default()),
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
            let Some(head) = self.queues[q].back() else {
                continue;
            };
            let key = self.queues[q].get(head).expect("back node is live");
            let m = self.meta.get_mut(key).expect("queued blocks have metadata");
            if m.expire_at < self.now {
                let key = self.queues[q].remove(head).expect("back node is live");
                m.node = self.queues[q - 1].push_front(key);
                m.queue = q - 1;
                m.expire_at = self.now + self.config.life_time;
            }
        }
    }

    /// Evicts the bottom block of the lowest non-empty queue into `Qout`.
    fn evict(&mut self) -> Option<K> {
        let (q, node) = self
            .queues
            .iter()
            .enumerate()
            .find_map(|(q, list)| list.back().map(|node| (q, node)))?;
        let victim = self.queues[q].remove(node).expect("back node is live");
        let frequency = self
            .meta
            .remove(&victim)
            .expect("victim has metadata")
            .frequency;
        // A cached block is never also a ghost: a returning ghost leaves
        // `Qout` when it is cached again.
        let node = self.ghost.push_front(victim.clone());
        self.ghosts
            .insert(victim.clone(), Ghost { node, frequency });
        while self.ghost.len() > self.config.ghost_capacity {
            if let Some(old) = self.ghost.back().and_then(|h| self.ghost.remove(h)) {
                self.ghosts.remove(&old);
            }
        }
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
            if new_q == m.queue {
                self.queues[new_q].move_to_front(m.node);
            } else {
                self.queues[m.queue].remove(m.node);
                m.node = self.queues[new_q].push_front(key);
                m.queue = new_q;
            }
            CacheEvent::Hit
        } else {
            let evicted = if self.meta.len() == self.capacity {
                self.evict()
            } else {
                None
            };
            // A returning ghost resumes its remembered count.
            let remembered = match self.ghosts.remove(&key) {
                Some(g) => {
                    self.ghost.remove(g.node);
                    g.frequency
                }
                None => 0,
            };
            let frequency = remembered + 1;
            let queue = self.queue_for(frequency);
            let node = self.queues[queue].push_front(key.clone());
            self.meta.insert(
                key,
                MqMeta {
                    queue,
                    frequency,
                    expire_at: self.now + self.config.life_time,
                    node,
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
                self.queues[m.queue].remove(m.node);
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
