//! Keyed LRU stacks and a bounded LRU cache.

use crate::{LinkedSlab, NodeHandle};
use fxhash::FxHashMap;
use std::hash::Hash;

/// The table an [`LruStack`] uses to find a key's list node.
///
/// The recency *order* lives in the stack's [`LinkedSlab`]; the locator
/// only maps keys to node handles, so its representation is
/// behaviour-neutral and every locator yields identical stacks. The
/// default is an [`FxHashMap`], which serves any hashable key;
/// `ulc_trace` implements the trait for its `BlockMap<NodeHandle>`
/// dense block table, whose direct-indexed tier replaces the hash with
/// a vector index for block ids.
pub trait NodeLocator<K> {
    /// The node holding `key`, if present.
    fn locate(&self, key: &K) -> Option<NodeHandle>;

    /// Records that `key` (not yet present) lives at `node`.
    fn record(&mut self, key: K, node: NodeHandle);

    /// Forgets `key`, returning its node if it was present.
    fn forget(&mut self, key: &K) -> Option<NodeHandle>;

    /// Hints the CPU to pull `key`'s table row toward its cache.
    /// Semantics-free; the default does nothing.
    #[inline]
    fn prefetch_key(&self, key: &K) {
        let _ = key;
    }
}

impl<K: Eq + Hash> NodeLocator<K> for FxHashMap<K, NodeHandle> {
    #[inline]
    fn locate(&self, key: &K) -> Option<NodeHandle> {
        self.get(key).copied()
    }

    #[inline]
    fn record(&mut self, key: K, node: NodeHandle) {
        self.insert(key, node);
    }

    #[inline]
    fn forget(&mut self, key: &K) -> Option<NodeHandle> {
        self.remove(key)
    }
}

/// An unbounded LRU stack over keys: a recency ordering with O(1) touch,
/// removal and bottom access.
///
/// This is the bare recency structure; [`LruCache`] adds a capacity bound
/// and eviction. ULC's ghost stacks build on it directly. `M` is the
/// [`NodeLocator`] that finds a key's node: an [`FxHashMap`] by default
/// ([`LruStack::new`]), or any other locator through
/// [`LruStack::with_locator`].
///
/// # Examples
///
/// ```
/// use ulc_cache::LruStack;
///
/// let mut s = LruStack::new();
/// s.touch(1);
/// s.touch(2);
/// s.touch(1);
/// assert_eq!(s.bottom(), Some(&2));
/// assert_eq!(s.top(), Some(&1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LruStack<K, M = FxHashMap<K, NodeHandle>> {
    list: LinkedSlab<K>,
    map: M,
}

impl<K: Eq + Hash + Clone> LruStack<K> {
    /// Creates an empty stack located through an [`FxHashMap`].
    pub fn new() -> Self {
        LruStack::with_locator(FxHashMap::default())
    }
}

impl<K: Clone, M: NodeLocator<K>> LruStack<K, M> {
    /// Creates an empty stack over an empty `locator`.
    pub fn with_locator(locator: M) -> Self {
        LruStack {
            list: LinkedSlab::new(),
            map: locator,
        }
    }

    /// Number of keys in the stack.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Returns `true` if the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.map.locate(key).is_some()
    }

    /// Hints the CPU to pull `key`'s locator row toward its cache; see
    /// [`NodeLocator::prefetch_key`]. Semantics-free.
    #[inline]
    pub fn prefetch(&self, key: &K) {
        self.map.prefetch_key(key);
    }

    /// Inserts `key` at the top, or moves it there if already present.
    /// Returns `true` if the key was already present.
    pub fn touch(&mut self, key: K) -> bool {
        if let Some(h) = self.map.locate(&key) {
            self.list.move_to_front(h);
            true
        } else {
            let h = self.list.push_front(key.clone());
            self.map.record(key, h);
            false
        }
    }

    /// Inserts `key` at the bottom, or moves it there if already present.
    /// Returns `true` if the key was already present.
    pub fn touch_bottom(&mut self, key: K) -> bool {
        if let Some(h) = self.map.locate(&key) {
            self.list.move_to_back(h);
            true
        } else {
            let h = self.list.push_back(key.clone());
            self.map.record(key, h);
            false
        }
    }

    /// Removes `key`, returning `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.map.forget(key) {
            Some(h) => {
                self.list.remove(h);
                true
            }
            None => false,
        }
    }

    /// The most recently touched key.
    pub fn top(&self) -> Option<&K> {
        self.list.front().and_then(|h| self.list.get(h))
    }

    /// The least recently touched key.
    pub fn bottom(&self) -> Option<&K> {
        self.list.back().and_then(|h| self.list.get(h))
    }

    /// Removes and returns the least recently touched key.
    pub fn pop_bottom(&mut self) -> Option<K> {
        let h = self.list.back()?;
        let key = self.list.remove(h).expect("back handle is fresh");
        self.map.forget(&key);
        Some(key)
    }

    /// Iterates keys from most to least recently touched.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.list.iter().map(|(_, k)| k)
    }
}

/// What an access to a bounded cache did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheEvent<K> {
    /// The key was present.
    Hit,
    /// The key was absent and has been inserted; `evicted` is the victim
    /// that was dropped to make room, if the cache was full.
    Miss {
        /// Victim evicted to make room, if any.
        evicted: Option<K>,
    },
}

impl<K> CacheEvent<K> {
    /// Returns `true` for [`CacheEvent::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheEvent::Hit)
    }
}

/// A capacity-bounded LRU cache over keys, located through `M` as an
/// [`LruStack`] is.
///
/// # Examples
///
/// ```
/// use ulc_cache::{CacheEvent, LruCache};
///
/// let mut c = LruCache::new(2);
/// assert_eq!(c.access(1), CacheEvent::Miss { evicted: None });
/// assert_eq!(c.access(2), CacheEvent::Miss { evicted: None });
/// assert_eq!(c.access(1), CacheEvent::Hit);
/// // 2 is now the LRU victim.
/// assert_eq!(c.access(3), CacheEvent::Miss { evicted: Some(2) });
/// ```
#[derive(Clone, Debug)]
pub struct LruCache<K, M = FxHashMap<K, NodeHandle>> {
    stack: LruStack<K, M>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Creates a cache holding at most `capacity` keys, located through
    /// an [`FxHashMap`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        LruCache::with_locator(capacity, FxHashMap::default())
    }
}

impl<K: Clone, M: NodeLocator<K>> LruCache<K, M> {
    /// Creates a cache holding at most `capacity` keys, located through
    /// the empty `locator`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_locator(capacity: usize, locator: M) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            stack: LruStack::with_locator(locator),
            capacity,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// Returns `true` if no keys are cached.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Returns `true` if the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.stack.len() == self.capacity
    }

    /// Returns `true` if `key` is cached.
    pub fn contains(&self, key: &K) -> bool {
        self.stack.contains(key)
    }

    /// Hints the CPU to pull `key`'s locator row toward its cache; see
    /// [`NodeLocator::prefetch_key`]. Semantics-free.
    #[inline]
    pub fn prefetch(&self, key: &K) {
        self.stack.prefetch(key);
    }

    /// References `key`: moves it to the MRU position on a hit, inserts it
    /// (evicting the LRU victim if full) on a miss.
    pub fn access(&mut self, key: K) -> CacheEvent<K> {
        if self.stack.touch(key) {
            CacheEvent::Hit
        } else {
            let evicted = if self.stack.len() > self.capacity {
                self.stack.pop_bottom()
            } else {
                None
            };
            CacheEvent::Miss { evicted }
        }
    }

    /// Inserts `key` at the MRU end *without* counting as a reference
    /// (used for demotions arriving from an upper level). Returns the
    /// eviction victim if the cache was full, `None` otherwise (also `None`
    /// when the key was already present and was just refreshed).
    pub fn insert_mru(&mut self, key: K) -> Option<K> {
        if self.stack.touch(key) {
            None
        } else if self.stack.len() > self.capacity {
            self.stack.pop_bottom()
        } else {
            None
        }
    }

    /// Inserts `key` at the LRU end (the Wong & Wilkes LRU-insertion
    /// variant for demoted blocks). Returns the eviction victim if the
    /// cache was full.
    ///
    /// If the cache is exactly full, inserting at the LRU end would evict
    /// the inserted key itself; the key is dropped and returned as the
    /// victim, matching a zero-benefit insertion.
    pub fn insert_lru(&mut self, key: K) -> Option<K> {
        if self.stack.touch_bottom(key) {
            None
        } else if self.stack.len() > self.capacity {
            self.stack.pop_bottom()
        } else {
            None
        }
    }

    /// Removes `key` from the cache, returning `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        self.stack.remove(key)
    }

    /// The current LRU victim, if any.
    pub fn lru(&self) -> Option<&K> {
        self.stack.bottom()
    }

    /// Iterates keys from MRU to LRU.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.stack.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_orders_by_recency() {
        let mut s = LruStack::new();
        for k in [1, 2, 3, 2] {
            s.touch(k);
        }
        let order: Vec<i32> = s.iter().copied().collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn stack_pop_bottom_is_lru() {
        let mut s = LruStack::new();
        s.touch("a");
        s.touch("b");
        s.touch("a");
        assert_eq!(s.pop_bottom(), Some("b"));
        assert_eq!(s.pop_bottom(), Some("a"));
        assert_eq!(s.pop_bottom(), None);
    }

    #[test]
    fn stack_remove_unknown_is_false() {
        let mut s: LruStack<u32> = LruStack::new();
        assert!(!s.remove(&7));
        s.touch(7);
        assert!(s.remove(&7));
        assert!(s.is_empty());
    }

    #[test]
    fn stack_touch_bottom_places_last() {
        let mut s = LruStack::new();
        s.touch(1);
        s.touch_bottom(2);
        assert_eq!(s.bottom(), Some(&2));
        s.touch_bottom(1);
        assert_eq!(s.bottom(), Some(&1));
    }

    #[test]
    fn cache_hit_rate_of_loop_smaller_than_cache_is_total() {
        let mut c = LruCache::new(10);
        let mut hits = 0;
        for i in 0..100 {
            if c.access(i % 5).is_hit() {
                hits += 1;
            }
        }
        assert_eq!(hits, 95);
    }

    #[test]
    fn cache_loop_larger_than_cache_never_hits() {
        // The classic LRU pathology the paper builds on.
        let mut c = LruCache::new(10);
        let mut hits = 0;
        for i in 0..110 {
            if c.access(i % 11).is_hit() {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn cache_never_exceeds_capacity() {
        let mut c = LruCache::new(3);
        for i in 0..50 {
            c.access(i % 7);
            assert!(c.len() <= 3);
        }
        assert!(c.is_full());
    }

    #[test]
    fn cache_eviction_order_is_lru() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // order: 1 (MRU), 2 (LRU)
        match c.access(3) {
            CacheEvent::Miss { evicted: Some(2) } => {}
            other => panic!("expected eviction of 2, got {other:?}"),
        }
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
    }

    #[test]
    fn insert_mru_does_not_overfill() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        let victim = c.insert_mru(3);
        assert_eq!(victim, Some(1));
        assert_eq!(c.len(), 2);
        assert!(c.contains(&3));
    }

    #[test]
    fn insert_lru_victimizes_itself_when_full() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        let victim = c.insert_lru(3);
        assert_eq!(victim, Some(3));
        assert!(c.contains(&1) && c.contains(&2));
    }

    #[test]
    fn insert_lru_fills_spare_capacity() {
        let mut c = LruCache::new(3);
        c.access(1);
        assert_eq!(c.insert_lru(2), None);
        assert_eq!(c.lru(), Some(&2));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut c = LruCache::new(1);
        c.access(1);
        assert!(c.remove(&1));
        assert_eq!(c.access(2), CacheEvent::Miss { evicted: None });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u8>::new(0);
    }
}
