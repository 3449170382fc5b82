//! The LIRS replacement policy (Jiang & Zhang, SIGMETRICS 2002).
//!
//! §5 of the ULC paper credits LIRS as the direct motivation for the
//! LLD-R measure: "The blocks with small recencies at which they get
//! accessed are kept in the cache. This single-level cache replacement
//! motivates us to investigate if the last locality distance, LLD, can be
//! effectively used to exploit hierarchical locality." LIRS is, in
//! effect, the one-level special case of ULC's ranking: blocks with low
//! inter-reference recency (IRR) form the protected **LIR** set; the rest
//! (**HIR**) share a small victim pool.
//!
//! This implementation follows the original algorithm: a recency stack
//! `S` holding LIR blocks plus recent HIR history, a FIFO-ish queue `Q`
//! of resident HIR blocks, stack pruning, and LIR/HIR status exchanges on
//! low-recency re-references.

use crate::{CacheEvent, LruStack};
use fxhash::FxHashMap;
use std::hash::Hash;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Lir,
    /// HIR; the flag records residency.
    Hir {
        resident: bool,
    },
}

/// A capacity-bounded LIRS cache.
///
/// # Examples
///
/// ```
/// use ulc_cache::Lirs;
///
/// let mut cache = Lirs::new(100, 0.05);
/// cache.access(1);
/// cache.access(1);
/// assert!(cache.contains(&1));
/// ```
#[derive(Clone, Debug)]
pub struct Lirs<K: Eq + Hash + Clone> {
    /// Recency stack `S` (top = most recent); holds LIR blocks and HIR
    /// blocks (resident or history-only) with recent references.
    stack: LruStack<K>,
    /// Resident-HIR queue `Q`; its *bottom* is the eviction victim.
    queue: LruStack<K>,
    status: FxHashMap<K, Status>,
    capacity: usize,
    /// Target number of LIR blocks (capacity minus the HIR pool).
    lir_capacity: usize,
    lir_count: usize,
    resident: usize,
    /// Bound on history-only entries kept in `S`.
    history_limit: usize,
    #[cfg(feature = "debug_invariants")]
    tick: u64,
}

impl<K: Eq + Hash + Clone> Lirs<K> {
    /// Creates a LIRS cache of `capacity` blocks, reserving
    /// `hir_fraction` of it (at least one block) for the resident-HIR
    /// pool. The LIRS paper uses ~1 %.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `hir_fraction` is outside `[0, 1)`.
    pub fn new(capacity: usize, hir_fraction: f64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(
            (0.0..1.0).contains(&hir_fraction),
            "HIR fraction must lie in [0, 1)"
        );
        let hir = ((capacity as f64 * hir_fraction) as usize)
            .max(1)
            .min(capacity.saturating_sub(1).max(1));
        let lir_capacity = (capacity - hir).max(1);
        Lirs {
            stack: LruStack::new(),
            queue: LruStack::new(),
            status: FxHashMap::default(),
            capacity,
            lir_capacity,
            lir_count: 0,
            resident: 0,
            history_limit: 2 * capacity,
            #[cfg(feature = "debug_invariants")]
            tick: 0,
        }
    }

    /// Deep structural validation of the LIRS bookkeeping: residency and
    /// LIR counts match the status table, `Q` holds exactly the resident
    /// HIR blocks, every LIR block and every history-only entry lives in
    /// `S`, the bottom of `S` is always LIR (stack pruning), and the
    /// capacity bounds hold. O(n). Panics on the first violation.
    pub fn check_invariants(&self) {
        assert!(self.resident <= self.capacity, "residency within capacity");
        assert!(
            self.lir_count <= self.lir_capacity,
            "LIR set within its bound"
        );
        let (mut lir, mut hir_resident, mut hir_history) = (0usize, 0usize, 0usize);
        for (key, status) in self.status.iter() {
            match status {
                Status::Lir => {
                    lir += 1;
                    assert!(self.stack.contains(key), "LIR block must be in S");
                    assert!(!self.queue.contains(key), "LIR block must not be in Q");
                }
                Status::Hir { resident: true } => {
                    hir_resident += 1;
                    assert!(self.queue.contains(key), "resident HIR must be in Q");
                }
                Status::Hir { resident: false } => {
                    hir_history += 1;
                    assert!(self.stack.contains(key), "history entry must be in S");
                    assert!(!self.queue.contains(key), "history entry must not be in Q");
                }
            }
        }
        assert_eq!(self.lir_count, lir, "lir_count matches the status table");
        assert_eq!(
            self.resident,
            lir + hir_resident,
            "resident count matches the status table"
        );
        assert_eq!(
            self.queue.len(),
            hir_resident,
            "Q holds exactly the resident HIR blocks"
        );
        assert_eq!(
            self.status.len(),
            lir + hir_resident + hir_history,
            "status table covers exactly the tracked blocks"
        );
        for key in self.stack.iter() {
            assert!(
                self.status.contains_key(key),
                "every S entry must have a status"
            );
        }
        if let Some(bottom) = self.stack.bottom() {
            assert!(
                matches!(self.status.get(bottom), Some(Status::Lir)),
                "the bottom of S must be a LIR block"
            );
        }
    }

    /// Amortised feature-gated self-check; see `LinkedSlab::debug_validate`.
    #[inline]
    fn debug_validate(&mut self) {
        #[cfg(feature = "debug_invariants")]
        {
            self.tick += 1;
            if self.status.len() < 64 || self.tick.is_multiple_of(256) {
                self.check_invariants();
            }
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Returns `true` if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Returns `true` if `key` is resident.
    pub fn contains(&self, key: &K) -> bool {
        matches!(
            self.status.get(key),
            Some(Status::Lir) | Some(Status::Hir { resident: true })
        )
    }

    /// Number of blocks currently in the protected LIR set.
    pub fn lir_len(&self) -> usize {
        self.lir_count
    }

    /// Removes history-only entries from the bottom of `S`, so the bottom
    /// is always a LIR block (stack pruning).
    fn prune(&mut self) {
        while let Some(bottom) = self.stack.bottom().cloned() {
            match self.status.get(&bottom) {
                Some(Status::Lir) => break,
                Some(Status::Hir { resident }) => {
                    let resident = *resident;
                    self.stack.remove(&bottom);
                    if !resident {
                        self.status.remove(&bottom);
                    }
                }
                None => {
                    self.stack.remove(&bottom);
                }
            }
        }
    }

    /// Demotes the LIR block at the bottom of `S` to resident HIR (tail
    /// of `Q`).
    fn demote_bottom_lir(&mut self) {
        self.prune();
        let Some(bottom) = self.stack.bottom().cloned() else {
            return;
        };
        debug_assert!(matches!(self.status.get(&bottom), Some(Status::Lir)));
        self.stack.remove(&bottom);
        self.status
            .insert(bottom.clone(), Status::Hir { resident: true });
        self.queue.touch(bottom);
        self.lir_count -= 1;
        self.prune();
    }

    /// Evicts the resident-HIR victim (front of `Q`).
    fn evict_hir(&mut self) -> Option<K> {
        let victim = self.queue.pop_bottom()?;
        // Keep its stack history (if any) as a non-resident HIR entry.
        if self.stack.contains(&victim) {
            self.status
                .insert(victim.clone(), Status::Hir { resident: false });
        } else {
            self.status.remove(&victim);
        }
        self.resident -= 1;
        Some(victim)
    }

    /// Bounds the number of non-resident history entries.
    fn enforce_history_limit(&mut self) {
        while self.stack.len() > self.lir_capacity + self.history_limit {
            let Some(bottom) = self.stack.bottom().cloned() else {
                break;
            };
            if matches!(self.status.get(&bottom), Some(Status::Lir)) {
                break;
            }
            self.stack.remove(&bottom);
            if matches!(
                self.status.get(&bottom),
                Some(Status::Hir { resident: false })
            ) {
                self.status.remove(&bottom);
            }
        }
    }

    /// References `key`.
    pub fn access(&mut self, key: K) -> CacheEvent<K> {
        let event = self.access_inner(key);
        self.debug_validate();
        event
    }

    fn access_inner(&mut self, key: K) -> CacheEvent<K> {
        match self.status.get(&key).copied() {
            Some(Status::Lir) => {
                let was_bottom = self.stack.bottom() == Some(&key);
                self.stack.touch(key);
                if was_bottom {
                    self.prune();
                }
                CacheEvent::Hit
            }
            Some(Status::Hir { resident: true }) => {
                let in_stack = self.stack.contains(&key);
                self.stack.touch(key.clone());
                if in_stack {
                    // Low IRR: promote to LIR; the coldest LIR makes room.
                    self.status.insert(key.clone(), Status::Lir);
                    self.queue.remove(&key);
                    self.lir_count += 1;
                    if self.lir_count > self.lir_capacity {
                        self.demote_bottom_lir();
                    }
                } else {
                    // No recent history: stay HIR, refresh queue position.
                    self.queue.touch(key);
                }
                CacheEvent::Hit
            }
            Some(Status::Hir { resident: false }) | None => {
                // Miss: make room in the HIR pool first.
                let evicted = if self.resident == self.capacity {
                    self.evict_hir()
                } else {
                    None
                };
                self.resident += 1;
                let had_history = self.stack.contains(&key);
                self.stack.touch(key.clone());
                if self.lir_count < self.lir_capacity {
                    // Cold start: fill the LIR set directly.
                    self.status.insert(key, Status::Lir);
                    self.lir_count += 1;
                } else if had_history {
                    // Re-referenced within the LIR recency horizon:
                    // joins the LIR set, displacing the coldest LIR.
                    self.status.insert(key, Status::Lir);
                    self.lir_count += 1;
                    self.demote_bottom_lir();
                } else {
                    self.status
                        .insert(key.clone(), Status::Hir { resident: true });
                    self.queue.touch(key);
                }
                self.enforce_history_limit();
                CacheEvent::Miss { evicted }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LruCache;

    #[test]
    fn never_exceeds_capacity() {
        let mut lirs = Lirs::new(8, 0.25);
        for i in 0..500u64 {
            lirs.access(i % 23);
            assert!(lirs.len() <= 8, "len = {}", lirs.len());
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "a test-only reference model; its hashing cost is never on the replay path"
    )]
    fn hit_iff_resident_model() {
        let mut lirs = Lirs::new(6, 0.34);
        let mut resident = std::collections::HashSet::new();
        let mut x = 5u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (x >> 33) % 17;
            let event = lirs.access(k);
            assert_eq!(event.is_hit(), resident.contains(&k), "key {k}");
            if let CacheEvent::Miss { evicted } = event {
                if let Some(v) = evicted {
                    assert!(resident.remove(&v));
                }
                resident.insert(k);
            }
        }
    }

    #[test]
    fn beats_lru_on_weak_locality_loop() {
        // The LIRS paper's motivating case: a loop slightly larger than
        // the cache. LRU gets zero; LIRS keeps most of the LIR set
        // resident.
        let capacity = 100;
        let loop_len = 120u64;
        let mut lirs = Lirs::new(capacity, 0.05);
        let mut lru = LruCache::new(capacity);
        let mut lirs_hits = 0;
        let mut lru_hits = 0;
        for i in 0..120 * 50 {
            let k = i % loop_len;
            if lirs.access(k).is_hit() {
                lirs_hits += 1;
            }
            if lru.access(k).is_hit() {
                lru_hits += 1;
            }
        }
        assert_eq!(lru_hits, 0);
        assert!(
            lirs_hits > 120 * 50 / 2,
            "LIRS hits = {lirs_hits} of {}",
            120 * 50
        );
    }

    #[test]
    fn scan_does_not_flush_the_lir_set() {
        let mut lirs = Lirs::new(50, 0.1);
        // Build a hot LIR set.
        for _ in 0..5 {
            for i in 0..40u64 {
                lirs.access(i);
            }
        }
        // A long one-shot scan.
        for i in 1000..3000u64 {
            lirs.access(i);
        }
        // The hot set is still resident.
        let mut hits = 0;
        for i in 0..40u64 {
            if lirs.access(i).is_hit() {
                hits += 1;
            }
        }
        assert!(hits >= 35, "hot-set hits after scan = {hits}/40");
    }

    #[test]
    fn lru_friendly_traffic_is_not_much_worse_than_lru() {
        // Temporally clustered accesses: LIRS should track LRU closely.
        let capacity = 64;
        let mut lirs = Lirs::new(capacity, 0.02);
        let mut lru = LruCache::new(capacity);
        let mut stack: Vec<u64> = (0..256).collect();
        let mut x = 3u64;
        let mut lirs_hits = 0usize;
        let mut lru_hits = 0usize;
        for _ in 0..20_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(13);
            // Geometric-ish depth.
            let d =
                ((x >> 33) % 64) as usize * ((x >> 50) % 2) as usize + ((x >> 12) % 32) as usize;
            let k = stack.remove(d.min(stack.len() - 1));
            stack.insert(0, k);
            if lirs.access(k).is_hit() {
                lirs_hits += 1;
            }
            if lru.access(k).is_hit() {
                lru_hits += 1;
            }
        }
        assert!(
            lirs_hits as f64 > 0.85 * lru_hits as f64,
            "LIRS {lirs_hits} vs LRU {lru_hits}"
        );
    }

    #[test]
    fn lir_set_respects_its_capacity() {
        let mut lirs = Lirs::new(10, 0.3);
        for i in 0..200u64 {
            lirs.access(i % 9);
            assert!(lirs.lir_len() <= 7, "lir = {}", lirs.lir_len());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Lirs::<u8>::new(0, 0.1);
    }
}
