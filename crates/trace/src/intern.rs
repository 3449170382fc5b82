//! Flat-table block maps.
//!
//! Every hot loop in the simulation engine keys some table by [`BlockId`].
//! A `std::collections::HashMap<BlockId, V>` pays a SipHash of the full
//! 64-bit id on every probe; the engine, however, only ever sees a
//! bounded universe of blocks — the trace footprint — and most workloads
//! number theirs compactly, so a table access can be a vector index.
//!
//! [`BlockMap`] is a two-tier flat table. Raw ids below
//! [`DIRECT_LIMIT`] — every looping/Zipf/temporal synthetic workload and
//! any real trace with compact block numbers — index a direct slot vector
//! with **no hashing at all**; sparse ids (file-set ids pack the file
//! index at bit 32) fall back to the vendored fast-hash map, one cheap
//! multiply-rotate hash instead of a SipHash. This is what buys the E9
//! throughput win: the hot path degenerates to a bounds check and a
//! vector load.
//!
//! Iteration over a [`BlockMap`] visits direct entries in raw-id order,
//! then fallback entries in fast-hash order. Both orders are the same in
//! every run (the Fx hasher carries no per-process seed), but they follow
//! insertion history, so callers iterate only where order is
//! behaviourally irrelevant.

use crate::BlockId;
use fxhash::FxHashMap;
use ulc_cache::{NodeHandle, NodeLocator};

/// Raw block ids below this bound are direct-indexed by a dense
/// [`BlockMap`]; ids at or above it (file-set ids pack the file index at
/// bit 32) take its fast-hash fallback. Bounds the worst-case direct table
/// at 2 M slots per map.
pub const DIRECT_LIMIT: u64 = 1 << 21;

/// A map from [`BlockId`] to `V` over a two-tier flat table.
///
/// Raw ids below [`DIRECT_LIMIT`] index a flat slot vector directly with
/// no hashing at all; sparser ids fall back to the vendored fast-hash
/// map.
///
/// # Examples
///
/// ```
/// use ulc_trace::{BlockId, BlockMap};
///
/// let mut m: BlockMap<u32> = BlockMap::new();
/// assert_eq!(m.insert(BlockId::new(9), 1), None);
/// assert_eq!(m.insert(BlockId::new(9), 2), Some(1));
/// assert_eq!(m.get(BlockId::new(9)), Some(&2));
/// assert_eq!(m.remove(BlockId::new(9)), Some(2));
/// assert!(m.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct BlockMap<V> {
    /// Slots for raw ids below [`DIRECT_LIMIT`], indexed by the raw id
    /// itself; grown on demand to the largest id seen.
    direct: Vec<Option<V>>,
    /// Occupied slots in `direct`.
    direct_len: usize,
    /// Fast-hash fallback for sparse raw ids (at or above
    /// [`DIRECT_LIMIT`]).
    sparse: FxHashMap<u64, V>,
}

impl<V> Default for BlockMap<V> {
    fn default() -> Self {
        BlockMap::new()
    }
}

impl<V> BlockMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        BlockMap {
            direct: Vec::new(),
            direct_len: 0,
            sparse: FxHashMap::default(),
        }
    }

    /// Returns a reference to the value for `block`, if present.
    #[inline]
    pub fn get(&self, block: BlockId) -> Option<&V> {
        let raw = block.raw();
        if raw < DIRECT_LIMIT {
            self.direct.get(raw as usize).and_then(Option::as_ref)
        } else {
            self.sparse.get(&raw)
        }
    }

    /// Returns a mutable reference to the value for `block`, if present.
    #[inline]
    pub fn get_mut(&mut self, block: BlockId) -> Option<&mut V> {
        let raw = block.raw();
        if raw < DIRECT_LIMIT {
            self.direct.get_mut(raw as usize).and_then(Option::as_mut)
        } else {
            self.sparse.get_mut(&raw)
        }
    }

    /// Returns `true` if `block` has a value.
    #[inline]
    pub fn contains_key(&self, block: BlockId) -> bool {
        self.get(block).is_some()
    }

    /// Inserts `value` for `block`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, block: BlockId, value: V) -> Option<V> {
        let raw = block.raw();
        if raw < DIRECT_LIMIT {
            let i = raw as usize;
            if i >= self.direct.len() {
                self.direct.resize_with(i + 1, || None);
            }
            let old = self.direct[i].replace(value);
            if old.is_none() {
                self.direct_len += 1;
            }
            old
        } else {
            self.sparse.insert(raw, value)
        }
    }

    /// Removes and returns the value for `block`, if present.
    #[inline]
    pub fn remove(&mut self, block: BlockId) -> Option<V> {
        let raw = block.raw();
        if raw < DIRECT_LIMIT {
            let old = self.direct.get_mut(raw as usize).and_then(Option::take);
            if old.is_some() {
                self.direct_len -= 1;
            }
            old
        } else {
            self.sparse.remove(&raw)
        }
    }

    /// Reserves room for `additional` more entries in the sparse
    /// fallback (the tier file-set ids land in).
    ///
    /// The direct slot vector is left alone: it is grown to the largest
    /// sub-[`DIRECT_LIMIT`] id seen, which any warm-up phase discovers,
    /// while the fallback's occupancy high-water can be reached
    /// arbitrarily late in a run and would otherwise pay a rehash inside
    /// a measured steady phase (DESIGN.md §5f).
    pub fn reserve(&mut self, additional: usize) {
        self.sparse.reserve(additional);
    }

    /// Hints the CPU to pull the direct-table slot for `block` into
    /// cache. A no-op for out-of-range or sparse ids and on non-x86_64
    /// targets; never touches map contents, so calling it (or not) for
    /// any block is semantics-free — the batched access pipeline issues
    /// it a few references ahead of the access itself.
    #[inline]
    pub fn prefetch(&self, block: BlockId) {
        #[cfg(target_arch = "x86_64")]
        {
            let raw = block.raw();
            if raw < DIRECT_LIMIT {
                if let Some(slot) = self.direct.get(raw as usize) {
                    // SAFETY: `slot` is a live reference into `direct`;
                    // prefetch dereferences nothing, it only hints the
                    // cache about a valid address.
                    unsafe {
                        std::arch::x86_64::_mm_prefetch(
                            (slot as *const Option<V>).cast::<i8>(),
                            std::arch::x86_64::_MM_HINT_T0,
                        );
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = block;
    }

    /// Number of entries with a value.
    pub fn len(&self) -> usize {
        self.direct_len + self.sparse.len()
    }

    /// Returns `true` if the map holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every value. The direct table keeps its slots allocated,
    /// so re-inserted blocks pay no regrowth.
    pub fn clear(&mut self) {
        for s in self.direct.iter_mut() {
            *s = None;
        }
        self.direct_len = 0;
        self.sparse.clear();
    }

    /// Iterates over `(block, &value)` pairs.
    ///
    /// Order is raw-id order over the direct table, then fast-hash order
    /// over the sparse fallback; use only where order cannot influence
    /// behaviour.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            direct: self.direct.iter().enumerate(),
            sparse: self.sparse.iter(),
        }
    }
}

/// A [`BlockMap`] of node handles locates the nodes of an
/// `ulc_cache::LruStack`/`LruCache` over blocks: the cache levels then
/// find a block by direct index instead of by hash (DESIGN.md §5e).
impl NodeLocator<BlockId> for BlockMap<NodeHandle> {
    #[inline]
    fn locate(&self, key: &BlockId) -> Option<NodeHandle> {
        self.get(*key).copied()
    }

    #[inline]
    fn record(&mut self, key: BlockId, node: NodeHandle) {
        self.insert(key, node);
    }

    #[inline]
    fn forget(&mut self, key: &BlockId) -> Option<NodeHandle> {
        self.remove(*key)
    }

    #[inline]
    fn prefetch_key(&self, key: &BlockId) {
        self.prefetch(*key);
    }
}

/// Iterator over a [`BlockMap`]; created by [`BlockMap::iter`]. Visits
/// direct slots in raw-id order, then the sparse fallback in fast-hash
/// order.
#[derive(Debug)]
pub struct Iter<'a, V> {
    /// Enumerated direct-slot cursor (index is the raw id).
    direct: std::iter::Enumerate<std::slice::Iter<'a, Option<V>>>,
    /// Sparse-fallback cursor.
    sparse: std::collections::hash_map::Iter<'a, u64, V>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (BlockId, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        for (raw, slot) in self.direct.by_ref() {
            if let Some(v) = slot.as_ref() {
                return Some((BlockId::new(raw as u64), v));
            }
        }
        self.sparse.next().map(|(&raw, v)| (BlockId::new(raw), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_map_semantics() {
        let mut m: BlockMap<u32> = BlockMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(BlockId::new(3), 30), None);
        assert_eq!(m.insert(BlockId::new(4), 40), None);
        assert_eq!(m.insert(BlockId::new(3), 31), Some(30));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(BlockId::new(3)), Some(&31));
        assert!(m.contains_key(BlockId::new(4)));
        *m.get_mut(BlockId::new(4)).unwrap() += 1;
        assert_eq!(m.remove(BlockId::new(4)), Some(41));
        assert_eq!(m.remove(BlockId::new(4)), None);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(BlockId::new(3)), None);
        // Reuse after clear.
        assert_eq!(m.insert(BlockId::new(3), 99), None);
        assert_eq!(m.get(BlockId::new(3)), Some(&99));
    }

    #[test]
    fn dense_iter_is_raw_order_then_spill_order() {
        let mut m: BlockMap<u32> = BlockMap::new();
        m.insert(BlockId::new(9), 1);
        m.insert(BlockId::new(2), 2);
        m.insert(BlockId::new(5), 3);
        m.insert(BlockId::new(DIRECT_LIMIT + 7), 4); // spills
        m.remove(BlockId::new(2));
        let got: Vec<(u64, u32)> = m.iter().map(|(b, &v)| (b.raw(), v)).collect();
        assert_eq!(got, vec![(5, 3), (9, 1), (DIRECT_LIMIT + 7, 4)]);
    }

    #[test]
    fn sparse_ids_use_the_fast_hash_fallback() {
        // File-set ids pack the file index at bit 32, far above
        // DIRECT_LIMIT; both tiers must obey identical map semantics.
        let lo = BlockId::new(3);
        let hi = BlockId::new((7u64 << 32) | 3);
        let mut m: BlockMap<u32> = BlockMap::new();
        assert_eq!(m.insert(lo, 1), None);
        assert_eq!(m.insert(hi, 2), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(lo), Some(&1));
        assert_eq!(m.get(hi), Some(&2));
        assert_eq!(m.insert(hi, 20), Some(2));
        assert_eq!(m.remove(hi), Some(20));
        assert_eq!(m.get(hi), None);
        assert_eq!(m.get(lo), Some(&1));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.insert(hi, 9), None);
        assert_eq!(m.get(hi), Some(&9));
    }
}
