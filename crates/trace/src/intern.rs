//! Dense block-ID interning and flat-table block maps.
//!
//! Every hot loop in the simulation engine keys some table by [`BlockId`].
//! A `std::collections::HashMap<BlockId, V>` pays a SipHash of the full
//! 64-bit id on every probe; the engine, however, only ever sees a
//! bounded universe of blocks — the trace footprint — so the ids can be
//! *interned* once into dense `u32` indices and every subsequent table
//! access becomes a vector index.
//!
//! * [`BlockInterner`] assigns dense indices in first-seen order. Indices
//!   are **stable under incremental insertion**: interning a stream
//!   record-by-record (the online case) yields exactly the indices a
//!   whole-trace pass would (see the property tests).
//! * [`BlockMap`] is the flat `Vec`-indexed table the protocols use.
//! * [`next_use_times_interned`] routes the OPT forward-distance scan
//!   through the interner (one intern per reference, then pure array
//!   arithmetic), replacing the borrow-then-rehash double hashing the
//!   generic scan used to do.
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

use crate::{BlockId, Trace};
use fxhash::FxHashMap;
use ulc_cache::{NodeHandle, NodeLocator};

/// A sentinel meaning "no next use" in the OPT forward scan; matches
/// `ulc_cache::opt::NEVER`.
const NEVER: u64 = u64::MAX;

/// Raw block ids below this bound are direct-indexed by a dense
/// [`BlockMap`]; ids at or above it (file-set ids pack the file index at
/// bit 32) go through the interner. Bounds the worst-case direct table at
/// 2 M slots per map.
pub const DIRECT_LIMIT: u64 = 1 << 21;

/// Maps [`BlockId`]s to dense `u32` indices in first-seen order.
///
/// # Examples
///
/// ```
/// use ulc_trace::{BlockId, BlockInterner};
///
/// let mut interner = BlockInterner::new();
/// let a = interner.intern(BlockId::new(700));
/// let b = interner.intern(BlockId::new(3));
/// assert_eq!((a, b), (0, 1));
/// assert_eq!(interner.intern(BlockId::new(700)), 0); // stable
/// assert_eq!(interner.resolve(1), Some(BlockId::new(3)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct BlockInterner {
    index_of: FxHashMap<u64, u32>,
    blocks: Vec<BlockId>,
}

impl BlockInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        BlockInterner::default()
    }

    /// Creates an empty interner with room for `capacity` distinct blocks.
    pub fn with_capacity(capacity: usize) -> Self {
        BlockInterner {
            index_of: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            blocks: Vec::with_capacity(capacity),
        }
    }

    /// Builds an interner over a whole trace and returns it together with
    /// the trace's reference stream re-expressed as dense indices.
    pub fn from_trace(trace: &Trace) -> (Self, Vec<u32>) {
        let mut interner = BlockInterner::with_capacity(trace.len().min(1 << 20));
        let ids = trace.iter().map(|r| interner.intern(r.block)).collect();
        (interner, ids)
    }

    /// Interns `block`, returning its dense index. The first call for a
    /// given block assigns the next free index; later calls return the
    /// same index forever.
    #[inline]
    pub fn intern(&mut self, block: BlockId) -> u32 {
        match self.index_of.entry(block.raw()) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let idx = self.blocks.len() as u32;
                assert!(idx != u32::MAX, "block universe exceeds u32 indices");
                self.blocks.push(block);
                e.insert(idx);
                idx
            }
        }
    }

    /// Returns the dense index of `block` if it has been interned.
    #[inline]
    pub fn get(&self, block: BlockId) -> Option<u32> {
        self.index_of.get(&block.raw()).copied()
    }

    /// Returns the block behind a dense index, if `idx` was assigned.
    #[inline]
    pub fn resolve(&self, idx: u32) -> Option<BlockId> {
        self.blocks.get(idx as usize).copied()
    }

    /// Number of distinct blocks interned so far.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

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

/// OPT forward distances, routed through the interner: for every position
/// `i`, the time of the next reference to the same block, or `u64::MAX`
/// if it is never referenced again.
///
/// This is the interned replacement for the generic
/// `ulc_cache::opt::next_use_times` scan, which kept a
/// `HashMap<&T, usize>` and hashed each key twice per step (a lookup
/// immediately followed by an insert). Here each reference is interned
/// once (one fast hash) and the scan itself is pure array arithmetic.
///
/// # Examples
///
/// ```
/// use ulc_trace::{intern::next_use_times_interned, BlockId};
///
/// let blocks: Vec<BlockId> = [1u64, 2, 1].map(BlockId::new).into();
/// assert_eq!(next_use_times_interned(&blocks), vec![2, u64::MAX, u64::MAX]);
/// ```
pub fn next_use_times_interned(blocks: &[BlockId]) -> Vec<u64> {
    let mut interner = BlockInterner::with_capacity(blocks.len().min(1 << 20));
    let ids: Vec<u32> = blocks.iter().map(|&b| interner.intern(b)).collect();
    let mut last_seen: Vec<u64> = vec![NEVER; interner.len()];
    let mut out = vec![NEVER; ids.len()];
    for (i, &id) in ids.iter().enumerate().rev() {
        out[i] = last_seen[id as usize];
        last_seen[id as usize] = i as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raws: &[u64]) -> Vec<BlockId> {
        raws.iter().copied().map(BlockId::new).collect()
    }

    #[test]
    fn intern_assigns_first_seen_order() {
        let mut it = BlockInterner::new();
        assert_eq!(it.intern(BlockId::new(50)), 0);
        assert_eq!(it.intern(BlockId::new(7)), 1);
        assert_eq!(it.intern(BlockId::new(50)), 0);
        assert_eq!(it.len(), 2);
        assert_eq!(it.get(BlockId::new(7)), Some(1));
        assert_eq!(it.get(BlockId::new(8)), None);
        assert_eq!(it.resolve(0), Some(BlockId::new(50)));
        assert_eq!(it.resolve(2), None);
    }

    #[test]
    fn from_trace_matches_incremental() {
        let t = Trace::from_blocks(ids(&[5, 9, 5, 2, 9, 5]));
        let (interner, stream) = BlockInterner::from_trace(&t);
        assert_eq!(stream, vec![0, 1, 0, 2, 1, 0]);
        let mut inc = BlockInterner::new();
        let inc_stream: Vec<u32> = t.iter().map(|r| inc.intern(r.block)).collect();
        assert_eq!(stream, inc_stream);
        assert_eq!(interner.len(), inc.len());
    }

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

    #[test]
    fn interned_next_use_matches_naive() {
        let blocks = ids(&[1, 2, 1, 3, 2, 1, 4]);
        let got = next_use_times_interned(&blocks);
        // Naive O(n^2) oracle.
        let mut want = vec![NEVER; blocks.len()];
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                if blocks[j] == blocks[i] {
                    want[i] = j as u64;
                    break;
                }
            }
        }
        assert_eq!(got, want);
        assert!(next_use_times_interned(&[]).is_empty());
    }
}
