//! The `uniLRUstack` — ULC's central data structure (§3.2, Figure 4).
//!
//! One unified LRU stack holds metadata for every recently referenced
//! block, cached or not. For each cache level `Lᵢ` a **yardstick** `Yᵢ`
//! points at the block cached at that level with maximal recency (the
//! deepest `Lᵢ` entry in the stack); the stretch of stack between two
//! yardsticks is that level's recency region. When a block is referenced,
//! the region its *last* access fell in — its LLD, found by comparing its
//! stack position against the yardsticks — decides which level it will be
//! cached at, and the blocks of one level, ordered by stack recency, form
//! that level's local replacement stack (`LRUᵢ`, whose bottom block is the
//! yardstick and the level's victim).
//!
//! ## Mechanics
//!
//! Every entry carries a monotonically increasing `stamp` assigned when it
//! is (re)inserted at the top, so the stack is always ordered by stamp and
//! "is A deeper than B" is a single comparison — this is what makes every
//! operation O(1) amortised, as §3.2 requires. The recency status of an
//! entry is *derived*: the smallest level `j` whose yardstick stamp does
//! not exceed the entry's stamp. The paper's two stack operations map to:
//!
//! * **YardStickAdjustment** — when a yardstick block leaves its position
//!   (re-accessed or demoted), the yardstick walks toward the stack top to
//!   the next block of its level.
//! * **DemotionSearching** — the demotion cascade: the victim of level `i`
//!   is always `Yᵢ`; demoting it into `i+1` may overflow that level and
//!   demote its yardstick in turn, until a level with spare room absorbs
//!   the chain or the bottom level evicts to `L_out`.
//!
//! Entries below the last yardstick that are not cached anywhere are
//! trimmed (§3.2: the stack size is bounded by `Yₙ`; §5: cold entries can
//! be trimmed to bound metadata).

use crate::scratch::AccessScratch;
use ulc_cache::{LinkedSlab, NodeHandle};
use ulc_trace::{BlockId, BlockMap};

/// Level tag for "not cached at any level".
const OUT: u8 = u8::MAX;

/// Where a block is (or will be) held.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Cached at the given level (0-indexed: 0 is the client cache).
    Level(usize),
    /// Not cached at any level.
    Uncached,
}

impl Placement {
    /// The level index, if cached.
    pub fn level(self) -> Option<usize> {
        match self {
            Placement::Level(l) => Some(l),
            Placement::Uncached => None,
        }
    }
}

#[derive(Clone, Debug)]
struct Entry {
    block: BlockId,
    level: u8,
    stamp: u64,
}

/// The fixed-size part of an access result: where the block was found
/// and where it was placed. [`UniLruStack::access_into`] returns this by
/// value; the variable-length side effects (demotions, evictions) land in
/// the caller's [`AccessScratch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StackAccess {
    /// Where the block was found: its retrieval source. `Uncached` means
    /// the block was read from disk (either absent from the stack or
    /// resident only as history).
    pub found: Placement,
    /// Whether the block had stack history (metadata present).
    pub was_in_stack: bool,
    /// Where the block was placed by this access.
    pub placed: Placement,
}

/// The unified LRU stack with yardsticks.
#[derive(Debug)]
pub struct UniLruStack {
    list: LinkedSlab<Entry>,
    /// Block → node location.
    map: BlockMap<NodeHandle>,
    yardsticks: Vec<Option<NodeHandle>>,
    counts: Vec<usize>,
    capacities: Vec<usize>,
    /// A level may be declared full by the environment even when this
    /// client's own count is below capacity (shared-server case).
    external_full: Vec<bool>,
    next_stamp: u64,
    /// Optional bound on total stack entries (§5 metadata trimming).
    stack_limit: Option<usize>,
    #[cfg(feature = "debug_invariants")]
    tick: u64,
}

impl UniLruStack {
    /// Creates a stack for a hierarchy whose level `i` holds
    /// `capacities[i]` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty, has more than 250 levels, or any
    /// capacity is zero.
    pub fn new(capacities: Vec<usize>) -> Self {
        assert!(!capacities.is_empty(), "at least one level is required");
        assert!(capacities.len() < OUT as usize, "too many levels");
        assert!(
            capacities.iter().all(|&c| c > 0),
            "level capacities must be positive"
        );
        let n = capacities.len();
        UniLruStack {
            list: LinkedSlab::new(),
            map: BlockMap::new(),
            yardsticks: vec![None; n],
            counts: vec![0; n],
            capacities,
            external_full: vec![false; n],
            next_stamp: 0,
            stack_limit: None,
            #[cfg(feature = "debug_invariants")]
            tick: 0,
        }
    }

    /// Pre-sizes the node slab and locator table for `blocks` resident
    /// entries (cached blocks plus uncached history). The stack still
    /// grows past the reservation if a run's history exceeds it — this
    /// only moves the allocations out of the measured steady phase
    /// (DESIGN.md §5f), it never changes behaviour.
    pub fn reserve_blocks(&mut self, blocks: usize) {
        self.list.reserve(blocks);
        self.map.reserve(blocks);
    }

    /// Hints the CPU to pull `block`'s locator-table row into cache; see
    /// [`BlockMap::prefetch`]. Semantics-free, so the batched access
    /// pipeline may issue it for any upcoming reference.
    #[inline]
    pub fn prefetch(&self, block: BlockId) {
        self.map.prefetch(block);
    }

    /// Bounds the number of stack entries; uncached history beyond the
    /// bound is trimmed from the bottom.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is smaller than the aggregate cache capacity
    /// (cached entries can never be trimmed).
    pub fn set_stack_limit(&mut self, limit: Option<usize>) {
        if let Some(l) = limit {
            let aggregate: usize = self.capacities.iter().sum();
            assert!(
                l >= aggregate,
                "stack limit must cover all cached blocks ({aggregate})"
            );
        }
        self.stack_limit = limit;
        self.trim();
    }

    /// Declares level `level` full (or not) regardless of this stack's own
    /// count — used by the multi-client protocol, where the server is
    /// shared and may be filled by other clients.
    pub fn set_external_full(&mut self, level: usize, full: bool) {
        self.external_full[level] = full;
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.capacities.len()
    }

    /// Capacity of `level`.
    pub fn capacity(&self, level: usize) -> usize {
        self.capacities[level]
    }

    /// Number of blocks currently held at `level`.
    pub fn level_len(&self, level: usize) -> usize {
        self.counts[level]
    }

    /// Total entries in the stack (cached + history).
    pub fn stack_len(&self) -> usize {
        self.list.len()
    }

    /// The level a block is cached at, if any.
    pub fn cached_level(&self, block: BlockId) -> Option<usize> {
        let &h = self.map.get(block)?;
        let e = self.list.get(h).expect("mapped handles are live");
        if e.level == OUT {
            None
        } else {
            Some(e.level as usize)
        }
    }

    /// Whether a block has metadata in the stack (cached or history).
    pub fn contains(&self, block: BlockId) -> bool {
        self.map.contains_key(block)
    }

    /// The yardstick block of `level` — the level's replacement victim.
    pub fn yardstick(&self, level: usize) -> Option<BlockId> {
        self.yardsticks[level].map(|h| self.list.get(h).expect("yardsticks are live").block)
    }

    /// All blocks cached at `level`, from most to least recent. O(stack).
    pub fn level_blocks(&self, level: usize) -> Vec<BlockId> {
        let mut blocks = Vec::new();
        self.level_blocks_into(level, &mut blocks);
        blocks
    }

    /// [`Self::level_blocks`] into a reused buffer, cleared first.
    pub(crate) fn level_blocks_into(&self, level: usize, blocks: &mut Vec<BlockId>) {
        blocks.clear();
        blocks.extend(
            self.list
                .iter()
                .filter(|(_, e)| e.level == level as u8)
                .map(|(_, e)| e.block),
        );
    }

    fn entry(&self, h: NodeHandle) -> &Entry {
        self.list.get(h).expect("internal handles are live")
    }

    fn stamp_of(&self, h: NodeHandle) -> u64 {
        self.entry(h).stamp
    }

    fn is_full(&self, level: usize) -> bool {
        self.external_full[level] || self.counts[level] >= self.capacities[level]
    }

    /// The recency region of an in-stack entry: the smallest level whose
    /// yardstick is at least as deep as the entry (§3.2.1's recency
    /// status), falling back to the shallowest non-full level, else
    /// `Uncached`.
    fn region_of(&self, h: NodeHandle) -> Placement {
        let stamp = self.stamp_of(h);
        for (j, y) in self.yardsticks.iter().enumerate() {
            if let Some(yh) = y {
                if stamp >= self.stamp_of(*yh) {
                    return Placement::Level(j);
                }
            }
        }
        self.first_open_level()
    }

    /// The region of a block with no stack history (`L_out` arrival).
    fn region_of_new(&self) -> Placement {
        self.first_open_level()
    }

    fn first_open_level(&self) -> Placement {
        match (0..self.num_levels()).find(|&j| !self.is_full(j)) {
            Some(j) => Placement::Level(j),
            None => Placement::Uncached,
        }
    }

    /// YardStickAdjustment: the yardstick block of `level` is about to
    /// leave its position (or its level); walk toward the stack top to the
    /// next block of the level. With no such block: keep the current node
    /// if `keep` (it stays in the level), else clear the yardstick.
    fn adjust_yardstick_up(&mut self, level: usize, from: NodeHandle, keep: bool) {
        let mut cur = self.list.prev(from);
        while let Some(c) = cur {
            if self.entry(c).level == level as u8 {
                self.yardsticks[level] = Some(c);
                return;
            }
            cur = self.list.prev(c);
        }
        self.yardsticks[level] = if keep { Some(from) } else { None };
    }

    /// A block (at `h`) has just been given `level`; make it the yardstick
    /// if it is the level's deepest block.
    fn maybe_take_yardstick(&mut self, level: usize, h: NodeHandle) {
        match self.yardsticks[level] {
            None => self.yardsticks[level] = Some(h),
            Some(y) => {
                if self.stamp_of(h) < self.stamp_of(y) {
                    self.yardsticks[level] = Some(h);
                }
            }
        }
    }

    /// The demotion cascade (DemotionSearching): starting at `level`,
    /// demote each over-full level's yardstick block into the next level,
    /// until a level absorbs the chain or the bottom level evicts.
    ///
    /// Demotion *transfers* are charged per boundary a block actually
    /// crosses and settles beyond. A demoted block that immediately
    /// becomes the next level's victim falls through without a transfer
    /// there, and a block that falls all the way out is simply discarded —
    /// the directing client knows the whole chain in advance (§3.2.1), so
    /// it never ships a block that has nowhere to stay.
    fn cascade(&mut self, start: usize, scratch: &mut AccessScratch) {
        let n = self.num_levels();
        // `scratch.moved` holds (handle, level it was first demoted from);
        // cascades are at most `n` long, so a linear dedup scan is fine.
        scratch.moved.clear();
        let mut lvl = start;
        while lvl < n && self.counts[lvl] > self.capacities[lvl] {
            let victim = self.yardsticks[lvl].expect("over-full level has a yardstick");
            self.adjust_yardstick_up(lvl, victim, false);
            self.counts[lvl] -= 1;
            if !scratch.moved.iter().any(|&(h, _)| h == victim) {
                scratch.moved.push((victim, lvl));
            }
            if lvl + 1 < n {
                self.list
                    .get_mut(victim)
                    .expect("victim handle is live")
                    .level = (lvl + 1) as u8;
                self.counts[lvl + 1] += 1;
                self.maybe_take_yardstick(lvl + 1, victim);
                lvl += 1;
            } else {
                // Falls out of the bottom level: becomes L_out history.
                self.list
                    .get_mut(victim)
                    .expect("victim handle is live")
                    .level = OUT;
                break;
            }
        }
        for k in 0..scratch.moved.len() {
            let (h, from) = scratch.moved[k];
            let e = self.entry(h);
            let (block, level) = (e.block, e.level);
            if level == OUT {
                scratch.evicted.push(block);
            } else {
                for m in from..level as usize {
                    scratch.demotions[m] += 1;
                }
                scratch.demoted.push((block, from, level as usize));
            }
        }
    }

    /// Removes uncached history entries from the stack bottom: everything
    /// below the last yardstick, plus anything beyond the stack limit.
    fn trim(&mut self) {
        let last = self.num_levels() - 1;
        while let Some(back) = self.list.back() {
            let e = self.entry(back);
            if e.level != OUT {
                break;
            }
            let below_last_yardstick = match self.yardsticks[last] {
                Some(y) => e.stamp < self.stamp_of(y),
                None => false,
            };
            let over_limit = self.stack_limit.is_some_and(|l| self.list.len() > l);
            if !(below_last_yardstick || over_limit) {
                break;
            }
            let block = e.block;
            self.map.remove(block);
            self.list.remove(back);
        }
        // The limit must hold even when cached entries sit at the very
        // bottom: walk upward past them and drop the oldest history.
        if let Some(limit) = self.stack_limit {
            let mut cursor = self.list.back();
            while self.list.len() > limit {
                let Some(h) = cursor else { break };
                cursor = self.list.prev(h);
                if self.entry(h).level == OUT {
                    let block = self.entry(h).block;
                    self.map.remove(block);
                    self.list.remove(h);
                }
            }
        }
    }

    /// Handles one reference to `block` — the complete §3.2.1 algorithm.
    ///
    /// [`UniLruStack::access_into`] over a fresh [`AccessScratch`], returned
    /// with the summary: for tests and one-off callers. Steady-state hot
    /// paths should own one scratch and call `access_into` instead.
    pub fn access(&mut self, block: BlockId) -> (StackAccess, AccessScratch) {
        let mut scratch = AccessScratch::new();
        let res = self.access_into(block, &mut scratch);
        (res, scratch)
    }

    /// Handles one reference to `block`, writing the variable-length side
    /// effects (demotion counters, demoted blocks, evictions) into the
    /// caller-owned `scratch` instead of allocating. The scratch is reset
    /// first, so reuse across accesses — even dirty from another stack —
    /// is always equivalent to passing a fresh one.
    pub fn access_into(&mut self, block: BlockId, scratch: &mut AccessScratch) -> StackAccess {
        let n = self.num_levels();
        scratch.reset(n - 1);
        let mut outcome = StackAccess {
            found: Placement::Uncached,
            was_in_stack: false,
            placed: Placement::Uncached,
        };

        if let Some(&h) = self.map.get(block) {
            outcome.was_in_stack = true;
            let level = self.entry(h).level;
            let region = self.region_of(h);

            if level != OUT {
                // Cached at level i; the region gives the target level j.
                let i = level as usize;
                outcome.found = Placement::Level(i);
                let j = region
                    .level()
                    .expect("a cached block always lies in some region");
                debug_assert!(
                    j <= i,
                    "recency status deeper than level status is impossible (i={i}, j={j})"
                );
                // The block leaves its position: adjust its yardstick.
                if self.yardsticks[i] == Some(h) {
                    self.adjust_yardstick_up(i, h, j == i);
                }
                self.list.move_to_front(h);
                self.list.get_mut(h).expect("handle is live").stamp = self.next_stamp;
                self.next_stamp += 1;
                if j < i {
                    // Retrieve(b, i, j): promote; free a slot at level j by
                    // demoting yardsticks down toward level i.
                    self.list.get_mut(h).expect("handle is live").level = j as u8;
                    self.counts[j] += 1;
                    self.counts[i] -= 1;
                    if self.counts[i] == 0 {
                        self.yardsticks[i] = None;
                    }
                    self.maybe_take_yardstick(j, h);
                    self.cascade(j, scratch);
                    outcome.placed = Placement::Level(j);
                } else {
                    // Retrieve(b, i, i): stays at its level.
                    outcome.placed = Placement::Level(i);
                }
            } else {
                // History entry (L_out): a miss, but its LLD is known.
                self.list.move_to_front(h);
                self.list.get_mut(h).expect("handle is live").stamp = self.next_stamp;
                self.next_stamp += 1;
                match region {
                    Placement::Level(j) => {
                        self.list.get_mut(h).expect("handle is live").level = j as u8;
                        self.counts[j] += 1;
                        self.maybe_take_yardstick(j, h);
                        self.cascade(j, scratch);
                        outcome.placed = Placement::Level(j);
                    }
                    Placement::Uncached => {
                        // Weak locality: retrieved for the application but
                        // cached nowhere (it passes through tempLRU).
                        outcome.placed = Placement::Uncached;
                    }
                }
            }
        } else {
            // No history: first access (or trimmed long ago).
            let region = self.region_of_new();
            let h = self.list.push_front(Entry {
                block,
                level: OUT,
                stamp: self.next_stamp,
            });
            self.next_stamp += 1;
            self.map.insert(block, h);
            if let Placement::Level(j) = region {
                self.list.get_mut(h).expect("fresh handle").level = j as u8;
                self.counts[j] += 1;
                self.maybe_take_yardstick(j, h);
                // The target level was not full, so no cascade is needed.
                outcome.placed = Placement::Level(j);
            }
        }
        self.trim();
        self.debug_validate();
        outcome
    }

    /// Externally evicts `block` from cache level `level` (server
    /// replacement notification in the multi-client protocol, §3.2.2): the
    /// entry becomes history and the yardstick adjusts — the client's
    /// share of that level shrinks by one. One locator probe decides and
    /// performs the eviction.
    ///
    /// Returns `false`, changing nothing, if the block is not cached at
    /// `level` (unknown, history, or held at another level).
    pub fn evict_cached(&mut self, block: BlockId, level: usize) -> bool {
        let Some(&h) = self.map.get(block) else {
            return false;
        };
        if self.entry(h).level as usize != level {
            return false;
        }
        if self.yardsticks[level] == Some(h) {
            self.adjust_yardstick_up(level, h, false);
        }
        self.counts[level] -= 1;
        if self.counts[level] == 0 {
            self.yardsticks[level] = None;
        }
        self.list.get_mut(h).expect("handle is live").level = OUT;
        self.trim();
        self.debug_validate();
        true
    }

    /// Amortised feature-gated self-check: every mutation while the stack
    /// is small, every 256th once it grows.
    #[inline]
    fn debug_validate(&mut self) {
        #[cfg(feature = "debug_invariants")]
        {
            self.tick += 1;
            if self.list.len() < 64 || self.tick.is_multiple_of(256) {
                self.check_invariants();
            }
        }
    }

    /// Validates every structural invariant; for tests.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self) {
        // Stamps strictly decrease front to back.
        let mut prev: Option<u64> = None;
        let mut counts = vec![0usize; self.num_levels()];
        let mut deepest: Vec<Option<(u64, BlockId)>> = vec![None; self.num_levels()];
        for (h, e) in self.list.iter() {
            if let Some(p) = prev {
                assert!(e.stamp < p, "stamps must descend toward the bottom");
            }
            prev = Some(e.stamp);
            assert_eq!(self.map.get(e.block), Some(&h), "map is consistent");
            if e.level != OUT {
                counts[e.level as usize] += 1;
                deepest[e.level as usize] = Some((e.stamp, e.block));
            }
        }
        assert_eq!(self.map.len(), self.list.len(), "map covers the stack");
        for i in 0..self.num_levels() {
            assert_eq!(self.counts[i], counts[i], "level {i} count");
            assert!(
                self.counts[i] <= self.capacities[i],
                "level {i} over capacity"
            );
            let (y, d) = (self.yardsticks[i], deepest[i]);
            assert_eq!(
                y.is_some(),
                d.is_some(),
                "yardstick {i} presence mismatch: {y:?} vs {d:?}"
            );
            if let (Some(y), Some((stamp, block))) = (y, d) {
                let e = self.entry(y);
                assert_eq!(
                    (e.stamp, e.block),
                    (stamp, block),
                    "yardstick {i} must be the level's deepest block"
                );
            }
        }
        if let Some(limit) = self.stack_limit {
            assert!(self.list.len() <= limit.max(self.map.len()), "stack limit");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockId {
        BlockId::new(i)
    }

    fn stack(caps: &[usize]) -> UniLruStack {
        UniLruStack::new(caps.to_vec())
    }

    #[test]
    fn warmup_fills_levels_top_down() {
        let mut s = stack(&[2, 2]);
        for i in 0..4 {
            let (out, _) = s.access(b(i));
            assert!(!out.was_in_stack);
            s.check_invariants();
        }
        assert_eq!(s.level_len(0), 2);
        assert_eq!(s.level_len(1), 2);
        assert_eq!(s.cached_level(b(0)), Some(0));
        assert_eq!(s.cached_level(b(1)), Some(0));
        assert_eq!(s.cached_level(b(2)), Some(1));
        assert_eq!(s.cached_level(b(3)), Some(1));
    }

    #[test]
    fn new_block_after_fill_is_uncached() {
        let mut s = stack(&[1, 1]);
        s.access(b(0));
        s.access(b(1));
        let (out, _) = s.access(b(2));
        assert_eq!(out.placed, Placement::Uncached);
        assert_eq!(out.found, Placement::Uncached);
        assert!(s.contains(b(2)), "history entry kept");
        assert_eq!(s.cached_level(b(2)), None);
        s.check_invariants();
    }

    #[test]
    fn quick_rereference_promotes_to_l1_with_demotion_cascade() {
        let mut s = stack(&[1, 1]);
        s.access(b(0)); // L1
        s.access(b(1)); // L2
        s.access(b(2)); // out (history at top)
        let (out, scratch) = s.access(b(2)); // re-access at tiny recency → L1
        assert_eq!(out.placed, Placement::Level(0));
        assert_eq!(out.found, Placement::Uncached); // was only history
                                                    // b0 (old Y1) is demoted toward L2, where it would at once be the
                                                    // victim again (it is older than b1): it falls through to L_out
                                                    // with no transfer, and b1 keeps its L2 slot.
        assert_eq!(scratch.demotions, vec![0]);
        assert_eq!(scratch.evicted, vec![b(0)]);
        assert_eq!(s.cached_level(b(1)), Some(1));
        assert_eq!(s.cached_level(b(2)), Some(0));
        assert_eq!(s.cached_level(b(0)), None);
        s.check_invariants();
    }

    #[test]
    fn l1_blocks_always_stay_l1_on_rereference() {
        // Region of an L1 block is always L1 (it cannot sit deeper than
        // its own yardstick) — the i = j case.
        let mut s = stack(&[2, 2]);
        for i in 0..4 {
            s.access(b(i));
        }
        for _ in 0..3 {
            for i in 0..2 {
                let (out, scratch) = s.access(b(i));
                assert_eq!(out.found, Placement::Level(0));
                assert_eq!(out.placed, Placement::Level(0));
                assert_eq!(scratch.demotions, vec![0]);
                s.check_invariants();
            }
        }
    }

    #[test]
    fn pure_loop_settles_with_zero_demotions() {
        // The paper's signature tpcc1 result: a loop filling L1+L2 keeps
        // every block at its warm-up level; yardsticks rotate, blocks
        // never move.
        let (c1, c2, c3) = (50, 50, 50);
        let loop_len = 100u64; // fills L1+L2 exactly
        let mut s = stack(&[c1, c2, c3]);
        let mut demotions = 0u32;
        let mut hits_by_level = [0u32; 3];
        for round in 0..20 {
            for i in 0..loop_len {
                let (out, scratch) = s.access(b(i));
                if round > 0 {
                    demotions += scratch.demotions.iter().sum::<u32>();
                    if let Placement::Level(l) = out.found {
                        hits_by_level[l] += 1;
                    }
                }
            }
            s.check_invariants();
        }
        assert_eq!(demotions, 0, "a settled loop causes no demotions");
        assert_eq!(hits_by_level, [50 * 19, 50 * 19, 0]);
    }

    #[test]
    fn oversized_loop_settles_at_partial_residency_without_thrashing() {
        // Loop over 8 blocks with aggregate capacity 4. Plain unified LRU
        // would thrash to a 0% hit rate; ULC settles with 4 of the 8
        // blocks permanently resident (hit rate 50%) and no demotions.
        let mut s = stack(&[2, 2]);
        let mut last_round_hits = 0;
        let mut last_round_demotions = 0;
        for round in 0..10 {
            last_round_hits = 0;
            last_round_demotions = 0;
            for i in 0..8 {
                let (out, scratch) = s.access(b(i));
                if out.found != Placement::Uncached {
                    last_round_hits += 1;
                }
                last_round_demotions += scratch.demotions.iter().sum::<u32>();
            }
            s.check_invariants();
            let _ = round;
        }
        assert_eq!(last_round_hits, 4, "half the loop stays resident");
        assert_eq!(last_round_demotions, 0, "settled state has no traffic");
    }

    #[test]
    fn evict_cached_turns_entry_into_history() {
        let mut s = stack(&[2, 2]);
        for i in 0..4 {
            s.access(b(i));
        }
        assert!(!s.evict_cached(b(2), 0), "held at another level");
        assert_eq!(s.cached_level(b(2)), Some(1));
        assert!(s.evict_cached(b(2), 1));
        assert_eq!(s.cached_level(b(2)), None);
        assert_eq!(s.level_len(1), 1);
        assert!(!s.evict_cached(b(2), 1), "already history");
        assert!(!s.evict_cached(b(99), 1), "unknown block");
        s.check_invariants();
    }

    #[test]
    fn trim_removes_history_below_last_yardstick() {
        let mut s = stack(&[1, 1]);
        s.access(b(0));
        s.access(b(1));
        // b0, b1 cached. A stream of cold blocks: each becomes history at
        // the top, then sinks. Once below Y2 it must be trimmed.
        for i in 2..50 {
            s.access(b(i));
            s.check_invariants();
        }
        // History above Y2 may remain, but nothing below it, and the
        // stack must stay small.
        assert!(s.stack_len() <= 50);
        // Access the two cached blocks to lift the yardsticks to the top;
        // all history is now below the last yardstick and trimmed away.
        s.access(b(0));
        s.access(b(1));
        assert_eq!(s.stack_len(), 2, "all history trimmed");
        s.check_invariants();
    }

    #[test]
    fn stack_limit_bounds_history() {
        let mut s = stack(&[1, 1]);
        s.set_stack_limit(Some(10));
        for i in 0..1000 {
            s.access(b(i));
            assert!(s.stack_len() <= 10 + 1);
            s.check_invariants();
        }
    }

    #[test]
    #[should_panic(expected = "stack limit must cover")]
    fn stack_limit_below_aggregate_rejected() {
        let mut s = stack(&[4, 4]);
        s.set_stack_limit(Some(4));
    }

    #[test]
    fn external_full_blocks_placement() {
        let mut s = stack(&[1, 100]);
        s.set_external_full(1, true);
        s.access(b(0)); // fills L1
        let (out, _) = s.access(b(1)); // L2 declared full → uncached
        assert_eq!(out.placed, Placement::Uncached);
        s.set_external_full(1, false);
        let (out, _) = s.access(b(2));
        assert_eq!(out.placed, Placement::Level(1));
        s.check_invariants();
    }

    #[test]
    fn yardstick_is_replacement_victim() {
        let mut s = stack(&[2, 2]);
        for i in 0..4 {
            s.access(b(i));
        }
        // Y1 = b0 (deepest L1). Promoting history block b4 would demote Y1.
        assert_eq!(s.yardstick(0), Some(b(0)));
        s.access(b(4)); // history at top
                        // b4 → L1; Y1 = b0 is demoted toward L2, where it is older than
                        // both residents and falls through to L_out (no transfer).
        let (_, scratch) = s.access(b(4));
        assert_eq!(scratch.demotions, vec![0]);
        assert_eq!(scratch.evicted, vec![b(0)]);
        assert_eq!(s.yardstick(0), Some(b(1)));
        assert_eq!(s.cached_level(b(0)), None);
        assert_eq!(s.cached_level(b(2)), Some(1));
        assert_eq!(s.cached_level(b(3)), Some(1));
        s.check_invariants();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = stack(&[0]);
    }
}
