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
//! The stack is a **log** of slots ordered by stamp: a slot's index *is*
//! its entry's stamp, the top of the stack is the end of the log, and "is
//! A deeper than B" is a single comparison of two indices. The log has two
//! columns, each slot's block and its level tag (a cache level, `OUT` for
//! uncached history, or `HOLE` for a slot its entry has left). One
//! block-table row per entry, `{ stamp, level }`, answers the cached-level
//! and membership queries and locates the entry's slot. The recency status
//! of an entry is *derived*: the smallest level `j` whose yardstick stamp
//! does not exceed the entry's stamp. Every operation is O(1) amortised,
//! as §3.2 requires:
//!
//! * **Re-reference** — the entry's slot becomes a hole and the entry is
//!   pushed on top with the next stamp; its row follows it.
//! * **YardStickAdjustment** — when a yardstick block leaves its position
//!   (re-accessed or demoted), the yardstick scans the level column toward
//!   the stack top to the next slot of its level.
//! * **DemotionSearching** — the demotion cascade: the victim of level `i`
//!   is always `Yᵢ`; demoting it into `i+1` retags its slot in place (its
//!   stamp is unchanged) and may overflow that level and demote its
//!   yardstick in turn, until a level with spare room absorbs the chain or
//!   the bottom level evicts to `L_out`.
//! * **Trim** — entries below the last yardstick that are not cached
//!   anywhere are trimmed (§3.2: the stack size is bounded by `Yₙ`; §5:
//!   cold entries can be trimmed to bound metadata). A tail index moves up
//!   past them and past holes, and every slot below it is a hole.
//! * **Compaction** — a push that finds the log full first squeezes out
//!   the holes, renumbering the live slots in order and rewriting their
//!   rows and the yardsticks. Once live entries fill half the log, the
//!   compaction regrows it to four times the live count, so at least half
//!   the log is free after every compaction and each push pays for at
//!   most two compacted slots.
//!
//! [`UniLruStack::slots_scanned`] counts the slots these scans visit, the
//! stack's only work that is not constant per access, so the O(1) claim
//! is a count (`tests/scan_count.rs`).

use crate::scratch::AccessScratch;
use std::num::NonZeroU8;
use ulc_trace::{BlockId, BlockMap};

/// Level tag for "not cached at any level".
const OUT: u8 = u8::MAX;

/// Level tag of a log slot whose entry moved up or was trimmed.
const HOLE: u8 = u8::MAX - 1;

/// The smallest log a compaction allocates.
const MIN_LOG: usize = 64;

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

/// An entry's block-table row: its log slot and its level tag (a level or
/// `OUT`), the same tag its slot carries.
///
/// The tag is kept plus 2, wrapping: `OUT` is stored as 1 and the levels
/// as 2 and up. Only `HOLE`, which no row holds, would store 0, so
/// `Option<Row>` takes its `None` from that zero and a table row is 8
/// bytes, not 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    stamp: u32,
    tag: NonZeroU8,
}

impl Row {
    #[inline]
    fn new(stamp: u32, level: u8) -> Self {
        let tag = NonZeroU8::new(level.wrapping_add(2)).expect("a row never holds HOLE");
        Row { stamp, tag }
    }

    #[inline]
    fn level(self) -> u8 {
        self.tag.get().wrapping_sub(2)
    }
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
    /// The block of each log slot; a slot's index is its entry's stamp.
    blocks: Vec<BlockId>,
    /// The level tag of each log slot: a level, `OUT` or `HOLE`.
    levels: Vec<u8>,
    /// Every slot below the tail is a hole.
    tail: usize,
    /// Slots the log holds before a push compacts it; both columns have
    /// at least this capacity.
    cap: usize,
    /// The least `cap` a compaction leaves ([`Self::reserve_blocks`]).
    floor: usize,
    /// Block → row.
    map: BlockMap<Row>,
    /// The stamp of each level's yardstick.
    yardsticks: Vec<Option<u32>>,
    counts: Vec<usize>,
    capacities: Vec<usize>,
    /// A level may be declared full by the environment even when this
    /// client's own count is below capacity (shared-server case).
    external_full: Vec<bool>,
    /// Optional bound on total stack entries (§5 metadata trimming).
    stack_limit: Option<usize>,
    /// Log slots visited by yardstick scans, trims and compactions.
    scanned: u64,
    #[cfg(feature = "debug_invariants")]
    tick: u64,
}

impl UniLruStack {
    /// Creates a stack for a hierarchy whose level `i` holds
    /// `capacities[i]` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty, has more than 253 levels, or any
    /// capacity is zero.
    pub fn new(capacities: Vec<usize>) -> Self {
        assert!(!capacities.is_empty(), "at least one level is required");
        assert!(capacities.len() < HOLE as usize, "too many levels");
        assert!(
            capacities.iter().all(|&c| c > 0),
            "level capacities must be positive"
        );
        let n = capacities.len();
        UniLruStack {
            blocks: Vec::new(),
            levels: Vec::new(),
            tail: 0,
            cap: 0,
            floor: 0,
            map: BlockMap::new(),
            yardsticks: vec![None; n],
            counts: vec![0; n],
            capacities,
            external_full: vec![false; n],
            stack_limit: None,
            scanned: 0,
            #[cfg(feature = "debug_invariants")]
            tick: 0,
        }
    }

    /// Sizes the stack for `blocks` resident entries (cached blocks plus
    /// uncached history). The locator table reserves at once. The log,
    /// which keeps at least half its slots free after a compaction,
    /// records a floor of `2 * blocks` slots that its next compaction —
    /// the first access — allocates. The stack still grows past the
    /// reservation if a run's history exceeds it — this only moves the
    /// allocations out of the measured steady phase (DESIGN.md §5f), it
    /// never changes behaviour.
    pub fn reserve_blocks(&mut self, blocks: usize) {
        self.floor = self.floor.max(2 * blocks);
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
        self.map.len()
    }

    /// Log slots visited so far by yardstick scans, trims and compactions:
    /// every step of the stack's work that is not constant per access.
    /// Its mean per access stays under a constant (§5's O(1) claim,
    /// `tests/scan_count.rs`).
    pub fn slots_scanned(&self) -> u64 {
        self.scanned
    }

    /// The level a block is cached at, if any.
    pub fn cached_level(&self, block: BlockId) -> Option<usize> {
        let level = self.map.get(block)?.level();
        (level != OUT).then_some(level as usize)
    }

    /// Whether a block has metadata in the stack (cached or history).
    pub fn contains(&self, block: BlockId) -> bool {
        self.map.contains_key(block)
    }

    /// The yardstick block of `level` — the level's replacement victim.
    pub fn yardstick(&self, level: usize) -> Option<BlockId> {
        self.yardsticks[level].map(|y| self.blocks[y as usize])
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
        let live = self.tail..self.blocks.len();
        blocks.extend(
            self.blocks[live.clone()]
                .iter()
                .zip(&self.levels[live])
                .rev()
                .filter(|&(_, &l)| l == level as u8)
                .map(|(&b, _)| b),
        );
    }

    fn is_full(&self, level: usize) -> bool {
        self.external_full[level] || self.counts[level] >= self.capacities[level]
    }

    /// The recency region of the in-stack entry at `stamp`: the smallest
    /// level whose yardstick is at least as deep as the entry (§3.2.1's
    /// recency status), falling back to the shallowest non-full level,
    /// else `Uncached`.
    fn region_of(&self, stamp: u32) -> Placement {
        match self
            .yardsticks
            .iter()
            .position(|y| y.is_some_and(|y| stamp >= y))
        {
            Some(j) => Placement::Level(j),
            None => self.first_open_level(),
        }
    }

    fn first_open_level(&self) -> Placement {
        match (0..self.num_levels()).find(|&j| !self.is_full(j)) {
            Some(j) => Placement::Level(j),
            None => Placement::Uncached,
        }
    }

    /// YardStickAdjustment: the yardstick of `level` is about to leave
    /// the slot `from` (or its level); scan toward the stack top for the
    /// level's next slot, `None` if it has none above.
    fn scan_up(&mut self, level: usize, from: u32) -> Option<u32> {
        let start = from as usize + 1;
        let found = self.levels[start..].iter().position(|&l| l == level as u8);
        self.scanned += found.map_or(self.levels.len() - start, |p| p + 1) as u64;
        found.map(|p| (start + p) as u32)
    }

    /// A block (at `stamp`) has just been given `level`; make it the
    /// yardstick if it is the level's deepest block.
    fn maybe_take_yardstick(&mut self, level: usize, stamp: u32) {
        let y = &mut self.yardsticks[level];
        if y.is_none_or(|y| stamp < y) {
            *y = Some(stamp);
        }
    }

    /// Pushes `block` on top of the stack with level tag `level` and
    /// returns its stamp, compacting first if the log is full.
    #[inline]
    fn push(&mut self, block: BlockId, level: u8) -> u32 {
        if self.blocks.len() == self.cap {
            self.compact();
        }
        let stamp = self.blocks.len() as u32;
        self.blocks.push(block);
        self.levels.push(level);
        stamp
    }

    /// Moves `block`'s entry from the slot `old` to the top with level tag
    /// `level`: the old slot becomes a hole, and the row follows the entry.
    fn move_to_top(&mut self, block: BlockId, old: u32, level: u8) -> u32 {
        self.levels[old as usize] = HOLE;
        let stamp = self.push(block, level);
        *self.map.get_mut(block).expect("a moved entry has a row") = Row::new(stamp, level);
        stamp
    }

    /// Gives the entry at `stamp` the level tag `level` in place.
    fn retag(&mut self, stamp: u32, level: u8) {
        self.levels[stamp as usize] = level;
        let block = self.blocks[stamp as usize];
        *self.map.get_mut(block).expect("a live slot has a row") = Row::new(stamp, level);
    }

    /// Squeezes the holes out of the log, renumbering the live slots in
    /// order from 0 and rewriting their rows and the yardsticks. If live
    /// entries then fill half the log, or the log is under its floor, it
    /// regrows to four times the live count (at least the floor). Runs
    /// when a push finds the log full, so the pushes since the previous
    /// compaction pay for it.
    #[cold]
    #[inline(never)]
    fn compact(&mut self) {
        let mut live = 0;
        for slot in self.tail..self.blocks.len() {
            let level = self.levels[slot];
            if level == HOLE {
                continue;
            }
            let (block, stamp) = (self.blocks[slot], live as u32);
            self.blocks[live] = block;
            self.levels[live] = level;
            if level != OUT && self.yardsticks[level as usize] == Some(slot as u32) {
                self.yardsticks[level as usize] = Some(stamp);
            }
            self.map
                .get_mut(block)
                .expect("a live slot has a row")
                .stamp = stamp;
            live += 1;
        }
        self.scanned += (self.blocks.len() - self.tail) as u64;
        self.blocks.truncate(live);
        self.levels.truncate(live);
        self.tail = 0;
        if 2 * live >= self.cap || self.cap < self.floor {
            self.cap = (4 * live).max(self.floor).max(MIN_LOG);
            assert!(self.cap <= u32::MAX as usize, "stamps must fit in u32");
            self.blocks.reserve_exact(self.cap - live);
            self.levels.reserve_exact(self.cap - live);
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
        // `scratch.moved` holds (stamp, level it was first demoted from);
        // a cascade moves no slot, and it is at most `n` long, so a linear
        // dedup scan is fine.
        scratch.moved.clear();
        let mut lvl = start;
        while lvl < n && self.counts[lvl] > self.capacities[lvl] {
            let victim = self.yardsticks[lvl].expect("over-full level has a yardstick");
            self.yardsticks[lvl] = self.scan_up(lvl, victim);
            self.counts[lvl] -= 1;
            if !scratch.moved.iter().any(|&(s, _)| s == victim) {
                scratch.moved.push((victim, lvl));
            }
            if lvl + 1 < n {
                self.retag(victim, (lvl + 1) as u8);
                self.counts[lvl + 1] += 1;
                self.maybe_take_yardstick(lvl + 1, victim);
                lvl += 1;
            } else {
                // Falls out of the bottom level: becomes L_out history.
                self.retag(victim, OUT);
                break;
            }
        }
        for k in 0..scratch.moved.len() {
            let (stamp, from) = scratch.moved[k];
            let (block, level) = (self.blocks[stamp as usize], self.levels[stamp as usize]);
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
        let start = self.tail;
        let mut slot = start;
        while slot < self.levels.len() {
            let level = self.levels[slot];
            if level != HOLE {
                if level != OUT {
                    break;
                }
                let below_last_yardstick = self.yardsticks[last].is_some_and(|y| slot < y as usize);
                let over_limit = self.stack_limit.is_some_and(|l| self.map.len() > l);
                if !(below_last_yardstick || over_limit) {
                    break;
                }
                self.map.remove(self.blocks[slot]);
                self.levels[slot] = HOLE;
            }
            slot += 1;
        }
        self.tail = slot;
        self.scanned += (slot - start) as u64;
        // The limit must hold even when cached entries sit at the very
        // bottom: scan upward past them and drop the oldest history.
        if let Some(limit) = self.stack_limit {
            let mut slot = self.tail;
            while self.map.len() > limit && slot < self.levels.len() {
                if self.levels[slot] == OUT {
                    self.map.remove(self.blocks[slot]);
                    self.levels[slot] = HOLE;
                }
                slot += 1;
            }
            self.scanned += (slot - self.tail) as u64;
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

        if let Some(&row) = self.map.get(block) {
            let (old, level) = (row.stamp, row.level());
            outcome.was_in_stack = true;
            let region = self.region_of(old);

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
                if self.yardsticks[i] == Some(old) {
                    self.yardsticks[i] = self.scan_up(i, old);
                }
                let stamp = self.move_to_top(block, old, j as u8);
                if j < i {
                    // Retrieve(b, i, j): promote; free a slot at level j by
                    // demoting yardsticks down toward level i.
                    self.counts[j] += 1;
                    self.counts[i] -= 1;
                    if self.counts[i] == 0 {
                        self.yardsticks[i] = None;
                    }
                    self.maybe_take_yardstick(j, stamp);
                    self.cascade(j, scratch);
                    outcome.placed = Placement::Level(j);
                } else {
                    // Retrieve(b, i, i): stays at its level, and stays the
                    // yardstick if no other block of the level is above it.
                    self.maybe_take_yardstick(i, stamp);
                    outcome.placed = Placement::Level(i);
                }
            } else {
                // History entry (L_out): a miss, but its LLD is known.
                match region {
                    Placement::Level(j) => {
                        let stamp = self.move_to_top(block, old, j as u8);
                        self.counts[j] += 1;
                        self.maybe_take_yardstick(j, stamp);
                        self.cascade(j, scratch);
                        outcome.placed = Placement::Level(j);
                    }
                    Placement::Uncached => {
                        // Weak locality: retrieved for the application but
                        // cached nowhere (it passes through tempLRU).
                        self.move_to_top(block, old, OUT);
                    }
                }
            }
        } else {
            // No history: first access (or trimmed long ago).
            let region = self.first_open_level();
            let level = region.level().map_or(OUT, |j| j as u8);
            let stamp = self.push(block, level);
            self.map.insert(block, Row::new(stamp, level));
            if let Placement::Level(j) = region {
                self.counts[j] += 1;
                self.maybe_take_yardstick(j, stamp);
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
        let Some(row) = self.map.get_mut(block) else {
            return false;
        };
        if row.level() as usize != level {
            return false;
        }
        let stamp = row.stamp;
        *row = Row::new(stamp, OUT);
        self.levels[stamp as usize] = OUT;
        if self.yardsticks[level] == Some(stamp) {
            self.yardsticks[level] = self.scan_up(level, stamp);
        }
        self.counts[level] -= 1;
        if self.counts[level] == 0 {
            self.yardsticks[level] = None;
        }
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
            if self.map.len() < 64 || self.tick.is_multiple_of(256) {
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
        let n = self.num_levels();
        assert_eq!(self.blocks.len(), self.levels.len(), "log columns differ");
        assert!(
            self.blocks.len() <= self.cap
                && self.blocks.capacity() >= self.cap
                && self.levels.capacity() >= self.cap,
            "the log holds {} slots, over its capacity {}",
            self.blocks.len(),
            self.cap
        );
        assert!(
            self.levels[..self.tail].iter().all(|&l| l == HOLE),
            "only holes below the tail"
        );
        let mut live = 0;
        let mut counts = vec![0usize; n];
        let mut deepest: Vec<Option<u32>> = vec![None; n];
        for slot in self.tail..self.blocks.len() {
            let (block, level) = (self.blocks[slot], self.levels[slot]);
            if level == HOLE {
                continue;
            }
            live += 1;
            let stamp = slot as u32;
            assert_eq!(
                self.map.get(block),
                Some(&Row::new(stamp, level)),
                "the row of {block:?} must name its slot {slot} and tag"
            );
            if level != OUT {
                assert!((level as usize) < n, "slot {slot} has tag {level}");
                counts[level as usize] += 1;
                deepest[level as usize].get_or_insert(stamp);
            }
        }
        assert_eq!(self.map.len(), live, "rows and live slots in bijection");
        for i in 0..n {
            assert_eq!(self.counts[i], counts[i], "level {i} count");
            assert!(
                self.counts[i] <= self.capacities[i],
                "level {i} over capacity"
            );
            assert_eq!(
                self.yardsticks[i], deepest[i],
                "yardstick {i} must be the level's deepest slot"
            );
        }
        if let Some(limit) = self.stack_limit {
            assert!(self.map.len() <= limit, "stack limit");
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
    fn optional_rows_cost_no_tag() {
        assert_eq!(std::mem::size_of::<Row>(), 8);
        assert_eq!(std::mem::size_of::<Option<Row>>(), 8);
        for level in (0..HOLE).chain([OUT]) {
            assert_eq!(Row::new(7, level).level(), level);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = stack(&[0]);
    }
}
