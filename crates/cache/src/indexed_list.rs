//! O(log n) indexed ranking lists — the order-statistic substrate behind
//! the measures framework and the trace generators.
//!
//! The measures of §2 all maintain an *ordered list* of blocks and ask two
//! questions per reference: "what is this block's rank?" and "how far did
//! it move?". Naive `Vec` lists answer both in O(D) per reference (D =
//! distinct blocks). This module answers them in O(log D):
//!
//! * [`Fenwick`] — a binary indexed tree over prefix sums with O(log n)
//!   point update, prefix count and order-statistic select;
//! * [`KeyedList`] — a set of *precomputed* sort keys (dense indices into
//!   a key universe) with O(log n) `insert_at_key` / `remove` /
//!   `rank_of_key`, for measures whose per-block value is assigned at
//!   access time (ND, NLD);
//! * [`RecencyList`] — a stamp-keyed LRU list: `move_to_front` allocates a
//!   strictly decreasing slot per front insertion, so a block's recency
//!   rank is the count of occupied slots below its own — O(log n) for
//!   `rank_of`, `move_to_front`, `select` and `remove`, with amortized
//!   O(log n) rebuilds when the slot space is exhausted;
//! * [`LazyMinTree`] — a lazy range-add min segment tree, used by the
//!   LLD-R analyzer to detect blocks whose recency has just overtaken
//!   their last locality distance.
//!
//! # Examples
//!
//! ```
//! use ulc_cache::RecencyList;
//!
//! let mut list = RecencyList::new(3);
//! for id in [0, 1, 2, 0] {
//!     list.move_to_front(id);
//! }
//! assert_eq!(list.rank_of(0), Some(0)); // re-accessed: back on top
//! assert_eq!(list.rank_of(1), Some(2));
//! assert_eq!(list.select(1), Some(2));
//! ```

/// Fenwick (binary indexed) tree over `i64` prefix sums.
///
/// Indices are `0..n`. Beyond point update and prefix sums it offers the
/// order-statistic [`Fenwick::select`] via binary lifting, which is what
/// turns a 0/1 occupancy array into an O(log n) ranked list.
#[derive(Clone, Debug)]
pub struct Fenwick {
    tree: Vec<i64>,
    n: usize,
}

impl Fenwick {
    /// An all-zero tree over indices `0..n`.
    pub fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
            n,
        }
    }

    /// Number of indexable positions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the tree has no positions at all.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds `delta` at index `i`.
    pub fn add(&mut self, mut i: usize, delta: i64) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of entries `0..=i`.
    pub fn prefix(&self, mut i: usize) -> i64 {
        i += 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum of entries strictly below `i` (zero when `i == 0`).
    pub fn count_below(&self, i: usize) -> i64 {
        if i == 0 {
            0
        } else {
            self.prefix(i - 1)
        }
    }

    /// Sum of all entries.
    pub fn total(&self) -> i64 {
        if self.n == 0 {
            0
        } else {
            self.prefix(self.n - 1)
        }
    }

    /// The value stored at index `i`.
    pub fn get(&self, i: usize) -> i64 {
        self.prefix(i) - self.count_below(i)
    }

    /// Deep structural validation for the workspace's usage contract:
    /// the node array covers `0..=n` and every point value is
    /// non-negative (all users store occupancy bits or multiplicities,
    /// which [`Fenwick::select`] requires).
    ///
    /// O(n log n). Panics on the first violation. Available to tests
    /// unconditionally; the composite structures built on `Fenwick`
    /// call it from their own `check_invariants`.
    pub fn check_invariants(&self) {
        assert_eq!(self.tree.len(), self.n + 1, "node array must cover 0..=n");
        let mut total = 0i64;
        for i in 0..self.n {
            let v = self.get(i);
            assert!(v >= 0, "entry {i} is negative ({v})");
            total += v;
        }
        assert_eq!(self.total(), total, "total must equal the sum of entries");
    }

    /// For a tree of non-negative entries: the smallest index `i` with
    /// `prefix(i) > k`, i.e. the position of the `(k+1)`-th unit. Returns
    /// `None` when fewer than `k + 1` units exist.
    pub fn select(&self, k: usize) -> Option<usize> {
        let mut remaining = k as i64;
        if remaining >= self.total() {
            return None;
        }
        let mut pos = 0usize; // 1-based node cursor
        let mut mask = self.tree.len().next_power_of_two() >> 1;
        while mask > 0 {
            let next = pos + mask;
            if next < self.tree.len() && self.tree[next] <= remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        Some(pos) // 1-based node == 0-based index + 1 - 1
    }
}

/// An ordered list over a *precomputed key universe*.
///
/// Keys are dense indices `0..universe` into an externally sorted set of
/// candidate sort keys (the measures framework derives the universe
/// offline from the whole trace). Each present member occupies one key;
/// ranks are counts of present keys below it.
#[derive(Clone, Debug)]
pub struct KeyedList {
    fen: Fenwick,
    len: usize,
}

impl KeyedList {
    /// An empty list over `universe` candidate keys.
    pub fn new(universe: usize) -> Self {
        KeyedList {
            fen: Fenwick::new(universe),
            len: 0,
        }
    }

    /// Number of present members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no member is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when key `idx` is occupied.
    pub fn contains_key(&self, idx: usize) -> bool {
        self.fen.get(idx) == 1
    }

    /// Inserts a member at key `idx`, which must be vacant.
    pub fn insert_at_key(&mut self, idx: usize) {
        debug_assert!(!self.contains_key(idx), "key {idx} already occupied");
        self.fen.add(idx, 1);
        self.len += 1;
    }

    /// Removes the member at key `idx`, which must be occupied.
    pub fn remove(&mut self, idx: usize) {
        debug_assert!(self.contains_key(idx), "key {idx} not occupied");
        self.fen.add(idx, -1);
        self.len -= 1;
    }

    /// Rank of key `idx`: the number of present keys strictly below it.
    /// `idx` may be one past the universe end, giving the total count.
    pub fn rank_of_key(&self, idx: usize) -> usize {
        self.fen.count_below(idx) as usize
    }

    /// The key index of the member at `rank`, if that many are present.
    pub fn select(&self, rank: usize) -> Option<usize> {
        self.fen.select(rank)
    }

    /// Deep structural validation: every key holds 0 or 1, and the
    /// cached length equals the number of occupied keys. O(n log n).
    pub fn check_invariants(&self) {
        self.fen.check_invariants();
        let mut occupied = 0usize;
        for i in 0..self.fen.len() {
            let v = self.fen.get(i);
            assert!(v == 0 || v == 1, "key {i} occupancy must be 0/1, got {v}");
            occupied += v as usize;
        }
        assert_eq!(self.len, occupied, "len must count the occupied keys");
    }
}

const VACANT: usize = usize::MAX;

/// A stamp-keyed LRU list over dense ids with O(log n) operations.
///
/// Every [`RecencyList::move_to_front`] assigns the moved id a fresh slot
/// *below* all previously assigned ones, so slot order equals recency
/// order and rank queries reduce to occupancy prefix counts on a
/// [`Fenwick`]. When the slot space runs out the list rebuilds itself in
/// O(n log n), which amortizes to O(log n) per operation.
#[derive(Clone, Debug)]
pub struct RecencyList {
    /// Per id: its slot, or `VACANT`.
    slot_of: Vec<usize>,
    /// Per slot: the id living there, or `VACANT`.
    id_at: Vec<usize>,
    occ: Fenwick,
    /// Slots are handed out from `next_slot - 1` downward.
    next_slot: usize,
    len: usize,
}

impl RecencyList {
    /// An empty list able to hold ids `0..ids` (it grows on demand if
    /// larger ids appear).
    pub fn new(ids: usize) -> Self {
        Self::with_slot_budget(ids, 2 * ids.max(16))
    }

    /// An empty list pre-sized so that `ops` front insertions never
    /// trigger a rebuild — the right constructor when the total number of
    /// operations is known, as it is for a trace analysis pass.
    pub fn with_capacity(ids: usize, ops: usize) -> Self {
        Self::with_slot_budget(ids, ops + 2)
    }

    fn with_slot_budget(ids: usize, slots: usize) -> Self {
        RecencyList {
            slot_of: vec![VACANT; ids],
            id_at: vec![VACANT; slots],
            occ: Fenwick::new(slots),
            next_slot: slots,
            len: 0,
        }
    }

    /// Number of ids on the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the list holds no ids.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `id` is on the list.
    pub fn contains(&self, id: usize) -> bool {
        id < self.slot_of.len() && self.slot_of[id] != VACANT
    }

    /// Recency rank of `id` — 0 is most recent — or `None` if absent.
    pub fn rank_of(&self, id: usize) -> Option<usize> {
        if !self.contains(id) {
            return None;
        }
        Some(self.occ.count_below(self.slot_of[id]) as usize)
    }

    /// The id at recency `rank`, if the list is that long.
    pub fn select(&self, rank: usize) -> Option<usize> {
        self.occ.select(rank).map(|slot| self.id_at[slot])
    }

    /// Moves `id` to the front, inserting it if absent.
    pub fn move_to_front(&mut self, id: usize) {
        if id >= self.slot_of.len() {
            self.slot_of.resize(id + 1, VACANT);
        }
        let old = self.slot_of[id];
        if old != VACANT {
            self.occ.add(old, -1);
            self.id_at[old] = VACANT;
            self.len -= 1;
        }
        if self.next_slot == 0 {
            self.rebuild();
        }
        self.next_slot -= 1;
        let slot = self.next_slot;
        self.occ.add(slot, 1);
        self.id_at[slot] = id;
        self.slot_of[id] = slot;
        self.len += 1;
    }

    /// Removes `id` from the list; returns whether it was present.
    pub fn remove(&mut self, id: usize) -> bool {
        if !self.contains(id) {
            return false;
        }
        let slot = self.slot_of[id];
        self.occ.add(slot, -1);
        self.id_at[slot] = VACANT;
        self.slot_of[id] = VACANT;
        self.len -= 1;
        true
    }

    /// Ids in recency order, most recent first.
    pub fn iter_recency(&self) -> impl Iterator<Item = usize> + '_ {
        self.id_at.iter().copied().filter(|&id| id != VACANT)
    }

    /// Deep structural validation: `slot_of` and `id_at` are mutually
    /// inverse partial maps, the occupancy tree marks exactly the taken
    /// slots, every taken slot is at or above `next_slot` (slots are
    /// handed out downward), and the cached length matches. O(n log n).
    pub fn check_invariants(&self) {
        self.occ.check_invariants();
        assert_eq!(
            self.occ.len(),
            self.id_at.len(),
            "occupancy covers the slots"
        );
        assert!(self.next_slot <= self.id_at.len(), "next_slot in range");
        let mut taken = 0usize;
        for (slot, &id) in self.id_at.iter().enumerate() {
            if id == VACANT {
                assert_eq!(self.occ.get(slot), 0, "vacant slot {slot} marked occupied");
                continue;
            }
            taken += 1;
            assert_eq!(
                self.occ.get(slot),
                1,
                "taken slot {slot} not marked occupied"
            );
            assert!(
                slot >= self.next_slot,
                "slot {slot} below the hand-out floor"
            );
            assert_eq!(
                self.slot_of.get(id).copied(),
                Some(slot),
                "id {id} must map back to slot {slot}"
            );
        }
        let forward = self.slot_of.iter().filter(|&&s| s != VACANT).count();
        assert_eq!(forward, taken, "slot_of and id_at must agree on membership");
        assert_eq!(self.len, taken, "len must count the members");
    }

    /// Reassigns all members to the top of a fresh, larger slot space.
    fn rebuild(&mut self) {
        let members: Vec<usize> = self.iter_recency().collect();
        let slots = (4 * members.len()).max(16);
        self.id_at = vec![VACANT; slots];
        self.occ = Fenwick::new(slots);
        self.next_slot = slots - members.len();
        for (offset, &id) in members.iter().enumerate() {
            let slot = self.next_slot + offset;
            self.occ.add(slot, 1);
            self.id_at[slot] = id;
            self.slot_of[id] = slot;
        }
    }
}

/// Lazy range-add min segment tree over `i64` values.
///
/// Supports `add_range`, point `set`, range and global `min`, and
/// [`LazyMinTree::argmin`] (the leftmost position attaining the global
/// min) — everything the LLD-R analyzer needs to watch, per LRU slot, the
/// margin `LLD − recency` and harvest the blocks whose margin just went
/// negative.
#[derive(Clone, Debug)]
pub struct LazyMinTree {
    min: Vec<i64>,
    lazy: Vec<i64>,
    n: usize,
}

impl LazyMinTree {
    /// A tree over positions `0..n`, every value initialized to `fill`.
    pub fn new(n: usize, fill: i64) -> Self {
        LazyMinTree {
            min: vec![fill; 4 * n.max(1)],
            lazy: vec![0; 4 * n.max(1)],
            n,
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the tree covers no positions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn push(&mut self, node: usize) {
        let pending = self.lazy[node];
        if pending != 0 {
            for child in [2 * node, 2 * node + 1] {
                self.min[child] += pending;
                self.lazy[child] += pending;
            }
            self.lazy[node] = 0;
        }
    }

    fn add_rec(&mut self, node: usize, lo: usize, hi: usize, l: usize, r: usize, delta: i64) {
        if r <= lo || hi <= l {
            return;
        }
        if l <= lo && hi <= r {
            self.min[node] += delta;
            self.lazy[node] += delta;
            return;
        }
        self.push(node);
        let mid = lo + (hi - lo) / 2;
        self.add_rec(2 * node, lo, mid, l, r, delta);
        self.add_rec(2 * node + 1, mid, hi, l, r, delta);
        self.min[node] = self.min[2 * node].min(self.min[2 * node + 1]);
    }

    /// Adds `delta` to every position in `[l, r)`.
    pub fn add_range(&mut self, l: usize, r: usize, delta: i64) {
        if l < r {
            self.add_rec(1, 0, self.n, l, r.min(self.n), delta);
        }
    }

    fn min_rec(&mut self, node: usize, lo: usize, hi: usize, l: usize, r: usize) -> i64 {
        if r <= lo || hi <= l {
            return i64::MAX;
        }
        if l <= lo && hi <= r {
            return self.min[node];
        }
        self.push(node);
        let mid = lo + (hi - lo) / 2;
        self.min_rec(2 * node, lo, mid, l, r)
            .min(self.min_rec(2 * node + 1, mid, hi, l, r))
    }

    /// Minimum over `[l, r)`; `i64::MAX` on an empty range.
    pub fn min_range(&mut self, l: usize, r: usize) -> i64 {
        if l >= r {
            return i64::MAX;
        }
        self.min_rec(1, 0, self.n, l, r.min(self.n))
    }

    /// Minimum over all positions.
    pub fn min_all(&self) -> i64 {
        self.min[1]
    }

    /// The global minimum and the leftmost position attaining it.
    pub fn argmin(&mut self) -> (i64, usize) {
        let target = self.min[1];
        let (mut node, mut lo, mut hi) = (1, 0, self.n);
        while hi - lo > 1 {
            self.push(node);
            let mid = lo + (hi - lo) / 2;
            if self.min[2 * node] == target {
                node *= 2;
                hi = mid;
            } else {
                node = 2 * node + 1;
                lo = mid;
            }
        }
        (target, lo)
    }

    /// Sets position `i` to `value`.
    pub fn set(&mut self, i: usize, value: i64) {
        self.set_rec(1, 0, self.n, i, value);
    }

    /// Deep structural validation: every internal node's cached minimum
    /// equals the minimum of its children's *resolved* minima plus its
    /// own pending lazy delta, so range queries after any push sequence
    /// return the same answers. O(n). Panics on the first violation.
    pub fn check_invariants(&self) {
        assert_eq!(self.min.len(), self.lazy.len(), "min/lazy arrays in step");
        if self.n > 0 {
            self.resolved_min(1, 0, self.n);
        }
    }

    /// Bottom-up recomputation of the subtree minimum at `node`,
    /// asserting each cached internal value along the way.
    fn resolved_min(&self, node: usize, lo: usize, hi: usize) -> i64 {
        if hi - lo <= 1 {
            return self.min[node];
        }
        let mid = lo + (hi - lo) / 2;
        let children =
            self.resolved_min(2 * node, lo, mid)
                .min(self.resolved_min(2 * node + 1, mid, hi));
        let expect = children + self.lazy[node];
        assert_eq!(
            self.min[node], expect,
            "node {node} ([{lo}, {hi})) caches {} but resolves to {expect}",
            self.min[node]
        );
        expect
    }

    fn set_rec(&mut self, node: usize, lo: usize, hi: usize, i: usize, value: i64) {
        if hi - lo == 1 {
            self.min[node] = value;
            return;
        }
        self.push(node);
        let mid = lo + (hi - lo) / 2;
        if i < mid {
            self.set_rec(2 * node, lo, mid, i, value);
        } else {
            self.set_rec(2 * node + 1, mid, hi, i, value);
        }
        self.min[node] = self.min[2 * node].min(self.min[2 * node + 1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn fenwick_prefix_and_select_match_array() {
        let mut fen = Fenwick::new(40);
        let mut arr = vec![0i64; 40];
        let mut s = 9u64;
        for _ in 0..300 {
            let i = (lcg(&mut s) % 40) as usize;
            let flip = if arr[i] == 0 { 1 } else { -1 };
            arr[i] += flip;
            fen.add(i, flip);
            let mut run = 0;
            for (j, &v) in arr.iter().enumerate() {
                run += v;
                assert_eq!(fen.prefix(j), run);
            }
            // select(k) must return the position of the (k+1)-th unit.
            let mut seen = 0;
            for (j, &v) in arr.iter().enumerate() {
                if v == 1 {
                    assert_eq!(fen.select(seen), Some(j));
                    seen += 1;
                }
            }
            assert_eq!(fen.select(seen), None);
        }
    }

    #[test]
    fn keyed_list_ranks() {
        let mut kl = KeyedList::new(10);
        for idx in [7, 2, 9, 4] {
            kl.insert_at_key(idx);
        }
        assert_eq!(kl.len(), 4);
        assert_eq!(kl.rank_of_key(2), 0);
        assert_eq!(kl.rank_of_key(7), 2);
        assert_eq!(kl.rank_of_key(10), 4);
        assert_eq!(kl.select(1), Some(4));
        kl.remove(4);
        assert_eq!(kl.rank_of_key(7), 1);
        assert!(!kl.contains_key(4));
        assert!(kl.contains_key(9));
    }

    /// Model-checks RecencyList against a plain Vec LRU stack, across
    /// enough operations to force several rebuilds.
    #[test]
    fn recency_list_matches_vec_model() {
        let ids = 23usize;
        let mut list = RecencyList::new(ids);
        let mut model: Vec<usize> = Vec::new();
        let mut s = 3u64;
        for step in 0..2_000 {
            let id = (lcg(&mut s) % ids as u64) as usize;
            match step % 7 {
                6 => {
                    let was = model.iter().position(|&x| x == id);
                    if let Some(p) = was {
                        model.remove(p);
                    }
                    assert_eq!(list.remove(id), was.is_some());
                }
                _ => {
                    if let Some(p) = model.iter().position(|&x| x == id) {
                        model.remove(p);
                    }
                    model.insert(0, id);
                    list.move_to_front(id);
                }
            }
            assert_eq!(list.len(), model.len());
            for (rank, &m) in model.iter().enumerate() {
                assert_eq!(list.rank_of(m), Some(rank));
                assert_eq!(list.select(rank), Some(m));
            }
            assert_eq!(list.select(model.len()), None);
            let in_order: Vec<usize> = list.iter_recency().collect();
            assert_eq!(in_order, model);
        }
    }

    #[test]
    fn recency_list_grows_id_space_on_demand() {
        let mut list = RecencyList::new(2);
        list.move_to_front(100);
        assert_eq!(list.rank_of(100), Some(0));
        assert!(!list.contains(50));
    }

    #[test]
    fn lazy_min_tree_matches_array_model() {
        let n = 29usize;
        let mut tree = LazyMinTree::new(n, 5);
        let mut model = vec![5i64; n];
        let mut s = 77u64;
        for _ in 0..1_500 {
            match lcg(&mut s) % 3 {
                0 => {
                    let mut l = (lcg(&mut s) % n as u64) as usize;
                    let mut r = (lcg(&mut s) % (n as u64 + 1)) as usize;
                    if l > r {
                        std::mem::swap(&mut l, &mut r);
                    }
                    let delta = (lcg(&mut s) % 7) as i64 - 3;
                    tree.add_range(l, r, delta);
                    for v in &mut model[l..r] {
                        *v += delta;
                    }
                }
                1 => {
                    let i = (lcg(&mut s) % n as u64) as usize;
                    let v = (lcg(&mut s) % 100) as i64 - 50;
                    tree.set(i, v);
                    model[i] = v;
                }
                _ => {
                    let mut l = (lcg(&mut s) % n as u64) as usize;
                    let mut r = (lcg(&mut s) % (n as u64 + 1)) as usize;
                    if l > r {
                        std::mem::swap(&mut l, &mut r);
                    }
                    let expect = model[l..r].iter().min().copied().unwrap_or(i64::MAX);
                    assert_eq!(tree.min_range(l, r), expect);
                }
            }
            let global = *model.iter().min().unwrap();
            assert_eq!(tree.min_all(), global);
            let (v, pos) = tree.argmin();
            assert_eq!(v, global);
            assert_eq!(pos, model.iter().position(|&x| x == global).unwrap());
        }
    }
}
