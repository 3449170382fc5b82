//! Trace analysis under the four measures — the engine behind Figures 2
//! and 3.
//!
//! For each measure an ascending ordered list of the accessed blocks is
//! maintained across the trace. Per reference we record which decile
//! *segment* of the list the block was found in (Figure 2) and how many
//! blocks crossed each segment boundary as the list was updated (Figure 3).
//!
//! The list is segmented against the trace's *full* length (total distinct
//! blocks), so segment boundaries are fixed rank positions. A boundary
//! crossing is counted once per block per reference whenever the block's
//! rank moves from one side of the boundary to the other.

use crate::{MeasureKind, SegmentReport, INFINITE};
use fxhash::FxHashMap;
use ulc_cache::{
    lru_stack_distances, next_use_times, Fenwick, KeyedList, LazyMinTree, RecencyList,
};
use ulc_trace::Trace;

/// Fixed rank boundaries for `segments` segments over `d` blocks.
#[derive(Clone, Debug)]
pub(crate) struct Boundaries {
    ranks: Vec<usize>,
    segments: usize,
    d: usize,
}

impl Boundaries {
    pub(crate) fn new(segments: usize, d: usize) -> Self {
        assert!(segments >= 2, "need at least two segments");
        assert!(
            d >= segments,
            "trace must touch at least as many blocks as there are segments"
        );
        Boundaries {
            ranks: (0..segments - 1)
                .map(|k| ((k + 1) * d).div_ceil(segments))
                .collect(),
            segments,
            d,
        }
    }

    /// Which segment a list rank falls into.
    pub(crate) fn segment_of(&self, rank: usize) -> usize {
        (rank * self.segments / self.d).min(self.segments - 1)
    }

    /// Indices of the boundaries strictly between ranks `a` and `b`
    /// (crossed by a block moving from rank `a` to rank `b`).
    pub(crate) fn crossed(&self, a: usize, b: usize) -> std::ops::Range<usize> {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let start = self.ranks.partition_point(|&r| r <= lo);
        let end = self.ranks.partition_point(|&r| r <= hi);
        start..end
    }
}

/// Densely renumbers the blocks of a trace for fast array indexing.
fn densify(trace: &Trace) -> (Vec<u32>, usize) {
    let mut ids: FxHashMap<u64, u32> = FxHashMap::default();
    let mut out = Vec::with_capacity(trace.len());
    for r in trace {
        let next_id = ids.len() as u32;
        out.push(*ids.entry(r.block.raw()).or_insert(next_id));
    }
    let d = ids.len();
    (out, d)
}

/// Analyses `trace` under `kind` with `segments` list segments (the paper
/// uses 10).
///
/// # Panics
///
/// Panics if the trace touches fewer distinct blocks than `segments`.
///
/// # Examples
///
/// ```
/// use ulc_measures::{analyze, MeasureKind};
/// use ulc_trace::synthetic;
///
/// let trace = synthetic::sprite(20_000);
/// let report = analyze(&trace, MeasureKind::R, 10);
/// // sprite is LRU-friendly: recency concentrates hits in the head.
/// assert!(report.reference_ratios()[0] > 0.3);
/// assert!(report.cumulative_ratios()[2] > 0.6);
/// ```
pub fn analyze(trace: &Trace, kind: MeasureKind, segments: usize) -> SegmentReport {
    let (blocks, d) = densify(trace);
    let bounds = Boundaries::new(segments, d);
    match kind {
        MeasureKind::R => analyze_recency(&blocks, &bounds),
        MeasureKind::Nd => {
            let next = next_use_times(&blocks);
            analyze_keyed(&blocks, &next, &bounds)
        }
        MeasureKind::Nld => {
            let nld: Vec<u64> = next_locality_values(&blocks);
            analyze_keyed(&blocks, &nld, &bounds)
        }
        MeasureKind::LldR => analyze_lld_r(&blocks, &bounds),
    }
}

/// Analyses `trace` under all four measures.
pub fn analyze_all(trace: &Trace, segments: usize) -> Vec<(MeasureKind, SegmentReport)> {
    MeasureKind::ALL
        .iter()
        .map(|&m| (m, analyze(trace, m, segments)))
        .collect()
}

/// [`analyze_all`] fanned across one thread per measure. The result is
/// identical, in `MeasureKind::ALL` order, regardless of which worker
/// finishes first.
pub fn analyze_all_parallel(trace: &Trace, segments: usize) -> Vec<(MeasureKind, SegmentReport)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = MeasureKind::ALL
            .iter()
            .map(|&m| scope.spawn(move || (m, analyze(trace, m, segments))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyzer thread panicked"))
            .collect()
    })
}

/// NLD value of each reference: the recency at which the block will be
/// referenced next time, or [`INFINITE`].
fn next_locality_values(blocks: &[u32]) -> Vec<u64> {
    ulc_cache::next_locality_distances(blocks)
        .into_iter()
        .map(|o| o.map_or(INFINITE, |v| v as u64))
        .collect()
}

/// R: the list is the LRU stack itself, held as an indexed
/// [`RecencyList`] — O(log D) per reference instead of the O(D) scan and
/// splice of a `Vec` stack.
fn analyze_recency(blocks: &[u32], bounds: &Boundaries) -> SegmentReport {
    let mut report = SegmentReport::new(bounds.segments, bounds.d);
    let mut list = RecencyList::with_capacity(bounds.d, blocks.len());
    for &b in blocks {
        report.total_references += 1;
        match list.rank_of(b as usize) {
            Some(p) => {
                report.reference_counts[bounds.segment_of(p)] += 1;
                // Mover and one shifted block cross each boundary in (0, p].
                for k in bounds.crossed(0, p) {
                    report.boundary_movements[k] += 2;
                }
            }
            None => {
                report.cold_references += 1;
                // Every resident block shifts down by one; one block
                // crosses each boundary ≤ old length.
                let n_old = list.len();
                for k in bounds.crossed(0, n_old) {
                    report.boundary_movements[k] += 1;
                }
            }
        }
        list.move_to_front(b as usize);
    }
    report
}

/// ND / NLD: the list is sorted ascending by a per-reference value assigned
/// when the block is accessed.
///
/// Ties are broken by a *static* key (the block's first-touch id). A static
/// tie-break matters: on a pure loop every block carries the same NLD, and
/// a stable assignment keeps all of them in place (zero boundary
/// movements), exactly the stability the paper credits NLD and LLD-R with
/// in Figure 3. Breaking ties by recency would silently re-derive the R
/// list inside the ties and destroy that stability.
/// Because every key the list will ever hold is known offline (the trace
/// fixes each reference's value), the sorted key universe is precomputed
/// and the list reduces to a [`KeyedList`]: O(log n) `insert_at_key`,
/// `remove` and rank queries replace the O(D) scans and splices.
fn analyze_keyed(blocks: &[u32], values: &[u64], bounds: &Boundaries) -> SegmentReport {
    let mut report = SegmentReport::new(bounds.segments, bounds.d);
    let mut universe: Vec<(u64, u32)> = values.iter().zip(blocks).map(|(&v, &b)| (v, b)).collect();
    universe.sort_unstable();
    universe.dedup();
    let mut list = KeyedList::new(universe.len());
    let mut cur: Vec<usize> = vec![usize::MAX; bounds.d];
    for (i, &b) in blocks.iter().enumerate() {
        report.total_references += 1;
        let idx = universe
            .binary_search(&(values[i], b))
            .expect("every live key is in the universe");
        let old = cur[b as usize];
        if old != usize::MAX {
            let p = list.rank_of_key(old);
            report.reference_counts[bounds.segment_of(p)] += 1;
            if old == idx {
                continue; // value unchanged: the block stays put
            }
            list.remove(old);
            let q = list.rank_of_key(idx);
            list.insert_at_key(idx);
            cur[b as usize] = idx;
            for k in bounds.crossed(p.min(q), p.max(q)) {
                report.boundary_movements[k] += 2;
            }
        } else {
            report.cold_references += 1;
            let n_old = list.len();
            let q = list.rank_of_key(idx);
            list.insert_at_key(idx);
            cur[b as usize] = idx;
            for k in bounds.crossed(q, n_old) {
                report.boundary_movements[k] += 1;
            }
        }
    }
    report
}

/// A sort key of the LLD-R order: `(value, block id)`. Values are
/// `max(LLD, recency)`; the id tie-break is static (see `analyze_keyed`).
type LldKey = (u64, u32);

/// Sentinel above every real key (no block carries id `u32::MAX`).
const KEY_MAX: LldKey = (u64::MAX, u32::MAX);

/// "Never transitions" margin sentinel, far above any reachable value yet
/// safe against the ≤ n range decrements a pass can apply.
const MARGIN_BIG: i64 = i64::MAX / 4;

/// The indexed state of the LLD-R order. Blocks split into two classes:
///
/// * **static** (`LLD ≥ recency`): key = `(LLD, id)`, constant between
///   accesses. All such keys are known offline (each reference `i`
///   installs `(stack distance of i, block)`), so they live in a
///   [`KeyedList`] over a precomputed universe.
/// * **R-dominated** (`recency > LLD`): key = `(recency, id)`. Recencies
///   are pairwise distinct and ordered exactly like the LRU slots of the
///   stamp trick, so a 0/1 Fenwick over slot space (`rmarks`) indexes
///   these keys without ever storing a changing value.
struct LldRIndex<'a> {
    universe: &'a [LldKey],
    skeys: KeyedList,
    /// Slot occupancy of the whole LRU stack; rank below a slot = recency.
    occ: Fenwick,
    /// Marks the slots whose blocks are R-dominated.
    rmarks: Fenwick,
    slot_block: Vec<u32>,
}

impl LldRIndex<'_> {
    /// Present static keys strictly below `key`.
    fn static_less(&self, key: LldKey) -> usize {
        let ub = self.universe.partition_point(|&k| k < key);
        self.skeys.rank_of_key(ub)
    }

    /// R-dominated blocks with recency strictly below `c` (`len` is the
    /// current stack length).
    fn r_pos_below(&self, c: usize, len: usize) -> usize {
        if c == 0 {
            return 0;
        }
        if c >= len {
            return self.rmarks.total() as usize;
        }
        let slot = self.occ.select(c).expect("recency within stack");
        self.rmarks.count_below(slot) as usize
    }

    /// R-dominated blocks with key strictly below `key`.
    fn r_less(&self, key: LldKey, len: usize) -> usize {
        let (kv, kid) = key;
        if kv >= len as u64 {
            return self.rmarks.total() as usize;
        }
        let slot = self.occ.select(kv as usize).expect("recency within stack");
        let mut count = self.rmarks.count_below(slot) as usize;
        // The single possible R block *at* recency `kv`: id tie-break.
        if self.rmarks.get(slot) == 1 && self.slot_block[slot] < kid {
            count += 1;
        }
        count
    }

    /// The `j`-th smallest static key.
    fn static_key_at(&self, j: usize) -> LldKey {
        self.universe[self.skeys.select(j).expect("static rank in range")]
    }

    /// The `j`-th smallest R-dominated key (R keys sort by recency, which
    /// sorts like the slots).
    fn r_key_at(&self, j: usize) -> LldKey {
        let slot = self.rmarks.select(j).expect("R rank in range");
        (self.occ.count_below(slot) as u64, self.slot_block[slot])
    }

    /// The key holding rank `r` of the merged order, or [`KEY_MAX`] when
    /// fewer than `r + 1` blocks are listed. A k-th-of-two-sorted-
    /// sequences binary search over the static side: O(log² D).
    fn merged_select(&self, r: usize) -> LldKey {
        let na = self.skeys.len();
        let nb = self.rmarks.total() as usize;
        if r >= na + nb {
            return KEY_MAX;
        }
        let k = r + 1;
        let (mut lo, mut hi) = (k.saturating_sub(nb), k.min(na));
        while lo < hi {
            let s = lo + (hi - lo) / 2;
            if self.r_key_at(k - s - 1) > self.static_key_at(s) {
                lo = s + 1;
            } else {
                hi = s;
            }
        }
        let s = lo;
        let last_static = if s > 0 {
            Some(self.static_key_at(s - 1))
        } else {
            None
        };
        let last_r = if k > s {
            Some(self.r_key_at(k - s - 1))
        } else {
            None
        };
        last_static.max(last_r).expect("k >= 1 takes something")
    }

    /// 1 if the block at *new* recency `w` is R-dominated and moved from
    /// below `theta_old` to below `theta_new` (or vice versa is handled by
    /// the caller's symmetric-difference algebra): evaluates the full
    /// drifted predicate `(w-1, y) < θ_old && (w, y) < θ_new`.
    fn drifted_in_both(
        &self,
        w: u64,
        p_eff: usize,
        len: usize,
        theta_old: LldKey,
        theta_new: LldKey,
    ) -> usize {
        if w == 0 || w > p_eff as u64 || w >= len as u64 {
            return 0;
        }
        let slot = self.occ.select(w as usize).expect("recency within stack");
        if self.rmarks.get(slot) != 1 {
            return 0;
        }
        let y = self.slot_block[slot];
        usize::from((w - 1, y) < theta_old && (w, y) < theta_new)
    }
}

/// LLD-R: value = max(LLD, R). The naive form re-sorts all D blocks per
/// reference (`reference::analyze_slow`); here each reference costs
/// O(log² D) by counting, per segment boundary, how the boundary's
/// *head set* changed.
///
/// A block crosses boundary rank `r` exactly when its membership in the
/// head set H(r) = { blocks with rank < r } changes, so the crossings a
/// reference causes are |H_old Δ H_new| = |H_old| + |H_new| − 2·|H_old ∩
/// H_new| (new blocks' first appearance excluded, as the naive settle
/// skips blocks without a previous rank). Per reference only one block
/// moves freely (the accessed one); every other block either keeps its
/// key (static), drifts by exactly +1 (R-dominated blocks above the
/// access point), or makes its one static→R transition — so each
/// intersection term is an O(log) Fenwick interval count, with at most
/// two boundary blocks checked individually. Transitions are harvested
/// from a lazy min-tree over the margins `LLD − recency` and amortize to
/// O(1) per reference.
fn analyze_lld_r(blocks: &[u32], bounds: &Boundaries) -> SegmentReport {
    let n = blocks.len();
    let d = bounds.d;
    let mut report = SegmentReport::new(bounds.segments, d);

    // Offline: the static key installed by each reference is its LRU
    // stack distance (INFINITE on first access) — the whole static key
    // universe is known before the pass starts.
    let dist = lru_stack_distances(blocks);
    let vals: Vec<u64> = dist
        .iter()
        .map(|o| o.map_or(INFINITE, |p| p as u64))
        .collect();
    let mut universe: Vec<LldKey> = vals.iter().zip(blocks).map(|(&v, &b)| (v, b)).collect();
    universe.sort_unstable();
    universe.dedup();
    let key_idx: Vec<usize> = (0..n)
        .map(|i| {
            universe
                .binary_search(&(vals[i], blocks[i]))
                .expect("own key is in the universe")
        })
        .collect();

    let cap = n + 2;
    let mut st = LldRIndex {
        universe: &universe,
        skeys: KeyedList::new(universe.len()),
        occ: Fenwick::new(cap),
        rmarks: Fenwick::new(cap),
        slot_block: vec![u32::MAX; cap],
    };
    // Margin LLD − recency per slot; a slot dropping below zero is a
    // static block whose recency just overtook its LLD.
    let mut margin = LazyMinTree::new(cap, MARGIN_BIG);
    let mut next_slot = cap;
    let mut len = 0usize;

    let mut slot = vec![usize::MAX; d];
    let mut lld = vec![INFINITE; d];
    let mut sidx = vec![usize::MAX; d];
    let mut is_r = vec![false; d];

    let sat = |v: u64| -> i64 {
        if v >= MARGIN_BIG as u64 {
            MARGIN_BIG
        } else {
            v as i64
        }
    };

    let nb = bounds.ranks.len();
    let mut theta_old: Vec<LldKey> = vec![KEY_MAX; nb];

    for (i, &b) in blocks.iter().enumerate() {
        let bu = b as usize;
        report.total_references += 1;
        let hit = slot[bu] != usize::MAX;
        let n_old = len;

        // Old-order reads, before any mutation.
        let (p_eff, old_key_x, x_was_r) = if hit {
            let sl = slot[bu];
            let p = st.occ.count_below(sl) as usize;
            debug_assert_eq!(vals[i], p as u64, "offline distance == online recency");
            let okey = (lld[bu].max(p as u64), b);
            let rank_old = st.static_less(okey) + st.r_less(okey, n_old);
            report.reference_counts[bounds.segment_of(rank_old)] += 1;
            (p, okey, is_r[bu])
        } else {
            report.cold_references += 1;
            (n_old, KEY_MAX, false)
        };
        let new_val = if hit { p_eff as u64 } else { INFINITE };
        let new_key_x: LldKey = (new_val, b);

        // Fast path: the accessed block keeps its key and nothing ahead
        // of it is R-dominated or about to transition — the whole order
        // is unchanged, so no boundary is crossed and every θ stands.
        if hit {
            let sl = slot[bu];
            if old_key_x == new_key_x
                && st.rmarks.count_below(sl) == 0
                && (sl == 0 || margin.min_range(0, sl) >= 1)
            {
                st.occ.add(sl, -1);
                st.slot_block[sl] = u32::MAX;
                margin.set(sl, MARGIN_BIG);
                if x_was_r {
                    st.rmarks.add(sl, -1);
                    is_r[bu] = false;
                    st.skeys.insert_at_key(key_idx[i]);
                }
                margin.add_range(0, sl, -1);
                next_slot -= 1;
                let ns = next_slot;
                st.occ.add(ns, 1);
                st.slot_block[ns] = b;
                slot[bu] = ns;
                lld[bu] = new_val;
                sidx[bu] = key_idx[i];
                margin.set(ns, sat(new_val));
                continue;
            }
        }

        // Slow path. 1) Take the accessed block off the stack.
        if hit {
            let sl = slot[bu];
            st.occ.add(sl, -1);
            st.slot_block[sl] = u32::MAX;
            margin.set(sl, MARGIN_BIG);
            if x_was_r {
                st.rmarks.add(sl, -1);
                is_r[bu] = false;
            } else {
                st.skeys.remove(sidx[bu]);
            }
        }
        // 2) Drift: every block ahead of the access point gains one
        // recency (all blocks, on a miss).
        let drift_to = if hit { slot[bu] } else { cap };
        margin.add_range(0, drift_to, -1);
        // 3) Harvest static→R transitions (≤ n + d over the whole pass).
        while margin.min_all() < 0 {
            let (m, s) = margin.argmin();
            debug_assert_eq!(m, -1, "margins sink one step at a time");
            let y = st.slot_block[s] as usize;
            st.skeys.remove(sidx[y]);
            sidx[y] = usize::MAX;
            is_r[y] = true;
            st.rmarks.add(s, 1);
            margin.set(s, MARGIN_BIG);
        }
        // 4) Re-insert the accessed block on top, always static.
        next_slot -= 1;
        let ns = next_slot;
        st.occ.add(ns, 1);
        st.slot_block[ns] = b;
        slot[bu] = ns;
        lld[bu] = new_val;
        st.skeys.insert_at_key(key_idx[i]);
        sidx[bu] = key_idx[i];
        margin.set(ns, sat(new_val));
        let n_new = if hit { n_old } else { n_old + 1 };
        len = n_new;

        // 5) Per boundary: crossings = |H_old Δ H_new|.
        for (k, &r) in bounds.ranks.iter().enumerate() {
            let t_old = theta_old[k];
            let t_new = st.merged_select(r);
            let h_old = r.min(n_old) as i64;
            let h_new = r.min(n_new) as i64;
            let min_t = t_old.min(t_new);

            // Static blocks (key unchanged): below both thresholds.
            let mut inter = st.static_less(min_t) as i64;
            if new_key_x < min_t {
                inter -= 1; // the accessed block is handled individually
            }
            // Drifted R blocks, new recency w ∈ [1, p_eff]: old key
            // (w−1, y), new key (w, y). Bulk below both value cutoffs,
            // plus at most two tie-break candidates at the cutoffs.
            let w_hi = (p_eff as u64 + 1)
                .min(t_old.0.saturating_add(1))
                .min(t_new.0);
            let bulk_hi = w_hi.min(n_new as u64) as usize;
            inter += st.r_pos_below(bulk_hi, n_new) as i64;
            let w1 = t_old.0.saturating_add(1);
            let w2 = t_new.0;
            inter += st.drifted_in_both(w1, p_eff, n_new, t_old, t_new) as i64;
            if w2 != w1 {
                inter += st.drifted_in_both(w2, p_eff, n_new, t_old, t_new) as i64;
            }
            // Undrifted R blocks (recency > p_eff): key unchanged.
            if min_t.0 > p_eff as u64 {
                inter += st.r_less(min_t, n_new) as i64
                    - st.r_pos_below((p_eff + 1).min(n_new + 1), n_new) as i64;
            }
            // The accessed block itself.
            if hit && old_key_x < t_old && new_key_x < t_new {
                inter += 1;
            }

            let mut delta = h_old + h_new - 2 * inter;
            if !hit && new_key_x < t_new {
                delta -= 1; // first appearance: the naive settle skips it
            }
            debug_assert!(delta >= 0, "symmetric difference cannot be negative");
            report.boundary_movements[k] += delta as u64;
            theta_old[k] = t_new;
        }
    }
    report
}

/// Brute-force reference implementations used to validate the fast ones.
///
/// Per reference, every block's measure value is recomputed from scratch,
/// the whole list is re-sorted with the same tie disciplines as the fast
/// implementations, and crossings are counted from rank differences.
pub mod reference {
    use super::*;

    /// Analyses `trace` under `kind` by brute force. Semantics are
    /// identical to [`analyze`]; cost is O(refs × blocks log blocks).
    pub fn analyze_slow(trace: &Trace, kind: MeasureKind, segments: usize) -> SegmentReport {
        let (blocks, d) = densify(trace);
        let bounds = Boundaries::new(segments, d);
        let nd = next_use_times(&blocks);
        let nld = next_locality_values(&blocks);
        let mut report = SegmentReport::new(segments, d);

        // Per-block state.
        let mut in_list = vec![false; d];
        let mut lru: Vec<u32> = Vec::new();
        let mut lld = vec![INFINITE; d];
        let mut keyed: Vec<(u64, u64)> = vec![(0, 0); d]; // (value, seq) for ND/NLD
        let mut prev_rank: FxHashMap<u32, usize> = FxHashMap::default();

        let order_now = |lru: &Vec<u32>, lld: &Vec<u64>, keyed: &Vec<(u64, u64)>| -> Vec<u32> {
            let mut entries: Vec<((u64, u64), u32)> = lru
                .iter()
                .enumerate()
                .map(|(pos, &b)| {
                    let key = match kind {
                        MeasureKind::R => (pos as u64, 0),
                        MeasureKind::Nd | MeasureKind::Nld => keyed[b as usize],
                        MeasureKind::LldR => (lld[b as usize].max(pos as u64), b as u64),
                    };
                    (key, b)
                })
                .collect();
            entries.sort_by_key(|&(k, _)| k);
            entries.into_iter().map(|(_, b)| b).collect()
        };

        let count_crossings =
            |order: &[u32], prev_rank: &mut FxHashMap<u32, usize>, report: &mut SegmentReport| {
                for (rank, &b) in order.iter().enumerate() {
                    if let Some(&old) = prev_rank.get(&b) {
                        if old != rank {
                            for k in bounds.crossed(old, rank) {
                                report.boundary_movements[k] += 1;
                            }
                        }
                    }
                    prev_rank.insert(b, rank);
                }
            };

        for (i, &b) in blocks.iter().enumerate() {
            let order = order_now(&lru, &lld, &keyed);
            count_crossings(&order, &mut prev_rank, &mut report);
            report.total_references += 1;
            let rank = order.iter().position(|&x| x == b);
            match rank {
                Some(r) if in_list[b as usize] => {
                    report.reference_counts[bounds.segment_of(r)] += 1;
                }
                _ => report.cold_references += 1,
            }
            // Update state exactly as the fast implementations do.
            let pos = lru.iter().position(|&x| x == b);
            lld[b as usize] = pos.map_or(INFINITE, |p| p as u64);
            if let Some(p) = pos {
                lru.remove(p);
            }
            lru.insert(0, b);
            in_list[b as usize] = true;
            let value = match kind {
                MeasureKind::Nd => nd[i],
                MeasureKind::Nld => nld[i],
                _ => 0,
            };
            keyed[b as usize] = (value, b as u64);
        }
        let order = order_now(&lru, &lld, &keyed);
        count_crossings(&order, &mut prev_rank, &mut report);
        report
    }
}

/// The per-reference recencies of a trace — a convenience re-export used by
/// examples: `recencies(trace)[i]` is the LRU stack distance of reference
/// `i`, or `None` on first access.
pub fn recencies(trace: &Trace) -> Vec<Option<usize>> {
    let (blocks, _) = densify(trace);
    lru_stack_distances(&blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulc_trace::synthetic;

    fn tiny_trace() -> Trace {
        // Deterministic mix over 12 blocks (>= 10 segments needed).
        let ids: Vec<u64> = vec![
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 0, 1, 5, 9, 11, 3, 3, 7, 0, 4, 8, 2, 6,
            10, 1, 0, 5,
        ];
        Trace::from_blocks(ids.into_iter().map(ulc_trace::BlockId::new))
    }

    #[test]
    fn boundaries_partition_ranks() {
        let b = Boundaries::new(10, 100);
        assert_eq!(b.segment_of(0), 0);
        assert_eq!(b.segment_of(9), 0);
        assert_eq!(b.segment_of(10), 1);
        assert_eq!(b.segment_of(99), 9);
        assert_eq!(b.segment_of(150), 9); // clamped
        assert_eq!(b.ranks, vec![10, 20, 30, 40, 50, 60, 70, 80, 90]);
    }

    #[test]
    fn crossed_ranges() {
        let b = Boundaries::new(10, 100);
        assert_eq!(b.crossed(0, 5), 0..0);
        assert_eq!(b.crossed(0, 10), 0..1);
        assert_eq!(b.crossed(5, 25), 0..2);
        assert_eq!(b.crossed(25, 5), 0..2); // symmetric
        assert!(b.crossed(10, 10).is_empty());
        assert!(b.crossed(95, 99).is_empty());
    }

    #[test]
    fn parallel_analyze_all_matches_sequential() {
        let t = synthetic::zipf_small(4_000);
        assert_eq!(analyze_all_parallel(&t, 10), analyze_all(&t, 10));
    }

    #[test]
    fn fast_matches_slow_on_tiny_trace() {
        let t = tiny_trace();
        for kind in MeasureKind::ALL {
            let fast = analyze(&t, kind, 4);
            let slow = reference::analyze_slow(&t, kind, 4);
            assert_eq!(fast, slow, "measure {kind}");
        }
    }

    #[test]
    fn fast_matches_slow_on_small_synthetic_traces() {
        let traces = vec![
            ("loop", synthetic::cs(600)),
            ("zipf", synthetic::zipf_small(600)),
            ("sprite", synthetic::sprite(600)),
        ];
        for (name, t) in traces {
            for kind in MeasureKind::ALL {
                let fast = analyze(&t, kind, 10);
                let slow = reference::analyze_slow(&t, kind, 10);
                assert_eq!(fast, slow, "{name} under {kind}");
            }
        }
    }

    #[test]
    fn totals_are_conserved() {
        let t = synthetic::multi_small(3_000);
        for kind in MeasureKind::ALL {
            let r = analyze(&t, kind, 10);
            let seg_total: u64 = r.reference_counts.iter().sum();
            assert_eq!(seg_total + r.cold_references, r.total_references);
            assert_eq!(r.total_references, 3_000);
        }
    }

    #[test]
    fn nd_is_optimal_on_a_loop() {
        // On a pure loop ND concentrates hits in the head segments and R
        // pushes everything to the tail (§2.2 observation 1).
        let t = synthetic::cs(6 * synthetic::CS_BLOCKS as usize);
        let nd = analyze(&t, MeasureKind::Nd, 10);
        let r = analyze(&t, MeasureKind::R, 10);
        let nd_head: f64 = nd.cumulative_ratios()[4];
        let r_head: f64 = r.cumulative_ratios()[4];
        assert!(
            nd_head > 0.4,
            "ND head share = {nd_head}; should capture loop hits early"
        );
        // A pure loop re-references at recency D-1: all R hits in the last
        // segment.
        assert!(r_head < 0.01, "R head share = {r_head}");
        assert!(r.reference_ratios()[9] > 0.5);
    }

    #[test]
    fn lld_r_is_stabler_than_r_on_a_loop() {
        let t = synthetic::glimpse(30_000);
        let r = analyze(&t, MeasureKind::R, 10);
        let lld_r = analyze(&t, MeasureKind::LldR, 10);
        assert!(
            lld_r.mean_movement_ratio() < r.mean_movement_ratio() / 2.0,
            "LLD-R {} vs R {}",
            lld_r.mean_movement_ratio(),
            r.mean_movement_ratio()
        );
    }

    #[test]
    fn r_wins_head_share_on_lru_friendly_trace() {
        let t = synthetic::sprite(20_000);
        let r = analyze(&t, MeasureKind::R, 10);
        let ratios = r.reference_ratios();
        // Temporally-clustered: hits decay monotonically with recency.
        assert!(ratios[0] > 0.3, "sprite under R: head = {}", ratios[0]);
        assert!(ratios[0] > 5.0 * ratios[5], "ratios = {ratios:?}");
        for w in ratios.windows(2) {
            assert!(w[0] >= w[1], "ratios should decay: {ratios:?}");
        }
    }

    #[test]
    fn analyze_all_returns_four_reports() {
        let t = tiny_trace();
        let all = analyze_all(&t, 4);
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].0, MeasureKind::Nd);
    }

    #[test]
    fn recencies_of_repeat() {
        let t = Trace::from_blocks([1u64, 1].map(ulc_trace::BlockId::new));
        assert_eq!(recencies(&t), vec![None, Some(0)]);
    }

    #[test]
    #[should_panic(expected = "at least as many blocks")]
    fn too_few_blocks_rejected() {
        let t = Trace::from_blocks([1u64, 2].map(ulc_trace::BlockId::new));
        let _ = analyze(&t, MeasureKind::R, 10);
    }

    #[test]
    fn lld_r_value_uses_max_of_lld_and_recency() {
        // Block 0 is accessed at recency 2 (LLD = 2). After 3 more distinct
        // accesses its recency exceeds LLD, so its LLD-R grows with R:
        // under pure LLD it would stay put; the measured movement at the
        // deep boundaries shows it moved.
        let ids: Vec<u64> = vec![0, 1, 2, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1];
        let t = Trace::from_blocks(ids.into_iter().map(ulc_trace::BlockId::new));
        let fast = analyze(&t, MeasureKind::LldR, 4);
        let slow = reference::analyze_slow(&t, MeasureKind::LldR, 4);
        assert_eq!(fast, slow);
    }
}
