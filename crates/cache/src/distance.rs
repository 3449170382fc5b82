//! LRU stack-distance (recency) computation.
//!
//! The paper's **LLD** (last locality distance) of a reference is exactly
//! the LRU stack distance at which it occurs: the number of *distinct*
//! blocks referenced since the previous reference to the same block. The
//! measures framework (§2) needs this for every reference of a trace;
//! [`lru_stack_distances`] computes it in O(n log n) on a [`RecencyList`]
//! (a stamp-keyed Fenwick LRU list), instead of O(n²) list walking.

use crate::RecencyList;
use fxhash::FxHashMap;
use std::hash::Hash;

/// Computes the LRU stack distance of every reference in `items`.
///
/// `result[i]` is `Some(d)` when `items[i]` was last referenced with `d`
/// distinct other items in between (so `d == 0` means an immediate repeat),
/// and `None` for the first reference to that item.
///
/// This matches the "recency" of the paper: the position the block occupied
/// in the LRU stack at the moment of the reference, with the top of the
/// stack at position 0.
///
/// # Examples
///
/// ```
/// use ulc_cache::lru_stack_distances;
///
/// let d = lru_stack_distances(&['a', 'b', 'b', 'a']);
/// assert_eq!(d, vec![None, None, Some(0), Some(1)]);
/// ```
pub fn lru_stack_distances<T: Eq + Hash>(items: &[T]) -> Vec<Option<usize>> {
    let n = items.len();
    // The indexed list is pre-sized for the whole pass, so no rebuild
    // ever fires: n moves over at most n dense ids.
    let mut list = RecencyList::with_capacity(n, n);
    let mut ids: FxHashMap<&T, usize> = FxHashMap::default();
    let mut out = Vec::with_capacity(n);
    for item in items {
        let next_id = ids.len();
        let id = *ids.entry(item).or_insert(next_id);
        out.push(list.rank_of(id));
        list.move_to_front(id);
    }
    out
}

/// Computes the paper's **NLD** (next locality distance) of every
/// reference: the recency at which the block will be referenced *next*
/// time, or `None` if this is its final reference.
///
/// `NLD[i]` equals the stack distance of the next reference to `items[i]`,
/// which is future knowledge — usable offline only, exactly as the paper
/// uses it in §2.
///
/// # Examples
///
/// ```
/// use ulc_cache::next_locality_distances;
///
/// // 'a' is re-referenced after 1 distinct block ('b').
/// let nld = next_locality_distances(&['a', 'b', 'a']);
/// assert_eq!(nld, vec![Some(1), None, None]);
/// ```
pub fn next_locality_distances<T: Eq + Hash>(items: &[T]) -> Vec<Option<usize>> {
    let distances = lru_stack_distances(items);
    let next = crate::next_use_times(items);
    (0..items.len())
        .map(|i| match next[i] {
            crate::NEVER => None,
            j => distances[j as usize],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference implementation with an explicit LRU stack.
    fn naive<T: Eq + Hash + Clone>(items: &[T]) -> Vec<Option<usize>> {
        let mut stack: Vec<T> = Vec::new();
        let mut out = Vec::new();
        for item in items {
            match stack.iter().position(|x| x == item) {
                Some(p) => {
                    out.push(Some(p));
                    stack.remove(p);
                }
                None => out.push(None),
            }
            stack.insert(0, item.clone());
        }
        out
    }

    #[test]
    fn matches_naive_on_simple_trace() {
        let t = ['a', 'b', 'c', 'a', 'b', 'b', 'c'];
        assert_eq!(lru_stack_distances(&t), naive(&t));
    }

    #[test]
    fn matches_naive_on_pseudorandom_trace() {
        let mut x = 7u64;
        let t: Vec<u64> = (0..2000)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (x >> 40) % 37
            })
            .collect();
        assert_eq!(lru_stack_distances(&t), naive(&t));
    }

    #[test]
    fn loop_distances_are_loop_length_minus_one() {
        let t: Vec<u32> = (0..5).cycle().take(25).collect();
        let d = lru_stack_distances(&t);
        for (i, v) in d.iter().enumerate() {
            if i < 5 {
                assert_eq!(*v, None);
            } else {
                assert_eq!(*v, Some(4));
            }
        }
    }

    #[test]
    fn immediate_repeat_has_distance_zero() {
        let d = lru_stack_distances(&[9, 9, 9]);
        assert_eq!(d, vec![None, Some(0), Some(0)]);
    }

    #[test]
    fn nld_is_shifted_lld() {
        // For every reference i with a next reference j, NLD[i] == LLD[j].
        let t: Vec<u32> = vec![1, 2, 3, 1, 2, 1, 3];
        let lld = lru_stack_distances(&t);
        let nld = next_locality_distances(&t);
        let next = crate::next_use_times(&t);
        for i in 0..t.len() {
            match next[i] {
                crate::NEVER => assert_eq!(nld[i], None),
                j => assert_eq!(nld[i], lld[j as usize]),
            }
        }
    }

    #[test]
    fn empty_input() {
        assert!(lru_stack_distances::<u8>(&[]).is_empty());
        assert!(next_locality_distances::<u8>(&[]).is_empty());
    }
}
