//! A slab-backed doubly-linked list with stable handles.
//!
//! The plain LRU stacks, MQ's queues and the server's `gLRU` need O(1)
//! insertion at the head, O(1) removal from anywhere, and stable
//! references to interior nodes. [`LinkedSlab`] provides that
//! without unsafe code: nodes live in a `Vec`, links are indices, and freed
//! slots are recycled through a free list threaded through their unused
//! `next` links.
//!
//! Handles are generation-checked: using a handle after its node was removed
//! returns `None` (or panics in the `expect`-style accessors) instead of
//! silently addressing a recycled slot.

use std::fmt;

/// A stable, generation-checked reference to a node in a [`LinkedSlab`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeHandle {
    index: u32,
    generation: u32,
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeHandle({}v{})", self.index, self.generation)
    }
}

const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node<T> {
    value: Option<T>,
    generation: u32,
    prev: u32,
    /// The next linked node; on a vacant slot, the next free slot.
    next: u32,
}

/// A doubly-linked list over a slab of nodes.
///
/// The *front* is the most-recently-inserted end (the top of an LRU stack);
/// the *back* is the bottom.
///
/// # Examples
///
/// ```
/// use ulc_cache::LinkedSlab;
///
/// let mut list = LinkedSlab::new();
/// let a = list.push_front('a');
/// let b = list.push_front('b');
/// assert_eq!(list.front(), Some(b));
/// assert_eq!(list.back(), Some(a));
/// assert_eq!(list.remove(a), Some('a'));
/// assert_eq!(list.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct LinkedSlab<T> {
    nodes: Vec<Node<T>>,
    /// The most recently vacated slot, the head of the free chain.
    free: u32,
    head: u32,
    tail: u32,
    len: usize,
    #[cfg(feature = "debug_invariants")]
    tick: u64,
}

impl<T> Default for LinkedSlab<T> {
    fn default() -> Self {
        LinkedSlab::new()
    }
}

impl<T> LinkedSlab<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        LinkedSlab {
            nodes: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            #[cfg(feature = "debug_invariants")]
            tick: 0,
        }
    }

    /// Creates an empty list with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        LinkedSlab {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            #[cfg(feature = "debug_invariants")]
            tick: 0,
        }
    }

    /// Pre-sizes the slab for `capacity` total node slots, so that any
    /// interleaving of insertions and removals over at most `capacity`
    /// slots triggers no further allocation (vacant slots are reused
    /// before the slab grows). Part of the zero-allocation steady-state
    /// contract (DESIGN.md §5f): a slab that reaches its occupancy
    /// high-water late in a run would otherwise pay a doubling realloc
    /// inside the measured phase.
    pub fn reserve(&mut self, capacity: usize) {
        self.nodes
            .reserve(capacity.saturating_sub(self.nodes.len()));
    }

    /// Number of nodes in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the list has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Takes the most recently vacated slot, else a new one. Callers set
    /// both links of the returned node.
    fn alloc(&mut self, value: T) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let node = &mut self.nodes[i as usize];
            self.free = node.next;
            node.value = Some(value);
            return i;
        }
        assert!(self.nodes.len() < NIL as usize, "LinkedSlab capacity");
        self.nodes.push(Node {
            value: Some(value),
            generation: 0,
            prev: NIL,
            next: NIL,
        });
        (self.nodes.len() - 1) as u32
    }

    /// Vacates slot `i` (already unlinked) and pushes it on the free chain.
    fn release(&mut self, i: u32) -> Option<T> {
        let node = &mut self.nodes[i as usize];
        node.generation = node.generation.wrapping_add(1);
        node.next = self.free;
        self.free = i;
        node.value.take()
    }

    fn valid(&self, h: NodeHandle) -> bool {
        self.nodes
            .get(h.index as usize)
            .is_some_and(|n| n.generation == h.generation && n.value.is_some())
    }

    /// Inserts at the front and returns a handle.
    pub fn push_front(&mut self, value: T) -> NodeHandle {
        let i = self.alloc(value);
        let gen = self.nodes[i as usize].generation;
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
        self.len += 1;
        self.debug_validate();
        NodeHandle {
            index: i,
            generation: gen,
        }
    }

    /// Inserts at the back and returns a handle.
    pub fn push_back(&mut self, value: T) -> NodeHandle {
        let i = self.alloc(value);
        let gen = self.nodes[i as usize].generation;
        self.nodes[i as usize].next = NIL;
        self.nodes[i as usize].prev = self.tail;
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = i;
        } else {
            self.head = i;
        }
        self.tail = i;
        self.len += 1;
        self.debug_validate();
        NodeHandle {
            index: i,
            generation: gen,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.nodes[i as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Removes the node at `h`, returning its value, or `None` if stale.
    pub fn remove(&mut self, h: NodeHandle) -> Option<T> {
        if !self.valid(h) {
            return None;
        }
        self.unlink(h.index);
        let value = self.release(h.index);
        self.len -= 1;
        self.debug_validate();
        value
    }

    /// Moves the node at `h` to the front. Returns `false` if stale.
    pub fn move_to_front(&mut self, h: NodeHandle) -> bool {
        if !self.valid(h) {
            return false;
        }
        if self.head == h.index {
            return true;
        }
        self.unlink(h.index);
        self.nodes[h.index as usize].prev = NIL;
        self.nodes[h.index as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = h.index;
        } else {
            self.tail = h.index;
        }
        self.head = h.index;
        self.debug_validate();
        true
    }

    /// Moves the node at `h` to the back. Returns `false` if stale.
    pub fn move_to_back(&mut self, h: NodeHandle) -> bool {
        if !self.valid(h) {
            return false;
        }
        if self.tail == h.index {
            return true;
        }
        self.unlink(h.index);
        self.nodes[h.index as usize].next = NIL;
        self.nodes[h.index as usize].prev = self.tail;
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = h.index;
        } else {
            self.head = h.index;
        }
        self.tail = h.index;
        self.debug_validate();
        true
    }

    fn handle_at(&self, i: u32) -> Option<NodeHandle> {
        if i == NIL {
            None
        } else {
            Some(NodeHandle {
                index: i,
                generation: self.nodes[i as usize].generation,
            })
        }
    }

    /// Handle of the front node, if any.
    pub fn front(&self) -> Option<NodeHandle> {
        self.handle_at(self.head)
    }

    /// Handle of the back node, if any.
    pub fn back(&self) -> Option<NodeHandle> {
        self.handle_at(self.tail)
    }

    /// Borrows the value at `h`, or `None` if stale.
    pub fn get(&self, h: NodeHandle) -> Option<&T> {
        if !self.valid(h) {
            return None;
        }
        self.nodes[h.index as usize].value.as_ref()
    }

    /// Mutably borrows the value at `h`, or `None` if stale.
    pub fn get_mut(&mut self, h: NodeHandle) -> Option<&mut T> {
        if !self.valid(h) {
            return None;
        }
        self.nodes[h.index as usize].value.as_mut()
    }

    /// Iterates front-to-back over `(handle, &value)` pairs.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            list: self,
            cursor: self.head,
        }
    }

    /// Deep structural validation: forward/backward link symmetry, length
    /// accounting, and free-slot bookkeeping (every slot is either linked
    /// with a value or vacant on the free chain, never both).
    ///
    /// O(n). Panics with a description of the first violated invariant.
    /// With the `debug_invariants` feature this runs automatically after
    /// every mutating operation; it is always available to tests.
    pub fn check_invariants(&self) {
        let mut count = 0usize;
        let mut prev = NIL;
        let mut i = self.head;
        while i != NIL {
            let n = &self.nodes[i as usize];
            assert!(n.value.is_some(), "linked node {i} must hold a value");
            assert_eq!(n.prev, prev, "prev link of node {i} must point back");
            count += 1;
            assert!(count <= self.nodes.len(), "cycle in forward links");
            prev = i;
            i = n.next;
        }
        assert_eq!(self.tail, prev, "tail must be the last reachable node");
        assert_eq!(self.len, count, "len must count the reachable nodes");
        let mut vacant = 0usize;
        let mut f = self.free;
        while f != NIL {
            let n = &self.nodes[f as usize];
            assert!(n.value.is_none(), "free slot {f} must be vacant");
            vacant += 1;
            assert!(vacant <= self.nodes.len(), "cycle in the free chain");
            f = n.next;
        }
        assert_eq!(
            vacant,
            self.nodes.len() - count,
            "every unlinked slot must be on the free chain"
        );
    }

    /// Runs [`Self::check_invariants`] when the `debug_invariants`
    /// feature is enabled; a no-op (and fully optimised out) otherwise.
    /// The O(n) sweep is amortised: every mutation while the list is
    /// small, every 256th mutation once it grows.
    #[inline]
    fn debug_validate(&mut self) {
        #[cfg(feature = "debug_invariants")]
        {
            self.tick += 1;
            if self.len < 64 || self.tick.is_multiple_of(256) {
                self.check_invariants();
            }
        }
    }

    /// Removes every node.
    pub fn clear(&mut self) {
        let mut i = self.head;
        while i != NIL {
            let next = self.nodes[i as usize].next;
            self.release(i);
            i = next;
        }
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
        self.debug_validate();
    }
}

/// Front-to-back iterator over a [`LinkedSlab`]. Created by
/// [`LinkedSlab::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    list: &'a LinkedSlab<T>,
    cursor: u32,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (NodeHandle, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let i = self.cursor;
        let node = &self.list.nodes[i as usize];
        self.cursor = node.next;
        Some((
            NodeHandle {
                index: i,
                generation: node.generation,
            },
            node.value.as_ref().expect("linked nodes hold values"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect<T: Clone>(list: &LinkedSlab<T>) -> Vec<T> {
        list.iter().map(|(_, v)| v.clone()).collect()
    }

    #[test]
    fn push_front_orders_lifo() {
        let mut l = LinkedSlab::new();
        for i in 0..5 {
            l.push_front(i);
        }
        assert_eq!(collect(&l), vec![4, 3, 2, 1, 0]);
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn push_back_orders_fifo() {
        let mut l = LinkedSlab::new();
        for i in 0..5 {
            l.push_back(i);
        }
        assert_eq!(collect(&l), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn remove_middle_relinks() {
        let mut l = LinkedSlab::new();
        let _a = l.push_back('a');
        let b = l.push_back('b');
        let _c = l.push_back('c');
        assert_eq!(l.remove(b), Some('b'));
        assert_eq!(collect(&l), vec!['a', 'c']);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn remove_head_and_tail() {
        let mut l = LinkedSlab::new();
        let a = l.push_back(1);
        let b = l.push_back(2);
        assert_eq!(l.remove(a), Some(1));
        assert_eq!(l.front(), l.back());
        assert_eq!(l.remove(b), Some(2));
        assert!(l.is_empty());
        assert_eq!(l.front(), None);
        assert_eq!(l.back(), None);
    }

    #[test]
    fn stale_handle_is_rejected_even_after_slot_reuse() {
        let mut l = LinkedSlab::new();
        let a = l.push_back(1);
        l.remove(a);
        let b = l.push_back(2); // reuses slot 0
        assert_eq!(l.get(a), None);
        assert_eq!(l.remove(a), None);
        assert!(!l.move_to_front(a));
        assert_eq!(l.get(b), Some(&2));
    }

    #[test]
    fn move_to_front_reorders() {
        let mut l = LinkedSlab::new();
        let a = l.push_back('a');
        let _b = l.push_back('b');
        let _c = l.push_back('c');
        assert!(l.move_to_front(a));
        assert_eq!(collect(&l), vec!['a', 'b', 'c']);
        let back = l.back().unwrap();
        assert!(l.move_to_front(back));
        assert_eq!(collect(&l), vec!['c', 'a', 'b']);
    }

    #[test]
    fn move_to_back_reorders() {
        let mut l = LinkedSlab::new();
        let a = l.push_back('a');
        let _ = l.push_back('b');
        assert!(l.move_to_back(a));
        assert_eq!(collect(&l), vec!['b', 'a']);
    }

    #[test]
    fn move_front_node_to_front_is_noop() {
        let mut l = LinkedSlab::new();
        let _ = l.push_back('a');
        let b = l.push_front('b');
        assert!(l.move_to_front(b));
        assert_eq!(collect(&l), vec!['b', 'a']);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut l = LinkedSlab::new();
        let a = l.push_back(10);
        *l.get_mut(a).unwrap() += 5;
        assert_eq!(l.get(a), Some(&15));
    }

    #[test]
    fn clear_resets_and_invalidates() {
        let mut l = LinkedSlab::new();
        let a = l.push_back(1);
        l.push_back(2);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.get(a), None);
        // Reusable after clear.
        l.push_back(3);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn slots_are_recycled() {
        let mut l = LinkedSlab::new();
        for _ in 0..100 {
            let h = l.push_front(0u8);
            l.remove(h);
        }
        assert!(l.nodes.len() <= 2, "slab grew to {}", l.nodes.len());
    }

    #[test]
    fn heavy_random_ops_keep_invariants() {
        // Deterministic pseudo-random workout: compare against a Vec model.
        let mut l = LinkedSlab::new();
        let mut model: Vec<u64> = Vec::new();
        let mut handles: Vec<(NodeHandle, u64)> = Vec::new();
        let mut x = 0x12345678u64;
        for step in 0..5000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match x % 4 {
                0 | 1 => {
                    let h = l.push_front(step);
                    model.insert(0, step);
                    handles.push((h, step));
                }
                2 if !handles.is_empty() => {
                    let pick = (x / 7) as usize % handles.len();
                    let (h, v) = handles.swap_remove(pick);
                    if let Some(got) = l.remove(h) {
                        assert_eq!(got, v);
                        let pos = model.iter().position(|&m| m == v).unwrap();
                        model.remove(pos);
                    }
                }
                _ if !handles.is_empty() => {
                    let pick = (x / 11) as usize % handles.len();
                    let (h, v) = handles[pick];
                    if l.move_to_front(h) {
                        let pos = model.iter().position(|&m| m == v).unwrap();
                        model.remove(pos);
                        model.insert(0, v);
                    }
                }
                _ => {}
            }
            assert_eq!(l.len(), model.len());
        }
        let got: Vec<u64> = l.iter().map(|(_, &v)| v).collect();
        assert_eq!(got, model);
    }
}
