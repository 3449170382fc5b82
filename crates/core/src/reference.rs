//! A from-first-principles reference implementation of the single-client
//! ULC algorithm.
//!
//! [`NaiveUlc`] maintains the `uniLRUstack` as a plain `Vec` and re-derives
//! every status from positions on each access — O(n) per reference, no
//! stamps, no incremental yardstick maintenance. It exists to validate the
//! O(1) [`crate::UniLruStack`]: property tests drive both with the same
//! reference streams and require identical decisions, placements and
//! traffic.

use crate::stack::Placement;
use ulc_trace::BlockId;

const OUT: usize = usize::MAX;

/// One access's outcome: the fields of [`crate::StackAccess`] and
/// [`crate::AccessScratch`] that are semantically meaningful.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaiveOutcome {
    /// Level the block was retrieved from.
    pub found: Placement,
    /// Level the block was placed at.
    pub placed: Placement,
    /// Demotion transfers per boundary.
    pub demotions: Vec<u32>,
    /// Blocks pushed out of the bottom level.
    pub evicted: Vec<BlockId>,
}

/// The naive reference ULC.
#[derive(Clone, Debug)]
pub struct NaiveUlc {
    /// Stack entries, most recent first: `(block, level)` with `OUT`
    /// marking uncached history.
    stack: Vec<(BlockId, usize)>,
    capacities: Vec<usize>,
}

impl NaiveUlc {
    /// Creates the reference protocol.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or contains zero.
    pub fn new(capacities: Vec<usize>) -> Self {
        assert!(!capacities.is_empty() && capacities.iter().all(|&c| c > 0));
        NaiveUlc {
            stack: Vec::new(),
            capacities,
        }
    }

    fn count(&self, level: usize) -> usize {
        self.stack.iter().filter(|&&(_, l)| l == level).count()
    }

    /// Position of the deepest entry of `level` (the yardstick), if any.
    fn yardstick_pos(&self, level: usize) -> Option<usize> {
        self.stack.iter().rposition(|&(_, l)| l == level)
    }

    /// The recency region of stack position `pos`: the smallest level
    /// whose yardstick is at least as deep, else the shallowest non-full
    /// level, else uncached.
    fn region_of_pos(&self, pos: usize) -> Placement {
        for j in 0..self.capacities.len() {
            if let Some(y) = self.yardstick_pos(j) {
                if pos <= y {
                    return Placement::Level(j);
                }
            }
        }
        self.first_open()
    }

    fn first_open(&self) -> Placement {
        match (0..self.capacities.len()).find(|&j| self.count(j) < self.capacities[j]) {
            Some(j) => Placement::Level(j),
            None => Placement::Uncached,
        }
    }

    /// Demotion cascade starting at `start`; mirrors the smart-client
    /// accounting (fall-through blocks are not transferred, blocks ending
    /// uncached are discarded with no traffic).
    fn cascade(&mut self, start: usize, out: &mut NaiveOutcome) {
        let n = self.capacities.len();
        let mut moved: Vec<(BlockId, usize)> = Vec::new();
        let mut lvl = start;
        while lvl < n && self.count(lvl) > self.capacities[lvl] {
            let y = self.yardstick_pos(lvl).expect("over-full level");
            let block = self.stack[y].0;
            if !moved.iter().any(|&(b, _)| b == block) {
                moved.push((block, lvl));
            }
            self.stack[y].1 = if lvl + 1 < n { lvl + 1 } else { OUT };
            lvl += 1;
        }
        for (block, from) in moved {
            let level = self
                .stack
                .iter()
                .find(|&&(b, _)| b == block)
                .expect("moved block is in the stack")
                .1;
            if level == OUT {
                out.evicted.push(block);
            } else {
                for m in from..level {
                    out.demotions[m] += 1;
                }
            }
        }
    }

    /// Drops uncached history from the stack bottom while it lies below
    /// the last yardstick (matching the fast implementation exactly: the
    /// trim stops at the first cached entry from the bottom — a stale
    /// uncached entry parked above a deep cached one behaves identically
    /// to a trimmed one, since below every yardstick the region fallback
    /// applies either way).
    fn trim(&mut self) {
        let last = self.capacities.len() - 1;
        let Some(y) = self.yardstick_pos(last) else {
            return;
        };
        while self.stack.len() > y + 1 {
            let i = self.stack.len() - 1;
            if self.stack[i].1 == OUT {
                self.stack.pop();
            } else {
                break;
            }
        }
    }

    /// Handles one reference.
    pub fn access(&mut self, block: BlockId) -> NaiveOutcome {
        let n = self.capacities.len();
        let mut out = NaiveOutcome {
            found: Placement::Uncached,
            placed: Placement::Uncached,
            demotions: vec![0; n - 1],
            evicted: Vec::new(),
        };
        match self.stack.iter().position(|&(b, _)| b == block) {
            Some(pos) => {
                let level = self.stack[pos].1;
                let region = self.region_of_pos(pos);
                self.stack.remove(pos);
                if level != OUT {
                    out.found = Placement::Level(level);
                    let j = region.level().expect("cached blocks lie in a region");
                    assert!(j <= level, "i < j is impossible");
                    self.stack.insert(0, (block, j));
                    if j < level {
                        self.cascade(j, &mut out);
                    }
                    out.placed = Placement::Level(j);
                } else {
                    match region {
                        Placement::Level(j) => {
                            self.stack.insert(0, (block, j));
                            self.cascade(j, &mut out);
                            out.placed = Placement::Level(j);
                        }
                        Placement::Uncached => {
                            self.stack.insert(0, (block, OUT));
                        }
                    }
                }
            }
            None => {
                let region = self.first_open();
                match region {
                    Placement::Level(j) => {
                        self.stack.insert(0, (block, j));
                        out.placed = Placement::Level(j);
                    }
                    Placement::Uncached => {
                        self.stack.insert(0, (block, OUT));
                    }
                }
            }
        }
        self.trim();
        out
    }

    /// Blocks cached at `level`, most recent first.
    pub fn level_blocks(&self, level: usize) -> Vec<BlockId> {
        self.stack
            .iter()
            .filter(|&&(_, l)| l == level)
            .map(|&(b, _)| b)
            .collect()
    }

    /// Total stack entries (cached + history).
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::UniLruStack;
    use rand::Rng;

    fn b(i: u64) -> BlockId {
        BlockId::new(i)
    }

    /// Drives both implementations and asserts equivalence after every
    /// access.
    fn check_equivalence(caps: &[usize], blocks: &[u64]) {
        let mut fast = UniLruStack::new(caps.to_vec());
        let mut naive = NaiveUlc::new(caps.to_vec());
        for (step, &blk) in blocks.iter().enumerate() {
            let (f, fx) = fast.access(b(blk));
            let n = naive.access(b(blk));
            assert_eq!(f.found, n.found, "step {step}: found");
            assert_eq!(f.placed, n.placed, "step {step}: placed");
            assert_eq!(fx.demotions, n.demotions, "step {step}: demotions");
            let mut fe = fx.evicted;
            let mut ne = n.evicted.clone();
            fe.sort();
            ne.sort();
            assert_eq!(fe, ne, "step {step}: evicted");
            for l in 0..caps.len() {
                assert_eq!(
                    fast.level_blocks(l),
                    naive.level_blocks(l),
                    "step {step}: level {l} content/order"
                );
            }
            assert_eq!(fast.stack_len(), naive.stack_len(), "step {step}: stack");
            fast.check_invariants();
        }
    }

    #[test]
    fn equivalent_on_simple_sequences() {
        check_equivalence(&[2, 2], &[0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 4, 4, 0]);
        check_equivalence(&[1, 1, 1], &[0, 1, 2, 3, 3, 2, 1, 0, 5, 5, 5]);
        check_equivalence(&[3], &[0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn equivalent_on_loops() {
        let loop9: Vec<u64> = (0..9u64).cycle().take(200).collect();
        check_equivalence(&[2, 3], &loop9);
        check_equivalence(&[4, 4, 4], &loop9);
        check_equivalence(&[3, 3], &loop9);
    }

    #[test]
    fn equivalent_on_random_traces() {
        let mut rng = ulc_trace::seeded_rng(0xabcdef);
        for caps in [vec![2, 3], vec![1, 1, 1], vec![4, 2, 3], vec![5]] {
            for universe in [4u64, 8, 16, 40] {
                let blocks: Vec<u64> = (0..400).map(|_| rng.gen_range(0..universe)).collect();
                check_equivalence(&caps, &blocks);
            }
        }
    }

    #[test]
    fn equivalent_on_zipf_traces() {
        let z = ulc_trace::Zipf::new(30, 1.0);
        let mut rng = ulc_trace::seeded_rng(0x77);
        let blocks: Vec<u64> = (0..600).map(|_| z.sample(&mut rng) as u64).collect();
        check_equivalence(&[3, 4, 5], &blocks);
    }
}
