//! Access-pattern generators.
//!
//! §2.2 of the paper classifies I/O reference streams into a small number of
//! pattern families — looping, temporally-clustered (LRU-friendly), uniform
//! random, Zipf-like and mixed — and explains every experimental result in
//! those terms. Each family lives in its own module here; the
//! [`crate::synthetic`] module composes them into the paper's named traces.

mod file;
mod looping;
mod mixed;
mod random;
mod sequential;
mod temporal;
mod working_set;
mod zipf;

pub use file::FileSetPattern;
pub use looping::LoopingPattern;
pub use mixed::{MixedPattern, Phase};
pub use random::UniformPattern;
pub use sequential::SequentialPattern;
pub use temporal::TemporalPattern;
pub use working_set::WorkingSetDriftPattern;
pub use zipf::ZipfPattern;

use crate::{BlockId, Trace};

/// A stateful generator of block references.
///
/// Implementors produce one [`BlockId`] per call; all randomness is internal
/// and seeded, so a pattern value is a deterministic stream.
///
/// # Examples
///
/// ```
/// use ulc_trace::patterns::{LoopingPattern, Pattern};
///
/// let mut p = LoopingPattern::new(3);
/// let ids: Vec<u64> = (0..6).map(|_| p.next_block().raw()).collect();
/// assert_eq!(ids, [0, 1, 2, 0, 1, 2]);
/// ```
pub trait Pattern {
    /// Produces the next block reference of the stream.
    fn next_block(&mut self) -> BlockId;

    /// Generates a single-client [`Trace`] of `len` references.
    fn generate(&mut self, len: usize) -> Trace
    where
        Self: Sized,
    {
        (0..len).map(|_| self.next_block()).collect()
    }
}

impl Pattern for Box<dyn Pattern> {
    fn next_block(&mut self) -> BlockId {
        (**self).next_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_pattern_implements_pattern() {
        let mut b: Box<dyn Pattern> = Box::new(LoopingPattern::new(2));
        assert_eq!(b.next_block(), BlockId::new(0));
        assert_eq!(b.next_block(), BlockId::new(1));
        assert_eq!(b.next_block(), BlockId::new(0));
    }
}
