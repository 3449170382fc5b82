//! Epoch partitioning of a multi-client reference stream for the
//! deterministic sharded replay engine (DESIGN.md §5i).
//!
//! The multi-client ULC protocol serialises every reference through one
//! global order because any access may interact with the shared server
//! level: a retrieval, a demotion, an ownership transfer or a delivered
//! eviction notice. But most references in a multi-client trace do
//! neither — they hit a block that lives in the issuing client's private
//! top level and that **no other client ever touches**. Such references
//! are server-silent: they move no messages, touch no shared state, and
//! commute bit-exactly with everything another client does in between.
//!
//! [`ReplayPlan`] classifies every reference of a trace by that
//! *static-exclusivity* criterion in two passes over the records, and
//! [`EpochRuns`] slices a trace epoch (a contiguous global-order window)
//! into per-client *runs*: for each client, the maximal prefix of its
//! epoch-local references that are statically exclusive. A run is
//! delimited by the client's first potential shared-level interaction
//! point in the window — exactly the references a worker thread may
//! speculatively advance before the bulk-synchronous executor
//! (`ulc_core::parallel`) re-serialises the remainder in global-trace
//! order. Static exclusivity is necessary but not sufficient for the
//! fast path; the executor additionally checks dynamic top-level
//! residency per reference, which only shortens the consumed prefix.
//!
//! # Examples
//!
//! ```
//! use ulc_trace::epoch::ReplayPlan;
//! use ulc_trace::{BlockId, ClientId, Trace, TraceRecord};
//!
//! let t = Trace::from_records(vec![
//!     TraceRecord::new(ClientId::new(0), BlockId::new(1)), // only client 0
//!     TraceRecord::new(ClientId::new(1), BlockId::new(2)), // shared below
//!     TraceRecord::new(ClientId::new(0), BlockId::new(2)), // shared
//! ]);
//! let plan = ReplayPlan::build(&t);
//! assert!(plan.is_exclusive(0));
//! assert!(!plan.is_exclusive(1));
//! assert!(!plan.is_exclusive(2));
//! ```

use crate::{BlockId, BlockMap, Trace};

/// Epoch length the sharded executor uses by default: long enough that
/// the two barrier crossings per epoch vanish against the per-reference
/// work, short enough that per-client run buffers stay cache-resident.
/// Epoch boundaries never affect results — only scheduling granularity.
pub const DEFAULT_EPOCH_LEN: usize = 4096;

/// Owner sentinel for "referenced by more than one client".
const SHARED: u32 = u32::MAX;

/// Per-reference static-exclusivity classification of a whole trace.
///
/// A reference is *statically exclusive* when its block is referenced by
/// exactly one client across the entire trace. Blocks touched by two or
/// more clients — the shared-L2 interaction points — mark every one of
/// their references non-exclusive.
#[derive(Clone, Debug)]
pub struct ReplayPlan {
    /// `exclusive[i]` — record `i` references a single-client block.
    exclusive: Vec<bool>,
    num_clients: u32,
    exclusive_refs: usize,
}

impl ReplayPlan {
    /// Classifies every reference of `trace` in two passes: the first
    /// assigns each block its referencing client or the shared sentinel,
    /// the second projects that verdict onto the records.
    pub fn build(trace: &Trace) -> Self {
        let mut owner: BlockMap<u32> = BlockMap::new();
        for r in trace.iter() {
            let c = r.client.index();
            match owner.get_mut(r.block) {
                None => {
                    owner.insert(r.block, c);
                }
                Some(o) if *o != c => *o = SHARED,
                Some(_) => {}
            }
        }
        let mut exclusive_refs = 0usize;
        let exclusive: Vec<bool> = trace
            .iter()
            .map(|r| {
                let excl = owner.get(r.block).copied() != Some(SHARED);
                exclusive_refs += excl as usize;
                excl
            })
            .collect();
        ReplayPlan {
            exclusive,
            num_clients: trace.num_clients(),
            exclusive_refs,
        }
    }

    /// References classified (the trace length).
    pub fn len(&self) -> usize {
        self.exclusive.len()
    }

    /// Returns `true` if the plan covers no references.
    pub fn is_empty(&self) -> bool {
        self.exclusive.is_empty()
    }

    /// Clients in the underlying trace.
    pub fn num_clients(&self) -> u32 {
        self.num_clients
    }

    /// Whether record `idx` references a statically exclusive block.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn is_exclusive(&self, idx: usize) -> bool {
        self.exclusive[idx]
    }

    /// Fraction of references that are statically exclusive — the upper
    /// bound on what the sharded executor can advance off the serial
    /// commit walk.
    pub fn exclusive_fraction(&self) -> f64 {
        if self.exclusive.is_empty() {
            0.0
        } else {
            self.exclusive_refs as f64 / self.exclusive.len() as f64
        }
    }

    /// Slices the epoch `start..end` of `trace` into per-client leading
    /// exclusive runs, written into `runs` (buffers are reused, so a
    /// settled caller allocates nothing per epoch).
    ///
    /// # Panics
    ///
    /// Panics if `start..end` is out of range for the trace/plan or if
    /// `runs` was sized for a different client count.
    pub fn fill_runs(&self, trace: &Trace, start: usize, end: usize, runs: &mut EpochRuns) {
        assert!(start <= end && end <= self.len(), "epoch out of range");
        assert_eq!(
            runs.runs.len(),
            self.num_clients as usize,
            "EpochRuns client count mismatch"
        );
        assert_eq!(trace.len(), self.len(), "plan built for another trace");
        for run in &mut runs.runs {
            run.clear();
        }
        runs.open.clear();
        runs.open.resize(self.num_clients as usize, true);
        for (i, r) in trace.records()[start..end].iter().enumerate() {
            let c = r.client.index() as usize;
            if runs.open[c] {
                if self.exclusive[start + i] {
                    runs.runs[c].push(r.block);
                } else {
                    runs.open[c] = false;
                }
            }
        }
    }
}

/// Per-client leading exclusive runs of one trace epoch; the reusable
/// output buffer of [`ReplayPlan::fill_runs`].
#[derive(Clone, Debug)]
pub struct EpochRuns {
    /// `runs[c]` — client `c`'s epoch-local references up to (not
    /// including) its first non-exclusive reference in the epoch.
    runs: Vec<Vec<BlockId>>,
    /// Fill scratch: whether client `c`'s run is still growing.
    open: Vec<bool>,
}

impl EpochRuns {
    /// Creates empty run buffers for `num_clients` clients.
    pub fn new(num_clients: usize) -> Self {
        EpochRuns {
            runs: (0..num_clients).map(|_| Vec::new()).collect(),
            open: Vec::new(),
        }
    }

    /// Number of clients the buffers cover.
    pub fn num_clients(&self) -> usize {
        self.runs.len()
    }

    /// Client `c`'s leading exclusive run for the last filled epoch.
    pub fn run(&self, client: usize) -> &[BlockId] {
        &self.runs[client]
    }

    /// Mutable access to client `c`'s run buffer, so an executor can swap
    /// it into a worker cell without copying.
    pub fn run_mut(&mut self, client: usize) -> &mut Vec<BlockId> {
        &mut self.runs[client]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, TraceRecord};

    fn rec(c: u32, b: u64) -> TraceRecord {
        TraceRecord::new(ClientId::new(c), BlockId::new(b))
    }

    #[test]
    fn classification_marks_every_reference_of_a_shared_block() {
        let t = Trace::from_records(vec![
            rec(0, 10),
            rec(0, 11),
            rec(1, 20),
            rec(0, 20), // makes 20 shared, including the earlier reference
            rec(1, 21),
        ]);
        let plan = ReplayPlan::build(&t);
        assert_eq!(plan.len(), 5);
        assert!(plan.is_exclusive(0));
        assert!(plan.is_exclusive(1));
        assert!(!plan.is_exclusive(2));
        assert!(!plan.is_exclusive(3));
        assert!(plan.is_exclusive(4));
        assert_eq!(plan.exclusive_fraction(), 3.0 / 5.0);
        assert_eq!(plan.num_clients(), 2);
    }

    #[test]
    fn sparse_file_set_ids_classify_too() {
        let hi = (7u64 << 32) | 3; // above DIRECT_LIMIT, sparse tier
        let t = Trace::from_records(vec![rec(0, hi), rec(1, hi), rec(1, 5)]);
        let plan = ReplayPlan::build(&t);
        assert!(!plan.is_exclusive(0));
        assert!(!plan.is_exclusive(1));
        assert!(plan.is_exclusive(2));
    }

    #[test]
    fn runs_stop_at_the_first_interaction_point_per_client() {
        let t = Trace::from_records(vec![
            rec(0, 1), // excl
            rec(1, 2), // excl
            rec(0, 9), // shared (client 1 touches 9 later)
            rec(0, 3), // excl, but after client 0's delimiter
            rec(1, 4), // excl, still in client 1's run
            rec(1, 9), // shared delimiter for client 1
            rec(1, 5), // after the delimiter
        ]);
        let plan = ReplayPlan::build(&t);
        let mut runs = EpochRuns::new(2);
        plan.fill_runs(&t, 0, t.len(), &mut runs);
        assert_eq!(runs.run(0), &[BlockId::new(1)]);
        assert_eq!(runs.run(1), &[BlockId::new(2), BlockId::new(4)]);
    }

    #[test]
    fn runs_reset_between_epochs_and_cover_only_the_window() {
        let t = Trace::from_records(vec![
            rec(0, 9), // shared below: closes client 0's run in epoch 0
            rec(0, 1),
            rec(1, 9),
            rec(0, 2), // epoch 1 starts here: run is open again
            rec(0, 3),
        ]);
        let plan = ReplayPlan::build(&t);
        let mut runs = EpochRuns::new(2);
        plan.fill_runs(&t, 0, 3, &mut runs);
        assert!(runs.run(0).is_empty());
        assert!(runs.run(1).is_empty());
        plan.fill_runs(&t, 3, 5, &mut runs);
        assert_eq!(runs.run(0), &[BlockId::new(2), BlockId::new(3)]);
        assert!(runs.run(1).is_empty());
    }

    #[test]
    fn empty_trace_has_empty_plan() {
        let plan = ReplayPlan::build(&Trace::new());
        assert!(plan.is_empty());
        assert_eq!(plan.exclusive_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "epoch out of range")]
    fn out_of_range_epoch_rejected() {
        let t = Trace::from_records(vec![rec(0, 1)]);
        let plan = ReplayPlan::build(&t);
        let mut runs = EpochRuns::new(1);
        plan.fill_runs(&t, 0, 2, &mut runs);
    }
}
