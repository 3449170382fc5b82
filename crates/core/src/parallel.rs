//! Deterministic sharded multi-client replay for [`UlcMulti`]
//! (DESIGN.md §5i).
//!
//! The serial driver [`ulc_hierarchy::simulate`] replays the global
//! reference stream one access at a time, even though most accesses in a
//! multi-client workload are **private L1 hits**: the block is statically
//! exclusive to one client (no other client ever references it) and
//! currently resident in that client's private cache, so the access never
//! touches the shared server, the message plane's queues, or any other
//! client's state. Those accesses commute with everything between them
//! and the surrounding shared-L2 interaction points, which is exactly the
//! parallelism this module exploits:
//!
//! 1. A [`ReplayPlan`] classifies every reference as statically exclusive
//!    or shared (one linear pass over the trace, done once per trace).
//! 2. The replay proceeds in fixed-length **epochs**. For each epoch the
//!    plan extracts one *run* per client: the client's longest prefix of
//!    statically-exclusive references in the epoch.
//! 3. **Parallel phase** — worker threads (clients are dealt to shards
//!    round-robin) advance each client's `uniLRUstack` through the
//!    longest prefix of its run that hits the private cache
//!    ([`advance_client_run`]), stopping at the first reference that
//!    would need the server. Only client-local state moves.
//! 4. **Commit phase** — the main thread walks the epoch's global trace
//!    order once ([`commit_epoch`]). Positions the workers consumed are
//!    committed as private hits (delivering any eviction notices queued
//!    for that client at exactly that position, preserving the message
//!    plane's accounting); every other position runs the full serial
//!    protocol step. Server-side work therefore happens in the exact
//!    global-trace order the serial driver would use.
//!
//! ## Why this is bit-identical
//!
//! A consumed access touches a block that is (a) statically exclusive to
//! its client and (b) resident in the client's private cache. By the
//! exclusive-caching invariant the block is not cached at the server, so
//! the serial protocol step for it is *server-silent*: no directive is
//! sent, no `gLRU` state changes, and the stack access is a pure L1
//! touch. The only reordering the scheme introduces is that a client's
//! pending eviction-notice deliveries may land *after* (instead of
//! between) its consumed touches — and notice deliveries only evict
//! *server-level* entries from the status table while a consumed touch
//! only reorders *private-level* entries, so the two operations commute
//! on the `uniLRUstack` and neither consumes recency stamps out of
//! order. The differential suite (`tests/parallel_replay.rs`) asserts
//! the resulting [`SimStats`] are bit-identical to the serial driver at
//! 1, 2 and 8 shards; `scripts/tier1.sh` gates on a seeded 2-shard run
//! of the same oracle.
//!
//! Faulty planes can crash levels, lose requests and set status tables
//! dirty — none of which commutes. [`simulate_sharded`] therefore falls
//! back to the serial driver whenever [`MessagePlane::lossy`] reports
//! the plane can misbehave, so fault-injection runs stay exact. It also
//! falls back when the policy has a recorder attached: a recorder's
//! tick advances once per access in trace order, so an observed run is
//! replayed by the one driver that issues accesses in that order.

use crate::scratch::AccessScratch;
use crate::stack::{Placement, UniLruStack};
use crate::UlcMulti;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use ulc_hierarchy::plane::MessagePlane;
use ulc_hierarchy::{simulate, AccessOutcome, MultiLevelPolicy, SimStats, PREFETCH_DISTANCE};
use ulc_obs::Observe;
use ulc_trace::epoch::{EpochRuns, ReplayPlan, DEFAULT_EPOCH_LEN};
use ulc_trace::{BlockId, Trace};

/// Per-client state lent to a worker thread for the parallel phase of an
/// epoch.
struct Cell {
    /// The client's real `uniLRUstack` during the parallel phase; a
    /// throwaway placeholder the rest of the time (the real stack is
    /// swapped in and out around the phase).
    stack: UniLruStack,
    scratch: AccessScratch,
    /// The client's run for the current epoch.
    run: Vec<BlockId>,
    /// How many leading references of `run` the worker consumed.
    done: usize,
}

/// State shared between the main thread and the persistent workers.
struct Shared {
    cells: Vec<Mutex<Cell>>,
    /// Two waits per epoch: one releases the workers into the parallel
    /// phase, one ends it. All parties (shards + the main thread) meet.
    barrier: Barrier,
    exit: AtomicBool,
    shards: usize,
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        shared.barrier.wait();
        if shared.exit.load(Ordering::Acquire) {
            return;
        }
        for (c, cell) in shared.cells.iter().enumerate() {
            if c % shared.shards == me {
                let mut cell = cell.lock().expect("replay cell poisoned");
                advance_client_run(&mut cell);
            }
        }
        shared.barrier.wait();
    }
}

/// Advances one client's `uniLRUstack` through the longest prefix of its
/// epoch run that hits the private cache.
///
/// Stops at the first reference not resident at level 0: from there on
/// the access needs the shared server, so it is left for the serial
/// commit walk.
fn advance_client_run(cell: &mut Cell) {
    cell.done = 0;
    for i in 0..cell.run.len() {
        let block = cell.run[i];
        if cell.stack.cached_level(block) != Some(0) {
            break;
        }
        let res = cell.stack.access_into(block, &mut cell.scratch);
        debug_assert_eq!(
            res.placed,
            Placement::Level(0),
            "a resident private block must stay resident on a touch"
        );
        cell.done += 1;
    }
}

/// Commits one epoch in global-trace order: positions the workers
/// consumed become pooled private-hit outcomes (plus any eviction-notice
/// deliveries due at that position); every other position runs the full
/// serial protocol step, with the driver's prefetch pipeline ahead of
/// the cursor.
#[expect(
    clippy::too_many_arguments,
    reason = "epoch bounds, worker cursors, pooled outcomes and stats are separate borrows held at once"
)]
fn commit_epoch<P: MessagePlane>(
    policy: &mut UlcMulti<P>,
    trace: &Trace,
    start: usize,
    end: usize,
    warmup: usize,
    done: &[usize],
    seen: &mut [usize],
    full_out: &mut AccessOutcome,
    hit_out: &mut AccessOutcome,
    stats: &mut SimStats,
) {
    let records = trace.records();
    for idx in start..end {
        let r = &records[idx];
        let c = r.client.as_usize();
        if seen[c] < done[c] {
            // Consumed by the parallel phase. The stack touch already
            // happened; what remains is the serial step's plane-visible
            // residue: eviction notices ride the response of the
            // client's next exchange, so any queued for this client
            // land here, at exactly the position the serial driver
            // would deliver them.
            seen[c] += 1;
            policy.deliver_notices(c);
            if idx >= warmup {
                stats.record(hit_out);
            }
        } else {
            if let Some(ahead) = records.get(idx + PREFETCH_DISTANCE) {
                policy.prefetch(ahead.client, ahead.block);
            }
            policy.access_into(r.client, r.block, full_out);
            if idx >= warmup {
                stats.record(full_out);
            }
        }
    }
}

/// The bulk-synchronous sharded replay executor.
///
/// Holds the trace's [`ReplayPlan`], the pooled epoch buffers and a set
/// of persistent worker threads parked on a barrier, so consecutive
/// [`ShardedReplayer::replay_range`] calls reuse everything and the
/// steady-state epoch loop performs no heap allocation once capacities
/// settle (the §5f discipline). Workers shut down when the replayer is
/// dropped.
///
/// # Examples
///
/// ```
/// use ulc_core::parallel::simulate_sharded;
/// use ulc_core::{UlcMulti, UlcMultiConfig};
/// use ulc_hierarchy::simulate;
/// use ulc_trace::multi::interleave;
/// use ulc_trace::patterns::{LoopingPattern, Pattern};
///
/// let patterns: Vec<Box<dyn Pattern>> = vec![
///     Box::new(LoopingPattern::new(200)),
///     Box::new(LoopingPattern::new(200).with_base(10_000)),
/// ];
/// let trace = interleave(patterns, None, 12_000, 7);
/// let mut serial = UlcMulti::new(UlcMultiConfig::uniform(2, 64, 256));
/// let mut sharded = UlcMulti::new(UlcMultiConfig::uniform(2, 64, 256));
/// let expect = simulate(&mut serial, &trace, trace.warmup_len());
/// let got = simulate_sharded(&mut sharded, &trace, trace.warmup_len(), 2);
/// assert_eq!(expect, got);
/// ```
pub struct ShardedReplayer {
    plan: ReplayPlan,
    runs: EpochRuns,
    epoch_len: usize,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    seen: Vec<usize>,
    done: Vec<usize>,
    full_out: AccessOutcome,
    hit_out: AccessOutcome,
}

impl std::fmt::Debug for ShardedReplayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedReplayer")
            .field("shards", &self.shared.shards)
            .field("epoch_len", &self.epoch_len)
            .field("clients", &self.shared.cells.len())
            .field("exclusive_fraction", &self.plan.exclusive_fraction())
            .finish()
    }
}

impl ShardedReplayer {
    /// Builds the replay plan for `trace` and spawns `shards` persistent
    /// worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(trace: &Trace, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        let plan = ReplayPlan::build(trace);
        let n = plan.num_clients() as usize;
        let cells = (0..n)
            .map(|_| {
                Mutex::new(Cell {
                    stack: UniLruStack::new(vec![1, 1]),
                    scratch: AccessScratch::new(),
                    run: Vec::new(),
                    done: 0,
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            cells,
            barrier: Barrier::new(shards + 1),
            exit: AtomicBool::new(false),
            shards,
        });
        let workers = (0..shards)
            .map(|me| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh, me))
            })
            .collect();
        let mut replayer = ShardedReplayer {
            plan,
            runs: EpochRuns::new(n),
            epoch_len: DEFAULT_EPOCH_LEN,
            shared,
            workers,
            seen: vec![0; n],
            done: vec![0; n],
            full_out: AccessOutcome::miss(1),
            hit_out: AccessOutcome::hit(0, 1),
        };
        replayer.reserve_run_buffers();
        replayer
    }

    /// Reserves every run buffer (both the fill-side set and the set
    /// currently resident in the cells — epoch swaps alternate them) to
    /// the epoch length, the longest run one epoch can produce. A late
    /// epoch dominated by one client can otherwise grow a buffer
    /// mid-measurement, which the §5f steady-phase gate forbids.
    fn reserve_run_buffers(&mut self) {
        for c in 0..self.shared.cells.len() {
            self.runs.run_mut(c).reserve(self.epoch_len);
            let mut cell = self.shared.cells[c].lock().expect("replay cell poisoned");
            cell.run.reserve(self.epoch_len);
        }
    }

    /// Overrides the epoch length (mainly for tests: short epochs stress
    /// the barrier and run-boundary logic). Epoch boundaries are
    /// semantics-free, so any positive length yields identical results.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn with_epoch_len(mut self, len: usize) -> Self {
        assert!(len > 0, "epoch length must be positive");
        self.epoch_len = len;
        self.reserve_run_buffers();
        self
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shared.shards
    }

    /// Fraction of trace references the plan classified statically
    /// exclusive — the upper bound on the parallelisable share.
    pub fn exclusive_fraction(&self) -> f64 {
        self.plan.exclusive_fraction()
    }

    /// Replays all of `trace` through `policy`, warming with the first
    /// `warmup` references. Equivalent to [`ulc_hierarchy::simulate`],
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `warmup` exceeds the trace length, if the plan was
    /// built from a different trace, if the policy has fewer clients
    /// than the trace references, or if it has a recorder attached.
    pub fn replay<P: MessagePlane>(
        &mut self,
        policy: &mut UlcMulti<P>,
        trace: &Trace,
        warmup: usize,
    ) -> SimStats {
        assert!(warmup <= trace.len(), "warm-up longer than the trace");
        let mut stats = SimStats::new(policy.num_levels());
        self.replay_range(policy, trace, 0, trace.len(), warmup, &mut stats);
        stats.faults = policy.fault_summary();
        stats
    }

    /// Replays the half-open trace range `[start, end)`, folding
    /// measured outcomes (positions `>= warmup`) into `stats`. Epoch
    /// boundaries are semantics-free, so consecutive ranges compose to
    /// exactly one full replay — the alloc gate uses this to split a run
    /// into a warm phase and an allocation-gated steady phase.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid for the trace, if the plan does not
    /// match the trace, or if the policy has a recorder attached: workers
    /// consume accesses out of trace order, which a recorder's tick
    /// cannot follow ([`simulate_sharded`] replays such a run serially).
    pub fn replay_range<P: MessagePlane>(
        &mut self,
        policy: &mut UlcMulti<P>,
        trace: &Trace,
        start: usize,
        end: usize,
        warmup: usize,
        stats: &mut SimStats,
    ) {
        assert!(start <= end && end <= trace.len(), "range out of bounds");
        assert_eq!(
            self.plan.len(),
            trace.len(),
            "replay plan was built from a different trace"
        );
        assert!(
            policy.num_clients() >= self.shared.cells.len(),
            "policy has fewer clients than the trace references"
        );
        assert!(!policy.obs().is_enabled(), "sharded replay cannot record");
        let mut s = start;
        while s < end {
            let e = (s + self.epoch_len).min(end);
            self.run_epoch(policy, trace, s, e, warmup, stats);
            s = e;
        }
    }

    fn run_epoch<P: MessagePlane>(
        &mut self,
        policy: &mut UlcMulti<P>,
        trace: &Trace,
        start: usize,
        end: usize,
        warmup: usize,
        stats: &mut SimStats,
    ) {
        self.plan.fill_runs(trace, start, end, &mut self.runs);
        let shared = Arc::clone(&self.shared);
        // Lend each client's stack (and its run) to the worker cells.
        for (c, cell) in shared.cells.iter().enumerate() {
            let mut cell = cell.lock().expect("replay cell poisoned");
            std::mem::swap(&mut cell.stack, policy.client_stack_mut(c));
            std::mem::swap(&mut cell.run, self.runs.run_mut(c));
            cell.done = 0;
        }
        shared.barrier.wait(); // release the workers
        shared.barrier.wait(); // parallel phase over
        for (c, cell) in shared.cells.iter().enumerate() {
            let mut cell = cell.lock().expect("replay cell poisoned");
            std::mem::swap(&mut cell.stack, policy.client_stack_mut(c));
            std::mem::swap(&mut cell.run, self.runs.run_mut(c));
            self.done[c] = cell.done;
            self.seen[c] = 0;
        }
        commit_epoch(
            policy,
            trace,
            start,
            end,
            warmup,
            &self.done,
            &mut self.seen,
            &mut self.full_out,
            &mut self.hit_out,
            stats,
        );
    }
}

impl Drop for ShardedReplayer {
    fn drop(&mut self) {
        self.shared.exit.store(true, Ordering::Release);
        self.shared.barrier.wait();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Replays `trace` through `policy` with `shards` worker threads,
/// bit-identical to [`ulc_hierarchy::simulate`].
///
/// Falls back to the serial driver when `shards <= 1`, when the
/// policy's message plane is lossy (faults do not commute with
/// reordered private hits; see the module docs), or when the policy has
/// a recorder attached (a recorder follows one access at a time, in
/// trace order).
///
/// # Panics
///
/// Panics if `warmup` exceeds the trace length or the policy has fewer
/// clients than the trace references.
pub fn simulate_sharded<P: MessagePlane>(
    policy: &mut UlcMulti<P>,
    trace: &Trace,
    warmup: usize,
    shards: usize,
) -> SimStats {
    if shards <= 1 || policy.plane().lossy() || policy.obs().is_enabled() {
        return simulate(policy, trace, warmup);
    }
    let mut replayer = ShardedReplayer::new(trace, shards);
    replayer.replay(policy, trace, warmup)
}
