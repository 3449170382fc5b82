//! The single-client ULC protocol (§3.2.1).
//!
//! [`UlcSingle`] wraps the [`UniLruStack`] decision engine in the
//! [`MultiLevelPolicy`] interface, adds the client's `tempLRU` when the
//! ablation counts its hits (the small stack that briefly holds blocks
//! passing through the client on their way to the application when their
//! caching level is below `L₁`), and counts the protocol messages
//! (`Retrieve`, `Demote`) that §3.2 defines.

use crate::scratch::AccessScratch;
use crate::stack::{Placement, UniLruStack};
use ulc_cache::LruStack;
use ulc_hierarchy::{AccessOutcome, MultiLevelPolicy};
use ulc_obs::{ObsHandle, Observe};
use ulc_trace::{BlockId, ClientId};

/// Configuration for the single-client ULC protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UlcConfig {
    /// Cache capacity (in blocks) of each level, top-down.
    pub capacities: Vec<usize>,
    /// Bound on `uniLRUstack` metadata entries (`None` = bounded only by
    /// the last yardstick, §3.2).
    pub stack_limit: Option<usize>,
    /// Capacity of the client's `tempLRU` for pass-through blocks (used
    /// only when `count_temp_lru_hits` is set).
    pub temp_lru_capacity: usize,
    /// Count a reference that finds its block still sitting in `tempLRU`
    /// as a client-memory hit. The paper treats such blocks as immediately
    /// replaced (`false`); enabling this is an ablation extension, and the
    /// only configuration that builds a `tempLRU` at all.
    pub count_temp_lru_hits: bool,
}

impl UlcConfig {
    /// The standard configuration for the given level capacities.
    pub fn new(capacities: Vec<usize>) -> Self {
        UlcConfig {
            capacities,
            stack_limit: None,
            temp_lru_capacity: 16,
            count_temp_lru_hits: false,
        }
    }
}

/// Counts of the two ULC request types (§3.2.1), for overhead reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// `Retrieve(b, i, j)` requests, indexed by the level `i` the block
    /// was retrieved from (last slot = disk).
    pub retrieves_by_source: Vec<u64>,
    /// `Demote(b, i, i+1)` instructions per boundary.
    pub demotes_by_boundary: Vec<u64>,
}

impl MessageStats {
    fn new(levels: usize) -> Self {
        MessageStats {
            retrieves_by_source: vec![0; levels + 1],
            demotes_by_boundary: vec![0; levels - 1],
        }
    }

    /// Total messages sent.
    pub fn total(&self) -> u64 {
        self.retrieves_by_source.iter().sum::<u64>() + self.demotes_by_boundary.iter().sum::<u64>()
    }
}

/// The single-client ULC protocol.
///
/// # Examples
///
/// ```
/// use ulc_core::{UlcConfig, UlcSingle};
/// use ulc_hierarchy::{simulate, CostModel};
/// use ulc_trace::synthetic;
///
/// let trace = synthetic::tpcc1(100_000);
/// let mut ulc = UlcSingle::new(UlcConfig::new(vec![6_400, 6_400, 6_400]));
/// let stats = simulate(&mut ulc, &trace, trace.warmup_len());
/// // The dominant loop splits across L1 and L2 with almost no demotions.
/// assert!(stats.hit_rates()[0] > 0.3);
/// assert!(stats.demotion_rates()[0] < 0.1);
/// ```
#[derive(Debug)]
pub struct UlcSingle {
    stack: UniLruStack,
    /// The pass-through stack, present only when `count_temp_lru_hits`
    /// reads it: the paper's blocks leave it unread (§3.2, footnote 3).
    temp_lru: Option<LruStack<BlockId>>,
    config: UlcConfig,
    messages: MessageStats,
    /// Reusable per-access buffers; once their high-water marks settle the
    /// steady-state access path performs no heap allocation (DESIGN.md §5f).
    scratch: AccessScratch,
    /// Observability hooks (no-op unless the `obs` feature is on and a
    /// recorder has been attached; DESIGN.md §5h).
    obs: ObsHandle,
}

impl UlcSingle {
    /// Creates the protocol for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no levels or a zero capacity.
    pub fn new(config: UlcConfig) -> Self {
        let mut stack = UniLruStack::new(config.capacities.clone());
        stack.set_stack_limit(config.stack_limit);
        let levels = config.capacities.len();
        UlcSingle {
            stack,
            temp_lru: config.count_temp_lru_hits.then(LruStack::new),
            config,
            messages: MessageStats::new(levels),
            scratch: AccessScratch::new(),
            obs: ObsHandle::default(),
        }
    }

    /// Protocol message counters.
    pub fn messages(&self) -> &MessageStats {
        &self.messages
    }

    /// The underlying `uniLRUstack` (read access for inspection).
    pub fn stack(&self) -> &UniLruStack {
        &self.stack
    }

    /// Validates all structural invariants; for tests.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        self.stack.check_invariants();
    }

    /// Records the stack's side effects for this access as events:
    /// one `Demote` per boundary each demoted block crossed (matching
    /// the `demotions` transfer counters exactly), one `Evict` per block
    /// that fell out of the bottom level, and the `Retrieve` placing the
    /// accessed block (destination `num_levels` = settled uncached).
    fn record_stack_effects(&mut self, block: BlockId, placed: Placement) {
        for &(b, from, to) in &self.scratch.demoted {
            for m in from..to {
                self.obs.on_demote(m, b.raw());
            }
        }
        let bottom = self.stack.num_levels() - 1;
        for &b in &self.scratch.evicted {
            self.obs.on_evict(bottom, b.raw());
        }
        let dest = match placed {
            Placement::Level(i) => i,
            Placement::Uncached => self.stack.num_levels(),
        };
        self.obs.on_retrieve(dest, block.raw());
    }

    fn note_temp_lru(&mut self, block: BlockId, placed: Placement) {
        let Some(temp_lru) = self.temp_lru.as_mut() else {
            return;
        };
        // A block not cached at the client passes through tempLRU so it
        // can be replaced from client memory quickly (§3.2, footnote 3).
        if placed != Placement::Level(0) {
            temp_lru.touch(block);
            while temp_lru.len() > self.config.temp_lru_capacity {
                temp_lru.pop_bottom();
            }
        } else {
            temp_lru.remove(&block);
        }
    }
}

impl MultiLevelPolicy for UlcSingle {
    fn access_into(&mut self, client: ClientId, block: BlockId, out: &mut AccessOutcome) {
        assert_eq!(
            client,
            ClientId::SINGLE,
            "single-client protocol serves exactly one client"
        );
        out.reset(self.stack.num_levels() - 1);
        self.obs.begin_access();
        if let Some(temp_lru) = self.temp_lru.as_mut().filter(|t| t.contains(&block)) {
            // Ablation mode: the block is still in client memory.
            temp_lru.touch(block);
            // The stack still observes the reference for its history.
            let res = self.stack.access_into(block, &mut self.scratch);
            out.hit_level = Some(0);
            out.demotions
                .copy_from_slice(self.scratch.demotions.as_slice());
            self.obs.on_hit(0, block.raw());
            self.record_stack_effects(block, res.placed);
            self.note_temp_lru(block, res.placed);
            return;
        }
        let res = self.stack.access_into(block, &mut self.scratch);
        let source = match res.found {
            Placement::Level(i) => i,
            Placement::Uncached => self.stack.num_levels(), // disk
        };
        self.messages.retrieves_by_source[source] += 1;
        for (b, &d) in self.scratch.demotions.iter().enumerate() {
            self.messages.demotes_by_boundary[b] += d as u64;
        }
        match res.found.level() {
            Some(level) => self.obs.on_hit(level, block.raw()),
            None => self.obs.on_miss(block.raw()),
        }
        self.record_stack_effects(block, res.placed);
        self.note_temp_lru(block, res.placed);
        out.hit_level = res.found.level();
        out.demotions
            .copy_from_slice(self.scratch.demotions.as_slice());
    }

    #[inline]
    fn prefetch(&self, _client: ClientId, block: BlockId) {
        // Semantics-free: pulls the uniLRUstack's block-table row for a
        // soon-to-arrive reference toward the CPU cache (DESIGN.md §5i).
        self.stack.prefetch(block);
    }

    fn num_levels(&self) -> usize {
        self.stack.num_levels()
    }

    fn name(&self) -> &'static str {
        "ULC"
    }
}

impl Observe for UlcSingle {
    fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    fn obs_mut(&mut self) -> &mut ObsHandle {
        &mut self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulc_hierarchy::{simulate, CostModel, UniLru};
    use ulc_trace::synthetic;

    fn run(config: UlcConfig, trace: &ulc_trace::Trace) -> ulc_hierarchy::SimStats {
        let mut ulc = UlcSingle::new(config);
        let stats = simulate(&mut ulc, trace, trace.warmup_len());
        ulc.check_invariants();
        stats
    }

    #[test]
    fn loop_splits_across_levels_with_low_demotions() {
        // The §4.3 tpcc1 shape: under ULC the loop's hits split between
        // L1 and L2 (roughly by capacity) with demotion rates near zero,
        // whereas uniLRU serves everything from L2 with a 100% demotion
        // rate.
        let t = synthetic::cs(60_000); // 2500-block loop
        let caps = vec![1250usize, 1250, 1250];
        let su = run(UlcConfig::new(caps.clone()), &t);
        assert!(su.hit_rates()[0] > 0.45, "h1 = {:?}", su.hit_rates());
        assert!(su.hit_rates()[1] > 0.45, "h2 = {:?}", su.hit_rates());
        assert!(su.demotion_rates()[0] < 0.01);

        let mut uni = UniLru::single_client(caps);
        let sl = simulate(&mut uni, &t, t.warmup_len());
        assert!(sl.hit_rates()[0] < 0.01);
        assert!(sl.demotion_rates()[0] > 0.99);
        // Same total hit rate, radically different placement and traffic.
        let costs = CostModel::paper_three_level();
        assert!(su.average_access_time(&costs) < sl.average_access_time(&costs));
    }

    #[test]
    fn matches_aggregate_hit_rate_of_unified_lru_on_random() {
        // Goal (1) of the paper: the multi-level cache retains the hit
        // rate of a single cache of aggregate size. On the random trace
        // every policy's hit rate is proportional to the aggregate size.
        let t = synthetic::random_small(120_000);
        let stats = run(UlcConfig::new(vec![1000, 1000, 1000]), &t);
        let expect = 3000.0 / synthetic::RANDOM_SMALL_BLOCKS as f64;
        assert!(
            (stats.total_hit_rate() - expect).abs() < 0.05,
            "aggregate hit rate {:.3} vs {expect:.3}",
            stats.total_hit_rate()
        );
    }

    #[test]
    fn lru_friendly_trace_keeps_hot_blocks_at_l1() {
        let t = synthetic::sprite(60_000);
        let stats = run(UlcConfig::new(vec![300, 300, 300]), &t);
        let h = stats.hit_rates();
        assert!(h[0] > h[1], "h = {h:?}");
        assert!(h[1] > h[2], "h = {h:?}");
        assert!(
            stats.total_hit_rate() > 0.7,
            "total = {}",
            stats.total_hit_rate()
        );
    }

    #[test]
    fn demotion_rates_far_below_uni_lru_on_every_pattern() {
        for (name, t) in synthetic::small_suite(40_000) {
            let caps = vec![400usize, 400, 400];
            let su = run(UlcConfig::new(caps.clone()), &t);
            let mut uni = UniLru::single_client(caps);
            let sl = simulate(&mut uni, &t, t.warmup_len());
            let ulc_d: f64 = su.demotion_rates().iter().sum();
            let uni_d: f64 = sl.demotion_rates().iter().sum();
            assert!(
                ulc_d <= uni_d + 1e-9,
                "{name}: ULC demotions {ulc_d:.3} vs uniLRU {uni_d:.3}"
            );
        }
    }

    #[test]
    fn message_counts_cover_every_reference() {
        let t = synthetic::zipf_small(20_000);
        let mut ulc = UlcSingle::new(UlcConfig::new(vec![500, 500]));
        let _ = simulate(&mut ulc, &t, 0);
        let m = ulc.messages();
        let retrieves: u64 = m.retrieves_by_source.iter().sum();
        assert_eq!(retrieves, 20_000, "one Retrieve per reference");
        assert_eq!(m.retrieves_by_source.len(), 3); // L1, L2, disk
    }

    #[test]
    fn temp_lru_stays_bounded() {
        let t = synthetic::random_small(5_000);
        let mut config = UlcConfig::new(vec![50, 50]);
        config.temp_lru_capacity = 8;
        config.count_temp_lru_hits = true;
        let mut ulc = UlcSingle::new(config);
        let _ = simulate(&mut ulc, &t, 0);
        let temp_lru = ulc
            .temp_lru
            .as_ref()
            .expect("the ablation builds a tempLRU");
        assert!(!temp_lru.is_empty() && temp_lru.len() <= 8);
    }

    #[test]
    fn temp_lru_hit_ablation_counts_client_hits() {
        let mut config = UlcConfig::new(vec![1, 1]);
        config.count_temp_lru_hits = true;
        let mut ulc = UlcSingle::new(config);
        let b = BlockId::new(9);
        let c = ClientId::SINGLE;
        ulc.access(c, BlockId::new(0)); // L1
        ulc.access(c, BlockId::new(1)); // L2
        ulc.access(c, b); // miss, uncached → tempLRU
        let out = ulc.access(c, b);
        assert_eq!(out.hit_level, Some(0), "tempLRU hit counts as client hit");
    }

    #[test]
    #[should_panic(expected = "one client")]
    fn multi_client_access_rejected() {
        let mut ulc = UlcSingle::new(UlcConfig::new(vec![4]));
        let _ = ulc.access(ClientId::new(1), BlockId::new(0));
    }
}
