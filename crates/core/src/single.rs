//! The single-client ULC protocol (§3.2.1).
//!
//! [`UlcSingle`] wraps the [`UniLruStack`] decision engine in the
//! [`MultiLevelPolicy`] interface, adds the client's `tempLRU` when the
//! ablation counts its hits (the small stack that briefly holds blocks
//! passing through the client on their way to the application when their
//! caching level is below `L₁`), and hands each access's demotion
//! counters to the caller's outcome by swapping buffers. The protocol
//! messages §3.2 defines are what [`ulc_hierarchy::SimStats`] counts: one
//! `Retrieve` per reference, from the level that hit or from disk (a
//! miss), and one `Demote` per transfer.

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
    /// Capacity of the client's `tempLRU` for pass-through blocks, whose
    /// re-reference then counts as a client-memory hit. The paper treats
    /// such blocks as immediately replaced (`None`, no `tempLRU` at all);
    /// `Some` is an ablation extension.
    pub temp_lru: Option<usize>,
}

impl UlcConfig {
    /// The standard configuration for the given level capacities.
    pub fn new(capacities: Vec<usize>) -> Self {
        UlcConfig {
            capacities,
            stack_limit: None,
            temp_lru: None,
        }
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
    /// The pass-through stack, present only when `UlcConfig::temp_lru`
    /// asks for it: the paper's blocks leave it unread (§3.2, footnote 3).
    temp_lru: Option<LruStack<BlockId>>,
    config: UlcConfig,
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
        UlcSingle {
            stack,
            temp_lru: config.temp_lru.map(|_| LruStack::new()),
            config,
            scratch: AccessScratch::new(),
            obs: ObsHandle::default(),
        }
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
        let (Some(temp_lru), Some(capacity)) = (self.temp_lru.as_mut(), self.config.temp_lru)
        else {
            return;
        };
        // A block not cached at the client passes through tempLRU so it
        // can be replaced from client memory quickly (§3.2, footnote 3).
        if placed != Placement::Level(0) {
            temp_lru.touch(block);
            while temp_lru.len() > capacity {
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
        self.obs.begin_access();
        // Ablation mode: a block still in the tempLRU is in client memory;
        // the stack still observes the reference for its history.
        let temp_hit = match self.temp_lru.as_mut() {
            Some(temp_lru) if temp_lru.contains(&block) => {
                temp_lru.touch(block);
                true
            }
            _ => false,
        };
        let res = self.stack.access_into(block, &mut self.scratch);
        let hit_level = if temp_hit { Some(0) } else { res.found.level() };
        match hit_level {
            Some(level) => self.obs.on_hit(level, block.raw()),
            None => self.obs.on_miss(block.raw()),
        }
        self.record_stack_effects(block, res.placed);
        if self.temp_lru.is_some() {
            self.note_temp_lru(block, res.placed);
        }
        out.hit_level = hit_level;
        // The counters change hands: the outcome's old buffer becomes the
        // scratch the next access resets.
        std::mem::swap(&mut out.demotions, &mut self.scratch.demotions);
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
        // A Retrieve's source is the level that hit, or disk on a miss.
        let t = synthetic::zipf_small(20_000);
        let mut ulc = UlcSingle::new(UlcConfig::new(vec![500, 500]));
        let stats = simulate(&mut ulc, &t, 0);
        let retrieves = stats.hits_by_level.iter().sum::<u64>() + stats.misses;
        assert_eq!(retrieves, 20_000, "one Retrieve per reference");
        assert_eq!(stats.hits_by_level.len(), 2); // L1, L2; disk is `misses`
        assert_eq!(stats.demotions_by_boundary.len(), 1);
    }

    #[test]
    fn temp_lru_stays_bounded() {
        let t = synthetic::random_small(5_000);
        let mut config = UlcConfig::new(vec![50, 50]);
        config.temp_lru = Some(8);
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
        config.temp_lru = Some(16);
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
