//! Unified LRU (`uniLRU`) — the Wong & Wilkes DEMOTE scheme [12].
//!
//! The hierarchy behaves as one long LRU stack: the client cache is the
//! first portion, each lower cache the next. Caching is *exclusive*: a
//! block promoted to the client leaves the lower level, and every block
//! evicted from level `i` is **demoted** — physically transferred — into
//! level `i+1`'s MRU position. This recovers the aggregate-size hit rate
//! but, as §4.3 shows, at the price of a demotion accompanying nearly
//! every reference on loop-heavy workloads.
//!
//! For the multi-client structure Wong & Wilkes supplement the basic
//! scheme with adaptive insertion policies; [`UniLruVariant`] provides the
//! basic MRU insertion, the LRU-insertion variant (demotions into a full
//! server are dropped instead of transferred) and a per-client adaptive
//! switch between them driven by observed demotion utility. The Figure 7
//! harness runs every variant and reports the best, as the paper does.
//!
//! ## Message plane
//!
//! All inter-level traffic crosses a [`MessagePlane`]: each demotion is a
//! [`Message::Demote`] on the boundary link it crosses (link `j` joins
//! level `j` to level `j+1`), applied when the plane delivers it, and
//! each probe of a lower level is a demand-read RPC on that boundary.
//! Under the default [`ReliablePlane`] everything is delivered in order
//! within the access that produced it, which reproduces the historical
//! in-line behaviour bit for bit (`tests/plane_differential.rs`). Under a
//! lossy [`crate::FaultyPlane`] demotes can arrive late, twice or never;
//! the receiver tolerates redundant demotes naturally (re-insertion is a
//! refresh), drops late demotes that would break exclusivity, and
//! [`UniLru::reconcile`] repairs any residual duplicate residency.

// No wildcard arm over an enum: every match names each variant, so a new
// `Message` or `RpcFate` variant fails to compile until this module
// decides what to do with it.
#![warn(clippy::wildcard_enum_match_arm)]

use crate::plane::{DeliveryBatch, Direction, Message, MessagePlane, ReliablePlane, RpcFate};
use crate::stats::FaultSummary;
use crate::{AccessOutcome, MultiLevelPolicy};
use ulc_cache::{LruCache, NodeHandle};
use ulc_obs::{ObsHandle, Observe};
use ulc_trace::{BlockId, BlockMap, ClientId};

/// One cache level: an LRU whose nodes are found through a block table
/// (DESIGN.md §5e).
fn new_level(capacity: usize) -> LruCache<BlockId, BlockMap<NodeHandle>> {
    LruCache::with_locator(capacity, BlockMap::new())
}

/// Server insertion policy for demoted blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UniLruVariant {
    /// Demoted blocks enter the next level at its MRU end — the basic
    /// DEMOTE scheme.
    MruInsert,
    /// Demoted blocks enter at the LRU end. Into a full cache this is a
    /// no-op, so the demotion transfer is skipped entirely — useful when a
    /// client's demoted blocks are never re-read from the server.
    LruInsert,
    /// Per-client adaptive choice between the two, re-evaluated every
    /// epoch from the server-hit utility of that client's demotions
    /// (our rendering of Wong & Wilkes' adaptive cache insertion).
    Adaptive,
}

/// Per-client adaptive state.
#[derive(Clone, Debug, Default)]
struct AdaptiveState {
    demotions: u64,
    demoted_hits: u64,
    mru_mode: bool,
    accesses: u64,
}

/// The unified LRU protocol, generic over the transport its demotion and
/// retrieval traffic crosses (default: the perfect [`ReliablePlane`]).
#[derive(Clone, Debug)]
pub struct UniLru<P: MessagePlane = ReliablePlane> {
    clients: Vec<LruCache<BlockId, BlockMap<NodeHandle>>>,
    shared: Vec<LruCache<BlockId, BlockMap<NodeHandle>>>,
    variant: UniLruVariant,
    /// Which client last demoted each block resident in `shared[0]`
    /// (adaptive bookkeeping).
    demoted_by: BlockMap<u32>,
    adaptive: Vec<AdaptiveState>,
    epoch_len: u64,
    plane: P,
    /// Protocol-side recovery counters (the plane keeps the transport
    /// counters itself).
    recovery: FaultSummary,
    /// Pooled delivery and crash buffers, recycled across accesses so the
    /// steady-state pump performs no heap allocation (DESIGN.md §5f).
    batch: DeliveryBatch,
    crash_buf: Vec<usize>,
    /// Observability hooks (no-op unless the `obs` feature is on and a
    /// recorder has been attached; DESIGN.md §5h).
    obs: ObsHandle,
    #[cfg(feature = "debug_invariants")]
    tick: u64,
}

impl UniLru {
    /// A single-client hierarchy with basic MRU insertion:
    /// `capacities[0]` is the client cache, the rest the lower levels.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or any capacity is zero.
    pub fn single_client(capacities: Vec<usize>) -> Self {
        assert!(!capacities.is_empty(), "at least one level is required");
        UniLru::multi_client(
            vec![capacities[0]],
            capacities[1..].to_vec(),
            UniLruVariant::MruInsert,
        )
    }

    /// A multi-client hierarchy under `variant`.
    ///
    /// # Panics
    ///
    /// Panics if `client_capacities` is empty or any capacity is zero.
    pub fn multi_client(
        client_capacities: Vec<usize>,
        shared_capacities: Vec<usize>,
        variant: UniLruVariant,
    ) -> Self {
        assert!(
            !client_capacities.is_empty(),
            "at least one client is required"
        );
        let n = client_capacities.len();
        UniLru {
            clients: client_capacities.into_iter().map(new_level).collect(),
            shared: shared_capacities.into_iter().map(new_level).collect(),
            variant,
            demoted_by: BlockMap::new(),
            adaptive: vec![
                AdaptiveState {
                    mru_mode: true,
                    ..AdaptiveState::default()
                };
                n
            ],
            epoch_len: 5_000,
            plane: ReliablePlane::new(),
            recovery: FaultSummary::default(),
            batch: DeliveryBatch::new(),
            crash_buf: Vec::new(),
            obs: ObsHandle::default(),
            #[cfg(feature = "debug_invariants")]
            tick: 0,
        }
    }
}

impl<P: MessagePlane> UniLru<P> {
    /// Moves the hierarchy onto a different message plane (used to swap
    /// in a [`crate::FaultyPlane`] before a run starts).
    pub fn with_plane<Q: MessagePlane>(self, plane: Q) -> UniLru<Q> {
        UniLru {
            clients: self.clients,
            shared: self.shared,
            variant: self.variant,
            demoted_by: self.demoted_by,
            adaptive: self.adaptive,
            epoch_len: self.epoch_len,
            plane,
            recovery: self.recovery,
            batch: self.batch,
            crash_buf: self.crash_buf,
            obs: self.obs,
            #[cfg(feature = "debug_invariants")]
            tick: self.tick,
        }
    }

    /// The message plane the hierarchy runs on.
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// Deep structural validation of the DEMOTE hierarchy: per-level
    /// capacity bounds, single-residency across the shared levels (a
    /// block is demoted *into* exactly one place), full exclusivity for
    /// single-client hierarchies (a promoted block has left every lower
    /// level), and adaptive bookkeeping that tracks exactly the blocks
    /// resident in the first shared level.
    ///
    /// Two *different* clients may both privately cache a block — each
    /// read it through its own miss path — so cross-client exclusivity is
    /// intentionally not asserted.
    ///
    /// On a lossy plane these guarantees only hold once traffic has
    /// settled and [`UniLru::reconcile`] has run; mid-run, use
    /// [`UniLru::check_recoverable_invariants`].
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        self.check_recoverable_invariants();
        for (i, s) in self.shared.iter().enumerate() {
            for b in s.iter() {
                for (j, deeper) in self.shared.iter().enumerate().skip(i + 1) {
                    assert!(
                        !deeper.contains(b),
                        "{b:?} resident in shared levels {i} and {j}"
                    );
                }
                if self.clients.len() == 1 {
                    assert!(
                        !self.clients[0].contains(b),
                        "exclusive caching: {b:?} at the client and in shared level {i}"
                    );
                }
            }
        }
        for (b, &owner) in self.demoted_by.iter() {
            assert!(
                (owner as usize) < self.clients.len(),
                "demoted_by owner {owner} out of range"
            );
            assert!(
                self.shared.first().is_some_and(|s| s.contains(&b)),
                "demoted_by tracks {b:?} which is not in the first shared level"
            );
        }
    }

    /// The invariants that hold at *every* instant even under message
    /// loss, duplication, reordering and crashes: per-level capacity
    /// bounds and in-range adaptive bookkeeping. The chaos suite asserts
    /// these mid-run; the full [`UniLru::check_invariants`] set is only
    /// guaranteed after [`UniLru::settle`] + [`UniLru::reconcile`].
    ///
    /// # Panics
    ///
    /// Panics if a recoverable invariant is violated.
    pub fn check_recoverable_invariants(&self) {
        for (i, c) in self.clients.iter().enumerate() {
            assert!(c.len() <= c.capacity(), "client {i} over capacity");
        }
        for (i, s) in self.shared.iter().enumerate() {
            assert!(s.len() <= s.capacity(), "shared level {i} over capacity");
        }
    }

    /// Amortised feature-gated self-check; see DESIGN.md §5c/§5d.
    #[cfg(feature = "debug_invariants")]
    fn debug_validate(&mut self) {
        self.tick += 1;
        let total: usize = self.shared.iter().map(|s| s.len()).sum();
        if total < 64 || self.tick.is_multiple_of(256) {
            if self.plane.lossy() {
                self.check_recoverable_invariants();
            } else {
                self.check_invariants();
            }
        }
    }

    /// The active variant.
    pub fn variant(&self) -> UniLruVariant {
        self.variant
    }

    /// Whether client `c` currently inserts demoted blocks at the MRU end.
    fn mru_mode(&self, c: usize) -> bool {
        match self.variant {
            UniLruVariant::MruInsert => true,
            UniLruVariant::LruInsert => false,
            UniLruVariant::Adaptive => self.adaptive[c].mru_mode,
        }
    }

    /// Applies one demote arriving at boundary `j` (into `shared[j]`).
    ///
    /// Redundant demotes — the block already resides at the level, from a
    /// duplicated message or a stale retry — degrade to a recency refresh
    /// inside the insert, exactly like the in-line scheme handled a
    /// cross-client re-demotion. A *late* demote whose block has since
    /// been promoted back into a sole client would break exclusivity; it
    /// is detected, dropped and counted as a repaired violation.
    fn apply_demote(
        &mut self,
        j: usize,
        block: BlockId,
        mru: bool,
        owner: u32,
        demotions: &mut [u32],
    ) {
        if self.clients.len() == 1 && self.clients[0].contains(&block) {
            self.recovery.residency_violations_detected += 1;
            self.recovery.residency_violations_repaired += 1;
            self.obs.on_fault(j + 1, block.raw());
            return;
        }
        let incoming = if j == 0 {
            if mru {
                demotions[0] += 1;
                self.obs.on_demote(0, block.raw());
                self.demoted_by.insert(block, owner);
                self.shared[0].insert_mru(block)
            } else {
                let evicted = self.shared[0].insert_lru(block);
                if evicted != Some(block) {
                    // The block actually entered the server.
                    demotions[0] += 1;
                    self.obs.on_demote(0, block.raw());
                    self.demoted_by.insert(block, owner);
                }
                evicted
            }
        } else {
            demotions[j] += 1;
            self.obs.on_demote(j, block.raw());
            self.shared[j].insert_mru(block)
        };
        if let Some(w) = incoming {
            if j == 0 && w != block {
                self.demoted_by.remove(w);
            }
            // Cascade down the next boundary with MRU insertion; evicted
            // from the last level means dropped.
            if j + 1 < self.shared.len() {
                self.plane.send(
                    j + 1,
                    Direction::Down,
                    Message::Demote {
                        block: w,
                        mru: true,
                        owner,
                    },
                );
            } else {
                self.obs.on_evict(j + 1, w.raw());
            }
        }
    }

    /// Delivers and applies every deliverable message, boundary by
    /// boundary from the top, until the plane has nothing due. A cascade
    /// send lands on a higher-numbered link, so on the reliable plane one
    /// ascending pass drains a whole demotion chain in the historical
    /// in-line order. An empty link is skipped without a plane call: an
    /// empty delivery bumps no counter on any plane.
    fn pump(&mut self, demotions: &mut [u32]) {
        // The delivery batch is pooled on the protocol and taken out for
        // the duration of the pump (applying a demote needs `&mut self`).
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            let mut any = false;
            for j in 0..self.shared.len() {
                if self.plane.queued_len(j, Direction::Down) == 0 {
                    continue;
                }
                self.plane.deliver_into(j, Direction::Down, &mut batch);
                for k in 0..batch.len() {
                    any = true;
                    match batch.as_slice()[k] {
                        Message::Demote { block, mru, owner } => {
                            self.apply_demote(j, block, mru, owner, demotions);
                        }
                        // uniLRU's links carry only demotes; anything else
                        // is a foreign duplicate — ignore it.
                        Message::CacheRequest { .. }
                        | Message::EvictNotice { .. }
                        | Message::Reload { .. } => {}
                    }
                }
            }
            if !any {
                break;
            }
        }
        self.batch = batch;
    }

    /// Wipes crashed levels (cold restart) and purges traffic destined
    /// for them.
    fn apply_crashes(&mut self) {
        let mut crashes = std::mem::take(&mut self.crash_buf);
        self.plane.take_crashes_into(&mut crashes);
        for &level in &crashes {
            if level == 0 {
                for cl in &mut self.clients {
                    *cl = new_level(cl.capacity());
                }
                // In-flight demotes already left the clients; they survive.
            } else if level - 1 < self.shared.len() {
                let s = level - 1;
                self.shared[s] = new_level(self.shared[s].capacity());
                if s == 0 {
                    self.demoted_by.clear();
                }
                self.plane.purge_link(s);
            }
        }
        self.crash_buf = crashes;
    }

    /// Runs the plane forward until no message is in flight, applying
    /// everything that arrives. Demotion counts accrued while settling
    /// are protocol-internal (no reference is being served).
    ///
    /// # Panics
    ///
    /// Panics if the plane fails to drain (a plane bug: delays are
    /// bounded and cascades strictly descend).
    pub fn settle(&mut self) {
        let mut scratch = vec![0u32; self.shared.len()];
        let mut guard = 0u64;
        loop {
            self.pump(&mut scratch);
            if self.plane.in_flight() == 0 {
                break;
            }
            self.plane.tick();
            self.apply_crashes();
            guard += 1;
            assert!(guard < 1_000_000, "message plane failed to settle");
        }
    }

    /// One reconciliation round: restores single residency after faults by
    /// purging duplicate copies bottom-up from the authoritative top copy
    /// (the fastest level keeps the block; deeper duplicates are evicted).
    /// Violations found are counted as detected and repaired.
    pub fn reconcile(&mut self) {
        self.recovery.reconciliation_rounds += 1;
        self.obs.on_reconcile(0);
        if self.clients.len() == 1 {
            let cached: Vec<BlockId> = self.clients[0].iter().copied().collect();
            for b in cached {
                for s in 0..self.shared.len() {
                    if self.shared[s].remove(&b) {
                        if s == 0 {
                            self.demoted_by.remove(b);
                        }
                        self.recovery.residency_violations_detected += 1;
                        self.recovery.residency_violations_repaired += 1;
                    }
                }
            }
        }
        for i in 0..self.shared.len() {
            let here: Vec<BlockId> = self.shared[i].iter().copied().collect();
            for b in here {
                for j in i + 1..self.shared.len() {
                    if self.shared[j].remove(&b) {
                        self.recovery.residency_violations_detected += 1;
                        self.recovery.residency_violations_repaired += 1;
                    }
                }
            }
        }
    }

    fn maybe_flip_epoch(&mut self, c: usize) {
        if self.variant != UniLruVariant::Adaptive {
            return;
        }
        let st = &mut self.adaptive[c];
        st.accesses += 1;
        if st.accesses.is_multiple_of(self.epoch_len) {
            // Keep MRU insertion only if demoted blocks earn server hits.
            let utility = if st.demotions == 0 {
                1.0
            } else {
                st.demoted_hits as f64 / st.demotions as f64
            };
            st.mru_mode = utility >= 0.05;
            st.demotions = 0;
            st.demoted_hits = 0;
        }
    }
}

impl<P: MessagePlane> MultiLevelPolicy for UniLru<P> {
    fn access_into(&mut self, client: ClientId, block: BlockId, out: &mut AccessOutcome) {
        let boundaries = self.num_levels() - 1;
        let c = client.as_usize();
        assert!(c < self.clients.len(), "unknown client {client}");
        out.reset(boundaries);
        self.obs.begin_access();
        self.plane.tick();
        self.apply_crashes();
        self.maybe_flip_epoch(c);
        // Apply traffic that became due since the previous reference. Only
        // a lossy plane can hold any: on a lossless one the previous
        // access's trailing pump emptied every level link.
        if self.plane.lossy() {
            self.pump(&mut out.demotions);
        }
        #[cfg(feature = "debug_invariants")]
        crate::plane::assert_down_links_drained(&self.plane, self.shared.len());

        if self.clients[c].contains(&block) {
            self.clients[c].access(block); // refresh recency only
            out.hit_level = Some(0);
            self.obs.on_hit(0, block.raw());
            return;
        }
        // Search the lower levels; promotion is exclusive. Each probe is a
        // demand read crossing boundary `i`.
        for i in 0..self.shared.len() {
            let fate = self.plane.rpc(i);
            self.obs.on_rpc(i + 1);
            match fate {
                RpcFate::RequestLost => {
                    // The level never saw it.
                    self.obs.on_fault(i + 1, block.raw());
                    continue;
                }
                RpcFate::Delivered | RpcFate::ReplyLost => {
                    if self.shared[i].remove(&block) {
                        if i == 0 {
                            if let Some(owner) = self.demoted_by.remove(block) {
                                if self.variant == UniLruVariant::Adaptive {
                                    self.adaptive[owner as usize].demoted_hits += 1;
                                }
                            }
                        }
                        if fate == RpcFate::ReplyLost {
                            // The level gave the block up but the reply
                            // vanished: the copy is lost in transit and
                            // the reference falls through to disk.
                            self.obs.on_fault(i + 1, block.raw());
                            continue;
                        }
                        out.hit_level = Some(i + 1);
                        break;
                    }
                }
            }
        }
        match out.hit_level {
            Some(level) => self.obs.on_hit(level, block.raw()),
            None => self.obs.on_miss(block.raw()),
        }
        // The block always lands at the requesting client (exclusive
        // promotion on a hit, demand load on a miss).
        self.obs.on_retrieve(0, block.raw());
        // Install at the client; the client's victim is demoted.
        if let Some(victim) = self.clients[c].insert_mru(block) {
            if self.variant == UniLruVariant::Adaptive {
                self.adaptive[c].demotions += 1;
            }
            let mru = self.mru_mode(c);
            self.plane.send(
                0,
                Direction::Down,
                Message::Demote {
                    block: victim,
                    mru,
                    owner: c as u32,
                },
            );
            self.pump(&mut out.demotions);
        }
        #[cfg(feature = "debug_invariants")]
        self.debug_validate();
    }

    #[inline]
    fn prefetch(&self, client: ClientId, block: BlockId) {
        // Semantics-free: pulls the rows the upcoming access probes — the
        // requesting client's level and every shared level it may search
        // — toward the CPU cache (DESIGN.md §5i).
        if let Some(cl) = self.clients.get(client.as_usize()) {
            cl.prefetch(&block);
        }
        for s in &self.shared {
            s.prefetch(&block);
        }
    }

    fn num_levels(&self) -> usize {
        1 + self.shared.len()
    }

    fn name(&self) -> &'static str {
        "uniLRU"
    }

    fn fault_summary(&self) -> FaultSummary {
        let mut s = self.recovery;
        self.plane.accounting().fold_into(&mut s);
        s
    }
}

impl<P: MessagePlane> Observe for UniLru<P> {
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
    use crate::plane::{FaultScenario, FaultyPlane};
    use crate::{simulate, IndLru};
    use ulc_trace::synthetic;

    #[test]
    fn behaves_like_one_big_lru_stack() {
        // A loop over L blocks with aggregate capacity >= L hits fully
        // (after warm-up), even though no single level can hold the loop.
        let t = synthetic::cs(50_000); // 2500-block loop
        let mut p = UniLru::single_client(vec![1000, 1000, 1000]);
        let stats = simulate(&mut p, &t, t.warmup_len());
        assert!(
            stats.total_hit_rate() > 0.99,
            "aggregate hit rate = {:.3}",
            stats.total_hit_rate()
        );
        // The hits land exactly where recency 2499 falls: level 3.
        let h = stats.hit_rates();
        assert!(h[0] < 0.01 && h[1] < 0.01 && h[2] > 0.98, "h = {h:?}");
    }

    #[test]
    fn loop_demotion_rate_is_total() {
        // §4.3's tpcc1 signature: on a looping workload every reference
        // incurs a first-boundary demotion under uniLRU.
        let t = synthetic::cs(50_000);
        let mut p = UniLru::single_client(vec![1000, 1000, 1000]);
        let stats = simulate(&mut p, &t, t.warmup_len());
        let d = stats.demotion_rates();
        assert!(d[0] > 0.99, "b1 demotion rate = {:.3}", d[0]);
    }

    #[test]
    fn beats_ind_lru_hit_rate_on_random() {
        // §4.3: uniLRU makes low levels contribute their full share on the
        // random workload.
        let t = synthetic::random_small(100_000);
        let caps = vec![1000usize, 1000, 1000];
        let mut uni = UniLru::single_client(caps.clone());
        let mut ind = IndLru::single_client(caps);
        let su = simulate(&mut uni, &t, t.warmup_len());
        let si = simulate(&mut ind, &t, t.warmup_len());
        // uniLRU: each level's hit rate ~ capacity/universe = 20%.
        let h = su.hit_rates();
        for (i, &hi) in h.iter().enumerate() {
            assert!(
                (hi - 0.2).abs() < 0.03,
                "uniLRU level {} hit rate = {:.3}",
                i + 1,
                hi
            );
        }
        assert!(su.total_hit_rate() > si.total_hit_rate() + 0.2);
    }

    #[test]
    fn exclusive_promotion_removes_from_server() {
        let mut p = UniLru::single_client(vec![1, 2]);
        let a = BlockId::new(1);
        let b = BlockId::new(2);
        p.access(ClientId::SINGLE, a); // a at client
        p.access(ClientId::SINGLE, b); // b at client, a demoted to server
        let out = p.access(ClientId::SINGLE, a); // server hit, promoted
        assert_eq!(out.hit_level, Some(1));
        assert_eq!(out.demotions, vec![1]); // b demoted to make room
                                            // a must now be gone from the server (exclusive).
        let out = p.access(ClientId::SINGLE, a);
        assert_eq!(out.hit_level, Some(0));
    }

    #[test]
    fn lru_insert_variant_cuts_demotion_traffic_on_a_big_loop() {
        // Loop (2500) ≫ client+server (1000): MRU insertion demotes on
        // every reference for zero hits; LRU insertion self-evicts most
        // demotions (no transfer) and freezes a protected set in the
        // server that even earns hits.
        let t = synthetic::cs(30_000);
        let mut mru = UniLru::multi_client(vec![500], vec![500], UniLruVariant::MruInsert);
        let mut lru = UniLru::multi_client(vec![500], vec![500], UniLruVariant::LruInsert);
        let sm = simulate(&mut mru, &t, t.warmup_len());
        let sl = simulate(&mut lru, &t, t.warmup_len());
        assert!(
            sm.demotion_rates()[0] > 0.9,
            "mru = {:?}",
            sm.demotion_rates()
        );
        assert!(
            sl.demotion_rates()[0] < 0.5 * sm.demotion_rates()[0],
            "lru-insert rate = {:.3}",
            sl.demotion_rates()[0]
        );
        assert!(sl.hit_rates()[1] >= sm.hit_rates()[1]);
    }

    #[test]
    fn adaptive_converges_to_lru_insert_on_useless_demotions() {
        // A loop far larger than client+server: demoted blocks never hit.
        let t = synthetic::cs(60_000);
        let mut p = UniLru::multi_client(vec![100], vec![100], UniLruVariant::Adaptive);
        let stats = simulate(&mut p, &t, 30_000);
        assert!(
            stats.demotion_rates()[0] < 0.05,
            "adaptive should stop demoting, rate = {:.3}",
            stats.demotion_rates()[0]
        );
    }

    #[test]
    fn adaptive_keeps_mru_when_demotions_pay() {
        // sprite re-reads demoted blocks from the server constantly.
        let t = synthetic::sprite(40_000);
        let mut p = UniLru::multi_client(vec![200], vec![1500], UniLruVariant::Adaptive);
        let stats = simulate(&mut p, &t, t.warmup_len());
        assert!(stats.hit_rates()[1] > 0.2, "server should earn hits");
        assert!(stats.demotion_rates()[0] > 0.3);
    }

    #[test]
    fn zero_fault_plane_is_bit_identical() {
        let t = synthetic::cs(30_000);
        let mut reliable = UniLru::single_client(vec![500, 500, 500]);
        let mut faulty = UniLru::single_client(vec![500, 500, 500])
            .with_plane(FaultyPlane::new(FaultScenario::zero(17)));
        let sr = simulate(&mut reliable, &t, t.warmup_len());
        let sf = simulate(&mut faulty, &t, t.warmup_len());
        assert_eq!(sr.hits_by_level, sf.hits_by_level);
        assert_eq!(sr.misses, sf.misses);
        assert_eq!(sr.demotions_by_boundary, sf.demotions_by_boundary);
        assert_eq!(sr.faults, sf.faults, "transport counters must agree");
        assert!(sf.faults.is_clean());
    }

    #[test]
    fn dropped_demotes_degrade_hits_but_preserve_bounds() {
        // Aggregate capacity (3000) holds the 2500-block loop, so the
        // clean run hits ~fully; every dropped demote leaks a block out of
        // the hierarchy and turns a would-be hit into a disk read.
        let t = synthetic::cs(30_000);
        let mut clean = UniLru::single_client(vec![1000, 1000, 1000]);
        let mut lossy = UniLru::single_client(vec![1000, 1000, 1000])
            .with_plane(FaultyPlane::new(FaultScenario::zero(5).with_drop(0.3)));
        let sc = simulate(&mut clean, &t, t.warmup_len());
        let sl = simulate(&mut lossy, &t, t.warmup_len());
        assert!(sl.faults.messages_dropped > 0);
        assert!(
            sl.total_hit_rate() < sc.total_hit_rate(),
            "losing demotes must cost aggregate hits: {:.3} vs {:.3}",
            sl.total_hit_rate(),
            sc.total_hit_rate()
        );
        lossy.check_recoverable_invariants();
        lossy.settle();
        lossy.reconcile();
        lossy.check_invariants();
    }

    #[test]
    fn duplicated_and_delayed_demotes_are_tolerated() {
        let t = synthetic::zipf_small(20_000);
        let scenario = FaultScenario::zero(3)
            .with_duplicate(0.2)
            .with_delay(0.3, 6);
        let mut p = UniLru::single_client(vec![300, 300]).with_plane(FaultyPlane::new(scenario));
        let stats = simulate(&mut p, &t, t.warmup_len());
        assert!(stats.faults.messages_duplicated > 0);
        p.settle();
        p.reconcile();
        p.check_invariants();
    }

    #[test]
    fn server_crash_wipes_level_and_recovers() {
        let t = synthetic::zipf_small(20_000);
        let scenario = FaultScenario::zero(8).with_crash(10_000, 1);
        let mut p = UniLru::single_client(vec![300, 300]).with_plane(FaultyPlane::new(scenario));
        let stats = simulate(&mut p, &t, 0);
        assert_eq!(stats.faults.crashes, 1);
        p.settle();
        p.reconcile();
        p.check_invariants();
        // The hierarchy keeps serving after the crash.
        assert!(stats.total_hit_rate() > 0.0);
    }
}
