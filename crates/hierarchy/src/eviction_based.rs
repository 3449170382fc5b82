//! Eviction-based placement (Chen, Zhou & Li, USENIX 2003) — the §5
//! alternative for taming uniLRU's demotion traffic.
//!
//! Contents evolve exactly as under unified LRU, but a block evicted from
//! the client is *reloaded into the server from disk* instead of being
//! shipped over the network: zero demotion traffic on the client link, at
//! the price of a reload *window* during which the block is in neither
//! cache. A re-reference landing in the window goes to disk (and cancels
//! the pending reload, since the block returns to the client).
//!
//! ## Message plane
//!
//! The client's reload *order* is itself a message — [`Message::Reload`]
//! on link 0 — and the demand read of the server is an RPC on the same
//! link. On the default [`ReliablePlane`] the order arrives within the
//! access that issued it, reproducing the historical in-line timing bit
//! for bit; on a lossy plane a dropped order simply never starts the disk
//! fetch (the block is re-read from disk on its next reference), and a
//! duplicated order degrades to a refresh of the pending entry.

// Per-reference hot path: std `HashMap`/`HashSet` are disallowed (clippy.toml).
#![warn(clippy::disallowed_types)]

use crate::plane::{DeliveryBatch, Direction, Message, MessagePlane, ReliablePlane, RpcFate};
use crate::stats::FaultSummary;
use crate::{AccessOutcome, MultiLevelPolicy};
use std::collections::VecDeque;
use ulc_cache::LruCache;
use ulc_obs::{ObsHandle, Observe};
use ulc_trace::{BlockId, BlockMap, ClientId};

/// Two-level eviction-based placement: LRU client over an LRU server,
/// exclusive like DEMOTE, with disk reloads instead of demotions. Generic
/// over the transport its reload orders and demand reads cross.
#[derive(Clone, Debug)]
pub struct EvictionBased<P: MessagePlane = ReliablePlane> {
    clients: Vec<LruCache<BlockId>>,
    server: LruCache<BlockId>,
    /// Blocks being fetched from disk into the server: block → ready
    /// time. Drained as simulated time (one unit per reference) passes.
    pending: BlockMap<u64>,
    order: VecDeque<(u64, BlockId)>,
    /// References a disk reload takes to complete.
    reload_latency: u64,
    now: u64,
    reloads: u64,
    window_misses: u64,
    plane: P,
    /// Pooled delivery and crash buffers, recycled across accesses so the
    /// steady-state order drain performs no heap allocation (DESIGN.md §5f).
    batch: DeliveryBatch,
    crash_buf: Vec<usize>,
    /// Observability hooks (no-op unless the `obs` feature is on and a
    /// recorder has been attached; DESIGN.md §5h).
    obs: ObsHandle,
}

impl EvictionBased {
    /// Builds the scheme with per-client capacities, a shared server, and
    /// a reload latency in references (≈ disk time / inter-arrival time).
    ///
    /// # Panics
    ///
    /// Panics if `client_capacities` is empty or any capacity is zero.
    pub fn new(client_capacities: Vec<usize>, server_capacity: usize, reload_latency: u64) -> Self {
        assert!(
            !client_capacities.is_empty(),
            "at least one client is required"
        );
        EvictionBased {
            clients: client_capacities.into_iter().map(LruCache::new).collect(),
            server: LruCache::new(server_capacity),
            pending: BlockMap::new(),
            order: VecDeque::new(),
            reload_latency,
            now: 0,
            reloads: 0,
            window_misses: 0,
            plane: ReliablePlane::new(),
            batch: DeliveryBatch::new(),
            crash_buf: Vec::new(),
            obs: ObsHandle::default(),
        }
    }
}

impl<P: MessagePlane> EvictionBased<P> {
    /// Moves the scheme onto a different message plane.
    pub fn with_plane<Q: MessagePlane>(self, plane: Q) -> EvictionBased<Q> {
        EvictionBased {
            clients: self.clients,
            server: self.server,
            pending: self.pending,
            order: self.order,
            reload_latency: self.reload_latency,
            now: self.now,
            reloads: self.reloads,
            window_misses: self.window_misses,
            plane,
            batch: self.batch,
            crash_buf: self.crash_buf,
            obs: self.obs,
        }
    }

    /// Disk reloads issued so far (the traffic demotions would have been).
    pub fn reloads(&self) -> u64 {
        self.reloads
    }

    /// References that missed only because they fell into a reload window.
    pub fn window_misses(&self) -> u64 {
        self.window_misses
    }

    /// Completes reloads whose window has passed.
    fn drain_pending(&mut self) {
        while let Some(&(ready, block)) = self.order.front() {
            if ready > self.now {
                break;
            }
            self.order.pop_front();
            // Cancelled reloads have been removed from `pending`.
            if self.pending.remove(block).is_some() {
                self.obs.on_retrieve(1, block.raw());
                if let Some(victim) = self.server.insert_mru(block) {
                    self.obs.on_evict(1, victim.raw());
                }
            }
        }
    }

    /// Applies reload orders the plane has delivered: the server starts a
    /// disk fetch completing `reload_latency` references from now. A
    /// duplicated order refreshes the pending entry; its stale `order`
    /// row is skipped by `drain_pending`'s cancelled-check.
    fn apply_reload_orders(&mut self) {
        let mut batch = std::mem::take(&mut self.batch);
        self.plane.deliver_into(0, Direction::Down, &mut batch);
        for &msg in &batch {
            // lint:allow(plane-exhaustive) eviction-based placement sends only Reload orders downstream; foreign kinds are dropped by design
            if let Message::Reload { block } = msg {
                self.reloads += 1;
                self.pending.insert(block, self.now + self.reload_latency);
                self.order
                    .push_back((self.now + self.reload_latency, block));
            }
        }
        self.batch = batch;
    }

    /// Wipes crashed levels; a server crash also forgets every in-flight
    /// disk fetch.
    // lint:cold-path crash recovery rebuilds whole caches; allocation is by design
    fn apply_crashes(&mut self) {
        let mut crashes = std::mem::take(&mut self.crash_buf);
        self.plane.take_crashes_into(&mut crashes);
        for &level in &crashes {
            if level == 0 {
                for cl in &mut self.clients {
                    *cl = LruCache::new(cl.capacity());
                }
            } else if level == 1 {
                self.server = LruCache::new(self.server.capacity());
                self.pending.clear();
                self.order.clear();
                self.plane.purge_link(0);
            }
        }
        self.crash_buf = crashes;
    }
}

impl<P: MessagePlane> MultiLevelPolicy for EvictionBased<P> {
    fn access_into(&mut self, client: ClientId, block: BlockId, out: &mut AccessOutcome) {
        self.now += 1;
        out.reset(1);
        self.obs.begin_access();
        self.plane.tick();
        self.apply_crashes();
        self.apply_reload_orders();
        self.drain_pending();
        let c = client.as_usize();
        assert!(c < self.clients.len(), "unknown client {client}");

        if self.clients[c].contains(&block) {
            self.clients[c].access(block);
            out.hit_level = Some(0);
            self.obs.on_hit(0, block.raw());
            return;
        }
        let fate = self.plane.rpc(0);
        self.obs.on_rpc(1);
        match fate {
            RpcFate::RequestLost => {
                // The server never saw the read.
                self.obs.on_fault(1, block.raw());
            }
            fate => {
                if self.server.contains(&block) {
                    // Exclusive promotion, like DEMOTE. On a lost reply the
                    // server still gives the block up but the copy vanishes
                    // in transit; the reference falls through to disk.
                    self.server.remove(&block);
                    if fate == RpcFate::Delivered {
                        out.hit_level = Some(1);
                    } else {
                        self.obs.on_fault(1, block.raw());
                    }
                } else if self.pending.remove(block).is_some() {
                    // Reload window: the block is on its way from disk but
                    // not usable yet; the reference goes to disk, and the
                    // reload is cancelled (the block will live at the
                    // client instead).
                    self.window_misses += 1;
                }
            }
        }
        match out.hit_level {
            Some(level) => self.obs.on_hit(level, block.raw()),
            None => self.obs.on_miss(block.raw()),
        }
        // The block always ends up at the requesting client.
        self.obs.on_retrieve(0, block.raw());
        if let Some(victim) = self.clients[c].insert_mru(block) {
            // Reload from disk instead of demoting: no transfer counted —
            // only the reload order crosses the wire.
            self.plane
                .send(0, Direction::Down, Message::Reload { block: victim });
            self.apply_reload_orders();
        }
    }

    fn num_levels(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "evict-reload"
    }

    fn fault_summary(&self) -> FaultSummary {
        let mut s = FaultSummary::default();
        self.plane.accounting().fold_into(&mut s);
        s
    }
}

impl<P: MessagePlane> Observe for EvictionBased<P> {
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
    use crate::{simulate, UniLru, UniLruVariant};
    use ulc_trace::synthetic;

    #[test]
    fn no_demotion_transfers_ever() {
        let t = synthetic::cs(30_000);
        let mut p = EvictionBased::new(vec![500], 1000, 5);
        let stats = simulate(&mut p, &t, t.warmup_len());
        assert_eq!(stats.demotions_by_boundary, vec![0]);
        assert!(p.reloads() > 0, "evictions must trigger reloads");
    }

    #[test]
    fn with_zero_latency_matches_uni_lru_hit_rates() {
        // Instant reloads reproduce exactly the DEMOTE content dynamics.
        let t = synthetic::zipf_small(40_000);
        let mut eb = EvictionBased::new(vec![300], 600, 0);
        let mut uni = UniLru::multi_client(vec![300], vec![600], UniLruVariant::MruInsert);
        let se = simulate(&mut eb, &t, t.warmup_len());
        let su = simulate(&mut uni, &t, t.warmup_len());
        assert_eq!(se.hits_by_level, su.hits_by_level);
        assert_eq!(se.misses, su.misses);
    }

    #[test]
    fn reload_window_costs_hits() {
        // A loop that fits client+server exactly: with DEMOTE it hits
        // fully. On a loop, an evicted block is re-referenced ~2000
        // references after its eviction; a reload window longer than that
        // turns the server hits into misses.
        let t = synthetic::cs(50_000); // 2500-block loop
        let mut fast = EvictionBased::new(vec![500], 2000, 0);
        let mut slow = EvictionBased::new(vec![500], 2000, 2_100);
        let sf = simulate(&mut fast, &t, t.warmup_len());
        let ss = simulate(&mut slow, &t, t.warmup_len());
        assert!(
            ss.total_hit_rate() < sf.total_hit_rate(),
            "window should cost hits: {:.3} vs {:.3}",
            ss.total_hit_rate(),
            sf.total_hit_rate()
        );
        assert!(slow.window_misses() > 0);
    }

    #[test]
    fn multi_client_structure_is_supported() {
        let t = synthetic::httpd_multi(20_000);
        let mut p = EvictionBased::new(vec![256; 7], 2048, 10);
        let stats = simulate(&mut p, &t, t.warmup_len());
        assert!(stats.total_hit_rate() > 0.0);
    }

    #[test]
    fn zero_fault_plane_is_bit_identical() {
        let t = synthetic::cs(30_000);
        let mut reliable = EvictionBased::new(vec![500], 1000, 5);
        let mut faulty = EvictionBased::new(vec![500], 1000, 5)
            .with_plane(FaultyPlane::new(FaultScenario::zero(13)));
        let sr = simulate(&mut reliable, &t, t.warmup_len());
        let sf = simulate(&mut faulty, &t, t.warmup_len());
        assert_eq!(sr, sf);
        assert!(sf.faults.is_clean());
    }

    #[test]
    fn dropped_reload_orders_cost_server_hits() {
        let t = synthetic::cs(50_000);
        let mut clean = EvictionBased::new(vec![500], 2000, 0);
        let mut lossy = EvictionBased::new(vec![500], 2000, 0)
            .with_plane(FaultyPlane::new(FaultScenario::zero(9).with_drop(0.5)));
        let sc = simulate(&mut clean, &t, t.warmup_len());
        let sl = simulate(&mut lossy, &t, t.warmup_len());
        assert!(sl.faults.messages_dropped > 0);
        assert!(sl.hit_rates()[1] < sc.hit_rates()[1]);
    }

    #[test]
    fn server_crash_forgets_pending_reloads() {
        let t = synthetic::zipf_small(20_000);
        let scenario = FaultScenario::zero(2).with_crash(10_000, 1);
        let mut p = EvictionBased::new(vec![300], 600, 50).with_plane(FaultyPlane::new(scenario));
        let stats = simulate(&mut p, &t, 0);
        assert_eq!(stats.faults.crashes, 1);
        assert!(stats.total_hit_rate() > 0.0);
    }
}
