//! Independent LRU (`indLRU`) — the commonly deployed baseline.
//!
//! Every level runs plain LRU on the request stream it happens to see:
//! level `i` sees the misses of level `i-1`. No coordination, no
//! demotions; evicted blocks are simply dropped. This is the scheme §1.1
//! criticises: the low levels see a locality-filtered stream and duplicate
//! blocks redundantly, so the hierarchy behaves far below its aggregate
//! size.
//!
//! ## Message plane
//!
//! indLRU sends no coordination messages, so only its demand reads cross
//! the [`MessagePlane`]: probing shared level `i` is an RPC on link `i`.
//! A lost request means the level never saw the reference (no install, no
//! hit); a lost reply means the level served — and, being inclusive,
//! installed — the block, but the client fell through to the next level
//! anyway. Crashes cold-restart a level. No reconciliation is needed:
//! indLRU maintains no cross-level invariant to repair.

use crate::plane::{MessagePlane, ReliablePlane, RpcFate};
use crate::stats::FaultSummary;
use crate::{AccessOutcome, MultiLevelPolicy};
use ulc_cache::LruCache;
use ulc_obs::{ObsHandle, Observe};
use ulc_trace::{BlockId, ClientId};

/// Independent per-level LRU over a hierarchy with private client caches
/// (level 1) and shared lower levels, generic over the transport its
/// demand reads cross.
#[derive(Clone, Debug)]
pub struct IndLru<P: MessagePlane = ReliablePlane> {
    clients: Vec<LruCache<BlockId>>,
    shared: Vec<LruCache<BlockId>>,
    plane: P,
    /// Pooled crash buffer, recycled across accesses so the steady-state
    /// path performs no heap allocation (DESIGN.md §5f).
    crash_buf: Vec<usize>,
    /// Observability hooks (no-op unless the `obs` feature is on and a
    /// recorder has been attached; DESIGN.md §5h).
    obs: ObsHandle,
}

impl IndLru {
    /// A single-client hierarchy: `capacities[0]` is the client cache,
    /// the rest are the shared lower levels.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or any capacity is zero.
    pub fn single_client(capacities: Vec<usize>) -> Self {
        assert!(!capacities.is_empty(), "at least one level is required");
        IndLru::multi_client(vec![capacities[0]], capacities[1..].to_vec())
    }

    /// A multi-client hierarchy: one private client cache per entry of
    /// `client_capacities`, then the shared levels.
    ///
    /// # Panics
    ///
    /// Panics if `client_capacities` is empty or any capacity is zero.
    pub fn multi_client(client_capacities: Vec<usize>, shared_capacities: Vec<usize>) -> Self {
        assert!(
            !client_capacities.is_empty(),
            "at least one client is required"
        );
        IndLru {
            clients: client_capacities.into_iter().map(LruCache::new).collect(),
            shared: shared_capacities.into_iter().map(LruCache::new).collect(),
            plane: ReliablePlane::new(),
            crash_buf: Vec::new(),
            obs: ObsHandle::default(),
        }
    }
}

impl<P: MessagePlane> IndLru<P> {
    /// Moves the hierarchy onto a different message plane.
    pub fn with_plane<Q: MessagePlane>(self, plane: Q) -> IndLru<Q> {
        IndLru {
            clients: self.clients,
            shared: self.shared,
            plane,
            crash_buf: self.crash_buf,
            obs: self.obs,
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Wipes crashed levels (cold restart).
    fn apply_crashes(&mut self) {
        let mut crashes = std::mem::take(&mut self.crash_buf);
        self.plane.take_crashes_into(&mut crashes);
        for &level in &crashes {
            if level == 0 {
                for cl in &mut self.clients {
                    *cl = LruCache::new(cl.capacity());
                }
            } else if level - 1 < self.shared.len() {
                let s = level - 1;
                self.shared[s] = LruCache::new(self.shared[s].capacity());
                self.plane.purge_link(s);
            }
        }
        self.crash_buf = crashes;
    }
}

impl<P: MessagePlane> MultiLevelPolicy for IndLru<P> {
    fn access_into(&mut self, client: ClientId, block: BlockId, out: &mut AccessOutcome) {
        let boundaries = self.num_levels() - 1;
        let c = client.as_usize();
        assert!(c < self.clients.len(), "unknown client {client}");
        out.reset(boundaries);
        self.obs.begin_access();
        self.plane.tick();
        self.apply_crashes();
        if self.clients[c].access(block).is_hit() {
            out.hit_level = Some(0);
            self.obs.on_hit(0, block.raw());
            return;
        }
        // The client miss installed the block there (inclusive caching).
        self.obs.on_retrieve(0, block.raw());
        for i in 0..self.shared.len() {
            let fate = self.plane.rpc(i);
            self.obs.on_rpc(i + 1);
            match fate {
                RpcFate::RequestLost => {
                    // The level never saw it.
                    self.obs.on_fault(i + 1, block.raw());
                    continue;
                }
                fate => {
                    let hit = self.shared[i].access(block).is_hit();
                    if !hit {
                        self.obs.on_retrieve(i + 1, block.raw());
                    }
                    if hit && fate == RpcFate::Delivered {
                        out.hit_level = Some(i + 1);
                        self.obs.on_hit(i + 1, block.raw());
                        return;
                    }
                    if hit {
                        // Reply lost: the level served — and refreshed —
                        // the block, but the client never heard; fall
                        // through to the next level.
                        self.obs.on_fault(i + 1, block.raw());
                    }
                }
            }
        }
        self.obs.on_miss(block.raw());
    }

    fn num_levels(&self) -> usize {
        1 + self.shared.len()
    }

    fn name(&self) -> &'static str {
        "indLRU"
    }

    fn fault_summary(&self) -> FaultSummary {
        let mut s = FaultSummary::default();
        self.plane.accounting().fold_into(&mut s);
        s
    }
}

impl<P: MessagePlane> Observe for IndLru<P> {
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
    use crate::simulate;
    use ulc_trace::synthetic;

    #[test]
    fn inclusive_duplication_wastes_lower_levels() {
        // §4.3's random observation: under indLRU the lower levels see a
        // locality-less residual stream and contribute almost nothing,
        // while the first level gets ~ its proportional share.
        let t = synthetic::random_small(120_000);
        let c = 1000; // universe is 5000 blocks
        let mut p = IndLru::single_client(vec![c, c, c]);
        let stats = simulate(&mut p, &t, t.warmup_len());
        let h = stats.hit_rates();
        let expect_h1 = c as f64 / synthetic::RANDOM_SMALL_BLOCKS as f64;
        assert!(
            (h[0] - expect_h1).abs() < 0.03,
            "h1 = {:.3}, expected ~{expect_h1:.3}",
            h[0]
        );
        assert!(h[1] < 0.05, "h2 = {:.3} should be tiny", h[1]);
        assert!(h[2] < 0.02, "h3 = {:.3} should be tinier", h[2]);
    }

    #[test]
    fn no_demotions_ever() {
        let t = synthetic::zipf_small(20_000);
        let mut p = IndLru::single_client(vec![500, 500]);
        let stats = simulate(&mut p, &t, 0);
        assert_eq!(stats.demotions_by_boundary, vec![0]);
    }

    #[test]
    fn hit_in_client_after_lower_level_hit() {
        // After a level-2 hit the block was also installed at the client.
        let mut p = IndLru::single_client(vec![2, 4]);
        let b = BlockId::new(7);
        p.access(ClientId::SINGLE, b); // miss, installed everywhere
        p.access(ClientId::SINGLE, BlockId::new(8));
        p.access(ClientId::SINGLE, BlockId::new(9)); // 7 evicted from client
        let out = p.access(ClientId::SINGLE, b);
        assert_eq!(out.hit_level, Some(1));
        let out = p.access(ClientId::SINGLE, b);
        assert_eq!(out.hit_level, Some(0));
    }

    #[test]
    fn clients_have_private_first_levels() {
        let mut p = IndLru::multi_client(vec![4, 4], vec![8]);
        let b = BlockId::new(1);
        p.access(ClientId::new(0), b);
        // Client 1 misses at its own cache but hits the shared server.
        let out = p.access(ClientId::new(1), b);
        assert_eq!(out.hit_level, Some(1));
    }

    #[test]
    fn single_level_hierarchy_works() {
        let mut p = IndLru::single_client(vec![2]);
        assert_eq!(p.num_levels(), 1);
        let out = p.access(ClientId::SINGLE, BlockId::new(1));
        assert_eq!(out.hit_level, None);
        assert!(out.demotions.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn unknown_client_rejected() {
        let mut p = IndLru::single_client(vec![2]);
        let _ = p.access(ClientId::new(5), BlockId::new(1));
    }

    #[test]
    fn zero_fault_plane_is_bit_identical() {
        let t = synthetic::zipf_small(30_000);
        let mut reliable = IndLru::single_client(vec![500, 500, 500]);
        let mut faulty = IndLru::single_client(vec![500, 500, 500])
            .with_plane(FaultyPlane::new(FaultScenario::zero(21)));
        let sr = simulate(&mut reliable, &t, t.warmup_len());
        let sf = simulate(&mut faulty, &t, t.warmup_len());
        assert_eq!(sr, sf);
        assert!(sf.faults.is_clean());
    }

    #[test]
    fn lost_reads_cost_hits_but_nothing_breaks() {
        let t = synthetic::zipf_small(30_000);
        let mut clean = IndLru::single_client(vec![300, 600]);
        let mut lossy = IndLru::single_client(vec![300, 600])
            .with_plane(FaultyPlane::new(FaultScenario::zero(4).with_drop(0.4)));
        let sc = simulate(&mut clean, &t, t.warmup_len());
        let sl = simulate(&mut lossy, &t, t.warmup_len());
        assert!(sl.faults.rpc_failures > 0);
        assert!(sl.hit_rates()[1] < sc.hit_rates()[1]);
    }

    #[test]
    fn crash_cold_restarts_the_server_level() {
        let t = synthetic::zipf_small(20_000);
        let scenario = FaultScenario::zero(6).with_crash(10_000, 1);
        let mut p = IndLru::single_client(vec![300, 600]).with_plane(FaultyPlane::new(scenario));
        let stats = simulate(&mut p, &t, 0);
        assert_eq!(stats.faults.crashes, 1);
        assert!(stats.total_hit_rate() > 0.0);
    }
}
