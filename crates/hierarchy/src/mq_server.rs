//! LRU clients over a Multi-Queue server — the §4.4 `MQ` baseline.
//!
//! "In the client-server caching hierarchy, the environment that MQ is
//! designed for, we use MQ in the server and use LRU in the client
//! independently." Caching is independent (inclusive): the server inserts
//! every block that misses in a client, with MQ deciding replacement, and
//! nothing is demoted.

use crate::{AccessOutcome, MultiLevelPolicy};
use ulc_cache::{LruCache, MqConfig, MultiQueue};
use ulc_obs::{ObsHandle, Observe};
use ulc_trace::{BlockId, ClientId};

/// Independent LRU clients over one shared MQ server (two levels).
#[derive(Clone, Debug)]
pub struct LruMqServer {
    clients: Vec<LruCache<BlockId>>,
    server: MultiQueue<BlockId>,
    /// Observability hooks (no-op unless the `obs` feature is on and a
    /// recorder has been attached; DESIGN.md §5h).
    obs: ObsHandle,
}

impl LruMqServer {
    /// One private LRU cache per entry of `client_capacities`, over an MQ
    /// server of `server_capacity` blocks with the MQ paper's default
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `client_capacities` is empty or any capacity is zero.
    pub fn new(client_capacities: Vec<usize>, server_capacity: usize) -> Self {
        assert!(
            !client_capacities.is_empty(),
            "at least one client is required"
        );
        LruMqServer {
            clients: client_capacities.into_iter().map(LruCache::new).collect(),
            server: MultiQueue::new(server_capacity, MqConfig::for_capacity(server_capacity)),
            obs: ObsHandle::default(),
        }
    }
}

impl MultiLevelPolicy for LruMqServer {
    fn access_into(&mut self, client: ClientId, block: BlockId, out: &mut AccessOutcome) {
        let c = client.as_usize();
        assert!(c < self.clients.len(), "unknown client {client}");
        out.reset(1);
        self.obs.begin_access();
        if self.clients[c].access(block).is_hit() {
            out.hit_level = Some(0);
            self.obs.on_hit(0, block.raw());
            return;
        }
        // The client miss installed the block there (inclusive caching).
        self.obs.on_retrieve(0, block.raw());
        // The server sees the client's miss stream, MQ-managed.
        if self.server.access(block).is_hit() {
            out.hit_level = Some(1);
            self.obs.on_hit(1, block.raw());
        } else {
            self.obs.on_retrieve(1, block.raw());
            self.obs.on_miss(block.raw());
        }
    }

    fn num_levels(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "MQ"
    }
}

impl Observe for LruMqServer {
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
    use crate::{simulate, IndLru};
    use ulc_trace::synthetic;

    #[test]
    fn no_demotions() {
        let t = synthetic::zipf_small(30_000);
        let mut p = LruMqServer::new(vec![300], 1000);
        let stats = simulate(&mut p, &t, t.warmup_len());
        assert_eq!(stats.demotions_by_boundary, vec![0]);
    }

    #[test]
    fn server_mq_beats_server_lru_on_filtered_zipf() {
        // The MQ paper's core claim: below an LRU client, frequency-aware
        // replacement extracts more from the weak-locality miss stream
        // than LRU does.
        let t = synthetic::zipf_small(150_000);
        let client = 250;
        let server = 500;
        let mut mq = LruMqServer::new(vec![client], server);
        let mut ind = IndLru::single_client(vec![client, server]);
        let sm = simulate(&mut mq, &t, t.warmup_len());
        let si = simulate(&mut ind, &t, t.warmup_len());
        assert!(
            sm.hit_rates()[1] > si.hit_rates()[1],
            "MQ server {:.3} should beat LRU server {:.3}",
            sm.hit_rates()[1],
            si.hit_rates()[1]
        );
    }

    #[test]
    fn clients_are_private() {
        let mut p = LruMqServer::new(vec![4, 4], 16);
        let b = BlockId::new(9);
        p.access(ClientId::new(0), b);
        let out = p.access(ClientId::new(1), b);
        assert_eq!(out.hit_level, Some(1), "shared server serves client 1");
        let out = p.access(ClientId::new(1), b);
        assert_eq!(out.hit_level, Some(0));
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn unknown_client_rejected() {
        let mut p = LruMqServer::new(vec![2], 4);
        let _ = p.access(ClientId::new(3), BlockId::new(0));
    }
}
