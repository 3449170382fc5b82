//! The multi-client ULC protocol (§3.2.2, Figure 5).
//!
//! Several clients share one server cache. Each client runs the
//! single-client decision engine over a two-level view (its private
//! cache plus the server) and *directs* the server with level-tagged
//! `Retrieve` requests and `Demote` instructions. The server allocates its buffers
//! among clients by a global LRU stack (`gLRU`) ordered by cache-request
//! times, recording for each block its **owner** — the client that most
//! recently requested it be cached. When the server replaces the bottom
//! of `gLRU`, the owner is notified (piggybacked on its next retrieved
//! block — *delayed notification*) and performs a yardstick adjustment:
//! its share of the server has shrunk by one block.
//!
//! Two multi-client wrinkles the paper calls out are handled here:
//!
//! * **Shared blocks** carry different level tags from different clients;
//!   a block stays cached at the highest level any client directs. A
//!   client promoting a *shared* block to its private cache therefore does
//!   not purge it from the server unless it is the block's owner.
//! * **Allocation** is fully dynamic: a client's server share is just the
//!   set of gLRU entries it owns, and shrinks only through replacement
//!   notifications. Client-side metadata never caps its own server share.
//!
//! ## Message plane
//!
//! Every client↔server exchange crosses a
//! [`MessagePlane`](ulc_hierarchy::MessagePlane): link `c` is client `c`'s
//! connection to the server. The demand read is a synchronous RPC; the
//! client's `Retrieve(b, ·, 2)` and `Demote(b, 1, 2)` directives are
//! asynchronous `Down` messages drained into the server's gLRU; delayed
//! replacement notifications are `Up` messages delivered with the
//! client's next successful response — exactly the paper's piggybacking,
//! made explicit. On the default `ReliablePlane` everything arrives
//! within the access that produced it, reproducing the historical
//! in-line behaviour bit for bit. On a lossy `FaultyPlane` the client's
//! status table and the server drift apart; the drift is *detected* on
//! the next authoritative response (a NACK: the server does not hold a
//! believed block) and *repaired* by [`UlcMulti::reconcile_client`] —
//! a status-table re-sync sweep plus a conservative single-residency
//! repair. A server crash-and-cold-restart marks every client dirty so
//! each rebuilds its status table on its next access.

// No wildcard arm over an enum: every match names each variant, so a new
// `Message` or `RpcFate` variant fails to compile until this module
// decides what to do with it.
#![warn(clippy::wildcard_enum_match_arm)]

use crate::scratch::AccessScratch;
use crate::stack::{Placement, UniLruStack};
use ulc_cache::{LinkedSlab, NodeHandle};
use ulc_hierarchy::plane::{
    DeliveryBatch, Direction, Message, MessagePlane, ReliablePlane, RpcFate,
};
use ulc_hierarchy::{AccessOutcome, FaultSummary, MultiLevelPolicy};
use ulc_obs::{ObsHandle, Observe};
use ulc_trace::{BlockId, BlockMap, ClientId};

/// A block's row in the server's `gLRU`: its node in the request-time
/// order and its owner, found together by one block-table lookup.
#[derive(Clone, Copy, Debug)]
struct ServerSlot {
    node: NodeHandle,
    owner: u32,
}

/// The server's global LRU stack (`gLRU`), ordered by cache-request time,
/// with each block's owner stored in the block's own slot.
#[derive(Clone, Debug)]
struct GlobalLru {
    order: LinkedSlab<BlockId>,
    slots: BlockMap<ServerSlot>,
    capacity: usize,
}

impl GlobalLru {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "server capacity must be positive");
        let mut order = LinkedSlab::new();
        // Occupancy is bounded by `capacity + 1` (cache_request inserts
        // before it pops), so the node slots settle during warm-up — but
        // the slab's free list tracks the *deepest occupancy dip*, which a
        // late burst of promotions to client caches can deepen at any
        // point in a run, doubling the free vector inside the measured
        // steady phase (the §5f gate forbids exactly that). Reserving the
        // full capacity up front caps the whole run.
        order.reserve(capacity + 1);
        let mut slots = BlockMap::new();
        slots.reserve(capacity + 1);
        GlobalLru {
            order,
            slots,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn contains(&self, block: BlockId) -> bool {
        self.slots.contains_key(block)
    }

    fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    fn owner_of(&self, block: BlockId) -> Option<u32> {
        self.slots.get(block).map(|slot| slot.owner)
    }

    /// `block`'s row — its gLRU node and owner — if the server holds it.
    fn slot(&self, block: BlockId) -> Option<ServerSlot> {
        self.slots.get(block).copied()
    }

    /// A client requests `block` be cached here; the block moves to the
    /// top of `gLRU` and the requester becomes its owner.
    ///
    /// Returns the replaced block and its owner if the request forced a
    /// replacement, plus the block's previous owner if ownership moved
    /// between clients — the previous owner must be told its share shrank,
    /// or its view of the server inflates with blocks whose replacement it
    /// will never hear about.
    fn cache_request(&mut self, block: BlockId, requester: u32) -> CacheRequestEffect {
        let previous = match self.slots.get_mut(block) {
            Some(slot) => {
                self.order.move_to_front(slot.node);
                Some(std::mem::replace(&mut slot.owner, requester))
            }
            None => {
                let node = self.order.push_front(block);
                self.slots.insert(
                    block,
                    ServerSlot {
                        node,
                        owner: requester,
                    },
                );
                None
            }
        };
        let replaced = if self.len() > self.capacity {
            let bottom = self.order.back().expect("over-full gLRU");
            let victim = self.order.remove(bottom).expect("back handle is fresh");
            let owner = self.slots.remove(victim).expect("slotted victim").owner;
            Some((victim, owner))
        } else {
            None
        };
        CacheRequestEffect {
            replaced,
            transferred_from: previous.filter(|&o| o != requester),
        }
    }

    /// Drops `block` (its owner is promoting it to the client cache).
    fn remove(&mut self, block: BlockId) {
        if let Some(slot) = self.slots.remove(block) {
            self.order.remove(slot.node);
        }
    }

    /// Refreshes a block's gLRU position, given the `node` its slot
    /// holds, without changing its owner (a non-owner is using the shared
    /// copy).
    fn refresh(&mut self, node: NodeHandle) {
        self.order.move_to_front(node);
    }
}

/// What one gLRU cache request did.
#[derive(Clone, Copy, Debug)]
struct CacheRequestEffect {
    /// Block replaced to make room, with its owner.
    replaced: Option<(BlockId, u32)>,
    /// Previous owner, when the request took the block over from another
    /// client.
    transferred_from: Option<u32>,
}

/// Per-client protocol state.
#[derive(Debug)]
struct ClientState {
    stack: UniLruStack,
    /// Status table known stale (e.g. after a server cold restart): run a
    /// reconciliation pass before the next access is served.
    dirty: bool,
}

/// How a client treats history-less (cold) blocks when the shared server
/// is globally full. The paper's §3.2.1 initialisation rule is stated for
/// the single-client case; both multi-client readings are defensible and
/// measurably different (see DESIGN.md §5a).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClaimRule {
    /// Cold blocks always direct a server placement; gLRU replacement
    /// arbitrates between clients (the dynamic-partition reading). The
    /// default: it lets late-arriving clients claim their share and keeps
    /// the server warm for re-read-heavy workloads.
    #[default]
    DynamicPartition,
    /// Cold blocks become `L_out` whenever the server reports itself full
    /// (the literal §3.2.1 reading). Maximally scan-resistant; allocation
    /// shifts only through re-referenced history (Figure 5's path).
    PaperStrict,
}

/// Configuration for the multi-client ULC protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UlcMultiConfig {
    /// Private cache capacity of each client.
    pub client_capacities: Vec<usize>,
    /// Shared server cache capacity.
    pub server_capacity: usize,
    /// Cold-block claim behaviour under a full server.
    pub claim_rule: ClaimRule,
}

impl UlcMultiConfig {
    /// A configuration with identical clients.
    pub fn uniform(clients: usize, client_capacity: usize, server_capacity: usize) -> Self {
        UlcMultiConfig {
            client_capacities: vec![client_capacity; clients],
            server_capacity,
            claim_rule: ClaimRule::default(),
        }
    }

    /// Overrides the claim rule.
    #[must_use]
    pub fn with_claim_rule(mut self, rule: ClaimRule) -> Self {
        self.claim_rule = rule;
        self
    }
}

/// The multi-client ULC protocol over a two-level hierarchy, generic over
/// the transport its directives, retrievals and notifications cross.
///
/// # Examples
///
/// ```
/// use ulc_core::{UlcMulti, UlcMultiConfig};
/// use ulc_hierarchy::{simulate, MultiLevelPolicy};
/// use ulc_trace::synthetic;
///
/// let trace = synthetic::httpd_multi(50_000);
/// let mut ulc = UlcMulti::new(UlcMultiConfig::uniform(7, 1024, 8192));
/// let stats = simulate(&mut ulc, &trace, trace.warmup_len());
/// assert!(stats.total_hit_rate() > 0.0);
/// ```
#[derive(Debug)]
pub struct UlcMulti<P: MessagePlane = ReliablePlane> {
    clients: Vec<ClientState>,
    server: GlobalLru,
    claim_rule: ClaimRule,
    config: UlcMultiConfig,
    plane: P,
    /// Protocol-side recovery counters (the plane keeps the transport
    /// counters itself).
    recovery: FaultSummary,
    /// Reusable per-access buffers: the client stack's scratch, the two
    /// delivery batches (server inbox, per-client notices), the crash
    /// buffer and the block list a reconciliation round walks (reserved
    /// for the largest level up front). Once their high-water marks settle
    /// the steady-state access path performs no heap allocation, NACK
    /// reconciliation on a lossy plane included (DESIGN.md §5f).
    scratch: AccessScratch,
    inbox: DeliveryBatch,
    notices: DeliveryBatch,
    crash_buf: Vec<usize>,
    level_buf: Vec<BlockId>,
    /// Observability hooks (no-op unless the `obs` feature is on and a
    /// recorder has been attached; DESIGN.md §5h).
    obs: ObsHandle,
    #[cfg(feature = "debug_invariants")]
    tick: u64,
}

impl UlcMulti {
    /// Creates the protocol for `config`.
    ///
    /// # Panics
    ///
    /// Panics if there are no clients or any capacity is zero.
    pub fn new(config: UlcMultiConfig) -> Self {
        assert!(
            !config.client_capacities.is_empty(),
            "at least one client is required"
        );
        // Each client's view of the server is bounded by the whole server:
        // under the dynamic-partition principle a client may claim up to
        // everything, and the server's gLRU arbitrates between clients.
        // With a single client whose working set fits the hierarchy this
        // degenerates to the single-client protocol exactly; under
        // replacement pressure gLRU's request-time order approximates the
        // client's recency order (§3.2.2).
        let clients = config
            .client_capacities
            .iter()
            .map(|&c| {
                let mut stack = UniLruStack::new(vec![c, config.server_capacity]);
                // Resident entries are the cached view (client + server
                // share) plus uncached history above the last yardstick,
                // whose high-water is reached late in a run; reserving a
                // generous multiple keeps the steady phase allocation-free
                // (§5f) without changing behaviour if it is ever exceeded.
                stack.reserve_blocks(2 * (c + config.server_capacity));
                ClientState {
                    stack,
                    dirty: false,
                }
            })
            .collect();
        let largest_level = config
            .client_capacities
            .iter()
            .fold(config.server_capacity, |m, &c| m.max(c));
        UlcMulti {
            clients,
            server: GlobalLru::new(config.server_capacity),
            claim_rule: config.claim_rule,
            config,
            plane: ReliablePlane::new(),
            recovery: FaultSummary::default(),
            scratch: AccessScratch::new(),
            inbox: DeliveryBatch::new(),
            notices: DeliveryBatch::new(),
            crash_buf: Vec::new(),
            level_buf: Vec::with_capacity(largest_level),
            obs: ObsHandle::default(),
            #[cfg(feature = "debug_invariants")]
            tick: 0,
        }
    }
}

impl<P: MessagePlane> UlcMulti<P> {
    /// Moves the protocol onto a different message plane (used to swap in
    /// a `FaultyPlane` before a run starts).
    pub fn with_plane<Q: MessagePlane>(self, plane: Q) -> UlcMulti<Q> {
        UlcMulti {
            clients: self.clients,
            server: self.server,
            claim_rule: self.claim_rule,
            config: self.config,
            plane,
            recovery: self.recovery,
            scratch: self.scratch,
            inbox: self.inbox,
            notices: self.notices,
            crash_buf: self.crash_buf,
            level_buf: self.level_buf,
            obs: self.obs,
            #[cfg(feature = "debug_invariants")]
            tick: self.tick,
        }
    }

    /// The message plane the protocol runs on.
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// Mutable access to client `c`'s `uniLRUstack`, for the sharded
    /// replay executor ([`crate::parallel`]): the stack is lent to a
    /// worker thread for the parallel phase of an epoch and swapped back
    /// before the serial commit walk.
    pub(crate) fn client_stack_mut(&mut self, c: usize) -> &mut UniLruStack {
        &mut self.clients[c].stack
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Blocks currently cached in the server.
    pub fn server_len(&self) -> usize {
        self.server.len()
    }

    /// How many server blocks each client currently owns — the dynamic
    /// allocation of Figure 5.
    pub fn server_allocation(&self) -> Vec<usize> {
        let mut alloc = vec![0usize; self.clients.len()];
        for (_, slot) in self.server.slots.iter() {
            alloc[slot.owner as usize] += 1;
        }
        alloc
    }

    /// Validates the protocol-level invariants: per-client stack
    /// structure, per-level capacity bounds, exclusive caching (a block a
    /// client holds privately is never also its own server copy —
    /// single-residency across the hierarchy), notification conservation
    /// (a believed server placement is either really cached there or its
    /// invalidation is still in flight on the message plane), and
    /// server/owner bookkeeping.
    ///
    /// On a lossy plane these guarantees only hold once traffic has
    /// settled and [`UlcMulti::reconcile`] has run; mid-run, use
    /// [`UlcMulti::check_recoverable_invariants`].
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants(&self) {
        self.check_recoverable_invariants();
        for (ci, c) in self.clients.iter().enumerate() {
            for b in c.stack.level_blocks(0) {
                assert_ne!(
                    self.server.owner_of(b),
                    Some(ci as u32),
                    "exclusive caching: {b:?} is resident at client {ci} yet owned by it at the server"
                );
            }
            let in_flight = self.plane.queued(ci, Direction::Up);
            for b in c.stack.level_blocks(1) {
                assert!(
                    self.server.contains(b)
                        || in_flight
                            .iter()
                            .any(|m| matches!(m, Message::EvictNotice { block } if *block == b)),
                    "client {ci} believes {b:?} is at the server with no pending notice"
                );
            }
        }
    }

    /// The invariants that hold at *every* instant even under message
    /// loss, duplication, reordering and crashes: per-client stack
    /// consistency (a local state machine faults cannot corrupt) and
    /// server capacity/owner bookkeeping. The cross-machine agreement
    /// checked by [`UlcMulti::check_invariants`] is only guaranteed after
    /// [`UlcMulti::settle`] + [`UlcMulti::reconcile`].
    ///
    /// # Panics
    ///
    /// Panics if a recoverable invariant is violated.
    pub fn check_recoverable_invariants(&self) {
        for c in self.clients.iter() {
            c.stack.check_invariants();
        }
        assert!(self.server.len() <= self.server.capacity);
        assert_eq!(self.server.len(), self.server.slots.len());
        for (node, &b) in self.server.order.iter() {
            let slot = self.server.slots.get(b);
            assert!(
                slot.is_some_and(|s| s.node == node),
                "server block {b:?} has no slot pointing at its gLRU node"
            );
            let o = self.server.owner_of(b);
            assert!(
                o.is_some_and(|o| (o as usize) < self.clients.len()),
                "server block {b:?} has an invalid owner ({o:?})"
            );
        }
    }

    /// Amortised feature-gated self-check after each access.
    #[cfg(feature = "debug_invariants")]
    fn debug_validate(&mut self) {
        self.tick += 1;
        if self.server.len() < 64 || self.tick.is_multiple_of(256) {
            if self.plane.lossy() {
                self.check_recoverable_invariants();
            } else {
                self.check_invariants();
            }
        }
    }

    /// Applies the side effects of one gLRU cache request made by
    /// `requester` for `block`: the replacement notification, and the
    /// share-shrink notification to the previous owner when ownership of a
    /// shared block moved. The requester's own victim is applied
    /// immediately (the notice piggybacks on its in-progress exchange);
    /// everyone else's rides the plane as an `Up` eviction notice
    /// delivered with their next successful response.
    fn apply_effect(&mut self, effect: CacheRequestEffect, block: BlockId, requester: u32) {
        if let Some((victim, owner)) = effect.replaced {
            // The victim leaves the server (the bottom level) for L_out
            // right now, whichever client gets the delayed notice.
            self.obs.on_evict(1, victim.raw());
            if owner == requester {
                Self::apply_replacement(&mut self.clients[owner as usize], victim);
            } else {
                self.plane.send(
                    owner as usize,
                    Direction::Up,
                    Message::EvictNotice { block: victim },
                );
            }
        }
        if let Some(prev) = effect.transferred_from {
            self.plane
                .send(prev as usize, Direction::Up, Message::EvictNotice { block });
        }
    }

    fn apply_replacement(client: &mut ClientState, victim: BlockId) {
        // Only the client's *server-level* metadata is affected; a block
        // it holds privately is untouched.
        client.stack.evict_cached(victim, 1);
    }

    /// Applies one client directive the server's inbox delivered: a
    /// `Retrieve(b, ·, 2)` cache request or a `Demote(b, 1, 2)`
    /// instruction — both cache `block` on `requester`'s behalf.
    ///
    /// A *late* directive whose block has meanwhile been promoted back
    /// into the requester's private cache would create a double residency
    /// the requester would never learn about; it is detected, dropped and
    /// counted as a repaired violation. (Impossible on the reliable plane:
    /// directives are drained within the access that issued them.)
    fn apply_directive(&mut self, block: BlockId, requester: u32) {
        if self.clients[requester as usize].stack.cached_level(block) == Some(0) {
            self.recovery.residency_violations_detected += 1;
            self.recovery.residency_violations_repaired += 1;
            self.obs.on_fault(1, block.raw());
            return;
        }
        let effect = self.server.cache_request(block, requester);
        self.apply_effect(effect, block, requester);
    }

    /// Drains every client's directive queue into the server.
    fn drain_server_inbox(&mut self) {
        for link in 0..self.clients.len() {
            self.drain_link(link);
        }
    }

    /// Applies every directive deliverable on client `link`'s `Down`
    /// queue. An empty queue is skipped without a plane call: an empty
    /// delivery bumps no counter on any plane.
    ///
    /// The delivery batch is pooled on the protocol and taken out for the
    /// duration of the drain (applying a directive needs `&mut self`), so
    /// the steady-state drain recycles one buffer across all accesses.
    fn drain_link(&mut self, link: usize) {
        if self.plane.queued_len(link, Direction::Down) == 0 {
            return;
        }
        let mut inbox = std::mem::take(&mut self.inbox);
        self.plane.deliver_into(link, Direction::Down, &mut inbox);
        for &msg in &inbox {
            match msg {
                Message::CacheRequest { block, requester } => {
                    self.apply_directive(block, requester);
                }
                Message::Demote { block, owner, .. } => {
                    self.apply_directive(block, owner);
                }
                // ULC's down links carry only directives.
                Message::EvictNotice { .. } | Message::Reload { .. } => {}
            }
        }
        self.inbox = inbox;
    }

    /// Delivers the eviction notices riding client `c`'s response.
    /// A notice is stale — and skipped — if the client has meanwhile
    /// re-claimed the block (it owns it again). An empty `Up` queue is
    /// skipped without a plane call, like an empty directive queue.
    pub(crate) fn deliver_notices(&mut self, c: usize) {
        if self.plane.queued_len(c, Direction::Up) == 0 {
            return;
        }
        let mut notices = std::mem::take(&mut self.notices);
        self.plane.deliver_into(c, Direction::Up, &mut notices);
        for &msg in &notices {
            match msg {
                Message::EvictNotice { block: victim } => {
                    if self.server.owner_of(victim) == Some(c as u32) {
                        continue;
                    }
                    Self::apply_replacement(&mut self.clients[c], victim);
                }
                // The server's Up traffic is only replacement notices.
                Message::Demote { .. } | Message::CacheRequest { .. } | Message::Reload { .. } => {}
            }
        }
        self.notices = notices;
    }

    /// Wipes crashed levels. A server cold restart marks every client's
    /// status table dirty: each rebuilds it via [`UlcMulti::reconcile_client`]
    /// before its next access is served.
    fn apply_crashes(&mut self) {
        let mut crashes = std::mem::take(&mut self.crash_buf);
        self.plane.take_crashes_into(&mut crashes);
        for &level in &crashes {
            if level == 0 {
                for (i, cs) in self.clients.iter_mut().enumerate() {
                    cs.stack = UniLruStack::new(vec![
                        self.config.client_capacities[i],
                        self.config.server_capacity,
                    ]);
                    cs.dirty = false; // a cold client believes nothing
                    self.plane.purge_link(i);
                }
            } else if level == 1 {
                self.server = GlobalLru::new(self.server.capacity);
                for i in 0..self.clients.len() {
                    self.plane.purge_link(i);
                    self.clients[i].dirty = true;
                }
            }
        }
        self.crash_buf = crashes;
    }

    /// One status-table reconciliation round for client `c`: the re-sync
    /// pass the protocol runs after a NACK (an authoritative response
    /// contradicting the status table) or a server cold restart.
    ///
    /// 1. **NACK sweep** — every block the client believes cached at the
    ///    server is re-validated; entries the server does not hold are
    ///    evicted from the status table (counted as stale-status hits).
    /// 2. **Conservative single-residency repair** — a block the client
    ///    holds privately while also owning the server copy violates
    ///    exclusive caching; the server copy is purged (the private copy
    ///    is authoritative — repairing toward the faster level never
    ///    loses data).
    pub fn reconcile_client(&mut self, c: usize) {
        self.recovery.reconciliation_rounds += 1;
        self.obs.on_reconcile(c);
        self.nack_sweep(c);
        self.repair_residency(c);
    }

    fn nack_sweep(&mut self, c: usize) {
        let mut blocks = std::mem::take(&mut self.level_buf);
        self.clients[c].stack.level_blocks_into(1, &mut blocks);
        for &b in &blocks {
            if !self.server.contains(b) {
                self.clients[c].stack.evict_cached(b, 1);
                self.recovery.stale_status_hits += 1;
            }
        }
        self.level_buf = blocks;
    }

    fn repair_residency(&mut self, c: usize) {
        let mut blocks = std::mem::take(&mut self.level_buf);
        self.clients[c].stack.level_blocks_into(0, &mut blocks);
        for &b in &blocks {
            if self.server.owner_of(b) == Some(c as u32) {
                self.server.remove(b);
                self.recovery.residency_violations_detected += 1;
                self.recovery.residency_violations_repaired += 1;
            }
        }
        self.level_buf = blocks;
    }

    /// Runs a reconciliation round for every client. After
    /// [`UlcMulti::settle`] + `reconcile`, the full
    /// [`UlcMulti::check_invariants`] set holds again even after an
    /// arbitrarily faulty run.
    ///
    /// The round is phased: every client's single-residency repair runs
    /// before any status-table sweep, so a repair purging a server block
    /// another client still believes in is seen by that client's sweep
    /// (otherwise two clients could need two alternating rounds).
    pub fn reconcile(&mut self) {
        for c in 0..self.clients.len() {
            self.recovery.reconciliation_rounds += 1;
            self.obs.on_reconcile(c);
            self.repair_residency(c);
        }
        for c in 0..self.clients.len() {
            self.nack_sweep(c);
        }
    }

    /// Runs the plane forward until no message is in flight, applying
    /// directives at the server and notices at the clients.
    ///
    /// # Panics
    ///
    /// Panics if the plane fails to drain (a plane bug: delays are
    /// bounded).
    pub fn settle(&mut self) {
        let mut guard = 0u64;
        loop {
            self.drain_server_inbox();
            for c in 0..self.clients.len() {
                self.deliver_notices(c);
            }
            if self.plane.in_flight() == 0 {
                break;
            }
            self.plane.tick();
            self.apply_crashes();
            guard += 1;
            assert!(guard < 1_000_000, "message plane failed to settle");
        }
    }
}

impl<P: MessagePlane> MultiLevelPolicy for UlcMulti<P> {
    fn access_into(&mut self, client: ClientId, block: BlockId, out: &mut AccessOutcome) {
        let c = client.as_usize();
        assert!(c < self.clients.len(), "unknown client {client}");
        self.obs.begin_access();
        self.plane.tick();
        self.apply_crashes();
        // Directives from any client that became due reach the server
        // first. Only a lossy plane can hold any: on a lossless one the
        // previous access's trailing drain emptied every `Down` queue.
        if self.plane.lossy() {
            self.drain_server_inbox();
        }
        #[cfg(feature = "debug_invariants")]
        ulc_hierarchy::plane::assert_down_links_drained(&self.plane, self.clients.len());
        if self.clients[c].dirty {
            self.clients[c].dirty = false;
            self.reconcile_client(c);
        }

        // The demand-read exchange for this reference.
        let fate = self.plane.rpc(c);
        self.obs.on_rpc(1);
        if fate != RpcFate::Delivered {
            self.obs.on_fault(1, block.raw());
        }

        // 1. Delayed notifications arrive with this request's response —
        //    so only when the response actually made it back.
        if fate == RpcFate::Delivered {
            self.deliver_notices(c);
        }

        // 2. Reconcile: the client may believe a block is at the server
        //    although another client took ownership and it was replaced.
        //    Only an authoritative response can tell it so (a NACK); on a
        //    lossy plane the NACK triggers a full status-table re-sync.
        //    One read of each table row serves the rest of the access.
        //    The re-sync runs only when the server lacks `block`, so the
        //    slot read stays exact through step 5; it evicts only level-1
        //    beliefs, so a level-0 belief still holds at step 3.
        let server_slot = self.server.slot(block);
        let in_server_actual = server_slot.is_some();
        let believed = self.clients[c].stack.cached_level(block);
        if believed == Some(1) && !in_server_actual && fate == RpcFate::Delivered {
            if self.plane.lossy() {
                self.reconcile_client(c);
            } else {
                self.clients[c].stack.evict_cached(block, 1);
            }
        }

        // 3. The actual retrieval source: a private hit needs no network;
        //    a server hit needs the reply to arrive.
        let hit_level = if believed == Some(0) {
            Some(0)
        } else if in_server_actual && fate == RpcFate::Delivered {
            Some(1)
        } else {
            None
        };
        match hit_level {
            Some(level) => self.obs.on_hit(level, block.raw()),
            None => self.obs.on_miss(block.raw()),
        }

        // 4. The client's placement decision. §3.2.1's initialisation rule
        //    applies globally: blocks with no usable history claim a
        //    server slot only while the server has free buffers (the
        //    client learns fullness from piggybacked responses — so only
        //    a delivered reply updates it). Blocks whose recency falls
        //    between the client's yardsticks always claim — that
        //    reallocation path is what Figure 5 illustrates, with gLRU
        //    arbitrating between clients.
        if self.claim_rule == ClaimRule::PaperStrict && fate == RpcFate::Delivered {
            self.clients[c]
                .stack
                .set_external_full(1, self.server.is_full());
        }
        let res = self.clients[c].stack.access_into(block, &mut self.scratch);
        for &(b, from, to) in &self.scratch.demoted {
            for m in from..to {
                self.obs.on_demote(m, b.raw());
            }
        }
        for &b in &self.scratch.evicted {
            self.obs.on_evict(1, b.raw());
        }
        let dest = match res.placed {
            Placement::Level(i) => i,
            Placement::Uncached => 2,
        };
        self.obs.on_retrieve(dest, block.raw());

        // 5. Direct the server accordingly.
        match res.placed {
            Placement::Level(0)
                // Retrieve(b, ·, 1): promotion into the private cache.
                // A block this client owns leaves the server (exclusive
                // caching, as in the single-client protocol). A block
                // owned by *another* client is shared: it stays cached at
                // the highest level among all clients' directions, so the
                // server copy is kept and refreshed for its owner. A lost
                // request never reached the server, so it serves nothing
                // and removes nothing.
                if fate != RpcFate::RequestLost => {
                    match server_slot {
                        Some(slot) if slot.owner == c as u32 => self.server.remove(block),
                        Some(slot) => self.server.refresh(slot.node),
                        None => {}
                    }
                }
            Placement::Level(1) => {
                // Retrieve(b, ·, 2): direct the server to cache it.
                self.plane.send(
                    c,
                    Direction::Down,
                    Message::CacheRequest {
                        block,
                        requester: c as u32,
                    },
                );
            }
            Placement::Level(_) | Placement::Uncached => {}
        }
        // Demote(b, 1, 2) instructions from the client's cascade.
        for i in 0..self.scratch.demoted.len() {
            let (demoted, _, to) = self.scratch.demoted[i];
            if to == 1 {
                self.plane.send(
                    c,
                    Direction::Down,
                    Message::Demote {
                        block: demoted,
                        mru: true,
                        owner: c as u32,
                    },
                );
            }
        }
        // On a lossless plane the directives land right now, in order.
        // Only this client's link can hold anything due: no other link
        // held anything due at access start (the leading drain delivered
        // it on a lossy plane, earlier trailing drains on a lossless one),
        // and this access sent `Down` traffic on its own link alone.
        self.drain_link(c);

        #[cfg(feature = "debug_invariants")]
        self.debug_validate();

        out.hit_level = hit_level;
        // The counters change hands, as in `UlcSingle`.
        std::mem::swap(&mut out.demotions, &mut self.scratch.demotions);
    }

    #[inline]
    fn prefetch(&self, client: ClientId, block: BlockId) {
        // Semantics-free: pulls the two table rows the upcoming access
        // will probe — the client stack's status row and the server's
        // gLRU slot — toward the CPU cache (DESIGN.md §5i).
        if let Some(cs) = self.clients.get(client.as_usize()) {
            cs.stack.prefetch(block);
        }
        self.server.slots.prefetch(block);
    }

    fn num_levels(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "ULC"
    }

    fn fault_summary(&self) -> FaultSummary {
        let mut s = self.recovery;
        self.plane.accounting().fold_into(&mut s);
        s
    }
}

impl<P: MessagePlane> Observe for UlcMulti<P> {
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
    use ulc_hierarchy::plane::{FaultScenario, FaultyPlane};
    use ulc_hierarchy::simulate;
    use ulc_trace::synthetic;

    fn b(i: u64) -> BlockId {
        BlockId::new(i)
    }

    #[test]
    fn optional_server_slots_cost_no_tag() {
        assert_eq!(std::mem::size_of::<ServerSlot>(), 12);
        assert_eq!(std::mem::size_of::<Option<ServerSlot>>(), 12);
    }

    #[test]
    fn single_client_degenerate_case_matches_expectations() {
        // One client: the loop that fits client+server splits cleanly.
        let t = synthetic::cs(50_000); // 2500-block loop
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(1, 1250, 1250));
        let stats = simulate(&mut p, &t, t.warmup_len());
        p.check_invariants();
        assert!(stats.hit_rates()[0] > 0.45, "h = {:?}", stats.hit_rates());
        assert!(stats.hit_rates()[1] > 0.45, "h = {:?}", stats.hit_rates());
        assert!(stats.demotion_rates()[0] < 0.01);
    }

    #[test]
    fn allocation_shifts_when_demand_shifts() {
        // The Figure 5 property: server buffers re-allocate dynamically.
        // Client 0 claims the whole server first; when client 1 becomes
        // the only active client, gLRU hands the allocation over.
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(2, 50, 500));
        for round in 0..4 {
            for i in 0..600u64 {
                p.access(ClientId::new(0), b(i));
            }
            let _ = round;
        }
        assert!(
            p.server_allocation()[0] > 400,
            "alloc = {:?}",
            p.server_allocation()
        );
        for round in 0..6 {
            for i in 0..600u64 {
                p.access(ClientId::new(1), b(10_000 + i));
            }
            let _ = round;
        }
        p.check_invariants();
        let alloc = p.server_allocation();
        assert!(
            alloc[1] > 3 * alloc[0].max(1),
            "active client should own most of the server: {alloc:?}"
        );
    }

    #[test]
    fn shared_block_stays_in_server_for_other_clients() {
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(2, 1, 4));
        let shared = b(100);
        // Client 1 places `shared` at the server (cold fill: client cache
        // takes the first block, server the next).
        p.access(ClientId::new(1), b(0));
        p.access(ClientId::new(1), shared);
        assert!(p.server.contains(shared));
        assert_eq!(p.server.owner_of(shared), Some(1));
        // Client 0 reads it twice; the second read promotes it into
        // client 0's private cache. Client 0 is NOT the owner, so the
        // server keeps its copy for client 1.
        let out = p.access(ClientId::new(0), shared);
        assert_eq!(out.hit_level, Some(1));
        let out = p.access(ClientId::new(0), shared);
        assert!(p.server.contains(shared), "non-owner promotion keeps copy");
        let _ = out;
        p.check_invariants();
    }

    #[test]
    fn owner_promotion_purges_server_copy() {
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(1, 1, 4));
        p.access(ClientId::new(0), b(0)); // client cache
        p.access(ClientId::new(0), b(1)); // server
        assert!(p.server.contains(b(1)));
        // Re-access b1: recency 1 (above Y1's stamp) → promote to L1.
        let out = p.access(ClientId::new(0), b(1));
        assert_eq!(out.hit_level, Some(1));
        assert!(!p.server.contains(b(1)), "owner promotion is exclusive");
        p.check_invariants();
    }

    #[test]
    fn replacement_notification_shrinks_owner_view() {
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(2, 1, 2));
        // Client 0 fills the server with 2 blocks.
        p.access(ClientId::new(0), b(0));
        p.access(ClientId::new(0), b(1));
        p.access(ClientId::new(0), b(2));
        assert_eq!(p.server_allocation(), vec![2, 0]);
        // Client 1's traffic replaces client 0's blocks.
        p.access(ClientId::new(1), b(10));
        p.access(ClientId::new(1), b(11));
        p.access(ClientId::new(1), b(12));
        assert!(p.server_allocation()[1] > 0);
        // Client 0's next access delivers its notifications and its stack
        // still validates.
        p.access(ClientId::new(0), b(0));
        p.check_invariants();
    }

    #[test]
    fn multi_client_traces_run_clean() {
        for (name, t, clients, ccap, scap) in [
            (
                "httpd",
                synthetic::httpd_multi(40_000),
                7usize,
                256usize,
                2048usize,
            ),
            (
                "openmail",
                synthetic::openmail(40_000, 24_000),
                6,
                512,
                2048,
            ),
            ("db2", synthetic::db2_multi(40_000, 16_000), 8, 256, 2048),
        ] {
            let mut p = UlcMulti::new(UlcMultiConfig::uniform(clients, ccap, scap));
            let stats = simulate(&mut p, &t, t.warmup_len());
            p.check_invariants();
            assert!(
                stats.total_hit_rate() > 0.05,
                "{name}: hit rate {:.3}",
                stats.total_hit_rate()
            );
            assert_eq!(
                stats.references as usize,
                t.len() - t.warmup_len(),
                "{name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn unknown_client_rejected() {
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(1, 2, 2));
        let _ = p.access(ClientId::new(3), b(0));
    }

    #[test]
    fn paper_strict_rule_rejects_cold_claims_into_a_full_server() {
        let mut p =
            UlcMulti::new(UlcMultiConfig::uniform(2, 1, 2).with_claim_rule(ClaimRule::PaperStrict));
        // Client 0 fills its cache and the server.
        p.access(ClientId::new(0), b(0));
        p.access(ClientId::new(0), b(1));
        p.access(ClientId::new(0), b(2));
        assert_eq!(p.server_allocation(), vec![2, 0]);
        // Client 1's cold blocks fill its own cache, then go L_out: the
        // server allocation is untouched (the starvation the dynamic rule
        // exists to avoid).
        for i in 10..30u64 {
            p.access(ClientId::new(1), b(i));
        }
        assert_eq!(p.server_allocation(), vec![2, 0]);
        p.check_invariants();
    }

    #[test]
    fn dynamic_rule_lets_cold_claims_displace_stale_owners() {
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(2, 1, 2));
        p.access(ClientId::new(0), b(0));
        p.access(ClientId::new(0), b(1));
        p.access(ClientId::new(0), b(2));
        for i in 10..30u64 {
            p.access(ClientId::new(1), b(i));
        }
        assert_eq!(p.server_allocation(), vec![0, 2]);
        p.check_invariants();
    }

    #[test]
    fn ownership_transfer_notifies_previous_owner() {
        // Two clients ping-pong ownership of a shared block; neither
        // client's view of its server share may inflate.
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(2, 1, 4));
        let shared = b(50);
        for round in 0..20 {
            for c in 0..2u32 {
                p.access(ClientId::new(c), b(c as u64)); // private L1 block
                p.access(ClientId::new(c), shared);
            }
            let _ = round;
        }
        p.check_invariants();
        // The shared block has exactly one owner; each client's believed
        // server share is bounded by what it actually owns plus in-flight
        // notices (drained on next access, so after one more round-trip
        // views are tight).
        for c in 0..2u32 {
            p.access(ClientId::new(c), b(c as u64));
        }
        let owned: usize = p.server_allocation().iter().sum();
        assert_eq!(owned, p.server_len());
        for (i, client) in p.clients.iter().enumerate() {
            assert!(
                client.stack.level_len(1) <= p.server_allocation()[i] + 1,
                "client {i} view {} vs owned {}",
                client.stack.level_len(1),
                p.server_allocation()[i]
            );
        }
    }

    #[test]
    fn zero_fault_plane_is_bit_identical() {
        let t = synthetic::httpd_multi(40_000);
        let mut reliable = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048));
        let mut faulty = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048))
            .with_plane(FaultyPlane::new(FaultScenario::zero(31)));
        let sr = simulate(&mut reliable, &t, t.warmup_len());
        let sf = simulate(&mut faulty, &t, t.warmup_len());
        assert_eq!(sr, sf);
    }

    #[test]
    fn one_tick_delay_lands_directives_and_notices_at_the_next_exchange() {
        // Every message is due exactly one tick after it is sent, so it
        // is never deliverable within the access that sent it: it must
        // be picked up by a later access's leading drain (directives, on
        // any client's access) or by the owner's next reply (notices).
        let scenario = FaultScenario::zero(3).with_delay(1.0, 1);
        let mut p =
            UlcMulti::new(UlcMultiConfig::uniform(2, 1, 1)).with_plane(FaultyPlane::new(scenario));
        let (c0, c1) = (ClientId::new(0), ClientId::new(1));
        p.access(c0, b(0)); // client 0's private cache
        p.access(c0, b(1)); // directs the server: Retrieve(b1, ·, 2)
        assert!(!p.server.contains(b(1)), "the directive is still in flight");
        assert_eq!(p.plane().queued_len(0, Direction::Down), 1);

        // Client 1's next access drains client 0's due directive first.
        p.access(c1, b(10));
        assert_eq!(p.server.owner_of(b(1)), Some(0));
        assert_eq!(p.plane().queued_len(0, Direction::Down), 0);

        // Client 1 claims the full server; its directive lands one access
        // later and replaces b1, whose notice is queued for client 0.
        p.access(c1, b(11));
        p.access(c1, b(12));
        assert_eq!(p.server_allocation(), vec![0, 1]);
        assert_eq!(p.plane().queued_len(0, Direction::Up), 1);
        // Due now, but only client 0's own reply carries it.
        p.access(c1, b(13));
        assert_eq!(p.plane().queued_len(0, Direction::Up), 1);
        assert_eq!(p.clients[0].stack.cached_level(b(1)), Some(1));

        let batches = p.plane().accounting().delivery_batches;
        p.access(c0, b(0));
        assert_eq!(p.plane().queued_len(0, Direction::Up), 0);
        assert_eq!(p.clients[0].stack.cached_level(b(1)), None);
        assert_eq!(p.plane().accounting().delivery_batches, batches + 1);
        p.settle();
        p.reconcile();
        p.check_invariants();
    }

    #[test]
    fn lossy_run_recovers_to_full_invariants() {
        let t = synthetic::httpd_multi(30_000);
        let scenario = FaultScenario::zero(7)
            .with_drop(0.05)
            .with_duplicate(0.02)
            .with_delay(0.05, 6);
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048))
            .with_plane(FaultyPlane::new(scenario));
        let stats = simulate(&mut p, &t, t.warmup_len());
        assert!(stats.faults.messages_dropped > 0);
        p.check_recoverable_invariants();
        p.settle();
        p.reconcile();
        p.check_invariants();
        let s = p.fault_summary();
        assert_eq!(
            s.residency_violations_detected, s.residency_violations_repaired,
            "every detected violation must be repaired"
        );
    }

    #[test]
    fn server_crash_forces_status_table_rebuild() {
        let t = synthetic::httpd_multi(30_000);
        let scenario = FaultScenario::zero(12).with_crash(15_000, 1);
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048))
            .with_plane(FaultyPlane::new(scenario));
        let stats = simulate(&mut p, &t, 0);
        assert_eq!(stats.faults.crashes, 1);
        assert!(
            stats.faults.reconciliation_rounds >= 7,
            "every client must rebuild its status table, rounds = {}",
            stats.faults.reconciliation_rounds
        );
        p.settle();
        p.reconcile();
        p.check_invariants();
        assert!(stats.total_hit_rate() > 0.0, "the hierarchy keeps serving");
    }
}
