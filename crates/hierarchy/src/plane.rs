//! The inter-level message plane: how `Retrieve` requests/replies,
//! `Demote` instructions, eviction notifications and reload orders travel
//! between the levels of the hierarchy.
//!
//! The paper's client-directed protocol (§3) silently assumes a perfect
//! interconnect: every message arrives, exactly once, in order, at once.
//! This module makes that assumption an explicit, swappable component.
//! [`MessagePlane`] is the transport interface; [`ReliablePlane`] is the
//! perfect transport (bit-identical to the historical in-line behaviour,
//! proven by the differential suite in `tests/plane_differential.rs`);
//! [`FaultyPlane`] is a deterministic chaos transport driven by the
//! vendored seeded RNG that can **drop**, **duplicate**, **delay**
//! (bounded reorder) or **burst-delay** messages per link, and inject
//! **level crash-and-cold-restart** events on a fixed schedule.
//!
//! ## Topology and time
//!
//! Links are star-shaped and indexed by a small integer: for single-client
//! hierarchies link `i` carries the traffic between the client side and
//! shared level `i`; for the multi-client ULC protocol link `c` is client
//! `c`'s connection to the server. Each link has a `Down` (toward the
//! deeper level) and an `Up` (toward the client) direction. Time is the
//! simulation's logical clock: one [`MessagePlane::tick`] per reference.
//!
//! Demand reads stay on the critical path, so they are modelled as a
//! synchronous RPC ([`MessagePlane::rpc`]) whose request or reply leg can
//! be lost; placement/demotion instructions and notifications are
//! asynchronous messages ([`MessagePlane::send`]) drained by the receiving
//! side with [`MessagePlane::deliver_into`].
//!
//! Determinism: [`FaultyPlane`] draws every fault decision from the
//! vendored `rand::rngs::StdRng` seeded by [`FaultScenario::seed`] (the
//! vendored `rand` offers no unseeded source), so a scenario replays
//! bit-identically.

use crate::stats::FaultSummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::str::FromStr;
use ulc_trace::BlockId;

/// Direction of travel on a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Toward the deeper level (requests, demotes, reload orders).
    Down,
    /// Toward the client side (replies, eviction notifications).
    Up,
}

/// One inter-level protocol message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Message {
    /// `Demote(b, i, i+1)`: physically ship a replacement victim down
    /// across a boundary. `mru` selects the insertion end at the receiver
    /// (the uniLRU insertion variants); `owner` is the demoting client.
    Demote {
        /// The demoted block.
        block: BlockId,
        /// Insert at the receiver's MRU end (`false` = LRU end).
        mru: bool,
        /// The client whose eviction produced the block.
        owner: u32,
    },
    /// ULC `Retrieve(b, ·, 2)`/`Demote(b, 1, 2)` directive: cache `block`
    /// at the server on behalf of `requester`.
    CacheRequest {
        /// The block to cache (or refresh) at the server.
        block: BlockId,
        /// The directing client, which becomes the block's owner.
        requester: u32,
    },
    /// Replacement notification travelling up: the receiver's share of the
    /// sending level shrank by `block`.
    EvictNotice {
        /// The replaced block.
        block: BlockId,
    },
    /// Eviction-based placement: the lower level should reload `block`
    /// from disk (instead of receiving a demotion).
    Reload {
        /// The block to reload.
        block: BlockId,
    },
}

/// Outcome of a synchronous demand-read RPC across one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcFate {
    /// Request and reply both arrived.
    Delivered,
    /// The request leg was lost: the lower level never saw it.
    RequestLost,
    /// The lower level processed the request but the reply was lost.
    ReplyLost,
}

/// Transport-level counters, maintained identically by both planes so a
/// zero-fault [`FaultyPlane`] run produces the exact same numbers as a
/// [`ReliablePlane`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneAccounting {
    /// Messages handed to [`MessagePlane::send`].
    pub sent: u64,
    /// Messages handed back by [`MessagePlane::deliver_into`].
    pub delivered: u64,
    /// Messages lost (fault drops, crash purges and queue overflow).
    pub dropped: u64,
    /// Extra copies injected by duplication faults.
    pub duplicated: u64,
    /// Messages that were assigned a delivery delay.
    pub delayed: u64,
    /// Messages delivered after a message sent later than them.
    pub reordered: u64,
    /// Messages dropped because a link queue hit its configured bound.
    pub overflow_drops: u64,
    /// Synchronous RPCs issued.
    pub rpcs: u64,
    /// RPCs that lost a leg.
    pub rpc_failures: u64,
    /// Crash events delivered to the protocol.
    pub crashes: u64,
    /// [`MessagePlane::deliver_into`] calls that handed back at least one
    /// message. Maintained identically by every plane regardless of its
    /// queue representation, so a zero-fault run on any plane produces
    /// the same count — the regression witness for the allocation-reuse
    /// rework of the queue internals.
    pub delivery_batches: u64,
}

impl PlaneAccounting {
    /// Folds the transport counters into a [`FaultSummary`].
    pub fn fold_into(&self, s: &mut FaultSummary) {
        s.messages_sent += self.sent;
        s.messages_delivered += self.delivered;
        s.messages_dropped += self.dropped;
        s.messages_duplicated += self.duplicated;
        s.messages_reordered += self.reordered;
        s.overflow_drops += self.overflow_drops;
        s.rpc_failures += self.rpc_failures;
        s.crashes += self.crashes;
        s.delivery_batches += self.delivery_batches;
    }

    /// Folds the transport-fault tallies into an observability handle's
    /// `plane_faults` counter (DESIGN.md §5h). Kept separate from the
    /// protocol-level `Fault` events so transport faults are not counted
    /// twice.
    pub fn observe_into(&self, obs: &mut ulc_obs::ObsHandle) {
        obs.add_plane_faults(
            self.dropped
                + self.duplicated
                + self.reordered
                + self.overflow_drops
                + self.rpc_failures
                + self.crashes,
        );
    }
}

/// A caller-owned, reusable buffer of delivered messages.
///
/// [`MessagePlane::deliver_into`] hands a link queue's deliverable
/// messages over in one of these. [`ReliablePlane`] swaps the whole queue
/// buffer with the batch's emptied one, so nothing is copied and the
/// buffers circulate between the queues and the pooled batches; a plane
/// that delivers message by message pushes into the batch instead.
/// Clearing keeps the capacity either way, so a protocol that pumps its
/// inbox through a pooled batch every access stops touching the allocator
/// once the circulating buffers have grown to the busiest delivery they
/// have seen (DESIGN.md §5f).
#[derive(Clone, Debug, Default)]
pub struct DeliveryBatch {
    msgs: Vec<Message>,
}

impl DeliveryBatch {
    /// An empty batch. Never allocates.
    pub fn new() -> Self {
        DeliveryBatch::default()
    }

    /// Number of messages in the batch.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// `true` when the batch holds no messages.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Empties the batch, retaining its capacity for reuse.
    pub fn clear(&mut self) {
        self.msgs.clear();
    }

    /// Appends one message (for [`MessagePlane::deliver_into`]
    /// implementations).
    pub fn push(&mut self, msg: Message) {
        self.msgs.push(msg);
    }

    /// The delivered messages, in delivery order.
    pub fn as_slice(&self) -> &[Message] {
        &self.msgs
    }
}

impl<'a> IntoIterator for &'a DeliveryBatch {
    type Item = &'a Message;
    type IntoIter = std::slice::Iter<'a, Message>;
    fn into_iter(self) -> Self::IntoIter {
        self.msgs.iter()
    }
}

/// The transport every inter-level message crosses.
///
/// Implementations must be deterministic: the same call sequence on the
/// same configuration must produce the same fates, orders and counters.
pub trait MessagePlane: std::fmt::Debug {
    /// Advances the logical clock by one reference.
    fn tick(&mut self);

    /// The current logical time (references since construction).
    fn now(&self) -> u64;

    /// Clears the caller-pooled `out` and appends the levels that
    /// crash-and-cold-restart at the current tick. The caller wipes the
    /// level; in-flight traffic should be purged with
    /// [`MessagePlane::purge_link`] as appropriate. Implementations must
    /// not allocate when no crash is due (the steady-state case).
    fn take_crashes_into(&mut self, out: &mut Vec<usize>);

    /// Enqueues an asynchronous message on `(link, dir)`.
    fn send(&mut self, link: usize, dir: Direction, msg: Message);

    /// Drains every message currently deliverable on `(link, dir)`, in
    /// delivery order, into the caller-pooled `out` (cleared first). The
    /// `delivery_batches` counter is bumped exactly when at least one
    /// message is handed back, identically across implementations.
    fn deliver_into(&mut self, link: usize, dir: Direction, out: &mut DeliveryBatch);

    /// Messages queued on `(link, dir)` (deliverable or still in flight),
    /// in queue order — for invariant checks, not for protocol use.
    fn queued(&self, link: usize, dir: Direction) -> Vec<Message>;

    /// Number of messages queued on `(link, dir)`, deliverable or still
    /// in flight — always equal to `self.queued(link, dir).len()`, but
    /// O(1) and allocation-free: the sharded commit walk consults it per
    /// consumed access to decide whether a delivery round is due, so it
    /// must be as cheap as an empty-queue check.
    fn queued_len(&self, link: usize, dir: Direction) -> usize;

    /// Issues a synchronous demand-read RPC across `link`.
    fn rpc(&mut self, link: usize) -> RpcFate;

    /// Drops everything queued on both directions of `link` (used when an
    /// endpoint crashes), counting the losses.
    fn purge_link(&mut self, link: usize);

    /// Total messages still queued across all links.
    fn in_flight(&self) -> usize;

    /// Whether this plane can ever lose, duplicate, delay or crash —
    /// protocols gate their recovery machinery on this so a lossless plane
    /// stays bit-identical to the historical in-line behaviour.
    ///
    /// A lossless plane (`false`) makes every message deliverable at the
    /// tick it was sent. A protocol that drains its own traffic before its
    /// access returns therefore starts every access with empty queues, and
    /// skips its leading drain when this is `false`.
    fn lossy(&self) -> bool;

    /// The transport counters so far.
    fn accounting(&self) -> PlaneAccounting;
}

/// The claim behind an engine's skipped leading drain: on a lossless
/// plane no `Down` message is queued on links `0..links` when an access
/// starts. A lossy plane may hold delayed traffic, so it is not checked.
///
/// # Panics
///
/// Panics if a lossless plane still holds `Down` traffic.
#[cfg(feature = "debug_invariants")]
pub fn assert_down_links_drained(plane: &impl MessagePlane, links: usize) {
    if plane.lossy() {
        return;
    }
    for link in 0..links {
        assert_eq!(
            plane.queued_len(link, Direction::Down),
            0,
            "lossless plane: `Down` traffic on link {link} outlived the access that sent it"
        );
    }
}

/// The perfect transport: every message is delivered exactly once, in
/// send order, within the access that queued it.
///
/// Queues live in one dense table of `Vec`s indexed by
/// `link * 2 + direction`, grown on demand (the plane learns its link
/// count from traffic). Delivery swaps a queue's buffer with the caller's
/// emptied batch buffer, so no message is copied: the drained slot gets
/// the batch's old buffer and keeps it for the next sends. The buffers
/// circulate between the queues and the pooled batches, and a
/// steady-state run allocates nothing per access.
#[derive(Clone, Debug, Default)]
pub struct ReliablePlane {
    queues: Vec<Vec<Message>>,
    now: u64,
    acct: PlaneAccounting,
}

/// Dense queue-table slot for `(link, dir)`.
#[inline]
fn slot(link: usize, dir: Direction) -> usize {
    link * 2 + dir as usize
}

impl ReliablePlane {
    /// A fresh reliable plane.
    pub fn new() -> Self {
        ReliablePlane::default()
    }
}

impl MessagePlane for ReliablePlane {
    fn tick(&mut self) {
        self.now += 1;
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn take_crashes_into(&mut self, out: &mut Vec<usize>) {
        // A reliable plane never crashes; just hand back an empty slice.
        out.clear();
    }

    fn send(&mut self, link: usize, dir: Direction, msg: Message) {
        self.acct.sent += 1;
        let s = slot(link, dir);
        if s >= self.queues.len() {
            // The first send on a link grows the queue table once; steady
            // state reuses it.
            self.queues.resize_with(s + 1, Vec::new);
        }
        self.queues[s].push(msg);
    }

    fn deliver_into(&mut self, link: usize, dir: Direction, out: &mut DeliveryBatch) {
        out.clear();
        let Some(q) = self.queues.get_mut(slot(link, dir)) else {
            return;
        };
        if q.is_empty() {
            return;
        }
        std::mem::swap(&mut out.msgs, q);
        self.acct.delivered += out.len() as u64;
        self.acct.delivery_batches += 1;
    }

    fn queued(&self, link: usize, dir: Direction) -> Vec<Message> {
        self.queues
            .get(slot(link, dir))
            .cloned()
            .unwrap_or_default()
    }

    fn queued_len(&self, link: usize, dir: Direction) -> usize {
        self.queues.get(slot(link, dir)).map_or(0, Vec::len)
    }

    fn rpc(&mut self, _link: usize) -> RpcFate {
        self.acct.rpcs += 1;
        RpcFate::Delivered
    }

    fn purge_link(&mut self, link: usize) {
        for dir in [Direction::Down, Direction::Up] {
            if let Some(q) = self.queues.get_mut(slot(link, dir)) {
                self.acct.dropped += q.len() as u64;
                q.clear();
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn lossy(&self) -> bool {
        false
    }

    fn accounting(&self) -> PlaneAccounting {
        self.acct
    }
}

/// Per-link fault rates for a [`FaultyPlane`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability an asynchronous message (or an RPC leg) is lost.
    pub drop: f64,
    /// Probability an asynchronous message is duplicated.
    pub duplicate: f64,
    /// Probability an asynchronous message is delayed.
    pub delay: f64,
    /// Maximum extra delivery delay in ticks (bounded reorder horizon).
    pub max_delay: u64,
    /// Every `burst_period` ticks the link stalls for `burst_len` ticks;
    /// messages sent during the stall are held until it ends. `0` = off.
    pub burst_period: u64,
    /// Length of each stall window in ticks.
    pub burst_len: u64,
}

impl LinkFaults {
    /// A perfectly healthy link.
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        duplicate: 0.0,
        delay: 0.0,
        max_delay: 0,
        burst_period: 0,
        burst_len: 0,
    };

    /// Whether this link can ever misbehave.
    pub fn lossy(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || (self.delay > 0.0 && self.max_delay > 0)
            || (self.burst_period > 0 && self.burst_len > 0)
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// One scheduled crash-and-cold-restart event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// Logical tick at which the level crashes.
    pub at: u64,
    /// Hierarchy level that crashes (0 = the client level).
    pub level: usize,
}

/// A deterministic fault scenario: seed, per-link fault rates and a crash
/// schedule. This is the unit the degradation sweeps and the chaos tests
/// are parameterised over.
///
/// # Examples
///
/// ```
/// use ulc_hierarchy::plane::FaultScenario;
///
/// let s: FaultScenario = "seed=7,drop=0.01,dup=0.005,delay=0.02,max_delay=8"
///     .parse()
///     .expect("well-formed scenario");
/// assert_eq!(s.seed, 7);
/// assert!((s.faults.drop - 0.01).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultScenario {
    /// Seed for the plane's deterministic RNG stream.
    pub seed: u64,
    /// Fault rates applied to every link without an override.
    pub faults: LinkFaults,
    /// Per-link overrides, as `(link, faults)` pairs.
    pub overrides: Vec<(usize, LinkFaults)>,
    /// Scheduled crash-and-cold-restart events.
    pub crashes: Vec<CrashEvent>,
    /// Bound on each `(link, direction)` queue; a send finding the queue
    /// full is dropped and counted as an overflow drop.
    pub queue_bound: usize,
}

impl FaultScenario {
    /// A scenario with no faults at all — [`FaultyPlane`] under this is
    /// bit-identical to [`ReliablePlane`].
    pub fn zero(seed: u64) -> Self {
        FaultScenario {
            seed,
            faults: LinkFaults::NONE,
            overrides: Vec::new(),
            crashes: Vec::new(),
            queue_bound: DEFAULT_QUEUE_BOUND,
        }
    }

    /// The standard mild scenario: 1% drop, 0.5% duplication, 2% delayed
    /// by up to 8 ticks — the regime the golden degradation test pins.
    pub fn mild(seed: u64) -> Self {
        FaultScenario {
            seed,
            faults: LinkFaults {
                drop: 0.01,
                duplicate: 0.005,
                delay: 0.02,
                max_delay: 8,
                burst_period: 0,
                burst_len: 0,
            },
            overrides: Vec::new(),
            crashes: Vec::new(),
            queue_bound: DEFAULT_QUEUE_BOUND,
        }
    }

    /// Sets the uniform drop rate.
    #[must_use]
    pub fn with_drop(mut self, p: f64) -> Self {
        self.faults.drop = p;
        self
    }

    /// Sets the uniform duplication rate.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.faults.duplicate = p;
        self
    }

    /// Sets the uniform delay rate and reorder horizon.
    #[must_use]
    pub fn with_delay(mut self, p: f64, max_delay: u64) -> Self {
        self.faults.delay = p;
        self.faults.max_delay = max_delay;
        self
    }

    /// Adds a crash-and-cold-restart of `level` at tick `at`.
    #[must_use]
    pub fn with_crash(mut self, at: u64, level: usize) -> Self {
        self.crashes.push(CrashEvent { at, level });
        self
    }

    /// Overrides the fault rates of one link.
    #[must_use]
    pub fn with_link(mut self, link: usize, faults: LinkFaults) -> Self {
        self.overrides.push((link, faults));
        self
    }

    /// The fault rates in force on `link`.
    pub fn faults_for(&self, link: usize) -> LinkFaults {
        self.overrides
            .iter()
            .rev()
            .find(|(l, _)| *l == link)
            .map(|(_, f)| *f)
            .unwrap_or(self.faults)
    }

    /// Whether the scenario can perturb anything.
    pub fn lossy(&self) -> bool {
        self.faults.lossy()
            || self.overrides.iter().any(|(_, f)| f.lossy())
            || !self.crashes.is_empty()
    }
}

/// Default per-queue bound: far above anything a healthy run queues, low
/// enough to keep burst-delayed backlogs finite.
pub const DEFAULT_QUEUE_BOUND: usize = 4096;

impl FromStr for FaultScenario {
    type Err = String;

    /// Parses the compact scenario DSL used on the `sweep` command line:
    ///
    /// ```text
    /// seed=7,drop=0.01,dup=0.005,delay=0.02,max_delay=8,burst=1000/50,crash=5000@1;9000@1,queue=4096
    /// ```
    ///
    /// Every key is optional; unknown keys are an error.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = FaultScenario::zero(0);
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}`: expected key=value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("`{part}`: {e}");
            match key {
                "seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
                "drop" => out.faults.drop = value.parse().map_err(|e| bad(&e))?,
                "dup" => out.faults.duplicate = value.parse().map_err(|e| bad(&e))?,
                "delay" => out.faults.delay = value.parse().map_err(|e| bad(&e))?,
                "max_delay" => out.faults.max_delay = value.parse().map_err(|e| bad(&e))?,
                "queue" => out.queue_bound = value.parse().map_err(|e| bad(&e))?,
                "burst" => {
                    let (p, l) = value
                        .split_once('/')
                        .ok_or_else(|| format!("`{part}`: expected burst=period/len"))?;
                    out.faults.burst_period = p.parse().map_err(|e| bad(&e))?;
                    out.faults.burst_len = l.parse().map_err(|e| bad(&e))?;
                }
                "crash" => {
                    for ev in value.split(';') {
                        let (at, level) = ev
                            .split_once('@')
                            .ok_or_else(|| format!("`{part}`: expected crash=tick@level"))?;
                        out.crashes.push(CrashEvent {
                            at: at.parse().map_err(|e| bad(&e))?,
                            level: level.parse().map_err(|e| bad(&e))?,
                        });
                    }
                }
                other => return Err(format!("unknown scenario key `{other}`")),
            }
        }
        let rates = [out.faults.drop, out.faults.duplicate, out.faults.delay];
        if rates.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err("fault rates must lie in [0, 1]".to_string());
        }
        Ok(out)
    }
}

/// The deterministic chaos transport.
///
/// All randomness comes from the vendored seeded `StdRng`; queues are
/// `BTreeMap`s keyed by `(due_tick, sequence)`, so delivery order is a
/// pure function of the scenario.
#[derive(Clone, Debug)]
pub struct FaultyPlane {
    scenario: FaultScenario,
    rng: StdRng,
    now: u64,
    next_seq: u64,
    queues: BTreeMap<(usize, Direction), BTreeMap<(u64, u64), Message>>,
    /// Highest sequence number delivered so far per queue, for reorder
    /// detection.
    delivered_high: BTreeMap<(usize, Direction), u64>,
    crash_cursor: usize,
    acct: PlaneAccounting,
}

impl FaultyPlane {
    /// Builds the plane for `scenario`.
    pub fn new(mut scenario: FaultScenario) -> Self {
        scenario.crashes.sort_by_key(|c| c.at);
        let rng = StdRng::seed_from_u64(scenario.seed);
        FaultyPlane {
            rng,
            now: 0,
            next_seq: 0,
            queues: BTreeMap::new(),
            delivered_high: BTreeMap::new(),
            crash_cursor: 0,
            acct: PlaneAccounting::default(),
            scenario,
        }
    }

    /// The scenario this plane replays.
    pub fn scenario(&self) -> &FaultScenario {
        &self.scenario
    }

    /// Delivery time for a message sent now on a link with `faults`.
    /// Also updates the delayed counter.
    fn due_time(&mut self, faults: &LinkFaults) -> u64 {
        let mut due = self.now;
        if faults.burst_period > 0 && faults.burst_len > 0 {
            let phase = self.now % faults.burst_period;
            if phase < faults.burst_len {
                // Stalled link: held until the burst window closes.
                due = self.now - phase + faults.burst_len;
            }
        }
        if faults.delay > 0.0 && faults.max_delay > 0 && self.rng.gen_bool(faults.delay) {
            due += 1 + self.rng.gen_range(0..faults.max_delay);
        }
        if due > self.now {
            self.acct.delayed += 1;
        }
        due
    }

    fn enqueue(&mut self, link: usize, dir: Direction, due: u64, msg: Message) {
        let q = self.queues.entry((link, dir)).or_default();
        if q.len() >= self.scenario.queue_bound {
            self.acct.overflow_drops += 1;
            self.acct.dropped += 1;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        q.insert((due, seq), msg);
    }
}

impl MessagePlane for FaultyPlane {
    fn tick(&mut self) {
        self.now += 1;
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn take_crashes_into(&mut self, out: &mut Vec<usize>) {
        out.clear();
        while let Some(ev) = self.scenario.crashes.get(self.crash_cursor) {
            if ev.at > self.now {
                break;
            }
            out.push(ev.level);
            self.crash_cursor += 1;
            self.acct.crashes += 1;
        }
    }

    fn send(&mut self, link: usize, dir: Direction, msg: Message) {
        self.acct.sent += 1;
        let faults = self.scenario.faults_for(link);
        if faults.drop > 0.0 && self.rng.gen_bool(faults.drop) {
            self.acct.dropped += 1;
            return;
        }
        let due = self.due_time(&faults);
        self.enqueue(link, dir, due, msg);
        if faults.duplicate > 0.0 && self.rng.gen_bool(faults.duplicate) {
            self.acct.duplicated += 1;
            let dup_due = self.due_time(&faults);
            self.enqueue(link, dir, dup_due, msg);
        }
    }

    fn deliver_into(&mut self, link: usize, dir: Direction, out: &mut DeliveryBatch) {
        out.clear();
        let Some(q) = self.queues.get_mut(&(link, dir)) else {
            return;
        };
        // Everything due at or before `now` is deliverable. Due entries
        // are popped off the front in place: the still-queued tail keeps
        // its nodes, where the previous split_off + replace rebuilt the
        // map and reallocated every surviving entry on every call. The
        // popped messages land in the caller's recycled batch.
        let high = self.delivered_high.entry((link, dir)).or_insert(0);
        while q
            .first_key_value()
            .is_some_and(|(&(due, _), _)| due <= self.now)
        {
            let ((_, seq), msg) = q.pop_first().expect("peeked entry is present");
            if seq < *high {
                self.acct.reordered += 1;
            }
            *high = (*high).max(seq);
            self.acct.delivered += 1;
            out.push(msg);
        }
        if !out.is_empty() {
            self.acct.delivery_batches += 1;
        }
    }

    fn queued(&self, link: usize, dir: Direction) -> Vec<Message> {
        self.queues
            .get(&(link, dir))
            .map(|q| q.values().copied().collect())
            .unwrap_or_default()
    }

    fn queued_len(&self, link: usize, dir: Direction) -> usize {
        self.queues.get(&(link, dir)).map_or(0, BTreeMap::len)
    }

    fn rpc(&mut self, link: usize) -> RpcFate {
        self.acct.rpcs += 1;
        let faults = self.scenario.faults_for(link);
        if faults.drop > 0.0 {
            if self.rng.gen_bool(faults.drop) {
                self.acct.rpc_failures += 1;
                return RpcFate::RequestLost;
            }
            if self.rng.gen_bool(faults.drop) {
                self.acct.rpc_failures += 1;
                return RpcFate::ReplyLost;
            }
        }
        RpcFate::Delivered
    }

    fn purge_link(&mut self, link: usize) {
        for dir in [Direction::Down, Direction::Up] {
            if let Some(q) = self.queues.get_mut(&(link, dir)) {
                self.acct.dropped += q.len() as u64;
                q.clear();
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    fn lossy(&self) -> bool {
        self.scenario.lossy()
    }

    fn accounting(&self) -> PlaneAccounting {
        self.acct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockId {
        BlockId::new(i)
    }

    fn demote(i: u64) -> Message {
        Message::Demote {
            block: b(i),
            mru: true,
            owner: 0,
        }
    }

    /// Everything deliverable on `(link, dir)`, drained through a fresh
    /// pooled batch.
    fn drain(p: &mut impl MessagePlane, link: usize, dir: Direction) -> Vec<Message> {
        let mut batch = DeliveryBatch::new();
        p.deliver_into(link, dir, &mut batch);
        batch.as_slice().to_vec()
    }

    /// The levels crashing at the current tick, through a buffer holding
    /// stale contents that `take_crashes_into` must clear.
    fn crashes(p: &mut impl MessagePlane) -> Vec<usize> {
        let mut out = vec![usize::MAX];
        p.take_crashes_into(&mut out);
        out
    }

    #[test]
    fn reliable_plane_is_fifo_and_instant() {
        let mut p = ReliablePlane::new();
        p.tick();
        p.send(0, Direction::Down, demote(1));
        p.send(0, Direction::Down, demote(2));
        assert_eq!(p.in_flight(), 2);
        let out = drain(&mut p, 0, Direction::Down);
        assert_eq!(out, vec![demote(1), demote(2)]);
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.accounting().sent, 2);
        assert_eq!(p.accounting().delivered, 2);
        assert_eq!(p.rpc(0), RpcFate::Delivered);
        assert!(!p.lossy());
    }

    #[test]
    fn zero_fault_faulty_plane_matches_reliable_counters() {
        let mut r = ReliablePlane::new();
        let mut f = FaultyPlane::new(FaultScenario::zero(9));
        for tick in 0..200u64 {
            r.tick();
            f.tick();
            assert!(crashes(&mut f).is_empty());
            for m in 0..(tick % 3) {
                r.send(0, Direction::Down, demote(m));
                f.send(0, Direction::Down, demote(m));
            }
            assert_eq!(r.rpc(0), f.rpc(0));
            assert_eq!(
                drain(&mut r, 0, Direction::Down),
                drain(&mut f, 0, Direction::Down)
            );
        }
        assert_eq!(r.accounting(), f.accounting());
        assert!(!f.lossy());
    }

    #[test]
    fn drop_rate_one_loses_everything() {
        let mut f = FaultyPlane::new(FaultScenario::zero(1).with_drop(1.0));
        f.tick();
        for i in 0..50 {
            f.send(0, Direction::Down, demote(i));
        }
        assert!(drain(&mut f, 0, Direction::Down).is_empty());
        assert_eq!(f.accounting().dropped, 50);
        assert!(matches!(
            f.rpc(0),
            RpcFate::RequestLost | RpcFate::ReplyLost
        ));
        assert!(f.lossy());
    }

    #[test]
    fn duplication_injects_extra_copies() {
        let mut f = FaultyPlane::new(FaultScenario::zero(2).with_duplicate(1.0));
        f.tick();
        f.send(0, Direction::Down, demote(7));
        let out = drain(&mut f, 0, Direction::Down);
        assert_eq!(out, vec![demote(7), demote(7)]);
        assert_eq!(f.accounting().duplicated, 1);
    }

    #[test]
    fn delay_is_bounded_and_reorders() {
        let mut f = FaultyPlane::new(FaultScenario::zero(3).with_delay(1.0, 4));
        f.tick();
        f.send(0, Direction::Down, demote(1));
        f.send(0, Direction::Down, demote(2));
        // Nothing is deliverable at the send tick (delay >= 1).
        assert!(drain(&mut f, 0, Direction::Down).is_empty());
        let mut got = Vec::new();
        for _ in 0..6 {
            f.tick();
            got.extend(drain(&mut f, 0, Direction::Down));
        }
        got.sort_by_key(|m| match m {
            Message::Demote { block, .. } => block.raw(),
            _ => 0,
        });
        assert_eq!(got, vec![demote(1), demote(2)], "bounded delay delivers");
        assert_eq!(f.accounting().delayed, 2);
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn burst_window_holds_messages_until_it_closes() {
        let mut s = FaultScenario::zero(4);
        s.faults.burst_period = 10;
        s.faults.burst_len = 5;
        let mut f = FaultyPlane::new(s);
        // tick -> now = 1: inside the first burst window [0, 5).
        f.tick();
        f.send(0, Direction::Down, demote(1));
        assert!(drain(&mut f, 0, Direction::Down).is_empty());
        for _ in 0..3 {
            f.tick();
            assert!(drain(&mut f, 0, Direction::Down).is_empty());
        }
        f.tick(); // now = 5: window closed
        assert_eq!(drain(&mut f, 0, Direction::Down), vec![demote(1)]);
    }

    #[test]
    fn queue_bound_drops_overflow() {
        let mut s = FaultScenario::zero(5).with_delay(1.0, 1000);
        s.queue_bound = 8;
        let mut f = FaultyPlane::new(s);
        f.tick();
        for i in 0..20 {
            f.send(0, Direction::Down, demote(i));
        }
        assert_eq!(f.in_flight(), 8);
        assert_eq!(f.accounting().overflow_drops, 12);
    }

    #[test]
    fn crash_schedule_fires_once_in_order() {
        let s = FaultScenario::zero(6).with_crash(3, 1).with_crash(1, 0);
        let mut f = FaultyPlane::new(s);
        f.tick();
        assert_eq!(crashes(&mut f), vec![0]);
        assert!(crashes(&mut f).is_empty());
        f.tick();
        assert!(crashes(&mut f).is_empty());
        f.tick();
        assert_eq!(crashes(&mut f), vec![1]);
        assert_eq!(f.accounting().crashes, 2);
    }

    #[test]
    fn purge_counts_drops() {
        let mut f = FaultyPlane::new(FaultScenario::zero(7).with_delay(1.0, 50));
        f.tick();
        f.send(2, Direction::Down, demote(1));
        f.send(2, Direction::Up, Message::EvictNotice { block: b(9) });
        f.purge_link(2);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.accounting().dropped, 2);
    }

    #[test]
    fn scenario_dsl_round_trip() {
        let s: FaultScenario =
            "seed=11,drop=0.01,dup=0.005,delay=0.02,max_delay=8,burst=1000/50,crash=500@1;900@0,queue=128"
                .parse()
                .expect("well-formed");
        assert_eq!(s.seed, 11);
        assert!((s.faults.drop - 0.01).abs() < 1e-12);
        assert!((s.faults.duplicate - 0.005).abs() < 1e-12);
        assert_eq!(s.faults.max_delay, 8);
        assert_eq!(s.faults.burst_period, 1000);
        assert_eq!(s.faults.burst_len, 50);
        assert_eq!(s.crashes.len(), 2);
        assert_eq!(s.queue_bound, 128);
        assert!(s.lossy());
    }

    #[test]
    fn scenario_dsl_rejects_garbage() {
        assert!("frobnicate=1".parse::<FaultScenario>().is_err());
        assert!("drop=1.5".parse::<FaultScenario>().is_err());
        assert!("crash=oops".parse::<FaultScenario>().is_err());
        assert!("seed".parse::<FaultScenario>().is_err());
    }

    #[test]
    fn same_seed_same_fates() {
        let run = |seed: u64| {
            let mut f = FaultyPlane::new(FaultScenario::mild(seed));
            let mut log = Vec::new();
            for i in 0..500 {
                f.tick();
                f.send(0, Direction::Down, demote(i));
                log.push(drain(&mut f, 0, Direction::Down).len());
                log.push(match f.rpc(0) {
                    RpcFate::Delivered => 0,
                    RpcFate::RequestLost => 1,
                    RpcFate::ReplyLost => 2,
                });
            }
            log
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn link_overrides_take_precedence() {
        let s = FaultScenario::zero(8).with_link(
            3,
            LinkFaults {
                drop: 1.0,
                ..LinkFaults::NONE
            },
        );
        let mut f = FaultyPlane::new(s);
        f.tick();
        f.send(0, Direction::Down, demote(1));
        f.send(3, Direction::Down, demote(2));
        assert_eq!(drain(&mut f, 0, Direction::Down).len(), 1);
        assert!(drain(&mut f, 3, Direction::Down).is_empty());
    }
}
