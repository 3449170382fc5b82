//! [`RingRecorder`], the live sink the `enabled` feature attaches behind
//! [`crate::ObsHandle`]: one [`RingLog`] for the event stream, one
//! [`MetricsRegistry`] for exact whole-run tallies, and optionally one
//! [`TimelineSampler`] mirroring every tally into the window of the
//! current tick (DESIGN.md §5j).
//! Construction allocates once; recording never does — the alloc gate
//! (`crates/bench/tests/alloc_gate.rs`) replays settled engines with a
//! recorder attached and requires zero allocations.
//!
//! Each access is one causal *span* (see [`crate::span`]): RPC rounds,
//! demotion batches and the modeled span cost batch up inside the open
//! access and flush into the histograms — attributed to the window the
//! access started in — when the span closes at the next `begin_access`
//! or at `finish`.

use crate::event::{Event, EventKind};
use crate::metrics::{CounterId, HistId, MetricsRegistry};
use crate::ring::RingLog;
use crate::span::SpanCostModel;
use crate::timeline::TimelineSampler;

/// Applies one event's tallies to a registry — shared between the
/// whole-run registry and the current timeline window so their contents
/// can never drift apart.
#[inline]
fn tally_event(m: &mut MetricsRegistry, kind: EventKind, level: usize) {
    match kind {
        EventKind::Hit => {
            m.inc(CounterId::Hits);
            if let Some(row) = m.level_mut(level) {
                row.hits += 1;
            }
        }
        EventKind::Miss => m.inc(CounterId::Misses),
        EventKind::Retrieve => {
            m.inc(CounterId::Retrieves);
            if let Some(row) = m.level_mut(level) {
                row.retrieves += 1;
            }
        }
        EventKind::Demote => {
            m.inc(CounterId::Demotions);
            if let Some(row) = m.level_mut(level) {
                row.demotions += 1;
            }
        }
        EventKind::Evict => {
            m.inc(CounterId::Evictions);
            if let Some(row) = m.level_mut(level) {
                row.evictions += 1;
            }
        }
        EventKind::Reconcile => m.inc(CounterId::Reconciles),
        EventKind::Fault => m.inc(CounterId::Faults),
    }
}

/// Live recorder: ring-buffer event log + metrics registry + optional
/// windowed timeline.
#[derive(Clone, Debug)]
pub struct RingRecorder {
    pub(crate) log: RingLog,
    pub(crate) metrics: MetricsRegistry,
    timeline: Option<Box<TimelineSampler>>,
    cost_model: SpanCostModel,
    tick: u64,
    pending_rpcs: u64,
    pending_demotes: u64,
    pending_span_cost: u64,
}

impl RingRecorder {
    /// Creates a recorder for a `levels`-deep hierarchy with an event
    /// ring of `capacity` slots. This is the only allocating call
    /// (until [`RingRecorder::enable_timeline`], which allocates once
    /// more).
    pub fn new(levels: usize, capacity: usize) -> Self {
        RingRecorder {
            log: RingLog::new(capacity),
            metrics: MetricsRegistry::new(levels),
            timeline: None,
            cost_model: SpanCostModel::default(),
            tick: 0,
            pending_rpcs: 0,
            pending_demotes: 0,
            pending_span_cost: 0,
        }
    }

    /// Attaches a pre-allocated windowed timeline (`capacity` windows
    /// of `window_len` ticks). Call before the run starts, or window
    /// sums will miss the events recorded earlier.
    pub fn enable_timeline(&mut self, window_len: u64, capacity: usize) {
        self.timeline = Some(Box::new(TimelineSampler::new(
            self.metrics.levels(),
            window_len,
            capacity,
        )));
    }

    /// The event log.
    pub fn log(&self) -> &RingLog {
        &self.log
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The attached timeline, if any.
    pub fn timeline(&self) -> Option<&TimelineSampler> {
        self.timeline.as_deref()
    }

    /// Current tick: the 1-based position of the last access begun.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Adds `n` to a counter in the whole-run registry and, when a
    /// timeline is attached, in the current window — used for tallies
    /// that arrive from outside the event stream (plane fault
    /// accounting).
    pub fn add_counter(&mut self, id: CounterId, n: u64) {
        self.metrics.add(id, n);
        if let Some(t) = self.timeline.as_deref_mut() {
            t.sample_window().add(id, n);
        }
    }

    /// Flushes one batched value. Only `span_end` calls this, and
    /// `begin_access` runs it before moving the timeline cursor, so the
    /// current window is the one the span began in.
    #[inline]
    fn observe_pending(&mut self, id: HistId, value: u64) {
        self.metrics.observe(id, value);
        if let Some(t) = self.timeline.as_deref_mut() {
            t.sample_window().observe(id, value);
        }
    }

    /// Marks the start of one reference; the previous access's span is
    /// closed here ([`RingRecorder::span_end`]).
    #[inline]
    pub fn begin_access(&mut self) {
        self.span_end();
        self.tick += 1;
        self.metrics.inc(CounterId::Accesses);
        if let Some(t) = self.timeline.as_deref_mut() {
            t.set_tick(self.tick);
            t.sample_window().inc(CounterId::Accesses);
        }
    }

    /// Records one structured event (see [`EventKind`] for the `level`
    /// convention of each kind).
    #[inline]
    pub fn record_event(&mut self, kind: EventKind, level: usize, block: u64) {
        self.log.push(Event {
            tick: self.tick,
            block,
            level: level as u16,
            kind,
        });
        tally_event(&mut self.metrics, kind, level);
        if let Some(t) = self.timeline.as_deref_mut() {
            tally_event(t.sample_window(), kind, level);
        }
        match kind {
            // A demotion across boundary `level` enters level + 1.
            EventKind::Demote => {
                self.pending_demotes += 1;
                self.pending_span_cost += self.cost_model.weight(level + 1);
            }
            // A miss carries the `L_out` sentinel (`num_levels`) as its
            // level: the span pays for the out-of-hierarchy fetch.
            EventKind::Miss => self.pending_span_cost += self.cost_model.weight(level),
            // Recovery reconciliation walks the L1/L2 boundary.
            EventKind::Reconcile => self.pending_span_cost += self.cost_model.weight(1),
            _ => {}
        }
    }

    /// Counts one synchronous RPC round-trip within the current access,
    /// addressed to `to_level` (the level the round-trip reaches).
    #[inline]
    pub fn record_rpc(&mut self, to_level: usize) {
        self.metrics.inc(CounterId::Rpcs);
        if let Some(t) = self.timeline.as_deref_mut() {
            t.sample_window().inc(CounterId::Rpcs);
        }
        self.pending_rpcs += 1;
        self.pending_span_cost += self.cost_model.weight(to_level);
    }

    /// Counts a demotion absorbed by a demotion buffer at `boundary`.
    #[inline]
    pub fn record_buffered(&mut self, boundary: usize) {
        self.metrics.inc(CounterId::DemotionsBuffered);
        if let Some(row) = self.metrics.level_mut(boundary) {
            row.buffered += 1;
        }
        if let Some(t) = self.timeline.as_deref_mut() {
            let w = t.sample_window();
            w.inc(CounterId::DemotionsBuffered);
            if let Some(row) = w.level_mut(boundary) {
                row.buffered += 1;
            }
        }
    }

    /// Closes the current access's span: flushes the batched RPC-round,
    /// demote-batch and span-cost tallies into their histograms,
    /// attributed to the window the span began in. Idempotent.
    #[inline]
    pub fn span_end(&mut self) {
        if self.pending_rpcs > 0 {
            let n = self.pending_rpcs;
            self.pending_rpcs = 0;
            self.observe_pending(HistId::RpcRounds, n);
        }
        if self.pending_demotes > 0 {
            let n = self.pending_demotes;
            self.pending_demotes = 0;
            self.observe_pending(HistId::DemoteBatch, n);
        }
        if self.pending_span_cost > 0 {
            let c = self.pending_span_cost;
            self.pending_span_cost = 0;
            self.observe_pending(HistId::SpanCost, c);
        }
    }

    /// Flushes any batching state at end of run.
    #[inline]
    pub fn finish(&mut self) {
        self.span_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_flush_on_next_access_and_finish() {
        let mut r = RingRecorder::new(2, 16);
        r.begin_access();
        r.record_rpc(1);
        r.record_rpc(1);
        r.record_event(EventKind::Demote, 0, 7);
        // Nothing flushed yet: the access is still open.
        assert_eq!(r.metrics().hist(HistId::RpcRounds).count(), 0);
        r.begin_access();
        assert_eq!(r.metrics().hist(HistId::RpcRounds).count(), 1);
        assert_eq!(r.metrics().hist(HistId::RpcRounds).total(), 2);
        assert_eq!(r.metrics().hist(HistId::DemoteBatch).total(), 1);
        r.record_event(EventKind::Demote, 0, 8);
        r.finish();
        assert_eq!(r.metrics().hist(HistId::DemoteBatch).count(), 2);
        assert_eq!(r.ticks(), 2);
        assert_eq!(r.metrics().counter(CounterId::Accesses), 2);
    }

    #[test]
    fn events_update_counters_and_levels() {
        let mut r = RingRecorder::new(2, 16);
        r.begin_access();
        r.record_event(EventKind::Hit, 1, 3);
        r.record_event(EventKind::Retrieve, 0, 3);
        r.record_event(EventKind::Miss, 2, 4);
        r.record_event(EventKind::Evict, 1, 5);
        r.record_buffered(0);
        assert_eq!(r.metrics().counter(CounterId::Hits), 1);
        assert_eq!(r.metrics().level(1).hits, 1);
        assert_eq!(r.metrics().level(0).retrieves, 1);
        assert_eq!(r.metrics().counter(CounterId::Misses), 1);
        assert_eq!(r.metrics().level(1).evictions, 1);
        assert_eq!(r.metrics().level(0).buffered, 1);
        assert_eq!(r.log().len(), 4);
    }

    #[test]
    fn span_cost_weights_rpcs_demotes_misses_and_reconciles() {
        let mut r = RingRecorder::new(2, 16);
        // Access 1: miss (L_out sentinel 2 → weight 4), one RPC to L2
        // (weight 2), one demotion across boundary 0 (enters L1+1=L2 at
        // weight 2), one reconcile round (weight 2). Total 10.
        r.begin_access();
        r.record_event(EventKind::Miss, 2, 4);
        r.record_rpc(1);
        r.record_event(EventKind::Demote, 0, 7);
        r.record_event(EventKind::Reconcile, 0, 0);
        r.finish();
        let h = r.metrics().hist(HistId::SpanCost);
        assert_eq!(h.count(), 1);
        assert_eq!(h.total(), 4 + 2 + 2 + 2);
        // A pure hit access costs nothing and records no span sample.
        r.begin_access();
        r.record_event(EventKind::Hit, 0, 4);
        r.finish();
        assert_eq!(r.metrics().hist(HistId::SpanCost).count(), 1);
    }

    #[test]
    fn timeline_mirrors_every_tally_and_sums_exactly() {
        let mut r = RingRecorder::new(2, 64);
        r.enable_timeline(2, 4);
        for i in 0..6u64 {
            r.begin_access();
            if i % 2 == 0 {
                r.record_event(EventKind::Hit, 0, i);
            } else {
                r.record_event(EventKind::Miss, 2, i);
                r.record_rpc(1);
                r.record_event(EventKind::Retrieve, 0, i);
            }
        }
        r.finish();
        let t = r.timeline().expect("timeline attached");
        assert_eq!(t.num_windows(), 3);
        assert_eq!(t.summed(), *r.metrics());
        // Each window saw one hit and one miss.
        for w in t.windows() {
            assert_eq!(w.counter(CounterId::Hits), 1);
            assert_eq!(w.counter(CounterId::Misses), 1);
        }
    }

    #[test]
    fn batched_hists_flush_into_the_window_that_generated_them() {
        let mut r = RingRecorder::new(2, 64);
        r.enable_timeline(1, 2);
        r.begin_access(); // tick 1 → window 0
        r.record_rpc(1);
        r.begin_access(); // tick 2 → window 1; flushes access 1's batch
        r.finish();
        let t = r.timeline().expect("timeline attached");
        assert_eq!(t.window(0).hist(HistId::RpcRounds).count(), 1);
        assert_eq!(t.window(1).hist(HistId::RpcRounds).count(), 0);
        assert_eq!(t.summed(), *r.metrics());
    }
}
