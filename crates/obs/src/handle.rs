//! `ObsHandle` — the engine-facing switch of the observability plane.
//!
//! Every instrumented engine owns one `ObsHandle` and calls its `on_*`
//! hooks from `access_into`. Every hook has one body: it asks
//! [`ObsHandle::recorder_mut`] for the attached recorder and records
//! into it when there is one.
//!
//! * **`enabled` feature off** (the default): the handle's only field is
//!   compiled out, so it is zero-sized and `recorder_mut` is a constant
//!   `None`. The hooks fold away entirely — no branch, no field, no
//!   cost — so the uninstrumented hot path carries no trace of them.
//! * **`enabled` feature on**: the field is an
//!   `Option<Box<RingRecorder>>`. Until [`ObsHandle::enable`] is called
//!   it is `None` and every hook is one well-predicted branch; after
//!   it, hooks record into the pre-allocated ring and registry without
//!   allocating.
//!
//! The [`Observe`] trait is how generic drivers (the alloc gate, the
//! flight export, the conservation suites, `DemotionBuffer`) reach the handle
//! of a policy they only know as `P: MultiLevelPolicy + Observe`.

use crate::event::EventKind;
use crate::metrics::CounterId;
use crate::recorder::RingRecorder;

/// The engine-facing recording switch; zero-sized without the `enabled`
/// feature.
#[derive(Clone, Debug, Default)]
pub struct ObsHandle {
    #[cfg(feature = "enabled")]
    rec: Option<Box<RingRecorder>>,
}

impl ObsHandle {
    /// A handle with no recorder attached. Without the `enabled`
    /// feature this is the only state a handle can be in.
    pub fn disabled() -> Self {
        ObsHandle::default()
    }

    /// Attaches a fresh [`RingRecorder`] sized for a `levels`-deep
    /// hierarchy with an event ring of `capacity` slots. Allocates here,
    /// once; recording afterwards never does. A no-op without the
    /// `enabled` feature.
    pub fn enable(&mut self, levels: usize, capacity: usize) {
        #[cfg(feature = "enabled")]
        {
            self.rec = Some(Box::new(RingRecorder::new(levels, capacity)));
        }
        #[cfg(not(feature = "enabled"))]
        let _ = (levels, capacity);
    }

    /// Whether a recorder is attached.
    pub fn is_enabled(&self) -> bool {
        self.recorder().is_some()
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&RingRecorder> {
        #[cfg(feature = "enabled")]
        {
            self.rec.as_deref()
        }
        #[cfg(not(feature = "enabled"))]
        {
            None
        }
    }

    /// Mutable access to the attached recorder, if any; a constant
    /// `None` without the `enabled` feature, which is what folds every
    /// hook below away.
    #[inline(always)]
    pub fn recorder_mut(&mut self) -> Option<&mut RingRecorder> {
        #[cfg(feature = "enabled")]
        {
            self.rec.as_deref_mut()
        }
        #[cfg(not(feature = "enabled"))]
        {
            None
        }
    }

    /// Marks the start of one reference.
    #[inline]
    pub fn begin_access(&mut self) {
        if let Some(r) = self.recorder_mut() {
            r.begin_access();
        }
    }

    /// The accessed block was found at `level`.
    #[inline]
    pub fn on_hit(&mut self, level: usize, block: u64) {
        if let Some(r) = self.recorder_mut() {
            r.record_event(EventKind::Hit, level, block);
        }
    }

    /// The accessed block was not cached anywhere.
    #[inline]
    pub fn on_miss(&mut self, block: u64) {
        if let Some(r) = self.recorder_mut() {
            let sentinel = r.metrics.levels();
            r.record_event(EventKind::Miss, sentinel, block);
        }
    }

    /// A block was installed at `level` (use the level count as the
    /// `L_out` sentinel for "settled uncached").
    #[inline]
    pub fn on_retrieve(&mut self, level: usize, block: u64) {
        if let Some(r) = self.recorder_mut() {
            r.record_event(EventKind::Retrieve, level, block);
        }
    }

    /// A block crossed `boundary` downward.
    #[inline]
    pub fn on_demote(&mut self, boundary: usize, block: u64) {
        if let Some(r) = self.recorder_mut() {
            r.record_event(EventKind::Demote, boundary, block);
        }
    }

    /// A demotion across `boundary` was absorbed by a demotion buffer.
    #[inline]
    pub fn on_demote_buffered(&mut self, boundary: usize) {
        if let Some(r) = self.recorder_mut() {
            r.record_buffered(boundary);
        }
    }

    /// A block left the hierarchy from `level`.
    #[inline]
    pub fn on_evict(&mut self, level: usize, block: u64) {
        if let Some(r) = self.recorder_mut() {
            r.record_event(EventKind::Evict, level, block);
        }
    }

    /// A reconciliation round ran for client `who`.
    #[inline]
    pub fn on_reconcile(&mut self, who: usize) {
        if let Some(r) = self.recorder_mut() {
            r.record_event(EventKind::Reconcile, who, 0);
        }
    }

    /// The protocol observed and worked around a fault at `level`.
    #[inline]
    pub fn on_fault(&mut self, level: usize, block: u64) {
        if let Some(r) = self.recorder_mut() {
            r.record_event(EventKind::Fault, level, block);
        }
    }

    /// One synchronous RPC round-trip was issued, reaching `to_level`.
    #[inline]
    pub fn on_rpc(&mut self, to_level: usize) {
        if let Some(r) = self.recorder_mut() {
            r.record_rpc(to_level);
        }
    }

    /// Attaches a pre-allocated windowed [`crate::TimelineSampler`]
    /// (`capacity` windows of `window_len` ticks) to the recorder.
    /// Requires [`ObsHandle::enable`] first; call before the run.
    pub fn enable_timeline(&mut self, window_len: u64, capacity: usize) {
        if let Some(r) = self.recorder_mut() {
            r.enable_timeline(window_len, capacity);
        }
    }

    /// Folds transport fault totals from a message plane's accounting
    /// into the `PlaneFaults` counter (and the current timeline window).
    pub fn add_plane_faults(&mut self, n: u64) {
        if let Some(r) = self.recorder_mut() {
            r.add_counter(CounterId::PlaneFaults, n);
        }
    }

    /// Flushes per-access batching state; call once after the last
    /// reference, before harvesting.
    pub fn finish(&mut self) {
        if let Some(r) = self.recorder_mut() {
            r.finish();
        }
    }
}

/// Exposes a policy's [`ObsHandle`] to generic drivers.
pub trait Observe {
    /// Read access to the handle (harvesting).
    fn obs(&self) -> &ObsHandle;
    /// Mutable access to the handle (enabling, recording, finishing).
    fn obs_mut(&mut self) -> &mut ObsHandle;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_accepts_all_hooks() {
        let mut h = ObsHandle::disabled();
        h.begin_access();
        h.on_hit(0, 1);
        h.on_miss(2);
        h.on_retrieve(1, 2);
        h.on_demote(0, 3);
        h.on_demote_buffered(0);
        h.on_evict(1, 4);
        h.on_reconcile(0);
        h.on_fault(1, 5);
        h.on_rpc(1);
        h.enable_timeline(4, 4);
        h.add_plane_faults(2);
        h.finish();
        assert!(h.recorder().is_none() || h.is_enabled());
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn handle_is_zero_sized_without_the_feature() {
        assert_eq!(std::mem::size_of::<ObsHandle>(), 0);
        let mut h = ObsHandle::disabled();
        h.enable(2, 32);
        assert!(!h.is_enabled(), "enable is a no-op without the feature");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn enabled_handle_records() {
        let mut h = ObsHandle::disabled();
        assert!(!h.is_enabled());
        h.enable(2, 32);
        assert!(h.is_enabled());
        h.begin_access();
        h.on_hit(0, 9);
        h.on_miss(10);
        h.finish();
        let rec = h.recorder().expect("recorder attached");
        assert_eq!(rec.metrics().counter(CounterId::Accesses), 1);
        assert_eq!(rec.metrics().counter(CounterId::Hits), 1);
        assert_eq!(rec.metrics().counter(CounterId::Misses), 1);
        // Miss events carry the L_out sentinel level.
        assert!(rec
            .log()
            .iter()
            .any(|e| e.level as usize == rec.metrics().levels()));
    }
}
