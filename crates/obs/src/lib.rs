//! Zero-allocation observability plane for the ULC reproduction.
//!
//! The engines of `ulc-core` and `ulc-hierarchy` call tiny `on_*` hooks
//! on an [`ObsHandle`] they own. This crate provides everything behind
//! those hooks:
//!
//! * [`event`] — the seven-kind structured [`Event`] vocabulary shared
//!   by every protocol (hit, miss, retrieve, demote, evict, reconcile,
//!   fault).
//! * [`ring`] — the fixed-capacity, overwrite-oldest [`RingLog`].
//! * [`metrics`] — the pre-registered [`MetricsRegistry`]: counters,
//!   per-level rows and power-of-two-bucket [`Pow2Histogram`]s, summed
//!   with [`MetricsRegistry::merge`].
//! * [`recorder`] — the live [`RingRecorder`] behind every attached
//!   handle.
//! * [`handle`] — the feature-switched [`ObsHandle`] and the [`Observe`]
//!   trait generic drivers use to reach it.
//! * [`timeline`] — the fixed-capacity windowed [`TimelineSampler`]:
//!   one full registry per `window_len`-tick window, window sums exact
//!   by construction (DESIGN.md §5j).
//! * [`span`] — per-access causal spans and the integer
//!   [`SpanCostModel`] that turns each span's RPC rounds, demotions and
//!   misses into the [`HistId::SpanCost`] histogram.
//! * [`check`] — the conservation test kit: [`check::reconcile`] proves
//!   the event stream agrees exactly with the driver's `SimStats`,
//!   [`check::windows_reconcile`] proves timeline window sums reproduce
//!   the whole-run registry, and [`check::replay_residency`] re-derives
//!   single-residency placement from the event log alone.
//!
//! Everything is allocation-free after construction; the alloc gate
//! (`crates/bench/tests/alloc_gate.rs`) replays settled engines with a
//! recorder attached to keep it that way. See DESIGN.md §5h and §5j.

#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

pub mod check;
pub mod event;
pub mod handle;
pub mod metrics;
pub mod recorder;
pub mod ring;
pub mod span;
pub mod timeline;

pub use event::{Event, EventKind};
pub use handle::{ObsHandle, Observe};
pub use metrics::{CounterId, HistId, LevelCounters, MetricsRegistry, Pow2Histogram, POW2_BUCKETS};
pub use recorder::RingRecorder;
pub use ring::RingLog;
pub use span::{SpanCostModel, MAX_SPAN_LEVELS};
pub use timeline::TimelineSampler;

/// Whether this build compiled the live recording path (`enabled`
/// feature). Downstream harnesses use this to decide whether an `obs`
/// export section can be produced.
pub fn recording_compiled() -> bool {
    cfg!(feature = "enabled")
}
