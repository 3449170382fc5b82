//! Locality-strength measures and list-segment analysis — §2 of the ULC
//! paper.
//!
//! The paper compares four criteria for ranking blocks by locality
//! strength: **ND** (next distance, the OPT criterion), **R** (recency, the
//! LRU criterion), **NLD** (next locality distance) and **LLD-R** (the
//! online max of last locality distance and recency — the criterion ULC is
//! built on). Two abilities matter:
//!
//! 1. *Distinction*: do strongly local blocks concentrate at the head of
//!    the measure's ordered list (Figure 2)?
//! 2. *Stability*: how often do blocks cross segment boundaries as the list
//!    is updated (Figure 3)? Boundary crossings become inter-cache-level
//!    transfers under a unified protocol, so low is good.
//!
//! [`analyze`] runs one measure over a trace and returns a
//! [`SegmentReport`]; [`Table1::derive`] reproduces the paper's qualitative
//! summary.
//!
//! # Examples
//!
//! ```
//! use ulc_measures::{analyze, MeasureKind};
//! use ulc_trace::synthetic;
//!
//! // On a looping trace, LLD-R moves blocks across boundaries far less
//! // often than R does — the paper's key stability observation.
//! let trace = synthetic::glimpse(20_000);
//! let r = analyze(&trace, MeasureKind::R, 10);
//! let lld_r = analyze(&trace, MeasureKind::LldR, 10);
//! assert!(lld_r.mean_movement_ratio() < r.mean_movement_ratio());
//! ```

#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

mod analysis;
mod histogram;
mod measure;
mod report;
mod samples;
mod summary;

pub use analysis::{analyze, recencies, reference};
pub use histogram::ReuseHistogram;
pub use measure::{MeasureKind, INFINITE};
pub use report::SegmentReport;
pub use samples::{trace_measures, MeasureSample};
pub use summary::{MeasureRow, Rating, Table1};
