//! Block-level I/O trace model and synthetic workload generators for the
//! ULC (Unified and Level-aware Caching) reproduction.
//!
//! The ULC paper (Jiang & Zhang, ICDCS 2004) evaluates multi-level
//! buffer-cache protocols with trace-driven simulation over workloads that
//! fall into a handful of access-pattern classes: looping,
//! temporally-clustered (LRU-friendly), uniformly random, Zipf-like and
//! mixed. This crate provides:
//!
//! * the identifier and trace types shared by the whole workspace
//!   ([`BlockId`], [`ClientId`], [`TraceRecord`], [`Trace`]);
//! * composable pattern generators in [`patterns`];
//! * the paper's named workloads, rebuilt synthetically, in [`synthetic`];
//! * multi-client trace interleaving in [`multi`];
//! * static-exclusivity classification and per-client epoch runs for the
//!   deterministic sharded replay engine in [`epoch`].
//!
//! Everything is deterministic under explicit seeds.
//!
//! # Examples
//!
//! ```
//! use ulc_trace::patterns::{Pattern, ZipfPattern};
//! use ulc_trace::TraceStats;
//!
//! let trace = ZipfPattern::new(10_000, 1.0, 42).generate(100_000);
//! let stats = TraceStats::compute(&trace);
//! assert_eq!(stats.references, 100_000);
//! assert!(stats.unique_blocks <= 10_000);
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

mod block;
pub mod epoch;
pub mod intern;
pub mod io;
pub mod multi;
pub mod patterns;
mod record;
mod rng;
mod stats;
pub mod synthetic;

pub use block::{blocks_for_bytes, blocks_for_mib, BlockId, ClientId, FileId, BLOCK_SIZE_BYTES};
pub use intern::{BlockInterner, BlockMap, DIRECT_LIMIT};
pub use record::{Trace, TraceRecord};
pub use rng::{seeded_rng, TruncatedGeometric, Zipf};
pub use stats::TraceStats;
