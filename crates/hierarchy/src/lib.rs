//! Multi-level buffer-cache hierarchy simulator and baseline protocols for
//! the ULC reproduction.
//!
//! This crate provides the substrate §4 of the paper evaluates protocols
//! on:
//!
//! * [`MultiLevelPolicy`] — the protocol interface (one `access` per
//!   reference, reporting the hit level and any demotion transfers);
//! * [`simulate`] — the trace-driven driver with the paper's
//!   first-tenth warm-up convention;
//! * [`CostModel`] / [`SimStats`] — the §4.1 timing model
//!   (`T_ave = Σ hᵢTᵢ + h_miss·T_m + Σ T_dᵢ·h_dᵢ`) and its counters;
//! * the baselines: [`IndLru`] (independent LRU), [`UniLru`] (Wong &
//!   Wilkes unified LRU / DEMOTE, with multi-client insertion variants),
//!   [`LruMqServer`] (LRU clients over a Multi-Queue server) and
//!   [`EvictionBased`] (Chen et al.'s reload-from-disk placement);
//! * [`DemotionBuffer`] — a wrapper quantifying §4.1's delayed-demotion
//!   argument for any protocol.
//!
//! The ULC protocol itself lives in the `ulc-core` crate and implements
//! the same [`MultiLevelPolicy`] trait.
//!
//! # Examples
//!
//! ```
//! use ulc_hierarchy::{simulate, CostModel, IndLru, UniLru};
//! use ulc_trace::synthetic;
//!
//! let trace = synthetic::cs(30_000);
//! let costs = CostModel::paper_three_level();
//! let caps = vec![1000, 1000, 1000];
//!
//! let mut ind = IndLru::single_client(caps.clone());
//! let mut uni = UniLru::single_client(caps);
//! let si = simulate(&mut ind, &trace, trace.warmup_len());
//! let su = simulate(&mut uni, &trace, trace.warmup_len());
//!
//! // The loop fits the aggregate but no single level: only the unified
//! // scheme hits.
//! assert!(su.total_hit_rate() > 0.9);
//! assert!(si.total_hit_rate() < 0.1);
//! assert!(su.average_access_time(&costs) < si.average_access_time(&costs));
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

pub mod bound;
mod cost;
mod demotion_buffer;
mod eviction_based;
mod ind_lru;
mod mq_server;
pub mod plane;
mod protocol;
mod sim;
mod stats;
mod uni_lru;

pub use cost::CostModel;
pub use demotion_buffer::DemotionBuffer;
pub use eviction_based::EvictionBased;
pub use ind_lru::IndLru;
pub use mq_server::LruMqServer;
pub use plane::{DeliveryBatch, FaultScenario, FaultyPlane, MessagePlane, ReliablePlane};
pub use protocol::{AccessOutcome, MultiLevelPolicy};
pub use sim::{simulate, simulate_with_paper_warmup, PREFETCH_DISTANCE};
pub use stats::{FaultSummary, SimStats, TimeBreakdown};
pub use uni_lru::{UniLru, UniLruVariant};
