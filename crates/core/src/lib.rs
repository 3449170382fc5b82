//! **ULC — Unified and Level-aware Caching**: a client-directed block
//! placement and replacement protocol for multi-level buffer caches.
//!
//! This crate is the core contribution of the reproduction of Jiang &
//! Zhang, *"ULC: A File Block Placement and Replacement Protocol to
//! Effectively Exploit Hierarchical Locality in Multi-level Buffer
//! Caches"* (ICDCS 2004).
//!
//! ## The idea
//!
//! In a client → server → disk-array hierarchy, only the first-level cache
//! sees the application's original access stream; the lower levels see a
//! locality-filtered residue that defeats LRU. ULC therefore makes **all**
//! placement decisions at the client: it ranks blocks by the **LLD-R**
//! measure (the larger of a block's *last locality distance* — the recency
//! at which it was last referenced — and its current recency) on one
//! unified LRU stack ([`UniLruStack`]), partitioned into per-level regions
//! by *yardstick* pointers. Every `Retrieve(b, i, j)` request carries a
//! level tag telling the hierarchy where the block belongs; explicit
//! `Demote(b, i, i+1)` instructions move replacement victims down. The
//! result (§4 of the paper): the aggregate-size hit rate of unified LRU,
//! hits concentrated at the fast levels, and demotion traffic reduced by
//! an order of magnitude.
//!
//! ## Entry points
//!
//! * [`UlcSingle`] — the single-client protocol over any number of levels
//!   (§3.2.1); implements `ulc_hierarchy::MultiLevelPolicy`.
//! * [`UlcMulti`] — the multi-client protocol with the server's `gLRU`
//!   allocation stack, block owners and delayed replacement notifications
//!   (§3.2.2).
//! * [`UniLruStack`] — the reusable decision engine, exposed for direct
//!   experimentation.
//! * [`reference::NaiveUlc`] — an O(n)-per-access executable
//!   specification used by the property-test suite to validate the O(1)
//!   engine.
//!
//! # Examples
//!
//! ```
//! use ulc_core::{UlcConfig, UlcSingle};
//! use ulc_hierarchy::{simulate, CostModel, UniLru};
//! use ulc_trace::synthetic;
//!
//! // The paper's headline workload shape: a looping trace (tpcc1-like)
//! // on a three-level hierarchy.
//! let trace = synthetic::cs(50_000);
//! let caps = vec![1_000, 1_000, 1_000];
//! let costs = CostModel::paper_three_level();
//!
//! let mut ulc = UlcSingle::new(UlcConfig::new(caps.clone()));
//! let mut uni = UniLru::single_client(caps);
//! let s_ulc = simulate(&mut ulc, &trace, trace.warmup_len());
//! let s_uni = simulate(&mut uni, &trace, trace.warmup_len());
//!
//! // Same aggregate hit rate, far fewer demotions, faster overall.
//! assert!(s_ulc.total_hit_rate() > 0.99);
//! assert!(s_ulc.demotion_rates()[0] < 0.05);
//! assert!(s_uni.demotion_rates()[0] > 0.95);
//! assert!(s_ulc.average_access_time(&costs) < s_uni.average_access_time(&costs));
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

mod multi;
pub mod parallel;
pub mod reference;
pub mod scratch;
mod single;
mod stack;

pub use multi::{ClaimRule, UlcMulti, UlcMultiConfig};
pub use parallel::{simulate_sharded, ShardedReplayer};
pub use scratch::AccessScratch;
pub use single::{UlcConfig, UlcSingle};
pub use stack::{Placement, StackAccess, UniLruStack};
