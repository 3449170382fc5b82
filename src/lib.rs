//! Umbrella crate for the ULC reproduction.
//!
//! Re-exports the workspace crates under one roof so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`trace`] — block/trace model and synthetic workloads (`ulc-trace`);
//! * [`cache`] — single-level cache substrate (`ulc-cache`);
//! * [`measures`] — §2 locality-measure analysis (`ulc-measures`);
//! * [`hierarchy`] — multi-level simulator and baselines
//!   (`ulc-hierarchy`);
//! * [`core`] — the ULC protocol itself (`ulc-core`).
//!
//! See the repository README for the quickstart and DESIGN.md for the
//! full system inventory.
//!
//! # Examples
//!
//! ```
//! use ulc::core::{UlcConfig, UlcSingle};
//! use ulc::hierarchy::{simulate, CostModel};
//! use ulc::trace::synthetic;
//!
//! let trace = synthetic::sprite(20_000);
//! let mut protocol = UlcSingle::new(UlcConfig::new(vec![200, 200, 200]));
//! let stats = simulate(&mut protocol, &trace, trace.warmup_len());
//! let t_ave = stats.average_access_time(&CostModel::paper_three_level());
//! assert!(t_ave < CostModel::paper_three_level().miss_time_ms);
//! ```

pub use ulc_cache as cache;
pub use ulc_core as core;
pub use ulc_hierarchy as hierarchy;
pub use ulc_measures as measures;
pub use ulc_obs as obs;
pub use ulc_trace as trace;
