//! Single-level cache substrate for the ULC reproduction.
//!
//! The multi-level protocols of the paper are assembled from a small set of
//! single-level building blocks, all provided here:
//!
//! * [`LinkedSlab`] — a slab-backed doubly-linked list with stable,
//!   generation-checked handles; the backbone of every stack in the
//!   workspace (including ULC's `uniLRUstack` with its yardstick pointers);
//! * [`LruStack`] / [`LruCache`] — keyed recency stacks and bounded LRU,
//!   generic over the [`NodeLocator`] table that finds a key's node;
//! * [`MultiQueue`] — the MQ second-level replacement algorithm
//!   (Zhou, Philbin & Li 2001), a Figure 7 baseline;
//! * [`Lirs`] — the LIRS policy (Jiang & Zhang 2002), the single-level
//!   ancestor of ULC's LLD ranking (§5 of the ULC paper);
//! * [`OptCache`] — Belady's OPT, behind the paper's ND measure;
//! * [`RandomCache`] — the RANDOM floor of §2.2;
//! * [`lru_stack_distances`] / [`next_locality_distances`] — O(n log n)
//!   recency (LLD) and NLD precomputation for the measures framework;
//! * [`Fenwick`] / [`KeyedList`] / [`RecencyList`] / [`LazyMinTree`] —
//!   O(log n) indexed ranking lists behind the measure analyzers and the
//!   temporal trace generator.
//!
//! # Examples
//!
//! ```
//! use ulc_cache::{LruCache, MqConfig, MultiQueue};
//!
//! let mut lru = LruCache::new(512);
//! let mut mq = MultiQueue::new(512, MqConfig::for_capacity(512));
//! for block in 0u64..1000 {
//!     lru.access(block);
//!     mq.access(block);
//! }
//! assert!(lru.is_full());
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

mod distance;
mod indexed_list;
mod lirs;
mod list;
mod lru;
mod mq;
mod opt;
mod random_cache;

pub use distance::{lru_stack_distances, next_locality_distances};
pub use indexed_list::{Fenwick, KeyedList, LazyMinTree, RecencyList};
pub use lirs::Lirs;
pub use list::{Iter, LinkedSlab, NodeHandle};
pub use lru::{CacheEvent, LruCache, LruStack, NodeLocator};
pub use mq::{MqConfig, MultiQueue};
pub use opt::{next_use_times, OptCache, NEVER};
pub use random_cache::RandomCache;
