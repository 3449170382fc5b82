//! The interface every multi-level caching protocol implements.

use crate::stats::FaultSummary;
use ulc_trace::{BlockId, ClientId};

/// What one reference did, as reported by a protocol.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The level that satisfied the reference (0-indexed), or `None` for a
    /// miss served from disk.
    pub hit_level: Option<usize>,
    /// Number of blocks demoted across each boundary while handling this
    /// reference (`levels - 1` entries; entry `i` is the level `i` →
    /// `i+1` boundary). Only *actual transfers* count — a block discarded
    /// instead of moved is not a demotion.
    pub demotions: Vec<u32>,
}

impl AccessOutcome {
    /// A hit at `level` with no demotions, for `boundaries` boundaries.
    pub fn hit(level: usize, boundaries: usize) -> Self {
        AccessOutcome {
            hit_level: Some(level),
            demotions: vec![0; boundaries],
        }
    }

    /// A miss with no demotions, for `boundaries` boundaries.
    pub fn miss(boundaries: usize) -> Self {
        AccessOutcome {
            hit_level: None,
            demotions: vec![0; boundaries],
        }
    }

    /// Resets a pooled outcome in place: a miss with `boundaries` zeroed
    /// demotion counters. Reuses the demotion buffer's capacity, so a
    /// caller that keeps one outcome across accesses never reallocates —
    /// the [`MultiLevelPolicy::access_into`] contract.
    pub fn reset(&mut self, boundaries: usize) {
        self.hit_level = None;
        self.demotions.clear();
        self.demotions.resize(boundaries, 0);
    }
}

/// A block placement and replacement protocol over a multi-level buffer
/// cache hierarchy.
///
/// Implementations: [`crate::IndLru`] (independent per-level LRU),
/// [`crate::UniLru`] (the Wong & Wilkes unified LRU / DEMOTE scheme),
/// [`crate::LruMqServer`] (LRU client over an MQ server) and `ulc_core`'s
/// ULC protocol.
pub trait MultiLevelPolicy {
    /// Handles one reference by `client` to `block`, writing the result
    /// into a caller-pooled `out` instead of returning a fresh
    /// allocation. `out` is reset first (any previous contents are
    /// ignored), so one outcome can be reused across every access of a
    /// simulation — the zero-allocation steady-state driver
    /// [`crate::simulate`] relies on this.
    fn access_into(&mut self, client: ClientId, block: BlockId, out: &mut AccessOutcome);

    /// Handles one reference by `client` to `block` and returns its
    /// outcome: [`MultiLevelPolicy::access_into`] over a fresh outcome.
    fn access(&mut self, client: ClientId, block: BlockId) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        self.access_into(client, block, &mut out);
        out
    }

    /// Hints that `client` will reference `block` a few accesses from
    /// now, so the engine may pull the block's table rows toward the CPU
    /// cache. MUST be semantics-free: calling it (for any argument, in
    /// any order, or not at all) never changes a subsequent access's
    /// outcome — the batched pipeline in [`crate::simulate`] issues it
    /// speculatively ahead of the decode cursor. The default does
    /// nothing; engines with direct-indexed tables override it.
    #[inline]
    fn prefetch(&self, client: ClientId, block: BlockId) {
        let _ = (client, block);
    }

    /// Number of cache levels.
    fn num_levels(&self) -> usize;

    /// Short scheme name for reports (e.g. `"indLRU"`).
    fn name(&self) -> &'static str;

    /// Graceful-degradation counters accumulated so far: message-plane
    /// perturbations plus the protocol's recovery work. The default is
    /// all-zero, correct for protocols that do not route their traffic
    /// through a message plane.
    fn fault_summary(&self) -> FaultSummary {
        FaultSummary::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_size_demotion_vector() {
        assert_eq!(AccessOutcome::hit(1, 2).demotions, vec![0, 0]);
        assert_eq!(AccessOutcome::miss(1).hit_level, None);
        assert_eq!(AccessOutcome::miss(1).demotions.len(), 1);
    }
}
