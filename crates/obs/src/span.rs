//! Per-access causal spans and their cost model.
//!
//! Every reference the engines drive through [`crate::ObsHandle`] opens
//! one *span*: the window between two `begin_access` calls. All
//! cross-level work of that reference — RPC round-trips, demotions
//! across boundaries, the `L_out` fetch on a miss, recovery
//! reconciliation — belongs to the span, identified by its tick. When
//! the span closes ([`crate::RingRecorder::span_end`], called implicitly
//! by the next `begin_access` and by `finish`), its accumulated cost is
//! recorded into the [`crate::HistId::SpanCost`] histogram.
//!
//! The cost model mirrors the paper's evaluation metric: lower levels
//! are slower, so work that reaches level `l` is weighted by
//! `weight(l)`. The weights double per level (`1 << l`), matching the
//! usual order-of-magnitude latency gap between buffer-cache tiers; the
//! weights are plain integers so span costs stay bit-exact.

/// Deepest level the weight table distinguishes; deeper levels clamp to
/// the last entry. Real hierarchies in this repo have 2–3 levels plus
/// the `L_out` sentinel, so 8 is comfortably beyond any configuration.
pub const MAX_SPAN_LEVELS: usize = 8;

/// Integer level-weight table turning per-access work into a span cost.
///
/// `cost(access) = Σ weight(target level of each RPC)
///               + Σ weight(level entered by each demotion)
///               + miss? · weight(num_levels)   — the `L_out` fetch
///               + Σ weight(1) per reconcile round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCostModel {
    weights: [u64; MAX_SPAN_LEVELS],
}

impl Default for SpanCostModel {
    fn default() -> Self {
        SpanCostModel::doubling()
    }
}

impl SpanCostModel {
    /// The default model: `weight(l) = 1 << l` (1, 2, 4, 8, ...).
    pub fn doubling() -> Self {
        let mut weights = [0u64; MAX_SPAN_LEVELS];
        let mut l = 0;
        while l < MAX_SPAN_LEVELS {
            weights[l] = 1u64 << l;
            l += 1;
        }
        SpanCostModel { weights }
    }

    /// The full weight table, for export into flight-recorder dumps.
    pub fn weights(&self) -> &[u64; MAX_SPAN_LEVELS] {
        &self.weights
    }

    /// Weight of work that reaches `level`; levels beyond the table
    /// clamp to the deepest entry.
    #[inline]
    pub fn weight(&self, level: usize) -> u64 {
        let idx = if level < MAX_SPAN_LEVELS {
            level
        } else {
            MAX_SPAN_LEVELS - 1
        };
        self.weights[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_weights_double() {
        let m = SpanCostModel::default();
        assert_eq!(m.weight(0), 1);
        assert_eq!(m.weight(1), 2);
        assert_eq!(m.weight(3), 8);
        // Beyond the table: clamps instead of overflowing.
        assert_eq!(m.weight(100), 1 << (MAX_SPAN_LEVELS - 1));
    }
}
