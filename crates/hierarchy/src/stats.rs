//! Simulation statistics: hit rates, demotion rates and average access
//! time — the three panels of Figure 6.

use crate::{AccessOutcome, CostModel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Counters accumulated over the measured portion of a simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// References measured (after warm-up).
    pub references: u64,
    /// Hits per level (0-indexed).
    pub hits_by_level: Vec<u64>,
    /// Misses served from disk.
    pub misses: u64,
    /// Demotions per boundary.
    pub demotions_by_boundary: Vec<u64>,
    /// Graceful-degradation accounting: what the message plane did to the
    /// protocol's traffic and how the protocol recovered. All-zero on a
    /// reliable plane.
    pub faults: FaultSummary,
}

/// Graceful-degradation counters: message-plane perturbations and the
/// protocol's recovery work. Every field is a plain count over the whole
/// run (warm-up included — faults do not pause for warm-up).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Asynchronous messages handed to the plane.
    pub messages_sent: u64,
    /// Asynchronous messages the receiving level actually saw.
    pub messages_delivered: u64,
    /// Messages lost to fault drops and crash purges (queue overflow is
    /// counted in `overflow_drops` alone).
    pub messages_dropped: u64,
    /// Extra copies injected by duplication faults.
    pub messages_duplicated: u64,
    /// Messages delivered after a message sent later than them.
    pub messages_reordered: u64,
    /// Messages a full bounded queue turned away: a plane's link queues
    /// and [`crate::DemotionBuffer`]'s demotion buffers.
    pub overflow_drops: u64,
    /// Demand-read RPCs that lost their request or reply leg.
    pub rpc_failures: u64,
    /// Level crash-and-cold-restart events delivered.
    pub crashes: u64,
    /// Status-table reconciliation passes the client ran.
    pub reconciliation_rounds: u64,
    /// Accesses directed by a status-table entry that turned out stale
    /// (the believed level did not hold the block).
    pub stale_status_hits: u64,
    /// Single-residency violations detected (a block found cached at two
    /// levels at once).
    pub residency_violations_detected: u64,
    /// Single-residency violations repaired by evicting the redundant
    /// copy.
    pub residency_violations_repaired: u64,
    /// Plane `deliver_into` calls that handed back at least one message.
    /// Representation-independent: every queue implementation (dense
    /// array, ordered map) counts it the same way, so it witnesses that
    /// queue-internal allocation reuse changed no delivery behaviour.
    /// Nonzero on healthy runs, hence excluded from
    /// [`FaultSummary::is_clean`].
    pub delivery_batches: u64,
}

impl FaultSummary {
    /// `true` when nothing was perturbed and no recovery work ran —
    /// the reliable-plane signature.
    pub fn is_clean(&self) -> bool {
        self.messages_dropped == 0
            && self.messages_duplicated == 0
            && self.messages_reordered == 0
            && self.overflow_drops == 0
            && self.rpc_failures == 0
            && self.crashes == 0
            && self.reconciliation_rounds == 0
            && self.stale_status_hits == 0
            && self.residency_violations_detected == 0
            && self.residency_violations_repaired == 0
    }

    /// Transport faults: messages lost, duplicated, reordered or turned
    /// away by a full queue, failed RPCs and crashes — the tally an
    /// observability handle's `plane_faults` counter takes, apart from
    /// the protocol-observed `Fault` events (DESIGN.md §5h). A queue
    /// overflow is counted in `overflow_drops` alone, so it counts once.
    pub fn transport_faults(&self) -> u64 {
        self.messages_dropped
            + self.messages_duplicated
            + self.messages_reordered
            + self.overflow_drops
            + self.rpc_failures
            + self.crashes
    }
}

impl SimStats {
    /// Creates zeroed counters for a hierarchy of `levels` levels.
    pub fn new(levels: usize) -> Self {
        SimStats {
            references: 0,
            hits_by_level: vec![0; levels],
            misses: 0,
            demotions_by_boundary: vec![0; levels.saturating_sub(1)],
            faults: FaultSummary::default(),
        }
    }

    /// Folds one access outcome into the counters.
    pub fn record(&mut self, outcome: &AccessOutcome) {
        self.references += 1;
        match outcome.hit_level {
            Some(l) => self.hits_by_level[l] += 1,
            None => self.misses += 1,
        }
        for (b, &d) in outcome.demotions.iter().enumerate() {
            self.demotions_by_boundary[b] += d as u64;
        }
    }

    /// `h_i`: per-level hit rates.
    pub fn hit_rates(&self) -> Vec<f64> {
        let t = self.references.max(1) as f64;
        self.hits_by_level.iter().map(|&h| h as f64 / t).collect()
    }

    /// `h_miss`: the hierarchy miss rate.
    pub fn miss_rate(&self) -> f64 {
        self.misses as f64 / self.references.max(1) as f64
    }

    /// Total hit rate across all levels.
    pub fn total_hit_rate(&self) -> f64 {
        1.0 - self.miss_rate()
    }

    /// `h_di`: per-boundary demotion rates (demotions per reference).
    pub fn demotion_rates(&self) -> Vec<f64> {
        let t = self.references.max(1) as f64;
        self.demotions_by_boundary
            .iter()
            .map(|&d| d as f64 / t)
            .collect()
    }

    /// `T_ave` under `costs` (§4.1), in milliseconds.
    pub fn average_access_time(&self, costs: &CostModel) -> f64 {
        let b = self.breakdown(costs);
        b.hit_ms + b.miss_ms + b.demotion_ms
    }

    /// The three components of `T_ave`, for the stacked breakdown in the
    /// third panel of Figure 6.
    pub fn breakdown(&self, costs: &CostModel) -> TimeBreakdown {
        costs.validate();
        assert_eq!(
            costs.levels(),
            self.hits_by_level.len(),
            "cost model and stats must agree on level count"
        );
        let hit_ms = self
            .hit_rates()
            .iter()
            .zip(&costs.hit_time_ms)
            .map(|(h, t)| h * t)
            .sum();
        let miss_ms = self.miss_rate() * costs.miss_time_ms;
        let demotion_ms = self
            .demotion_rates()
            .iter()
            .zip(&costs.demote_time_ms)
            .map(|(d, t)| d * t)
            .sum();
        TimeBreakdown {
            hit_ms,
            miss_ms,
            demotion_ms,
        }
    }
}

/// `T_ave` split into its three components (all in ms per reference).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Time spent on cache hits.
    pub hit_ms: f64,
    /// Time spent on disk misses.
    pub miss_ms: f64,
    /// Time spent demoting blocks between levels.
    pub demotion_ms: f64,
}

impl TimeBreakdown {
    /// The demotion share of the total access time.
    pub fn demotion_fraction(&self) -> f64 {
        let total = self.hit_ms + self.miss_ms + self.demotion_ms;
        if total == 0.0 {
            0.0
        } else {
            self.demotion_ms / total
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} refs; hits", self.references)?;
        for (i, h) in self.hit_rates().iter().enumerate() {
            write!(f, " L{}={:.1}%", i + 1, 100.0 * h)?;
        }
        write!(f, "; miss={:.1}%; demotions", 100.0 * self.miss_rate())?;
        for (i, d) in self.demotion_rates().iter().enumerate() {
            write!(f, " b{}={:.1}%", i + 1, 100.0 * d)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SimStats {
        let mut s = SimStats::new(3);
        // 2 L1 hits, 1 L2 hit, 1 miss; 3 demotions at b1, 1 at b2.
        s.record(&AccessOutcome::hit(0, 2));
        s.record(&AccessOutcome::hit(0, 2));
        s.record(&AccessOutcome::hit(1, 2));
        let mut miss = AccessOutcome::miss(2);
        miss.demotions = vec![3, 1];
        s.record(&miss);
        s
    }

    #[test]
    fn rates() {
        let s = stats();
        assert_eq!(s.hit_rates(), vec![0.5, 0.25, 0.0]);
        assert_eq!(s.miss_rate(), 0.25);
        assert_eq!(s.total_hit_rate(), 0.75);
        assert_eq!(s.demotion_rates(), vec![0.75, 0.25]);
    }

    #[test]
    fn average_time_formula() {
        let s = stats();
        let costs = CostModel::paper_three_level();
        // 0.5*0 + 0.25*1 + 0*1.2 + 0.25*11.2 + 0.75*1 + 0.25*0.2
        let expect = 0.25 + 2.8 + 0.75 + 0.05;
        assert!((s.average_access_time(&costs) - expect).abs() < 1e-12);
    }

    #[test]
    fn breakdown_components() {
        let s = stats();
        let b = s.breakdown(&CostModel::paper_three_level());
        assert!((b.hit_ms - 0.25).abs() < 1e-12);
        assert!((b.miss_ms - 2.8).abs() < 1e-12);
        assert!((b.demotion_ms - 0.8).abs() < 1e-12);
        assert!((b.demotion_fraction() - 0.8 / 3.85).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SimStats::new(2);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.average_access_time(&CostModel::paper_two_level()), 0.0);
    }

    #[test]
    #[should_panic(expected = "agree on level count")]
    fn mismatched_cost_model_rejected() {
        let s = SimStats::new(2);
        let _ = s.breakdown(&CostModel::paper_three_level());
    }

    #[test]
    fn display_mentions_all_levels() {
        let text = format!("{}", stats());
        assert!(text.contains("L1="));
        assert!(text.contains("L3="));
        assert!(text.contains("b2="));
    }
}
