//! Delayed-demotion modelling — quantifying the §4.1 argument.
//!
//! §4.1 declines to hide demotion costs behind dedicated buffers:
//! "Demotions are highly possible to occur in a bursting fashion … A
//! small number of dedicated buffers have difficulty in buffering the
//! delayed blocks." [`DemotionBuffer`] wraps any protocol and models
//! exactly that: each boundary gets a queue of `buffer_capacity` pending
//! demotions drained by the link's spare bandwidth; a demotion finding
//! the queue full stays on the critical path. The exposed fraction is
//! what the §4.1 formula should charge.

use crate::stats::FaultSummary;
use crate::{AccessOutcome, MultiLevelPolicy};
use ulc_obs::{ObsHandle, Observe};
use ulc_trace::{BlockId, ClientId};

/// Wraps a protocol, absorbing demotions into per-boundary buffers.
#[derive(Clone, Debug)]
pub struct DemotionBuffer<P> {
    inner: P,
    /// Pending demotions per boundary.
    queues: Vec<f64>,
    buffer_capacity: f64,
    /// Spare link bandwidth: demotions drained per reference interval.
    drain_per_ref: f64,
    hidden: u64,
    exposed: u64,
}

impl<P: MultiLevelPolicy> DemotionBuffer<P> {
    /// Wraps `inner` with `buffer_capacity` demotion buffers per boundary
    /// and `drain_per_ref` blocks of spare bandwidth per reference.
    ///
    /// # Panics
    ///
    /// Panics if `drain_per_ref` is negative.
    pub fn new(inner: P, buffer_capacity: usize, drain_per_ref: f64) -> Self {
        assert!(drain_per_ref >= 0.0, "bandwidth must be non-negative");
        let boundaries = inner.num_levels().saturating_sub(1);
        DemotionBuffer {
            inner,
            queues: vec![0.0; boundaries],
            buffer_capacity: buffer_capacity as f64,
            drain_per_ref,
            hidden: 0,
            exposed: 0,
        }
    }

    /// Demotions absorbed off the critical path.
    pub fn hidden(&self) -> u64 {
        self.hidden
    }

    /// Demotions that stayed on the critical path (buffers full).
    pub fn exposed(&self) -> u64 {
        self.exposed
    }

    /// Fraction of demotions hidden so far (1.0 when there were none).
    pub fn hidden_fraction(&self) -> f64 {
        let total = self.hidden + self.exposed;
        if total == 0 {
            1.0
        } else {
            self.hidden as f64 / total as f64
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: MultiLevelPolicy + Observe> MultiLevelPolicy for DemotionBuffer<P> {
    fn access_into(&mut self, client: ClientId, block: BlockId, out: &mut AccessOutcome) {
        for q in &mut self.queues {
            *q = (*q - self.drain_per_ref).max(0.0);
        }
        self.inner.access_into(client, block, out);
        for (b, d) in out.demotions.iter_mut().enumerate() {
            let mut kept = 0u32;
            for _ in 0..*d {
                if self.queues[b] + 1.0 <= self.buffer_capacity {
                    self.queues[b] += 1.0;
                    self.hidden += 1;
                    // The inner engine already recorded the Demote event;
                    // mark it as absorbed so the conservation ledger can
                    // balance events against the surfaced SimStats count.
                    self.inner.obs_mut().on_demote_buffered(b);
                } else {
                    kept += 1;
                    self.exposed += 1;
                }
            }
            *d = kept;
            debug_assert!(
                self.queues[b] <= self.buffer_capacity,
                "boundary {b} queue exceeds its configured bound"
            );
        }
    }

    fn num_levels(&self) -> usize {
        self.inner.num_levels()
    }

    fn name(&self) -> &'static str {
        "buffered"
    }

    fn fault_summary(&self) -> FaultSummary {
        // Demotions that found their buffer full are overflow drops of
        // this bounded queue, on top of whatever the inner protocol's
        // message plane counted.
        let mut s = self.inner.fault_summary();
        s.overflow_drops += self.exposed;
        s
    }
}

impl<P: Observe> Observe for DemotionBuffer<P> {
    fn obs(&self) -> &ObsHandle {
        self.inner.obs()
    }

    fn obs_mut(&mut self) -> &mut ObsHandle {
        self.inner.obs_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, UniLru};
    use ulc_trace::synthetic;

    #[test]
    fn ample_bandwidth_hides_everything() {
        let t = synthetic::cs(30_000);
        let uni = UniLru::single_client(vec![500, 500, 500]);
        let mut buffered = DemotionBuffer::new(uni, 64, 2.0);
        let stats = simulate(&mut buffered, &t, t.warmup_len());
        assert_eq!(stats.demotion_rates(), vec![0.0, 0.0]);
        assert!(buffered.hidden() > 0);
        assert_eq!(buffered.exposed(), 0);
    }

    #[test]
    fn saturated_link_exposes_most_demotions() {
        // The §4.1 case: uniLRU on a loop demotes ~1 block per reference;
        // with only 0.1 blocks/ref of spare bandwidth, buffers fill and
        // ~90 % of demotions stay on the critical path.
        let t = synthetic::cs(30_000);
        let uni = UniLru::single_client(vec![500, 500, 500]);
        let mut buffered = DemotionBuffer::new(uni, 16, 0.1);
        let stats = simulate(&mut buffered, &t, t.warmup_len());
        assert!(
            stats.demotion_rates()[0] > 0.8,
            "exposed rate = {:?}",
            stats.demotion_rates()
        );
        assert!(buffered.hidden_fraction() < 0.2);
    }

    #[test]
    fn hit_accounting_is_unaffected() {
        let t = synthetic::zipf_small(20_000);
        let mut plain = UniLru::single_client(vec![300, 300]);
        let s1 = simulate(&mut plain, &t, t.warmup_len());
        let mut buffered = DemotionBuffer::new(UniLru::single_client(vec![300, 300]), 8, 0.5);
        let s2 = simulate(&mut buffered, &t, t.warmup_len());
        assert_eq!(s1.hits_by_level, s2.hits_by_level);
        assert_eq!(s1.misses, s2.misses);
    }

    #[test]
    fn overflow_is_bounded_and_counted_in_sim_stats() {
        // A saturated link: the queue must never exceed its bound, and
        // every demotion bounced off the full buffer must show up as an
        // overflow drop in the run's fault summary.
        let t = synthetic::cs(30_000);
        let uni = UniLru::single_client(vec![500, 500, 500]);
        let mut buffered = DemotionBuffer::new(uni, 16, 0.1);
        let stats = simulate(&mut buffered, &t, 0);
        assert!(buffered.exposed() > 0, "the link must saturate");
        assert_eq!(
            stats.faults.overflow_drops,
            buffered.exposed(),
            "overflow drops must be reported through SimStats"
        );
        for q in &buffered.queues {
            assert!(*q <= buffered.buffer_capacity, "queue bound violated");
        }
    }

    #[test]
    fn no_demotions_means_fraction_one() {
        let t = synthetic::zipf_small(5_000);
        let mut buffered =
            DemotionBuffer::new(crate::IndLru::single_client(vec![100, 100]), 4, 0.1);
        let _ = simulate(&mut buffered, &t, 0);
        assert_eq!(buffered.hidden_fraction(), 1.0);
    }
}
