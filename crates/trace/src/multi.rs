//! Multi-client trace construction.
//!
//! The paper's multi-client structure (§3.2.2, §4.4) has several clients
//! sharing one server. A multi-client trace is built by interleaving one
//! reference stream per client into a single global request order.

use crate::patterns::Pattern;
use crate::{seeded_rng, ClientId, Trace, TraceRecord};
use rand::Rng;

/// Interleaves one pattern per client into a multi-client [`Trace`].
///
/// At every step a client is drawn (uniformly, or by `weights`) and its next
/// reference is appended, tagged with the client's id. The interleaving is
/// deterministic under `seed`.
///
/// # Panics
///
/// Panics if `patterns` is empty, or `weights` is given with a different
/// length than `patterns`, or all weights are zero.
///
/// # Examples
///
/// ```
/// use ulc_trace::multi::interleave;
/// use ulc_trace::patterns::{LoopingPattern, Pattern};
///
/// let patterns: Vec<Box<dyn Pattern>> = vec![
///     Box::new(LoopingPattern::new(4)),
///     Box::new(LoopingPattern::new(4).with_base(100)),
/// ];
/// let t = interleave(patterns, None, 1000, 7);
/// assert_eq!(t.num_clients(), 2);
/// assert_eq!(t.len(), 1000);
/// ```
pub fn interleave(
    mut patterns: Vec<Box<dyn Pattern>>,
    weights: Option<&[f64]>,
    len: usize,
    seed: u64,
) -> Trace {
    assert!(!patterns.is_empty(), "at least one client is required");
    let cum: Vec<f64> = match weights {
        Some(w) => {
            assert_eq!(w.len(), patterns.len(), "one weight per client");
            let total: f64 = w.iter().sum();
            assert!(total > 0.0, "weights must not all be zero");
            let mut acc = 0.0;
            w.iter()
                .map(|&x| {
                    acc += x / total;
                    acc
                })
                .collect()
        }
        None => (1..=patterns.len())
            .map(|i| i as f64 / patterns.len() as f64)
            .collect(),
    };
    let mut rng = seeded_rng(seed);
    // Sized once: grown by doubling, a 1.5 M-record Fig 7 trace would end
    // in a 32 MiB buffer, which glibc maps and unmaps afresh every time.
    let mut trace = Trace::with_capacity(len);
    // Touch every client once so num_clients is correct even for tiny
    // traces: the first `patterns.len()` references are round-robin.
    for i in 0..patterns.len().min(len) {
        let block = patterns[i].next_block();
        trace.push(TraceRecord::new(ClientId::new(i as u32), block));
    }
    for _ in patterns.len().min(len)..len {
        let u: f64 = rng.gen();
        let c = cum.partition_point(|&p| p < u).min(patterns.len() - 1);
        let block = patterns[c].next_block();
        trace.push(TraceRecord::new(ClientId::new(c as u32), block));
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::LoopingPattern;

    fn two_loops() -> Vec<Box<dyn Pattern>> {
        vec![
            Box::new(LoopingPattern::new(3)),
            Box::new(LoopingPattern::new(3).with_base(10)),
        ]
    }

    #[test]
    fn every_client_appears() {
        let t = interleave(two_loops(), None, 100, 1);
        for c in 0..2u32 {
            assert!(
                !t.client_stream(ClientId::new(c)).is_empty(),
                "client {c} missing"
            );
        }
    }

    #[test]
    fn per_client_streams_preserve_pattern_order() {
        let t = interleave(two_loops(), None, 300, 2);
        let s0 = t.client_stream(ClientId::new(0));
        for (i, b) in s0.iter().enumerate() {
            assert_eq!(b.raw(), (i % 3) as u64);
        }
        let s1 = t.client_stream(ClientId::new(1));
        for (i, b) in s1.iter().enumerate() {
            assert_eq!(b.raw(), 10 + (i % 3) as u64);
        }
    }

    #[test]
    fn weights_bias_the_interleave() {
        let t = interleave(two_loops(), Some(&[9.0, 1.0]), 10_000, 3);
        let c0 = t.client_stream(ClientId::new(0)).len();
        let c1 = t.client_stream(ClientId::new(1)).len();
        assert!(c0 > 5 * c1, "c0 = {c0}, c1 = {c1}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = interleave(two_loops(), None, 500, 4);
        let b = interleave(two_loops(), None, 500, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_trace_still_valid() {
        let t = interleave(two_loops(), None, 1, 5);
        assert_eq!(t.len(), 1);
        assert_eq!(t.num_clients(), 1);
    }

    #[test]
    #[should_panic(expected = "one weight per client")]
    fn mismatched_weights_rejected() {
        let _ = interleave(two_loops(), Some(&[1.0]), 10, 6);
    }
}
