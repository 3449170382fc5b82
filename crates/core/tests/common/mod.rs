//! Helpers shared by the integration suites (golden grid, differential
//! oracles, chaos, observability conservation). Each suite pulls in the subset it
//! needs via `mod common;`.
#![allow(
    dead_code,
    reason = "each suite compiles this module on its own and uses a different subset of the helpers"
)]

use ulc_hierarchy::plane::FaultScenario;
use ulc_hierarchy::{AccessOutcome, MultiLevelPolicy, SimStats};
use ulc_trace::{synthetic, Trace};

/// The single-client workloads of the §2.2/§4.3 studies, at smoke scale.
pub fn single_client_workloads() -> Vec<(&'static str, Trace)> {
    synthetic::small_suite(20_000)
}

/// The multi-client workloads of the §4.4 study, at smoke scale:
/// `(name, trace, clients)`.
pub fn multi_client_workloads() -> Vec<(&'static str, Trace, usize)> {
    vec![
        ("httpd", synthetic::httpd_multi(30_000), 7),
        ("openmail", synthetic::openmail(30_000, 24_000), 6),
        ("db2", synthetic::db2_multi(30_000, 16_000), 8),
    ]
}

/// The pinned actively-faulty scenario of the golden grid and the
/// differential suites: mild mixed faults plus a mid-run server crash.
/// The RNG stream is a pure function of the scenario, so runs over it are
/// still deterministic.
pub fn crashy_mild_scenario() -> FaultScenario {
    FaultScenario::mild(97).with_crash(15_000, 1)
}

/// Drives `policy` through the by-value [`MultiLevelPolicy::access`]
/// wrapper — a fresh outcome per reference.
pub fn simulate_by_value<P: MultiLevelPolicy>(
    policy: &mut P,
    trace: &Trace,
    warmup: usize,
) -> SimStats {
    let mut stats = SimStats::new(policy.num_levels());
    for (i, r) in trace.iter().enumerate() {
        let out = policy.access(r.client, r.block);
        if i >= warmup {
            stats.record(&out);
        }
    }
    stats.faults = policy.fault_summary();
    stats
}

/// Drives `policy` through `access_into` with one pooled outcome that is
/// deliberately dirty at the start (stale hit level, garbage counters
/// sized for a nine-boundary hierarchy) and reused across every
/// reference — the steady-state hot path. The per-access reset contract
/// must make the dirt invisible.
pub fn simulate_pooled_dirty<P: MultiLevelPolicy>(
    policy: &mut P,
    trace: &Trace,
    warmup: usize,
) -> SimStats {
    let mut stats = SimStats::new(policy.num_levels());
    let mut out = AccessOutcome::hit(3, 9);
    for d in out.demotions.iter_mut() {
        *d = 0xDEAD;
    }
    for (i, r) in trace.iter().enumerate() {
        policy.access_into(r.client, r.block, &mut out);
        if i >= warmup {
            stats.record(&out);
        }
    }
    stats.faults = policy.fault_summary();
    stats
}

/// Asserts two full [`SimStats`] are bit-identical, including the derived
/// hit rate down to the last mantissa bit.
pub fn assert_stats_bit_identical(name: &str, a: &SimStats, b: &SimStats) {
    assert_eq!(a, b, "{name}: stats diverged");
    assert_eq!(
        a.total_hit_rate().to_bits(),
        b.total_hit_rate().to_bits(),
        "{name}: hit rate diverged"
    );
}

/// Protocols with the full DESIGN.md §5d recovery surface. `settle`,
/// `reconcile` and `check_invariants` are inherent methods, so this
/// suite-local trait gives [`assert_fully_recovered`] one name for them.
pub trait Recoverable: MultiLevelPolicy {
    fn settle(&mut self);
    fn reconcile(&mut self);
    fn check_invariants(&self);
}

impl<P: ulc_hierarchy::MessagePlane> Recoverable for ulc_hierarchy::UniLru<P> {
    fn settle(&mut self) {
        ulc_hierarchy::UniLru::settle(self);
    }
    fn reconcile(&mut self) {
        ulc_hierarchy::UniLru::reconcile(self);
    }
    fn check_invariants(&self) {
        ulc_hierarchy::UniLru::check_invariants(self);
    }
}

impl<P: ulc_hierarchy::MessagePlane> Recoverable for ulc_core::UlcMulti<P> {
    fn settle(&mut self) {
        ulc_core::UlcMulti::settle(self);
    }
    fn reconcile(&mut self) {
        ulc_core::UlcMulti::reconcile(self);
    }
    fn check_invariants(&self) {
        ulc_core::UlcMulti::check_invariants(self);
    }
}

/// The recovery contract of DESIGN.md §5d, as one call: settle in-flight
/// traffic, run one reconciliation round, check the full invariant set,
/// and require every detected residency violation to have been repaired.
/// Panics on violation (proptest shrinks panics like `prop_assert!`).
pub fn assert_fully_recovered<P: Recoverable>(policy: &mut P) {
    policy.settle();
    policy.reconcile();
    policy.check_invariants();
    let s = policy.fault_summary();
    assert_eq!(
        s.residency_violations_detected, s.residency_violations_repaired,
        "unrepaired residency violations"
    );
}
