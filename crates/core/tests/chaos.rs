//! Chaos suite: randomized fault scenarios against the DEMOTE hierarchy
//! and the multi-client ULC protocol.
//!
//! Every scenario is generated from proptest's own deterministic stream
//! and handed to a [`FaultyPlane`] seeded from it, so failures shrink and
//! replay exactly. The properties are the *recoverable* invariants of
//! DESIGN.md §5d:
//!
//! 1. capacity bounds hold at every instant, no matter what the plane
//!    does (checked by `check_recoverable_invariants`, and continuously
//!    under `--features debug_invariants`);
//! 2. once traffic settles, a **single** reconciliation round restores
//!    the full invariant set — exclusive caching, single residency,
//!    status-table agreement;
//! 3. every detected residency violation is repaired;
//! 4. the simulation and the settle loop always terminate.

use proptest::collection::vec;
use proptest::prelude::*;
use ulc_core::{UlcMulti, UlcMultiConfig};
use ulc_hierarchy::plane::{FaultScenario, FaultyPlane};
use ulc_hierarchy::{simulate, MultiLevelPolicy, UniLru, UniLruVariant};
use ulc_trace::{synthetic, BlockId, ClientId, Trace};

mod common;
use common::assert_fully_recovered;

/// A randomized fault scenario: rates are kept below 40% so runs retain
/// enough successful traffic to exercise the recovery paths (a 100%-drop
/// plane trivially satisfies the invariants by doing nothing).
fn scenario() -> impl Strategy<Value = FaultScenario> {
    (
        (any::<u64>(), 0u32..400, 0u32..200),
        (0u32..300, 1u64..8, (0u64..2, 100u64..2_000, 0usize..2)),
    )
        .prop_map(
            |((seed, drop_m, dup_m), (delay_m, max_delay, (crashed, at, level)))| {
                let mut s = FaultScenario::zero(seed)
                    .with_drop(drop_m as f64 / 1000.0)
                    .with_duplicate(dup_m as f64 / 1000.0)
                    .with_delay(delay_m as f64 / 1000.0, max_delay);
                if crashed == 1 {
                    s = s.with_crash(at, level);
                }
                s
            },
        )
}

fn small_trace() -> impl Strategy<Value = Trace> {
    vec(0u64..600, 200..1_200).prop_map(|b| Trace::from_blocks(b.into_iter().map(BlockId::new)))
}

fn multi_refs() -> impl Strategy<Value = Vec<(u32, u64)>> {
    vec((0u32..3, 0u64..400), 200..1_200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DEMOTE under chaos: bounds always hold; settle + one reconcile
    /// round restores exclusivity.
    #[test]
    fn uni_lru_recovers_from_any_scenario(
        sc in scenario(),
        trace in small_trace(),
    ) {
        let mut p = UniLru::single_client(vec![40, 60, 80])
            .with_plane(FaultyPlane::new(sc));
        let stats = simulate(&mut p, &trace, 0);
        prop_assert_eq!(stats.references as usize, trace.len());
        p.check_recoverable_invariants();
        assert_fully_recovered(&mut p);
    }

    /// Multi-client adaptive DEMOTE under chaos: the adaptive bookkeeping
    /// (present, one switch per client, every demoter owner a real
    /// client) and the bounds hold after every reference, and settle +
    /// one reconcile round restores the rest.
    #[test]
    fn adaptive_uni_lru_recovers_from_any_scenario(
        sc in scenario(),
        refs in multi_refs(),
    ) {
        let mut p = UniLru::multi_client(vec![20; 3], vec![30, 40], UniLruVariant::Adaptive)
            .with_plane(FaultyPlane::new(sc));
        for &(c, b) in &refs {
            let _ = p.access(ClientId::new(c), BlockId::new(b));
            p.check_recoverable_invariants();
        }
        assert_fully_recovered(&mut p);
    }

    /// Multi-client ULC under chaos: the same recovery contract, plus the
    /// server/owner bookkeeping staying exact throughout.
    #[test]
    fn ulc_multi_recovers_from_any_scenario(
        sc in scenario(),
        refs in multi_refs(),
    ) {
        let mut p = UlcMulti::new(UlcMultiConfig::uniform(3, 20, 60))
            .with_plane(FaultyPlane::new(sc));
        for &(c, b) in &refs {
            let _ = p.access(ClientId::new(c), BlockId::new(b));
        }
        p.check_recoverable_invariants();
        assert_fully_recovered(&mut p);
    }

    /// The scenario DSL round-trips: parsing the rendered parameters of a
    /// generated scenario yields the same fault behaviour knobs.
    #[test]
    fn scenario_dsl_round_trips(sc in scenario()) {
        let base = sc.faults_for(0);
        let mut dsl = format!(
            "seed={},drop={},dup={},delay={},max_delay={}",
            sc.seed, base.drop, base.duplicate, base.delay, base.max_delay
        );
        for c in &sc.crashes {
            dsl.push_str(&format!(",crash={}@{}", c.at, c.level));
        }
        let parsed: FaultScenario = dsl.parse().expect("rendered DSL parses");
        prop_assert_eq!(parsed.seed, sc.seed);
        prop_assert_eq!(parsed.faults_for(0).drop, base.drop);
        prop_assert_eq!(parsed.faults_for(0).max_delay, base.max_delay);
        prop_assert_eq!(parsed.crashes.len(), sc.crashes.len());
    }
}

/// The seeded chaos scenario tier-1 runs explicitly (`scripts/tier1.sh`):
/// a fixed mixed-fault scenario — written in the DSL so the parser is on
/// the gate too — with a mid-run server crash, against both protocol
/// families, with pinned recovery behaviour.
#[test]
fn seeded_chaos_scenario_recovers() {
    let sc: FaultScenario = "seed=1789,drop=0.05,dup=0.02,delay=0.05,max_delay=6,crash=15000@1"
        .parse()
        .expect("tier-1 scenario parses");

    let t = synthetic::zipf_small(30_000);
    let mut uni =
        UniLru::single_client(vec![300, 300, 300]).with_plane(FaultyPlane::new(sc.clone()));
    let stats = simulate(&mut uni, &t, 0);
    assert_eq!(stats.faults.crashes, 1);
    assert!(stats.faults.messages_dropped > 0);
    assert!(stats.total_hit_rate() > 0.0, "the hierarchy keeps serving");
    assert_fully_recovered(&mut uni);

    let tm = synthetic::httpd_multi(30_000);
    let mut ulc =
        UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048)).with_plane(FaultyPlane::new(sc));
    let stats = simulate(&mut ulc, &tm, 0);
    assert_eq!(stats.faults.crashes, 1);
    assert!(
        stats.faults.reconciliation_rounds >= 7,
        "every client rebuilds its status table after the server crash"
    );
    assert_fully_recovered(&mut ulc);
}
