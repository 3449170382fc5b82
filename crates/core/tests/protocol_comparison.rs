//! Differential oracle suite for the message-plane refactor.
//!
//! Every protocol that routes its traffic through a
//! [`MessagePlane`](ulc_hierarchy::MessagePlane) is run twice over every
//! workload: once on the default [`ReliablePlane`] and once on a
//! [`FaultyPlane`] with every fault rate set to zero. The two runs must
//! produce **bit-identical** full [`SimStats`] — hit counts per level,
//! demotion counts per boundary, misses, and the fault summary. This is
//! the proof that the plane refactor did not perturb any figure: the
//! zero-fault `FaultyPlane` path exercises the queueing/delivery code yet
//! reproduces the historical in-line behaviour exactly.

use ulc_core::{UlcMulti, UlcMultiConfig};
use ulc_hierarchy::plane::{FaultScenario, FaultyPlane};
use ulc_hierarchy::{
    simulate, DemotionBuffer, EvictionBased, IndLru, MultiLevelPolicy, SimStats, UniLru,
    UniLruVariant,
};
use ulc_trace::{synthetic, Trace};

mod common;
use common::{multi_client_workloads, single_client_workloads};

/// Runs `build(faulty?)` over `trace` on both planes and asserts the full
/// `SimStats` match bit for bit. The zero-fault run must also report a
/// clean fault summary apart from its transport tallies.
fn assert_differential<R, F>(name: &str, trace: &Trace, mut reliable: R, mut faulty: F)
where
    R: MultiLevelPolicy,
    F: MultiLevelPolicy,
{
    let warmup = trace.warmup_len();
    let sr: SimStats = simulate(&mut reliable, trace, warmup);
    let sf: SimStats = simulate(&mut faulty, trace, warmup);
    // Transport tallies (sent/delivered) legitimately differ between the
    // planes' accounting; everything observable must not.
    assert_eq!(
        sr.hits_by_level, sf.hits_by_level,
        "{name}: per-level hits diverged"
    );
    assert_eq!(sr.misses, sf.misses, "{name}: misses diverged");
    assert_eq!(
        sr.demotions_by_boundary, sf.demotions_by_boundary,
        "{name}: demotions diverged"
    );
    assert_eq!(sr.references, sf.references, "{name}: references diverged");
    assert_eq!(sr.faults, sf.faults, "{name}: fault summaries diverged");
    // No *transport* fault may be reported on the zero-fault plane
    // (bounded-buffer overflow drops are model behaviour, identical on
    // both planes, and already covered by the equality above).
    let f = &sf.faults;
    assert_eq!(
        (
            f.messages_dropped,
            f.messages_duplicated,
            f.messages_reordered,
            f.rpc_failures,
            f.crashes,
            f.reconciliation_rounds,
            f.stale_status_hits,
            f.residency_violations_detected,
        ),
        (0, 0, 0, 0, 0, 0, 0, 0),
        "{name}: zero-fault run reported transport faults: {f:?}"
    );
    // And the end-to-end derived metrics are bit-identical too.
    assert_eq!(
        sr.total_hit_rate().to_bits(),
        sf.total_hit_rate().to_bits(),
        "{name}: hit rate diverged"
    );
}

#[test]
fn uni_lru_variants_are_bit_identical_on_every_workload() {
    for (name, trace) in single_client_workloads() {
        for variant in [
            UniLruVariant::MruInsert,
            UniLruVariant::LruInsert,
            UniLruVariant::Adaptive,
        ] {
            let caps = [400usize, 400, 400];
            let reliable = UniLru::multi_client(vec![caps[0]], caps[1..].to_vec(), variant);
            let faulty = UniLru::multi_client(vec![caps[0]], caps[1..].to_vec(), variant)
                .with_plane(FaultyPlane::new(FaultScenario::zero(11)));
            assert_differential(
                &format!("uniLRU/{variant:?}/{name}"),
                &trace,
                reliable,
                faulty,
            );
        }
    }
}

#[test]
fn ind_lru_is_bit_identical_on_every_workload() {
    for (name, trace) in single_client_workloads() {
        let reliable = IndLru::single_client(vec![400, 400, 400]);
        let faulty = IndLru::single_client(vec![400, 400, 400])
            .with_plane(FaultyPlane::new(FaultScenario::zero(22)));
        assert_differential(&format!("indLRU/{name}"), &trace, reliable, faulty);
    }
}

#[test]
fn eviction_based_is_bit_identical_on_every_workload() {
    for (name, trace) in single_client_workloads() {
        for latency in [0u64, 7] {
            let reliable = EvictionBased::new(vec![400], 800, latency);
            let faulty = EvictionBased::new(vec![400], 800, latency)
                .with_plane(FaultyPlane::new(FaultScenario::zero(33)));
            assert_differential(
                &format!("evict-reload/{latency}/{name}"),
                &trace,
                reliable,
                faulty,
            );
        }
    }
}

#[test]
fn demotion_buffered_uni_lru_is_bit_identical() {
    for (name, trace) in single_client_workloads() {
        let reliable = DemotionBuffer::new(UniLru::single_client(vec![400, 400]), 16, 0.2);
        let faulty = DemotionBuffer::new(
            UniLru::single_client(vec![400, 400])
                .with_plane(FaultyPlane::new(FaultScenario::zero(44))),
            16,
            0.2,
        );
        assert_differential(&format!("buffered/{name}"), &trace, reliable, faulty);
    }
}

#[test]
fn ulc_multi_is_bit_identical_on_every_workload() {
    for (name, trace, clients) in multi_client_workloads() {
        let config = UlcMultiConfig::uniform(clients, 256, 2048);
        let reliable = UlcMulti::new(config.clone());
        let faulty = UlcMulti::new(config).with_plane(FaultyPlane::new(FaultScenario::zero(55)));
        assert_differential(&format!("ULC/{name}"), &trace, reliable, faulty);
    }
}

#[test]
fn full_sim_stats_struct_equality_holds_end_to_end() {
    // The per-field asserts above localise a divergence; this is the
    // satellite's literal claim — whole-struct equality, including the
    // fault summary, on a representative workload per protocol family.
    let t = synthetic::cs(30_000);
    let mut r = UniLru::single_client(vec![500, 500, 500]);
    let mut f = UniLru::single_client(vec![500, 500, 500])
        .with_plane(FaultyPlane::new(FaultScenario::zero(7)));
    assert_eq!(
        simulate(&mut r, &t, t.warmup_len()),
        simulate(&mut f, &t, t.warmup_len())
    );

    let tm = synthetic::httpd_multi(30_000);
    let mut r = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048));
    let mut f = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048))
        .with_plane(FaultyPlane::new(FaultScenario::zero(7)));
    assert_eq!(
        simulate(&mut r, &tm, tm.warmup_len()),
        simulate(&mut f, &tm, tm.warmup_len())
    );
}
