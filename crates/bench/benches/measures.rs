//! Throughput of the §2 measure analyses (the engine behind Figures 2
//! and 3).
//!
//! Two studies:
//!
//! * `measure_analysis` — the four indexed analyzers on the standard
//!   zipf trace, per-reference throughput.
//! * `analyze_scaling` — the indexed LLD-R analyzer at footprints
//!   D ∈ {1k, 10k, 100k} (10 references per block), demonstrating the
//!   O(N polylog D) scaling. The naive `reference::analyze_slow` is
//!   benchmarked alongside at the feasible sizes (1k and 10k; at
//!   D = 100k one naive run takes hours, which is the point), so the
//!   speedup ratio is read directly off adjacent rows. This group runs
//!   few samples — the naive rows are expensive by design.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ulc_measures::{analyze, reference, MeasureKind};
use ulc_trace::{synthetic, BlockId, Trace};

fn bench_measures(c: &mut Criterion) {
    let mut group = c.benchmark_group("measure_analysis");
    let refs = 20_000;
    let trace = synthetic::zipf_small(refs);
    group.throughput(Throughput::Elements(refs as u64));
    for kind in MeasureKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| b.iter(|| analyze(&trace, kind, 10).total_references),
        );
    }
    group.finish();
}

/// A mixed trace touching exactly `d` distinct blocks over `10 * d`
/// references: an opening scan (every block gets a finite LLD), then an
/// LCG-scrambled zipf-ish re-reference stream that keeps both the
/// recency-dominant and LLD-dominant regimes of the LLD-R order busy.
fn scaling_trace(d: u64) -> Trace {
    let mut blocks: Vec<BlockId> = (0..d).map(BlockId::new).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..9 * d {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Square the unit draw for a head-skewed (zipf-like) pick.
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        blocks.push(BlockId::new(((u * u * d as f64) as u64).min(d - 1)));
    }
    Trace::from_blocks(blocks)
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyze_scaling");
    for d in [1_000u64, 10_000, 100_000] {
        let trace = scaling_trace(d);
        group.throughput(Throughput::Elements(trace.len() as u64));
        group.bench_with_input(BenchmarkId::new("indexed_lld_r", d), &trace, |b, t| {
            b.iter(|| analyze(t, MeasureKind::LldR, 10).total_references)
        });
        // The naive reference is O(N * D log D): feasible at 1k and
        // 10k, hopeless at 100k (which is exactly the gap the indexed
        // analyzer closes) — skip it there.
        if d <= 10_000 {
            group.bench_with_input(BenchmarkId::new("naive_lld_r", d), &trace, |b, t| {
                b.iter(|| reference::analyze_slow(t, MeasureKind::LldR, 10).total_references)
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_measures
}
criterion_group! {
    name = scaling;
    config = Criterion::default().sample_size(3);
    targets = bench_scaling
}
criterion_main!(benches, scaling);
