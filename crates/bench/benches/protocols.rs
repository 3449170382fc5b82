//! Simulation throughput of the three multi-level schemes (the engine
//! behind Figures 6 and 7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ulc_core::{UlcConfig, UlcSingle};
use ulc_hierarchy::{simulate, IndLru, UniLru};
use ulc_trace::synthetic;

fn bench_three_level_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("three_level");
    let refs = 100_000;
    let trace = synthetic::tpcc1(refs);
    let caps = vec![800usize, 800, 800];
    group.throughput(Throughput::Elements(refs as u64));
    group.bench_function(BenchmarkId::new("indLRU", "tpcc1"), |b| {
        b.iter(|| {
            let mut p = IndLru::single_client(caps.clone());
            simulate(&mut p, &trace, 0).references
        })
    });
    group.bench_function(BenchmarkId::new("uniLRU", "tpcc1"), |b| {
        b.iter(|| {
            let mut p = UniLru::single_client(caps.clone());
            simulate(&mut p, &trace, 0).references
        })
    });
    group.bench_function(BenchmarkId::new("ULC", "tpcc1"), |b| {
        b.iter(|| {
            let mut p = UlcSingle::new(UlcConfig::new(caps.clone()));
            simulate(&mut p, &trace, 0).references
        })
    });
    group.finish();
}

fn bench_multi_client(c: &mut Criterion) {
    use ulc_core::{UlcMulti, UlcMultiConfig};
    let mut group = c.benchmark_group("multi_client");
    let refs = 100_000;
    let trace = synthetic::httpd_multi(refs);
    group.throughput(Throughput::Elements(refs as u64));
    group.bench_function("ULC_7_clients", |b| {
        b.iter(|| {
            let mut p = UlcMulti::new(UlcMultiConfig::uniform(7, 512, 4096));
            simulate(&mut p, &trace, 0).references
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_three_level_protocols, bench_multi_client
}
criterion_main!(benches);
