//! Telescope path throughput: backscatter sampling, RSDoS classification
//! and episode extraction over a month of attacks; and the offered-load
//! book at the size a batch-scale catalog fills it to.

use attack::{AttackScheduler, ScheduleConfig, TargetPool};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dnssim::LoadBook;
use simcore::rng::RngFactory;
use simcore::time::{Month, Window};
use std::hint::black_box;
use std::net::Ipv4Addr;
use telescope::{BackscatterSampler, Darknet, RsdosClassifier};

fn bench_telescope(c: &mut Criterion) {
    let rngs = RngFactory::new(3);
    let months = vec![Month::new(2021, 1)];
    let cfg = ScheduleConfig {
        attacks_per_month: vec![4_000],
        dns_share_per_month: vec![0.012],
        months,
        ..ScheduleConfig::default()
    };
    let pool =
        TargetPool::uniform((0..100).map(|i| Ipv4Addr::new(198, 51, i, 53)).collect(), vec![]);
    let attacks = AttackScheduler::new(cfg).generate(&pool, &rngs);
    let darknet = Darknet::ucsd_like();
    let sampler = BackscatterSampler::new(&darknet);
    let obs = sampler.sample(&attacks, &rngs);
    let classifier = RsdosClassifier::default();
    let records = classifier.classify(&obs);

    let mut g = c.benchmark_group("telescope");
    g.throughput(Throughput::Elements(attacks.len() as u64));
    g.bench_function("backscatter_sample/4000_attacks", |b| {
        b.iter(|| black_box(sampler.sample(black_box(&attacks), &rngs)));
    });
    g.throughput(Throughput::Elements(obs.len() as u64));
    g.bench_function("classify", |b| {
        b.iter(|| black_box(classifier.classify(black_box(&obs))));
    });
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("episodes", |b| {
        b.iter(|| black_box(classifier.episodes(black_box(&records))));
    });
    g.finish();

    // The batch_sparse shape: ~585k (address, window) cells, far past the
    // cache. `add` only logs a cell; the first lookup builds the book's two
    // maps, so the bench ends with one and times fill and index together.
    let cells: Vec<(Ipv4Addr, Window, f64)> = (0..585_000u32)
        .map(|i| (Ipv4Addr::from(0xC633_0000 + i % 9_000), Window((i / 9_000 * 7) as u64), 1e3))
        .collect();
    let mut g = c.benchmark_group("loadbook");
    g.throughput(Throughput::Elements(cells.len() as u64));
    g.bench_function("fill_and_index_585k_cells", |b| {
        b.iter(|| {
            let mut book = LoadBook::new();
            for &(addr, w, pps) in black_box(&cells) {
                book.add(addr, w, pps);
            }
            black_box(book.attack_on_addr(cells[0].0, cells[0].1))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_telescope);
criterion_main!(benches);
