//! Ablation benchmarks for the pipeline's design choices (DESIGN.md §5):
//! the ≥5-domain noise filter, the baseline sampling cap, and the
//! collateral (/24) join — each changes how much measurement work the
//! lazy longitudinal runner materializes. The semantic ablations (do the
//! *results* change?) live in `tests/ablation.rs`; these measure the cost.

use bench_support::run_experiments;
use census::AnycastCensus;
use criterion::{criterion_group, criterion_main, Criterion};
use dnsimpact_core::impact::{compute_impacts, ImpactConfig};
use dnsimpact_core::join::join_episodes;
use dnssim::Resolver;
use openintel::SweepSchedule;
use scenarios::{PaperScale, WorldConfig};
use simcore::rng::RngFactory;
use std::hint::black_box;

fn bench_ablation(c: &mut Criterion) {
    let ex = run_experiments(
        11,
        PaperScale { divisor: 1_000 },
        &WorldConfig { providers: 30, domains: 8_000, ..WorldConfig::default() },
    );
    let rngs = RngFactory::new(11);
    let schedule = SweepSchedule::new(rngs.seed());
    let resolver = Resolver::default();
    let loads = dnsimpact_core::front::load_book(&ex.attacks);
    let census = AnycastCensus::from_ground_truth(
        &ex.world.infra,
        AnycastCensus::paper_snapshot_dates(),
        0.9,
        &rngs,
    );
    let events = join_episodes(
        &ex.world.infra,
        &ex.world.infra,
        &ex.report.feed.episodes,
        &ex.world.meta.open_resolvers,
        false,
    );

    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    for (label, config) in [
        (
            "min_domains_5_cap_200",
            ImpactConfig {
                min_domains_measured: 5,
                baseline_sample_cap: 200,
                ..ImpactConfig::default()
            },
        ),
        (
            "min_domains_1_cap_200",
            ImpactConfig {
                min_domains_measured: 1,
                baseline_sample_cap: 200,
                ..ImpactConfig::default()
            },
        ),
        (
            "min_domains_5_cap_1000",
            ImpactConfig {
                min_domains_measured: 5,
                baseline_sample_cap: 1_000,
                ..ImpactConfig::default()
            },
        ),
    ] {
        g.bench_function(format!("compute_impacts/{label}"), |b| {
            b.iter(|| {
                black_box(compute_impacts(
                    &ex.world.infra,
                    &schedule,
                    &resolver,
                    &loads,
                    &ex.report.feed.episodes,
                    &events,
                    &census,
                    &rngs,
                    black_box(&config),
                ))
            });
        });
    }
    for (label, collateral) in [("direct_only", false), ("with_collateral", true)] {
        g.bench_function(format!("join/{label}"), |b| {
            b.iter(|| {
                black_box(join_episodes(
                    &ex.world.infra,
                    &ex.world.infra,
                    black_box(&ex.report.feed.episodes),
                    &ex.world.meta.open_resolvers,
                    collateral,
                ))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
