//! Throughput of the arena-backed feed-block path: packing qualifying
//! records into a shared buffer, scanning them back out, and extracting
//! episodes straight from the block — records/sec via `Throughput::Elements`
//! and bytes/sec via `Throughput::Bytes` on the packed arena.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use telescope::{BackscatterObs, RecordBlock, RsdosClassifier, RsdosRecord, RsdosThresholds};

const OBS: usize = 10_000;

/// A deterministic observation mix: ~1k victims, 64 windows, all three
/// protocols, everything above the default thresholds so the classifier
/// keeps every row (worst case for the packing path).
fn observations() -> Vec<BackscatterObs> {
    let mut rng = SmallRng::seed_from_u64(7);
    (0..OBS)
        .map(|_| {
            let packets = rng.random_range(25u64..5_000);
            BackscatterObs {
                victim: std::net::Ipv4Addr::from(0xCB00_7100 | rng.random_range(0u32..1_024)),
                window: simcore::time::Window(rng.random_range(0u64..64)),
                packets,
                slash16s: rng.random_range(2u32..120),
                protocol: [attack::Protocol::Tcp, attack::Protocol::Udp, attack::Protocol::Icmp]
                    [rng.random_range(0usize..3)],
                first_port: rng.random(),
                unique_ports: rng.random_range(1u16..40),
                max_ppm: packets as f64 / 5.0,
            }
        })
        .collect()
}

fn bench_feedblock(c: &mut Criterion) {
    let obs = observations();
    let classifier = RsdosClassifier::new(RsdosThresholds::default());
    let records = classifier.classify(&obs);
    let block = classifier.classify_into_block(&obs);
    assert_eq!(block.len(), records.len(), "bench input must qualify fully");

    let mut g = c.benchmark_group("feedblock");

    // Records per second through each build path.
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("classify_rows", |b| {
        b.iter(|| black_box(classifier.classify(black_box(&obs))));
    });
    g.bench_function("classify_into_block", |b| {
        b.iter(|| black_box(classifier.classify_into_block(black_box(&obs))));
    });
    g.bench_function("block_scan", |b| {
        b.iter(|| {
            let mut packets = 0u64;
            for r in black_box(&block).iter() {
                packets = packets.wrapping_add(r.packets);
            }
            black_box(packets)
        });
    });
    g.bench_function("episodes_from_rows", |b| {
        b.iter(|| black_box(classifier.episodes(black_box(&records))));
    });
    g.bench_function("episodes_from_block", |b| {
        b.iter(|| black_box(classifier.episodes_from_block(black_box(&block))));
    });

    // Fan-out cost: handing a block to one more consumer is a refcount
    // bump on the shared arena; the row path deep-copies every record.
    g.bench_function("fanout_rows_clone", |b| {
        b.iter(|| black_box(black_box(&records).clone()));
    });
    g.bench_function("fanout_block_clone", |b| {
        b.iter(|| black_box(black_box(&block).clone()));
    });

    // Bytes per second over the packed arena (the wire/transport view).
    g.throughput(Throughput::Bytes(block.arena_bytes() as u64));
    g.bench_function("block_rebuild_from_rows", |b| {
        b.iter(|| black_box(RecordBlock::from_records(black_box(&records).iter())));
    });
    g.finish();

    // Sanity outside timing: block rows decode back to the row path.
    let decoded: Vec<RsdosRecord> = block.iter().collect();
    assert_eq!(decoded, records);
}

criterion_group!(benches, bench_feedblock);
criterion_main!(benches);
