//! The causal trace's price per event (ROADMAP 3(f)): an `AttackOnset`
//! emitted with its typed payload, and a text event whose detail is
//! formatted by the caller — the onset path as it was before the payload
//! existed. Each runs once into an empty ring and once into a full one,
//! where every emit also evicts the shard's oldest event. The ring is
//! process-global, so this bench has a binary of its own.

use criterion::{criterion_group, criterion_main, Criterion};
use obs::trace::{self, EventKind, Onset};
use std::hint::black_box;
use std::net::Ipv4Addr;

/// More events than the ring holds (16 shards × 8 192).
const OVERFILL: u64 = 200_000;

fn onset(i: u64) -> Onset {
    Onset {
        victim: Ipv4Addr::from(0xC633_0000 | i as u32),
        protocol: "Tcp",
        port: 53,
        peak_ppm: 3_098.4 + i as f64,
    }
}

fn emit_onset(i: u64) {
    trace::emit_onset("bench", i, i * 300, onset(i), 25);
}

fn emit_text(i: u64) {
    let o = onset(i);
    trace::emit(
        EventKind::AttackOnset,
        "bench",
        Some(i),
        Some(i * 300),
        format!("victim {} {} port {} peak {:.0} ppm", o.victim, o.protocol, o.port, o.peak_ppm),
        Some(25),
    );
}

fn bench_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    for (name, emit) in [("emit_onset", emit_onset as fn(u64)), ("emit_text", emit_text)] {
        // Empty: the shim runs at most ~10k iterations, far under the
        // ring's capacity, so no emit evicts.
        trace::reset();
        let mut i = 0u64;
        g.bench_function(format!("{name}/empty_ring"), |b| {
            b.iter(|| {
                i += 1;
                emit(black_box(i));
            });
        });
        trace::reset();
        for j in 0..OVERFILL {
            emit(j);
        }
        assert!(trace::summary().dropped > 0, "the ring is full");
        let mut i = OVERFILL;
        g.bench_function(format!("{name}/full_ring"), |b| {
            b.iter(|| {
                i += 1;
                emit(black_box(i));
            });
        });
    }
    trace::reset();
    g.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
