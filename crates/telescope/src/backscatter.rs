//! Backscatter sampling: thinning victim responses into the darknet.

use crate::darknet::Darknet;
use attack::{Attack, Protocol, VectorKind};
use rand::rngs::SmallRng;
use simcore::dist::{binomial, poisson};
use simcore::rng::RngFactory;
use simcore::time::Window;
use std::net::Ipv4Addr;

/// What the telescope aggregates for one victim in one 5-minute window.
#[derive(Clone, Debug, PartialEq)]
pub struct BackscatterObs {
    pub victim: Ipv4Addr,
    pub window: Window,
    /// Backscatter packets captured in the window.
    pub packets: u64,
    /// Distinct telescope /16s that received packets.
    pub slash16s: u32,
    /// Protocol of the dominant visible vector.
    pub protocol: Protocol,
    /// First destination port observed on the victim (source port of the
    /// backscatter).
    pub first_port: u16,
    /// Distinct targeted ports observed.
    pub unique_ports: u16,
    /// Peak packet rate within the window, packets/minute (the feed's
    /// `max_ppm`; approximated as the mean ppm with Poisson spread).
    pub max_ppm: f64,
}

/// Samples backscatter observations from an attack population.
pub struct BackscatterSampler<'a> {
    pub darknet: &'a Darknet,
    /// Victims answer at most this many packets per second (a saturated
    /// host stops producing backscatter — one reason successful attacks can
    /// *shorten* inferred durations, §6.5).
    pub victim_response_cap_pps: f64,
}

impl<'a> BackscatterSampler<'a> {
    pub fn new(darknet: &'a Darknet) -> BackscatterSampler<'a> {
        BackscatterSampler { darknet, victim_response_cap_pps: 2_000_000.0 }
    }

    /// Sample the telescope's view of `attacks`. Only randomly-spoofed
    /// vectors generate backscatter toward the darknet.
    pub fn sample(&self, attacks: &[Attack], rngs: &RngFactory) -> Vec<BackscatterObs> {
        let streams = rngs.indexed("backscatter");
        // At most one observation per window an attack touches.
        let mut out = Vec::with_capacity(attacks.iter().map(Attack::max_windows).sum());
        for a in attacks {
            let mut rng = streams.stream(a.id.0);
            self.sample_attack(a, &mut rng, &mut out);
        }
        // Multiple attacks on the same victim in the same window merge, as
        // the real aggregation cannot tell them apart.
        merge_same_cell(out)
    }

    /// One attack's observations, in window order. What is per attack
    /// (dominant vector, rates, ports) is computed once; the windows are
    /// walked without collecting them; the RNG draws are a Poisson then, for
    /// a non-empty window, a binomial, window by window.
    fn sample_attack(&self, a: &Attack, rng: &mut SmallRng, out: &mut Vec<BackscatterObs>) {
        // A NaN/infinite rate would poison the pps sum and the dominant-vector
        // comparison; such a vector cannot deliver packets, so it is simply
        // not visible.
        let visible = || {
            a.vectors
                .iter()
                .filter(|v| v.kind == VectorKind::RandomSpoofed && v.victim_pps.is_finite())
        };
        let Some(dominant) = visible().max_by(|x, y| x.victim_pps.total_cmp(&y.victim_pps)) else {
            return; // nothing spoofed → nothing reaches the telescope
        };
        let (protocol, first_port) = (dominant.protocol, dominant.first_port());
        let spoofed_pps: f64 = visible().map(|v| v.victim_pps).sum();
        let response_pps = spoofed_pps.min(self.victim_response_cap_pps);
        let unique_ports = visible()
            .map(|v| u16::try_from(v.ports.len()).unwrap_or(u16::MAX))
            .fold(0u16, u16::saturating_add)
            .max(1);
        let coverage = self.darknet.coverage();
        let n = self.darknet.slash16s().len() as u64;
        for (w, frac) in a.window_overlaps() {
            let mean_pkts = response_pps * frac * 300.0 * coverage;
            let packets = poisson(rng, mean_pkts);
            if packets == 0 {
                continue;
            }
            // Distinct /16s: the exact expectation plus binomial jitter
            // (variance of distinct bins is ≤ the expectation), cheap and
            // accurate for tiny and huge packet counts alike.
            let p = self.darknet.slash16_hit_share(packets);
            let slash16s = binomial(rng, n, p).max(1).min(packets) as u32;
            // Peak rate within the window: mean ppm inflated by Poisson
            // relative spread (bounded below by the mean).
            let mean_ppm = packets as f64 / (5.0 * frac.max(1e-9));
            let max_ppm = mean_ppm * (1.0 + 1.0 / (packets as f64).sqrt());
            out.push(BackscatterObs {
                victim: a.target,
                window: w,
                packets,
                slash16s,
                protocol,
                first_port,
                unique_ports,
                max_ppm,
            });
        }
    }
}

/// Coalesce the observations of one `(victim, window)` cell into one, in
/// `(window, victim)` order. Packets and `max_ppm` add, ports add
/// (saturating), `slash16s` takes the maximum; `protocol` and `first_port`
/// stay those of the first attack in catalog order to hit the cell.
///
/// A cell's observations meet in the order `sample` emitted them, catalog
/// order (equal keys keep input order): `max_ppm` adds up in that order
/// (`f64` addition does not reassociate) and the first one is the survivor.
fn merge_same_cell(obs: Vec<BackscatterObs>) -> Vec<BackscatterObs> {
    let cell = |o: &BackscatterObs| (o.window.0 as u128) << 32 | u32::from(o.victim) as u128;
    let mut out: Vec<BackscatterObs> = Vec::with_capacity(obs.len());
    for row in crate::rows_in_key_order(&obs, cell) {
        let o = &obs[row];
        match out.last_mut() {
            Some(m) if m.window == o.window && m.victim == o.victim => {
                m.packets += o.packets;
                m.slash16s = m.slash16s.max(o.slash16s);
                m.unique_ports = m.unique_ports.saturating_add(o.unique_ports);
                m.max_ppm += o.max_ppm;
            }
            _ => out.push(o.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack::{AttackId, VectorSpec};
    use simcore::time::{SimDuration, SimTime};

    fn spoofed_attack(pps: f64, mins: u64) -> Attack {
        Attack {
            id: AttackId(1),
            target: "203.0.113.5".parse().unwrap(),
            start: SimTime(0),
            duration: SimDuration::from_mins(mins),
            vectors: vec![VectorSpec {
                kind: VectorKind::RandomSpoofed,
                protocol: Protocol::Tcp,
                ports: vec![53],
                victim_pps: pps,
                source_count: 1_000,
            }],
        }
    }

    #[test]
    fn sampling_rate_matches_coverage() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        // 124 kpps victim-side (TransIP December) → ≈21.8 kppm telescope.
        let obs = s.sample(&[spoofed_attack(124_000.0, 60)], &RngFactory::new(1));
        assert_eq!(obs.len(), 12, "every window observed at this rate");
        let mean_ppm: f64 =
            obs.iter().map(|o| o.packets as f64 / 5.0).sum::<f64>() / obs.len() as f64;
        assert!(
            (mean_ppm - 21_800.0).abs() / 21_800.0 < 0.05,
            "telescope ppm {mean_ppm} vs expected ≈21800"
        );
    }

    #[test]
    fn invisible_attack_produces_nothing() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        let mut a = spoofed_attack(1_000_000.0, 60);
        a.vectors[0].kind = VectorKind::Reflection;
        assert!(s.sample(&[a], &RngFactory::new(1)).is_empty());
    }

    #[test]
    fn tiny_attack_often_missed() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        // 1 pps → expected 0.88 packets/window: many windows empty.
        let obs = s.sample(&[spoofed_attack(1.0, 60)], &RngFactory::new(2));
        assert!(obs.len() < 12, "sub-threshold attacks are partially invisible");
    }

    #[test]
    fn response_cap_limits_backscatter() {
        let d = Darknet::ucsd_like();
        let mut s = BackscatterSampler::new(&d);
        s.victim_response_cap_pps = 10_000.0;
        let obs = s.sample(&[spoofed_attack(10_000_000.0, 30)], &RngFactory::new(3));
        let mean_ppm: f64 =
            obs.iter().map(|o| o.packets as f64 / 5.0).sum::<f64>() / obs.len() as f64;
        let expect = 10_000.0 * 60.0 * d.coverage();
        assert!((mean_ppm - expect).abs() / expect < 0.1, "{mean_ppm} vs {expect}");
    }

    #[test]
    fn slash16s_grow_with_rate() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        let small = s.sample(&[spoofed_attack(300.0, 60)], &RngFactory::new(4));
        let big = s.sample(&[spoofed_attack(500_000.0, 60)], &RngFactory::new(4));
        let avg16 = |v: &[BackscatterObs]| {
            v.iter().map(|o| o.slash16s as f64).sum::<f64>() / v.len() as f64
        };
        assert!(avg16(&big) > avg16(&small));
        assert!(avg16(&big) > 150.0, "large attacks light up most /16s: {}", avg16(&big));
        for o in big.iter().chain(&small) {
            assert!(o.slash16s >= 1 && o.slash16s as usize <= d.slash16s().len());
        }
    }

    #[test]
    fn same_victim_same_window_merges() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        let a1 = spoofed_attack(50_000.0, 10);
        let mut a2 = spoofed_attack(50_000.0, 10);
        a2.id = AttackId(2);
        let obs = s.sample(&[a1, a2], &RngFactory::new(5));
        // Two attacks, same victim, same 2 windows → 2 merged cells.
        assert_eq!(obs.len(), 2);
        // Merged packet counts are roughly double a single attack's.
        let single = s.sample(&[spoofed_attack(50_000.0, 10)], &RngFactory::new(5));
        assert!(obs[0].packets > single[0].packets * 3 / 2);
    }

    #[test]
    fn merged_cell_keeps_the_first_attack_in_catalog_order() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        let tcp = spoofed_attack(50_000.0, 10);
        let mut udp = spoofed_attack(90_000.0, 10);
        udp.id = AttackId(2);
        udp.vectors[0].protocol = Protocol::Udp;
        udp.vectors[0].ports = vec![123];
        // Catalog order decides, not the packet count: the UDP attack is the
        // larger one in both catalogs.
        for (catalog, protocol, port) in [
            ([tcp.clone(), udp.clone()], Protocol::Tcp, 53),
            ([udp.clone(), tcp.clone()], Protocol::Udp, 123),
        ] {
            let obs = s.sample(&catalog, &RngFactory::new(5));
            assert_eq!(obs.len(), 2, "two windows, one merged cell each");
            for o in &obs {
                assert_eq!((o.protocol, o.first_port), (protocol, port));
                assert_eq!(o.unique_ports, 2);
            }
        }
    }

    #[test]
    fn nan_rate_vector_never_aborts_sampling() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        // One poisoned vector plus one healthy one: the healthy vector must
        // still be sampled (previously the NaN comparison aborted).
        let mut a = spoofed_attack(50_000.0, 30);
        a.vectors.push(VectorSpec {
            kind: VectorKind::RandomSpoofed,
            protocol: Protocol::Udp,
            ports: vec![123],
            victim_pps: f64::NAN,
            source_count: 10,
        });
        let obs = s.sample(&[a], &RngFactory::new(6));
        assert!(!obs.is_empty(), "healthy vector still observed");
        assert!(obs.iter().all(|o| o.packets > 0 && o.max_ppm.is_finite()));
        // An attack whose only vector is poisoned is invisible, not fatal.
        let mut lone = spoofed_attack(1.0, 10);
        lone.vectors[0].victim_pps = f64::NAN;
        assert!(s.sample(&[lone], &RngFactory::new(6)).is_empty());
    }

    #[test]
    fn unique_ports_saturate_instead_of_wrapping() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        // 40 000 + 40 000 ports: a plain u16 sum panics in a test build and
        // wraps to 14 464 in a release one.
        let mut a = spoofed_attack(50_000.0, 10);
        a.vectors[0].ports = (0..40_000u16).collect();
        a.vectors.push(a.vectors[0].clone());
        let obs = s.sample(&[a], &RngFactory::new(7));
        assert!(!obs.is_empty());
        assert!(obs.iter().all(|o| o.unique_ports == u16::MAX), "{:?}", obs[0].unique_ports);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        let a = vec![spoofed_attack(10_000.0, 30)];
        assert_eq!(s.sample(&a, &RngFactory::new(9)), s.sample(&a, &RngFactory::new(9)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use attack::{AttackId, VectorSpec};
    use proptest::prelude::*;
    use simcore::dist::binomial;
    use simcore::time::{SimDuration, SimTime};
    use std::collections::HashMap;

    /// `sample_attack` as it was before the per-attack hoisting and the /16
    /// share table, kept as the reference.
    fn sample_attack_reference(
        s: &BackscatterSampler,
        a: &Attack,
        rng: &mut SmallRng,
        out: &mut Vec<BackscatterObs>,
    ) {
        let visible: Vec<_> = a
            .vectors
            .iter()
            .filter(|v| v.kind == VectorKind::RandomSpoofed && v.victim_pps.is_finite())
            .collect();
        let Some(dominant) = visible.iter().max_by(|x, y| x.victim_pps.total_cmp(&y.victim_pps))
        else {
            return;
        };
        let spoofed_pps: f64 = visible.iter().map(|v| v.victim_pps).sum();
        let response_pps = spoofed_pps.min(s.victim_response_cap_pps);
        let unique_ports: u16 = visible.iter().map(|v| v.ports.len() as u16).sum::<u16>().max(1);
        for (w, frac) in a.window_overlaps() {
            let mean_pkts = response_pps * frac * 300.0 * s.darknet.coverage();
            let packets = poisson(rng, mean_pkts);
            if packets == 0 {
                continue;
            }
            let n = s.darknet.slash16s().len() as f64;
            let expect = s.darknet.expected_distinct_slash16s(packets);
            let p = (expect / n).clamp(0.0, 1.0);
            let slash16s = (binomial(rng, n as u64, p).max(1)).min(packets) as u32;
            let mean_ppm = packets as f64 / (5.0 * frac.max(1e-9));
            let max_ppm = mean_ppm * (1.0 + 1.0 / (packets as f64).sqrt());
            out.push(BackscatterObs {
                victim: a.target,
                window: w,
                packets,
                slash16s,
                protocol: dominant.protocol,
                first_port: dominant.first_port(),
                unique_ports,
                max_ppm,
            });
        }
    }

    fn arb_vector() -> impl Strategy<Value = VectorSpec> {
        // Rates from silent to past the response cap, a shared rate so two
        // vectors can tie for dominant, and the poisoned ones the filter
        // must drop; ports ≤ 64 per vector, as generated catalogs carry (the
        // reference's plain u16 sum would overflow past that).
        let pps = prop_oneof![
            Just(0.0),
            Just(5_000.0),
            Just(5_000.0),
            0.0f64..10.0,
            10.0f64..20_000.0,
            1e5f64..1e8,
            Just(f64::NAN),
            Just(f64::INFINITY),
        ];
        (0u8..5, 0u8..3, 0u16..64, pps).prop_map(|(kind, proto, ports, victim_pps)| VectorSpec {
            kind: match kind {
                0..=2 => VectorKind::RandomSpoofed,
                3 => VectorKind::Reflection,
                _ => VectorKind::Direct,
            },
            protocol: [Protocol::Tcp, Protocol::Udp, Protocol::Icmp][proto as usize],
            ports: (0..ports).map(|p| 1 + p * 7).collect(),
            victim_pps,
            source_count: 1_000,
        })
    }

    fn arb_catalog() -> impl Strategy<Value = Vec<Attack>> {
        let attack = (
            0u32..4,
            0u64..3_000,
            prop_oneof![Just(0u64), 1u64..300, 1u64..20_000],
            prop::collection::vec(arb_vector(), 0..4),
        );
        prop::collection::vec(attack, 0..8).prop_map(|attacks| {
            attacks
                .into_iter()
                .enumerate()
                .map(|(i, (victim, start, dur, vectors))| Attack {
                    id: AttackId(i as u64),
                    target: Ipv4Addr::from(0xCB00_7100 | victim),
                    start: SimTime(start),
                    duration: SimDuration::from_secs(dur),
                    vectors,
                })
                .collect()
        })
    }

    /// The merge as it was before the sorted rewrite, kept as the reference.
    fn merge_same_cell_hashmap(mut obs: Vec<BackscatterObs>) -> Vec<BackscatterObs> {
        let mut map: HashMap<(Ipv4Addr, Window), BackscatterObs> = HashMap::new();
        for o in obs.drain(..) {
            match map.entry((o.victim, o.window)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(o);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let m = e.get_mut();
                    m.packets += o.packets;
                    m.slash16s = m.slash16s.max(o.slash16s);
                    m.unique_ports = m.unique_ports.saturating_add(o.unique_ports);
                    m.max_ppm += o.max_ppm;
                }
            }
        }
        let mut out: Vec<BackscatterObs> = map.into_values().collect();
        out.sort_by_key(|o| (o.window, u32::from(o.victim)));
        out
    }

    fn arb_obs() -> impl Strategy<Value = BackscatterObs> {
        // Small victim and window pools, so most cells are hit repeatedly;
        // `max_ppm` over every finite non-negative bit pattern, where the
        // order of additions shows in the last bits of the sum.
        let ppm_bits = 0u64..0x7FF0_0000_0000_0000;
        (0u32..5, 0u64..6, 1u64..1_000_000, 1u32..200, 0u8..3, any::<u16>(), any::<u16>(), ppm_bits)
            .prop_map(|(v, w, packets, slash16s, proto, first_port, unique_ports, ppm)| {
                BackscatterObs {
                    victim: Ipv4Addr::from(0x0A00_0000 | v),
                    window: Window(w),
                    packets,
                    slash16s,
                    protocol: [Protocol::Tcp, Protocol::Udp, Protocol::Icmp][proto as usize],
                    first_port,
                    unique_ports,
                    max_ppm: f64::from_bits(ppm),
                }
            })
    }

    proptest! {
        /// The hoisted sampler emits the reference's observations, bit for
        /// bit, and leaves each attack's RNG stream in the same state.
        #[test]
        fn hoisted_sampler_equals_the_reference(catalog in arb_catalog(), seed in 0u64..1_000) {
            let d = Darknet::ucsd_like();
            let s = BackscatterSampler::new(&d);
            let streams = RngFactory::new(seed).indexed("backscatter");
            for a in &catalog {
                let (mut got_rng, mut want_rng) = (streams.stream(a.id.0), streams.stream(a.id.0));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                s.sample_attack(a, &mut got_rng, &mut got);
                sample_attack_reference(&s, a, &mut want_rng, &mut want);
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.max_ppm.to_bits(), w.max_ppm.to_bits());
                    prop_assert_eq!(g, w);
                }
                prop_assert_eq!(got_rng, want_rng, "RNG state after attack {}", a.id.0);
            }
        }

        #[test]
        fn sorted_merge_equals_hashmap_merge(obs in prop::collection::vec(arb_obs(), 0..80)) {
            let want = merge_same_cell_hashmap(obs.clone());
            let got = merge_same_cell(obs);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.max_ppm.to_bits(), w.max_ppm.to_bits());
                prop_assert_eq!(g, w);
            }
        }
    }
}
