//! The darknet: the telescope's announced address space.

use netbase::{Ipv4Net, PrefixTrie, Slash16};
use std::net::Ipv4Addr;

/// The telescope's announced prefixes and derived coverage constants.
///
/// ```
/// use telescope::Darknet;
///
/// let d = Darknet::ucsd_like(); // a /9 + /10, ≈ 1/341 of IPv4
/// assert!((d.scale_factor() - 341.33).abs() < 0.5);
/// // The paper's footnote 2: 21.8 Kppm × 341 / 60 s ≈ 124 Kpps.
/// let victim_pps = 21_800.0 * d.scale_factor() / 60.0;
/// assert!((victim_pps - 124_000.0).abs() < 1_000.0);
/// ```
#[derive(Clone)]
pub struct Darknet {
    prefixes: Vec<Ipv4Net>,
    trie: PrefixTrie<()>,
    total_addrs: u64,
    slash16s: Vec<Slash16>,
    /// [`Darknet::slash16_hit_share`] for every packet count below
    /// [`SHARE_TABLE_LEN`], computed once by the same expression.
    hit_share: Box<[f64]>,
}

/// Packet counts below this read the /16 hit share from the table: a
/// window's backscatter is mostly a few hundred to a few thousand packets.
const SHARE_TABLE_LEN: u64 = 4096;

impl std::fmt::Debug for Darknet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Darknet")
            .field("prefixes", &self.prefixes)
            .field("total_addrs", &self.total_addrs)
            .field("slash16s", &self.slash16s.len())
            .finish_non_exhaustive()
    }
}

impl Darknet {
    /// Build from arbitrary dark prefixes.
    pub fn new(prefixes: Vec<Ipv4Net>) -> Darknet {
        assert!(!prefixes.is_empty());
        let mut trie = PrefixTrie::new();
        let mut total = 0u64;
        let mut slash16s = Vec::new();
        for p in &prefixes {
            assert!(p.len() <= 24, "dark prefixes coarser than /24 expected");
            trie.insert(*p, ());
            total += p.size();
            // Enumerate the /16s the prefix covers (or the one containing
            // it, for prefixes finer than /16).
            if p.len() <= 16 {
                let count = 1u32 << (16 - p.len());
                let base = p.addr_u32() >> 16;
                for i in 0..count {
                    slash16s.push(Slash16(base + i));
                }
            } else {
                slash16s.push(Slash16(p.addr_u32() >> 16));
            }
        }
        slash16s.sort();
        slash16s.dedup();
        let mut d =
            Darknet { prefixes, trie, total_addrs: total, slash16s, hit_share: Box::default() };
        d.hit_share = (0..SHARE_TABLE_LEN).map(|k| d.hit_share_of(k)).collect();
        d
    }

    /// The UCSD-NT shape: a /9 plus a /10 — ≈1/341 of IPv4 (the paper's
    /// §3.1). Placed in documentation space-adjacent blocks; the exact
    /// location is irrelevant to the statistics.
    pub fn ucsd_like() -> Darknet {
        Darknet::new(vec!["44.0.0.0/9".parse().unwrap(), "45.128.0.0/10".parse().unwrap()])
    }

    pub fn prefixes(&self) -> &[Ipv4Net] {
        &self.prefixes
    }

    /// Number of dark addresses.
    pub fn size(&self) -> u64 {
        self.total_addrs
    }

    /// Fraction of the IPv4 space covered (≈ 1/341 for the UCSD shape).
    pub fn coverage(&self) -> f64 {
        self.total_addrs as f64 / 2f64.powi(32)
    }

    /// `1 / coverage` — the factor used to extrapolate telescope rates to
    /// the full address space (the paper's footnote 2: `21.8 kppm × 341 /
    /// 60 s ≈ 124 Kpps`).
    pub fn scale_factor(&self) -> f64 {
        1.0 / self.coverage()
    }

    /// Whether an address is inside the darknet.
    pub fn covers(&self, ip: Ipv4Addr) -> bool {
        self.trie.covers(ip)
    }

    /// The /16 subnets the darknet spans (the RSDoS feed counts how many
    /// receive backscatter).
    pub fn slash16s(&self) -> &[Slash16] {
        &self.slash16s
    }

    /// Expected number of distinct /16s hit by `packets` uniform packets:
    /// `n · (1 − (1 − 1/n)^k)`.
    pub fn expected_distinct_slash16s(&self, packets: u64) -> f64 {
        let n = self.slash16s.len() as f64;
        n * (1.0 - (1.0 - 1.0 / n).powf(packets as f64))
    }

    /// The expected share of the darknet's /16s that `packets` uniform
    /// packets hit, `expected_distinct_slash16s(packets) / n` clamped to a
    /// probability: the backscatter sampler's binomial `p`, asked once per
    /// observed window. Read from a table below [`SHARE_TABLE_LEN`] packets
    /// (bit-equal: the table holds this very expression's values).
    pub fn slash16_hit_share(&self, packets: u64) -> f64 {
        match self.hit_share.get(packets as usize) {
            Some(&p) => p,
            None => self.hit_share_of(packets),
        }
    }

    fn hit_share_of(&self, packets: u64) -> f64 {
        let n = self.slash16s.len() as f64;
        (self.expected_distinct_slash16s(packets) / n).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ucsd_coverage_is_one_in_341() {
        let d = Darknet::ucsd_like();
        // /9 = 2^23, /10 = 2^22 → 3·2^22 / 2^32 = 3/1024 ≈ 1/341.33.
        assert_eq!(d.size(), 3 * (1 << 22));
        assert!((d.scale_factor() - 341.33).abs() < 0.5, "{}", d.scale_factor());
    }

    #[test]
    fn covers_only_dark_space() {
        let d = Darknet::ucsd_like();
        assert!(d.covers("44.0.0.1".parse().unwrap()));
        assert!(d.covers("44.127.255.255".parse().unwrap()));
        assert!(!d.covers("44.128.0.0".parse().unwrap()));
        assert!(d.covers("45.128.0.1".parse().unwrap()));
        assert!(d.covers("45.191.255.255".parse().unwrap()));
        assert!(!d.covers("45.192.0.0".parse().unwrap()));
        assert!(!d.covers("8.8.8.8".parse().unwrap()));
    }

    #[test]
    fn slash16_enumeration() {
        let d = Darknet::ucsd_like();
        // /9 spans 128 /16s, /10 spans 64.
        assert_eq!(d.slash16s().len(), 192);
    }

    #[test]
    fn hit_share_table_equals_the_expression() {
        for d in [Darknet::ucsd_like(), Darknet::new(vec!["10.1.2.0/24".parse().unwrap()])] {
            let n = d.slash16s().len() as f64;
            // The sampler's expression before the table, spelled out.
            let expression = |k: u64| (d.expected_distinct_slash16s(k) / n).clamp(0.0, 1.0);
            for k in (0..SHARE_TABLE_LEN).chain([4_096, 4_097, 100_000, u64::MAX]) {
                assert_eq!(d.slash16_hit_share(k).to_bits(), expression(k).to_bits(), "k = {k}");
            }
        }
    }

    #[test]
    fn expected_distinct_slash16s_behaviour() {
        let d = Darknet::ucsd_like();
        assert!(d.expected_distinct_slash16s(0) < 1e-9);
        assert!((d.expected_distinct_slash16s(1) - 1.0).abs() < 1e-9);
        // Large counts approach full coverage of 192 subnets.
        assert!(d.expected_distinct_slash16s(100_000) > 191.9);
        // Monotone.
        let a = d.expected_distinct_slash16s(10);
        let b = d.expected_distinct_slash16s(100);
        assert!(b > a);
    }

    #[test]
    fn custom_darknet() {
        let d = Darknet::new(vec!["192.0.2.0/24".parse().unwrap()]);
        assert_eq!(d.size(), 256);
        assert_eq!(d.slash16s().len(), 1);
        assert!(d.covers("192.0.2.200".parse().unwrap()));
    }
}
