//! Attack vectors, protocols, and the calibrated port mix.

use rand::Rng;

/// Transport protocol of an attack vector, as the RSDoS feed reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    Tcp,
    Udp,
    Icmp,
}

impl Protocol {
    /// IANA protocol number (matches `pcap::IpProto`).
    pub fn number(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }

    /// The variant's name, as `Debug` prints it (`Tcp`, `Udp`, `Icmp`).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Tcp => "Tcp",
            Protocol::Udp => "Udp",
            Protocol::Icmp => "Icmp",
        }
    }
}

/// How an attack vector sources its traffic — which decides whether the
/// telescope can see it (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VectorKind {
    /// Randomly-and-uniformly spoofed sources. The victim's responses
    /// (SYN-ACK, RST, ICMP) spray across IPv4 and the darknet samples them:
    /// **telescope-visible**.
    RandomSpoofed,
    /// Reflection/amplification off third parties: backscatter goes to the
    /// victim, not the darknet: **invisible**.
    Reflection,
    /// Direct (botnet, unspoofed): **invisible**.
    Direct,
}

impl VectorKind {
    pub fn telescope_visible(self) -> bool {
        matches!(self, VectorKind::RandomSpoofed)
    }
}

/// Sample the protocol of a DNS-infrastructure attack, per §6.2:
/// 90.4% TCP, 8.4% UDP, 1.2% ICMP.
pub fn sample_protocol<R: Rng + ?Sized>(rng: &mut R) -> Protocol {
    let u: f64 = rng.random();
    if u < 0.904 {
        Protocol::Tcp
    } else if u < 0.904 + 0.084 {
        Protocol::Udp
    } else {
        Protocol::Icmp
    }
}

/// Sample the destination port given the protocol, per §6.2:
/// TCP: 37% :80, 30% :53, 18% :443, rest spread;
/// UDP: one-third :53, rest spread.
pub fn sample_port<R: Rng + ?Sized>(rng: &mut R, proto: Protocol) -> u16 {
    match proto {
        Protocol::Tcp => {
            let u: f64 = rng.random();
            if u < 0.37 {
                80
            } else if u < 0.67 {
                53
            } else if u < 0.85 {
                443
            } else {
                // A long tail of scanned/odd ports.
                rng.random_range(1..=u16::MAX)
            }
        }
        Protocol::Udp => {
            let u: f64 = rng.random();
            if u < 1.0 / 3.0 {
                53
            } else {
                rng.random_range(1..=u16::MAX)
            }
        }
        Protocol::Icmp => 0,
    }
}

/// Sample how many distinct destination ports an attack touches. 80.7% of
/// attacks were single-port (§6.2); the remainder carpet a handful.
pub fn sample_port_count<R: Rng + ?Sized>(rng: &mut R) -> u16 {
    if rng.random::<f64>() < 0.807 {
        1
    } else {
        // 2..=64 with a geometric-ish tail.
        let mut n = 2u16;
        while n < 64 && rng.random::<f64>() < 0.5 {
            n *= 2;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::Udp.number(), 17);
        assert_eq!(Protocol::Icmp.number(), 1);
    }

    #[test]
    fn protocol_names_are_the_debug_names() {
        for p in [Protocol::Tcp, Protocol::Udp, Protocol::Icmp] {
            assert_eq!(p.name(), format!("{p:?}"));
        }
    }

    #[test]
    fn visibility() {
        assert!(VectorKind::RandomSpoofed.telescope_visible());
        assert!(!VectorKind::Reflection.telescope_visible());
        assert!(!VectorKind::Direct.telescope_visible());
    }

    #[test]
    fn protocol_mix_matches_paper() {
        let mut r = rng();
        let n = 100_000;
        let mut tcp = 0;
        let mut udp = 0;
        let mut icmp = 0;
        for _ in 0..n {
            match sample_protocol(&mut r) {
                Protocol::Tcp => tcp += 1,
                Protocol::Udp => udp += 1,
                Protocol::Icmp => icmp += 1,
            }
        }
        assert!((tcp as f64 / n as f64 - 0.904).abs() < 0.01);
        assert!((udp as f64 / n as f64 - 0.084).abs() < 0.01);
        assert!((icmp as f64 / n as f64 - 0.012).abs() < 0.005);
    }

    #[test]
    fn tcp_port_mix_matches_paper() {
        let mut r = rng();
        let n = 100_000;
        let mut p80 = 0;
        let mut p53 = 0;
        let mut p443 = 0;
        for _ in 0..n {
            match sample_port(&mut r, Protocol::Tcp) {
                80 => p80 += 1,
                53 => p53 += 1,
                443 => p443 += 1,
                _ => {}
            }
        }
        assert!((p80 as f64 / n as f64 - 0.37).abs() < 0.02, "p80 {p80}");
        assert!((p53 as f64 / n as f64 - 0.30).abs() < 0.02, "p53 {p53}");
        assert!((p443 as f64 / n as f64 - 0.18).abs() < 0.02, "p443 {p443}");
        assert!(p80 > p53 && p53 > p443, "paper ordering 80 > 53 > 443");
    }

    #[test]
    fn udp_port_mix() {
        let mut r = rng();
        let n = 60_000;
        let p53 = (0..n).filter(|_| sample_port(&mut r, Protocol::Udp) == 53).count();
        assert!((p53 as f64 / n as f64 - 1.0 / 3.0).abs() < 0.02);
    }

    #[test]
    fn icmp_has_no_port() {
        let mut r = rng();
        assert_eq!(sample_port(&mut r, Protocol::Icmp), 0);
    }

    #[test]
    fn single_port_dominates() {
        let mut r = rng();
        let n = 50_000;
        let single = (0..n).filter(|_| sample_port_count(&mut r) == 1).count();
        assert!((single as f64 / n as f64 - 0.807).abs() < 0.01);
        for _ in 0..1_000 {
            let c = sample_port_count(&mut r);
            assert!((1..=64).contains(&c));
        }
    }
}
