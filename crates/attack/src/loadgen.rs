//! Conversion of attacks into per-window offered load.
//!
//! Kept free of a `dnssim` dependency: the output is a plain
//! `(address, window, pps)` stream that the caller feeds into
//! `dnssim::LoadBook::add` (or anything else).

use crate::spec::Attack;
use simcore::time::Window;
use std::net::Ipv4Addr;

/// Flatten attacks into `(target, window, average_pps_over_window)` cells.
/// All vectors contribute load (including telescope-invisible ones — the
/// victim's queue doesn't care whether the darknet can see the traffic).
/// Partial window overlap prorates the rate.
pub fn accumulate_windows(attacks: &[Attack]) -> Vec<(Ipv4Addr, Window, f64)> {
    // Sized once, so half a million cells are never moved by a doubling.
    let mut out = Vec::with_capacity(attacks.iter().map(Attack::max_windows).sum());
    for a in attacks {
        let pps = a.total_pps();
        for (w, frac) in a.window_overlaps() {
            out.push((a.target, w, pps * frac));
        }
    }
    out
}

/// As [`accumulate_windows`], but only the telescope-visible (randomly
/// spoofed) component — what backscatter-based rate inference would
/// credit the attack with.
pub fn accumulate_visible_windows(attacks: &[Attack]) -> Vec<(Ipv4Addr, Window, f64)> {
    let mut out = Vec::new();
    for a in attacks {
        let pps = a.spoofed_pps();
        if pps <= 0.0 {
            continue;
        }
        for (w, frac) in a.window_overlaps() {
            out.push((a.target, w, pps * frac));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AttackId, VectorSpec};
    use crate::vector::{Protocol, VectorKind};
    use simcore::time::{SimDuration, SimTime};

    fn attack(visible_pps: f64, invisible_pps: f64) -> Attack {
        let mut vectors = Vec::new();
        if visible_pps > 0.0 {
            vectors.push(VectorSpec {
                kind: VectorKind::RandomSpoofed,
                protocol: Protocol::Tcp,
                ports: vec![53],
                victim_pps: visible_pps,
                source_count: 100,
            });
        }
        if invisible_pps > 0.0 {
            vectors.push(VectorSpec {
                kind: VectorKind::Reflection,
                protocol: Protocol::Udp,
                ports: vec![53],
                victim_pps: invisible_pps,
                source_count: 10,
            });
        }
        Attack {
            id: AttackId(0),
            target: "192.0.2.1".parse().unwrap(),
            start: SimTime(0),
            duration: SimDuration::from_mins(10),
            vectors,
        }
    }

    #[test]
    fn total_load_includes_invisible_vectors() {
        let cells = accumulate_windows(&[attack(1_000.0, 9_000.0)]);
        assert_eq!(cells.len(), 2);
        for (_, _, pps) in &cells {
            assert!((pps - 10_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn visible_load_excludes_invisible_vectors() {
        let cells = accumulate_visible_windows(&[attack(1_000.0, 9_000.0)]);
        for (_, _, pps) in &cells {
            assert!((pps - 1_000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn invisible_only_attack_has_no_visible_cells() {
        let cells = accumulate_visible_windows(&[attack(0.0, 5_000.0)]);
        assert!(cells.is_empty());
        let all = accumulate_windows(&[attack(0.0, 5_000.0)]);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn energy_conserved_under_prorating() {
        // A misaligned attack spreads the same packet budget across cells.
        let mut a = attack(600.0, 0.0);
        a.start = SimTime(150);
        a.duration = SimDuration::from_secs(450);
        let cells = accumulate_windows(&[a]);
        let total_packets: f64 = cells.iter().map(|(_, _, pps)| pps * 300.0).sum();
        assert!((total_packets - 600.0 * 450.0).abs() < 1e-6);
    }
}
