//! The attack record: one (possibly multi-vector) attack against one IPv4
//! address.

use crate::vector::{Protocol, VectorKind};
use simcore::time::{SimDuration, SimTime, Window, WINDOW_SECS};
use std::net::Ipv4Addr;

/// Unique attack identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AttackId(pub u64);

/// One traffic vector of an attack.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorSpec {
    pub kind: VectorKind,
    pub protocol: Protocol,
    /// Destination ports hit by this vector (first element = "first port"
    /// in the RSDoS feed sense). Empty for ICMP.
    pub ports: Vec<u16>,
    /// Packet rate arriving at the victim, packets per second.
    pub victim_pps: f64,
    /// Number of distinct (spoofed or real) source addresses.
    pub source_count: u64,
}

impl VectorSpec {
    pub fn first_port(&self) -> u16 {
        self.ports.first().copied().unwrap_or(0)
    }
}

/// A scheduled attack.
#[derive(Clone, Debug, PartialEq)]
pub struct Attack {
    pub id: AttackId,
    pub target: Ipv4Addr,
    pub start: SimTime,
    pub duration: SimDuration,
    pub vectors: Vec<VectorSpec>,
}

impl Attack {
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Total packet rate at the victim across all vectors.
    pub fn total_pps(&self) -> f64 {
        self.vectors.iter().map(|v| v.victim_pps).sum()
    }

    /// Packet rate of the telescope-visible (randomly spoofed) vectors
    /// only — what backscatter inference can be based on.
    pub fn spoofed_pps(&self) -> f64 {
        self.vectors.iter().filter(|v| v.kind.telescope_visible()).map(|v| v.victim_pps).sum()
    }

    /// Whether any vector is visible to the telescope.
    pub fn telescope_visible(&self) -> bool {
        self.vectors.iter().any(|v| v.kind.telescope_visible())
    }

    /// An upper bound on the number of windows [`Attack::window_overlaps`]
    /// yields, for sizing what holds a cell per window before the windows
    /// are walked.
    pub fn max_windows(&self) -> usize {
        (self.duration.secs() / WINDOW_SECS + 2) as usize
    }

    /// The 5-minute windows `[first, last]` the attack overlaps, in order,
    /// with the fraction of each window the attack is active. Nothing is
    /// allocated: the walk is a range of window numbers, and every window
    /// in it overlaps the attack by a positive fraction (the last is the
    /// one holding the attack's final second, `ceil(end / WINDOW_SECS) - 1`).
    pub fn window_overlaps(&self) -> impl Iterator<Item = (Window, f64)> {
        let (start, end) = (self.start.secs(), self.end().secs());
        let first = start / WINDOW_SECS;
        let stop = if end > start { end.div_ceil(WINDOW_SECS) } else { first };
        (first..stop).map(move |w| {
            let ws = (w * WINDOW_SECS).max(start);
            let we = ((w + 1) * WINDOW_SECS).min(end);
            (Window(w), (we - ws) as f64 / WINDOW_SECS as f64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(start_s: u64, dur_s: u64) -> Attack {
        Attack {
            id: AttackId(1),
            target: "192.0.2.1".parse().unwrap(),
            start: SimTime(start_s),
            duration: SimDuration::from_secs(dur_s),
            vectors: vec![
                VectorSpec {
                    kind: VectorKind::RandomSpoofed,
                    protocol: Protocol::Tcp,
                    ports: vec![53, 80],
                    victim_pps: 10_000.0,
                    source_count: 1_000_000,
                },
                VectorSpec {
                    kind: VectorKind::Reflection,
                    protocol: Protocol::Udp,
                    ports: vec![53],
                    victim_pps: 5_000.0,
                    source_count: 2_000,
                },
            ],
        }
    }

    #[test]
    fn rates_split_by_visibility() {
        let a = mk(0, 600);
        assert_eq!(a.total_pps(), 15_000.0);
        assert_eq!(a.spoofed_pps(), 10_000.0);
        assert!(a.telescope_visible());
        assert_eq!(a.vectors[0].first_port(), 53);
    }

    #[test]
    fn invisible_attack() {
        let mut a = mk(0, 600);
        a.vectors.retain(|v| v.kind == VectorKind::Reflection);
        assert!(!a.telescope_visible());
        assert_eq!(a.spoofed_pps(), 0.0);
        assert_eq!(a.total_pps(), 5_000.0);
    }

    #[test]
    fn aligned_attack_fills_whole_windows() {
        // 10 minutes starting exactly at a window edge = 2 full windows.
        let a = mk(300, 600);
        let w: Vec<_> = a.window_overlaps().collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0], (Window(1), 1.0));
        assert_eq!(w[1], (Window(2), 1.0));
    }

    #[test]
    fn misaligned_attack_prorates_edges() {
        // Start 150 s into window 0, run 450 s → half of W0, all of W1.
        let a = mk(150, 450);
        let w: Vec<_> = a.window_overlaps().collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, Window(0));
        assert!((w[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(w[1], (Window(1), 1.0));
    }

    #[test]
    fn sub_window_attack() {
        let a = mk(60, 60);
        let w: Vec<_> = a.window_overlaps().collect();
        assert_eq!(w.len(), 1);
        assert!((w[0].1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_has_no_windows() {
        let a = mk(100, 0);
        assert_eq!(a.window_overlaps().count(), 0);
    }

    #[test]
    fn fifteen_minute_attack_spans_three_windows_aligned() {
        let a = mk(0, 900);
        let w: Vec<_> = a.window_overlaps().collect();
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|(_, f)| (*f - 1.0).abs() < 1e-12));
        let total: f64 = w.iter().map(|(_, f)| f).sum();
        assert!((total * 300.0 - 900.0).abs() < 1e-9, "fractions conserve duration");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The walk as it was when it collected into a `Vec`, kept as the
    /// reference for the iterator.
    fn window_overlaps_vec(a: &Attack) -> Vec<(Window, f64)> {
        let mut out = Vec::new();
        let start = a.start;
        let end = a.end();
        if end <= start {
            return out;
        }
        let mut w = start.window();
        let last = if end.secs().is_multiple_of(WINDOW_SECS) {
            Window(end.window().0.saturating_sub(1))
        } else {
            end.window()
        };
        while w <= last {
            let ws = w.start().secs().max(start.secs());
            let we = w.end().secs().min(end.secs());
            let frac = (we.saturating_sub(ws)) as f64 / WINDOW_SECS as f64;
            if frac > 0.0 {
                out.push((w, frac));
            }
            w = w.next();
        }
        out
    }

    fn at(start: u64, dur: u64) -> Attack {
        Attack {
            id: AttackId(0),
            target: "192.0.2.1".parse().unwrap(),
            start: SimTime(start),
            duration: SimDuration::from_secs(dur),
            vectors: vec![],
        }
    }

    proptest! {
        /// Window overlap fractions conserve the attack's total duration
        /// and the windows are contiguous and in order.
        #[test]
        fn overlaps_conserve_duration(start in 0u64..1_000_000, dur in 1u64..200_000) {
            let a = at(start, dur);
            let w: Vec<_> = a.window_overlaps().collect();
            prop_assert!(!w.is_empty());
            prop_assert!(w.len() <= a.max_windows());
            let covered: f64 = w.iter().map(|(_, f)| f * WINDOW_SECS as f64).sum();
            prop_assert!((covered - dur as f64).abs() < 1e-6);
            for pair in w.windows(2) {
                prop_assert_eq!(pair[0].0.next(), pair[1].0, "contiguous windows");
            }
            for (_, f) in &w {
                prop_assert!(*f > 0.0 && *f <= 1.0 + 1e-12);
            }
            prop_assert_eq!(w[0].0, SimTime(start).window());
        }

        /// The iterator yields exactly the old `Vec`'s windows and bit-equal
        /// fractions: starts and ends on and off window edges, zero and
        /// sub-window durations, and long ones.
        #[test]
        fn overlap_walk_equals_the_collected_walk(
            start_window in 0u64..5_000,
            start_offset in prop_oneof![Just(0u64), 1u64..300],
            dur in prop_oneof![Just(0u64), 1u64..300, (1u64..40).prop_map(|k| k * 300), 1u64..50_000],
            end_on_edge in any::<bool>(),
        ) {
            let start = start_window * WINDOW_SECS + start_offset;
            // Optionally stretch the attack so it ends exactly on a window edge.
            let dur = if end_on_edge && dur > 0 {
                (start + dur).div_ceil(WINDOW_SECS) * WINDOW_SECS - start
            } else {
                dur
            };
            let a = at(start, dur);
            let want = window_overlaps_vec(&a);
            let got: Vec<_> = a.window_overlaps().collect();
            prop_assert_eq!(got.len(), want.len());
            for ((gw, gf), (ww, wf)) in got.iter().zip(&want) {
                prop_assert_eq!(gw, ww);
                prop_assert_eq!(gf.to_bits(), wf.to_bits());
            }
        }
    }
}
