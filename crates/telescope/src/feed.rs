//! The RSDoS feed: record schema, dataset summary (Table 1), CSV export.

use crate::backscatter::BackscatterObs;
use crate::rsdos::AttackEpisode;
use attack::Protocol;
use netbase::{Prefix2As, Slash24};
use simcore::time::Window;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// One feed entry: aggregated backscatter statistics for one victim in one
/// 5-minute window (the schema of §3.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RsdosRecord {
    pub window: Window,
    pub victim: Ipv4Addr,
    /// Telescope /16 subnets that received packets from the victim.
    pub slash16s: u32,
    pub protocol: Protocol,
    /// First destination port observed under attack.
    pub first_port: u16,
    /// Number of distinct targeted ports.
    pub unique_ports: u16,
    /// Peak observed packet rate in the window (packets/minute).
    pub max_ppm: f64,
    /// Total packets in the window (used for episode statistics).
    pub packets: u64,
}

impl RsdosRecord {
    pub fn from_obs(o: &BackscatterObs) -> RsdosRecord {
        RsdosRecord {
            window: o.window,
            victim: o.victim,
            slash16s: o.slash16s,
            protocol: o.protocol,
            first_port: o.first_port,
            unique_ports: o.unique_ports,
            max_ppm: o.max_ppm,
            packets: o.packets,
        }
    }

    /// Extrapolate the telescope rate to the whole IPv4 space:
    /// `ppm × scale / 60` → victim-side pps (footnote 2 of the paper).
    pub fn inferred_victim_pps(&self, scale_factor: f64) -> f64 {
        self.max_ppm * scale_factor / 60.0
    }
}

/// The assembled feed over an analysis interval.
#[derive(Clone, Debug, Default)]
pub struct RsdosFeed {
    pub records: Vec<RsdosRecord>,
    pub episodes: Vec<AttackEpisode>,
}

/// Dataset summary in the shape of the paper's Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct FeedSummary {
    pub attacks: usize,
    pub unique_ips: usize,
    pub unique_slash24s: usize,
    pub unique_asns: usize,
}

impl RsdosFeed {
    pub fn new(records: Vec<RsdosRecord>, episodes: Vec<AttackEpisode>) -> RsdosFeed {
        RsdosFeed { records, episodes }
    }

    /// Table-1 style summary. Attacks are episodes; IPs//24s/ASes count the
    /// distinct victims.
    pub fn summary(&self, prefix2as: &Prefix2As) -> FeedSummary {
        let ips: HashSet<Ipv4Addr> = self.episodes.iter().map(|e| e.victim).collect();
        let slash24s: HashSet<Slash24> = ips.iter().map(|&ip| Slash24::of(ip)).collect();
        let asns: HashSet<_> = ips.iter().filter_map(|&ip| prefix2as.asn_of(ip)).collect();
        FeedSummary {
            attacks: self.episodes.len(),
            unique_ips: ips.len(),
            unique_slash24s: slash24s.len(),
            unique_asns: asns.len(),
        }
    }

    /// Episodes whose victim passes `pred` (e.g. "is a nameserver IP").
    pub fn episodes_where<'a>(
        &'a self,
        mut pred: impl FnMut(Ipv4Addr) -> bool + 'a,
    ) -> impl Iterator<Item = &'a AttackEpisode> {
        self.episodes.iter().filter(move |e| pred(e.victim))
    }

    /// Emit one `AttackOnset` trace event per episode, attributed to the
    /// feed `scope` (`rsdos`, `milru`, …). The episode's index in this
    /// feed becomes its causal id (`scope/idx`) for the rest of the
    /// pipeline. Pure function of the feed, so the emitted stream is
    /// identical for any `--jobs` or chaos seed. The ring keeps each
    /// onset's fields and renders its detail only when read.
    pub fn trace_onsets(&self, scope: &'static str) {
        for (idx, e) in self.episodes.iter().enumerate() {
            obs::trace::emit_onset(
                scope,
                idx as u64,
                e.first_window.start().secs(),
                obs::trace::Onset {
                    victim: e.victim,
                    protocol: e.protocol.name(),
                    port: e.first_port,
                    peak_ppm: e.peak_ppm,
                },
                e.duration().secs() / 60,
            );
        }
    }

    /// Build the victim → episode lookup that attributes downstream
    /// events (feed arrivals, triggers, probes) back to episode ids.
    pub fn episode_index(&self) -> EpisodeIndex {
        EpisodeIndex::new(&self.episodes)
    }

    /// Render the per-window records as CSV.
    pub fn records_csv(&self) -> String {
        let mut s = String::from(
            "window,start,victim,slash16s,protocol,first_port,unique_ports,max_ppm,packets\n",
        );
        for r in &self.records {
            let _ = writeln!(
                s,
                "{},{},{},{},{:?},{},{},{:.1},{}",
                r.window.0,
                r.window.start(),
                r.victim,
                r.slash16s,
                r.protocol,
                r.first_port,
                r.unique_ports,
                r.max_ppm,
                r.packets
            );
        }
        s
    }

    /// Render the episodes as CSV.
    pub fn episodes_csv(&self) -> String {
        let mut s = String::from(
            "victim,first_window,last_window,start,duration_min,packets,peak_ppm,protocol,first_port,unique_ports,slash16s\n",
        );
        for e in &self.episodes {
            let _ = writeln!(
                s,
                "{},{},{},{},{},{},{:.1},{:?},{},{},{}",
                e.victim,
                e.first_window.0,
                e.last_window.0,
                e.first_window.start(),
                e.duration().secs() / 60,
                e.packets,
                e.peak_ppm,
                e.protocol,
                e.first_port,
                e.unique_ports,
                e.slash16s
            );
        }
        s
    }
}

/// Victim → episode lookup for trace attribution: maps a feed record's
/// `(victim, window)` to the episode index it belongs to. A record can
/// trail its episode's `last_window` (the trigger path extends plans on
/// every sighting), so the lookup picks the *latest* episode of the
/// victim whose first window is ≤ the record's window rather than
/// requiring containment.
#[derive(Clone, Debug, Default)]
pub struct EpisodeIndex {
    /// Per victim: `(first_window, episode idx)`, sorted by first window.
    by_victim: HashMap<Ipv4Addr, Vec<(u64, u64)>>,
}

impl EpisodeIndex {
    pub fn new(episodes: &[AttackEpisode]) -> EpisodeIndex {
        let mut by_victim: HashMap<Ipv4Addr, Vec<(u64, u64)>> = HashMap::new();
        for (idx, e) in episodes.iter().enumerate() {
            by_victim.entry(e.victim).or_default().push((e.first_window.0, idx as u64));
        }
        for spans in by_victim.values_mut() {
            spans.sort_unstable();
        }
        EpisodeIndex { by_victim }
    }

    /// The episode a record of `victim` in window `w` belongs to, if any.
    pub fn lookup(&self, victim: Ipv4Addr, w: Window) -> Option<u64> {
        let spans = self.by_victim.get(&victim)?;
        let at = spans.partition_point(|&(first, _)| first <= w.0);
        at.checked_sub(1).map(|i| spans[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbase::{Asn, Ipv4Net};

    fn record(victim: &str, w: u64) -> RsdosRecord {
        RsdosRecord {
            window: Window(w),
            victim: victim.parse().unwrap(),
            slash16s: 10,
            protocol: Protocol::Tcp,
            first_port: 53,
            unique_ports: 1,
            max_ppm: 120.0,
            packets: 600,
        }
    }

    fn episode(victim: &str, w0: u64, w1: u64) -> AttackEpisode {
        AttackEpisode {
            victim: victim.parse().unwrap(),
            first_window: Window(w0),
            last_window: Window(w1),
            packets: 1_000,
            peak_ppm: 200.0,
            protocol: Protocol::Tcp,
            first_port: 80,
            unique_ports: 1,
            slash16s: 12,
        }
    }

    #[test]
    fn summary_counts_unique_dimensions() {
        let mut p2a = Prefix2As::new();
        p2a.announce("10.0.0.0/8".parse::<Ipv4Net>().unwrap(), Asn(100));
        p2a.announce("20.0.0.0/8".parse::<Ipv4Net>().unwrap(), Asn(200));
        let feed = RsdosFeed::new(
            vec![],
            vec![
                episode("10.0.0.1", 0, 2),
                episode("10.0.0.2", 5, 6),   // same /24, same AS
                episode("10.0.1.1", 8, 8),   // same AS, new /24
                episode("20.0.0.1", 9, 9),   // new AS
                episode("10.0.0.1", 50, 51), // repeat victim: new attack, same ip
            ],
        );
        let s = feed.summary(&p2a);
        assert_eq!(s.attacks, 5);
        assert_eq!(s.unique_ips, 4);
        assert_eq!(s.unique_slash24s, 3);
        assert_eq!(s.unique_asns, 2);
    }

    #[test]
    fn extrapolation_matches_paper_footnote() {
        // 21.8 kppm × 341.33 / 60 ≈ 124 kpps.
        let r = RsdosRecord { max_ppm: 21_800.0, ..record("1.2.3.4", 0) };
        let pps = r.inferred_victim_pps(341.33);
        assert!((pps - 124_000.0).abs() < 1_000.0, "{pps}");
    }

    #[test]
    fn filtering_by_predicate() {
        let feed =
            RsdosFeed::new(vec![], vec![episode("10.0.0.1", 0, 1), episode("99.0.0.1", 0, 1)]);
        let dns: Vec<_> = feed.episodes_where(|ip| ip.octets()[0] == 10).collect();
        assert_eq!(dns.len(), 1);
    }

    #[test]
    fn csv_exports_have_headers_and_rows() {
        let feed = RsdosFeed::new(vec![record("1.2.3.4", 3)], vec![episode("1.2.3.4", 3, 4)]);
        let rc = feed.records_csv();
        assert!(rc.starts_with("window,start,victim"));
        assert_eq!(rc.lines().count(), 2);
        assert!(rc.contains("1.2.3.4"));
        let ec = feed.episodes_csv();
        assert_eq!(ec.lines().count(), 2);
        assert!(ec.contains("duration_min"));
        assert!(ec.contains(",10,")); // duration 2 windows = 10 min
    }

    #[test]
    fn episode_index_attributes_records() {
        let feed = RsdosFeed::new(
            vec![],
            vec![
                episode("10.0.0.1", 10, 12),
                episode("10.0.0.1", 50, 51), // second attack on the same ip
                episode("10.0.0.2", 20, 21),
            ],
        );
        let ix = feed.episode_index();
        let ip: Ipv4Addr = "10.0.0.1".parse().unwrap();
        assert_eq!(ix.lookup(ip, Window(10)), Some(0));
        // Trailing records (plan extensions) still attribute to episode 0.
        assert_eq!(ix.lookup(ip, Window(30)), Some(0));
        assert_eq!(ix.lookup(ip, Window(50)), Some(1));
        assert_eq!(ix.lookup(ip, Window(9)), None, "before the first onset");
        assert_eq!(ix.lookup("10.9.9.9".parse().unwrap(), Window(10)), None);
        assert_eq!(ix.lookup("10.0.0.2".parse().unwrap(), Window(25)), Some(2));
    }

    /// The onset detail rendered when the ring is read is the text the
    /// emitter used to `format!`: every protocol, `peak_ppm` ties at `x.5`
    /// (rounded half to even by `{:.0}`), values past 2⁵³, and 0.0.
    #[test]
    fn onset_details_render_as_the_emitter_formatted_them() {
        let peaks = [0.0, 0.5, 1.5, 2.5, 1234.5, 3098.49, 9_007_199_254_740_993.0, 1e300];
        let mut episodes = Vec::new();
        for (i, &peak_ppm) in peaks.iter().enumerate() {
            for protocol in [Protocol::Tcp, Protocol::Udp, Protocol::Icmp] {
                let mut e = episode(&format!("192.0.2.{i}"), i as u64, i as u64 + 2);
                (e.protocol, e.peak_ppm, e.first_port) = (protocol, peak_ppm, 65_535 - i as u16);
                episodes.push(e);
            }
        }
        let feed = RsdosFeed::new(vec![], episodes);
        // The ring is process-global: this scope is the test's own.
        feed.trace_onsets("onset-render-test");
        let mut traced: Vec<_> =
            obs::trace::snapshot().into_iter().filter(|t| t.scope == "onset-render-test").collect();
        traced.sort_by_key(|t| t.episode);
        assert_eq!(traced.len(), feed.episodes.len());
        for (idx, (t, e)) in traced.iter().zip(&feed.episodes).enumerate() {
            let old = format!(
                "victim {} {:?} port {} peak {:.0} ppm",
                e.victim, e.protocol, e.first_port, e.peak_ppm
            );
            assert_eq!(t.detail, old);
            assert_eq!(t.kind, obs::EventKind::AttackOnset);
            assert_eq!(t.episode, Some(idx as u64));
            assert_eq!(t.sim_secs, Some(e.first_window.start().secs()));
            assert_eq!(t.value, Some(e.duration().secs() / 60));
        }
    }

    #[test]
    fn empty_feed_summary() {
        let feed = RsdosFeed::default();
        let s = feed.summary(&Prefix2As::new());
        assert_eq!(
            s,
            FeedSummary { attacks: 0, unique_ips: 0, unique_slash24s: 0, unique_asns: 0 }
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `Onset::render` ≡ the emitter's old `format!` over every finite
        /// non-negative `peak_ppm` bit pattern, any victim and port.
        #[test]
        fn onset_render_equals_the_old_format(
            victim in any::<u32>(),
            proto in 0usize..3,
            port in any::<u16>(),
            ppm_bits in 0u64..0x7FF0_0000_0000_0000,
        ) {
            let (victim, peak_ppm) = (Ipv4Addr::from(victim), f64::from_bits(ppm_bits));
            let protocol = [Protocol::Tcp, Protocol::Udp, Protocol::Icmp][proto];
            let onset = obs::trace::Onset { victim, protocol: protocol.name(), port, peak_ppm };
            prop_assert_eq!(
                onset.render(),
                format!("victim {} {:?} port {} peak {:.0} ppm", victim, protocol, port, peak_ppm)
            );
        }
    }
}
