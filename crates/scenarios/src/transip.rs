//! §5.1 — the TransIP case study.
//!
//! At attack time TransIP served ≈776 K domains (two-thirds `.nl`) from
//! three *unicast* nameservers (A, B, C) on three /24s, two cities, one
//! ASN. Two attacks:
//!
//! - **December 2020** (2020-11-30 22:00 → 2020-12-01): the telescope saw
//!   a 21.8 Kppm peak against A and much weaker activity against B and C,
//!   yet OpenINTEL measured a ~10× RTT inflation and the impairment
//!   persisted ≈8 hours past the RSDoS-inferred end — we reproduce that
//!   with a telescope-invisible reflection component that outlives the
//!   spoofed vector.
//! - **March 2021** (reported by TransIP as more intense): ~6× the
//!   December peak rate, ≈20% of OpenINTEL queries timing out, and the
//!   impairment interval *matching* the telescope interval — consistent
//!   with TransIP's reported IP-level scrubbing, which we model as a
//!   fraction of attack traffic removed before it reaches the servers.
//!
//! The scenario is scaled 1:100 in domain count by default (7,760 domains)
//! with capacities scaled to match, preserving the ratios that drive every
//! observable shape.

use attack::{Attack, AttackId, Protocol, VectorKind, VectorSpec};
use census::{AnycastCensus, OpenResolverList};
use dnsimpact_core::casestudy::{ns_attack_metrics, rtt_timeseries, NsAttackMetrics, TimePoint};
use dnsimpact_core::front;
use dnsimpact_core::longitudinal::MetaTables;
use dnssim::{Deployment, Infra, LoadBook, NsSetId, Resolver};
use netbase::{As2Org, Asn, Ipv4Net, OrgRegistry, Prefix2As};
use openintel::{measure::measure_window, MeasurementStore, SweepSchedule};
use simcore::rng::RngFactory;
use simcore::time::{CivilDate, SimDuration, SimTime, Window};
use std::net::Ipv4Addr;
use telescope::{Darknet, RsdosFeed};

/// The TransIP attack scenario.
pub struct TransIpScenario {
    pub infra: Infra,
    pub meta: MetaTables,
    pub nsset: NsSetId,
    /// Nameservers A, B, C.
    pub addrs: [Ipv4Addr; 3],
    pub attacks: Vec<Attack>,
    /// Windows to render for the December figure (Nov 29 – Dec 3).
    pub dec_range: (Window, Window),
    /// The December visible (RSDoS-inferred) attack interval.
    pub dec_attack: (SimTime, SimTime),
    /// Windows to render for the March figure.
    pub mar_range: (Window, Window),
    /// The March attack interval.
    pub mar_attack: (SimTime, SimTime),
    /// Share of March attack traffic that survives scrubbing.
    pub scrub_pass: f64,
    /// Share of hosted domains whose *web content* lives at a third party
    /// (the paper measured ≈27%, §5.1.1). DNS still lives at TransIP.
    pub third_party_web_share: f64,
}

/// Per-nameserver capacity in the scaled scenario, pps.
const CAPACITY_PPS: f64 = 150_000.0;
/// Scaled domain count (1:100 of the real ≈776 K).
pub const SCALED_DOMAINS: u32 = 7_760;

impl TransIpScenario {
    pub fn build(rngs: &RngFactory) -> TransIpScenario {
        let mut infra = Infra::new();
        let mut orgs = OrgRegistry::new();
        let mut as2org = As2Org::new();
        let mut prefix2as = Prefix2As::new();
        let org = orgs.add("TransIP B.V.", "NL");
        let asn = Asn(20857);
        as2org.assign(asn, org);
        let addrs: [Ipv4Addr; 3] = [
            "195.135.195.195".parse().unwrap(), // A — Amsterdam
            "195.8.195.195".parse().unwrap(),   // B — Amsterdam
            "37.97.199.195".parse().unwrap(),   // C — Eindhoven
        ];
        for a in addrs {
            prefix2as.announce(Ipv4Net::new(a, 24), asn);
        }
        let legit = SCALED_DOMAINS as f64 * 0.5;
        let ids: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                infra.add_nameserver(
                    ["ns0.transip.net", "ns1.transip.nl", "ns2.transip.eu"][i].parse().unwrap(),
                    a,
                    asn,
                    Deployment::Unicast,
                    CAPACITY_PPS,
                    legit,
                    if i == 2 { 17.0 } else { 14.0 }, // Eindhoven slightly farther
                )
            })
            .collect();
        let nsset = infra.intern_nsset(ids);
        for d in 0..SCALED_DOMAINS {
            let tld = if d % 3 == 2 { "com" } else { "nl" }; // two-thirds .nl
            infra.add_domain(format!("klant{d}.{tld}").parse().unwrap(), nsset);
        }

        let census = AnycastCensus::from_ground_truth(
            &infra,
            AnycastCensus::paper_snapshot_dates(),
            1.0,
            rngs,
        );
        let meta = MetaTables {
            prefix2as,
            as2org,
            orgs,
            open_resolvers: OpenResolverList::well_known(),
            census,
        };

        // ---- December 2020 attack --------------------------------------
        let dec_start = SimTime::from_civil(CivilDate::new(2020, 11, 30), 22, 0, 0);
        let dec_vis_end = SimTime::from_civil(CivilDate::new(2020, 12, 1), 0, 30, 0);
        let dec_invis_end = SimTime::from_civil(CivilDate::new(2020, 12, 1), 8, 0, 0);
        let spoofed = |id: u64, target: Ipv4Addr, start: SimTime, end: SimTime, pps: f64| Attack {
            id: AttackId(id),
            target,
            start,
            duration: end - start,
            vectors: vec![VectorSpec {
                kind: VectorKind::RandomSpoofed,
                protocol: Protocol::Tcp,
                ports: vec![53],
                victim_pps: pps,
                source_count: attack::schedule::spoofed_source_count(
                    pps * (end - start).secs() as f64,
                ),
            }],
        };
        let invisible =
            |id: u64, target: Ipv4Addr, start: SimTime, end: SimTime, pps: f64| Attack {
                id: AttackId(id),
                target,
                start,
                duration: end - start,
                vectors: vec![VectorSpec {
                    kind: VectorKind::Reflection,
                    protocol: Protocol::Udp,
                    ports: vec![53],
                    victim_pps: pps,
                    source_count: 3_000,
                }],
            };
        let mut attacks = vec![
            // Visible spoofed vectors: A hard, B and C much weaker.
            spoofed(0, addrs[0], dec_start, dec_vis_end, 124_000.0),
            spoofed(1, addrs[1], dec_start, dec_vis_end + SimDuration::from_hours(12), 21_600.0),
            spoofed(2, addrs[2], dec_start, dec_vis_end + SimDuration::from_hours(12), 16_500.0),
        ];
        // The invisible components that keep all three servers loaded (at
        // ρ just under 1, so RTT inflates ≈10x with negligible loss) until
        // 08:00 — the 8-hour post-RSDoS impairment tail. B and C carry
        // most of it, which is why their weak telescope signal belies the
        // measured impairment.
        for (k, (&a, pps)) in addrs.iter().zip([10_000.0, 115_000.0, 120_000.0]).enumerate() {
            attacks.push(invisible(3 + k as u64, a, dec_start, dec_invis_end, pps));
        }

        // ---- March 2021 attack -----------------------------------------
        let mar_start = SimTime::from_civil(CivilDate::new(2021, 3, 2), 15, 0, 0);
        let mar_end = SimTime::from_civil(CivilDate::new(2021, 3, 2), 19, 0, 0);
        // 6× the December peak on A and B, modest on C (Table 2)...
        attacks.push(spoofed(6, addrs[0], mar_start, mar_end, 710_000.0));
        attacks.push(spoofed(7, addrs[1], mar_start, mar_end, 700_000.0));
        attacks.push(spoofed(8, addrs[2], mar_start, mar_end, 74_000.0));
        // ...plus reflection vectors the telescope cannot see. Even after
        // scrubbing, these push A and B well past saturation and C past
        // its knee — which is what makes ≈20% of resolutions time out
        // despite unbound's retries across all three servers.
        attacks.push(invisible(9, addrs[0], mar_start, mar_end, 600_000.0));
        attacks.push(invisible(10, addrs[1], mar_start, mar_end, 600_000.0));
        attacks.push(invisible(11, addrs[2], mar_start, mar_end, 700_000.0));

        TransIpScenario {
            infra,
            meta,
            nsset,
            addrs,
            attacks,
            dec_range: (
                SimTime::from_civil(CivilDate::new(2020, 11, 29), 0, 0, 0).window(),
                SimTime::from_civil(CivilDate::new(2020, 12, 3), 0, 0, 0).window(),
            ),
            dec_attack: (dec_start, dec_vis_end),
            mar_range: (
                SimTime::from_civil(CivilDate::new(2021, 3, 1), 0, 0, 0).window(),
                SimTime::from_civil(CivilDate::new(2021, 3, 4), 0, 0, 0).window(),
            ),
            mar_attack: (mar_start, mar_end),
            scrub_pass: 0.27,
            third_party_web_share: 0.27,
        }
    }

    /// Offered load with the March scrubbing applied: the scrubber passes
    /// only `scrub_pass` of March attack traffic to the servers, while the
    /// telescope still sees the full spoofed rate.
    pub fn load_book(&self) -> LoadBook {
        let mut book = LoadBook::new();
        let mar_first = self.mar_attack.0.window();
        for (addr, w, pps) in attack::accumulate_windows(&self.attacks) {
            let effective = if w >= mar_first { pps * self.scrub_pass } else { pps };
            book.add(addr, w, effective);
        }
        book
    }

    /// Telescope view of the scenario.
    pub fn feed(&self, rngs: &RngFactory) -> RsdosFeed {
        front::feed(&self.attacks, rngs)
    }

    /// Measure the NSSet over `[first, last]` windows and return the
    /// per-window series (Figures 2–3).
    pub fn measure_series(
        &self,
        first: Window,
        last: Window,
        loads: &LoadBook,
        rngs: &RngFactory,
    ) -> Vec<TimePoint> {
        let schedule = SweepSchedule::new(rngs.seed());
        let resolver = Resolver::default();
        let mut store = MeasurementStore::new();
        for w in first.0..=last.0 {
            let recs = measure_window(
                &self.infra,
                &schedule,
                &resolver,
                self.nsset,
                Window(w),
                loads,
                rngs,
            );
            store.ingest(&recs);
        }
        rtt_timeseries(&store, self.nsset, first, last)
    }

    /// §5.1.1's web-reachability argument: a site is reachable only if its
    /// domain resolves AND its web server answers. Third-party-hosted
    /// sites (≈27%) depend on TransIP only for DNS; self-hosted sites
    /// also sit behind TransIP's attacked infrastructure (modeled as the
    /// nameservers' /24 uplinks). Returns the unreachable fractions
    /// `(third_party, self_hosted)` averaged over the attack interval.
    pub fn web_unreachability(
        &self,
        span: (SimTime, SimTime),
        loads: &LoadBook,
        rngs: &RngFactory,
    ) -> (f64, f64) {
        let resolver = Resolver::default();
        let mut rng = rngs.stream("web-reachability");
        let n_probes = 600usize;
        let domains = self.infra.domains_of_nsset(self.nsset);
        let mut tp_fail = 0u64;
        let mut tp_total = 0u64;
        let mut sh_fail = 0u64;
        let mut sh_total = 0u64;
        let span_secs = (span.1 - span.0).secs();
        for i in 0..n_probes {
            use rand::Rng as _;
            let at = span.0
                + simcore::time::SimDuration::from_secs((i as u64 * span_secs) / n_probes as u64);
            let d = domains[rng.random_range(0..domains.len())];
            let third_party =
                (d.0 as u64 * 2_654_435_761) % 100 < (self.third_party_web_share * 100.0) as u64;
            let dns_ok = resolver.resolve(&self.infra, d, at.window(), loads, &mut rng).status
                == dnssim::QueryStatus::Ok;
            // Self-hosted web servers share TransIP's attacked uplinks; a
            // web fetch succeeds with the nameservers' average delivery
            // probability (same /24s, same pipes).
            let web_ok = if third_party {
                true
            } else {
                let members = self.infra.nsset(self.nsset).members();
                let avg_ans: f64 = members
                    .iter()
                    .map(|&ns| self.infra.service_state(ns, at.window(), loads).answer_prob)
                    .sum::<f64>()
                    / members.len() as f64;
                rng.random::<f64>() < avg_ans
            };
            let reachable = dns_ok && web_ok;
            if third_party {
                tp_total += 1;
                if !reachable {
                    tp_fail += 1;
                }
            } else {
                sh_total += 1;
                if !reachable {
                    sh_fail += 1;
                }
            }
        }
        (tp_fail as f64 / tp_total.max(1) as f64, sh_fail as f64 / sh_total.max(1) as f64)
    }

    /// Table 2: per-nameserver inferred metrics for one of the attacks.
    pub fn table2(
        &self,
        feed: &RsdosFeed,
        range: (Window, Window),
    ) -> Vec<Option<NsAttackMetrics>> {
        let scale = Darknet::ucsd_like().scale_factor();
        self.addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                ns_attack_metrics(&feed.episodes, ["A", "B", "C"][i], a, range.0, range.1, scale)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avg_rtt_in(series: &[TimePoint], from: SimTime, to: SimTime) -> f64 {
        let pts: Vec<&TimePoint> =
            series.iter().filter(|p| p.window.start() >= from && p.window.start() < to).collect();
        assert!(!pts.is_empty(), "no measurements between {from} and {to}");
        pts.iter().map(|p| p.avg_rtt_ms * p.domains as f64).sum::<f64>()
            / pts.iter().map(|p| p.domains as f64).sum::<f64>()
    }

    #[test]
    fn december_ten_x_and_eight_hour_tail() {
        let rngs = RngFactory::new(2020);
        let sc = TransIpScenario::build(&rngs);
        let loads = sc.load_book();
        let series = sc.measure_series(sc.dec_range.0, sc.dec_range.1, &loads, &rngs);

        let day_before = SimTime::from_civil(CivilDate::new(2020, 11, 29), 0, 0, 0);
        let baseline = avg_rtt_in(&series, day_before, day_before + SimDuration::from_days(1));
        // During the visible attack: ≈10× inflation.
        let during = avg_rtt_in(&series, sc.dec_attack.0, sc.dec_attack.1);
        let impact = during / baseline;
        assert!((4.0..40.0).contains(&impact), "December impact ≈10x, got {impact:.1}");

        // Tail: 04:00–08:00 on Dec 1 is *after* the visible attack but
        // still impaired (the invisible component).
        let tail_from = SimTime::from_civil(CivilDate::new(2020, 12, 1), 4, 0, 0);
        let tail_to = SimTime::from_civil(CivilDate::new(2020, 12, 1), 8, 0, 0);
        let tail = avg_rtt_in(&series, tail_from, tail_to) / baseline;
        assert!(tail > 3.0, "impairment persists in the tail: {tail:.1}x");

        // Recovered by the afternoon of Dec 1.
        let rec_from = SimTime::from_civil(CivilDate::new(2020, 12, 1), 14, 0, 0);
        let rec_to = SimTime::from_civil(CivilDate::new(2020, 12, 2), 0, 0, 0);
        let recovered = avg_rtt_in(&series, rec_from, rec_to) / baseline;
        assert!(recovered < 2.0, "recovered after the tail: {recovered:.1}x");
    }

    #[test]
    fn march_timeouts_near_twenty_percent() {
        let rngs = RngFactory::new(2021);
        let sc = TransIpScenario::build(&rngs);
        let loads = sc.load_book();
        let series = sc.measure_series(sc.mar_range.0, sc.mar_range.1, &loads, &rngs);
        let during: Vec<&TimePoint> = series
            .iter()
            .filter(|p| p.window.start() >= sc.mar_attack.0 && p.window.start() < sc.mar_attack.1)
            .collect();
        assert!(!during.is_empty());
        let timeout_share = during.iter().map(|p| p.timeout_share * p.domains as f64).sum::<f64>()
            / during.iter().map(|p| p.domains as f64).sum::<f64>();
        assert!(
            (0.06..0.40).contains(&timeout_share),
            "March timeout share in the paper's order of magnitude (≈20%; ours runs \
             lower because unbound's retries reach the less-loaded server C), got {:.1}%",
            timeout_share * 100.0
        );
        // Outside the attack the timeout share collapses.
        let after: Vec<&TimePoint> = series
            .iter()
            .filter(|p| p.window.start() >= sc.mar_attack.1 + SimDuration::from_hours(2))
            .collect();
        let after_share = after.iter().map(|p| p.timeout_share).sum::<f64>() / after.len() as f64;
        assert!(after_share < 0.02, "after the attack: {after_share}");
    }

    #[test]
    fn web_hosting_dependency_matches_section_5_1_1() {
        // Paper: during December the third-party-hosted ≈27% "simply
        // experienced slower DNS resolution", but during March "they
        // likely became entirely unreachable due to DNS resolution
        // failures, despite having a third party operating their web
        // site".
        let rngs = RngFactory::new(511);
        let sc = TransIpScenario::build(&rngs);
        let loads = sc.load_book();
        let (tp_dec, sh_dec) = sc.web_unreachability(sc.dec_attack, &loads, &rngs);
        assert!(tp_dec < 0.02, "December: third-party sites stay up (slow): {tp_dec}");
        assert!(sh_dec < 0.05, "December: below saturation nothing drops: {sh_dec}");
        let (tp_mar, sh_mar) = sc.web_unreachability(sc.mar_attack, &loads, &rngs);
        assert!(
            tp_mar > 0.05,
            "March: DNS failures take down even third-party-hosted sites: {tp_mar}"
        );
        assert!(
            sh_mar > tp_mar,
            "March: self-hosted suffer DNS *and* web-path loss: {sh_mar} vs {tp_mar}"
        );
    }

    #[test]
    fn table2_shapes_match_paper() {
        let rngs = RngFactory::new(2022);
        let sc = TransIpScenario::build(&rngs);
        let feed = sc.feed(&rngs);
        let dec = sc.table2(&feed, sc.dec_range);
        let a = dec[0].as_ref().expect("A attacked in December");
        // A ≈ 21.8 Kppm observed, ≈1.4 Gbps inferred.
        assert!(
            (15_000.0..30_000.0).contains(&a.observed_ppm),
            "A observed {:.0} ppm",
            a.observed_ppm
        );
        assert!((0.9..2.2).contains(&a.inferred_gbps), "A {:.2} Gbps", a.inferred_gbps);
        let b = dec[1].as_ref().expect("B attacked");
        let c = dec[2].as_ref().expect("C attacked");
        assert!(a.observed_ppm > 4.0 * b.observed_ppm, "December targeted A most");
        assert!(b.observed_ppm > c.observed_ppm);

        let mar = sc.table2(&feed, sc.mar_range);
        let ma = mar[0].as_ref().expect("A attacked in March");
        let mb = mar[1].as_ref().expect("B attacked in March");
        let mc = mar[2].as_ref().expect("C attacked in March");
        // March ≈6× December on A, and A ≈ B ≫ C.
        assert!(
            ma.observed_ppm > 4.0 * a.observed_ppm,
            "March stronger: {:.0} vs {:.0}",
            ma.observed_ppm,
            a.observed_ppm
        );
        assert!((ma.observed_ppm / mb.observed_ppm) < 1.3);
        assert!(mb.observed_ppm > 5.0 * mc.observed_ppm);
        // Attacker-count ordering follows intensity.
        assert!(ma.attacker_ips > a.attacker_ips);
    }

    #[test]
    fn scrubbing_reduces_offered_load_but_not_telescope_view() {
        let rngs = RngFactory::new(9);
        let sc = TransIpScenario::build(&rngs);
        let loads = sc.load_book();
        let w = (sc.mar_attack.0 + SimDuration::from_mins(30)).window();
        let offered = loads.attack_on_addr(sc.addrs[0], w);
        // Visible (710 Kpps) + reflection (600 Kpps), both scrubbed.
        assert!(
            (offered - 1_310_000.0 * sc.scrub_pass).abs() < 1_000.0,
            "scrubbed offered load {offered}"
        );
        // The feed still sees the full spoofed rate (scrubbing is at the
        // victim, not between victim and telescope).
        let feed = sc.feed(&rngs);
        let mar = sc.table2(&feed, sc.mar_range);
        assert!(mar[0].as_ref().unwrap().observed_ppm > 80_000.0);
    }
}
