//! Trigger logic and probe scheduling.

use dnssim::{DomainId, Infra, NsId};
use simcore::time::{SimDuration, SimTime, Window, WINDOW_SECS};
use std::net::Ipv4Addr;

/// Trigger configuration (§4.3.1 and the ethics section §8).
#[derive(Clone, Copy, Debug)]
pub struct TriggerConfig {
    /// Domains probed per 5-minute round (the paper caps at 50 to avoid
    /// burdening attacked infrastructure).
    pub domains_per_round: usize,
    /// Maximum delay between the feed record and the first probe round
    /// (the paper's pipeline achieves ≤ 10 minutes).
    pub max_trigger_delay: SimDuration,
    /// How long probing continues after the attack's inferred end.
    pub post_attack_tail: SimDuration,
}

impl Default for TriggerConfig {
    fn default() -> TriggerConfig {
        TriggerConfig {
            domains_per_round: 50,
            max_trigger_delay: SimDuration::from_mins(10),
            post_attack_tail: SimDuration::from_hours(24),
        }
    }
}

/// A probing plan for one attacked nameserver IP.
#[derive(Clone, Debug, PartialEq)]
pub struct ProbePlan {
    pub victim: Ipv4Addr,
    pub ns: NsId,
    /// The (up to 50) domains chosen for probing.
    pub domains: Vec<DomainId>,
    /// First probe round.
    pub start: SimTime,
    /// Probing stops after this instant (attack end + 24 h; extended if
    /// later feed records arrive).
    pub until: SimTime,
}

impl ProbePlan {
    /// Build a plan from the first feed record for `victim`.
    pub fn from_first_record(
        infra: &Infra,
        victim: Ipv4Addr,
        record_window: Window,
        config: &TriggerConfig,
    ) -> Option<ProbePlan> {
        let ns = infra.ns_by_addr(victim)?;
        // Domains delegating to any NSSet containing the attacked server,
        // deterministically sampled up to the cap (stride sampling keeps
        // the choice stable and spread over the population).
        let mut domains: Vec<DomainId> = Vec::new();
        for &set in infra.nssets_of_ns(ns) {
            domains.extend(infra.domains_of_nsset(set).iter().copied());
        }
        domains.sort();
        domains.dedup();
        if domains.is_empty() {
            return None;
        }
        if domains.len() > config.domains_per_round {
            let step = domains.len() / config.domains_per_round;
            domains = domains
                .iter()
                .step_by(step.max(1))
                .take(config.domains_per_round)
                .copied()
                .collect();
        }
        // The feed record for window W lands after W closes; we trigger at
        // the start of the next window — comfortably inside the ≤10-minute
        // bound.
        let start = record_window.end();
        Some(ProbePlan {
            victim,
            ns,
            domains,
            start,
            until: record_window.end() + config.post_attack_tail,
        })
    }

    /// Build a plan from the first feed record for `victim`, honouring the
    /// record's actual *arrival* time at the platform.
    ///
    /// Under a healthy feed a window-`W` record arrives right after `W`
    /// closes and this is identical to [`ProbePlan::from_first_record`].
    /// When a sensor outage holds records back (backlog delivery), probing
    /// cannot start before the record exists: the first round snaps to the
    /// next 5-minute window boundary at or after `arrival`. Either way the
    /// gap between arrival and first probe is under one window — well
    /// inside the ≤10-minute trigger bound, by construction.
    pub fn from_record_with_arrival(
        infra: &Infra,
        victim: Ipv4Addr,
        record_window: Window,
        arrival: SimTime,
        config: &TriggerConfig,
    ) -> Option<ProbePlan> {
        let mut plan = ProbePlan::from_first_record(infra, victim, record_window, config)?;
        let aligned = SimTime(arrival.secs().div_ceil(WINDOW_SECS) * WINDOW_SECS);
        if aligned > plan.start {
            plan.start = aligned;
        }
        if plan.until < plan.start {
            plan.until = plan.start;
        }
        Some(plan)
    }

    /// Extend the plan when a later feed record shows the attack is still
    /// running.
    pub fn extend(&mut self, record_window: Window, config: &TriggerConfig) {
        let new_until = record_window.end() + config.post_attack_tail;
        if new_until > self.until {
            self.until = new_until;
        }
    }

    /// The probe instants of round `k` (0-based): each of the domains gets
    /// one probe, spread evenly across the 5-minute round (§8: ≈ one query
    /// every 6 seconds at the 50-domain cap).
    pub fn round_times(&self, k: u64) -> Vec<(DomainId, SimTime)> {
        let base = self.start + SimDuration::from_secs(k * WINDOW_SECS);
        let n = self.domains.len() as u64;
        self.domains
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, base + SimDuration::from_secs(i as u64 * WINDOW_SECS / n.max(1))))
            .collect()
    }

    /// Number of complete rounds until `until`.
    pub fn rounds(&self) -> u64 {
        (self.until.secs().saturating_sub(self.start.secs())) / WINDOW_SECS
    }

    /// Trigger delay relative to when the triggering record actually
    /// *arrived*. This is the bound the platform controls: a record held
    /// back by a feed gap cannot trigger probing before it exists, but
    /// once delivered the first round must follow within ten minutes.
    pub fn trigger_delay_from_arrival(&self, arrival: SimTime) -> SimDuration {
        if self.start > arrival {
            self.start - arrival
        } else {
            SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnssim::Deployment;
    use netbase::Asn;

    fn world(domains: u32) -> (Infra, Ipv4Addr) {
        let mut infra = Infra::new();
        let addr: Ipv4Addr = "194.67.7.53".parse().unwrap();
        let ns = infra.add_nameserver(
            "ns.rzd.ru".parse().unwrap(),
            addr,
            Asn(2854),
            Deployment::Unicast,
            20_000.0,
            300.0,
            50.0,
        );
        let set = infra.intern_nsset(vec![ns]);
        for i in 0..domains {
            infra.add_domain(format!("svc{i}.rzd.ru").parse().unwrap(), set);
        }
        (infra, addr)
    }

    #[test]
    fn plan_caps_at_50_domains() {
        let (infra, addr) = world(500);
        let plan =
            ProbePlan::from_first_record(&infra, addr, Window(100), &TriggerConfig::default())
                .unwrap();
        assert_eq!(plan.domains.len(), 50);
        // Deterministic choice.
        let plan2 =
            ProbePlan::from_first_record(&infra, addr, Window(100), &TriggerConfig::default())
                .unwrap();
        assert_eq!(plan.domains, plan2.domains);
    }

    #[test]
    fn small_population_probed_entirely() {
        let (infra, addr) = world(7);
        let plan = ProbePlan::from_first_record(&infra, addr, Window(0), &TriggerConfig::default())
            .unwrap();
        assert_eq!(plan.domains.len(), 7);
    }

    #[test]
    fn trigger_delay_within_ten_minutes() {
        let (infra, addr) = world(100);
        let w = Window(42);
        let plan =
            ProbePlan::from_first_record(&infra, addr, w, &TriggerConfig::default()).unwrap();
        assert!(plan.trigger_delay_from_arrival(w.start()) <= SimDuration::from_mins(10));
        assert_eq!(plan.start, w.end());
    }

    #[test]
    fn on_time_arrival_matches_plain_trigger() {
        let (infra, addr) = world(100);
        let cfg = TriggerConfig::default();
        let w = Window(42);
        let plain = ProbePlan::from_first_record(&infra, addr, w, &cfg).unwrap();
        let timed = ProbePlan::from_record_with_arrival(&infra, addr, w, w.end(), &cfg).unwrap();
        assert_eq!(plain, timed, "healthy feed: arrival at window close changes nothing");
    }

    #[test]
    fn late_arrival_snaps_to_next_window_within_bound() {
        let (infra, addr) = world(100);
        let cfg = TriggerConfig::default();
        let w = Window(42);
        // The record is held back 3 hours by a feed gap and lands 17 s
        // past a window boundary.
        let arrival = w.end() + SimDuration::from_hours(3) + SimDuration::from_secs(17);
        let plan = ProbePlan::from_record_with_arrival(&infra, addr, w, arrival, &cfg).unwrap();
        assert!(plan.start >= arrival, "cannot probe before the record exists");
        assert_eq!(plan.start.secs() % WINDOW_SECS, 0, "rounds stay window-aligned");
        assert!(
            plan.trigger_delay_from_arrival(arrival) <= cfg.max_trigger_delay,
            "≤10-minute bound holds relative to arrival"
        );
        // `until` keeps its attack-anchored tail but never precedes start.
        assert!(plan.until >= plan.start);
    }

    #[test]
    fn non_nameserver_victim_yields_no_plan() {
        let (infra, _) = world(10);
        assert!(ProbePlan::from_first_record(
            &infra,
            "9.9.9.200".parse().unwrap(),
            Window(0),
            &TriggerConfig::default()
        )
        .is_none());
    }

    #[test]
    fn probes_spread_across_round() {
        let (infra, addr) = world(500);
        let plan = ProbePlan::from_first_record(&infra, addr, Window(0), &TriggerConfig::default())
            .unwrap();
        let times = plan.round_times(0);
        assert_eq!(times.len(), 50);
        // First probe at round start, spacing = 300/50 = 6 s.
        assert_eq!(times[0].1, plan.start);
        assert_eq!(times[1].1.secs() - times[0].1.secs(), 6);
        let last = times.last().unwrap().1;
        assert!(last < plan.start + SimDuration::from_secs(WINDOW_SECS));
        // Round 3 shifts by 15 minutes.
        let r3 = plan.round_times(3);
        assert_eq!(r3[0].1.secs() - times[0].1.secs(), 900);
    }

    #[test]
    fn extension_prolongs_tail() {
        let (infra, addr) = world(10);
        let cfg = TriggerConfig::default();
        let mut plan = ProbePlan::from_first_record(&infra, addr, Window(0), &cfg).unwrap();
        let until0 = plan.until;
        plan.extend(Window(12), &cfg); // attack still on an hour later
        assert_eq!(plan.until, Window(12).end() + SimDuration::from_hours(24));
        assert!(plan.until > until0);
        // Older record does not shrink.
        plan.extend(Window(2), &cfg);
        assert_eq!(plan.until, Window(12).end() + SimDuration::from_hours(24));
        // 24h tail + 1h of attack ≈ 300 rounds.
        assert_eq!(plan.rounds(), (Window(12).end().secs() + 24 * 3600 - plan.start.secs()) / 300);
    }
}
