//! Shared machinery for the reproduction harness (`repro` binary) and the
//! Criterion benchmarks: builds the standard experiment world, runs the
//! longitudinal pipeline, and renders every table/figure series of the
//! paper as text + CSV.

use attack::ScheduleConfig;
use dnsimpact_core::casestudy::TimePoint;
use dnsimpact_core::longitudinal::{self, LongitudinalConfig, LongitudinalReport};
use dnsimpact_core::report::{fmt_count, fmt_pct, render_csv, render_table};
use reactive::ReactivePlatform;
use scenarios::{
    correlate_messages, osint, world, MilRuScenario, RdzScenario, TransIpScenario, WorldConfig,
};
use simcore::rng::RngFactory;
use simcore::stats::quantile;
use simcore::time::{Month, SimDuration};
use std::sync::Arc;
use telescope::Darknet;

pub mod checkpoint;
pub mod schemas;
pub mod sweep;
pub mod sweep_report;
pub use checkpoint::CheckpointDir;
pub use sweep::{divisor_for_target, run_scale_sweep, SweepConfig, PAPER_TOTAL_ATTACKS};

/// The longitudinal pipeline's inputs: the world built for a seed and the
/// attacks scheduled on it. Built once, they feed any number of runs.
pub struct Inputs {
    pub world: world::BuiltWorld,
    pub attacks: Vec<attack::Attack>,
    pub months: Vec<Month>,
    pub rngs: RngFactory,
}

impl Inputs {
    /// Build the world for `seed` and schedule `schedule`'s attacks on it —
    /// `paper_longitudinal_config(scale)` for the paper's calibration.
    pub fn build(seed: u64, schedule: ScheduleConfig, world_cfg: &WorldConfig) -> Inputs {
        let _span = obs::span("world");
        let rngs = RngFactory::new(seed);
        let world = world::build(world_cfg, &rngs);
        let months = schedule.months.clone();
        let attacks = attack::AttackScheduler::new(schedule).generate(&world.target_pool(), &rngs);
        Inputs { world, attacks, months, rngs }
    }
}

/// A fully materialized longitudinal experiment.
pub struct Experiments {
    pub inputs: Arc<Inputs>,
    pub report: LongitudinalReport,
}

/// [`Inputs::build`], then [`run_on`] those inputs.
pub fn run_experiments(
    seed: u64,
    schedule: ScheduleConfig,
    world_cfg: &WorldConfig,
    jobs: usize,
    chaos_seed: Option<u64>,
) -> Experiments {
    let _span = obs::span("experiments");
    run_on(Arc::new(Inputs::build(seed, schedule, world_cfg)), jobs, chaos_seed)
}

/// Run the full longitudinal pipeline over `inputs` with `jobs` workers
/// for its parallel stages (`0` = available parallelism, `1` =
/// sequential) and an optional chaos seed: the impact pipeline's
/// measurement phase then runs under fault injection (scheduled task
/// crashes, supervised restarts). The report — and every artifact rendered
/// from it — is byte-identical for any `jobs` value and any chaos seed:
/// the knobs only buy wall clock and exercise recovery.
pub fn run_on(inputs: Arc<Inputs>, jobs: usize, chaos_seed: Option<u64>) -> Experiments {
    let mut config = LongitudinalConfig { jobs, ..LongitudinalConfig::default() };
    config.impact.chaos_seed = chaos_seed;
    let report = {
        let _span = obs::span("longitudinal-run");
        let Inputs { world, attacks, months, rngs } = &*inputs;
        let darknet = Darknet::ucsd_like();
        longitudinal::run(&world.infra, &darknet, attacks, months, &world.meta, &config, rngs)
    };
    Experiments { inputs, report }
}

/// A rendered experiment artifact: a text table for stdout and CSV rows
/// for `results/`.
pub struct Artifact {
    pub id: &'static str,
    pub title: String,
    pub text: String,
    pub csv: String,
}

fn f(v: f64) -> String {
    if v.is_nan() {
        "-".into()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Table 1: RSDoS dataset summary.
pub fn table1(ex: &Experiments) -> Artifact {
    let s = ex.report.feed.summary(&ex.inputs.world.meta.prefix2as);
    let headers = ["Metric", "Measured", "Paper (full scale)"];
    let rows = vec![
        vec!["#Attacks".into(), fmt_count(s.attacks as u64), "4,039,485".into()],
        vec!["#IPs".into(), fmt_count(s.unique_ips as u64), "1,022,102".into()],
        vec!["#/24 Prefixes".into(), fmt_count(s.unique_slash24s as u64), "404,076".into()],
        vec!["#ASes".into(), fmt_count(s.unique_asns as u64), "25,821".into()],
    ];
    Artifact {
        id: "table1",
        title: "Table 1: RSDoS dataset summary (scaled run vs paper)".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}

/// Table 3: monthly attack activity.
pub fn table3(ex: &Experiments) -> Artifact {
    let headers =
        ["Month", "#DNS Attacks", "#Other Attacks", "Total", "DNS share", "DNS IPs", "Other IPs"];
    let mut rows: Vec<Vec<String>> = ex
        .report
        .monthly
        .iter()
        .map(|m| {
            vec![
                m.month.to_string(),
                fmt_count(m.dns_attacks),
                fmt_count(m.other_attacks),
                fmt_count(m.total_attacks()),
                fmt_pct(m.dns_share()),
                fmt_count(m.dns_ips),
                fmt_count(m.other_ips),
            ]
        })
        .collect();
    let (dns, other): (u64, u64) =
        ex.report.monthly.iter().fold((0, 0), |(a, b), m| (a + m.dns_attacks, b + m.other_attacks));
    rows.push(vec![
        "Total".into(),
        fmt_count(dns),
        fmt_count(other),
        fmt_count(dns + other),
        fmt_pct(dns as f64 / (dns + other).max(1) as f64),
        String::new(),
        String::new(),
    ]);
    Artifact {
        id: "table3",
        title: "Table 3: monthly attack activity (DNS vs other)".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}

/// Figure 5: monthly distributions of potentially affected domains.
pub fn fig5(ex: &Experiments) -> Artifact {
    let headers = ["Month", "Events", "Min", "Median", "P90", "Max"];
    let rows: Vec<Vec<String>> = ex
        .report
        .affected_domains_by_month
        .iter()
        .map(|(m, v)| {
            let mut xs: Vec<f64> = v.iter().map(|&x| x as f64).collect();
            vec![
                m.to_string(),
                fmt_count(v.len() as u64),
                f(quantile(&mut xs, 0.0).unwrap_or(f64::NAN)),
                f(quantile(&mut xs, 0.5).unwrap_or(f64::NAN)),
                f(quantile(&mut xs, 0.9).unwrap_or(f64::NAN)),
                f(quantile(&mut xs, 1.0).unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    Artifact {
        id: "fig5",
        title: "Figure 5: registered domains potentially affected by attacks, by month".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}

/// Table 4: top attacked ASNs.
pub fn table4(ex: &Experiments) -> Artifact {
    let headers = ["ASN", "#Attacks", "Company"];
    let rows: Vec<Vec<String>> = ex
        .report
        .top_asns
        .iter()
        .map(|(asn, n, name)| vec![asn.to_string(), fmt_count(*n), name.clone()])
        .collect();
    Artifact {
        id: "table4",
        title: "Table 4: top 10 attacked ASNs (DNS-related victims)".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}

/// Table 5: top attacked IPs.
pub fn table5(ex: &Experiments) -> Artifact {
    let headers = ["IP", "#Attacks", "Type"];
    let rows: Vec<Vec<String>> = ex
        .report
        .top_ips
        .iter()
        .map(|(ip, n, open)| {
            vec![
                ip.to_string(),
                fmt_count(*n),
                if *open { "open resolver (filtered from analysis)" } else { "authoritative NS" }
                    .into(),
            ]
        })
        .collect();
    Artifact {
        id: "table5",
        title: "Table 5: top 10 attacked IPs".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}

/// Figure 6: protocol/port distribution, plus the §6.3.1 successful-attack
/// contrast.
pub fn fig6(ex: &Experiments) -> Artifact {
    use attack::Protocol::*;
    let b = &ex.report.port_breakdown;
    let s = &ex.report.successful_port_breakdown;
    let headers = ["Metric", "All DNS-infra attacks", "Successful attacks", "Paper (all)"];
    let rows = vec![
        vec![
            "single-port share".into(),
            fmt_pct(b.single_port_share()),
            fmt_pct(s.single_port_share()),
            "80.7%".into(),
        ],
        vec![
            "TCP share".into(),
            fmt_pct(b.protocol_share(Tcp)),
            fmt_pct(s.protocol_share(Tcp)),
            "90.4%".into(),
        ],
        vec![
            "UDP share".into(),
            fmt_pct(b.protocol_share(Udp)),
            fmt_pct(s.protocol_share(Udp)),
            "8.4%".into(),
        ],
        vec![
            "ICMP share".into(),
            fmt_pct(b.protocol_share(Icmp)),
            fmt_pct(s.protocol_share(Icmp)),
            "1.2%".into(),
        ],
        vec![
            "TCP→:80 (within TCP)".into(),
            fmt_pct(b.port_share_within(Tcp, 80)),
            fmt_pct(s.port_share_within(Tcp, 80)),
            "37%".into(),
        ],
        vec![
            "TCP→:53 (within TCP)".into(),
            fmt_pct(b.port_share_within(Tcp, 53)),
            fmt_pct(s.port_share_within(Tcp, 53)),
            "30%".into(),
        ],
        vec![
            "UDP→:53 (within UDP)".into(),
            fmt_pct(b.port_share_within(Udp, 53)),
            fmt_pct(s.port_share_within(Udp, 53)),
            "33%".into(),
        ],
        vec![
            "port 53 share (all)".into(),
            fmt_pct(b.port_share(53)),
            fmt_pct(s.port_share(53)),
            "49% of successful".into(),
        ],
    ];
    Artifact {
        id: "fig6",
        title: "Figure 6 (+§6.3.1): protocol/port distribution of attacks".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}

/// Figure 7: failure rate vs measured domains (scatter CSV) + headline
/// failure summary.
pub fn fig7(ex: &Experiments) -> Artifact {
    let pts = dnsimpact_core::failures::failure_points(&ex.report.impacts);
    let headers =
        ["domains_measured", "failure_rate", "nsset_domains", "anycast", "prefixes", "asns"];
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.domains_measured.to_string(),
                format!("{:.4}", p.failure_rate),
                p.nsset_domains.to_string(),
                format!("{:?}", p.anycast),
                p.prefix_count.to_string(),
                p.asn_count.to_string(),
            ]
        })
        .collect();
    let fs = &ex.report.failure_summary;
    let text = format!(
        "Figure 7 headline numbers (§6.3.1):\n\
         impact events:               {}\n\
         events with failures:        {} ({})\n\
         complete failures:           {}\n\
         timeout share of failures:   {} (paper: 92%)\n\
         unicast share of failing:    {} (paper: ≈99%)\n\
         single-/24 share (complete): {} (paper: ≈60%)\n\
         single-ASN share (complete): {} (paper: ≈81%)\n\
         week-before baseline fallbacks (sensor outage): {}\n\
         events with no usable baseline:                 {}\n",
        fs.events,
        fs.events_with_failures,
        fmt_pct(fs.events_with_failures as f64 / fs.events.max(1) as f64),
        fs.complete_failures,
        fmt_pct(fs.timeout_share),
        fmt_pct(fs.unicast_share_of_failures),
        fmt_pct(fs.single_prefix_share_of_failures),
        fmt_pct(fs.single_asn_share_of_failures),
        ex.report.baseline_fallbacks(),
        ex.report.baselines_missing(),
    );
    Artifact {
        id: "fig7",
        title: "Figure 7: resolution failures vs measured domains".into(),
        text,
        csv: render_csv(&headers, &rows),
    }
}

/// Figure 8: RTT impact vs hosted-domain size class.
pub fn fig8(ex: &Experiments) -> Artifact {
    let impacts = &ex.report.impacts;
    let with_impact: Vec<(f64, u64)> =
        impacts.iter().filter_map(|e| e.impact_on_rtt.map(|i| (i, e.nsset_domains))).collect();
    let total = with_impact.len().max(1);
    let over10 = with_impact.iter().filter(|(i, _)| *i >= 10.0).count();
    let over100 = with_impact.iter().filter(|(i, _)| *i >= 100.0).count();
    let headers = ["size_class", "events", "median_impact", "p90_impact", "max_impact"];
    let classes: [(&str, u64, u64); 4] = [
        ("<100", 0, 100),
        ("100-10K", 100, 10_000),
        ("10K-1M", 10_000, 1_000_000),
        (">=1M", 1_000_000, u64::MAX),
    ];
    let rows: Vec<Vec<String>> = classes
        .iter()
        .map(|(label, lo, hi)| {
            let mut xs: Vec<f64> =
                with_impact.iter().filter(|(_, d)| d >= lo && d < hi).map(|(i, _)| *i).collect();
            let n = xs.len();
            vec![
                label.to_string(),
                n.to_string(),
                f(quantile(&mut xs, 0.5).unwrap_or(f64::NAN)),
                f(quantile(&mut xs, 0.9).unwrap_or(f64::NAN)),
                f(quantile(&mut xs, 1.0).unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    let mut text = format!(
        "Figure 8 headline numbers (§6.3.2):\n\
         events with impact metric: {total}\n\
         ≥10x RTT events:  {over10} ({}) — paper: ≈5%\n\
         ≥100x RTT events: {over100} (paper: one-third of the ≥10x set)\n\n",
        fmt_pct(over10 as f64 / total as f64),
    );
    text.push_str(&render_table(&headers, &rows));
    let csv_rows: Vec<Vec<String>> =
        with_impact.iter().map(|(i, d)| vec![format!("{i:.3}"), d.to_string()]).collect();
    Artifact {
        id: "fig8",
        title: "Figure 8: RTT impact vs number of hosted domains".into(),
        text,
        csv: render_csv(&["impact_on_rtt", "nsset_domains"], &csv_rows),
    }
}

/// Figure 9: intensity vs impact correlation.
pub fn fig9(ex: &Experiments) -> Artifact {
    let s = &ex.report.intensity_impact;
    let headers = ["peak_ppm", "impact_on_rtt"];
    let rows: Vec<Vec<String>> =
        s.x.iter().zip(&s.y).map(|(x, y)| vec![format!("{x:.1}"), format!("{y:.3}")]).collect();
    let text = format!(
        "Figure 9: telescope intensity vs Impact_on_RTT\n\
         events: {}\n\
         Pearson r:       {} (paper: low / no strong correlation)\n\
         Pearson r (log): {}\n\
         Spearman ρ:      {}\n\
         median intensity: {} ppm (bimodal modes ≈50 / ≈6000 in the feed)\n",
        s.len(),
        s.pearson().map(|r| format!("{r:.3}")).unwrap_or("-".into()),
        s.pearson_log().map(|r| format!("{r:.3}")).unwrap_or("-".into()),
        s.spearman().map(|r| format!("{r:.3}")).unwrap_or("-".into()),
        s.x_median().map(f).unwrap_or("-".into()),
    );
    Artifact {
        id: "fig9",
        title: "Figure 9: attack intensity vs RTT impact".into(),
        text,
        csv: render_csv(&headers, &rows),
    }
}

/// Figure 10: duration vs impact.
pub fn fig10(ex: &Experiments) -> Artifact {
    let s = &ex.report.duration_impact;
    let hist = dnsimpact_core::correlate::duration_histogram(&ex.report.impacts);
    let headers = ["duration_min", "impact_on_rtt"];
    let rows: Vec<Vec<String>> =
        s.x.iter().zip(&s.y).map(|(x, y)| vec![format!("{x:.1}"), format!("{y:.3}")]).collect();
    let mut text = format!(
        "Figure 10: inferred duration vs Impact_on_RTT\n\
         events: {}, Pearson r: {}\n\
         duration histogram (bimodal 15 min / 1 h expected):\n",
        s.len(),
        s.pearson().map(|r| format!("{r:.3}")).unwrap_or("-".into()),
    );
    for (label, n) in hist {
        text.push_str(&format!("  {label:<14} {n}\n"));
    }
    Artifact {
        id: "fig10",
        title: "Figure 10: attack duration vs RTT impact".into(),
        text,
        csv: render_csv(&headers, &rows),
    }
}

fn resilience_artifact(
    id: &'static str,
    title: &str,
    rows_in: &[dnsimpact_core::resilience::ClassImpact],
) -> Artifact {
    let headers = [
        "class",
        "events",
        "median_impact",
        "p90_impact",
        "max_impact",
        ">=10x",
        ">=100x",
        "complete_failures",
    ];
    let rows: Vec<Vec<String>> = rows_in
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                c.events.to_string(),
                f(c.median_impact),
                f(c.p90_impact),
                f(c.max_impact),
                c.over_10x.to_string(),
                c.over_100x.to_string(),
                c.complete_failures.to_string(),
            ]
        })
        .collect();
    Artifact {
        id,
        title: title.into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}

/// Figure 11: anycast efficacy.
pub fn fig11(ex: &Experiments) -> Artifact {
    resilience_artifact(
        "fig11",
        "Figure 11: anycast vs DDoS (impact by anycast class)",
        &ex.report.by_anycast,
    )
}

/// Figure 12: AS diversity efficacy.
pub fn fig12(ex: &Experiments) -> Artifact {
    resilience_artifact(
        "fig12",
        "Figure 12: AS diversity (impact by distinct origin-AS count)",
        &ex.report.by_as_diversity,
    )
}

/// Figure 13: /24 prefix diversity efficacy.
pub fn fig13(ex: &Experiments) -> Artifact {
    resilience_artifact(
        "fig13",
        "Figure 13: /24 prefix diversity (impact by distinct /24 count)",
        &ex.report.by_prefix_diversity,
    )
}

/// §4.1 ablation: the paper "evaluated using different time-window
/// metrics as a baseline (e.g., Average RTT (Week/Month Before)) finding
/// similar results". Recompute each impact event against a
/// one-week-before baseline and compare with the day-before metric.
pub fn ablate_baseline(ex: &Experiments) -> Artifact {
    use openintel::measure::measure_baseline;
    use openintel::MeasurementStore;
    use openintel::SweepSchedule;

    let Inputs { world, attacks, rngs, .. } = &*ex.inputs;
    let infra = &world.infra;
    let schedule = SweepSchedule::new(rngs.seed());
    let resolver = dnssim::Resolver::default();
    let loads = dnsimpact_core::front::load_book(attacks);
    let mut day1 = Vec::new();
    let mut week1 = Vec::new();
    let mut store = MeasurementStore::new();
    let cap = 200usize;
    for e in ex.report.impacts.iter().filter(|e| e.impact_on_rtt.is_some()).take(cap) {
        let ep = &ex.report.feed.episodes[e.episode_idx];
        let Some(day_w) = ep.first_window.day().checked_sub(7) else { continue };
        // Materialize a sampled week-before baseline for this NSSet.
        let all = infra.domains_of_nsset(e.nsset);
        let step = (all.len() / 200).max(1);
        let sampled: Vec<_> = all.iter().step_by(step).take(200).copied().collect();
        store.ingest(&measure_baseline(
            infra, &schedule, &resolver, &sampled, e.nsset, day_w, &loads, rngs,
        ));
        let Some(base) = store.day_stats(e.nsset, day_w) else { continue };
        if base.domains_measured == 0 || base.avg_rtt().is_nan() || base.avg_rtt() <= 0.0 {
            continue;
        }
        // Numerator: the same during-attack aggregate the day-1 metric
        // used (rebuilt from the report's stored impact and baseline is
        // not possible, so recompute the during-range average).
        let during = ex.report.store.range_stats(e.nsset, ep.first_window, ep.last_window);
        if during.domains_measured == 0 {
            continue;
        }
        day1.push(e.impact_on_rtt.unwrap());
        week1.push(during.avg_rtt() / base.avg_rtt());
    }
    let r = simcore::stats::pearson(&day1, &week1);
    let log_ratios: Vec<f64> = day1.iter().zip(&week1).map(|(a, b)| (a / b).ln().abs()).collect();
    let median_dev =
        simcore::stats::quantile(&mut log_ratios.clone(), 0.5).map(|v| v.exp()).unwrap_or(f64::NAN);
    let agree10 = day1.iter().zip(&week1).filter(|(a, b)| (*a >= &10.0) == (*b >= &10.0)).count();
    let text = format!(
        "§4.1 ablation: Impact_on_RTT with day-before vs week-before baseline\n\
         events compared:        {}\n\
         Pearson r (metrics):    {}\n\
         median |ratio|:         {median_dev:.3} (1.0 = identical)\n\
         ≥10x agreement:         {agree10}/{} events classified identically\n\
         (the paper found 'similar results' and chose day-before to\n\
          minimize infrastructure-change noise)\n",
        day1.len(),
        r.map(|v| format!("{v:.3}")).unwrap_or("-".into()),
        day1.len(),
    );
    let rows: Vec<Vec<String>> =
        day1.iter().zip(&week1).map(|(a, b)| vec![format!("{a:.3}"), format!("{b:.3}")]).collect();
    Artifact {
        id: "ablate_baseline",
        title: "§4.1 ablation: day-before vs week-before RTT baseline".into(),
        text,
        csv: render_csv(&["impact_day_baseline", "impact_week_baseline"], &rows),
    }
}

/// Table 6: most affected companies by RTT impact.
pub fn table6(ex: &Experiments) -> Artifact {
    let headers = ["Company", "Impact on RTT"];
    let rows: Vec<Vec<String>> = ex
        .report
        .top_affected_orgs
        .iter()
        .map(|(name, i)| vec![name.clone(), format!("{i:.0}x")])
        .collect();
    Artifact {
        id: "table6",
        title: "Table 6: most affected companies by RTT increase".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }
}

// ---------------------------------------------------------------------------
// Scenario experiments (self-contained: each builds its own world from the
// seed, so they schedule as independent jobs on the experiment pool).
// ---------------------------------------------------------------------------

fn timeseries_artifact(id: &'static str, title: &str, series: &[TimePoint]) -> Artifact {
    let headers = ["window", "time", "domains", "avg_rtt_ms", "timeout_share", "failure_share"];
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|p| {
            vec![
                p.window.0.to_string(),
                p.window.start().to_string(),
                p.domains.to_string(),
                format!("{:.2}", p.avg_rtt_ms),
                format!("{:.4}", p.timeout_share),
                format!("{:.4}", p.failure_share),
            ]
        })
        .collect();
    // The stdout rendering shows an hourly summary; full resolution goes
    // to the CSV.
    let mut hourly: Vec<Vec<String>> = Vec::new();
    for chunk in series.chunks(12) {
        let domains: u64 = chunk.iter().map(|p| p.domains).sum();
        if domains == 0 {
            continue;
        }
        let rtt =
            chunk.iter().map(|p| p.avg_rtt_ms * p.domains as f64).sum::<f64>() / domains as f64;
        let to =
            chunk.iter().map(|p| p.timeout_share * p.domains as f64).sum::<f64>() / domains as f64;
        hourly.push(vec![
            chunk[0].window.start().to_string(),
            domains.to_string(),
            format!("{rtt:.1}"),
            format!("{:.1}%", to * 100.0),
        ]);
    }
    Artifact {
        id,
        title: title.into(),
        text: render_table(&["hour", "domains", "avg_rtt_ms", "timeout_share"], &hourly),
        csv: render_csv(&headers, &rows),
    }
}

/// §5.1 TransIP case study: Table 2 plus Figures 2–3 from one scenario run.
pub fn transip_artifacts(seed: u64) -> Vec<Artifact> {
    let rngs = RngFactory::new(seed);
    let sc = TransIpScenario::build(&rngs);
    let feed = sc.feed(&rngs);
    feed.trace_onsets("transip");
    let loads = sc.load_book();

    // Table 2.
    let headers = [
        "Attack",
        "NS",
        "Observed PPM",
        "Inferred volume (Gbps)",
        "Attacker IPs",
        "Duration (min)",
    ];
    let mut rows = Vec::new();
    for (attack, range) in [("December 2020", sc.dec_range), ("March 2021", sc.mar_range)] {
        for m in sc.table2(&feed, range).into_iter().flatten() {
            rows.push(vec![
                attack.to_string(),
                m.label.clone(),
                format!("{:.0}", m.observed_ppm),
                format!("{:.2}", m.inferred_gbps),
                fmt_count(m.attacker_ips),
                format!("{:.0}", m.duration_min),
            ]);
        }
    }
    let table2 = Artifact {
        id: "table2",
        title: "Table 2: TransIP attack metrics (telescope-inferred)".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    };

    // Figures 2 and 3.
    let dec = sc.measure_series(sc.dec_range.0, sc.dec_range.1, &loads, &rngs);
    let fig2 = timeseries_artifact(
        "fig2",
        "Figure 2: RTT around the TransIP attacks (December window)",
        &dec,
    );
    let mar = sc.measure_series(sc.mar_range.0, sc.mar_range.1, &loads, &rngs);
    let fig3 = timeseries_artifact(
        "fig3",
        "Figure 3: timeout errors during the March 2021 TransIP attack",
        &mar,
    );
    vec![table2, fig2, fig3]
}

/// §5.2 Russian-infrastructure case studies: mil.ru reactive probing and
/// RDZ recovery + OSINT correlation.
pub fn russia_artifacts(seed: u64) -> Vec<Artifact> {
    let rngs = RngFactory::new(seed);

    // mil.ru: reactive probing through the attack.
    let mil = MilRuScenario::build(&rngs);
    let feed = mil.feed(&rngs);
    feed.trace_onsets("milru");
    let loads = mil.load_book();
    let infra = Arc::new(mil.infra);
    let platform = ReactivePlatform {
        trace_scope: Some("milru"),
        episode_index: Some(Arc::new(feed.episode_index())),
        ..ReactivePlatform::default()
    };
    // Execute three days of probing per victim (864 rounds) to keep the
    // run bounded while covering the blackout onset.
    let reports = platform.run(&infra, &feed.records, &loads, &rngs, 864);
    let headers =
        ["victim", "rounds", "unresolvable_rounds", "first_round", "recovered_by_probe_end"];
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.plan.victim.to_string(),
                r.rounds.len().to_string(),
                r.unresolvable_rounds().to_string(),
                r.plan.start.to_string(),
                r.recovery_after(mil.blackout.1).map(|t| t.to_string()).unwrap_or("no".into()),
            ]
        })
        .collect();
    let milru = Artifact {
        id: "russia_milru",
        title: "§5.2.1: mil.ru reactive probing (blackout March 12–16)".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    };

    // RDZ: recovery timing + OSINT correlation.
    let rdz = RdzScenario::build(&rngs);
    let rdz_feed = rdz.feed(&rngs);
    rdz_feed.trace_onsets("rdz");
    let rdz_loads = rdz.load_book();
    let rdz_infra = Arc::new(rdz.infra);
    let platform = ReactivePlatform {
        trace_scope: Some("rdz"),
        episode_index: Some(Arc::new(rdz_feed.episode_index())),
        ..ReactivePlatform::default()
    };
    let reports = platform.run(&rdz_infra, &rdz_feed.records, &rdz_loads, &rngs, 200);
    let mut rows = Vec::new();
    for r in &reports {
        rows.push(vec![
            r.plan.victim.to_string(),
            r.unresolvable_rounds().to_string(),
            r.recovery_after(rdz.visible_span.1)
                .map(|t| t.to_string())
                .unwrap_or("not within probe horizon".into()),
        ]);
    }
    let log = osint::rdz_channel_log(&rdz.addrs);
    let matches = correlate_messages(&log, &rdz_feed.episodes, SimDuration::from_mins(30));
    let mut text = render_table(&["victim", "unresolvable_rounds", "recovery"], &rows);
    text.push_str("\nOSINT correlation (Figure 4 substitute):\n");
    for m in &matches {
        let msg = &log[m.message_idx];
        let ep = &rdz_feed.episodes[m.episode_idx];
        text.push_str(&format!(
            "  message {:?} at {} ↔ attack on {} starting {} (lag {} min)\n",
            msg.channel,
            msg.at,
            ep.victim,
            ep.first_window.start(),
            m.lag_secs / 60,
        ));
    }
    let rdz_artifact = Artifact {
        id: "russia_rdz",
        title: "§5.2.2: RDZ railways reactive probing + coordination-channel correlation".into(),
        text,
        csv: render_csv(&["victim", "unresolvable_rounds", "recovery"], &rows),
    };
    vec![milru, rdz_artifact]
}

/// §9 future work: multi-vantage probing vs the anycast catchment mask.
pub fn futurework_artifacts(seed: u64) -> Vec<Artifact> {
    use reactive::{probe_from_fleet, VantagePoint};

    let rngs = RngFactory::new(seed);
    let built = world::build(
        &WorldConfig { providers: 30, domains: 10_000, ..WorldConfig::default() },
        &rngs,
    );
    // Attack every *anycast* provider's nameservers with an aggregate rate
    // that is devastating regionally but survivable at a uniform catchment.
    let mut loads = dnssim::LoadBook::new();
    let at = simcore::time::SimTime::from_days(10);
    let mut targets = Vec::new();
    for n in built.infra.nameservers() {
        if n.deployment.is_anycast() && !n.open_resolver {
            loads.add(n.addr, at.window(), n.capacity_pps * 12.0);
            targets.push(n.id);
        }
    }
    let single = VantagePoint::single_nl();
    let fleet = VantagePoint::default_fleet();
    let mut rng = rngs.stream("futurework");
    let mut single_detects = 0u64;
    let mut fleet_detects = 0u64;
    let mut probed = 0u64;
    for &set in &built.provider_nssets {
        let (any, total) = built.infra.nsset_anycast(set);
        if any != total || total == 0 {
            continue;
        }
        let Some(&d) = built.infra.domains_of_nsset(set).first() else { continue };
        for _ in 0..20 {
            probed += 1;
            let sv = probe_from_fleet(&single, &built.infra, d, at, &loads, &mut rng);
            if sv.probes[0].1.responsive_ns() < sv.probes[0].1.outcomes.len() {
                single_detects += 1;
            }
            let mv = probe_from_fleet(&fleet, &built.infra, d, at, &loads, &mut rng);
            if mv.worst_ns_share() < 1.0 {
                fleet_detects += 1;
            }
        }
    }
    let headers = ["probes", "single-vantage detections", "5-vantage detections"];
    let rows = vec![vec![
        probed.to_string(),
        format!("{single_detects} ({})", fmt_pct(single_detects as f64 / probed.max(1) as f64)),
        format!("{fleet_detects} ({})", fmt_pct(fleet_detects as f64 / probed.max(1) as f64)),
    ]];
    vec![Artifact {
        id: "futurework",
        title: "§9 future work: multi-vantage probing pierces the anycast catchment mask".into(),
        text: render_table(&headers, &rows),
        csv: render_csv(&headers, &rows),
    }]
}

// ---------------------------------------------------------------------------
// The experiment catalog and the work-stealing scheduler.
// ---------------------------------------------------------------------------

/// Every experiment id the harness knows, with a one-line description.
pub const CATALOG: &[(&str, &str)] = &[
    ("table1", "RSDoS dataset summary"),
    ("table2", "TransIP per-nameserver attack metrics"),
    ("table3", "monthly attack activity (DNS vs other)"),
    ("table4", "top 10 attacked ASNs"),
    ("table5", "top 10 attacked IPs"),
    ("table6", "most affected companies by RTT increase"),
    ("fig2", "TransIP RTT time series"),
    ("fig3", "TransIP March timeout shares"),
    ("fig5", "potentially affected domains per month"),
    ("fig6", "protocol/port distribution (+§6.3.1 contrast)"),
    ("fig7", "resolution failures vs measured domains"),
    ("fig8", "RTT impact vs hosted-domain count"),
    ("fig9", "intensity vs impact correlation"),
    ("fig10", "duration vs impact correlation"),
    ("fig11", "anycast efficacy"),
    ("fig12", "AS diversity efficacy"),
    ("fig13", "/24 prefix diversity efficacy"),
    ("russia", "mil.ru + RDZ reactive probing and OSINT correlation"),
    ("futurework", "§9 multi-vantage probing vs anycast masking"),
    ("ablate", "§4.1 day-before vs week-before baseline"),
];

/// The fixed subset `repro bench` replays: every pipeline stage is
/// exercised — longitudinal (tables/figures), the TransIP scenario
/// (`table2`/`fig2`/`fig3`), the Russia scenario (reactive platform and
/// telescope feed gaps), the §4.1 ablation, and the future-work probe.
pub const BENCH_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table5",
    "fig2",
    "fig3",
    "fig5",
    "fig8",
    "fig11",
    "russia",
    "ablate",
    "futurework",
];
/// Pinned bench configuration: small fixed scale, chaos on so the fault
/// accounting (and its CI invariant) is exercised every bench run.
pub const BENCH_SCALE: u32 = 1500;
pub const BENCH_CHAOS_SEED: u64 = 9;

/// Does this experiment render from the shared longitudinal run?
pub fn needs_longitudinal(id: &str) -> bool {
    matches!(
        id,
        "table1"
            | "table3"
            | "table4"
            | "table5"
            | "table6"
            | "fig5"
            | "fig6"
            | "fig7"
            | "fig8"
            | "fig9"
            | "fig10"
            | "fig11"
            | "fig12"
            | "fig13"
            | "ablate"
    )
}

/// Render one longitudinal artifact by id.
pub fn render_longitudinal(ex: &Experiments, id: &str) -> Option<Artifact> {
    Some(match id {
        "table1" => table1(ex),
        "table3" => table3(ex),
        "table4" => table4(ex),
        "table5" => table5(ex),
        "table6" => table6(ex),
        "fig5" => fig5(ex),
        "fig6" => fig6(ex),
        "fig7" => fig7(ex),
        "fig8" => fig8(ex),
        "fig9" => fig9(ex),
        "fig10" => fig10(ex),
        "fig11" => fig11(ex),
        "fig12" => fig12(ex),
        "fig13" => fig13(ex),
        "ablate" => ablate_baseline(ex),
        _ => return None,
    })
}

/// One scheduled experiment's output: its artifacts (in catalog-canonical
/// order) and how long the job ran on its worker.
pub struct ExperimentRun {
    pub id: String,
    pub artifacts: Vec<Artifact>,
    pub wall: std::time::Duration,
    /// True when a checkpoint marker showed the job already complete and
    /// it was skipped (its artifacts are already on disk; `artifacts` is
    /// empty).
    pub resumed: bool,
}

/// Schedule the requested experiments across up to `jobs` worker threads
/// (`0` = available parallelism) sharing one work queue.
///
/// The requested ids are first normalized into a canonical job list —
/// duplicates dropped, the three TransIP ids (`table2`/`fig2`/`fig3`)
/// coalesced into one `transip` job since they share a scenario run — and
/// the outcomes come back in that canonical order whatever the thread
/// count, so downstream emission (stdout, CSVs, the results index) is
/// deterministic. Unknown ids yield an empty artifact list.
pub fn run_catalog(
    ex: Option<&Experiments>,
    seed: u64,
    ids: &[String],
    jobs: usize,
) -> Vec<ExperimentRun> {
    run_catalog_checkpointed(ex, seed, ids, jobs, None, None, &|_| {}).0
}

/// Normalize requested ids into the canonical job list: duplicates
/// dropped, the TransIP trio coalesced into one `transip` job.
fn canonical_specs(ids: &[String]) -> Vec<String> {
    let mut specs: Vec<String> = Vec::new();
    for id in ids {
        let spec = match id.as_str() {
            "table2" | "fig2" | "fig3" => "transip".to_string(),
            other => other.to_string(),
        };
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    specs
}

/// Render one canonical spec's artifacts (pure function of `(seed, spec)`
/// plus the shared longitudinal run).
fn render_spec(ex: Option<&Experiments>, seed: u64, spec: &str) -> Vec<Artifact> {
    match spec {
        "transip" => transip_artifacts(seed),
        "russia" => russia_artifacts(seed),
        "futurework" => futurework_artifacts(seed),
        other => ex.and_then(|ex| render_longitudinal(ex, other)).into_iter().collect(),
    }
}

/// [`run_catalog`] under supervision, with optional fault injection and
/// checkpoint/resume:
///
/// - With a `fault` plan, worker tasks are crashed on schedule and
///   restarted with bounded backoff; the returned runs are byte-identical
///   to a fault-free schedule (crashes land *before* a job's render, so
///   `on_done` still fires exactly once per completed job).
/// - With a checkpoint directory, jobs whose `.done` marker exists are
///   skipped (returned with `resumed = true` and no artifacts); the rest
///   run normally. Callers persist artifacts and write the marker from
///   `on_done`, which runs on the worker as each job completes — so a
///   killed run loses only its in-flight jobs.
///
/// Outcomes come back in canonical spec order regardless of `jobs`,
/// faults, or how much of the run was resumed.
pub fn run_catalog_checkpointed(
    ex: Option<&Experiments>,
    seed: u64,
    ids: &[String],
    jobs: usize,
    fault: Option<&streamproc::FaultPlan>,
    ckpt: Option<&CheckpointDir>,
    on_done: &(dyn Fn(&ExperimentRun) + Sync),
) -> (Vec<ExperimentRun>, streamproc::SuperviseStats) {
    let specs = canonical_specs(ids);
    streamproc::parallel_map_supervised(
        jobs,
        specs,
        fault,
        &streamproc::SupervisorConfig::default(),
        |_, spec| {
            if ckpt.is_some_and(|c| c.is_done(spec)) {
                return ExperimentRun {
                    id: spec.clone(),
                    artifacts: Vec::new(),
                    wall: std::time::Duration::ZERO,
                    resumed: true,
                };
            }
            // Stage bracketing rides on `parallel_map_supervised`'s
            // exactly-once body guarantee (injected crashes land before the
            // body runs), so each spec traces one start/end pair whatever
            // the worker count or chaos seed.
            obs::trace::emit(obs::EventKind::StageStart, spec, None, None, "experiment job", None);
            let start = std::time::Instant::now();
            let artifacts = render_spec(ex, seed, spec);
            let run = ExperimentRun {
                id: spec.clone(),
                artifacts,
                wall: start.elapsed(),
                resumed: false,
            };
            obs::trace::emit(
                obs::EventKind::StageEnd,
                spec,
                None,
                None,
                "experiment job",
                Some(run.artifacts.len() as u64),
            );
            on_done(&run);
            run
        },
    )
}

/// The `obs` registry is one per process and the test harness runs this
/// crate's tests on parallel threads: a test that runs a pipeline moves the
/// counters another test reads as a before/after delta (the sweep's record
/// count). Every test here that does either holds this for its whole body.
#[cfg(test)]
pub(crate) fn registry_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while holding it left nothing behind the next reads.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenarios::{paper_longitudinal_config, PaperScale};

    fn tiny() -> Experiments {
        run_experiments(
            1,
            paper_longitudinal_config(PaperScale { divisor: 1_500 }),
            &WorldConfig { providers: 20, domains: 6_000, ..WorldConfig::default() },
            0,
            None,
        )
    }

    #[test]
    fn all_longitudinal_artifacts_render() {
        let _registry = registry_test_guard();
        let ex = tiny();
        for a in [
            table1(&ex),
            table3(&ex),
            table4(&ex),
            table5(&ex),
            table6(&ex),
            fig5(&ex),
            fig6(&ex),
            fig7(&ex),
            fig8(&ex),
            fig9(&ex),
            fig10(&ex),
            fig11(&ex),
            fig12(&ex),
            fig13(&ex),
        ] {
            assert!(!a.text.is_empty(), "{} text empty", a.id);
            assert!(a.csv.lines().count() >= 1, "{} csv empty", a.id);
            assert!(!a.title.is_empty());
        }
    }

    #[test]
    fn table3_has_17_months_plus_total() {
        let _registry = registry_test_guard();
        let ex = tiny();
        let t = table3(&ex);
        assert_eq!(t.text.lines().count(), 2 + 17 + 1);
    }
}
