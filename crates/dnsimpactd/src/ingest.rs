//! The supervised ingest loop: feed batches → at-least-once transport →
//! in-order apply → snapshot publish → checkpoint.
//!
//! Batches cross [`streamproc::reliable_stream`] in segments: sequence
//! numbers, chaos-transport dedup/re-ordering, gap-detecting retransmit
//! rounds, and a bounded fault-free final round guarantee each segment
//! arrives complete and in order whatever a chaos plan does to it. The
//! apply side is therefore exactly-once by construction, and the index
//! stays a pure function of the batch prefix for any chaos seed.
//!
//! Recovery ([`Ingestor::recover`]) is checkpoint + feed replay: read the
//! marker, re-apply batches `0..applied_seq` straight from the
//! regenerated feed (no transport, no pacing), and prove the replayed
//! prefix fingerprints to exactly what the dead daemon had durably
//! claimed. A missing or lying marker degrades to a full replay — the
//! daemon never serves a state it cannot derive from the feed.

use crate::checkpoint;
use crate::feed::{FeedBatch, FeedSource};
use crate::index::{IndexSnapshot, IndexState};
use crate::telemetry::Telemetry;
use std::path::PathBuf;
use std::sync::Arc;
use streamproc::{
    reliable_stream, ChaosConfig, FaultPlan, SuperviseStats, SupervisorConfig, SwapCell,
};

/// Ingest policy.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Chaos-inject the transport (None = clean runs are free).
    pub chaos_seed: Option<u64>,
    pub supervisor: SupervisorConfig,
    /// Batches per `reliable_stream` segment.
    pub segment: usize,
    /// Sleep between applied batches — lets an external observer (the CI
    /// gate, a human with curl) watch staleness evolve and kill the
    /// daemon mid-ingest.
    pub pace_ms: u64,
    /// Where the progress marker lives; None = no durability (tests).
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            chaos_seed: None,
            supervisor: SupervisorConfig::default(),
            segment: 64,
            pace_ms: 0,
            checkpoint_dir: None,
        }
    }
}

/// Owns the mutable index and the publish cell.
pub struct Ingestor<'a> {
    source: &'a FeedSource,
    cfg: IngestConfig,
    pub state: IndexState,
    cell: Arc<SwapCell<IndexSnapshot>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl<'a> Ingestor<'a> {
    pub fn new(
        source: &'a FeedSource,
        cfg: IngestConfig,
        cell: Arc<SwapCell<IndexSnapshot>>,
    ) -> Ingestor<'a> {
        Ingestor { source, cfg, state: IndexState::default(), cell, telemetry: None }
    }

    /// Attach the live telemetry plane: every applied batch — live or
    /// recovery replay — becomes one tick, so the stored series stays a
    /// pure function of the applied feed prefix.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Ingestor<'a> {
        self.telemetry = Some(telemetry);
        self
    }

    fn tick(&self) {
        if let Some(t) = &self.telemetry {
            t.tick(&self.state, self.source.batches.len() as u64);
        }
    }

    /// Recover from the checkpoint marker (if any): replay the claimed
    /// prefix from the feed and verify the fingerprint. Returns the
    /// number of batches replayed (0 = fresh start).
    pub fn recover(&mut self) -> u64 {
        let Some(dir) = self.cfg.checkpoint_dir.clone() else { return 0 };
        let Some(ck) = checkpoint::load(&dir) else { return 0 };
        let upto = (ck.applied_seq as usize).min(self.source.batches.len());
        for batch in &self.source.batches[..upto] {
            self.state.apply(&self.source.world, batch);
            self.tick();
        }
        if self.state.state_fingerprint() != ck.state_fp
            || self.state.records_applied != ck.records_applied
        {
            // The marker lies (torn feed config? foreign file?). Serving
            // a state the feed cannot derive is worse than a slow start.
            obs::progress(
                "daemon",
                "checkpoint fingerprint mismatch after replay; discarding and starting clean",
            );
            obs::counter("daemon.ckpt_mismatch").incr();
            self.state = IndexState::default();
            if let Some(t) = &self.telemetry {
                // The replayed ticks described a discarded state; the
                // clean restart regrows the series from tick 1.
                t.reset();
            }
            return 0;
        }
        obs::counter("daemon.replay_batches").add(upto as u64);
        self.publish(false);
        obs::progress(
            "daemon",
            &format!("recovered: replayed {upto} batches to fingerprint {:#018x}", ck.state_fp),
        );
        upto as u64
    }

    /// Ingest everything past the current `applied_seq` through the
    /// supervised transport; publish and checkpoint after every batch.
    /// The final publish carries the full (columnar) fingerprint.
    pub fn run(&mut self) -> SuperviseStats {
        let plan_base = self
            .cfg
            .chaos_seed
            .map(|s| FaultPlan::from_seed(s, "dnsimpactd-feed", ChaosConfig::CALIBRATED));
        let mut stats = SuperviseStats::default();
        let total = self.source.batches.len();
        let seg = self.cfg.segment.max(1);
        let mut next = self.state.applied_seq as usize;
        while next < total {
            let end = (next + seg).min(total);
            let segment: Vec<FeedBatch> = self.source.batches[next..end].to_vec();
            // Per-segment sub-plans keep fault schedules independent of
            // segment boundaries' absolute position in the run.
            let plan = plan_base.map(|p| p.for_substream((next / seg) as u64));
            let (delivered, s) =
                reliable_stream("dnsimpactd-feed", segment, plan.as_ref(), &self.cfg.supervisor);
            stats.merge(&s);
            for batch in &delivered {
                self.state.apply(&self.source.world, batch);
                self.tick();
                self.publish(false);
                if let Some(dir) = self.cfg.checkpoint_dir.clone() {
                    match checkpoint::save(&dir, &self.state) {
                        Ok(()) => {
                            if let Some(t) = &self.telemetry {
                                t.note_checkpoint(self.state.applied_seq);
                            }
                        }
                        Err(e) => {
                            // Durability is degraded, serving is not: keep
                            // going, count it, and say so.
                            obs::progress("daemon", &format!("checkpoint write failed: {e}"));
                            obs::counter("daemon.ckpt_write_errors").incr();
                        }
                    }
                }
                if self.cfg.pace_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(self.cfg.pace_ms));
                }
            }
            next = end;
        }
        self.publish(true);
        stats
    }

    fn publish(&self, with_full_fp: bool) {
        self.cell.store(self.state.snapshot(self.source.batches.len() as u64, with_full_fp));
        obs::counter("daemon.snapshots_published").incr();
    }

    /// Convenience for harnesses: recover (if configured) then ingest to
    /// completion, returning the transport stats.
    pub fn recover_and_run(&mut self) -> SuperviseStats {
        self.recover();
        self.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{self, FeedConfig};
    use attack::Protocol;
    use simcore::time::Window;
    use telescope::{AttackEpisode, EpisodeBlock, EpisodeColumns};

    fn episode(victim: &str, w0: u64, w1: u64) -> AttackEpisode {
        AttackEpisode {
            victim: victim.parse().unwrap(),
            first_window: Window(w0),
            last_window: Window(w1),
            packets: 4_000,
            peak_ppm: 123.5,
            protocol: Protocol::Udp,
            first_port: 53,
            unique_ports: 3,
            slash16s: 40,
        }
    }

    /// Blocks are the feed's transport form: handing one to N consumers
    /// clones a refcount, not the rows. Every consumer sees the same arena
    /// and ingests to exactly the columns the row path builds.
    #[test]
    fn episode_block_fans_out_by_refcount_not_copy() {
        let rows = vec![
            episode("203.0.113.5", 3, 7),
            episode("203.0.113.9", 4, 4),
            episode("203.0.113.5", 40, 44),
        ];
        let block = EpisodeBlock::from_episodes(&rows);

        let (got_a, got_b) = (block.clone(), block.clone());
        assert!(EpisodeBlock::same_arena(&got_a, &block), "fan-out must share the arena");
        assert!(EpisodeBlock::same_arena(&got_b, &block), "fan-out must share the arena");

        let reference = EpisodeColumns::from_episodes(&rows);
        for got in [got_a, got_b] {
            let mut cols = EpisodeColumns::default();
            cols.push_block(&got);
            assert_eq!(format!("{cols:?}"), format!("{reference:?}"), "block ingest diverged");
        }
    }

    /// A chaos-seeded ingest does real repair work, and the index it
    /// builds is the clean run's, state fingerprint for state fingerprint.
    #[test]
    fn chaos_ingest_repairs_and_reaches_the_clean_state() {
        let mut cfg = FeedConfig::pinned(1_500);
        cfg.months = 1;
        cfg.world.domains = 500;
        let source = feed::build(&cfg, 1);
        let ingest = |chaos_seed| {
            let cell = Arc::new(SwapCell::new(IndexSnapshot::default()));
            let mut ing =
                Ingestor::new(&source, IngestConfig { chaos_seed, ..Default::default() }, cell);
            let stats = ing.recover_and_run();
            (stats, ing.state.state_fingerprint())
        };
        let (clean, clean_fp) = ingest(None);
        let (chaos, chaos_fp) = ingest(Some(3));
        assert!(clean.is_clean());
        assert!(chaos.repair_rounds > 0, "the chaos transport retransmitted: {chaos:?}");
        assert!(chaos.dropped > 0 && chaos.duplicated > 0 && chaos.reordered > 0, "{chaos:?}");
        assert_eq!(chaos_fp, clean_fp);
    }
}
