//! Columnar (struct-of-arrays) episode table.
//!
//! The row-oriented [`AttackEpisode`](crate::rsdos::AttackEpisode) carries
//! its victim address inline; at paper scale the join touches millions of
//! episodes, so the columnar hot path works over parallel arrays instead,
//! with victims interned into a `u32` arena ([`simcore::Interner`]). The
//! arena is built in a single sequential pass over the feed, so victim ids
//! are first-come deterministic and independent of `--jobs`.

use crate::rsdos::AttackEpisode;
use attack::Protocol;
use simcore::time::Window;
use simcore::Interner;
use std::net::Ipv4Addr;

/// The episode feed as parallel arrays, one entry per episode, in feed
/// order. `victim_ids[i]` indexes the `victims` arena.
#[derive(Clone, Debug, Default)]
pub struct EpisodeColumns {
    pub victims: Interner<Ipv4Addr>,
    pub victim_ids: Vec<u32>,
    pub first_windows: Vec<Window>,
    pub last_windows: Vec<Window>,
    pub packets: Vec<u64>,
    pub peak_ppm: Vec<f64>,
    pub protocols: Vec<Protocol>,
    pub first_ports: Vec<u16>,
    pub unique_ports: Vec<u16>,
    pub slash16s: Vec<u32>,
}

impl EpisodeColumns {
    /// Transpose the row-oriented feed into columns, interning victims in
    /// feed order.
    pub fn from_episodes(episodes: &[AttackEpisode]) -> EpisodeColumns {
        let mut cols = EpisodeColumns::default();
        cols.victim_ids.reserve(episodes.len());
        cols.first_windows.reserve(episodes.len());
        cols.last_windows.reserve(episodes.len());
        cols.packets.reserve(episodes.len());
        cols.peak_ppm.reserve(episodes.len());
        cols.protocols.reserve(episodes.len());
        cols.first_ports.reserve(episodes.len());
        cols.unique_ports.reserve(episodes.len());
        cols.slash16s.reserve(episodes.len());
        for e in episodes {
            cols.push_episode(e);
        }
        cols
    }

    /// Append one episode, interning its victim. The incremental form of
    /// [`from_episodes`](EpisodeColumns::from_episodes): pushing a feed
    /// episode-by-episode yields byte-identical columns (victim ids stay
    /// first-come), which is what lets a streaming consumer grow the
    /// table without rebuilding it per batch.
    pub fn push_episode(&mut self, e: &AttackEpisode) {
        self.victim_ids.push(self.victims.intern(e.victim));
        self.first_windows.push(e.first_window);
        self.last_windows.push(e.last_window);
        self.packets.push(e.packets);
        self.peak_ppm.push(e.peak_ppm);
        self.protocols.push(e.protocol);
        self.first_ports.push(e.first_port);
        self.unique_ports.push(e.unique_ports);
        self.slash16s.push(e.slash16s);
    }

    pub fn len(&self) -> usize {
        self.victim_ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.victim_ids.is_empty()
    }

    /// The victim address of episode `i`.
    pub fn victim(&self, i: usize) -> Ipv4Addr {
        *self.victims.resolve(self.victim_ids[i])
    }

    /// Reconstruct the row form of episode `i` (differential tests).
    pub fn episode(&self, i: usize) -> AttackEpisode {
        AttackEpisode {
            victim: self.victim(i),
            first_window: self.first_windows[i],
            last_window: self.last_windows[i],
            packets: self.packets[i],
            peak_ppm: self.peak_ppm[i],
            protocol: self.protocols[i],
            first_port: self.first_ports[i],
            unique_ports: self.unique_ports[i],
            slash16s: self.slash16s[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn transpose_round_trips_and_interns_repeat_victims() {
        let rows = vec![
            episode("10.0.0.1", 0, 2),
            episode("10.0.0.2", 5, 6),
            episode("10.0.0.1", 50, 51), // repeat victim: same arena id
        ];
        let cols = EpisodeColumns::from_episodes(&rows);
        assert_eq!(cols.len(), 3);
        assert!(!cols.is_empty());
        assert_eq!(cols.victims.len(), 2, "repeat victim shares one arena slot");
        assert_eq!(cols.victim_ids[0], cols.victim_ids[2]);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&cols.episode(i), row, "episode {i} must round-trip");
            assert_eq!(cols.victim(i), row.victim);
        }
    }

    #[test]
    fn incremental_push_matches_bulk_transpose() {
        let rows =
            vec![episode("10.0.0.1", 0, 2), episode("10.0.0.2", 5, 6), episode("10.0.0.1", 50, 51)];
        let bulk = EpisodeColumns::from_episodes(&rows);
        let mut inc = EpisodeColumns::default();
        for r in &rows {
            inc.push_episode(r);
        }
        assert_eq!(format!("{inc:?}"), format!("{bulk:?}"), "push path is byte-identical");
    }

    #[test]
    fn empty_feed_transposes_to_empty_columns() {
        let cols = EpisodeColumns::from_episodes(&[]);
        assert!(cols.is_empty());
        assert_eq!(cols.victims.len(), 0);
    }
}
