//! The network-telescope substrate: a UCSD-NT-style darknet, backscatter
//! sampling, and the RSDoS (Randomly and uniformly Spoofed DoS) attack
//! inference that produces the feed the paper joins against.
//!
//! The real telescope passively captures traffic to a /9 + /10 (≈1/341 of
//! IPv4). Victims of randomly-spoofed attacks answer spoofed sources all
//! over the address space, so the darknet receives a 1/341 thinning of the
//! victim's responses. We reproduce that chain:
//!
//! attack (spoofed pps) → victim responses → binomial thinning into the
//! darknet → per-window observations → threshold classifier → feed records
//! and attack episodes.
//!
//! - [`darknet`]: the announced dark prefixes and coverage math.
//! - [`backscatter`]: per-window sampling of backscatter observations.
//! - [`rsdos`]: the threshold classifier and episode (attack) extraction.
//! - [`feed`]: the feed record schema, summary statistics (Table 1), and
//!   CSV export.
//! - [`block`]: arena-backed record blocks — the classifier's qualifying
//!   rows packed in one refcounted buffer instead of one heap object each.
//! - [`columns`]: the feed's episodes as a columnar (struct-of-arrays)
//!   table with interned victims — the scale-sweep hot path's input form.

pub mod backscatter;
pub mod block;
pub mod columns;
pub mod darknet;
pub mod feed;
pub mod outage;
pub mod rsdos;

pub use backscatter::BackscatterSampler;
pub use block::RecordBlock;
pub use columns::EpisodeColumns;
pub use darknet::Darknet;
pub use feed::{EpisodeIndex, RsdosFeed, RsdosRecord};
pub use outage::FeedGapModel;
pub use rsdos::{AttackEpisode, RsdosClassifier, RsdosThresholds};

/// The row numbers of `rows` in ascending order of a 96-bit `key`, rows of
/// equal key in input order. A feed interval's rows are grouped by sorting,
/// not by hashing, and the sort is of 16-byte integers (the key above the
/// row number): several times cheaper than a stable sort that moves the
/// 40-byte rows, with the same order.
pub(crate) fn rows_in_key_order<T>(
    rows: &[T],
    key: impl Fn(&T) -> u128,
) -> impl Iterator<Item = usize> {
    assert!(rows.len() <= u32::MAX as usize, "more than 2^32 rows in one feed interval");
    let mut keyed: Vec<u128> =
        rows.iter().enumerate().map(|(row, r)| key(r) << 32 | row as u128).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|k| k as u32 as usize)
}
