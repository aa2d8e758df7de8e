//! Labelled RNG fan-out.
//!
//! A single experiment seed is expanded into independent per-subsystem
//! streams by hashing `(seed, label)` with SplitMix64. This keeps component
//! behaviour stable under refactoring: adding draws to one subsystem does not
//! perturb another subsystem's stream.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step: the standard 64-bit finalizer used to seed other PRNGs.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash an arbitrary byte label into a 64-bit value (FNV-1a, then mixed).
#[inline]
pub fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    let mut s = h;
    splitmix64(&mut s)
}

/// Deterministic factory of independent RNG streams.
///
/// ```
/// use simcore::rng::RngFactory;
/// use rand::Rng;
///
/// let rngs = RngFactory::new(42);
/// let a: u64 = rngs.stream("telescope").random();
/// let b: u64 = rngs.stream("telescope").random();
/// assert_eq!(a, b, "same seed + label → same stream");
/// assert_ne!(a, rngs.stream("openintel").random::<u64>());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    pub fn new(seed: u64) -> RngFactory {
        RngFactory { seed }
    }

    /// The experiment master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// An RNG for the subsystem named `label`.
    pub fn stream(&self, label: &str) -> SmallRng {
        let mut s = self.seed ^ hash_label(label);
        SmallRng::seed_from_u64(splitmix64(&mut s))
    }

    /// An RNG for the `idx`-th entity of the subsystem named `label`
    /// (e.g. per-attack or per-domain streams).
    pub fn stream_indexed(&self, label: &str, idx: u64) -> SmallRng {
        self.indexed(label).stream(idx)
    }

    /// The per-entity streams of the subsystem named `label`, with the
    /// label hashed once: `indexed(label).stream(i)` is
    /// `stream_indexed(label, i)` for a loop that draws one stream per entity.
    pub fn indexed(&self, label: &str) -> IndexedStreams {
        IndexedStreams { base: self.seed ^ hash_label(label) }
    }

    /// A sub-factory whose streams are all independent of this factory's
    /// direct streams (useful for nested components).
    pub fn fork(&self, label: &str) -> RngFactory {
        let mut s = self.seed ^ hash_label(label) ^ 0xA076_1D64_78BD_642F;
        RngFactory { seed: splitmix64(&mut s) }
    }

    /// A sub-factory for the `idx`-th shard/worker of the component named
    /// `label`. The parallel execution layer derives one factory per shard
    /// from this so that no RNG state is ever shared across threads and a
    /// shard's stream depends only on `(seed, label, idx)` — never on which
    /// worker thread picks the shard up or in what order.
    pub fn fork_indexed(&self, label: &str, idx: u64) -> RngFactory {
        let mut s = self.seed
            ^ hash_label(label)
            ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ 0xE703_7ED1_A0B4_28DB;
        RngFactory { seed: splitmix64(&mut s) }
    }
}

/// See [`RngFactory::indexed`].
#[derive(Clone, Copy, Debug)]
pub struct IndexedStreams {
    base: u64,
}

impl IndexedStreams {
    pub fn stream(&self, idx: u64) -> SmallRng {
        let mut s = self.base ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SmallRng::seed_from_u64(splitmix64(&mut s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(42);
        let a: Vec<u64> = f.stream("telescope").random_iter().take(8).collect();
        let b: Vec<u64> = f.stream("telescope").random_iter().take(8).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(42);
        let a: u64 = f.stream("telescope").random();
        let b: u64 = f.stream("openintel").random();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RngFactory::new(1).stream("x").random();
        let b: u64 = RngFactory::new(2).stream("x").random();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_are_independent() {
        let f = RngFactory::new(7);
        let a: u64 = f.stream_indexed("attack", 0).random();
        let b: u64 = f.stream_indexed("attack", 1).random();
        assert_ne!(a, b);
        let a2: u64 = f.stream_indexed("attack", 0).random();
        assert_eq!(a, a2);
    }

    /// The stream a label and an index name, written out the way
    /// `stream_indexed` computed it before `indexed` took the label hash out
    /// of the loop.
    fn reference_stream_indexed(seed: u64, label: &str, idx: u64) -> SmallRng {
        let mut s = seed ^ hash_label(label) ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SmallRng::seed_from_u64(splitmix64(&mut s))
    }

    proptest::proptest! {
        #[test]
        fn indexed_streams_equal_stream_indexed(
            seed in proptest::prelude::any::<u64>(),
            label in "[a-z-]{0,16}",
            idx in proptest::prelude::any::<u64>(),
        ) {
            let f = RngFactory::new(seed);
            let want: Vec<u64> =
                reference_stream_indexed(seed, &label, idx).random_iter().take(4).collect();
            let hoisted: Vec<u64> = f.indexed(&label).stream(idx).random_iter().take(4).collect();
            let direct: Vec<u64> = f.stream_indexed(&label, idx).random_iter().take(4).collect();
            proptest::prop_assert_eq!(&hoisted, &want);
            proptest::prop_assert_eq!(&direct, &want);
        }
    }

    #[test]
    fn fork_is_stable_and_distinct() {
        let f = RngFactory::new(9);
        let g = f.fork("dns");
        let g2 = f.fork("dns");
        assert_eq!(g.seed(), g2.seed());
        let direct: u64 = f.stream("dns").random();
        let forked: u64 = g.stream("dns").random();
        assert_ne!(direct, forked);
    }

    #[test]
    fn fork_indexed_streams_are_stable_and_distinct() {
        let f = RngFactory::new(9);
        let s0 = f.fork_indexed("shard", 0);
        let s1 = f.fork_indexed("shard", 1);
        assert_ne!(s0.seed(), s1.seed());
        assert_eq!(s0.seed(), f.fork_indexed("shard", 0).seed());
        // Independent of the un-indexed fork and of direct streams.
        assert_ne!(s0.seed(), f.fork("shard").seed());
        let direct: u64 = f.stream("shard").random();
        let sharded: u64 = s0.stream("shard").random();
        assert_ne!(direct, sharded);
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the SplitMix64 paper/reference implementation
        // with state starting at 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn label_hash_spreads() {
        let mut values = std::collections::HashSet::new();
        for i in 0..1000 {
            values.insert(hash_label(&format!("label-{i}")));
        }
        assert_eq!(values.len(), 1000);
    }
}
