//! A multiply-fold hasher for maps keyed by already-packed integer ids,
//! and the FNV-1a [`FnvWriter`] every fingerprint in the workspace is taken
//! with.
//!
//! The batch hot path keeps millions of `(id, window)` cells in hash maps;
//! SipHash spends more on each probe than the probe itself. The keys are
//! small integers this program minted (interned ids, window numbers), so
//! they need mixing, not collision resistance. Never key a map through
//! this on bytes from outside the program — names off the wire, HTTP
//! paths, file contents: those stay on the standard library's default
//! hasher, which an input cannot steer into one bucket.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One 64×64→128-bit multiply per integer written, high half folded into
/// the low. Both factors carry the input (one of them half-rotated), so
/// every input bit reaches both the low bits hashbrown picks the bucket by
/// and the top seven it tags the slot with; `n × constant` alone leaves an
/// id packed into the upper half short of the low bits.
#[derive(Default)]
pub struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("PackedKeyHasher takes integer ids only (write_u32/write_u64)");
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        let x = self.0 ^ n;
        let m = (x ^ 0xF39C_C060_5CED_C835) as u128
            * (x.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15) as u128;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

/// A `HashMap` over integer-id keys (see the module docs for the limits).
pub type PackedMap<K, V> = HashMap<K, V, BuildHasherDefault<PackedKeyHasher>>;

/// The set form of [`PackedMap`], under the same limits.
pub type PackedSet<K> = HashSet<K, BuildHasherDefault<PackedKeyHasher>>;

/// FNV-1a over everything `Debug`-printed into it: fingerprints a value
/// (an index state, a run's artifacts, a metric snapshot) without
/// materializing the potentially huge debug string. `Debug` on `f64`
/// prints the shortest round-tripping form, so equal fingerprints mean
/// bit-equal floats.
pub struct FnvWriter(u64);

impl FnvWriter {
    pub fn new() -> FnvWriter {
        FnvWriter(0xcbf2_9ce4_8422_2325)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for FnvWriter {
    fn default() -> FnvWriter {
        FnvWriter::new()
    }
}

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash>(k: K) -> u64 {
        BuildHasherDefault::<PackedKeyHasher>::default().hash_one(k)
    }

    /// Distinct values of `hash >> shift & 0xFFFF` over `keys`.
    fn distinct_16_bits(keys: impl Iterator<Item = u64>, shift: u32) -> usize {
        let mut seen = std::collections::HashSet::new();
        seen.extend(keys.map(|k| (hash_of(k) >> shift) & 0xFFFF));
        seen.len()
    }

    #[test]
    fn packed_cells_spread_over_bucket_and_tag_bits() {
        // 65536 balls into 65536 bins leave ~63 % of the bins hit (~41.4k);
        // a hasher that passes the id's or the window's low bits through
        // collapses one of these families to a few thousand or fewer.
        type Family = fn(u64) -> u64;
        let families: [(&str, Family); 4] = [
            ("one victim, consecutive windows", |i| 0x0A00_0001 << 32 | i),
            ("one window, consecutive addresses", |i| (0x0A00_0000 + i) << 32 | 7),
            ("one window, consecutive /24s", |i| (0x0A00_0000 + i * 256) << 32 | 100_000),
            ("256 addresses x 256 windows", |i| {
                (0xC612_0000 + (i >> 8)) << 32 | (90_000 + (i & 255))
            }),
        ];
        for (name, key) in families {
            for shift in [0, 48] {
                let hit = distinct_16_bits((0..65_536).map(key), shift);
                assert!(hit > 40_000, "{name}, bits {shift}..{}: {hit} of 65536", shift + 16);
            }
        }
    }

    #[test]
    fn tuple_keys_fold_every_field() {
        assert_ne!(hash_of((1u32, 2u64)), hash_of((2u32, 1u64)));
        assert_ne!(hash_of((0u32, 0u64)), hash_of((0u32, 1u64)));
        assert_ne!(hash_of((0u32, 7u64)), hash_of((1u32, 7u64)));
        assert_eq!(hash_of((3u32, 9u64)), hash_of((3u32, 9u64)));
    }

    #[test]
    fn map_round_trips_packed_keys() {
        let mut m: PackedMap<u64, f64> = PackedMap::default();
        for k in 0..10_000u64 {
            *m.entry(k << 32 | (k % 97)).or_insert(0.0) += k as f64;
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m[&(4_242u64 << 32 | (4_242 % 97))], 4_242.0);
    }

    #[test]
    #[should_panic(expected = "integer ids only")]
    fn byte_keys_are_refused() {
        hash_of("a name off the wire");
    }
}
