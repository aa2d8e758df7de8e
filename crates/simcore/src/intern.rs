//! A deterministic `u32` arena interner.
//!
//! The columnar hot path replaces per-row `String` / `Vec<IpAddr>`
//! allocation with dense `u32` ids into a shared arena. Ids are assigned
//! first-come-first-served, so a single sequential pass over the input
//! always produces the same id assignment — and [`Interner::merge`] folds
//! shard-local arenas back into a global one in shard order, producing the
//! *identical* assignment the sequential pass would have, whatever the
//! shard sizes. That is the invariant the `--jobs`-independence suite
//! leans on.

use std::collections::HashMap;
use std::hash::Hash;

/// First-come-first-served `T → u32` arena.
///
/// `intern` is idempotent: re-interning a known value returns its existing
/// id. `resolve` is total over assigned ids and panics on out-of-range ids
/// (an id can only come from this arena, so out-of-range is a logic bug).
#[derive(Clone)]
pub struct Interner<T: Eq + Hash + Clone> {
    ids: HashMap<T, u32>,
    values: Vec<T>,
}

/// Prints only the arena (id order). The reverse map's `HashMap` iteration
/// order is seeded per-instance, and fingerprints are taken over `Debug`
/// output — the derived impl would make equal arenas print unequally.
impl<T: Eq + Hash + Clone + std::fmt::Debug> std::fmt::Debug for Interner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interner").field("values", &self.values).finish()
    }
}

impl<T: Eq + Hash + Clone> Default for Interner<T> {
    fn default() -> Interner<T> {
        Interner::new()
    }
}

impl<T: Eq + Hash + Clone> Interner<T> {
    pub fn new() -> Interner<T> {
        Interner { ids: HashMap::new(), values: Vec::new() }
    }

    /// The id of `value`, assigning the next free id on first sight.
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(&id) = self.ids.get(&value) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("interner overflow: > u32::MAX values");
        self.ids.insert(value.clone(), id);
        self.values.push(value);
        id
    }

    /// The value behind `id`.
    pub fn resolve(&self, id: u32) -> &T {
        &self.values[id as usize]
    }

    /// The id of `value`, if it has been interned.
    pub fn get(&self, value: &T) -> Option<u32> {
        self.ids.get(value).copied()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate values in id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.values.iter()
    }

    /// Fold a shard-local arena into this one, returning the remap table
    /// `local id → global id`. Merging shard arenas in shard order yields
    /// exactly the assignment a single sequential pass over the
    /// concatenated inputs would have produced — dense ids stay
    /// deterministic under any sharding.
    pub fn merge(&mut self, shard: &Interner<T>) -> Vec<u32> {
        shard.values.iter().map(|v| self.intern(v.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_round_trip() {
        let mut arena = Interner::new();
        assert!(arena.is_empty());
        let a = arena.intern("alpha".to_string());
        let b = arena.intern("beta".to_string());
        assert_eq!((a, b), (0, 1));
        assert_eq!(arena.resolve(a), "alpha");
        assert_eq!(arena.resolve(b), "beta");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(&"beta".to_string()), Some(1));
        assert_eq!(arena.get(&"gamma".to_string()), None);
        let collected: Vec<&String> = arena.iter().collect();
        assert_eq!(collected, ["alpha", "beta"]);
    }

    #[test]
    fn reinterning_is_idempotent() {
        let mut arena = Interner::new();
        let first = arena.intern(42u64);
        arena.intern(7u64);
        let again = arena.intern(42u64);
        assert_eq!(first, again, "dedup must keep the first-come id");
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn merge_remaps_shard_ids_to_global() {
        let mut global = Interner::new();
        global.intern("x");
        global.intern("y");
        let mut shard = Interner::new();
        shard.intern("y"); // local 0 → global 1
        shard.intern("z"); // local 1 → global 2 (fresh)
        let remap = global.merge(&shard);
        assert_eq!(remap, vec![1, 2]);
        assert_eq!(global.resolve(2), &"z");
    }

    use proptest::prelude::*;

    proptest! {
        /// Sequential interning ≡ shard-local interning + ordered merge,
        /// for any input sequence and any shard cut points. This is the
        /// deterministic-id-assignment property the `--jobs` sweep relies
        /// on: workers may intern into private arenas as long as the
        /// arenas merge in shard order.
        #[test]
        fn shard_merge_matches_sequential(
            xs in prop::collection::vec(0u32..50, 1..80),
            cut_seed in 0usize..7,
        ) {
            let mut sequential = Interner::new();
            let seq_ids: Vec<u32> = xs.iter().map(|&x| sequential.intern(x)).collect();

            let shard_len = cut_seed + 1; // 1..=7: uneven final shard included
            let mut global = Interner::new();
            let mut merged_ids = Vec::new();
            for chunk in xs.chunks(shard_len) {
                let mut local = Interner::new();
                let local_ids: Vec<u32> = chunk.iter().map(|&x| local.intern(x)).collect();
                let remap = global.merge(&local);
                merged_ids.extend(local_ids.iter().map(|&l| remap[l as usize]));
            }
            prop_assert_eq!(&seq_ids, &merged_ids);
            prop_assert_eq!(sequential.len(), global.len());
            for id in 0..sequential.len() as u32 {
                prop_assert_eq!(sequential.resolve(id), global.resolve(id));
            }
        }

        /// Round trip: every interned value resolves back to itself, and
        /// duplicate inputs never grow the arena.
        #[test]
        fn intern_resolve_round_trip(xs in prop::collection::vec(0i64..1000, 0..60)) {
            let mut arena = Interner::new();
            for &x in &xs {
                let id = arena.intern(x);
                prop_assert_eq!(arena.resolve(id), &x);
            }
            let distinct: std::collections::HashSet<i64> = xs.iter().copied().collect();
            prop_assert_eq!(arena.len(), distinct.len());
        }
    }
}
