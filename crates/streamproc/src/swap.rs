//! Atomically hot-swappable snapshot cell.
//!
//! The serving pattern the daemon needs: one writer builds a fresh
//! immutable snapshot off to the side and publishes it in one step;
//! readers grab an `Arc` to whatever was last published and keep using it
//! for as long as they like. No reader ever observes a half-applied
//! update, and publication never blocks behind in-flight readers — the
//! lock is held only for the pointer exchange. The replaced snapshot is
//! released after the lock: freeing a large index must not hold up the
//! next `load`.

use parking_lot::RwLock;
use std::sync::Arc;

/// A cell holding the current published snapshot.
pub struct SwapCell<T> {
    current: RwLock<Arc<T>>,
}

impl<T> SwapCell<T> {
    pub fn new(initial: T) -> SwapCell<T> {
        SwapCell { current: RwLock::new(Arc::new(initial)) }
    }

    /// The snapshot current at the time of the call. The returned `Arc`
    /// stays valid (and unchanged) across later `store`s.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read())
    }

    /// Publish `next` as the current snapshot. Readers that already
    /// loaded the previous snapshot keep it; new loads see `next`.
    pub fn store(&self, next: T) {
        self.store_arc(Arc::new(next));
    }

    /// Publish an already-shared snapshot without re-wrapping it.
    pub fn store_arc(&self, next: Arc<T>) {
        // Two statements: the write guard is a temporary of the first, so
        // it is released before the second frees the replaced snapshot.
        let replaced = std::mem::replace(&mut *self.current.write(), next);
        drop(replaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;
    use std::thread;

    #[test]
    fn readers_keep_their_snapshot_across_swaps() {
        let cell = SwapCell::new(vec![1, 2, 3]);
        let before = cell.load();
        cell.store(vec![9]);
        assert_eq!(*before, vec![1, 2, 3], "held snapshot is immutable");
        assert_eq!(*cell.load(), vec![9], "new loads see the swap");
    }

    /// The cell of `replaced_snapshot_is_released_outside_the_lock`.
    static PROBE_CELL: OnceLock<SwapCell<ReleaseProbe>> = OnceLock::new();

    /// A snapshot whose `Drop` records whether the cell's lock was free
    /// while it was being released.
    struct ReleaseProbe(&'static AtomicBool);

    impl Drop for ReleaseProbe {
        fn drop(&mut self) {
            let cell = PROBE_CELL.get().expect("probes are dropped by the cell's stores");
            self.0.store(cell.current.try_read().is_some(), Ordering::SeqCst);
        }
    }

    #[test]
    fn replaced_snapshot_is_released_outside_the_lock() {
        static LOCK_FREE: [AtomicBool; 2] = [AtomicBool::new(false), AtomicBool::new(false)];
        let cell = PROBE_CELL.get_or_init(|| SwapCell::new(ReleaseProbe(&LOCK_FREE[0])));
        // `store` replaces the first probe, `store_arc` the second.
        cell.store(ReleaseProbe(&LOCK_FREE[1]));
        assert!(LOCK_FREE[0].load(Ordering::SeqCst), "store freed the old snapshot under the lock");
        cell.store_arc(Arc::new(ReleaseProbe(&LOCK_FREE[0])));
        assert!(LOCK_FREE[1].load(Ordering::SeqCst), "store_arc freed it under the lock");
    }

    #[test]
    fn concurrent_loads_see_whole_snapshots_only() {
        // Writer publishes (n, n, n) triples; readers must never observe
        // a mixed triple, whatever the interleaving.
        let cell = Arc::new(SwapCell::new([0u64; 3]));
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                for n in 1..=1000u64 {
                    cell.store([n, n, n]);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        let s = cell.load();
                        assert!(s[0] == s[1] && s[1] == s[2], "torn snapshot: {s:?}");
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }
}
