//! Thread-to-CPU pinning through the two libc calls std already links.
//!
//! The latency phases confine the serving side to one CPU and, where an
//! ingest runs beside it, the ingest to another (see `daemon::with_server`).

use std::sync::OnceLock;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

const WORDS: usize = 16;

fn allowed() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// The CPUs the process was started on, ascending. `main` reads them
/// before anything is pinned; later calls return the same set.
pub fn all() -> &'static [usize] {
    static ALL: OnceLock<Vec<usize>> = OnceLock::new();
    ALL.get_or_init(allowed)
}

/// The CPU the server's threads and the query clients share.
pub fn serving() -> &'static [usize] {
    &all()[..all().len().min(1)]
}

/// The CPU an ingest running beside the serving side gets: another one
/// when there is one.
pub fn beside_serving() -> &'static [usize] {
    &all()[all().len().saturating_sub(1)..]
}

/// Restrict the calling thread, and the threads it spawns from now on, to
/// `cpus`. An empty set (affinity unreadable) or a refusal leaves the
/// thread where it was: pinning steadies the numbers, nothing depends on it.
pub fn pin(cpus: &[usize]) {
    let mut mask = [0u64; WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    if !cpus.is_empty() {
        // SAFETY: `mask` is a live buffer of exactly the byte length passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
    }
}
