//! Stderr-only progress and timing lines.
//!
//! The CI determinism gate diffs `repro`'s stdout byte-for-byte across
//! `--jobs` counts and chaos seeds, so *no* timing, progress, or other
//! wall-clock-dependent text may ever be printed to stdout. Every
//! human-facing status line in the workspace goes through [`progress`],
//! which writes to stderr only.

/// Emit one status line on stderr, prefixed with the component tag:
/// `[repro] catalog: 20 experiments done`.
pub fn progress(component: &str, message: &str) {
    eprintln!("[{component}] {message}");
}
