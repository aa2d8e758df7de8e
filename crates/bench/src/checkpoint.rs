//! Per-experiment completion markers for resumable `repro` runs.
//!
//! A checkpoint directory holds one `<spec>.done` marker per completed
//! experiment job. Markers are written atomically (tmp + rename) and only
//! *after* the job's artifacts have themselves been renamed into place, so
//! a run killed at any instant — even mid-write — leaves the directory in
//! one of two states per job: fully recorded, or not recorded at all. A
//! resumed run skips recorded jobs and re-runs the rest; because every job
//! is a pure function of `(seed, spec)`, the artifacts it re-creates are
//! byte-identical to the ones the killed run would have written.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Handle to a checkpoint directory (created on open).
pub struct CheckpointDir {
    dir: PathBuf,
}

impl CheckpointDir {
    pub fn new(dir: &Path) -> io::Result<CheckpointDir> {
        fs::create_dir_all(dir)?;
        Ok(CheckpointDir { dir: dir.to_path_buf() })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn marker(&self, spec: &str) -> PathBuf {
        self.dir.join(format!("{spec}.done"))
    }

    /// Has `spec` been recorded as complete by a previous (or this) run?
    pub fn is_done(&self, spec: &str) -> bool {
        self.marker(spec).exists()
    }

    /// Record `spec` as complete. The marker stores the results-index
    /// lines of the spec's artifacts so a resumed run can rebuild
    /// `INDEX.md` without re-rendering anything. Call this only after the
    /// artifacts themselves are safely on disk.
    pub fn mark_done(&self, spec: &str, index_lines: &[String]) -> io::Result<()> {
        dnsimpact_core::report::write_atomic(&self.marker(spec), &index_lines.concat())
    }

    /// The index lines recorded by [`CheckpointDir::mark_done`] (empty if
    /// the spec is not done).
    pub fn done_index_lines(&self, spec: &str) -> Vec<String> {
        fs::read_to_string(self.marker(spec))
            .map(|s| s.lines().map(|l| format!("{l}\n")).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dnsimpact-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_marker() {
        let dir = tmpdir("roundtrip");
        let c = CheckpointDir::new(&dir).unwrap();
        assert!(!c.is_done("fig5"));
        let lines = vec!["- `fig5.csv` — Figure 5\n".to_string()];
        c.mark_done("fig5", &lines).unwrap();
        assert!(c.is_done("fig5"));
        assert_eq!(c.done_index_lines("fig5"), lines);
        assert!(!c.is_done("fig6"));
        assert!(c.done_index_lines("fig6").is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_tmp_remnant() {
        let dir = tmpdir("tmpfile");
        let c = CheckpointDir::new(&dir).unwrap();
        c.mark_done("russia", &["- a\n".into(), "- b\n".into()]).unwrap();
        assert!(!dir.join("russia.done.tmp").exists());
        assert_eq!(c.done_index_lines("russia").len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
