//! The `repro` command line, driven as a user drives it.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory for one invocation.
fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create working directory");
    dir
}

/// An experiment id that is not in the catalog (here a retired
/// subcommand) exits 2, names the id, and runs nothing: no report is
/// written.
#[test]
fn unknown_experiment_id_exits_2_and_writes_no_report() {
    let dir = workdir("unknown-id");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench", "daemon-bench"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"daemon-bench\"") && stderr.contains("--list"), "{stderr}");
    let left: Vec<_> = std::fs::read_dir(&dir).expect("read working directory").collect();
    assert!(left.is_empty(), "nothing may be written: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
