//! Durable ingest progress: a tiny atomically-written marker, not a state
//! dump.
//!
//! Because the feed is replayable from offset 0 (see [`crate::feed`]),
//! recovery does not need the index serialized — it needs to know *how
//! far* the dead daemon had applied, and a fingerprint to prove the
//! replayed prefix reconverged to the same state the daemon was serving
//! when it died. That makes the checkpoint O(1): `{applied_seq,
//! records_applied, state_fp}`, written via temp-file + rename after
//! every batch, so a kill -9 at any instant leaves either the previous
//! or the next marker — never a torn one.
//!
//! A missing, corrupt, or schema-mismatched marker is not fatal: recovery
//! degrades to a full replay from the feed's start and says so.

use crate::index::IndexState;
use obs::Json;
use std::io;
use std::path::Path;

pub const CKPT_SCHEMA: &str = "dnsimpactd-ckpt/v1";
const FILE: &str = "daemon.ckpt.json";

/// A loaded marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    pub applied_seq: u64,
    pub records_applied: u64,
    pub state_fp: u64,
}

/// Write the marker for the current state (atomic: tmp + rename).
pub fn save(dir: &Path, state: &IndexState) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(CKPT_SCHEMA.into()));
    doc.set("applied_seq", Json::U64(state.applied_seq));
    doc.set("records_applied", Json::U64(state.records_applied));
    doc.set("state_fp", Json::Str(format!("{:#018x}", state.state_fingerprint())));
    dnsimpact_core::report::write_atomic(&dir.join(FILE), &doc.pretty())?;
    obs::counter("daemon.checkpoints_written").incr();
    Ok(())
}

/// Load the marker, or explain why recovery must start from scratch.
/// Every failure path is a degraded start, not an abort.
pub fn load(dir: &Path) -> Option<Checkpoint> {
    let path = dir.join(FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
        Err(e) => {
            obs::progress("daemon", &format!("checkpoint unreadable ({e}); replaying from start"));
            obs::counter("daemon.ckpt_unreadable").incr();
            return None;
        }
    };
    let reject = |why: &str| {
        obs::progress("daemon", &format!("checkpoint rejected ({why}); replaying from start"));
        obs::counter("daemon.ckpt_rejected").incr();
        None
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return reject(&format!("parse error: {e}")),
    };
    match doc.get("schema").and_then(Json::as_str) {
        Some(CKPT_SCHEMA) => {}
        Some(other) => return reject(&format!("schema {other:?}, want {CKPT_SCHEMA:?}")),
        None => return reject("no schema field"),
    }
    let field = |k: &str| doc.get(k).and_then(Json::as_u64);
    let fp = doc
        .get("state_fp")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok());
    match (field("applied_seq"), field("records_applied"), fp) {
        (Some(applied_seq), Some(records_applied), Some(state_fp)) => {
            Some(Checkpoint { applied_seq, records_applied, state_fp })
        }
        _ => reject("missing or malformed fields"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dnsimpactd-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn round_trips_and_survives_garbage() {
        let dir = tmpdir("rt");
        let state = IndexState { applied_seq: 17, records_applied: 120, ..IndexState::default() };
        save(&dir, &state).expect("save");
        let ck = load(&dir).expect("load");
        assert_eq!(ck.applied_seq, 17);
        assert_eq!(ck.records_applied, 120);
        assert_eq!(ck.state_fp, state.state_fingerprint());

        // Corrupt marker → degraded start, not a panic.
        std::fs::write(dir.join(FILE), "{ not json").expect("corrupt");
        assert_eq!(load(&dir), None);
        // Wrong schema → same.
        std::fs::write(dir.join(FILE), r#"{"schema":"other/v9"}"#).expect("wrong schema");
        assert_eq!(load(&dir), None);
        // Absent → silent fresh start.
        std::fs::remove_file(dir.join(FILE)).expect("rm");
        assert_eq!(load(&dir), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_marker_is_rejected_not_a_crash() {
        let dir = tmpdir("deep");
        std::fs::write(dir.join(FILE), "[".repeat(100_000)).expect("hostile marker");
        let rejected = obs::counter("daemon.ckpt_rejected");
        let before = rejected.get();
        assert_eq!(load(&dir), None);
        assert!(rejected.get() > before, "the marker takes the reject path");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
