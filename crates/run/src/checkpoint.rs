//! The on-disk session checkpoint: config + machine snapshot + events
//! offset + cumulative wasted-work telemetry.
//!
//! This is the format `rfsp experiment --checkpoint` has written since
//! PR 4 (the struct moved here from the CLI verbatim; the field names and
//! version tag are unchanged, so existing checkpoints keep working).

use rfsp_pram::{Checkpoint, WastedWork};
use serde::{Deserialize, Serialize};

use crate::{atomic::write_atomic, io_err, RunConfig, RunError};

/// Version tag of the on-disk session checkpoint (wraps the machine's own
/// versioned [`Checkpoint`]).
///
/// * v1 — config + events offset + machine snapshot.
/// * v2 — adds cumulative [`WastedWork`] telemetry; the wrapped machine
///   checkpoint is v4 and carries the policy-engine state.
/// * v3 — one compact JSON line; the wrapped machine checkpoint is v5,
///   whose failure pattern is a flat integer array.
pub const SESSION_CHECKPOINT_VERSION: u32 = 3;

/// What a checkpoint file holds: everything a resumed process needs —
/// config, machine snapshot, and how many event bytes had been flushed
/// when the snapshot was taken.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Format version ([`SESSION_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The run's full configuration.
    pub config: RunConfig,
    /// Flushed length of the events file at snapshot time; resume
    /// truncates the file back to this before continuing.
    pub events_offset: u64,
    /// Cumulative fault-tolerance overhead up to (not including) this
    /// snapshot; a resumed run keeps accumulating on top of it.
    pub wasted: WastedWork,
    /// The machine + adversary + policy-engine snapshot.
    pub machine: Checkpoint,
}

impl SessionCheckpoint {
    /// Publish to `path` as one compact JSON document via
    /// [`write_atomic`]. Returns the size in bytes.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn store(&self, path: &str) -> Result<u64, RunError> {
        write_atomic(path, &serde::json::to_string(self))
    }

    /// Read and validate a checkpoint file.
    ///
    /// The version is checked before the rest is decoded, so a file from
    /// an older format gets the version refusal rather than a shape error.
    ///
    /// # Errors
    ///
    /// Unreadable files, malformed JSON, and version mismatches.
    pub fn load(path: &str) -> Result<Self, RunError> {
        let text = std::fs::read_to_string(path).map_err(|e| io_err("read", path, &e))?;
        let value = serde::json::parse(&text)
            .map_err(|e| RunError(format!("{path}: not valid JSON: {e}")))?;
        match value.get("version").and_then(serde::Value::as_u64) {
            Some(version) if version != u64::from(SESSION_CHECKPOINT_VERSION) => {
                return Err(RunError(format!(
                    "{path}: checkpoint version {version} (this build reads \
                     {SESSION_CHECKPOINT_VERSION})"
                )));
            }
            _ => {}
        }
        SessionCheckpoint::from_value(&value)
            .map_err(|e| RunError(format!("{path}: malformed checkpoint: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_rejects_garbage_and_version_skew() {
        let dir = std::env::temp_dir().join("rfsp-run-ck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let path_s = path.to_str().unwrap();

        assert!(SessionCheckpoint::load(path_s).unwrap_err().0.contains("cannot read"));
        std::fs::write(&path, "{not json").unwrap();
        assert!(SessionCheckpoint::load(path_s).unwrap_err().0.contains("not valid JSON"));
        std::fs::write(&path, "{\"version\":3}").unwrap();
        assert!(SessionCheckpoint::load(path_s).unwrap_err().0.contains("malformed"));
        std::fs::write(&path, "{\"version\":\"3\"}").unwrap();
        assert!(SessionCheckpoint::load(path_s).unwrap_err().0.contains("malformed"));
        // An older file is refused by version before its shape is read:
        // a v2 file's pattern is a map the v3 decoder cannot read.
        std::fs::write(&path, "{\"version\":2,\"machine\":{\"pattern\":{\"events\":[]}}}").unwrap();
        let err = SessionCheckpoint::load(path_s).unwrap_err().0;
        assert!(err.ends_with("checkpoint version 2 (this build reads 3)"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
