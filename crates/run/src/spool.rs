//! The daemon's on-disk job spool — the unit of daemon crash recovery.
//!
//! Every job lives in its own directory under the spool root:
//!
//! ```text
//! spool/
//!   job-000001/
//!     config.json    # the RunConfig, paths rewritten into this directory
//!     ck.json        # latest session checkpoint (atomic tmp+rename)
//!     events.jsonl   # the job's event stream
//!     done.json      # terminal marker: {"state": "...", "detail": "...", "tick": N}
//! ```
//!
//! A restarted daemon scans the root and re-adopts everything it finds:
//! jobs with a `done.json` are history (their `ck.json` is not read),
//! jobs with a `ck.json` resume from it (byte-identical event streams,
//! same guarantee as `--resume`), and jobs with only a `config.json`
//! start from scratch. Nothing else — no database, no lock files — so
//! `kill -9` mid-write loses at most the work since the last checkpoint,
//! exactly like a machine crash in the paper's fail-stop model.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Error, Serialize, Value};

use crate::atomic::write_atomic;
use crate::checkpoint::SessionCheckpoint;
use crate::{io_err, RunConfig, RunError};

/// Terminal marker for a finished job.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct DoneMarker {
    /// `"completed"`, `"stopped"`, or `"failed"`.
    pub state: String,
    /// Human-readable detail (summary line or error message).
    pub detail: String,
    /// The tick the job ended at. Markers written before this field
    /// existed decode with 0.
    pub tick: u64,
}

impl Deserialize for DoneMarker {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v.as_map().ok_or_else(|| Error::custom("a done marker must be a map"))?;
        Ok(DoneMarker {
            state: String::from_value(serde::field(map, "state")?)?,
            detail: String::from_value(serde::field(map, "detail")?)?,
            tick: v.get("tick").map_or(Ok(0), u64::from_value)?,
        })
    }
}

/// One re-adopted job, as the startup scan sees it.
pub struct SpoolJob {
    /// The id encoded in the directory name.
    pub job: u64,
    /// The job's configuration (paths already point into the spool).
    pub config: RunConfig,
    /// The latest checkpoint, if one was published and the job is
    /// unfinished (a finished job's checkpoint is not read).
    pub resume: Option<SessionCheckpoint>,
    /// The terminal marker, if the job already finished.
    pub done: Option<DoneMarker>,
}

/// The spool root.
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Open (creating if needed) the spool at `root`.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory.
    pub fn open(root: &Path) -> Result<Self, RunError> {
        std::fs::create_dir_all(root)
            .map_err(|e| io_err("create spool directory", &root.display().to_string(), &e))?;
        Ok(Spool { root: root.to_path_buf() })
    }

    fn job_dir(&self, job: u64) -> PathBuf {
        self.root.join(format!("job-{job:06}"))
    }

    /// The job's checkpoint path (inside its spool directory).
    pub fn checkpoint_path(&self, job: u64) -> String {
        self.job_dir(job).join("ck.json").display().to_string()
    }

    /// The job's events path (inside its spool directory).
    pub fn events_path(&self, job: u64) -> String {
        self.job_dir(job).join("events.jsonl").display().to_string()
    }

    /// The config job `job` runs with: `config` with its artifact paths
    /// rewritten into the job's spool directory. Nothing touches the disk,
    /// so a caller can validate the result before [`Spool::create_job`].
    pub fn job_config(&self, job: u64, mut config: RunConfig) -> RunConfig {
        config.checkpoint = Some(self.checkpoint_path(job));
        config.events = Some(self.events_path(job));
        config
    }

    /// Materialize job `job`'s directory and durably publish `config` —
    /// the result of [`Spool::job_config`] — as its `config.json`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn create_job(&self, job: u64, config: &RunConfig) -> Result<(), RunError> {
        let dir = self.job_dir(job);
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_err("create job directory", &dir.display().to_string(), &e))?;
        let path = dir.join("config.json");
        write_atomic(
            path.to_str().ok_or_else(|| RunError("non-UTF-8 spool path".into()))?,
            &serde::json::to_string_pretty(&config.to_value()),
        )?;
        Ok(())
    }

    /// Durably publish a job's terminal marker: its `state`, a `detail`
    /// line, and the `tick` it ended at.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn mark_done(
        &self,
        job: u64,
        state: &str,
        detail: &str,
        tick: u64,
    ) -> Result<(), RunError> {
        let path = self.job_dir(job).join("done.json");
        let marker = DoneMarker { state: state.to_string(), detail: detail.to_string(), tick };
        write_atomic(
            path.to_str().ok_or_else(|| RunError("non-UTF-8 spool path".into()))?,
            &serde::json::to_string_pretty(&marker.to_value()),
        )?;
        Ok(())
    }

    /// Scan the spool: every `job-NNNNNN` directory with a readable
    /// `config.json` becomes a [`SpoolJob`], sorted by id. Unreadable or
    /// torn done markers, and the unreadable or torn checkpoints of
    /// unfinished jobs, are reported as errors — a daemon must refuse to
    /// silently restart a job whose checkpoint it cannot parse, or re-run
    /// one whose marker it cannot read. So is a config that
    /// [`RunConfig::validate`] refuses, as its `Submit` was. A finished
    /// job's checkpoint is never read: nothing resumes from it.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed spool contents.
    pub fn scan(&self) -> Result<Vec<SpoolJob>, RunError> {
        let mut jobs = Vec::new();
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| io_err("read spool directory", &self.root.display().to_string(), &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| {
                io_err("read spool directory", &self.root.display().to_string(), &e)
            })?;
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(|n| n.strip_prefix("job-")) else { continue };
            let Ok(job) = id.parse::<u64>() else { continue };
            let dir = entry.path();
            let config_path = dir.join("config.json");
            let text = std::fs::read_to_string(&config_path)
                .map_err(|e| io_err("read", &config_path.display().to_string(), &e))?;
            let config = serde::json::from_str(&text)
                .ok()
                .and_then(|v| RunConfig::from_value(&v).ok())
                .ok_or_else(|| {
                    RunError(format!("{}: malformed job config", config_path.display()))
                })?;
            config.validate().map_err(|e| RunError(format!("{}: {e}", config_path.display())))?;
            let done_path = dir.join("done.json");
            let done = if done_path.exists() {
                let text = std::fs::read_to_string(&done_path)
                    .map_err(|e| io_err("read", &done_path.display().to_string(), &e))?;
                let marker = serde::json::from_str(&text)
                    .ok()
                    .and_then(|v| DoneMarker::from_value(&v).ok())
                    .ok_or_else(|| {
                        RunError(format!("{}: malformed done marker", done_path.display()))
                    })?;
                Some(marker)
            } else {
                None
            };
            let ck_path = dir.join("ck.json");
            let resume = if done.is_none() && ck_path.exists() {
                Some(SessionCheckpoint::load(
                    ck_path.to_str().ok_or_else(|| RunError("non-UTF-8 spool path".into()))?,
                )?)
            } else {
                None
            };
            jobs.push(SpoolJob { job, config, resume, done });
        }
        jobs.sort_by_key(|j| j.job);
        Ok(jobs)
    }

    /// The next unused job id (one past the highest spooled id).
    ///
    /// # Errors
    ///
    /// I/O failures while scanning.
    pub fn next_job_id(&self) -> Result<u64, RunError> {
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| io_err("read spool directory", &self.root.display().to_string(), &e))?;
        let mut max = 0;
        for entry in entries.flatten() {
            if let Some(id) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("job-"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                max = max.max(id);
            }
        }
        Ok(max + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_scan_and_mark_done_roundtrip() {
        let root = std::env::temp_dir().join("rfsp-run-spool-test");
        let _ = std::fs::remove_dir_all(&root);
        let spool = Spool::open(&root).unwrap();
        assert_eq!(spool.next_job_id().unwrap(), 1);
        assert!(spool.scan().unwrap().is_empty());

        let cfg = spool.job_config(1, RunConfig::default());
        assert_eq!(cfg.checkpoint.as_deref(), Some(spool.checkpoint_path(1).as_str()));
        assert_eq!(cfg.events.as_deref(), Some(spool.events_path(1).as_str()));
        assert!(spool.scan().unwrap().is_empty(), "job_config touched the spool");
        spool.create_job(1, &cfg).unwrap();
        spool.create_job(2, &spool.job_config(2, RunConfig::default())).unwrap();
        spool.mark_done(2, "completed", "all cells written", 41).unwrap();
        assert_eq!(spool.next_job_id().unwrap(), 3);

        let jobs = spool.scan().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!((jobs[0].job, jobs[1].job), (1, 2));
        assert!(jobs[0].done.is_none() && jobs[0].resume.is_none());
        let done = jobs[1].done.as_ref().unwrap();
        assert_eq!((done.state.as_str(), done.tick), ("completed", 41));

        // A torn checkpoint must fail the scan loudly, not silently
        // restart the job from scratch.
        std::fs::write(root.join("job-000001").join("ck.json"), "{torn").unwrap();
        assert!(spool.scan().is_err());
        std::fs::remove_file(root.join("job-000001").join("ck.json")).unwrap();

        // So must a garbage done marker: reading it as "not done" would
        // re-run a finished job.
        let marker = root.join("job-000002").join("done.json");
        std::fs::write(&marker, "\u{0}garbage").unwrap();
        let err = spool.scan().err().expect("garbage marker fails the scan");
        assert_eq!(err.0, format!("{}: malformed done marker", marker.display()));
        std::fs::write(&marker, r#"{"state":"completed"}"#).unwrap();
        assert!(spool.scan().is_err(), "a marker without its detail is malformed too");
        std::fs::write(&marker, r#"{"state":"completed","detail":"x","tick":-1}"#).unwrap();
        assert!(spool.scan().is_err(), "so is one with a negative tick");
        // A marker written before the tick was recorded reads as tick 0.
        std::fs::write(&marker, r#"{"state": "completed", "detail": "S=5 tau=2"}"#).unwrap();
        let jobs = spool.scan().unwrap();
        assert_eq!(jobs[1].done.as_ref().map(|d| d.tick), Some(0));

        // A config `validate` refuses fails the scan, as its `Submit`
        // would have been refused.
        let bad = RunConfig { rate: 5.0, ..spool.job_config(3, RunConfig::default()) };
        spool.create_job(3, &bad).unwrap();
        let err = spool.scan().err().expect("a job config that fails validate fails the scan");
        assert!(err.0.ends_with("--rate must be between 0 and 1, not 5"), "{err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scan_reads_only_unfinished_jobs_checkpoints() {
        let root = std::env::temp_dir().join("rfsp-run-spool-done-test");
        let _ = std::fs::remove_dir_all(&root);
        let spool = Spool::open(&root).unwrap();
        for job in [1, 2] {
            spool.create_job(job, &spool.job_config(job, RunConfig::default())).unwrap();
            std::fs::write(spool.checkpoint_path(job), "{torn").unwrap();
        }
        spool.mark_done(2, "completed", "S=5 tau=2", 2).unwrap();

        // Job 1 is unfinished: its torn checkpoint still fails the scan.
        let err = spool.scan().err().expect("an unfinished job's torn checkpoint fails");
        assert!(err.0.contains("not valid JSON"), "{err}");

        // Job 2 finished: nothing resumes from its checkpoint, so the
        // scan does not read it.
        std::fs::remove_file(spool.checkpoint_path(1)).unwrap();
        let jobs = spool.scan().unwrap();
        assert!(jobs[1].resume.is_none());
        assert_eq!(jobs[1].done.as_ref().map(|d| d.tick), Some(2));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
