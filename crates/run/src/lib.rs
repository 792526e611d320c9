//! # rfsp-run — the crash-safe run-session layer
//!
//! A crash-safe run combines versioned machine checkpoints, atomic on-disk
//! persistence, events-JSONL offset-truncate resume, an adaptive
//! checkpoint cadence and panic-isolating engines. This crate holds that
//! orchestration once, for the CLI's long-run mode, the soak harness's
//! kill/resume lanes and the `rfsp serve` daemon:
//!
//! * [`RunSession`] — owns a machine (a [`Pram`](rfsp_pram::Pram) over
//!   either model, so both the word-model [`Machine`](rfsp_pram::Machine)
//!   and the §3 [`SnapshotMachine`](rfsp_pram::SnapshotMachine) qualify),
//!   its adversary, its [`PolicyEngine`](rfsp_pram::PolicyEngine), its
//!   events log and its durable checkpoints, and implements the *one*
//!   crash-safe run loop: pause at tick boundaries, checkpoint on the
//!   policy's cadence (and on demand), rewind-and-replay after surfaced
//!   worker panics, stream every event to the log and to a caller
//!   observer.
//! * [`run_with_cut`] — the in-memory kill/checkpoint/JSON-round-trip/
//!   restore/resume cross-check used by the soak harness's crash-recovery
//!   lanes.
//! * [`Scheduler`] — a FIFO round-robin turn queue multiplexing many
//!   sessions over one shared worker pool, with bounded starvation.
//! * [`protocol`] / [`Spool`] — the `rfsp serve` daemon's newline-delimited
//!   JSON wire protocol and its on-disk job spool (the unit of daemon
//!   crash recovery: every job directory is resumable from its config and
//!   last checkpoint alone).
//!
//! The service-level picture mirrors the paper: the job queue is itself a
//! Do-All instance — independent tasks that must all complete even though
//! the workers (here: the daemon process) can fail and restart — and the
//! spool is what makes progress *survivable* rather than merely parallel.

pub mod atomic;
pub mod checkpoint;
pub mod config;
pub mod events;
pub mod pattern_io;
pub mod protocol;
pub mod sched;
pub mod session;
pub mod spool;

pub use atomic::write_atomic;
pub use checkpoint::{SessionCheckpoint, SESSION_CHECKPOINT_VERSION};
pub use config::{build_adversary, RunConfig, MAX_SIZE, MAX_THREADS};
pub use events::{count_tick_starts, EventLog};
pub use protocol::{
    read_line, read_request, write_line, JobInfo, JobState, Request, Response, MAX_REQUEST_BYTES,
};
/// The tick-engine choice a [`RunSession`] runs on, re-exported from
/// [`rfsp_pram`] so session callers need not name that crate.
pub use rfsp_pram::ExecMode;
pub use sched::Scheduler;
pub use session::{run_with_cut, CutOutcome, PauseFlow, PauseInfo, RunSession, SessionEnd};
pub use spool::{DoneMarker, Spool, SpoolJob};

use std::fmt;

/// A user-facing session-layer error with a printable message.
///
/// The CLI converts these to its own `ArgError`; the daemon sends them
/// down the wire as [`Response::Err`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunError(pub String);

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RunError {}

/// Decorate an I/O-ish error with the operation and path it came from.
pub(crate) fn io_err(what: &str, path: &str, e: &dyn fmt::Display) -> RunError {
    RunError(format!("cannot {what} {path}: {e}"))
}

/// Decorate a machine error.
pub(crate) fn machine_err(e: &dyn fmt::Display) -> RunError {
    RunError(format!("machine error: {e}"))
}
