//! The `rfsp serve` wire protocol: newline-delimited JSON over a local
//! Unix socket.
//!
//! One request line, one response line — except `Watch`, where the `Ok`
//! acknowledgment is followed by a stream of raw telemetry lines until
//! the job ends or the client hangs up. Requests and responses are
//! externally-tagged enum JSON (`{"Submit":{"config":{...}}}`), so the
//! protocol is greppable and scriptable with a shell and `nc`.

use std::io::{BufRead, Read, Write};

use serde::{Deserialize, Serialize};

use crate::{RunConfig, RunError};

/// Client → daemon.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
// `Submit` carries the config by value, as every client builds it; a
// request lives for one connection, so its size costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Queue a run; responds [`Response::Submitted`].
    Submit {
        /// The run to execute (artifact paths are rewritten into the
        /// daemon's spool).
        config: RunConfig,
    },
    /// List all jobs the daemon knows; responds [`Response::JobList`].
    Jobs,
    /// Stop a job at its next pause boundary (checkpointed, so a later
    /// resubmission of the spooled config resumes it); responds
    /// [`Response::Done`].
    Cancel {
        /// Job id from [`Response::Submitted`] / [`Response::JobList`].
        job: u64,
    },
    /// Subscribe to a job's live telemetry; after the [`Response::Done`]
    /// acknowledgment the connection carries one JSON event per line.
    Watch {
        /// Job id to follow.
        job: u64,
    },
    /// Checkpoint and stop every job, then exit the daemon.
    Shutdown,
}

/// Where a job is in its life cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted, waiting for its first turn.
    Queued,
    /// Holding or contending for the pool turn.
    Running,
    /// Ran to completion (postconditions verified).
    Completed,
    /// Stopped at a checkpoint by [`Request::Cancel`] or shutdown.
    Stopped,
    /// Died with an error (recorded in the spool).
    Failed,
}

/// One row of [`Response::JobList`].
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct JobInfo {
    /// Daemon-assigned id.
    pub job: u64,
    /// Life-cycle state.
    pub state: JobState,
    /// Last tick the daemon saw the job pause at.
    pub cycle: u64,
    /// Algorithm (from the job's config).
    pub algo: String,
    /// Instance size.
    pub n: u64,
    /// Processor count.
    pub p: u64,
}

/// Daemon → client.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Response {
    /// [`Request::Submit`] accepted; the job is queued.
    Submitted {
        /// The id to cancel/watch by.
        job: u64,
    },
    /// [`Request::Jobs`] answer.
    JobList {
        /// All jobs, oldest first.
        jobs: Vec<JobInfo>,
    },
    /// Generic success.
    Done,
    /// Generic failure; the request had no effect.
    Err {
        /// Human-readable reason.
        message: String,
    },
}

/// Write one protocol value as a JSON line.
///
/// # Errors
///
/// Socket I/O failures.
pub fn write_line<T: Serialize>(out: &mut dyn Write, value: &T) -> Result<(), RunError> {
    let mut line = serde::json::to_string(&value.to_value());
    line.push('\n');
    out.write_all(line.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| RunError(format!("socket write failed: {e}")))
}

/// The longest request line the daemon reads, newline excluded. A real
/// request is a few hundred bytes (a `Submit` carries one `RunConfig`);
/// the bound keeps one endless line from exhausting the daemon's memory.
/// Responses have no such bound: a [`Response::JobList`] grows with the
/// spool.
pub const MAX_REQUEST_BYTES: u64 = 64 * 1024;

/// Read one protocol value from a JSON line. Returns `None` on a clean
/// EOF (peer hung up between messages).
///
/// # Errors
///
/// Socket I/O failures and lines that do not parse as a `T`.
pub fn read_line<T: Deserialize>(input: &mut dyn BufRead) -> Result<Option<T>, RunError> {
    read_line_within(input, u64::MAX)
}

/// Read one [`Request`] line, refusing one longer than
/// [`MAX_REQUEST_BYTES`] after buffering at most one byte past the bound.
///
/// # Errors
///
/// As [`read_line`], plus an oversized line.
pub fn read_request(input: &mut dyn BufRead) -> Result<Option<Request>, RunError> {
    read_line_within(input, MAX_REQUEST_BYTES)
}

fn read_line_within<T: Deserialize>(
    input: &mut dyn BufRead,
    limit: u64,
) -> Result<Option<T>, RunError> {
    let mut line = Vec::new();
    let n = input
        .take(limit.saturating_add(1))
        .read_until(b'\n', &mut line)
        .map_err(|e| RunError(format!("socket read failed: {e}")))?;
    if n == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') && n as u64 > limit {
        return Err(RunError(format!("protocol line longer than {limit} bytes")));
    }
    let line = std::str::from_utf8(&line)
        .map_err(|_| RunError("bad protocol line: invalid UTF-8".into()))?;
    let value = serde::json::from_str(line.trim_end())
        .map_err(|e| RunError(format!("bad protocol line: {e}")))?;
    T::from_value(&value).map(Some).map_err(|e| RunError(format!("bad protocol message: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_responses_roundtrip_the_wire() {
        let mut wire = Vec::new();
        let reqs = vec![
            Request::Submit { config: RunConfig::default() },
            Request::Jobs,
            Request::Cancel { job: 7 },
            Request::Watch { job: 7 },
            Request::Shutdown,
        ];
        for r in &reqs {
            write_line(&mut wire, r).unwrap();
        }
        let mut reader = std::io::BufReader::new(wire.as_slice());
        for want in &reqs {
            let got: Request = read_line(&mut reader).unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert_eq!(read_line::<Request>(&mut reader).unwrap(), None);

        let resp = Response::JobList {
            jobs: vec![JobInfo {
                job: 1,
                state: JobState::Running,
                cycle: 42,
                algo: "x".into(),
                n: 1024,
                p: 64,
            }],
        };
        let mut wire = Vec::new();
        write_line(&mut wire, &resp).unwrap();
        let got: Response =
            read_line(&mut std::io::BufReader::new(wire.as_slice())).unwrap().unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn request_lines_are_bounded() {
        // A valid request padded with spaces to exactly the bound is read;
        // one byte more is refused without being parsed.
        let request = r#"{"Cancel":{"job":7}}"#;
        let padded = |len: usize| format!("{request}{}\n", " ".repeat(len - request.len()));
        let at_bound = padded(MAX_REQUEST_BYTES as usize);
        let got = read_request(&mut std::io::BufReader::new(at_bound.as_bytes())).unwrap();
        assert_eq!(got, Some(Request::Cancel { job: 7 }));
        let over = padded(MAX_REQUEST_BYTES as usize + 1);
        let err = read_request(&mut std::io::BufReader::new(over.as_bytes())).unwrap_err();
        assert_eq!(err.0, format!("protocol line longer than {MAX_REQUEST_BYTES} bytes"));
        // Responses are read whole however long they grow.
        let jobs = (0..4096)
            .map(|job| JobInfo {
                job,
                state: JobState::Completed,
                cycle: job,
                algo: "x".into(),
                n: 1024,
                p: 64,
            })
            .collect();
        let resp = Response::JobList { jobs };
        let mut wire = Vec::new();
        write_line(&mut wire, &resp).unwrap();
        assert!(wire.len() as u64 > MAX_REQUEST_BYTES);
        let got: Response =
            read_line(&mut std::io::BufReader::new(wire.as_slice())).unwrap().unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn garbage_lines_are_decorated_errors() {
        let mut reader = std::io::BufReader::new(&b"{oops\n"[..]);
        let err = read_line::<Request>(&mut reader).unwrap_err();
        assert!(err.0.contains("bad protocol line"), "{err}");
        let mut reader = std::io::BufReader::new(&b"{\"NoSuchVariant\":{}}\n"[..]);
        let err = read_line::<Request>(&mut reader).unwrap_err();
        assert!(err.0.contains("bad protocol message"), "{err}");
        let deep = format!("{}\n", "[".repeat(MAX_REQUEST_BYTES as usize));
        let err = read_request(&mut std::io::BufReader::new(deep.as_bytes())).unwrap_err();
        assert!(err.0.starts_with("bad protocol line: nesting deeper than"), "{err}");
    }
}
