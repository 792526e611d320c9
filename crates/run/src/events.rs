//! The events-JSONL sink with offset-truncate resume.
//!
//! Every machine event is rendered as one JSON line. The log tracks the
//! byte offset of everything *flushed* — the only prefix a checkpoint may
//! safely reference — and a resumed run truncates the file back to the
//! checkpointed offset before continuing, so the final stream is
//! byte-identical to an uninterrupted run's.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Seek, SeekFrom, Write};

use rfsp_pram::{Observer, TraceEvent};

use crate::{io_err, RunError};

/// How many tick boundaries a discarded event tail described — the ticks
/// a rewound run is about to re-execute.
pub fn count_tick_starts(bytes: &[u8]) -> u64 {
    const NEEDLE: &[u8] = b"\"TickStart\"";
    bytes.windows(NEEDLE.len()).filter(|w| *w == NEEDLE).count() as u64
}

/// Streams events as JSONL, tracking the flushed byte offset.
struct EventWriter {
    path: String,
    out: BufWriter<File>,
    /// The line being encoded, reused for every event.
    line: Vec<u8>,
    bytes: u64,
    err: Option<std::io::Error>,
}

impl EventWriter {
    fn flush(&mut self) -> Result<u64, RunError> {
        if let Err(e) = self.out.flush() {
            self.err.get_or_insert(e);
        }
        match self.err.take() {
            Some(e) => Err(io_err("write events to", &self.path, &e)),
            None => Ok(self.bytes),
        }
    }
}

impl Observer for EventWriter {
    fn event(&mut self, event: TraceEvent) {
        if self.err.is_some() {
            return;
        }
        self.line.clear();
        event.append_json(&mut self.line);
        self.line.push(b'\n');
        if let Err(e) = self.out.write_all(&self.line) {
            self.err = Some(e);
        } else {
            self.bytes += self.line.len() as u64;
        }
    }
}

/// The events sink: a real JSONL writer, or nothing (events discarded).
pub struct EventLog(Option<EventWriter>);

impl EventLog {
    /// Open the sink at `path` (`None` = discard events).
    ///
    /// With `resume_offset`, truncates the file back to that flushed
    /// prefix — everything after it describes ticks the resumed machine
    /// will re-execute — and returns how many tick boundaries the dropped
    /// tail held.
    ///
    /// # Errors
    ///
    /// I/O failures, and a file shorter than the resume offset (the log
    /// was rewritten behind the checkpoint's back).
    pub fn open(path: Option<&str>, resume_offset: Option<u64>) -> Result<(Self, u64), RunError> {
        let Some(path) = path else { return Ok((EventLog(None), 0)) };
        let mut replayed = 0;
        let file = if let Some(offset) = resume_offset {
            let meta = std::fs::metadata(path).map_err(|e| io_err("stat", path, &e))?;
            if meta.len() < offset {
                return Err(RunError(format!(
                    "events file {path} is shorter ({}) than the checkpoint's offset ({offset}) \
                     — was it rewritten since the checkpoint?",
                    meta.len()
                )));
            }
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)
                .map_err(|e| io_err("open", path, &e))?;
            f.seek(SeekFrom::Start(offset)).map_err(|e| io_err("seek", path, &e))?;
            let mut tail = Vec::new();
            f.read_to_end(&mut tail).map_err(|e| io_err("read", path, &e))?;
            replayed = count_tick_starts(&tail);
            f.set_len(offset).map_err(|e| io_err("truncate", path, &e))?;
            f.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", path, &e))?;
            f
        } else {
            File::create(path).map_err(|e| io_err("create", path, &e))?
        };
        let writer = EventWriter {
            path: path.to_string(),
            out: BufWriter::new(file),
            line: Vec::new(),
            bytes: resume_offset.unwrap_or(0),
            err: None,
        };
        Ok((EventLog(Some(writer)), replayed))
    }

    /// Flush and report the stable byte offset (0 when no file).
    ///
    /// # Errors
    ///
    /// Deferred write errors surface here.
    pub fn checkpointable_offset(&mut self) -> Result<u64, RunError> {
        match &mut self.0 {
            Some(w) => w.flush(),
            None => Ok(0),
        }
    }

    /// Flush, force the flushed bytes to stable storage, and report the
    /// offset (0 when no file). Whatever vouches for the events — a
    /// checkpoint recording this offset, a done marker for a finished
    /// run — is published only after this returns, so a power cut cannot
    /// keep the voucher and lose the bytes it points to.
    ///
    /// # Errors
    ///
    /// Deferred write errors, and fsync failures.
    pub fn durable_offset(&mut self) -> Result<u64, RunError> {
        let Some(w) = &mut self.0 else { return Ok(0) };
        let offset = w.flush()?;
        w.out.get_ref().sync_data().map_err(|e| io_err("fsync", &w.path, &e))?;
        Ok(offset)
    }

    /// Drop everything past `offset` — the in-process analogue of the
    /// resume-time truncation, used when a panic in program code rewinds
    /// the run to its last checkpoint (or to the start).
    ///
    /// # Errors
    ///
    /// I/O failures while truncating.
    pub fn rewind_to(&mut self, offset: u64) -> Result<(), RunError> {
        let Some(w) = &mut self.0 else { return Ok(()) };
        w.flush()?;
        let path = w.path.clone();
        let f = w.out.get_mut();
        f.set_len(offset).map_err(|e| io_err("truncate", &path, &e))?;
        f.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", &path, &e))?;
        w.bytes = offset;
        Ok(())
    }
}

impl Observer for EventLog {
    fn event(&mut self, event: TraceEvent) {
        if let Some(w) = &mut self.0 {
            w.event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_tick_starts_in_tails() {
        assert_eq!(count_tick_starts(b""), 0);
        let tail =
            b"{\"TickStart\":{\"cycle\":3}}\n{\"Failure\":{}}\n{\"TickStart\":{\"cycle\":4}}\n{\"torn";
        assert_eq!(count_tick_starts(tail), 2);
    }

    #[test]
    fn resume_truncates_and_counts_the_tail() {
        let dir = std::env::temp_dir().join("rfsp-run-events-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let path_s = path.to_str().unwrap();

        let (mut log, replayed) = EventLog::open(Some(path_s), None).unwrap();
        assert_eq!(replayed, 0);
        log.event(TraceEvent::TickStart { cycle: 0 });
        log.event(TraceEvent::TickStart { cycle: 1 });
        let offset = log.durable_offset().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), offset);
        log.event(TraceEvent::TickStart { cycle: 2 });
        log.checkpointable_offset().unwrap();
        drop(log);

        // Resume at the two-tick offset: the one-tick tail is dropped.
        let (mut log, replayed) = EventLog::open(Some(path_s), Some(offset)).unwrap();
        assert_eq!(replayed, 1);
        assert_eq!(log.checkpointable_offset().unwrap(), offset);
        drop(log);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), offset);

        // A log shorter than the checkpointed offset is refused.
        let Err(err) = EventLog::open(Some(path_s), Some(offset + 999)) else {
            panic!("over-long resume offset accepted")
        };
        assert!(err.0.contains("shorter"), "{err}");

        // No path: a black hole that reports offset 0.
        let (mut log, replayed) = EventLog::open(None, None).unwrap();
        assert_eq!(replayed, 0);
        log.event(TraceEvent::TickStart { cycle: 0 });
        assert_eq!(log.checkpointable_offset().unwrap(), 0);
        assert_eq!(log.durable_offset().unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
