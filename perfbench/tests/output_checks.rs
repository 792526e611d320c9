//! The `serve_jobs` output checks: a watched stream must be the tail of
//! the job's spool `events.jsonl`, ending at `Completed`, and the done
//! marker must say the job completed.

use std::path::PathBuf;

use rfsp_perfbench::daemon::{self, fnv1a, JobRecord, FNV_BASIS};

const EVENTS: &str = "{\"TickStart\":{\"cycle\":0}}\n\
                      {\"CycleCompleted\":{\"cycle\":0,\"pid\":0}}\n\
                      {\"TickStart\":{\"cycle\":1}}\n\
                      {\"Completed\":{\"cycle\":1}}\n";

fn spool(name: &str, done_state: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let dir = root.join("job-000007");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("events.jsonl"), EVENTS).unwrap();
    let done = format!(
        "{{\"state\": \"{done_state}\", \"detail\": \"S=5 tau=2 checkpoints=1 restores=0\"}}"
    );
    std::fs::write(dir.join("done.json"), done).unwrap();
    root
}

/// What a watcher that joined `skip` events late would have recorded.
fn watched(skip: usize) -> JobRecord {
    let lines: Vec<&str> = EVENTS.lines().skip(skip).collect();
    JobRecord {
        index: 0,
        job: 7,
        sent: 0,
        acked: 1,
        first_event: Some(2),
        eof: 3,
        watch_bytes: 0,
        events: lines.len() as u64,
        digest: lines.iter().fold(FNV_BASIS, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n")),
        last_event: lines.last().map_or_else(String::new, |l| (*l).to_string()),
    }
}

#[test]
fn a_late_watcher_sees_the_tail_of_the_spool_stream() {
    let root = spool("checks-ok", "completed");
    for skip in 0..4 {
        let outcome = daemon::verify_job(&root, &watched(skip)).expect("tail matches");
        assert_eq!((outcome.s, outcome.tau, outcome.checkpoints), (5, 2, 1));
        assert_eq!(outcome.events_bytes, EVENTS.len() as u64);
    }
}

#[test]
fn mismatches_fail_the_check() {
    let root = spool("checks-bad", "completed");
    // Nothing watched.
    assert!(daemon::verify_job(&root, &watched(4)).is_err());
    // A stream that differs from the spool's tail.
    let mut rec = watched(1);
    rec.digest ^= 1;
    assert!(daemon::verify_job(&root, &rec).unwrap_err().contains("differ"));
    // A stream that does not end at Completed.
    let mut rec = watched(1);
    rec.last_event = "{\"TickStart\":{\"cycle\":1}}".into();
    assert!(daemon::verify_job(&root, &rec).unwrap_err().contains("not Completed"));
    // A job whose done marker is not `completed`.
    let root = spool("checks-failed", "failed");
    assert!(daemon::verify_job(&root, &watched(0)).unwrap_err().contains("ended failed"));
}
