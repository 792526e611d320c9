//! Exit-code table certification against the real `rfsp` binary.
//!
//! The in-process table (`run_cli` unit tests) covers codes 0/1/2; this
//! suite adds the one that needs genuine signal delivery: a SIGINT'd
//! long run must exit 3 **after** writing a resumable checkpoint, and the
//! resume must then run to completion with exit 0.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_rfsp");

fn code(args: &[&str]) -> i32 {
    let out = Command::new(BIN)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .expect("spawn rfsp");
    out.status.code().expect("no exit code")
}

#[test]
fn codes_zero_one_and_two_against_the_binary() {
    assert_eq!(code(&["help"]), 0);
    assert_eq!(code(&["writeall", "--n", "32", "--p", "8"]), 0);
    // Usage errors: unknown command, stray positional, and an option the
    // command does not take (another command's, a typo, a removed one).
    assert_eq!(code(&["bogus"]), 2);
    assert_eq!(code(&["writeall", "stray"]), 2);
    assert_eq!(code(&["trace", "--n", "64", "--p", "4", "--threads", "2", "--bogus-flag", "7"]), 2);
    assert_eq!(code(&["writeall", "--n", "64", "--p", "4", "--thread", "2"]), 2);
    assert_eq!(code(&["writeall", "--n", "64", "--p", "4", "--batch-width", "1"]), 2);
    // The daemon keeps a job's checkpoint and events in its spool, so
    // `submit` refuses both paths before it opens the socket.
    assert_eq!(code(&["submit", "--socket", "/no/such.sock", "--checkpoint", "ck.json"]), 2);
    assert_eq!(code(&["submit", "--socket", "/no/such.sock", "--events", "ev.jsonl"]), 2);
    // Runtime errors: known command that fails while running.
    assert_eq!(code(&["writeall", "--algo", "zzz"]), 1);
    assert_eq!(code(&["experiment", "--resume", "/no/such/ck.json"]), 1);
    // Zero sizes are refused with a message, not a panic (exit 101).
    for size in ["--n", "--p"] {
        assert_eq!(code(&["writeall", size, "0"]), 1, "writeall {size} 0");
        assert_eq!(code(&["experiment", "--run", "writeall", size, "0"]), 1, "experiment {size} 0");
    }
    // So are sizes just past the caps (2^28 cells, 2^20 processors),
    // before anything is allocated: not an allocation abort (exit 134).
    let (n, p) = ("268435457", "1048577");
    for cmd in ["writeall", "trace"] {
        assert_eq!(code(&[cmd, "--n", n, "--p", "4"]), 1, "{cmd} --n {n}");
        assert_eq!(code(&[cmd, "--n", "64", "--p", p]), 1, "{cmd} --p {p}");
    }
    assert_eq!(code(&["writeall", "--n", "4294967296", "--p", "4"]), 1);
    assert_eq!(code(&["lockfree", "--n", n]), 1);
    assert_eq!(code(&["simulate", "--kernel", "sum", "--n", "16", "--p", p]), 1);
    assert_eq!(code(&["experiment", "--run", "writeall", "--n", "64", "--p", p]), 1);
    // And simulated kernels past the simulation's packing limits (65534
    // cells, 32766 steps) or a kernel's own size: not a panic (exit 101).
    assert_eq!(code(&["simulate", "--kernel", "prefix", "--n", "65535"]), 1);
    assert_eq!(code(&["simulate", "--kernel", "sort", "--n", "32766"]), 1);
    assert_eq!(code(&["simulate", "--kernel", "components", "--n", "4097"]), 1);
    // So are fault rates that are not probabilities, NaN included.
    for rate in ["5", "1.5", "nan"] {
        for adversary in ["random", "offline"] {
            let argv = ["writeall", "--n", "64", "--p", "4", "--adversary", adversary];
            assert_eq!(code(&[&argv[..], &["--rate", rate]].concat()), 1, "{adversary} {rate}");
        }
        let argv = ["experiment", "--run", "writeall", "--adversary", "random", "--rate", rate];
        assert_eq!(code(&argv), 1, "experiment --rate {rate}");
        assert_eq!(code(&["simulate", "--kernel", "sum", "--n", "16", "--rate", rate]), 1);
    }
    // And thread counts outside 1..=256: each is an OS thread spawned.
    assert_eq!(code(&["lockfree", "--threads", "0"]), 1);
    assert_eq!(code(&["writeall", "--n", "64", "--p", "4", "--threads", "257"]), 1);
    assert_eq!(code(&["experiment", "--run", "writeall", "--threads", "257"]), 1);
}

#[cfg(unix)]
#[test]
fn sigint_exits_three_with_a_resumable_checkpoint() {
    let dir = std::env::temp_dir().join(format!("rfsp-exit3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.json");
    let ck_s = ck.to_str().unwrap();

    // Sized so the run is still thousands of ticks from completion when
    // the first checkpoint lands (the kill window), without drowning the
    // test in checkpoint serialization time.
    let mut child = Command::new(BIN)
        .args([
            "experiment",
            "--run",
            "writeall",
            "--algo",
            "x",
            "--n",
            "1024",
            "--p",
            "8",
            "--adversary",
            "random",
            "--rate",
            "0.1",
            "--restart-rate",
            "0.5",
            "--seed",
            "9",
            "--every",
            "50",
            "--checkpoint",
            ck_s,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn long run");

    // Wait for the first checkpoint so the interrupt provably lands on a
    // run that has state to save.
    let start = Instant::now();
    while !Path::new(ck_s).exists() {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("run finished before it could be interrupted: {status}");
        }
        assert!(start.elapsed() < Duration::from_secs(60), "no checkpoint appeared");
        // Tight poll: in release builds the whole run is fast, so the
        // interrupt must land promptly after the first checkpoint.
        std::thread::sleep(Duration::from_millis(2));
    }
    let killed =
        Command::new("kill").args(["-INT", &child.id().to_string()]).status().expect("send SIGINT");
    assert!(killed.success(), "kill -INT failed");
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(3), "interrupted-with-checkpoint must exit 3");

    // The checkpoint it left behind resumes to completion (exit 0).
    assert_eq!(code(&["experiment", "--resume", ck_s]), 0);

    let _ = std::fs::remove_dir_all(&dir);
}
