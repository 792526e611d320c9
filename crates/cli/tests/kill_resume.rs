//! End-to-end crash test for the crash-safe runner: SIGKILL the real
//! `rfsp` binary mid-run, resume from its checkpoint file, and verify the
//! final event stream is byte-identical to an uninterrupted run.
//!
//! This is the one test that exercises the whole chain through a real
//! process boundary — atomic checkpoint rename, events-file truncation on
//! resume, adversary cursor rehydration, policy-engine state rehydration —
//! with an actual hard kill rather than an in-process simulation.

use std::process::Command;
use std::time::{Duration, Instant};

fn rfsp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rfsp"))
}

/// Run `common` once for a baseline, once with checkpointing (`policy`)
/// SIGKILLed as soon as the first checkpoint lands, then `--resume`; the
/// final event stream must be byte-identical to the baseline.
fn kill_resume_case(tag: &str, common: &[&str], policy: &[&str]) {
    let dir = std::env::temp_dir().join(format!("rfsp-kill-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.jsonl");
    let events = dir.join("killed.jsonl");
    let ckpt = dir.join("ck.json");

    // Uninterrupted baseline.
    let st = rfsp().args(common).arg("--events").arg(&base).status().unwrap();
    assert!(st.success(), "baseline run failed");

    // Same configuration with checkpoints; SIGKILL the process as soon as
    // the first checkpoint lands on disk.
    let mut child = rfsp()
        .args(common)
        .arg("--events")
        .arg(&events)
        .arg("--checkpoint")
        .arg(&ckpt)
        .args(policy)
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut killed = false;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            // The run outraced us — it must at least have succeeded, and
            // the determinism comparison below still applies.
            assert!(status.success(), "checkpointed run failed outright");
            break;
        }
        if ckpt.exists() {
            child.kill().unwrap();
            child.wait().unwrap();
            killed = true;
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint appeared within 60s");
        std::thread::sleep(Duration::from_millis(1));
    }

    if killed {
        // The checkpoint carries the full config: `--resume` alone must
        // truncate the torn events tail and regenerate it exactly.
        let out = rfsp().args(["experiment", "--resume"]).arg(&ckpt).output().unwrap();
        assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    }

    eprintln!("[{tag}] kill landed mid-run: {killed}");
    let baseline = std::fs::read(&base).unwrap();
    let after = std::fs::read(&events).unwrap();
    assert!(!baseline.is_empty());
    assert_eq!(
        baseline, after,
        "events after kill+resume differ from the uninterrupted run \
         (tag = {tag}, killed = {killed})"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sigkill_mid_run_then_resume_reproduces_the_baseline() {
    kill_resume_case(
        "fixed",
        &[
            "experiment",
            "--run",
            "writeall",
            "--algo",
            "x",
            "--n",
            "1024",
            "--p",
            "4",
            "--adversary",
            "random",
            "--rate",
            "0.05",
            "--restart-rate",
            "0.5",
            "--seed",
            "1991",
        ],
        &["--every", "25"],
    );
}

#[test]
fn sigkill_adaptive_policy_run_then_resume_reproduces_the_baseline() {
    // The adaptive engine's first checkpoint lands around tick ~128
    // (geometric mean of the clamp range), so the instance must stay
    // busy well past that: a bursty adversary at a high rate keeps the
    // Write-All run alive for hundreds of ticks.
    kill_resume_case(
        "adaptive",
        &[
            "experiment",
            "--run",
            "writeall",
            "--algo",
            "x",
            "--n",
            "4096",
            "--p",
            "8",
            "--adversary",
            "bursty",
            "--rate",
            "0.7",
            "--restart-rate",
            "0.5",
            "--seed",
            "23",
        ],
        &["--policy", "adaptive"],
    );
}

/// Runs the long-run mode with `adversary` on the X-based instance `n`,
/// `p`, checkpointing every 25 ticks, through [`kill_resume_case`].
fn kill_resume_kind(adversary: &str, n: &str, p: &str) {
    let common = [
        "experiment",
        "--run",
        "writeall",
        "--algo",
        "x",
        "--n",
        n,
        "--p",
        p,
        "--adversary",
        adversary,
    ];
    kill_resume_case(adversary, &common, &["--every", "25"]);
}

#[test]
fn sigkill_x_killer_run_then_resume_reproduces_the_baseline() {
    // Theorem 4.8's adversary at P = N: thousands of ticks, so the kill
    // lands long before the run ends.
    kill_resume_kind("xkiller", "512", "512");
}

#[test]
fn sigkill_pigeonhole_run_then_resume_reproduces_the_baseline() {
    // Theorem 3.1's adversary reads memory every tick and keeps no state
    // between ticks: its checkpoint is empty, and the resumed run must
    // still fail the same processors.
    kill_resume_kind("pigeonhole", "8192", "512");
}
