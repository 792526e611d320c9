//! End-to-end certification of the session layer, independent of the CLI:
//! a killed-and-resumed [`RunSession`] must produce a byte-identical event
//! stream to an uninterrupted one, so must a session stopped at every pause
//! and run again in the same process, and [`run_with_cut`] must agree with
//! a straight run.

use rfsp_adversary::RandomFaults;
use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
use rfsp_pram::{CycleBudget, LayoutBuilder, Machine, NoopObserver, PolicyKind, RunLimits};
use rfsp_run::{
    run_with_cut, ExecMode, PauseFlow, RunConfig, RunSession, SessionCheckpoint, SessionEnd,
};

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rfsp-run-session-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &std::path::Path, tag: &str) -> RunConfig {
    RunConfig {
        algo: "x".into(),
        n: 64,
        p: 8,
        adversary: "random".into(),
        rate: 0.2,
        restart_rate: 0.6,
        seed: 11,
        every: 5,
        checkpoint: Some(dir.join(format!("{tag}-ck.json")).display().to_string()),
        events: Some(dir.join(format!("{tag}.jsonl")).display().to_string()),
        ..RunConfig::default()
    }
}

/// Run a full session over algorithm X with the given config; `kill_at`
/// stops it at the first pause at or after that tick (externally, so a
/// checkpoint is forced). Returns whether it completed.
fn drive(cfg: &RunConfig, kill_at: Option<u64>, resume: bool) -> bool {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, cfg.n as usize);
    let prog = AlgoX::new(&mut layout, tasks, cfg.p as usize, XOptions::default());
    let build = Box::new(|| Machine::new(&prog, cfg.p as usize, CycleBudget::PAPER));

    let mut session = if resume {
        let ck = SessionCheckpoint::load(cfg.checkpoint.as_deref().unwrap()).unwrap();
        RunSession::resume(ck, ExecMode::Sequential, build).unwrap()
    } else {
        RunSession::new(cfg.clone(), ExecMode::Sequential, build).unwrap()
    };

    let end = session
        .run(
            &mut |cycle| kill_at.is_some_and(|k| cycle >= k),
            &mut |pause| if pause.external { PauseFlow::Stop } else { PauseFlow::Continue },
            &mut NoopObserver,
        )
        .unwrap();
    match end {
        SessionEnd::Completed(_) => {
            assert!(tasks.all_written(session.memory()), "postcondition violated");
            true
        }
        SessionEnd::Stopped { cycle } => {
            assert!(kill_at.is_some_and(|k| cycle >= k));
            false
        }
    }
}

#[test]
fn killed_session_resumes_to_byte_identical_events() {
    let dir = test_dir("resume");

    let base = config(&dir, "base");
    assert!(drive(&base, None, false), "baseline must complete");

    let cut = config(&dir, "cut");
    assert!(!drive(&cut, Some(7), false), "killed run must stop");
    assert!(drive(&cut, None, true), "resumed run must complete");

    let want = std::fs::read(base.events.as_deref().unwrap()).unwrap();
    let got = std::fs::read(cut.events.as_deref().unwrap()).unwrap();
    assert!(!want.is_empty());
    assert_eq!(want, got, "resumed event stream diverged from the uninterrupted run");

    let dropped = test_dir("resume"); // second killed run against a fresh dir
    let cut2 = config(&dropped, "cut");
    assert!(!drive(&cut2, Some(7), false));
    // Resume carries the wasted-work ledger forward: the checkpoint on
    // disk already records at least one checkpoint written.
    let ck = SessionCheckpoint::load(cut2.checkpoint.as_deref().unwrap()).unwrap();
    assert!(ck.wasted.checkpoints >= 1);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dropped);
}

#[test]
fn a_session_stopped_at_every_pause_goes_on_when_run_again() {
    // The daemon ends a segment at every pause and calls `run` again once
    // it holds the turn; that must be the same run as one that continues.
    let dir = test_dir("rerun");
    let base = config(&dir, "base");
    assert!(drive(&base, None, false), "baseline must complete");

    let cfg = config(&dir, "rerun");
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, cfg.n as usize);
    let prog = AlgoX::new(&mut layout, tasks, cfg.p as usize, XOptions::default());
    let build = Box::new(|| Machine::new(&prog, cfg.p as usize, CycleBudget::PAPER));
    let mut session = RunSession::new(cfg.clone(), ExecMode::Sequential, build).unwrap();
    let mut stops = 0;
    while let SessionEnd::Stopped { .. } =
        session.run(&mut |_| false, &mut |_| PauseFlow::Stop, &mut NoopObserver).unwrap()
    {
        stops += 1;
    }
    assert!(stops > 1, "the checkpoint cadence must pause the run more than once");
    assert!(tasks.all_written(session.memory()), "postcondition violated");

    let want = std::fs::read(base.events.as_deref().unwrap()).unwrap();
    let got = std::fs::read(cfg.events.as_deref().unwrap()).unwrap();
    assert_eq!(want, got, "a re-run session's event stream diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_with_cut_matches_a_straight_run() {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, 64);
    let prog = AlgoX::new(&mut layout, tasks, 8, XOptions::default());
    let limits = RunLimits::default();

    let mut straight = Machine::new(&prog, 8, CycleBudget::PAPER).unwrap();
    let straight_report = straight
        .run_observed(&mut RandomFaults::new(0.2, 0.6, 11), limits, &mut NoopObserver)
        .unwrap();

    let outcome = run_with_cut(
        || Machine::new(&prog, 8, CycleBudget::PAPER),
        || Box::new(RandomFaults::new(0.2, 0.6, 11)),
        limits,
        6,
        None,
    )
    .unwrap();
    assert!(outcome.policy_states.is_none());
    assert_eq!(outcome.report.stats, straight_report.stats);
    assert!(tasks.all_written(outcome.machine.memory()));

    // With an adaptive policy riding the checkpoint, the resumed engine's
    // final state must be bit-identical to the uninterrupted reference's.
    let outcome = run_with_cut(
        || Machine::new(&prog, 8, CycleBudget::PAPER),
        || Box::new(RandomFaults::new(0.2, 0.6, 11)),
        limits,
        6,
        Some(PolicyKind::Adaptive),
    )
    .unwrap();
    let (reference, resumed) = outcome.policy_states.expect("cut must happen before completion");
    assert_eq!(reference, resumed, "policy engine diverged across the cut");
}
