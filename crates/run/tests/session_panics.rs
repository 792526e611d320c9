//! Panic recovery in [`RunSession`]: a panic in program code rewinds the
//! session to its last checkpoint (or restarts it from scratch) and
//! replays, so a one-shot panic leaves no trace in the report or the
//! events file; a panic that recurs at the same tick ends the session with
//! an error instead of replaying forever.

use std::sync::atomic::{AtomicU64, Ordering};

use rfsp_pram::{
    CompletionHint, CycleBudget, Machine, NoopObserver, Pid, Program, ReadSet, RunReport,
    SharedMemory, Step, WastedWork, Word, WriteSet,
};
use rfsp_run::{ExecMode, PauseFlow, RunConfig, RunError, RunSession, SessionEnd};

/// The most panics a [`Trap`] fires, so that a session which never gives
/// up on a deterministic panic still ends (and fails its test) instead of
/// hanging.
const PANIC_CAP: u64 = 10;

/// When processor 0's `execute` panics.
#[derive(Clone, Copy)]
enum Trap {
    /// Never.
    Off,
    /// On its `n`-th call, once.
    Once(u64),
    /// Whenever its private state (cycles completed since its last start)
    /// is `n`: a replay reaches the same panic.
    AtState(u64),
}

/// Each processor adds one to its own cell until the cell holds `target`,
/// counting in its private state the cycles it completed since its last
/// start; processor 0 panics as its [`Trap`] says, before it touches any
/// state.
struct Count {
    n: usize,
    target: Word,
    trap: Trap,
    calls: AtomicU64,
    panics: AtomicU64,
}

impl Count {
    fn new(trap: Trap) -> Count {
        Count { n: 8, target: 40, trap, calls: AtomicU64::new(0), panics: AtomicU64::new(0) }
    }

    fn panics(&self) -> u64 {
        self.panics.load(Ordering::SeqCst)
    }
}

impl Program for Count {
    type Private = u64;
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) -> u64 {
        0
    }
    fn plan(&self, pid: Pid, _st: &u64, values: &[Word], reads: &mut ReadSet) {
        if values.is_empty() {
            reads.push(pid.0);
        }
    }
    fn execute(&self, pid: Pid, st: &mut u64, values: &[Word], writes: &mut WriteSet) -> Step {
        if pid.0 == 0 {
            let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
            let fire = match self.trap {
                Trap::Off => false,
                Trap::Once(n) => call == n,
                Trap::AtState(n) => *st == n,
            };
            if fire && self.panics.fetch_add(1, Ordering::SeqCst) < PANIC_CAP {
                panic!("injected panic in P0 at state {st}");
            }
        }
        if values[0] >= self.target {
            return Step::Halt;
        }
        writes.push(pid.0, values[0] + 1);
        *st += 1;
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.n).all(|i| mem.peek(i) >= self.target)
    }
    fn completion_hint(&self, _addr: usize, value: Word) -> CompletionHint {
        if value >= self.target {
            CompletionHint::Satisfied
        } else {
            CompletionHint::Outstanding
        }
    }
}

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rfsp-run-panics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A run of [`Count`]'s 8-cell instance under `adversary`, checkpointed
/// every 5 ticks into `dir` when `checkpoint` is set, with its events in
/// `dir` too. The session's adversary table only reads the instance size
/// from the config, and `random` and `none` need no program layout.
fn config(dir: &std::path::Path, tag: &str, adversary: &str, checkpoint: bool) -> RunConfig {
    RunConfig {
        n: 8,
        p: 8,
        adversary: adversary.into(),
        rate: 0.05,
        restart_rate: 0.5,
        seed: 29,
        every: 5,
        checkpoint: checkpoint.then(|| dir.join(format!("{tag}-ck.json")).display().to_string()),
        events: Some(dir.join(format!("{tag}.jsonl")).display().to_string()),
        ..RunConfig::default()
    }
}

/// What a session of [`Count`] ended with.
struct Drive {
    report: Result<RunReport, RunError>,
    wasted: WastedWork,
    /// How many panics had fired when the session published its first
    /// checkpoint.
    panics_at_first_checkpoint: Option<u64>,
}

/// Run a session of `prog` under `cfg` to its end, with the default panic
/// hook silenced.
fn drive(cfg: &RunConfig, prog: &Count) -> Drive {
    let build = Box::new(|| Machine::new(prog, cfg.p as usize, CycleBudget::PAPER));
    let mut session = RunSession::new(cfg.clone(), ExecMode::Sequential, build).unwrap();
    let mut panics_at_first_checkpoint = None;
    let mut on_pause = |pause: rfsp_run::PauseInfo<'_>| {
        if pause.checkpointed && panics_at_first_checkpoint.is_none() {
            panics_at_first_checkpoint = Some(prog.panics());
        }
        PauseFlow::Continue
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let end = session.run(&mut |_| false, &mut on_pause, &mut NoopObserver);
    std::panic::set_hook(hook);
    let report = end.map(|end| match end {
        SessionEnd::Completed(report) => report,
        SessionEnd::Stopped { cycle } => panic!("the session stopped at tick {cycle}"),
    });
    Drive { report, wasted: *session.wasted(), panics_at_first_checkpoint }
}

/// A panic that fires once, on P0's `call`-th cycle, is rewound and
/// replayed: the session completes with the report and the events bytes
/// of a session that never panicked. `checkpoint_first` says whether the
/// session published a checkpoint before the panic, so that it rewinds to
/// one instead of restarting from scratch.
fn one_shot_panic_leaves_no_trace(tag: &str, call: u64, checkpoint_first: bool) {
    let dir = test_dir(tag);
    let clean_cfg = config(&dir, "clean", "random", true);
    let clean = drive(&clean_cfg, &Count::new(Trap::Off));
    let clean = clean.report.expect("the clean session completes");

    let cfg = config(&dir, "trapped", "random", true);
    let trapped = Count::new(Trap::Once(call));
    let run = drive(&cfg, &trapped);
    let report = run.report.expect("a one-shot panic is recovered from");
    assert_eq!(trapped.panics(), 1, "the trap fires once");
    assert_eq!(run.wasted.restores, 1);
    let panics_first = u64::from(!checkpoint_first);
    assert_eq!(run.panics_at_first_checkpoint, Some(panics_first), "panic before checkpoint");
    assert_eq!(report.stats, clean.stats);
    assert_eq!(report.pattern, clean.pattern);
    assert_eq!(report.per_processor, clean.per_processor);
    let want = std::fs::read(clean_cfg.events.as_deref().unwrap()).unwrap();
    let got = std::fs::read(cfg.events.as_deref().unwrap()).unwrap();
    assert!(!want.is_empty());
    assert_eq!(want, got, "the recovered session's event stream diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_one_shot_panic_rewinds_to_the_last_checkpoint() {
    // P0's 20th cycle is well past the checkpoint at tick 5.
    one_shot_panic_leaves_no_trace("rewind", 20, true);
}

#[test]
fn a_one_shot_panic_before_the_first_checkpoint_restarts_from_scratch() {
    // P0's 2nd cycle comes before the first checkpoint at tick 5.
    one_shot_panic_leaves_no_trace("scratch", 2, false);
}

/// P0 panics whenever its private state reaches 5, so the replay reaches
/// the same panic at the same tick: the session gives up after exactly
/// one replay, with an error naming the processor and the tick, whether
/// it rewound to a checkpoint or restarted from scratch.
#[test]
fn a_panic_that_recurs_at_the_same_tick_ends_the_session() {
    let dir = test_dir("recur");
    for checkpoint in [true, false] {
        let cfg = config(&dir, &format!("recur-{checkpoint}"), "none", checkpoint);
        let trapped = Count::new(Trap::AtState(5));
        let run = drive(&cfg, &trapped);
        let err = run.report.expect_err("a deterministic panic must end the session");
        assert_eq!(trapped.panics(), 2, "checkpoint {checkpoint}: one replay, then the error");
        assert_eq!(run.wasted.restores, 1, "checkpoint {checkpoint}");
        assert!(err.0.contains("P0") && err.0.contains("tick 5"), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
