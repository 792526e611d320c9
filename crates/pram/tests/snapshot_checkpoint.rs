//! Property test for the snapshot machine's checkpoint/resume guarantee —
//! the snapshot-model mirror of `tests/checkpoint.rs`, exercising the
//! unified core's checkpointing through [`SnapshotMachine`]: a run paused
//! at an arbitrary tick, snapshotted, round-tripped through JSON, and
//! restored into a *freshly built* machine and adversary finishes with the
//! same event stream, stats, failure pattern, per-processor counts, and
//! final memory as the same run left uninterrupted.

use proptest::prelude::*;
use rfsp_pram::snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
use rfsp_pram::{
    Checkpoint, CompletionHint, FailPoint, FailureEvent, FailureKind, FailurePattern, Pid,
    RunControl, RunLimits, RunSpec, RunStatus, ScheduledAdversary, SharedMemory, Step,
    TraceRecorder, Word, WriteSet,
};

/// Indexed snapshot Write-All with *nontrivial private state*: each
/// processor counts the cycles it has executed since its last (re)start and
/// offsets its pick into the unvisited set by that counter. The write thus
/// depends on the private state, so a checkpoint that mangled private state
/// would change the event stream, not just fail quietly.
struct SteppedSnap {
    n: usize,
}

impl SnapshotProgram for SteppedSnap {
    type Private = u64;
    fn shared_size(&self) -> usize {
        self.n
    }
    fn on_start(&self, _pid: Pid) -> u64 {
        0
    }
    fn execute(
        &self,
        pid: Pid,
        st: &mut u64,
        view: &SnapshotView<'_>,
        writes: &mut WriteSet,
    ) -> Step {
        *st += 1;
        let idx = view.unvisited().expect("hinted program gets an index");
        if idx.is_empty() {
            return Step::Halt;
        }
        writes.push(idx.select((pid.0 + *st as usize) % idx.len()), 1);
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.n).all(|i| mem.peek(i) == 1)
    }
    fn completion_hint(&self, _addr: usize, value: Word) -> CompletionHint {
        if value == 1 {
            CompletionHint::Satisfied
        } else {
            CompletionHint::Outstanding
        }
    }
}

/// Build a *legal* pre-committed fault schedule from raw fuzz input (the
/// same construction as `tests/checkpoint.rs`): alternating fails/restarts
/// respecting per-processor liveness, processor 0 immune, everyone revived
/// at the end so the computation can finish.
fn legal_schedule(p: usize, raw: Vec<(usize, bool)>) -> FailurePattern {
    let mut alive = vec![true; p];
    let mut pattern = FailurePattern::new();
    let raw_len = raw.len();
    for (t, (pid_raw, restart)) in raw.into_iter().enumerate() {
        let pid = pid_raw % p;
        if pid == 0 {
            continue; // keep processor 0 immune for liveness
        }
        if alive[pid] && !restart {
            alive[pid] = false;
            pattern.push(FailureEvent {
                kind: FailureKind::Failure { point: FailPoint::BeforeWrites },
                pid,
                time: t as u64,
            });
        } else if !alive[pid] && restart {
            alive[pid] = true;
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: t as u64 + 1 });
        }
    }
    let heal_time = raw_len as u64 + 2;
    for (pid, &is_alive) in alive.iter().enumerate() {
        if !is_alive {
            pattern.push(FailureEvent { kind: FailureKind::Restart, pid, time: heal_time });
        }
    }
    pattern
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Pause anywhere, checkpoint through JSON, restore into fresh machine
    /// + adversary, finish: the concatenated trace and every observable are
    /// identical to the uninterrupted snapshot-model run.
    #[test]
    fn interrupted_snapshot_run_is_bit_identical(
        p in 1usize..10,
        n in 1usize..24,
        pause_at in 0u64..32,
        raw in proptest::collection::vec((1usize..10, any::<bool>()), 0..40),
    ) {
        let pattern = legal_schedule(p, raw);
        let limits = RunLimits { max_cycles: 1_000_000 };
        let prog = SteppedSnap { n };

        // Uninterrupted reference run.
        let mut straight = SnapshotMachine::new(&prog, p, 1).unwrap();
        let mut trace_s = TraceRecorder::unbounded();
        let report_s = straight
            .run_observed(&mut ScheduledAdversary::new(pattern.clone()), limits, &mut trace_s)
            .unwrap();

        // Interrupted run: pause at the fuzzed tick (if the run lives that
        // long), snapshot, JSON round-trip, restore into a FRESH machine
        // and a FRESH adversary rebuilt from the same schedule — exactly
        // what a resuming process does — then run to completion.
        let mut first = SnapshotMachine::new(&prog, p, 1).unwrap();
        let mut adv1 = ScheduledAdversary::new(pattern.clone());
        let mut trace_a = TraceRecorder::unbounded();
        let status = first
            .run_with(RunSpec { limits, ..RunSpec::default() }, &mut adv1, &mut trace_a, |c| {
                if c >= pause_at { RunControl::Pause } else { RunControl::Continue }
            })
            .unwrap();

        let (report_r, trace_b, mem_r) = match status {
            RunStatus::Completed(report) => {
                // Finished before the pause tick: the interrupted path
                // degenerates to a plain run.
                let mem = first.memory().as_slice().to_vec();
                (report, TraceRecorder::unbounded(), mem)
            }
            RunStatus::Paused { cycle } => {
                prop_assert!(cycle >= pause_at);
                let ck = first.save_checkpoint(&adv1).unwrap();
                let ck = Checkpoint::from_json(&ck.to_json()).unwrap();
                prop_assert_eq!(&ck.model, "snapshot");
                let mut second = SnapshotMachine::new(&prog, p, 1).unwrap();
                let mut adv2 = ScheduledAdversary::new(pattern.clone());
                second.restore_checkpoint(&ck, &mut adv2).unwrap();
                let mut trace_b = TraceRecorder::unbounded();
                let report = second.run_observed(&mut adv2, limits, &mut trace_b).unwrap();
                let mem = second.memory().as_slice().to_vec();
                (report, trace_b, mem)
            }
        };

        prop_assert_eq!(report_s.outcome, report_r.outcome);
        prop_assert_eq!(report_s.stats, report_r.stats);
        prop_assert_eq!(report_s.pattern.events(), report_r.pattern.events());
        prop_assert_eq!(report_s.per_processor, report_r.per_processor);
        prop_assert_eq!(straight.memory().as_slice(), &mem_r[..]);
        // The interrupted run's two trace halves concatenate to exactly the
        // uninterrupted stream.
        let stitched = format!("{}{}", trace_a.to_jsonl(), trace_b.to_jsonl());
        prop_assert_eq!(trace_s.to_jsonl(), stitched);
    }
}

/// A word-model checkpoint must not restore into a snapshot machine (and
/// the error names both models).
#[test]
fn cross_model_restore_is_refused() {
    use rfsp_pram::{CycleBudget, Machine, NoFailures, PramError, Program, ReadSet};

    struct Tiny;
    impl Program for Tiny {
        type Private = u64;
        fn shared_size(&self) -> usize {
            1
        }
        fn on_start(&self, _pid: Pid) -> u64 {
            0
        }
        fn plan(&self, _pid: Pid, _st: &u64, _vals: &[Word], _reads: &mut ReadSet) {}
        fn execute(&self, _pid: Pid, _st: &mut u64, _v: &[Word], writes: &mut WriteSet) -> Step {
            writes.push(0, 1);
            Step::Halt
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            mem.peek(0) == 1
        }
    }

    let word_prog = Tiny;
    let m = Machine::new(&word_prog, 1, CycleBudget { reads: 0, writes: 1 }).unwrap();
    let ck = m.save_checkpoint(&NoFailures).unwrap();
    assert_eq!(ck.model, "word");

    let snap_prog = SteppedSnap { n: 1 };
    let mut s = SnapshotMachine::new(&snap_prog, 1, 1).unwrap();
    let err = s.restore_checkpoint(&ck, &mut NoFailures).unwrap_err();
    assert!(
        matches!(&err, PramError::Checkpoint { detail }
            if detail.contains("word") && detail.contains("snapshot")),
        "{err:?}"
    );
}
