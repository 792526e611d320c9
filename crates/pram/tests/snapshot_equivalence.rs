//! Differential property test for the snapshot engine rewrite.
//!
//! `SnapshotMachine` was rewritten around reused buffers, in-place private
//! states, and the incremental unvisited index; the pre-rewrite engine is
//! preserved verbatim as `reference::ReferenceSnapshotMachine`. Replaying
//! arbitrary *legal* fault schedules through both and demanding identical
//! stats, failure patterns, per-processor counts, and final memory pins the
//! rewrite to the old semantics — including the subtle cases (a processor
//! failed after its last write completes its cycle; one stopped at zero
//! committed writes does not) and, because the test runs with debug
//! assertions, cross-checks the index against the full scan on every tick.

use proptest::prelude::*;
use rfsp_pram::snapshot::reference::ReferenceSnapshotMachine;
use rfsp_pram::snapshot::{SnapshotMachine, SnapshotProgram, SnapshotView};
use rfsp_pram::{
    CompletionHint, FailPoint, FailureEvent, FailureKind, FailurePattern, LayoutBuilder,
    NoopObserver, Pid, Region, RunLimits, ScheduledAdversary, SharedMemory, Step, Word, WriteSet,
};

/// Snapshot Write-All with an irregular (but deterministic) assignment
/// rule: processor `pid` takes the `pid mod U`-th unvisited cell. Written
/// against the [`SnapshotView`] helpers so the same program runs indexed on
/// the new machine and by full scan on the reference.
struct SnapWriteAll {
    x: Region,
    /// Opt into completion hints (and thus the unvisited index) or force
    /// the untracked full-scan path of the new machine.
    hinted: bool,
}

impl SnapshotProgram for SnapWriteAll {
    type Private = ();
    fn shared_size(&self) -> usize {
        self.x.base() + self.x.len()
    }
    fn on_start(&self, _pid: Pid) {}
    fn execute(
        &self,
        pid: Pid,
        _st: &mut (),
        view: &SnapshotView<'_>,
        writes: &mut WriteSet,
    ) -> Step {
        let u = view.unvisited_count_in(self.x);
        if u == 0 {
            return Step::Halt;
        }
        writes.push(view.nth_unvisited_in(self.x, pid.0 % u).expect("k < u"), 1);
        Step::Continue
    }
    fn is_complete(&self, mem: &SharedMemory) -> bool {
        (0..self.x.len()).all(|i| mem.peek(self.x.at(i)) == 1)
    }
    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        if !self.hinted || !self.x.contains(addr) {
            return CompletionHint::Untracked;
        }
        if value == 1 {
            CompletionHint::Satisfied
        } else {
            CompletionHint::Outstanding
        }
    }
}

/// Build a *legal* pre-committed fault schedule from raw fuzz input (same
/// construction as `properties.rs`): alternating fails/restarts respecting
/// per-processor liveness, processor 0 immune, everyone revived at the end.
/// Snapshot processors can cover any cell, but full healing keeps the
/// generator shared with the word-model tests.
fn legal_schedule(p: usize, raw: Vec<(usize, bool, u8)>) -> FailurePattern {
    let mut alive = vec![true; p];
    let mut pattern = FailurePattern::new();
    let raw_len = raw.len();
    for (t, (pid_raw, restart, point_raw)) in raw.into_iter().enumerate() {
        let pid = pid_raw % p;
        if pid == 0 {
            continue; // keep processor 0 immune for liveness
        }
        if alive[pid] && !restart {
            alive[pid] = false;
            // Exercise both fail points that are legal regardless of the
            // victim's pending write count (AfterWrite(1) may be illegal
            // when the cycle writes nothing, so the generator avoids it).
            let point =
                if point_raw % 2 == 0 { FailPoint::BeforeWrites } else { FailPoint::BeforeReads };
            pattern.push(FailureEvent {
                kind: FailureKind::Failure { point },
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

    /// The rewritten `SnapshotMachine` is observationally identical to the
    /// preserved old engine on every legal fault schedule, with and without
    /// the unvisited index.
    #[test]
    fn new_engine_matches_reference(
        p in 1usize..16,
        n in 1usize..48,
        hinted in any::<bool>(),
        raw in proptest::collection::vec((1usize..16, any::<bool>(), any::<u8>()), 0..48),
    ) {
        let pattern = legal_schedule(p, raw);
        let limits = RunLimits { max_cycles: 1_000_000 };
        let mut layout = LayoutBuilder::new();
        let x = layout.alloc(n);
        let prog = SnapWriteAll { x, hinted };

        let mut reference = ReferenceSnapshotMachine::new(&prog, p, 1).unwrap();
        let old = reference
            .run_with_limits(&mut ScheduledAdversary::new(pattern.clone()), limits)
            .unwrap();

        let mut machine = SnapshotMachine::new(&prog, p, 1).unwrap();
        let new = machine
            .run_observed(&mut ScheduledAdversary::new(pattern), limits, &mut NoopObserver)
            .unwrap();

        prop_assert_eq!(old.outcome, new.outcome);
        prop_assert_eq!(old.stats, new.stats);
        prop_assert_eq!(old.pattern.events(), new.pattern.events());
        prop_assert_eq!(old.per_processor, new.per_processor);
        prop_assert_eq!(reference.memory().as_slice(), machine.memory().as_slice());
        prop_assert_eq!(reference.memory().write_count(), machine.memory().write_count());
        prop_assert_eq!(reference.memory().read_count(), 0);
        prop_assert_eq!(machine.memory().read_count(), 0);
    }
}
