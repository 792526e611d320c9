//! Shared adversary-decision validation for both machine models.
//!
//! The word-model [`Machine`](crate::Machine) and the
//! [`SnapshotMachine`](crate::SnapshotMachine) accept the same kinds of
//! adversary decisions and must reject the same illegal ones: failing a
//! processor that does not exist or is already stopped, restarting a live
//! processor, placing a fail point after more writes than the cycle has,
//! and schedules that violate the paper's progress condition (§2.1 2(i):
//! every tick with activity must complete at least one update cycle). This
//! module holds that validation once; [`Core::apply`](crate::exec::Core)
//! calls [`resolve`] to turn a [`Decisions`] into one [`Fate`] record per
//! processor or a [`PramError::InvalidAdversaryDecision`] /
//! [`PramError::AdversaryStall`] / [`PramError::Deadlock`].

use crate::adversary::{Cycles, Decisions, FailPoint, ProcStatus};
use crate::error::PramError;
use crate::Result;

/// How one processor's cycle of the current tick ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(u8)]
pub(crate) enum FateKind {
    /// Not active this tick (failed or halted at tick start).
    #[default]
    Idle,
    /// Completed the whole cycle (possibly failed *after* it completed).
    Completed,
    /// Stopped before its reads: the processor executed nothing this tick,
    /// so nothing is charged — not even partial work.
    InterruptedBeforeReads,
    /// Stopped after its reads and local computation, with
    /// [`Fate::commits`] of its writes committed (possibly zero: stopped
    /// before the first write).
    Interrupted,
}

/// Tags of [`Fate::point`]: the adversary did not stop the processor
/// this tick, or stopped it at one of the three kinds of [`FailPoint`].
const RUNNING: u8 = 0;
const BEFORE_READS: u8 = 1;
const BEFORE_WRITES: u8 = 2;
const AFTER_WRITE: u8 = 3;

/// [`Fate::flags`] bits.
const RESTART: u8 = 1;
const HALT: u8 = 2;

/// One processor's outcome for the current tick: everything the commit
/// and the finish sweep need, so neither reads the processor's tentative
/// cycle again. [`resolve`] writes every record and then the decisions'
/// overrides; the tick's prepass fills in a completed cycle's write count
/// and halt bit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Fate {
    /// `k` of an `AfterWrite(k)` fail point; 0 for the other points.
    after_write: usize,
    pub(crate) kind: FateKind,
    /// How many of the cycle's writes commit this tick.
    pub(crate) commits: u8,
    /// Where the adversary stopped the processor this tick: [`RUNNING`]
    /// or the tag of a [`FailPoint`].
    point: u8,
    /// [`RESTART`] and [`HALT`] bits.
    flags: u8,
}

// Every tick sweeps the records three times (init, prepass and finish);
// four of them fit a cache line.
const _: () = assert!(std::mem::size_of::<Fate>() <= 16);

impl Fate {
    /// The record every tick starts from: an alive processor completes its
    /// cycle unless a decision says otherwise, any other one is idle.
    #[inline]
    fn start(status: ProcStatus) -> Self {
        let alive = status == ProcStatus::Alive;
        Fate {
            after_write: 0,
            kind: [FateKind::Idle, FateKind::Completed][usize::from(alive)],
            commits: 0,
            point: RUNNING,
            flags: 0,
        }
    }

    /// Where the adversary stopped this processor this tick, if it did.
    #[inline]
    pub(crate) fn fail_point(&self) -> Option<FailPoint> {
        match self.point {
            RUNNING => None,
            BEFORE_READS => Some(FailPoint::BeforeReads),
            BEFORE_WRITES => Some(FailPoint::BeforeWrites),
            _ => Some(FailPoint::AfterWrite(self.after_write)),
        }
    }

    fn fail_at(&mut self, point: FailPoint) {
        (self.point, self.after_write) = match point {
            FailPoint::BeforeReads => (BEFORE_READS, 0),
            FailPoint::BeforeWrites => (BEFORE_WRITES, 0),
            FailPoint::AfterWrite(k) => (AFTER_WRITE, k),
        };
    }

    /// Whether the processor restarts (effective next tick).
    #[inline]
    pub(crate) fn restarts(&self) -> bool {
        self.flags & RESTART != 0
    }

    /// Whether the processor's completed cycle halts it.
    #[inline]
    pub(crate) fn halts(&self) -> bool {
        self.flags & HALT != 0
    }

    /// Record whether the processor's completed cycle halts it.
    #[inline]
    pub(crate) fn set_halts(&mut self, halts: bool) {
        self.flags = (self.flags & !HALT) | (u8::from(halts) * HALT);
    }
}

/// Validate `decisions` against this tick's machine state and write one
/// [`Fate`] per processor into `fates`.
///
/// `status` holds each processor's liveness *at the start of the tick*
/// (decisions are validated against pre-tick state); a processor has a
/// tentative cycle exactly when it is alive. One sweep writes every record
/// from its status, whatever an earlier tick or a rejected decision left
/// there; the decisions then override only the processors they name, and
/// the progress condition follows from counts. Only the tentative cycles of
/// processors the decisions stop are read.
///
/// # Errors
///
/// [`PramError::InvalidAdversaryDecision`] on an illegal failure or restart,
/// [`PramError::AdversaryStall`] when an active tick completes no cycle (or
/// everyone is failed with no restart), [`PramError::Deadlock`] when every
/// processor halted voluntarily but the program is incomplete.
pub(crate) fn resolve(
    cycle: u64,
    decisions: &Decisions,
    status: &[ProcStatus],
    tentative: &Cycles,
    fates: &mut [Fate],
) -> Result<()> {
    let p = status.len();
    // --- The init sweep, which also counts the processors the progress
    // condition asks about. ---
    let (mut active, mut failed) = (0usize, 0usize);
    for (fate, &s) in fates.iter_mut().zip(status) {
        *fate = Fate::start(s);
        active += usize::from(s == ProcStatus::Alive);
        failed += usize::from(s == ProcStatus::Failed);
    }
    // Alive processors whose cycle the decisions keep from completing.
    let mut stopped = 0usize;
    for &(pid, point) in &decisions.fails {
        if pid.0 >= p {
            return Err(PramError::InvalidAdversaryDecision {
                cycle,
                detail: format!("fail of unknown processor {pid}"),
            });
        }
        let fate = &mut fates[pid.0];
        if fate.fail_point().is_some() {
            return Err(PramError::InvalidAdversaryDecision {
                cycle,
                detail: format!("duplicate failure of {pid}"),
            });
        }
        match status[pid.0] {
            ProcStatus::Failed => {
                return Err(PramError::InvalidAdversaryDecision {
                    cycle,
                    detail: format!("failure of already failed {pid}"),
                });
            }
            // No cycle in flight; the processor simply stops.
            ProcStatus::Halted => fate.fail_at(point),
            ProcStatus::Alive => {
                let t = tentative.get(pid).expect("alive processor has a tentative cycle");
                let committed = match point {
                    FailPoint::BeforeReads | FailPoint::BeforeWrites => 0,
                    FailPoint::AfterWrite(k) => {
                        if k == 0 || k > t.writes.len() {
                            return Err(PramError::InvalidAdversaryDecision {
                                cycle,
                                detail: format!(
                                    "{pid} failed after write {k} but the cycle has {} writes",
                                    t.writes.len()
                                ),
                            });
                        }
                        k
                    }
                };
                fate.fail_at(point);
                match point {
                    // The processor never got to its reads: the whole cycle
                    // is a no-op and charges nothing.
                    FailPoint::BeforeReads => fate.kind = FateKind::InterruptedBeforeReads,
                    // Failing after the final write means the cycle
                    // completed (and is charged) before the processor
                    // stopped.
                    FailPoint::AfterWrite(_) if committed == t.writes.len() => continue,
                    _ => {
                        fate.kind = FateKind::Interrupted;
                        // At most the cycle's writes, which the tentative
                        // phase bounds by the budget (at most `MAX_WRITES`).
                        fate.commits = committed as u8;
                    }
                }
                stopped += 1;
            }
        }
    }
    // --- Validate restarts. ---
    for &pid in &decisions.restarts {
        if pid.0 >= p {
            return Err(PramError::InvalidAdversaryDecision {
                cycle,
                detail: format!("restart of unknown processor {pid}"),
            });
        }
        let fate = &mut fates[pid.0];
        if fate.restarts() {
            return Err(PramError::InvalidAdversaryDecision {
                cycle,
                detail: format!("duplicate restart of {pid}"),
            });
        }
        if status[pid.0] != ProcStatus::Failed && fate.fail_point().is_none() {
            return Err(PramError::InvalidAdversaryDecision {
                cycle,
                detail: format!("restart of non-failed {pid}"),
            });
        }
        fate.flags |= RESTART;
    }

    // --- Progress condition (§2.1 2(i)), from the counts. ---
    if active != 0 && active == stopped {
        return Err(PramError::AdversaryStall { cycle });
    }
    if active == 0 {
        if failed != 0 && decisions.restarts.is_empty() {
            return Err(PramError::AdversaryStall { cycle });
        }
        if failed == 0 {
            // Everyone halted voluntarily but the program is incomplete.
            return Err(PramError::Deadlock { cycle });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::TentativeCycle;
    use crate::word::Pid;

    /// `p` alive processors, each with a single pending write.
    fn writers(p: usize) -> Cycles {
        let mut tentative = Cycles::new(p, 0, 1);
        for i in 0..p {
            let cycle = TentativeCycle { reads: &[], writes: &[(0, 1)], halts: false };
            tentative.set(Pid(i), Some(cycle));
        }
        tentative
    }

    fn run(decisions: &Decisions, tentative: &Cycles, status: ProcStatus) -> Result<Vec<Fate>> {
        let status = vec![status; tentative.len()];
        let mut fates = vec![Fate::default(); tentative.len()];
        resolve(7, decisions, &status, tentative, &mut fates)?;
        Ok(fates)
    }

    /// A fail point after more writes than the cycle performed (including
    /// the degenerate `AfterWrite(0)`) is rejected: the adversary cannot
    /// "kill after a commit" that never happened.
    #[test]
    fn kill_after_commit_beyond_cycle_is_rejected() {
        // Two alive processors so the survivor satisfies progress.
        let tentative = writers(2);
        let mut d = Decisions::none();
        d.fail(Pid(0), FailPoint::AfterWrite(2));
        let err = run(&d, &tentative, ProcStatus::Alive).unwrap_err();
        assert!(
            matches!(&err, PramError::InvalidAdversaryDecision { cycle: 7, detail }
                if detail.contains("after write 2") && detail.contains("1 writes")),
            "{err:?}"
        );

        let mut d = Decisions::none();
        d.fail(Pid(0), FailPoint::AfterWrite(0));
        let err = run(&d, &tentative, ProcStatus::Alive).unwrap_err();
        assert!(matches!(err, PramError::InvalidAdversaryDecision { .. }), "{err:?}");
    }

    /// Killing exactly after the final write is legal — and the cycle
    /// counts as completed.
    #[test]
    fn kill_after_final_write_completes_the_cycle() {
        let tentative = writers(2);
        let mut d = Decisions::none();
        d.fail(Pid(0), FailPoint::AfterWrite(1));
        let fates = run(&d, &tentative, ProcStatus::Alive).unwrap();
        assert_eq!(fates[0].kind, FateKind::Completed);
    }

    #[test]
    fn restart_of_live_processor_is_rejected() {
        let tentative = writers(1);
        let mut d = Decisions::none();
        d.restart(Pid(0));
        let err = run(&d, &tentative, ProcStatus::Alive).unwrap_err();
        assert!(
            matches!(&err, PramError::InvalidAdversaryDecision { detail, .. }
                if detail.contains("restart of non-failed")),
            "{err:?}"
        );
    }

    /// Restarting a processor failed *this very tick* is legal.
    #[test]
    fn restart_of_just_failed_processor_is_accepted() {
        let tentative = writers(2);
        let mut d = Decisions::none();
        d.fail(Pid(0), FailPoint::BeforeWrites).restart(Pid(0));
        let fates = run(&d, &tentative, ProcStatus::Alive).unwrap();
        assert_eq!((fates[0].kind, fates[0].commits), (FateKind::Interrupted, 0));
    }

    /// Failing every active processor completes no cycle — the stall the
    /// progress condition forbids.
    #[test]
    fn stalling_decisions_are_rejected() {
        let tentative = writers(2);
        let mut d = Decisions::none();
        d.fail(Pid(0), FailPoint::BeforeWrites).fail(Pid(1), FailPoint::BeforeReads);
        let err = run(&d, &tentative, ProcStatus::Alive).unwrap_err();
        assert_eq!(err, PramError::AdversaryStall { cycle: 7 });
    }

    /// An all-failed machine with no restart is also a stall; with every
    /// processor voluntarily halted it is a deadlock instead.
    #[test]
    fn idle_machine_distinguishes_stall_from_deadlock() {
        let tentative = Cycles::new(2, 0, 1);
        let err = run(&Decisions::none(), &tentative, ProcStatus::Failed).unwrap_err();
        assert_eq!(err, PramError::AdversaryStall { cycle: 7 });
        let err = run(&Decisions::none(), &tentative, ProcStatus::Halted).unwrap_err();
        assert_eq!(err, PramError::Deadlock { cycle: 7 });
    }

    #[test]
    fn duplicate_and_unknown_targets_are_rejected() {
        let tentative = writers(1);
        let mut d = Decisions::none();
        d.fail(Pid(3), FailPoint::BeforeWrites);
        let err = run(&d, &tentative, ProcStatus::Alive).unwrap_err();
        assert!(
            matches!(&err, PramError::InvalidAdversaryDecision { detail, .. }
                if detail.contains("unknown processor")),
            "{err:?}"
        );

        let mut d = Decisions::none();
        d.fail(Pid(0), FailPoint::BeforeWrites).fail(Pid(0), FailPoint::BeforeReads);
        let err = run(&d, &tentative, ProcStatus::Alive).unwrap_err();
        assert!(
            matches!(&err, PramError::InvalidAdversaryDecision { detail, .. }
                if detail.contains("duplicate failure")),
            "{err:?}"
        );
    }
}
