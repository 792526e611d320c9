//! Error type for machine execution.

use std::error::Error;
use std::fmt;

use crate::word::Pid;

/// Everything that can go wrong while running a program on the machine.
///
/// Most variants indicate a *bug in the program or adversary under test*
/// (budget violations, illegal adversary decisions, COMMON-mode write
/// conflicts); [`PramError::CycleLimit`] is the one "expected" failure mode,
/// used by experiments to demonstrate non-terminating executions (e.g.
/// algorithm W under restarts, §4.1 of the paper).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PramError {
    /// A processor planned more reads or emitted more writes than the
    /// machine's [`CycleBudget`](crate::CycleBudget) allows.
    BudgetExceeded { pid: Pid, cycle: u64, kind: BudgetKind, used: usize, limit: usize },
    /// A shared-memory access was out of bounds.
    AddressOutOfBounds { addr: usize, size: usize },
    /// Two processors concurrently wrote *different* values to the same cell
    /// under COMMON CRCW semantics (the model of the paper's algorithms).
    CommonWriteConflict { addr: usize, cycle: u64, first: (Pid, u64), second: (Pid, u64) },
    /// A concurrent write occurred under EREW/CREW-style checking.
    ExclusiveWriteConflict { addr: usize, cycle: u64 },
    /// The adversary named a processor outside `0..P`, failed an already
    /// failed processor, or restarted an alive one.
    InvalidAdversaryDecision { cycle: u64, detail: String },
    /// The adversary's decisions left no processor completing an update
    /// cycle this tick, violating the model requirement (§2.1, condition
    /// 2(i)) that at any time at least one processor is executing an update
    /// cycle that successfully completes.
    AdversaryStall { cycle: u64 },
    /// Every processor is failed or halted but the program's completion
    /// predicate is false: the algorithm has deadlocked (a program bug —
    /// restartable algorithms must cope with any legal fault pattern).
    Deadlock { cycle: u64 },
    /// The run exceeded [`RunLimits::max_cycles`](crate::RunLimits).
    CycleLimit { cycles: u64 },
    /// Invalid machine configuration (e.g. zero processors).
    InvalidConfig { detail: String },
    /// Program code panicked while playing processor `pid`'s tentative
    /// cycle in a run with [`RunSpec::catch_panics`](crate::RunSpec) set;
    /// `detail` carries the panic payload. The panic is *caught*, and the
    /// machine is left mid-tick: rewind it to a checkpoint or rebuild it
    /// before running on.
    WorkerPanic { pid: Pid, detail: String },
    /// A checkpoint could not be saved or restored (version mismatch,
    /// wrong machine shape, undecodable private state).
    Checkpoint { detail: String },
}

/// Which half of the cycle budget was violated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetKind {
    Reads,
    Writes,
}

impl fmt::Display for PramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PramError::BudgetExceeded { pid, cycle, kind, used, limit } => {
                let what = match kind {
                    BudgetKind::Reads => "reads",
                    BudgetKind::Writes => "writes",
                };
                write!(f, "{pid} used {used} {what} in cycle {cycle}, budget is {limit}")
            }
            PramError::AddressOutOfBounds { addr, size } => {
                write!(f, "shared address {addr} out of bounds for memory of {size} cells")
            }
            PramError::CommonWriteConflict { addr, cycle, first, second } => write!(
                f,
                "COMMON write conflict at cell {addr} in cycle {cycle}: {} wrote {}, {} wrote {}",
                first.0, first.1, second.0, second.1
            ),
            PramError::ExclusiveWriteConflict { addr, cycle } => {
                write!(f, "exclusive-write conflict at cell {addr} in cycle {cycle}")
            }
            PramError::InvalidAdversaryDecision { cycle, detail } => {
                write!(f, "invalid adversary decision in cycle {cycle}: {detail}")
            }
            PramError::AdversaryStall { cycle } => write!(
                f,
                "adversary left no completing processor in cycle {cycle} (violates model condition 2(i))"
            ),
            PramError::Deadlock { cycle } => write!(
                f,
                "deadlock in cycle {cycle}: all processors halted or failed but the program is incomplete"
            ),
            PramError::CycleLimit { cycles } => {
                write!(f, "execution exceeded the cycle limit of {cycles}")
            }
            PramError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            PramError::WorkerPanic { pid, detail } => {
                write!(f, "program panicked while executing {pid}'s cycle: {detail}")
            }
            PramError::Checkpoint { detail } => write!(f, "checkpoint error: {detail}"),
        }
    }
}

impl Error for PramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PramError::CommonWriteConflict {
            addr: 7,
            cycle: 3,
            first: (Pid(0), 1),
            second: (Pid(2), 9),
        };
        let msg = e.to_string();
        assert!(msg.contains("cell 7"));
        assert!(msg.contains("P2"));
        assert!(msg.contains("wrote 9"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(PramError::CycleLimit { cycles: 10 });
    }
}
