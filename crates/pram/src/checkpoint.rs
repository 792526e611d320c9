//! Versioned machine checkpoints for crash-safe long runs.
//!
//! A [`Checkpoint`] captures everything a paused [`Machine`](crate::Machine)
//! needs to resume bit-for-bit: shared memory (cells plus instrumentation
//! counters), every processor's status and private state, the accumulated
//! [`WorkStats`], the failure pattern recorded so far, and the adversary's
//! own state (via [`Adversary::save_state`](crate::Adversary::save_state)).
//! Checkpoints are taken only at **tick boundaries** — between the commit
//! phase of one tick and the tentative phase of the next — where the
//! machine has no transient state, so a restored run replays the exact
//! event stream the uninterrupted run would have produced (see
//! `crates/pram/tests/checkpoint.rs` for the property test).
//!
//! Serialization goes through the in-tree serde shim's compact JSON
//! renderer; the format is versioned ([`CHECKPOINT_VERSION`]) and restore
//! rejects mismatched versions, machine shapes, budgets and write modes
//! with [`PramError::Checkpoint`] instead of resuming nondeterministically.

use serde::{json, Deserialize, Serialize, Value};

use crate::accounting::WorkStats;
use crate::adversary::ProcStatus;
use crate::error::PramError;
use crate::failure::FailurePattern;
use crate::memory::MemoryLayout;
use crate::mode::WriteMode;
use crate::word::Word;

/// Format version written into every checkpoint. Bump on any breaking
/// layout change; restore refuses other versions.
///
/// Version history: v1 — word machine only; v2 — adds the
/// [`model`](Checkpoint::model) tag so checkpoints from the word and snapshot
/// machines cannot be restored into each other; v3 — records the
/// [`MemoryLayout`] and replaces the two global read/write counters with
/// per-bank counter vectors (restore refuses cross-layout resumes); v4 —
/// adds the `policy` field carrying the checkpoint/restart
/// [`PolicyEngine`](crate::policy::PolicyEngine) state, so a resumed run
/// continues the same policy trajectory (and a cross-policy resume is
/// refused by the engine's own restore); v5 — compact JSON, and the
/// failure pattern is one flat array of delta-coded integer triples (see
/// [`FailurePattern`]) instead of a list of nested maps; v6 — the policy
/// state drops the panic-escalation fields (`panic_threshold`, `panics`)
/// with the panic policies they chose between.
pub const CHECKPOINT_VERSION: u32 = 6;

/// One processor's checkpointed state.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ProcCheckpoint {
    /// Liveness at the checkpointed tick boundary.
    pub status: ProcStatus,
    /// Completed update cycles charged to this processor.
    pub completed: u64,
    /// Serialized private state. Meaningful only while the processor is
    /// alive or halted; a failed processor has no private memory (by the
    /// model) and stores [`Value::Null`] here. A plain [`Value`] rather
    /// than an `Option` because JSON cannot distinguish `Some(Null)` — a
    /// unit private state — from `None`.
    pub state: Value,
}

/// A complete, versioned snapshot of a paused machine plus its adversary.
///
/// Produced by [`Machine::save_checkpoint`](crate::Machine::save_checkpoint)
/// and consumed by
/// [`Machine::restore_checkpoint`](crate::Machine::restore_checkpoint).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Name of the [`ExecutionModel`](crate::ExecutionModel) the checkpoint
    /// was taken under (`"word"` or `"snapshot"`); restore refuses a
    /// checkpoint from a different model.
    pub model: String,
    /// The tick at which the machine paused (the next tick to execute).
    pub cycle: u64,
    /// Concurrent-write semantics the run was using.
    pub mode: WriteMode,
    /// Read half of the cycle budget.
    pub budget_reads: usize,
    /// Write half of the cycle budget.
    pub budget_writes: usize,
    /// Physical memory layout of the run. Restore refuses a checkpoint
    /// taken under a different layout: the per-bank counters below are
    /// meaningless under any other bank mapping.
    pub layout: MemoryLayout,
    /// Shared-memory cells — always the merged, address-ordered image,
    /// whatever the physical layout.
    pub mem: Vec<Word>,
    /// Charged read count per bank at the pause point (one entry for the
    /// flat layout).
    pub bank_reads: Vec<u64>,
    /// Charged (committed) write count per bank at the pause point.
    pub bank_writes: Vec<u64>,
    /// Accumulated work statistics.
    pub stats: WorkStats,
    /// Per-processor status and private state, indexed by PID.
    pub procs: Vec<ProcCheckpoint>,
    /// The failure pattern recorded so far.
    pub pattern: FailurePattern,
    /// The adversary's state, from
    /// [`Adversary::save_state`](crate::Adversary::save_state).
    pub adversary: Value,
    /// Checkpoint/restart policy state, from
    /// [`PolicyEngine::save_state`](crate::policy::PolicyEngine::save_state).
    /// [`Value::Null`] for runs driven without a policy engine. Opaque to
    /// the core's restore path — the machine resumes identically whatever
    /// policy chose the checkpoint's tick — but a policy-driven runner
    /// must hand it back to its engine, whose restore refuses state from
    /// a different policy.
    pub policy: Value,
}

impl Checkpoint {
    /// Render as compact JSON (the on-disk checkpoint format).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// What writing this checkpoint costs, in bytes, as the
    /// [`PolicyEngine`](crate::policy::PolicyEngine) prices it: a pure
    /// function of the checkpoint's shape, so pricing a checkpoint needs no
    /// encode, and a resumed run prices its checkpoints exactly as the
    /// uninterrupted run does.
    ///
    /// The per-item prices are the v5 encoding's bytes per item, measured
    /// on mid-run Algorithm X checkpoints under random faults (N = 2^10
    /// with P = 64, and N = 2^16 with P = 2^12) and rounded up:
    ///
    /// * 3 per memory cell, a small integer and its comma (measured
    ///   2.0–2.1);
    /// * 9 per failure-pattern event, three integers and their commas
    ///   (measured 6.9 at P = 64 and 8.7 at P = 2^12);
    /// * 48 per processor, its status, completed count and private state
    ///   (measured 48).
    ///
    /// The other fields take a few hundred bytes whatever the size.
    pub fn cost_bytes(&self) -> u64 {
        const PER_CELL: u64 = 3;
        const PER_EVENT: u64 = 9;
        const PER_PROC: u64 = 48;
        PER_CELL * self.mem.len() as u64
            + PER_EVENT * self.pattern.size() as u64
            + PER_PROC * self.procs.len() as u64
    }

    /// Parse a checkpoint previously rendered by [`Checkpoint::to_json`].
    ///
    /// This only checks that the text decodes into the checkpoint shape;
    /// [`Machine::restore_checkpoint`](crate::Machine::restore_checkpoint)
    /// performs the semantic validation (version, machine shape, pattern
    /// legality).
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] on malformed JSON or a non-checkpoint
    /// shape.
    pub fn from_json(text: &str) -> Result<Self, PramError> {
        json::from_str(text)
            .map_err(|e| PramError::Checkpoint { detail: format!("unreadable checkpoint: {e}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::FailPoint;
    use crate::failure::{FailureEvent, FailureKind};

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            model: "word".to_string(),
            cycle: 17,
            mode: WriteMode::Common,
            budget_reads: 4,
            budget_writes: 2,
            layout: MemoryLayout::Banked { banks: 2, interleave: 1 },
            mem: vec![0, 1, 2, 3],
            bank_reads: vec![5, 4],
            bank_writes: vec![2, 3],
            stats: WorkStats { completed_cycles: 12, parallel_time: 17, ..Default::default() },
            procs: vec![
                ProcCheckpoint { status: ProcStatus::Alive, completed: 12, state: Value::UInt(3) },
                ProcCheckpoint { status: ProcStatus::Failed, completed: 0, state: Value::Null },
            ],
            pattern: FailurePattern::new(),
            adversary: Value::Null,
            policy: Value::Null,
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let ck = sample();
        let text = ck.to_json();
        let back = Checkpoint::from_json(&text).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn compact_and_priced_by_shape() {
        let mut ck = sample();
        let text = ck.to_json();
        assert!(!text.contains('\n') && !text.contains(": "), "{text}");
        assert_eq!(ck.cost_bytes(), 3 * 4 + 48 * 2);
        ck.pattern.push(FailureEvent {
            kind: FailureKind::Failure { point: FailPoint::BeforeReads },
            pid: 1,
            time: 3,
        });
        ck.stats.completed_cycles += 1;
        assert_eq!(ck.cost_bytes(), 3 * 4 + 9 + 48 * 2, "only the shape is priced");
    }

    #[test]
    fn malformed_json_is_a_checkpoint_error() {
        let err = Checkpoint::from_json("{not json").unwrap_err();
        assert!(matches!(err, PramError::Checkpoint { .. }), "{err:?}");
    }
}
