//! The pre-index snapshot engine, kept verbatim as a differential-testing
//! oracle.
//!
//! [`ReferenceSnapshotMachine`] is the `SnapshotMachine` as it stood before
//! the incremental unvisited index: it allocates its working vectors every
//! tick, clones private states through the tentative phase, decides
//! completion with the full [`SnapshotProgram::is_complete`] scan, and
//! clones the [`FailurePattern`] into the
//! report. It is deliberately *not* optimised — its value is that its
//! control flow is the old, independently-reviewed one, so the equivalence
//! proptests in `tests/snapshot_equivalence.rs` can replay arbitrary legal
//! fault schedules through both engines and require identical stats,
//! patterns, per-processor counts, and final memory. The only adaptation to
//! the new [`SnapshotProgram`] trait is that `execute` receives a bare
//! [`SnapshotView`] (no index) instead of `&SharedMemory` directly;
//! programs that require an index cannot run here.

use crate::accounting::{RunOutcome, RunReport, WorkStats};
use crate::adversary::{
    Adversary, Cycles, FailPoint, MachineView, ProcMeta, ProcStatus, TentativeCycle,
};
use crate::cycle::{Step, WriteSet, MAX_WRITES};
use crate::error::PramError;
use crate::failure::{FailureEvent, FailureKind, FailurePattern};
use crate::machine::RunLimits;
use crate::memory::SharedMemory;
use crate::snapshot::{SnapshotProgram, SnapshotView};
use crate::word::{Pid, Word};
use crate::Result;

#[derive(Clone, Debug)]
struct Slot<S> {
    status: ProcStatus,
    state: Option<S>,
    completed: u64,
}

/// The old (pre-index, allocating) snapshot executor. See the module docs.
#[derive(Debug)]
pub struct ReferenceSnapshotMachine<'p, P: SnapshotProgram> {
    program: &'p P,
    mem: SharedMemory,
    write_budget: usize,
    procs: Vec<Slot<P::Private>>,
    cycle: u64,
    stats: WorkStats,
    pattern: FailurePattern,
}

impl<'p, P: SnapshotProgram> ReferenceSnapshotMachine<'p, P> {
    /// Build a reference machine; same contract as
    /// [`SnapshotMachine::new`](crate::SnapshotMachine::new).
    ///
    /// # Errors
    ///
    /// [`PramError::InvalidConfig`] if `processors == 0` or `write_budget`
    /// is 0 or exceeds [`MAX_WRITES`].
    pub fn new(program: &'p P, processors: usize, write_budget: usize) -> Result<Self> {
        if processors == 0 {
            return Err(PramError::InvalidConfig { detail: "need at least one processor".into() });
        }
        if write_budget == 0 || write_budget > MAX_WRITES {
            return Err(PramError::InvalidConfig {
                detail: format!("write budget must be between 1 and {MAX_WRITES}"),
            });
        }
        let mut mem = SharedMemory::new(program.shared_size());
        program.init_memory(&mut mem);
        let procs = (0..processors)
            .map(|i| Slot {
                status: ProcStatus::Alive,
                state: Some(program.on_start(Pid(i))),
                completed: 0,
            })
            .collect();
        Ok(ReferenceSnapshotMachine {
            program,
            mem,
            write_budget,
            procs,
            cycle: 0,
            stats: WorkStats::default(),
            pattern: FailurePattern::new(),
        })
    }

    /// The shared memory (uncharged inspection).
    pub fn memory(&self) -> &SharedMemory {
        &self.mem
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &WorkStats {
        &self.stats
    }

    /// Run to completion under `adversary`.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub fn run<A: Adversary>(&mut self, adversary: &mut A) -> Result<RunReport> {
        self.run_with_limits(adversary, RunLimits::default())
    }

    /// Run with explicit limits.
    ///
    /// # Errors
    ///
    /// See [`PramError`].
    pub fn run_with_limits<A: Adversary>(
        &mut self,
        adversary: &mut A,
        limits: RunLimits,
    ) -> Result<RunReport> {
        let p = self.procs.len();
        let mut tentative = Cycles::new(p, 0, self.write_budget);
        let mut post_states: Vec<Option<P::Private>> = vec![None; p];
        loop {
            if self.program.is_complete(&self.mem) {
                return Ok(RunReport {
                    outcome: RunOutcome::Completed,
                    stats: self.stats,
                    pattern: self.pattern.clone(),
                    per_processor: self.procs.iter().map(|s| s.completed).collect(),
                });
            }
            if self.cycle >= limits.max_cycles {
                return Err(PramError::CycleLimit { cycles: limits.max_cycles });
            }

            // Tentative phase: each alive processor computes against the
            // snapshot at tick start.
            for (i, post_state) in post_states.iter_mut().enumerate() {
                tentative.set(Pid(i), None);
                *post_state = None;
                if self.procs[i].status != ProcStatus::Alive {
                    continue;
                }
                let mut state =
                    self.procs[i].state.clone().expect("alive processor has private state");
                let mut writes = WriteSet::default();
                let view = SnapshotView::bare(&self.mem);
                let step = self.program.execute(Pid(i), &mut state, &view, &mut writes);
                if writes.len() > self.write_budget {
                    return Err(PramError::BudgetExceeded {
                        pid: Pid(i),
                        cycle: self.cycle,
                        kind: crate::error::BudgetKind::Writes,
                        used: writes.len(),
                        limit: self.write_budget,
                    });
                }
                for &(addr, _) in writes.writes() {
                    if addr >= self.mem.size() {
                        return Err(PramError::AddressOutOfBounds { addr, size: self.mem.size() });
                    }
                }
                let halts = matches!(step, Step::Halt);
                let cycle = TentativeCycle { reads: &[], writes: writes.writes(), halts };
                tentative.set(Pid(i), Some(cycle));
                *post_state = Some(state);
            }

            // Adversary phase.
            let meta: Vec<ProcMeta> = self
                .procs
                .iter()
                .enumerate()
                .map(|(i, s)| ProcMeta {
                    pid: Pid(i),
                    status: s.status,
                    completed_cycles: s.completed,
                })
                .collect();
            let decisions = adversary.decide(&MachineView {
                cycle: self.cycle,
                processors: p,
                mem: &self.mem,
                procs: &meta,
                tentative: &tentative,
                unvisited: None,
            });

            // Validate + compute committed write counts.
            let mut committed: Vec<Option<usize>> =
                (0..p).map(|i| tentative.get(Pid(i)).map(|t| t.writes.len())).collect();
            let mut failed_now = vec![false; p];
            let mut fail_points: Vec<Option<FailPoint>> = vec![None; p];
            for &(pid, point) in &decisions.fails {
                if pid.0 >= p || failed_now[pid.0] {
                    return Err(PramError::InvalidAdversaryDecision {
                        cycle: self.cycle,
                        detail: format!("bad failure target {pid}"),
                    });
                }
                match self.procs[pid.0].status {
                    ProcStatus::Failed => {
                        return Err(PramError::InvalidAdversaryDecision {
                            cycle: self.cycle,
                            detail: format!("failure of already failed {pid}"),
                        });
                    }
                    ProcStatus::Halted => {
                        failed_now[pid.0] = true;
                        fail_points[pid.0] = Some(point);
                    }
                    ProcStatus::Alive => {
                        let len = tentative.get(pid).map_or(0, |t| t.writes.len());
                        let c = match point {
                            FailPoint::BeforeReads | FailPoint::BeforeWrites => 0,
                            FailPoint::AfterWrite(k) => {
                                if k == 0 || k > len {
                                    return Err(PramError::InvalidAdversaryDecision {
                                        cycle: self.cycle,
                                        detail: format!("{pid}: bad fail point"),
                                    });
                                }
                                k
                            }
                        };
                        committed[pid.0] = Some(c);
                        failed_now[pid.0] = true;
                        fail_points[pid.0] = Some(point);
                    }
                }
            }
            let mut restarted = vec![false; p];
            for &pid in &decisions.restarts {
                let failed = pid.0 < p
                    && (self.procs[pid.0].status == ProcStatus::Failed || failed_now[pid.0]);
                if !failed || restarted[pid.0] {
                    return Err(PramError::InvalidAdversaryDecision {
                        cycle: self.cycle,
                        detail: format!("bad restart target {pid}"),
                    });
                }
                restarted[pid.0] = true;
            }

            // Progress condition.
            let any_active = tentative.iter().next().is_some();
            let completing = (0..p)
                .filter(|&i| {
                    tentative.get(Pid(i)).is_some()
                        && committed[i] == tentative.get(Pid(i)).map(|t| t.writes.len())
                        && !(failed_now[i] && committed[i] == Some(0))
                })
                .count();
            if any_active && completing == 0 {
                return Err(PramError::AdversaryStall { cycle: self.cycle });
            }
            if !any_active {
                let any_failed = self.procs.iter().any(|s| s.status == ProcStatus::Failed);
                if any_failed && decisions.restarts.is_empty() {
                    return Err(PramError::AdversaryStall { cycle: self.cycle });
                }
                if !any_failed {
                    return Err(PramError::Deadlock { cycle: self.cycle });
                }
            }

            // Commit slot by slot (COMMON semantics: the snapshot algorithms
            // of §3 are COMMON-legal).
            for slot in 0..self.write_budget {
                let mut slot_writes: Vec<(Pid, usize, Word)> = Vec::new();
                for (pid, t) in tentative.iter() {
                    if slot < t.writes.len() && slot < committed[pid.0].unwrap_or(0) {
                        let (addr, value) = t.writes[slot];
                        slot_writes.push((pid, addr, value));
                    }
                }
                slot_writes.sort_by_key(|&(pid, addr, _)| (addr, pid));
                let mut i = 0;
                while i < slot_writes.len() {
                    let (pid0, addr, v0) = slot_writes[i];
                    let mut j = i + 1;
                    while j < slot_writes.len() && slot_writes[j].1 == addr {
                        if slot_writes[j].2 != v0 {
                            return Err(PramError::CommonWriteConflict {
                                addr,
                                cycle: self.cycle,
                                first: (pid0, v0),
                                second: (slot_writes[j].0, slot_writes[j].2),
                            });
                        }
                        j += 1;
                    }
                    self.mem.store(addr, v0)?;
                    i = j;
                }
            }

            // Charge and update.
            let mut events: Vec<FailureEvent> = Vec::new();
            for i in 0..p {
                if let Some(t) = tentative.get(Pid(i)) {
                    let full = committed[i] == Some(t.writes.len())
                        && !(failed_now[i] && committed[i] == Some(0));
                    if full {
                        self.stats.completed_cycles += 1;
                        self.stats.charged_instructions += (1 + t.writes.len()) as u64;
                        self.procs[i].completed += 1;
                        if t.halts {
                            self.procs[i].status = ProcStatus::Halted;
                        }
                        self.procs[i].state = post_states[i].take();
                    } else {
                        self.stats.interrupted_cycles += 1;
                        self.stats.partial_instructions += committed[i].unwrap_or(0) as u64;
                    }
                }
                if failed_now[i] {
                    self.procs[i].status = ProcStatus::Failed;
                    self.procs[i].state = None;
                    self.stats.failures += 1;
                    let point = fail_points[i].expect("failed processor has a recorded point");
                    events.push(FailureEvent {
                        kind: FailureKind::Failure { point },
                        pid: i,
                        time: self.cycle,
                    });
                }
            }
            for (i, _) in restarted.iter().enumerate().filter(|(_, &r)| r) {
                self.procs[i].status = ProcStatus::Alive;
                self.procs[i].state = Some(self.program.on_start(Pid(i)));
                self.stats.restarts += 1;
                events.push(FailureEvent {
                    kind: FailureKind::Restart,
                    pid: i,
                    time: self.cycle + 1,
                });
            }
            self.pattern.extend(events);
            self.cycle += 1;
            self.stats.parallel_time = self.cycle;
        }
    }
}
