//! The simulation task set: one simulated PRAM step = two Write-All rounds.
//!
//! §4.3 of the paper: arbitrary PRAM steps are executed by "replacing the
//! trivial array assignments in a Write-All solution with the appropriate
//! components of the PRAM steps", taking care "to ensure that the results
//! of computations are stored in temporary memory before simulating the
//! synchronous updates of the shared memory with the new values".
//!
//! Concretely, simulated step `t` becomes two rounds of `N` tasks each:
//!
//! * **Round `2t+1` (compute)** — task `i` loads simulated processor `i`'s
//!   checkpointed registers, reads its simulated memory operand, runs the
//!   step function, and *stages* the new registers and the pending write in
//!   temporary cells. During this round the simulated memory is read-only,
//!   so re-executions (after failures) read the same operands — the tasks
//!   are idempotent.
//! * **Round `2t+2` (commit)** — task `i` copies the staged registers into
//!   the register checkpoint and applies the staged write to simulated
//!   memory. During this round only staged cells are read, so it is
//!   likewise idempotent, and concurrent writes to one simulated cell
//!   surface as real concurrent writes (preserving the simulated PRAM's
//!   COMMON/ARBITRARY semantics exactly).
//!
//! Doneness is encoded in tags: a task's output cells carry the round
//! number that produced them, so "task `i` done in round `k`" is the
//! single-read observation `tag == k`, which is what lets algorithms X and
//! V drive all `2τ` rounds without ever resetting their trees (their
//! progress heaps store round numbers too).

use rfsp_core::TaskSet;
use rfsp_pram::{LayoutBuilder, ReadSet, Region, SharedMemory, Word, WriteSet};

use crate::program::{Regs, SimProgram, SimWrite};

const TAG_SHIFT: u32 = 48;
const NOP_ADDR: u64 = 0xFFFF;

/// The most simulated memory cells a [`SimTasks`] can address: a staged
/// write packs its address into 16 bits, and `0xFFFF` marks "no write".
pub const MAX_SIM_MEMORY: usize = NOP_ADDR as usize - 1;

/// The most simulated steps a [`SimTasks`] can drive: a step takes two
/// rounds, and round tags must fit in 16 bits.
pub const MAX_SIM_STEPS: usize = 32_766;

#[inline]
fn tag_of(v: Word) -> Word {
    v >> TAG_SHIFT
}

#[inline]
fn pack_regs(tag: Word, regs: Regs) -> Word {
    (tag << TAG_SHIFT) | ((regs.a as Word) << 24) | regs.b as Word
}

#[inline]
fn unpack_regs(v: Word) -> Regs {
    Regs { a: ((v >> 24) & 0xFF_FFFF) as u32, b: (v & 0xFF_FFFF) as u32 }
}

#[inline]
fn pack_write(tag: Word, w: SimWrite) -> Word {
    match w {
        SimWrite::Write { addr, value } => {
            (tag << TAG_SHIFT) | ((addr as Word) << 32) | value as Word
        }
        SimWrite::Nop => (tag << TAG_SHIFT) | (NOP_ADDR << 32),
    }
}

#[inline]
fn unpack_write(v: Word) -> SimWrite {
    let addr = (v >> 32) & 0xFFFF;
    if addr == NOP_ADDR {
        SimWrite::Nop
    } else {
        SimWrite::Write { addr: addr as usize, value: (v & 0xFFFF_FFFF) as u32 }
    }
}

/// Shared-memory layout of a simulation instance.
#[derive(Clone, Copy, Debug)]
pub struct SimLayout {
    /// Register checkpoints, one packed word per simulated processor.
    pub regs: Region,
    /// Staged registers (compute-round output).
    pub staged_regs: Region,
    /// Staged writes (compute-round output).
    pub staged_write: Region,
    /// The simulated shared memory.
    pub smem: Region,
}

/// [`TaskSet`] implementing the two-rounds-per-step simulation of a
/// [`SimProgram`].
#[derive(Clone, Debug)]
pub struct SimTasks<P> {
    prog: P,
    layout: SimLayout,
}

impl<P: SimProgram> SimTasks<P> {
    /// Check `prog` against the packing limits: at least one processor, at
    /// most [`MAX_SIM_MEMORY`] memory cells and at most [`MAX_SIM_STEPS`]
    /// steps.
    ///
    /// # Errors
    ///
    /// A message naming the first limit `prog` exceeds.
    pub fn check_limits(prog: &P) -> Result<(), String> {
        let (n, cells, steps) = (prog.processors(), prog.memory_size(), prog.steps());
        if n == 0 {
            Err("simulated program needs at least one processor".into())
        } else if cells > MAX_SIM_MEMORY {
            Err(format!("simulated memory of {cells} cells exceeds the limit {MAX_SIM_MEMORY}"))
        } else if steps > MAX_SIM_STEPS {
            Err(format!("{steps} simulated steps exceed the limit {MAX_SIM_STEPS}"))
        } else {
            Ok(())
        }
    }

    /// Allocate the simulation's regions from `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds the packing limits (see
    /// [`SimTasks::check_limits`]).
    pub fn new(layout: &mut LayoutBuilder, prog: P) -> Self {
        if let Err(e) = Self::check_limits(&prog) {
            panic!("{e}");
        }
        let n = prog.processors();
        let sim_layout = SimLayout {
            regs: layout.alloc(n),
            staged_regs: layout.alloc(n),
            staged_write: layout.alloc(n),
            smem: layout.alloc(prog.memory_size()),
        };
        SimTasks { prog, layout: sim_layout }
    }

    /// The simulation's memory layout.
    pub fn layout(&self) -> &SimLayout {
        &self.layout
    }

    /// The simulated program.
    pub fn program(&self) -> &P {
        &self.prog
    }

    /// Extract the simulated memory after a run.
    pub fn extract_memory(&self, mem: &SharedMemory) -> Vec<Word> {
        self.layout.smem.snapshot(mem)
    }

    /// Extract simulated processor `i`'s registers after a run.
    pub fn extract_regs(&self, mem: &SharedMemory, i: usize) -> Regs {
        unpack_regs(mem.peek(self.layout.regs.at(i)))
    }

    /// The simulated step and phase of round `k` (1-based): returns
    /// `(t, is_compute)`.
    #[inline]
    fn phase(round: Word) -> (usize, bool) {
        (((round - 1) / 2) as usize, round % 2 == 1)
    }
}

impl<P: SimProgram> TaskSet for SimTasks<P> {
    fn len(&self) -> usize {
        self.prog.processors()
    }

    fn rounds(&self) -> Word {
        2 * self.prog.steps() as Word
    }

    /// Write the simulated program's initial memory.
    fn init_memory(&self, mem: &mut SharedMemory) {
        let mut sim = vec![0; self.prog.memory_size()];
        self.prog.init_memory(&mut sim);
        for (i, v) in sim.into_iter().enumerate() {
            mem.poke(self.layout.smem.at(i), v);
        }
    }

    fn plan(&self, round: Word, i: usize, values: &[Word], reads: &mut ReadSet) {
        let (t, compute) = Self::phase(round);
        if compute {
            match values.len() {
                0 => {
                    reads.push(self.layout.staged_regs.at(i)); // done check
                    reads.push(self.layout.regs.at(i));
                }
                2 => {
                    if tag_of(values[0]) == round {
                        return; // already staged this round
                    }
                    let regs = unpack_regs(values[1]);
                    let addr = self.prog.read_addr(i, t, &regs);
                    reads.push(self.layout.smem.at(addr));
                }
                _ => {}
            }
        } else if values.is_empty() {
            reads.push(self.layout.regs.at(i)); // done check
            reads.push(self.layout.staged_regs.at(i));
            reads.push(self.layout.staged_write.at(i));
        }
    }

    fn run(&self, round: Word, i: usize, values: &[Word], writes: &mut WriteSet) -> bool {
        let (t, compute) = Self::phase(round);
        if compute {
            if tag_of(values[0]) == round {
                return true;
            }
            let regs = unpack_regs(values[1]);
            let operand = (values[2] & 0xFFFF_FFFF) as u32;
            let (new_regs, write) = self.prog.step(i, t, &regs, operand);
            // The tagged cell (staged_regs, the doneness witness) is written
            // LAST: a processor stopped between its two atomic word writes
            // must not leave the task looking complete with a stale payload.
            writes.push(self.layout.staged_write.at(i), pack_write(round, write));
            writes.push(self.layout.staged_regs.at(i), pack_regs(round, new_regs));
            false
        } else {
            if tag_of(values[0]) == round {
                return true;
            }
            debug_assert_eq!(tag_of(values[1]), round - 1, "compute round must precede commit");
            let staged_regs = unpack_regs(values[1]);
            // Same ordering rule: the simulated write lands first, the
            // tagged register checkpoint (the doneness witness) last.
            if let SimWrite::Write { addr, value } = unpack_write(values[2]) {
                writes.push(self.layout.smem.at(addr), value as Word);
            }
            writes.push(self.layout.regs.at(i), pack_regs(round, staged_regs));
            false
        }
    }

    fn is_done(&self, mem: &SharedMemory, round: Word, i: usize) -> bool {
        let (_, compute) = Self::phase(round);
        let cell = if compute { self.layout.staged_regs } else { self.layout.regs };
        tag_of(mem.peek(cell.at(i))) == round
    }

    fn max_reads(&self) -> usize {
        3
    }

    fn max_writes(&self) -> usize {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_roundtrips() {
        let r = Regs::new(0x12_3456, 0xAB_CDEF);
        let v = pack_regs(7, r);
        assert_eq!(tag_of(v), 7);
        assert_eq!(unpack_regs(v), r);

        let w = SimWrite::Write { addr: 1234, value: 0xDEAD_BEEF };
        let v = pack_write(9, w);
        assert_eq!(tag_of(v), 9);
        assert_eq!(unpack_write(v), w);

        let v = pack_write(3, SimWrite::Nop);
        assert_eq!(tag_of(v), 3);
        assert_eq!(unpack_write(v), SimWrite::Nop);
    }

    #[test]
    fn rounds_alternate_compute_commit() {
        assert_eq!(SimTasks::<&dyn SimProgram>::phase(1), (0, true));
        assert_eq!(SimTasks::<&dyn SimProgram>::phase(2), (0, false));
        assert_eq!(SimTasks::<&dyn SimProgram>::phase(7), (3, true));
        assert_eq!(SimTasks::<&dyn SimProgram>::phase(8), (3, false));
    }
}
