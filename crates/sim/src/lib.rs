//! # rfsp-sim — fault-tolerant execution of arbitrary PRAM programs
//!
//! Theorem 4.1 of Kanellakis & Shvartsman (PODC 1991): any `N`-processor
//! PRAM algorithm can be executed on a restartable fail-stop `P`-processor
//! CRCW PRAM, with completed work
//! `S = O(min{N + P log²N + M log N, N·P^{0.59}})` per simulated step and
//! overhead ratio `σ = O(log² N)`. The execution is the *iterated
//! Write-All paradigm* of [KPS 90]/[Shv 89]: each simulated step becomes
//! two rounds of `N` idempotent tasks (compute into staging, then commit),
//! driven by the fault-tolerant Write-All engines of `rfsp-core`.
//!
//! * [`program`] — the [`SimProgram`] description of the simulated machine
//!   and a failure-free reference executor.
//! * [`tasks`] — the two-rounds-per-step [`TaskSet`](rfsp_core::TaskSet)
//!   encoding (register checkpoints, staging, round tags); the task set
//!   writes the simulated input itself, so any Write-All engine drives it
//!   unchanged.
//! * [`executor`] — [`simulate`] and its full form
//!   [`simulate_with_mode_observed`] (write mode and event stream): run a
//!   program on `P` faulty processors under any adversary, with engine
//!   choice (X / V / interleaved).
//! * [`programs`] — classic PRAM kernels: reduction, prefix sums, maximum,
//!   odd-even transposition sort, pointer-jumping list ranking.
//!
//! ```
//! use rfsp_sim::{simulate, Engine, programs::ParallelSum};
//! use rfsp_pram::{NoFailures, RunLimits};
//!
//! # fn main() -> Result<(), rfsp_pram::PramError> {
//! let prog = ParallelSum::new(vec![1, 2, 3, 4, 5, 6, 7, 8]);
//! let report = simulate(prog.clone(), 4, Engine::Interleaved,
//!                       &mut NoFailures, RunLimits::default())?;
//! assert_eq!(report.memory[0], prog.expected() as u64);
//! # Ok(())
//! # }
//! ```

pub mod executor;
pub mod program;
pub mod programs;
pub mod tasks;

pub use executor::{simulate, simulate_with_mode_observed, Engine, SimReport};
pub use program::{reference_run, Regs, SimProgram, SimWrite, REG_MAX};
pub use tasks::{SimLayout, SimTasks, MAX_SIM_MEMORY, MAX_SIM_STEPS};
