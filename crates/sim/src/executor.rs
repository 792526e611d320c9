//! The fault-tolerant simulation driver (Theorem 4.1).
//!
//! Wires a [`SimProgram`] through [`SimTasks`] into one of the Write-All
//! engines of `rfsp-core` and runs it on the restartable fail-stop machine
//! under an arbitrary adversary. The choice of engine maps onto the
//! paper's results:
//!
//! * [`Engine::X`] — terminates under **any** failure/restart pattern with
//!   sub-quadratic work (`O(N·P^{0.59})` per step);
//! * [`Engine::V`] — `O(N + P log²N + M log N)` per step, the efficient
//!   half;
//! * [`Engine::Interleaved`] — both at once: the Theorem 4.1/4.9 strategy,
//!   `S = O(min{N + P log²N + M log N, N·P^{0.59}})` per simulated step
//!   and overhead ratio `O(log² N)`.
//!
//! The engine is the plain `rfsp-core` program: [`SimTasks`] writes the
//! simulated input through [`TaskSet::init_memory`](rfsp_core::TaskSet::init_memory),
//! which every engine calls from its own `init_memory`.

use rfsp_core::{AlgoV, AlgoX, Interleaved, XOptions};
use rfsp_pram::{
    Adversary, LayoutBuilder, Machine, NoopObserver, Observer, PramError, Program, RunLimits,
    RunReport, Word, WriteMode,
};

use crate::program::SimProgram;
use crate::tasks::SimTasks;

/// Which Write-All engine drives the simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// Algorithm X: guaranteed termination under any adversary.
    X,
    /// Algorithm V: efficient when failures are bounded.
    V,
    /// Interleaved V+X (the paper's Theorem 4.1 configuration).
    #[default]
    Interleaved,
}

/// Result of a fault-tolerant simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// The machine-level run report (completed work, pattern, …).
    pub run: RunReport,
    /// Final simulated shared memory.
    pub memory: Vec<Word>,
    /// Number of simulated processors `N`.
    pub sim_processors: usize,
    /// Number of simulated steps `τ`.
    pub sim_steps: usize,
}

impl SimReport {
    /// The work-optimality ratio of Corollary 4.12: completed work divided
    /// by the simulated `Parallel-time × Processors` product `τ·N`.
    pub fn work_ratio(&self) -> f64 {
        self.run.stats.completed_work() as f64
            / (self.sim_steps as f64 * self.sim_processors as f64).max(1.0)
    }
}

/// Run `prog` on `p` restartable fail-stop processors under `adversary`.
///
/// The simulated machine's COMMON CRCW semantics are enforced end-to-end:
/// concurrent simulated writes become concurrent machine writes in the
/// commit rounds. Use [`simulate_with_mode_observed`] for ARBITRARY
/// simulated programs (simulated on a machine of the same type, per
/// Theorem 4.1's statement) or for an event stream.
///
/// # Errors
///
/// Any [`PramError`] from [`simulate_with_mode_observed`].
pub fn simulate<P, A>(
    prog: P,
    p: usize,
    engine: Engine,
    adversary: &mut A,
    limits: RunLimits,
) -> Result<SimReport, PramError>
where
    P: SimProgram + Sync + Clone,
    A: Adversary,
{
    simulate_with_mode_observed(
        prog,
        p,
        engine,
        adversary,
        limits,
        WriteMode::Common,
        &mut NoopObserver,
    )
}

/// [`simulate`] with explicit machine write semantics, streaming every
/// machine event of the simulating run to `observer` (see
/// `rfsp_pram::trace`).
///
/// # Errors
///
/// [`PramError::InvalidConfig`] for a PRIORITY `mode` (paper Remark 4)
/// and for a program past the packing limits of
/// [`SimTasks::check_limits`], both before anything is built; otherwise
/// any [`PramError`] from the underlying machine, notably
/// [`PramError::CycleLimit`] if `limits` are exhausted.
pub fn simulate_with_mode_observed<P, A>(
    prog: P,
    p: usize,
    engine: Engine,
    adversary: &mut A,
    limits: RunLimits,
    mode: WriteMode,
    observer: &mut dyn Observer,
) -> Result<SimReport, PramError>
where
    P: SimProgram + Sync + Clone,
    A: Adversary,
{
    if mode == WriteMode::Priority {
        // Remark 4 of the paper: PRIORITY CRCW PRAMs cannot be directly
        // simulated with this framework — algorithm X lacks the processor
        // allocation monotonicity that would map higher-numbered simulating
        // processors onto higher-numbered simulated ones.
        return Err(PramError::InvalidConfig {
            detail: "PRIORITY CRCW programs cannot be directly simulated (paper Remark 4)".into(),
        });
    }
    SimTasks::check_limits(&prog).map_err(|detail| PramError::InvalidConfig { detail })?;
    let sim_processors = prog.processors();
    let sim_steps = prog.steps();
    let mut layout = LayoutBuilder::new();
    let tasks = SimTasks::new(&mut layout, prog);
    // Each engine writes the simulated input through its task set's
    // `init_memory`, so the three arms differ only in the program type.
    let (run, memory) = match engine {
        Engine::X => {
            let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
            let machine = Machine::new(&algo, p, algo.required_budget())?;
            run_machine(machine, algo.tasks(), mode, adversary, limits, observer)?
        }
        Engine::V => {
            let algo = AlgoV::new(&mut layout, tasks, p);
            let machine = Machine::new(&algo, p, algo.required_budget())?;
            run_machine(machine, algo.tasks(), mode, adversary, limits, observer)?
        }
        Engine::Interleaved => {
            let algo = Interleaved::new(&mut layout, tasks, p);
            let machine = Machine::new(&algo, p, algo.required_budget())?;
            run_machine(machine, algo.x_half().tasks(), mode, adversary, limits, observer)?
        }
    };
    Ok(SimReport { run, memory, sim_processors, sim_steps })
}

/// Run a fresh simulating machine under `mode`, then read the simulated
/// memory back through `tasks`: the part every engine shares.
fn run_machine<G: Program, P: SimProgram, A: Adversary>(
    mut machine: Machine<'_, G>,
    tasks: &SimTasks<P>,
    mode: WriteMode,
    adversary: &mut A,
    limits: RunLimits,
    observer: &mut dyn Observer,
) -> Result<(RunReport, Vec<Word>), PramError> {
    machine.set_write_mode(mode);
    let run = machine.run_observed(adversary, limits, observer)?;
    Ok((run, tasks.extract_memory(machine.memory())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{reference_run, Regs, SimWrite};
    use crate::tasks::{MAX_SIM_MEMORY, MAX_SIM_STEPS};
    use rfsp_pram::NoFailures;

    /// Counter: each processor increments its own cell once per step.
    #[derive(Clone)]
    struct Inc {
        n: usize,
        steps: usize,
    }
    impl SimProgram for Inc {
        fn processors(&self) -> usize {
            self.n
        }
        fn memory_size(&self) -> usize {
            self.n
        }
        fn steps(&self) -> usize {
            self.steps
        }
        fn init_memory(&self, _mem: &mut [Word]) {}
        fn read_addr(&self, pid: usize, _t: usize, _r: &Regs) -> usize {
            pid
        }
        fn step(&self, pid: usize, _t: usize, _r: &Regs, v: u32) -> (Regs, SimWrite) {
            (Regs::default(), SimWrite::Write { addr: pid, value: v + 1 })
        }
    }

    #[test]
    fn all_engines_match_the_reference() {
        let prog = Inc { n: 8, steps: 2 };
        let expected = reference_run(&prog);
        for engine in [Engine::X, Engine::V, Engine::Interleaved] {
            let report =
                simulate(prog.clone(), 4, engine, &mut NoFailures, RunLimits::default()).unwrap();
            assert_eq!(report.memory, expected, "engine {engine:?}");
        }
    }

    /// PRIORITY (Remark 4) and programs past the packing limits are
    /// refused with an error before anything is built, never a panic.
    #[test]
    fn priority_simulation_is_rejected_per_remark_4() {
        let refuse = |prog: Inc, mode: WriteMode| {
            simulate_with_mode_observed(
                prog,
                2,
                Engine::X,
                &mut NoFailures,
                RunLimits::default(),
                mode,
                &mut NoopObserver,
            )
            .unwrap_err()
        };
        let err = refuse(Inc { n: 4, steps: 2 }, WriteMode::Priority);
        assert!(matches!(err, rfsp_pram::PramError::InvalidConfig { .. }));
        assert!(err.to_string().contains("Remark 4"));

        for (n, steps) in [(MAX_SIM_MEMORY + 1, 2), (1, MAX_SIM_STEPS + 1)] {
            let err = refuse(Inc { n, steps }, WriteMode::Common);
            assert!(matches!(err, rfsp_pram::PramError::InvalidConfig { .. }), "{err}");
            assert!(err.to_string().contains("limit"), "n = {n}, {steps} steps: {err}");
        }
        SimTasks::check_limits(&Inc { n: MAX_SIM_MEMORY, steps: MAX_SIM_STEPS }).unwrap();
    }

    #[test]
    fn arbitrary_simulation_is_allowed() {
        let prog = Inc { n: 4, steps: 2 };
        let report = simulate_with_mode_observed(
            prog.clone(),
            2,
            Engine::X,
            &mut NoFailures,
            RunLimits::default(),
            WriteMode::Arbitrary,
            &mut NoopObserver,
        )
        .unwrap();
        assert_eq!(report.memory, reference_run(&prog));
    }

    #[test]
    fn work_ratio_is_reported() {
        let prog = Inc { n: 8, steps: 2 };
        let report = simulate(prog, 2, Engine::X, &mut NoFailures, RunLimits::default()).unwrap();
        assert!(report.work_ratio() > 0.0);
        assert_eq!(report.sim_processors, 8);
        assert_eq!(report.sim_steps, 2);
    }
}
