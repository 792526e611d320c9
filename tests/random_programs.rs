//! Property test: *randomly generated* PRAM programs, executed under
//! random failure/restart churn by every engine, always match a
//! failure-free reference run. This probes the Theorem 4.1 machinery far
//! beyond the handful of named kernels: random data flow, random read
//! addresses, every register path.

use proptest::prelude::*;
use rfsp::adversary::RandomFaults;
use rfsp::pram::{RunLimits, Word};
use rfsp::sim::{reference_run, simulate, Engine, Regs, SimProgram, SimWrite, REG_MAX};

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A pseudo-random but deterministic PRAM program: each processor reads a
/// seed-determined cell each step, mangles it into its registers, and
/// writes a digest to its own cell (own-cell writes keep it COMMON-legal
/// by construction).
#[derive(Clone, Debug)]
struct RandomProgram {
    n: usize,
    steps: usize,
    seed: u64,
}

impl SimProgram for RandomProgram {
    fn processors(&self) -> usize {
        self.n
    }

    fn memory_size(&self) -> usize {
        self.n
    }

    fn steps(&self) -> usize {
        self.steps
    }

    fn init_memory(&self, mem: &mut [Word]) {
        for (i, cell) in mem.iter_mut().enumerate() {
            *cell = splitmix(self.seed ^ i as u64) & 0xFFFF;
        }
    }

    fn read_addr(&self, pid: usize, t: usize, regs: &Regs) -> usize {
        // Mix the register state in so addressing is data-dependent
        // (exercising the non-oblivious read path).
        (splitmix(self.seed ^ ((pid as u64) << 32) ^ (t as u64) ^ regs.a as u64) as usize) % self.n
    }

    fn step(&self, pid: usize, t: usize, regs: &Regs, value: u32) -> (Regs, SimWrite) {
        let mixed = splitmix(value as u64 ^ ((regs.b as u64) << 20) ^ (t as u64));
        let a = (regs.a.wrapping_add(mixed as u32)) & REG_MAX;
        let b = (regs.b ^ (mixed >> 24) as u32) & REG_MAX;
        let write = if mixed.is_multiple_of(3) {
            SimWrite::Nop
        } else {
            SimWrite::Write { addr: pid, value: a ^ (t as u32) }
        };
        (Regs::new(a, b), write)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_simulate_exactly(
        n in 1usize..48,
        steps in 1usize..7,
        seed in any::<u64>(),
        p in 1usize..16,
        p_fail in 0.0f64..0.25,
    ) {
        let prog = RandomProgram { n, steps, seed };
        let expected = reference_run(&prog);
        for engine in [Engine::X, Engine::V, Engine::Interleaved] {
            let mut adv = RandomFaults::new(p_fail, 0.7, seed ^ 0xFA17);
            let report = simulate(
                prog.clone(), p, engine, &mut adv,
                RunLimits { max_cycles: 20_000_000 },
            ).expect("simulation must terminate");
            prop_assert_eq!(&report.memory, &expected, "engine {:?}", engine);
        }
    }
}

/// The register checkpoints also match the reference exactly: simulated
/// processor state survives real-processor failures bit for bit.
#[test]
fn register_checkpoints_survive_churn() {
    use rfsp::pram::LayoutBuilder;
    use rfsp::sim::SimTasks;

    let prog = RandomProgram { n: 24, steps: 5, seed: 0xABCD };

    // Reference register trace.
    let mut regs = vec![Regs::default(); prog.n];
    let mut mem: Vec<Word> = vec![0; prog.n];
    prog.init_memory(&mut mem);
    for t in 0..prog.steps {
        let reads: Vec<u32> =
            (0..prog.n).map(|i| mem[prog.read_addr(i, t, &regs[i])] as u32).collect();
        let mut writes = Vec::new();
        for i in 0..prog.n {
            let (r, w) = prog.step(i, t, &regs[i], reads[i]);
            regs[i] = r;
            if let SimWrite::Write { addr, value } = w {
                writes.push((addr, value));
            }
        }
        for (addr, value) in writes {
            mem[addr] = value as Word;
        }
    }

    // Faulty run, then extract the checkpointed registers.
    let mut layout = LayoutBuilder::new();
    let tasks = SimTasks::new(&mut layout, prog.clone());
    let algo = rfsp::core::AlgoX::new(&mut layout, tasks.clone(), 6, Default::default());
    let budget = algo.required_budget();
    let mut machine = rfsp::pram::Machine::new(&algo, 6, budget).unwrap();
    // AlgoX writes its task set's simulated input itself.
    let sim_tasks = algo.tasks();
    let mut adv = RandomFaults::new(0.1, 0.7, 99);
    machine.run(&mut adv).unwrap();
    for (i, expected) in regs.iter().enumerate() {
        assert_eq!(
            &sim_tasks.extract_regs(machine.memory(), i),
            expected,
            "simulated processor {i} registers diverged"
        );
    }
}
