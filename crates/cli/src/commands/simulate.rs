//! `rfsp simulate` — run a PRAM kernel fault-tolerantly (Theorem 4.1) and
//! verify its output against the failure-free reference.

use rfsp_adversary::RandomFaults;
use rfsp_pram::{NoFailures, RunLimits};
use rfsp_sim::programs::{
    Components, ListRanking, MatVec, MaxFind, OddEvenSort, ParallelSum, PrefixSums,
};
use rfsp_sim::{reference_run, simulate, Engine, SimProgram, SimReport};

use crate::args::{ArgError, Args};

fn parse_engine(name: &str) -> Result<Engine, ArgError> {
    Ok(match name {
        "x" => Engine::X,
        "v" => Engine::V,
        "vx" | "interleaved" => Engine::Interleaved,
        other => return Err(crate::unknown("engine", other, &["x", "v", "vx"])),
    })
}

fn run_kernel<P: SimProgram + Sync + Clone>(prog: P, args: &Args) -> Result<SimReport, ArgError> {
    let p = args.get_size("p", 16)?;
    let engine = parse_engine(args.get_or("engine", "vx"))?;
    let expected = reference_run(&prog);
    let report = match args.get_or("adversary", "random") {
        "none" => simulate(prog, p, engine, &mut NoFailures, RunLimits::default()),
        "random" => {
            let rate = args.get_in("rate", 0.02, 0.0..=1.0)?;
            let restart = args.get_in("restart-rate", 0.6, 0.0..=1.0)?;
            let seed: u64 = args.get_parsed("seed", 0)?;
            let mut adv = RandomFaults::new(rate, restart, seed);
            simulate(prog, p, engine, &mut adv, RunLimits::default())
        }
        other => return Err(crate::unknown("adversary", other, &["none", "random"])),
    }
    .map_err(|e| ArgError(format!("machine error: {e}")))?;
    if report.memory != expected {
        return Err(ArgError("simulated output differs from the reference run".into()));
    }
    Ok(report)
}

/// Execute the subcommand.
///
/// # Errors
///
/// Reports bad arguments and verification failures as [`ArgError`].
pub fn run(args: &Args) -> Result<(), ArgError> {
    let n = args.get_size("n", 256)?;
    let kernel = args.get_or("kernel", "prefix");
    let report = match kernel {
        "prefix" => run_kernel(PrefixSums::new((0..n as u32).map(|i| i % 9).collect()), args)?,
        "sum" => run_kernel(ParallelSum::new((0..n as u32).map(|i| i % 5).collect()), args)?,
        "max" => run_kernel(MaxFind::new((0..n as u32).map(|i| (i * 37) % 1000).collect()), args)?,
        "sort" => run_kernel(OddEvenSort::new((0..n as u32).rev().collect()), args)?,
        "listrank" => run_kernel(ListRanking::chain(n), args)?,
        "components" => {
            // A ring plus chords: one component.
            let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            edges.extend((0..n / 3).map(|i| (i, (i * 7 + 2) % n)));
            run_kernel(Components::new(n.max(2), &edges), args)?
        }
        "matvec" => {
            let m = 8usize.min(n.max(1));
            let a = (0..n).map(|i| (0..m).map(|j| ((i + j) % 5) as u32).collect()).collect();
            let x = (0..m as u32).map(|j| j % 3 + 1).collect();
            run_kernel(MatVec::new(a, x), args)?
        }
        other => {
            return Err(crate::unknown(
                "kernel",
                other,
                &["prefix", "sum", "max", "sort", "listrank", "matvec", "components"],
            ))
        }
    };
    println!("kernel           : {kernel}");
    println!("simulated        : N = {}, τ = {} steps", report.sim_processors, report.sim_steps);
    println!("output           : verified against failure-free reference ✔");
    println!("completed work S : {}", report.run.stats.completed_work());
    println!("|F|              : {}", report.run.stats.pattern_size());
    println!("S / (τ·N)        : {:.2}", report.work_ratio());
    println!("overhead ratio σ : {:.3}", report.run.overhead_ratio(report.sim_processors as u64));
    Ok(())
}
