//! `rfsp writeall` — run one Write-All instance and report the accounting.

use rfsp_adversary::{
    offline_random, Budgeted, Pigeonhole, RandomFaults, Stalking, StalkingMode, Thrashing, XKiller,
};
use rfsp_bench::{run_write_all, Algo, WriteAllSetup, WriteAllSpec};
use rfsp_pram::{
    Adversary, ExecMode, MemoryLayout, NoFailures, NoopObserver, RunLimits, ScheduledAdversary,
};
use rfsp_run::{MAX_PROCESSORS, MAX_SIZE, MAX_THREADS};

use crate::args::{ArgError, Args};
use crate::pattern_io;

/// Parse `--banks B [--interleave I]` into a [`MemoryLayout`] (flat when
/// `--banks` is absent or 1 with word interleaving).
pub(crate) fn parse_layout(args: &Args) -> Result<MemoryLayout, ArgError> {
    let banks: usize = args.get_parsed("banks", 1)?;
    let interleave: usize = args.get_parsed("interleave", 1)?;
    if banks == 0 || interleave == 0 {
        return Err(ArgError("--banks and --interleave must be at least 1".into()));
    }
    Ok(if banks == 1 && interleave == 1 {
        MemoryLayout::Flat
    } else {
        MemoryLayout::Banked { banks, interleave }
    })
}

/// Read `--n` and `--p` (defaults 1024 and 64), each refused outside
/// `1..=`[`MAX_SIZE`] and `1..=`[`MAX_PROCESSORS`] before anything is
/// allocated.
pub(crate) fn parse_sizes(args: &Args) -> Result<(usize, usize), ArgError> {
    let n = args.get_in("n", 1024, 1..=MAX_SIZE as usize)?;
    let p = args.get_in("p", 64, 1..=MAX_PROCESSORS as usize)?;
    Ok((n, p))
}

pub(crate) fn parse_algo(name: &str) -> Result<Algo, ArgError> {
    Ok(match name {
        "x" => Algo::X,
        "v" => Algo::V,
        "w" => Algo::W,
        "vx" | "interleaved" => Algo::Interleaved,
        "x-inplace" | "inplace" => Algo::XInPlace,
        "acc" => Algo::Acc(0),
        other => {
            return Err(crate::unknown(
                "algorithm",
                other,
                &["x", "v", "w", "vx", "x-inplace", "acc"],
            ))
        }
    })
}

pub(crate) fn build_adversary(
    args: &Args,
    setup: &WriteAllSetup,
    n: usize,
) -> Result<Box<dyn Adversary>, ArgError> {
    let seed: u64 = args.get_parsed("seed", 0)?;
    let adv: Box<dyn Adversary> = match args.get_or("adversary", "none") {
        "none" => Box::new(NoFailures),
        "thrashing" => Box::new(Thrashing::new()),
        "pigeonhole" => Box::new(Pigeonhole::new(setup.tasks.x())),
        "pigeonhole-failstop" => Box::new(Pigeonhole::fail_stop(setup.tasks.x())),
        "random" => {
            let rate = args.get_in("rate", 0.05, 0.0..=1.0)?;
            let restart = args.get_in("restart-rate", 0.5, 0.0..=1.0)?;
            Box::new(RandomFaults::new(rate, restart, seed))
        }
        "offline" => {
            let rate = args.get_in("rate", 0.05, 0.0..=1.0)?;
            let restart = args.get_in("restart-rate", 0.5, 0.0..=1.0)?;
            let p: usize = args.get_parsed("p", 64)?;
            Box::new(offline_random(p, 1_000_000, rate, restart, seed))
        }
        "xkiller" => {
            let layout = setup
                .x_layout
                .ok_or_else(|| ArgError("--adversary xkiller needs --algo x".into()))?;
            let tree = setup.tree.expect("algorithms with an X layout have a tree");
            Box::new(XKiller::new(setup.tasks.x(), layout, tree))
        }
        "stalking" => {
            let target: usize = args.get_parsed("target", n - 1)?;
            let mode = if args.flag("no-restarts") {
                StalkingMode::FailStop
            } else {
                StalkingMode::Restart
            };
            Box::new(Stalking::new(setup.tasks.x(), target, mode))
        }
        "replay" => {
            let path = args
                .get("replay-pattern")
                .ok_or_else(|| ArgError("--adversary replay needs --replay-pattern FILE".into()))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
            Box::new(ScheduledAdversary::new(pattern_io::decode(&text)?))
        }
        other => {
            return Err(crate::unknown(
                "adversary",
                other,
                &[
                    "none",
                    "thrashing",
                    "pigeonhole",
                    "pigeonhole-failstop",
                    "random",
                    "offline",
                    "xkiller",
                    "stalking",
                    "replay",
                ],
            ))
        }
    };
    Ok(match args.get("fault-budget") {
        Some(_) => Box::new(Budgeted::new(adv, args.get_parsed("fault-budget", 0)?)),
        None => adv,
    })
}

/// Execute the subcommand.
///
/// # Errors
///
/// Reports bad arguments, I/O problems, and machine errors as [`ArgError`].
pub fn run(args: &Args) -> Result<(), ArgError> {
    let (n, p) = parse_sizes(args)?;
    let algo = parse_algo(args.get_or("algo", "x"))?;
    let max_cycles: u64 = args.get_parsed("max-cycles", RunLimits::default().max_cycles)?;
    let threads = args.get_in("threads", 1, 1..=MAX_THREADS)? as usize;
    let mem_layout = parse_layout(args)?;
    let spec = WriteAllSpec {
        exec: ExecMode::Threads(threads),
        layout: mem_layout,
        ..WriteAllSpec::new(algo, n, p)
    };

    let mut build_err = None;
    let result = run_write_all(
        &spec,
        |setup| match build_adversary(args, setup, n) {
            Ok(adv) => adv,
            Err(e) => {
                build_err = Some(e);
                Box::new(NoFailures)
            }
        },
        RunLimits { max_cycles },
        &mut NoopObserver,
    );
    if let Some(e) = build_err {
        return Err(e);
    }
    let run = result.map_err(|e| ArgError(format!("machine error: {e}")))?;
    if !run.verified {
        return Err(ArgError("postcondition failed: array not fully written".into()));
    }

    let s = run.report.stats.completed_work();
    println!("algorithm       : {}", algo.name());
    let engine = if threads == 1 { "seq".to_string() } else { format!("pool{threads}") };
    println!("tick engine     : {engine}");
    println!("memory layout   : {mem_layout}");
    println!("instance        : N = {n}, P = {p}");
    println!("adversary       : {}", args.get_or("adversary", "none"));
    println!("completed work S: {s}");
    println!("S' (with partial): {}", run.report.stats.s_prime());
    println!("parallel time τ : {}", run.report.stats.parallel_time);
    println!("|F| (fail+restart): {}", run.report.stats.pattern_size());
    println!("overhead ratio σ: {:.4}", run.report.overhead_ratio(n as u64));
    println!("S / (N log2 N)  : {:.4}", s as f64 / (n as f64 * (n as f64).log2().max(1.0)));

    if let Some(path) = args.get("record-pattern") {
        std::fs::write(path, pattern_io::encode(&run.report.pattern))
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("pattern recorded: {path} ({} events)", run.report.pattern.size());
    }
    Ok(())
}
