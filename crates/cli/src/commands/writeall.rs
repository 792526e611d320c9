//! `rfsp writeall` — run one Write-All instance and report the accounting.

use rfsp_bench::run_write_all;
use rfsp_pram::{MemoryLayout, NoopObserver};
use rfsp_run::{build_adversary, WriteAllSpec};

use crate::args::{ArgError, Args};
use crate::commands::config_from_args;
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

/// Execute the subcommand.
///
/// # Errors
///
/// Reports bad arguments, I/O problems, and machine errors as [`ArgError`].
pub fn run(args: &Args) -> Result<(), ArgError> {
    let cfg = config_from_args(args)?;
    let mem_layout = parse_layout(args)?;
    let spec = WriteAllSpec { layout: mem_layout, ..cfg.spec()? };
    let adversary = build_adversary(&cfg, &spec.setup())?;
    let run = run_write_all(&spec, |_| adversary, cfg.limits(), &mut NoopObserver)
        .map_err(|e| ArgError(format!("machine error: {e}")))?;
    if !run.verified {
        return Err(ArgError("postcondition failed: array not fully written".into()));
    }

    let (n, p) = (spec.n, spec.p);
    let s = run.report.stats.completed_work();
    println!("algorithm       : {}", spec.algo.name());
    println!("memory layout   : {mem_layout}");
    println!("instance        : N = {n}, P = {p}");
    println!("adversary       : {}", cfg.adversary);
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
