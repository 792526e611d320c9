//! `rfsp lockfree` — algorithm X on real OS threads over atomics.

use std::time::Instant;

use rfsp_core::{run_lockfree_x, LockfreeOptions};
use rfsp_run::MAX_THREADS;

use crate::args::{ArgError, Args};

/// Execute the subcommand.
///
/// # Errors
///
/// Reports bad arguments as [`ArgError`].
pub fn run(args: &Args) -> Result<(), ArgError> {
    let n = args.get_size("n", 65_536)?;
    let threads = args.get_in("threads", 4, 1..=MAX_THREADS)? as usize;
    let fault_rate: f64 = args.get_parsed("fault-rate", 0.0)?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    if !(0.0..1.0).contains(&fault_rate) {
        return Err(ArgError("--fault-rate must be in [0, 1)".into()));
    }
    let start = Instant::now();
    let report = run_lockfree_x(n, threads, LockfreeOptions { fault_rate, seed });
    let wall = start.elapsed();
    println!("lock-free algorithm X: N = {n}, {threads} threads");
    println!("completed cycles : {}", report.completed_cycles);
    println!("cycles per cell  : {:.2}", report.completed_cycles as f64 / n as f64);
    println!("injected faults  : {}", report.failures);
    println!("wall time        : {wall:.1?}");
    println!("postcondition    : verified ✔ (asserted internally)");
    Ok(())
}
