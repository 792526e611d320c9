//! `rfsp experiment` — run one of the paper-reproduction experiments, or
//! (with `--run` / `--resume`) the crash-safe long-run mode of
//! [`longrun`](crate::commands::longrun).

use rfsp_bench::experiments;

use crate::args::{ArgError, Args};
use crate::commands::longrun;
use crate::{CliOutcome, StopSource};

/// Execute the subcommand; a long run takes its stop flag from `stop`.
///
/// # Errors
///
/// Reports an unknown experiment id as [`ArgError`].
pub fn run(args: &Args, stop: StopSource) -> Result<CliOutcome, ArgError> {
    if args.get("run").is_some() || args.get("resume").is_some() {
        return longrun::run(args, stop());
    }
    match args.get_or("id", "all") {
        "all" => experiments::run_all(),
        "e1" => experiments::e1::run(),
        "e2" => experiments::e2::run(),
        "e3" => experiments::e3::run(),
        "e4" => experiments::e4::run(),
        "e5" => experiments::e5::run(),
        "e6" => experiments::e6::run(),
        "e7" => experiments::e7::run(),
        "e8" => experiments::e8::run(),
        "e9" => experiments::e9::run(),
        "e10" => experiments::e10::run(),
        "e11" => experiments::e11::run(),
        "e12" => experiments::e12::run(),
        "e13" => experiments::e13::run(),
        other => {
            return Err(crate::unknown(
                "experiment",
                other,
                &[
                    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
                    "e13", "all",
                ],
            ))
        }
    }
    Ok(CliOutcome::Done)
}
