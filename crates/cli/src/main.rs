//! The `rfsp` binary: one call into the library's [`rfsp_cli::run_cli`],
//! which owns parsing, dispatch, and the documented exit-code table. The
//! binary alone wires SIGINT: it hands [`rfsp_cli::signals::install`] down,
//! and a long run calls it to arm the handler and get its stop flag.

use std::process::ExitCode;

fn main() -> ExitCode {
    ExitCode::from(rfsp_cli::run_cli(std::env::args().skip(1), rfsp_cli::signals::install))
}
