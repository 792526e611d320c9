//! The CLI subcommands.

pub mod experiment;
pub mod lockfree;
pub mod longrun;
pub mod serve;
pub mod simulate;
pub mod soak;
pub mod trace;
pub mod writeall;

use rfsp_pram::PolicyKind;
use rfsp_run::RunConfig;

use crate::args::{ArgError, Args};

/// The one parse of a Write-All run, shared by `writeall`, `trace`,
/// `experiment --run writeall` and `submit`: every [`RunConfig`] key the
/// command was given, the default for the rest, then
/// [`RunConfig::validate`]. The command's own options (`trace`'s exports,
/// `writeall`'s layout and pattern recording) are its own to read.
pub(crate) fn config_from_args(args: &Args) -> Result<RunConfig, ArgError> {
    let d = RunConfig::default();
    let mut every = args.get_parsed("every", d.every)?;
    let policy = match args.get("policy") {
        None => d.policy,
        Some(text) => match PolicyKind::parse(text).map_err(ArgError)? {
            PolicyKind::Adaptive => {
                if args.get("every").is_some() {
                    return Err(ArgError(
                        "--policy adaptive chooses its own cadence; drop --every".into(),
                    ));
                }
                "adaptive".to_string()
            }
            PolicyKind::Fixed(k) => {
                if args.get("every").is_some() {
                    return Err(ArgError(
                        "--policy fixed:K already names the cadence; drop --every".into(),
                    ));
                }
                every = k;
                "fixed".to_string()
            }
        },
    };
    let cfg = RunConfig {
        algo: args.get_or("algo", &d.algo).to_string(),
        n: args.get_parsed("n", d.n)?,
        p: args.get_parsed("p", d.p)?,
        adversary: args.get_or("adversary", &d.adversary).to_string(),
        rate: args.get_parsed("rate", d.rate)?,
        restart_rate: args.get_parsed("restart-rate", d.restart_rate)?,
        seed: args.get_parsed("seed", d.seed)?,
        replay_pattern: args.get("replay-pattern").map(str::to_string),
        fault_budget: args.get_opt("fault-budget")?,
        target: args.get_opt("target")?,
        no_restarts: args.flag("no-restarts"),
        every,
        policy,
        max_cycles: args.get_parsed("max-cycles", d.max_cycles)?,
        checkpoint: args.get("checkpoint").map(str::to_string),
        events: args.get("events").map(str::to_string),
    };
    cfg.validate()?;
    Ok(cfg)
}
