//! # rfsp-cli — drive the restartable fail-stop PRAM toolkit from a shell
//!
//! ```text
//! rfsp writeall   --algo x --n 1024 --p 64 --adversary random --rate 0.05
//! rfsp writeall   --algo x --adversary xkiller --record-pattern killer.pat
//! rfsp writeall   --algo v --adversary replay --replay-pattern killer.pat
//! rfsp simulate   --kernel prefix --n 512 --p 16 --engine vx
//! rfsp lockfree   --n 65536 --threads 8 --fault-rate 0.01
//! rfsp trace      --algo v --n 256 --adversary random --rate 0.1 --metrics -
//! rfsp experiment --id e7
//! ```
//!
//! The binary is a thin shell over the workspace crates; everything it can
//! do is equally available as a library API.

pub mod args;
pub mod commands;
pub mod signals;

// The failure-pattern codec moved into the `rfsp-run` session layer (the
// daemon needs it too); this re-export keeps the CLI's historical path.
pub use rfsp_run::pattern_io;

use std::sync::atomic::AtomicBool;

use args::{ArgError, Args};

/// Where a crash-safe long run gets its stop flag: called once when such
/// a run starts, and the run pauses (checkpointed, exit code 3) once the
/// flag is set. The `rfsp` binary passes [`signals::install`], which arms
/// the SIGINT handler; every other command keeps the default SIGINT
/// disposition. Tests pass a flag of their own.
pub type StopSource = fn() -> &'static AtomicBool;

/// How a successfully dispatched command ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CliOutcome {
    /// The command ran to completion (exit code 0).
    Done,
    /// A long run was interrupted by SIGINT after flushing telemetry and
    /// writing its final checkpoint (exit code 3 — distinct from errors,
    /// so wrappers can tell "resume me" from "I broke").
    Interrupted,
}

/// Usage text.
pub const USAGE: &str = "\
rfsp — efficient parallel algorithms on restartable fail-stop processors
       (Kanellakis & Shvartsman, PODC 1991)

USAGE: rfsp <COMMAND> [--key value]... [--flag]...

Each command takes only the options listed under it. Sizes are at least
1; --n is at most 2^28 cells and --p at most 2^20 processors.
writeall, trace, experiment --run writeall and submit describe one
Write-All run the same way: they take the same --adversary kinds, and
each of their shared options means the same in all four.

COMMANDS:
  writeall     solve a Write-All instance under an adversary
               --algo x|v|w|vx|x-inplace|acc   --n SIZE --p PROCS
               --adversary none|thrashing|pigeonhole|pigeonhole-failstop|
                           random|offline|xkiller|stalking|replay|bursty
                                  (xkiller needs --algo x or vx)
               --rate F --restart-rate F --seed S --fault-budget M
               --target CELL      stalking: the stalked cell (default
                                  N - 1; must be below --n)
               --no-restarts
               --replay-pattern FILE --max-cycles C
               --record-pattern FILE
               --banks B          partition shared memory into B banks
                                  (default 1 = flat); runs are bit-
                                  identical across layouts
               --interleave I     cells per block in the block-cyclic
                                  bank mapping (default 1 = word)
  simulate     execute a PRAM kernel fault-tolerantly (Theorem 4.1)
               --kernel prefix|sum|max|sort|listrank|matvec|components
               --n SIZE --p PROCS --engine x|v|vx
               --adversary none|random --rate F --restart-rate F --seed S
               (--n at most 65534; a kernel past the simulation's
               memory or step limit is refused)
  lockfree     run algorithm X on real OS threads over atomics
               --n SIZE --threads T --fault-rate F --seed S
  trace        run a Write-All instance under full telemetry and export it
               the writeall options from --algo to --max-cycles above
               (not --record-pattern, --banks or --interleave),
               plus:
               --model word|snapshot  machine model (default word; the
                                  snapshot model ignores --algo)
               --events FILE|-    raw machine-event stream, JSONL
               --metrics FILE|-   per-tick metrics series
               --format csv|jsonl metrics format (default csv)
               --tail K           keep only the last K events
  experiment   reproduce a paper result  --id e1..e13|all
               or run the crash-safe long-run mode:
               --run writeall     --algo/--n/--p as writeall
               --adversary KIND   any writeall adversary, checkpointed
                                  and resumable like the rest of the run
               --rate F --restart-rate F --seed S --replay-pattern FILE
               --checkpoint FILE  write a resumable snapshot (atomic
                                  tmp+fsync+rename) on the policy's
                                  cadence and on SIGINT
               --policy P         checkpoint policy: fixed:K (snapshot
                                  every K ticks) or adaptive (steer the
                                  interval toward the Young/Daly optimum
                                  from the live failure intensity)
               --every K          fixed-policy cadence in ticks
                                  (default 100; must be >= 1)
               --events FILE      stream raw machine events as JSONL; a
                                  resumed run truncates it to the
                                  checkpointed offset, so the final stream
                                  is byte-identical to an uninterrupted run
               --resume CK        continue from a checkpoint file (all
                                  other flags come from the checkpoint)
  soak         randomized chaos harness: fuzz program x adversary x
               injected host faults and cross-check equivalences
               --cases K --seed S --verbose
               --replay-out FILE  where to write a failing case
                                  (default soak-failure.json)
               --replay FILE      reproduce a failure from its replay file
  serve        run the multi-tenant experiment daemon over a local socket
               --spool DIR        job spool (default rfsp-spool); every job
                                  directory is independently resumable, so
                                  a restarted daemon re-adopts all of them
               --socket PATH      Unix socket (default <spool>/rfsp.sock)
               --quantum K        scheduling quantum in ticks (default 50);
                                  jobs are preempted only at checkpoint
                                  boundaries, round-robin, so no job waits
                                  more than (jobs - 1) quanta for a turn
  submit       queue a run on the daemon  --socket PATH, then the same
               flags as 'experiment --run writeall' except --checkpoint
               and --events (the daemon keeps both in its spool); add
               --watch to stream the job's live telemetry to stdout
  jobs         list the daemon's jobs     --socket PATH
  cancel       stop a job at its next checkpoint  --socket PATH --job N
               (--shutdown instead stops every job and exits the daemon)
  help         show this text

EXIT CODES:
  0  success
  1  runtime error (I/O, machine error, failed cross-check, daemon refusal)
  2  usage error (unknown command, an option the command does not
     take, or a malformed command line)
  3  long run interrupted by SIGINT; telemetry flushed and, when
     --checkpoint is set, a final checkpoint written for --resume
";

/// The [`rfsp_run::RunConfig`] keys `writeall` and `trace` take.
const INSTANCE_OPTIONS: &str = "algo n p adversary rate restart-rate seed fault-budget target \
                                no-restarts replay-pattern max-cycles";

/// The [`rfsp_run::RunConfig`] keys of a crash-safe long run
/// (`experiment --run writeall`) that `submit` forwards to the daemon.
/// The daemon keeps each job's checkpoint and events in its spool, so
/// `submit` takes neither `--checkpoint` nor `--events`.
const LONG_RUN_OPTIONS: &str = "algo n p adversary rate restart-rate seed replay-pattern every \
                                policy max-cycles";

/// Every subcommand `dispatch` accepts, with the keys it takes as groups
/// of space-separated names; [`run_cli`] refuses any other key as a usage
/// error.
pub const COMMANDS: &[(&str, &[&str])] = &[
    ("writeall", &[INSTANCE_OPTIONS, "record-pattern banks interleave"]),
    ("simulate", &["kernel n p engine adversary rate restart-rate seed"]),
    ("lockfree", &["n threads fault-rate seed"]),
    ("trace", &[INSTANCE_OPTIONS, "model events metrics format tail"]),
    ("experiment", &["id run resume checkpoint events", LONG_RUN_OPTIONS]),
    ("soak", &["cases seed verbose replay-out replay"]),
    ("serve", &["spool socket quantum"]),
    ("submit", &[LONG_RUN_OPTIONS, "socket watch"]),
    ("jobs", &["socket"]),
    ("cancel", &["socket job shutdown"]),
    ("help", &[]),
];

/// The keys in [`COMMANDS`] that are flags: they take no value.
pub const FLAGS: &[&str] = &["no-restarts", "verbose", "watch", "shutdown"];

/// Refuse a key the command does not take, a value after a flag, and a
/// flag where an option needs a value. A missing command (which prints
/// the usage text) and an unknown one are left to [`dispatch`].
fn check_keys(args: &Args) -> Result<(), ArgError> {
    let Some(command) = args.command.as_deref() else { return Ok(()) };
    let Some(&(_, groups)) = COMMANDS.iter().find(|(c, _)| *c == command) else {
        return Ok(());
    };
    let takes = groups.iter().flat_map(|g| g.split_whitespace());
    for (key, has_value) in args.keys() {
        if !takes.clone().any(|k| k == key) {
            let takes: Vec<String> = takes.map(|k| format!("--{k}")).collect();
            let takes = if takes.is_empty() { "none".into() } else { takes.join(", ") };
            return Err(ArgError(format!(
                "'rfsp {command}' takes no option --{key} (it takes: {takes})"
            )));
        }
        match (FLAGS.contains(&key), has_value) {
            (true, true) => return Err(ArgError(format!("--{key} is a flag and takes no value"))),
            (false, false) => return Err(ArgError(format!("--{key} needs a value"))),
            _ => {}
        }
    }
    Ok(())
}

/// The unified "unknown X" error: name what was given and what would have
/// been accepted, the same shape for commands, algorithms, adversaries,
/// kernels, and formats.
pub fn unknown(what: &str, got: &str, expected: &[&str]) -> ArgError {
    ArgError(format!("unknown {what} '{got}' (expected one of: {})", expected.join(", ")))
}

/// Dispatch a parsed command line; a long run takes its stop flag from
/// `stop`.
///
/// # Errors
///
/// Every user-facing problem is an [`ArgError`] with a printable message.
pub fn dispatch(args: &Args, stop: StopSource) -> Result<CliOutcome, ArgError> {
    let done = |r: Result<(), ArgError>| r.map(|()| CliOutcome::Done);
    match args.command.as_deref() {
        Some("writeall") => done(commands::writeall::run(args)),
        Some("simulate") => done(commands::simulate::run(args)),
        Some("lockfree") => done(commands::lockfree::run(args)),
        Some("trace") => done(commands::trace::run(args)),
        Some("experiment") => commands::experiment::run(args, stop),
        Some("soak") => done(commands::soak::run(args)),
        Some("serve") => done(commands::serve::serve(args)),
        Some("submit") => done(commands::serve::submit(args)),
        Some("jobs") => done(commands::serve::jobs(args)),
        Some("cancel") => done(commands::serve::cancel(args)),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(CliOutcome::Done)
        }
        Some(other) => {
            let names: Vec<&str> = COMMANDS.iter().map(|(c, _)| *c).collect();
            Err(unknown("command", other, &names))
        }
    }
}

/// The whole CLI as a function: parse, dispatch, and map the outcome to
/// the documented exit-code table (see `EXIT CODES` in [`USAGE`]).
///
/// * `0` — success.
/// * `1` — runtime error (I/O, machine error, failed cross-check).
/// * `2` — usage error: malformed command line, unknown command, or an
///   option the command does not take (see [`COMMANDS`]).
/// * `3` — long run interrupted by SIGINT after checkpointing.
pub fn run_cli<I, S>(raw: I, stop: StopSource) -> u8
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args = match Args::parse(raw).and_then(|a| check_keys(&a).map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try 'rfsp help'");
            return 2;
        }
    };
    let usage_error =
        args.command.as_deref().is_some_and(|c| COMMANDS.iter().all(|(name, _)| *name != c));
    match dispatch(&args, stop) {
        Ok(CliOutcome::Done) => 0,
        // Interrupted-with-checkpoint: distinct from errors so callers can
        // script "rerun with --resume".
        Ok(CliOutcome::Interrupted) => 3,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try 'rfsp help'");
            if usage_error {
                2
            } else {
                1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stop source that never fires: unit tests must not share the
    /// binary's SIGINT flag.
    fn never() -> &'static AtomicBool {
        static NEVER: AtomicBool = AtomicBool::new(false);
        &NEVER
    }

    #[test]
    fn help_and_unknown_commands() {
        let a = Args::parse(Vec::<String>::new()).unwrap();
        dispatch(&a, never).unwrap();
        let a = Args::parse(["bogus"]).unwrap();
        let Err(e) = dispatch(&a, never) else { panic!("unknown command accepted") };
        assert!(e.0.contains("unknown command 'bogus'"), "{e}");
        assert!(e.0.contains("expected one of"), "{e}");
    }

    #[test]
    fn exit_codes_follow_the_documented_table() {
        // 0 — success.
        assert_eq!(run_cli(["help"], never), 0);
        assert_eq!(run_cli(["writeall", "--n", "32", "--p", "8"], never), 0);
        // 2 — usage: unknown command, malformed command line, and an
        // option the command does not take (a typo, another command's
        // option, a removed option).
        assert_eq!(run_cli(["bogus"], never), 2);
        assert_eq!(run_cli(["writeall", "stray-positional"], never), 2);
        for argv in [
            &["trace", "--n", "64", "--p", "4", "--threads", "2", "--bogus-flag", "7"][..],
            &["writeall", "--n", "64", "--p", "4", "--thread", "2"],
            &["writeall", "--n", "64", "--p", "4", "--batch-width", "1"],
            &["writeall", "--n", "64", "--p", "4", "--threads", "2"],
            &["experiment", "--run", "writeall", "--threads", "2"],
            &["submit", "--socket", "/no/such.sock", "--threads", "2"],
            &["serve", "--workers", "2"],
            &["jobs", "--job", "3"],
            &["soak", "--verbose", "yes"],
            &["experiment", "--checkpoint", "--run", "writeall"],
        ] {
            assert_eq!(run_cli(argv.iter().copied(), never), 2, "{argv:?}");
        }
        assert_eq!(run_cli(["--help"], never), 0);
        // 1 — runtime: a known command that fails while running.
        assert_eq!(run_cli(["writeall", "--algo", "zzz"], never), 1);
        assert_eq!(run_cli(["experiment", "--resume", "/no/such/ck.json"], never), 1);
        // 3 — interrupted-with-checkpoint — exercised against the real
        // binary (signal delivery) in tests/exit_codes.rs.
    }

    /// Each command keeps exactly the keys it has always taken, whatever
    /// the tables are built from.
    #[test]
    fn commands_take_their_pinned_keys() {
        let pinned: &[(&str, &str)] = &[
            (
                "writeall",
                "algo n p adversary rate restart-rate seed fault-budget target no-restarts \
                 replay-pattern max-cycles record-pattern banks interleave",
            ),
            ("simulate", "kernel n p engine adversary rate restart-rate seed"),
            ("lockfree", "n threads fault-rate seed"),
            (
                "trace",
                "algo n p adversary rate restart-rate seed fault-budget target no-restarts \
                 replay-pattern max-cycles model events metrics format tail",
            ),
            (
                "experiment",
                "id run resume checkpoint events algo n p adversary rate restart-rate seed \
                 replay-pattern every policy max-cycles",
            ),
            ("soak", "cases seed verbose replay-out replay"),
            ("serve", "spool socket quantum"),
            (
                "submit",
                "algo n p adversary rate restart-rate seed replay-pattern every policy max-cycles \
                 socket watch",
            ),
            ("jobs", "socket"),
            ("cancel", "socket job shutdown"),
            ("help", ""),
        ];
        let sorted = |keys: &mut dyn Iterator<Item = &'static str>| {
            let mut keys: Vec<&str> = keys.collect();
            keys.sort_unstable();
            keys
        };
        assert_eq!(COMMANDS.len(), pinned.len());
        for (&(command, groups), &(name, keys)) in COMMANDS.iter().zip(pinned) {
            assert_eq!(command, name);
            let takes = sorted(&mut groups.iter().flat_map(|g| g.split_whitespace()));
            assert_eq!(takes, sorted(&mut keys.split_whitespace()), "{command}");
        }
    }

    #[test]
    fn small_writeall_runs_end_to_end() {
        let a = Args::parse([
            "writeall",
            "--n",
            "32",
            "--p",
            "8",
            "--algo",
            "x",
            "--adversary",
            "random",
            "--rate",
            "0.1",
            "--seed",
            "7",
        ])
        .unwrap();
        dispatch(&a, never).unwrap();
    }

    #[test]
    fn banked_writeall_runs_end_to_end() {
        let a = Args::parse([
            "writeall",
            "--n",
            "32",
            "--p",
            "8",
            "--algo",
            "x",
            "--banks",
            "4",
            "--interleave",
            "2",
        ])
        .unwrap();
        dispatch(&a, never).unwrap();
        let a = Args::parse(["writeall", "--n", "32", "--p", "8", "--banks", "0"]).unwrap();
        assert!(dispatch(&a, never).is_err());
    }

    #[test]
    fn small_simulation_runs_end_to_end() {
        let a =
            Args::parse(["simulate", "--kernel", "sum", "--n", "16", "--p", "4", "--engine", "x"])
                .unwrap();
        dispatch(&a, never).unwrap();
    }

    #[test]
    fn lockfree_runs_end_to_end() {
        let a = Args::parse(["lockfree", "--n", "256", "--threads", "2"]).unwrap();
        dispatch(&a, never).unwrap();
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join("rfsp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pattern.pat");
        let path_s = path.to_str().unwrap();
        let a = Args::parse([
            "writeall",
            "--n",
            "32",
            "--p",
            "8",
            "--adversary",
            "random",
            "--rate",
            "0.2",
            "--seed",
            "3",
            "--record-pattern",
            path_s,
        ])
        .unwrap();
        dispatch(&a, never).unwrap();
        let a = Args::parse([
            "writeall",
            "--n",
            "32",
            "--p",
            "8",
            "--adversary",
            "replay",
            "--replay-pattern",
            path_s,
        ])
        .unwrap();
        dispatch(&a, never).unwrap();
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn trace_exports_events_and_metrics() {
        let dir = std::env::temp_dir().join("rfsp-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("run.jsonl");
        let metrics = dir.join("run.csv");
        let a = Args::parse([
            "trace",
            "--n",
            "32",
            "--p",
            "8",
            "--algo",
            "v",
            "--adversary",
            "random",
            "--rate",
            "0.1",
            "--seed",
            "7",
            "--events",
            events.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        dispatch(&a, never).unwrap();
        let ev = std::fs::read_to_string(&events).unwrap();
        assert!(ev.lines().next().unwrap().contains("TickStart"));
        let mx = std::fs::read_to_string(&metrics).unwrap();
        assert!(mx.starts_with(rfsp_pram::TickMetrics::CSV_HEADER));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_tail_keeps_a_bounded_window() {
        let a = Args::parse([
            "trace",
            "--n",
            "64",
            "--p",
            "8",
            "--adversary",
            "random",
            "--rate",
            "0.2",
            "--seed",
            "1",
            "--tail",
            "10",
            "--format",
            "jsonl",
            "--metrics",
            std::env::temp_dir().join("rfsp-trace-tail.jsonl").to_str().unwrap(),
        ])
        .unwrap();
        dispatch(&a, never).unwrap();
        let _ = std::fs::remove_file(std::env::temp_dir().join("rfsp-trace-tail.jsonl"));
    }

    #[test]
    fn bad_arguments_are_reported() {
        let a = Args::parse(["writeall", "--algo", "zzz"]).unwrap();
        assert!(dispatch(&a, never).is_err());
        let a = Args::parse(["simulate", "--kernel", "zzz"]).unwrap();
        assert!(dispatch(&a, never).is_err());
        let a = Args::parse(["experiment", "--id", "e99"]).unwrap();
        assert!(dispatch(&a, never).is_err());
        let a = Args::parse(["lockfree", "--fault-rate", "2.0"]).unwrap();
        assert!(dispatch(&a, never).is_err());
    }
}
