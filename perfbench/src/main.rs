//! Command line of the rfsp benchmark:
//!
//! ```text
//! rfsp-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                --rfsp PATH [--out DIR] [--build KEY=VALUE]...
//! ```
//!
//! Prints human-readable lines, then one JSON result line last. Exits 0
//! when every output check passed, 1 when one failed (with a result line
//! if every metric was measured), 2 on a usage or set-up error (no result
//! line then).

use std::path::PathBuf;
use std::process::ExitCode;

use rfsp_perfbench::drive::{self, Ctx};
use rfsp_perfbench::host;
use rfsp_perfbench::inproc::InProc;
use rfsp_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use rfsp_perfbench::spans::Trace;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rfsp: Option<PathBuf>,
    out: PathBuf,
    build: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        rfsp: None,
        out: PathBuf::from("perfbench/out"),
        build: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--rfsp" => args.rfsp = Some(PathBuf::from(&value)),
            "--out" => args.out = PathBuf::from(&value),
            "--build" => {
                let (k, v) = value.split_once('=').ok_or("--build takes KEY=VALUE")?;
                args.build.push((k.to_string(), v.to_string()));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Removes the invocation's scratch directory on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    host::refuse_rfsp_env()?;
    let inproc = match args.workload.as_str() {
        "scale_nofail" => Some(InProc::ScaleNofail),
        "x_faults" => Some(InProc::XFaults),
        "snapshot_pigeonhole" => Some(InProc::SnapshotPigeonhole),
        "serve_jobs" => None,
        other => {
            return Err(format!(
                "unknown workload {other:?} (scale_nofail, x_faults, snapshot_pigeonhole, \
                 serve_jobs)"
            ))
        }
    };
    let rfsp = match (&args.rfsp, inproc) {
        (Some(path), _) => path.clone(),
        (None, None) => return Err("serve_jobs needs --rfsp PATH".into()),
        (None, Some(_)) => PathBuf::new(),
    };
    let dir = args.out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let scratch = Scratch(dir.clone());
    let nproc = host::nproc();
    let ctx = Ctx { seed: args.seed, budget_ns: args.seconds * 1_000_000_000, rfsp, dir, nproc };
    let mut out = Outcome::default();
    let mut trace = Trace::default();
    match (inproc, args.trace) {
        (Some(w), false) => drive::inproc_e2e(w, &ctx, &mut out),
        (Some(w), true) => drive::inproc_traced(w, &ctx, &mut trace, &mut out),
        (None, false) => drive::serve_e2e(&ctx, &mut out),
        (None, true) => drive::serve_traced(&ctx, &mut trace, &mut out),
    }
    let array_bytes =
        (InProc::ScaleNofail.geometry().n * std::mem::size_of::<rfsp_pram::Word>()) as u64;
    println!("host: {}", host::record(nproc, &args.build, &scratch.0, array_bytes));
    drop(scratch);
    if args.trace {
        let path = args.out.join(format!("trace-{}.jsonl", args.workload));
        trace.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", trace.spans().len(), path.display());
    }
    for line in &out.lines {
        println!("{line}");
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    match out.result_line(names, args.trace) {
        Ok(line) => println!("{line}"),
        // A check that failed early leaves metrics unmeasured: report the
        // failure without a result.
        Err(e) if !out.correct() => eprintln!("no result: {e}"),
        Err(e) => return Err(e),
    }
    Ok(out.correct())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
