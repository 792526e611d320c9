//! `rfsp soak` — the randomized chaos harness.
//!
//! Fuzzes program × adversary × injected host faults (program panics,
//! simulated kill/resume) and cross-checks every run against a reference
//! run: panic-recovery equivalence through a run session,
//! checkpoint/kill/resume equivalence, the Write-All
//! postcondition, and the paper's accounting invariants. The case mix
//! includes the §3 snapshot machine, whose kill/resume check exercises the
//! unified execution core's checkpointing from the snapshot side. The
//! first failing case is written as a minimal JSON replay file;
//! `rfsp soak --replay FILE` reproduces it from that file alone.
//!
//! ```text
//! rfsp soak --cases 64 --seed 7
//! rfsp soak --replay soak-failure.json
//! ```

use rfsp_bench::soak::{run_case, run_soak, CaseOutcome, SoakCase, SoakOptions};

use crate::args::{ArgError, Args};

fn describe(case: &SoakCase) -> String {
    format!(
        "{:?} n={} p={} panic={} kill={}",
        case.algo,
        case.n,
        case.p,
        case.panic.map_or("-".to_string(), |s| format!("P{}@{}", s.pid, s.on_call)),
        case.kill_at.map_or("-".to_string(), |t| t.to_string()),
    )
}

/// Execute the subcommand.
///
/// # Errors
///
/// Reports bad arguments, I/O problems, and — as the command's entire
/// point — reproducible cross-check failures as [`ArgError`].
pub fn run(args: &Args) -> Result<(), ArgError> {
    if let Some(path) = args.get("replay") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let case = SoakCase::from_json(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
        eprintln!("replaying {}", describe(&case));
        return match run_case(&case) {
            Ok(CaseOutcome::Passed { panic_fired }) => {
                println!("replay passed (injected panic fired: {panic_fired})");
                Ok(())
            }
            Ok(CaseOutcome::Skipped(why)) => {
                println!("replay inconclusive: {why}");
                Ok(())
            }
            Err(failure) => Err(ArgError(failure.to_string())),
        };
    }

    let opts = SoakOptions {
        cases: args.get_parsed("cases", SoakOptions::default().cases)?,
        seed: args.get_parsed("seed", SoakOptions::default().seed)?,
    };
    let verbose = args.flag("verbose");
    let result = run_soak(opts, |i, case, outcome| {
        if verbose {
            let verdict = match outcome {
                CaseOutcome::Passed { panic_fired: true } => "ok (panic injected)",
                CaseOutcome::Passed { panic_fired: false } => "ok",
                CaseOutcome::Skipped(_) => "skipped",
            };
            eprintln!("case {i:>4}: {} — {verdict}", describe(case));
        }
    });
    match result {
        Ok(summary) => {
            println!(
                "soak: {} cases passed, {} skipped, {} injected panics survived",
                summary.passed, summary.skipped, summary.panics_fired
            );
            Ok(())
        }
        Err(failure) => {
            let out = args.get_or("replay-out", "soak-failure.json");
            std::fs::write(out, failure.case.to_json())
                .map_err(|e| ArgError(format!("cannot write replay file {out}: {e}")))?;
            Err(ArgError(format!(
                "{failure}\nreplay file written: {out} (reproduce with: rfsp soak --replay {out})"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_soak_batch_via_cli() {
        let a = Args::parse(["soak", "--cases", "2", "--seed", "5"]).unwrap();
        run(&a).unwrap();
    }

    #[test]
    fn replay_of_a_written_case_file() {
        let dir = std::env::temp_dir().join("rfsp-soak-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.json");
        let case = rfsp_bench::soak::generate_case(5, 0);
        std::fs::write(&path, case.to_json()).unwrap();
        let a = Args::parse(["soak", "--replay", path.to_str().unwrap()]).unwrap();
        run(&a).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_rejects_garbage() {
        let dir = std::env::temp_dir().join("rfsp-soak-cli-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{").unwrap();
        let a = Args::parse(["soak", "--replay", path.to_str().unwrap()]).unwrap();
        assert!(run(&a).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
