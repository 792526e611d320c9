//! `rfsp experiment --run writeall` — the crash-safe long-run mode.
//!
//! Unlike `rfsp writeall` (one shot, in memory), this mode is built to
//! survive its host: the machine runs on the panic-isolating engine with
//! graceful sequential degradation, writes a versioned checkpoint on the
//! cadence a policy engine dictates (and on SIGINT) via an atomic
//! tmp-file + fsync + rename, and streams raw machine events to a JSONL
//! file whose flushed length is recorded in each checkpoint.
//! `rfsp experiment --resume ck.json` reconstructs everything from the
//! checkpoint alone — config, machine, adversary cursor, policy-engine
//! state — truncates the events file back to the recorded offset, and
//! continues; the resulting event stream, stats, and final memory are
//! bit-identical to an uninterrupted run.
//!
//! All of that machinery lives in [`rfsp_run::RunSession`] (shared with
//! the soak harness's crash-recovery lanes and the `rfsp serve` daemon);
//! this module is only the CLI skin: the program visitor, the stop flag,
//! and the completion summary. Its options parse into a [`RunConfig`]
//! like every Write-All command's, so every adversary kind of
//! [`rfsp_run::build_adversary`] runs checkpointed and resumable.
//!
//! Two checkpoint policies are available (`--policy`):
//!
//! * `fixed:K` — snapshot every `K` ticks, the classic cadence.
//! * `adaptive` — a [`PolicyEngine`](rfsp_pram::PolicyEngine) watches the
//!   live event stream, tracks an EWMA failure intensity and a
//!   checkpoint-cost estimate, and steers the interval toward the
//!   Young/Daly optimum `√(2C/λ)`. Its whole state rides in the
//!   checkpoint, so a resumed run makes the same decisions the
//!   uninterrupted run would have.
//!
//! ```text
//! rfsp experiment --run writeall --algo x --n 100000 --p 128 \
//!     --adversary bursty --rate 0.4 --seed 7 --policy adaptive \
//!     --checkpoint ck.json --events run.jsonl
//! # ^C, power loss, SIGKILL ... then:
//! rfsp experiment --resume ck.json
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use rfsp_pram::{CycleBudget, Machine, NoopObserver, Program};
use rfsp_run::{
    with_write_all_program, ExecMode, PauseFlow, RunConfig, RunSession, SessionCheckpoint,
    SessionEnd, WriteAllSetup, WriteAllVisitor,
};
use serde::{Deserialize, Serialize};

use crate::args::{ArgError, Args};
use crate::commands::config_from_args;
use crate::CliOutcome;

struct LongRun<'a> {
    cfg: &'a RunConfig,
    resume: Option<&'a SessionCheckpoint>,
    stop: &'a AtomicBool,
}

impl WriteAllVisitor for LongRun<'_> {
    type Out = Result<CliOutcome, ArgError>;

    fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
    where
        P: Program,
        P::Private: Serialize + Deserialize,
    {
        let cfg = self.cfg;
        let procs = cfg.p as usize;
        let build = Box::new(move || Machine::new(prog, procs, budget));
        let exec = ExecMode::Sequential;
        let mut session = match self.resume {
            Some(ck) => RunSession::resume(ck.clone(), exec, build)?,
            None => RunSession::new(cfg.clone(), exec, build)?,
        };

        // The stop flag (SIGINT, in the binary) is the only external pause
        // source here: it forces a checkpoint (when configured) and stops
        // the session.
        let end = session.run(
            &mut |_| self.stop.load(Ordering::SeqCst),
            &mut |pause| if pause.external { PauseFlow::Stop } else { PauseFlow::Continue },
            &mut NoopObserver,
        )?;
        match end {
            SessionEnd::Completed(report) => {
                if !setup.tasks.all_written(session.memory()) {
                    return Err(ArgError("postcondition failed: array not fully written".into()));
                }
                let wasted = session.wasted();
                println!("algorithm       : {}", cfg.algo);
                println!("instance        : N = {}, P = {}", cfg.n, cfg.p);
                println!("adversary       : {}", cfg.adversary);
                println!("policy          : {}", session.policy_kind());
                println!("completed work S: {}", report.stats.completed_work());
                println!("S' (with partial): {}", report.stats.s_prime());
                println!("parallel time τ : {}", report.stats.parallel_time);
                println!("|F| (fail+restart): {}", report.stats.pattern_size());
                println!(
                    "checkpoints     : {} ({} bytes, {} µs)",
                    wasted.checkpoints,
                    wasted.checkpoint_bytes,
                    wasted.checkpoint_ns / 1_000
                );
                println!(
                    "restores        : {} ({} ticks replayed)",
                    wasted.restores, wasted.replayed_ticks
                );
                Ok(CliOutcome::Done)
            }
            SessionEnd::Stopped { cycle } => {
                match cfg.checkpoint.as_deref() {
                    Some(path) => eprintln!(
                        "interrupted at tick {cycle}; resume with: rfsp experiment --resume {path}"
                    ),
                    None => eprintln!(
                        "interrupted at tick {cycle}; no --checkpoint configured, run cannot be \
                         resumed"
                    ),
                }
                Ok(CliOutcome::Interrupted)
            }
        }
    }
}

/// Entry point for both `--run writeall` and `--resume`. The run pauses —
/// checkpointed when configured, [`CliOutcome::Interrupted`] — at the
/// first tick boundary after `stop` is set.
///
/// # Errors
///
/// Bad arguments, unreadable/mismatched checkpoint or events files, and
/// machine errors, all as [`ArgError`].
pub fn run(args: &Args, stop: &AtomicBool) -> Result<CliOutcome, ArgError> {
    if let Some(path) = args.get("resume") {
        let ck = SessionCheckpoint::load(path)?;
        with_write_all_program(
            &ck.config.spec()?,
            LongRun { cfg: &ck.config, resume: Some(&ck), stop },
        )
    } else {
        let run = args.get_or("run", "writeall");
        if run != "writeall" {
            return Err(crate::unknown("long-run mode", run, &["writeall"]));
        }
        let cfg = config_from_args(args)?;
        with_write_all_program(&cfg.spec()?, LongRun { cfg: &cfg, resume: None, stop })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsp_pram::PolicyKind;
    use rfsp_run::{count_tick_starts, SESSION_CHECKPOINT_VERSION};

    #[test]
    fn config_roundtrips_and_validates() {
        let a = Args::parse([
            "experiment",
            "--run",
            "writeall",
            "--algo",
            "v",
            "--n",
            "64",
            "--p",
            "8",
            "--adversary",
            "random",
            "--rate",
            "0.1",
            "--seed",
            "3",
            "--every",
            "10",
        ])
        .unwrap();
        let cfg = config_from_args(&a).unwrap();
        assert_eq!(cfg.algo, "v");
        assert_eq!(cfg.every, 10);
        assert_eq!(cfg.policy, "fixed");
        let back = RunConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back, cfg);

        let a =
            Args::parse(["experiment", "--run", "writeall", "--algo", "acc", "--checkpoint", "x"])
                .unwrap();
        assert!(config_from_args(&a).is_err());
    }

    #[test]
    fn rejects_degenerate_cadence_and_policy_conflicts() {
        let parse = |extra: &[&str]| {
            let mut argv = vec!["experiment", "--run", "writeall"];
            argv.extend_from_slice(extra);
            config_from_args(&Args::parse(argv).unwrap())
        };
        let e = parse(&["--every", "0"]).unwrap_err();
        assert!(e.0.contains("degenerate"), "unexpected message: {}", e.0);
        assert!(parse(&["--policy", "fixed:0"]).is_err());
        assert!(parse(&["--policy", "sometimes"]).is_err());
        assert!(parse(&["--policy", "adaptive", "--every", "7"]).is_err());
        assert!(parse(&["--policy", "fixed:12", "--every", "7"]).is_err());

        let cfg = parse(&["--policy", "fixed:12"]).unwrap();
        assert_eq!((cfg.policy.as_str(), cfg.every), ("fixed", 12));
        let cfg = parse(&["--policy", "adaptive"]).unwrap();
        assert_eq!(cfg.policy, "adaptive");
        assert_eq!(cfg.policy_kind(), PolicyKind::Adaptive);
    }

    #[test]
    fn counts_tick_starts_in_tails() {
        assert_eq!(count_tick_starts(b""), 0);
        let tail = b"{\"TickStart\":{\"cycle\":3}}\n{\"Failure\":{}}\n{\"TickStart\":{\"cycle\":4}}\n{\"torn";
        assert_eq!(count_tick_starts(tail), 2);
    }

    fn run_argv(argv: Vec<String>) -> CliOutcome {
        run(&Args::parse(argv).unwrap(), &AtomicBool::new(false)).unwrap()
    }

    fn events_triple(dir: &std::path::Path, common: &[&str], tag: &str) -> Vec<u8> {
        // Uninterrupted baseline → checkpointed run → torn resume; returns
        // the baseline bytes after asserting all three streams agree.
        let base = dir.join(format!("{tag}-base.jsonl"));
        let ckpt = dir.join(format!("{tag}-ck.json"));
        let resumed = dir.join(format!("{tag}-resumed.jsonl"));

        let mut argv: Vec<String> = ["experiment"].iter().map(|s| s.to_string()).collect();
        argv.extend(common.iter().map(|s| s.to_string()));
        argv.extend(["--events".to_string(), base.to_str().unwrap().to_string()]);
        assert!(matches!(run_argv(argv), CliOutcome::Done));

        // Checkpoint on cadence, then simulate the kill by resuming from
        // the checkpoint file only.
        let mut argv: Vec<String> = ["experiment"].iter().map(|s| s.to_string()).collect();
        argv.extend(common.iter().map(|s| s.to_string()));
        argv.extend([
            "--events".to_string(),
            resumed.to_str().unwrap().to_string(),
            "--checkpoint".to_string(),
            ckpt.to_str().unwrap().to_string(),
        ]);
        assert!(matches!(run_argv(argv), CliOutcome::Done));
        assert!(ckpt.exists(), "cadenced checkpoints were written");

        // "Crash": scribble garbage after the checkpointed offset, then
        // resume — the tail must be truncated and regenerated exactly.
        let ck = SessionCheckpoint::load(ckpt.to_str().unwrap()).unwrap();
        assert_eq!(ck.version, SESSION_CHECKPOINT_VERSION);
        assert!(
            !matches!(ck.machine.policy, serde::Value::Null),
            "checkpoint carries the policy-engine state"
        );
        let full = std::fs::read(&resumed).unwrap();
        let mut torn = full[..ck.events_offset as usize].to_vec();
        torn.extend_from_slice(b"{\"torn\":");
        std::fs::write(&resumed, &torn).unwrap();
        let argv = ["experiment", "--resume", ckpt.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run_argv(argv), CliOutcome::Done));

        let baseline = std::fs::read(&base).unwrap();
        let after = std::fs::read(&resumed).unwrap();
        assert_eq!(baseline, full, "checkpointed run matches uninterrupted run");
        assert_eq!(baseline, after, "resumed run regenerates the identical stream");
        baseline
    }

    #[test]
    fn checkpointed_run_resumes_to_identical_events() {
        let dir = std::env::temp_dir().join("rfsp-longrun-test");
        std::fs::create_dir_all(&dir).unwrap();
        let common = [
            "--run",
            "writeall",
            "--algo",
            "x",
            "--n",
            "64",
            "--p",
            "8",
            "--adversary",
            "random",
            "--rate",
            "0.2",
            "--restart-rate",
            "0.6",
            "--seed",
            "11",
            "--every",
            "5",
        ];
        events_triple(&dir, &common, "fixed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adaptive_policy_run_resumes_to_identical_events() {
        let dir = std::env::temp_dir().join("rfsp-longrun-adaptive-test");
        std::fs::create_dir_all(&dir).unwrap();
        let common = [
            "--run",
            "writeall",
            "--algo",
            "x",
            "--n",
            "512",
            "--p",
            "8",
            "--adversary",
            "bursty",
            "--rate",
            "0.7",
            "--restart-rate",
            "0.5",
            "--seed",
            "23",
            "--policy",
            "adaptive",
        ];
        let baseline = events_triple(&dir, &common, "adaptive");
        assert!(
            count_tick_starts(&baseline) > 128,
            "run long enough for the adaptive cadence to fire at least once"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
