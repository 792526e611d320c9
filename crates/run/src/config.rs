//! The full run configuration — everything needed to rebuild a run's
//! program and adversary from scratch — plus the adversary factory.
//!
//! [`RunConfig`] is stored verbatim inside every
//! [`SessionCheckpoint`](crate::SessionCheckpoint) (so `--resume` and the
//! daemon's spool re-adoption need no other flags) and travels the daemon
//! wire protocol inside [`Request::Submit`](crate::Request::Submit).

use rfsp_adversary::{BurstyFaults, RandomFaults};
use rfsp_pram::{Adversary, NoFailures, PolicyKind, RunLimits, ScheduledAdversary};
use serde::{Deserialize, Serialize};

use crate::{io_err, pattern_io, RunError};

/// The largest instance size a [`RunConfig`] accepts: 2^28, the largest N
/// the repository sweeps. Sizes arrive from outside the program (a command
/// line, a daemon `Submit`), so [`RunConfig::validate`] refuses larger ones
/// before anything is allocated.
pub const MAX_SIZE: u64 = 1 << 28;

/// The largest processor count a [`RunConfig`] accepts: 2^20. Every
/// processor carries a few hundred bytes of per-tick buffers, so this cap
/// keeps a machine's processor state near 300 MB; the largest P any
/// experiment or benchmark runs is 2^16. The CLI holds every `--p` to the
/// same cap.
pub const MAX_PROCESSORS: u64 = 1 << 20;

/// The largest tick-engine thread count a [`RunConfig`] accepts. Thread
/// counts arrive from outside the program too, and each one is that many
/// OS threads spawned, so [`RunConfig::validate`] refuses larger ones. The
/// CLI holds every thread-count option to the same cap.
pub const MAX_THREADS: u64 = 256;

/// One crash-safe run, fully described: algorithm, instance, adversary,
/// checkpoint policy, and where the durable artifacts live.
///
/// Serialized inside checkpoints since experiment-checkpoint v1; the
/// field names are part of the on-disk format.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RunConfig {
    /// Algorithm name (as accepted by the CLI's `--algo`).
    pub algo: String,
    /// Instance size.
    pub n: u64,
    /// Processor count.
    pub p: u64,
    /// Tick-engine worker threads (1 = sequential).
    pub threads: u64,
    /// Adversary kind: `none`, `random`, `bursty`, or `replay`.
    pub adversary: String,
    /// `random`: per-tick failure probability. `bursty`: the burst-mode
    /// failure probability (the calm mode stays near-quiet).
    pub rate: f64,
    /// `random`/`bursty`: per-tick restart probability.
    pub restart_rate: f64,
    /// `random`/`bursty`: RNG seed (the checkpoint carries the live RNG
    /// state; the seed only matters for a from-scratch start).
    pub seed: u64,
    /// `replay`: path of the failure-pattern file.
    pub replay_pattern: Option<String>,
    /// Checkpoint cadence in ticks for the fixed policy (must be ≥ 1).
    pub every: u64,
    /// Checkpoint policy tag: `fixed` (interval = `every`) or `adaptive`.
    pub policy: String,
    /// Tick budget.
    pub max_cycles: u64,
    /// Checkpoint file path.
    pub checkpoint: Option<String>,
    /// Events JSONL file path.
    pub events: Option<String>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            algo: "x".to_string(),
            n: 1024,
            p: 64,
            threads: 1,
            adversary: "none".to_string(),
            rate: 0.05,
            restart_rate: 0.5,
            seed: 0,
            replay_pattern: None,
            every: 100,
            policy: "fixed".to_string(),
            max_cycles: RunLimits::default().max_cycles,
            checkpoint: None,
            events: None,
        }
    }
}

impl RunConfig {
    /// The policy this config names, as the engine understands it.
    pub fn policy_kind(&self) -> PolicyKind {
        if self.policy == "adaptive" {
            PolicyKind::Adaptive
        } else {
            PolicyKind::Fixed(self.every)
        }
    }

    /// The tick budget as the machine understands it.
    pub fn limits(&self) -> RunLimits {
        RunLimits { max_cycles: self.max_cycles }
    }

    /// Reject configurations no session can honour: a zero or oversized
    /// instance or processor count (see [`MAX_SIZE`] and
    /// [`MAX_PROCESSORS`]), an in-place X
    /// instance that is not a power of two ≥ 4, a zero cadence, a thread
    /// count outside `1..=`[`MAX_THREADS`], a fault rate that is not a
    /// probability, or a checkpoint on an algorithm whose program-level
    /// state a resumed run cannot recover.
    ///
    /// # Errors
    ///
    /// [`RunError`] naming the offending field.
    pub fn validate(&self) -> Result<(), RunError> {
        for (flag, value, max) in [("--n", self.n, MAX_SIZE), ("--p", self.p, MAX_PROCESSORS)] {
            if value == 0 {
                return Err(RunError(format!("{flag} must be at least 1")));
            }
            if value > max {
                return Err(RunError(format!(
                    "{flag} {value} exceeds the limit 2^{} = {max}",
                    max.trailing_zeros()
                )));
            }
        }
        if matches!(self.algo.as_str(), "x-inplace" | "inplace")
            && !(self.n >= 4 && self.n.is_power_of_two())
        {
            return Err(RunError(format!(
                "--algo {} needs --n to be a power of two >= 4, not {}",
                self.algo, self.n
            )));
        }
        if self.every == 0 {
            return Err(RunError(
                "--every 0 is a degenerate cadence: the run would never checkpoint and a crash \
                 would lose everything; give a positive tick interval (or use --policy adaptive)"
                    .into(),
            ));
        }
        if !(1..=MAX_THREADS).contains(&self.threads) {
            return Err(RunError(format!(
                "--threads must be between 1 and {MAX_THREADS}, not {}",
                self.threads
            )));
        }
        self.check_rates()?;
        if self.algo == "acc" && self.checkpoint.is_some() {
            return Err(RunError(
                "--checkpoint does not support --algo acc: its incarnation counter is \
                 program-level state a resumed run cannot recover"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Refuse a `rate` or `restart_rate` outside `[0, 1]`, NaN included:
    /// the fault adversaries take both as probabilities.
    fn check_rates(&self) -> Result<(), RunError> {
        for (flag, value) in [("--rate", self.rate), ("--restart-rate", self.restart_rate)] {
            if !(0.0..=1.0).contains(&value) {
                return Err(RunError(format!("{flag} must be between 0 and 1, not {value}")));
            }
        }
        Ok(())
    }
}

/// Build the adversary a [`RunConfig`] names, from scratch (a checkpoint
/// restore then rehydrates its mutable cursor/RNG state).
///
/// # Errors
///
/// Unknown adversary kinds, fault rates that are not probabilities (a
/// resumed checkpoint's config was never validated), and unreadable or
/// illegal replay patterns.
pub fn build_adversary(cfg: &RunConfig) -> Result<Box<dyn Adversary>, RunError> {
    cfg.check_rates()?;
    Ok(match cfg.adversary.as_str() {
        "none" => Box::new(NoFailures),
        "random" => Box::new(RandomFaults::new(cfg.rate, cfg.restart_rate, cfg.seed)),
        // Same hidden-mode chain as BurstyFaults::preset, but honouring
        // the configured restart rate.
        "bursty" => {
            Box::new(BurstyFaults::new(0.002, cfg.rate, cfg.restart_rate, 0.02, 0.10, cfg.seed))
        }
        "replay" => {
            let path = cfg
                .replay_pattern
                .as_deref()
                .ok_or_else(|| RunError("--adversary replay needs --replay-pattern FILE".into()))?;
            let text = std::fs::read_to_string(path).map_err(|e| io_err("read", path, &e))?;
            let pattern = pattern_io::decode(&text)?;
            Box::new(
                ScheduledAdversary::try_new(pattern)
                    .map_err(|e| RunError(format!("{path}: {e}")))?,
            )
        }
        other => {
            return Err(RunError(format!(
                "unknown long-run adversary '{other}' (expected one of: none, random, bursty, \
                 replay)"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_configs() {
        let ok = RunConfig::default();
        ok.validate().unwrap();
        assert_eq!(ok.policy_kind(), PolicyKind::Fixed(100));

        let bad = RunConfig { every: 0, ..RunConfig::default() };
        assert!(bad.validate().unwrap_err().0.contains("degenerate"));
        for threads in [0, MAX_THREADS + 1] {
            let bad = RunConfig { threads, ..RunConfig::default() };
            assert!(bad.validate().unwrap_err().0.contains("--threads"), "threads = {threads}");
        }
        RunConfig { threads: MAX_THREADS, ..RunConfig::default() }.validate().unwrap();
        for value in [5.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let bad = RunConfig { adversary: "random".into(), rate: value, ..RunConfig::default() };
            assert!(bad.validate().unwrap_err().0.contains("--rate"), "rate = {value}");
            let bad = RunConfig { restart_rate: value, ..RunConfig::default() };
            assert!(bad.validate().unwrap_err().0.contains("--restart-rate"), "{value}");
        }
        for value in [0.0, 1.0] {
            RunConfig { rate: value, restart_rate: value, ..RunConfig::default() }
                .validate()
                .unwrap();
        }
        let bad = RunConfig {
            algo: "acc".into(),
            checkpoint: Some("ck.json".into()),
            ..RunConfig::default()
        };
        assert!(bad.validate().unwrap_err().0.contains("acc"));

        for bad in [
            RunConfig { n: 0, ..RunConfig::default() },
            RunConfig { n: MAX_SIZE + 1, ..RunConfig::default() },
            RunConfig { n: 1 << 40, ..RunConfig::default() },
        ] {
            assert!(bad.validate().unwrap_err().0.contains("--n"), "n = {}", bad.n);
        }
        for bad in [
            RunConfig { p: 0, ..RunConfig::default() },
            RunConfig { p: MAX_PROCESSORS + 1, ..RunConfig::default() },
            RunConfig { p: MAX_SIZE + 1, ..RunConfig::default() },
        ] {
            assert!(bad.validate().unwrap_err().0.contains("--p"), "p = {}", bad.p);
        }
        RunConfig { n: MAX_SIZE, p: MAX_PROCESSORS, ..RunConfig::default() }.validate().unwrap();
        for algo in ["x-inplace", "inplace"] {
            for n in [1, 2, 3, 6, 1000] {
                let bad = RunConfig { algo: algo.into(), n, ..RunConfig::default() };
                assert!(bad.validate().unwrap_err().0.contains("power of two"), "{algo} n = {n}");
            }
            for n in [4, 1024] {
                RunConfig { algo: algo.into(), n, ..RunConfig::default() }.validate().unwrap();
            }
        }
    }

    #[test]
    fn config_serde_roundtrips() {
        let cfg = RunConfig {
            policy: "adaptive".into(),
            events: Some("run.jsonl".into()),
            ..RunConfig::default()
        };
        let back = RunConfig::from_value(&cfg.to_value()).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.policy_kind(), PolicyKind::Adaptive);
    }

    #[test]
    fn adversary_factory_covers_the_table() {
        let mut cfg = RunConfig::default();
        for kind in ["none", "random", "bursty"] {
            cfg.adversary = kind.into();
            build_adversary(&cfg).unwrap();
        }
        cfg.adversary = "replay".into();
        let Err(err) = build_adversary(&cfg) else { panic!("replay without pattern accepted") };
        assert!(err.0.contains("--replay-pattern"), "{err}");
        cfg.adversary = "martian".into();
        let Err(err) = build_adversary(&cfg) else { panic!("unknown adversary accepted") };
        assert!(err.0.contains("unknown long-run adversary 'martian'"), "{err}");
        // A config that skipped `validate` (a resumed checkpoint's) gets an
        // error, not the adversary's panic.
        let cfg = RunConfig { adversary: "random".into(), rate: 5.0, ..RunConfig::default() };
        let Err(err) = build_adversary(&cfg) else { panic!("rate 5 accepted") };
        assert!(err.0.contains("--rate"), "{err}");
    }
}
