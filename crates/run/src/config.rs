//! The full run configuration — everything needed to rebuild a run's
//! program and adversary from scratch — plus the one adversary table.
//!
//! [`RunConfig`] is the one description of a Write-All run: `rfsp
//! writeall`, `rfsp trace`, `rfsp experiment --run writeall` and `rfsp
//! submit` all parse their options into it, and [`RunConfig::validate`]
//! is where its ranges are checked. It is stored verbatim inside every
//! [`SessionCheckpoint`](crate::SessionCheckpoint) (so `--resume` and the
//! daemon's spool re-adoption need no other flags) and travels the daemon
//! wire protocol inside [`Request::Submit`](crate::Request::Submit).

use rfsp_adversary::{
    Budgeted, BurstyFaults, OfflineRandom, Pigeonhole, RandomFaults, Stalking, StalkingMode,
    Thrashing, XKiller,
};
use rfsp_pram::{Adversary, NoFailures, PolicyKind, RunLimits, ScheduledAdversary};
use serde::{Deserialize, Serialize};

use crate::program::{Algo, WriteAllSetup, WriteAllSpec};
use crate::{io_err, pattern_io, RunError};

/// The largest instance size a [`RunConfig`] accepts: 2^28, the largest N
/// the repository sweeps. Sizes arrive from outside the program (a command
/// line, a daemon `Submit`), so [`RunConfig::validate`] refuses larger ones
/// before anything is allocated.
pub const MAX_SIZE: u64 = 1 << 28;

/// The largest processor count a [`RunConfig`] accepts: 2^20. Every
/// processor carries a few hundred bytes of per-tick buffers, so this cap
/// keeps a machine's processor state near 300 MB; the largest P any
/// experiment or benchmark runs is 2^16. The CLI holds `simulate --p` to
/// the same cap.
pub const MAX_PROCESSORS: u64 = 1 << 20;

/// The largest thread count a command accepts (`rfsp lockfree --threads`,
/// which runs algorithm X on that many OS threads). Thread counts arrive
/// from outside the program, and each one is an OS thread spawned, so the
/// CLI refuses larger ones.
pub const MAX_THREADS: u64 = 256;

/// Every adversary kind [`build_adversary`] knows.
pub const ADVERSARIES: &[&str] = &[
    "none",
    "thrashing",
    "pigeonhole",
    "pigeonhole-failstop",
    "random",
    "offline",
    "xkiller",
    "stalking",
    "replay",
    "bursty",
];

/// How many ticks of schedule the `offline` adversary commits to.
const OFFLINE_TICKS: u64 = 1_000_000;

/// One crash-safe run, fully described: algorithm, instance, adversary,
/// checkpoint policy, and where the durable artifacts live.
///
/// Serialized inside checkpoints since experiment-checkpoint v1; the
/// field names are part of the on-disk format.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RunConfig {
    /// Algorithm name, as [`Algo::parse`] accepts it.
    pub algo: String,
    /// Instance size.
    pub n: u64,
    /// Processor count.
    pub p: u64,
    /// Adversary kind, one of [`ADVERSARIES`].
    pub adversary: String,
    /// `random`/`offline`: per-tick failure probability. `bursty`: the
    /// burst-mode failure probability (the calm mode stays near-quiet).
    pub rate: f64,
    /// `random`/`offline`/`bursty`: per-tick restart probability.
    pub restart_rate: f64,
    /// `random`/`offline`/`bursty`: RNG seed (the checkpoint carries the
    /// live RNG state; the seed only matters for a from-scratch start).
    pub seed: u64,
    /// `replay`: path of the failure-pattern file.
    pub replay_pattern: Option<String>,
    /// Cap the adversary's failure pattern at this many events
    /// ([`Budgeted`]); `None` leaves it uncapped.
    pub fault_budget: Option<u64>,
    /// `stalking`: the stalked cell; `None` stalks the last one, N − 1.
    pub target: Option<u64>,
    /// `stalking`: fail stalked processors for good instead of restarting
    /// them.
    pub no_restarts: bool,
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
            adversary: "none".to_string(),
            rate: 0.05,
            restart_rate: 0.5,
            seed: 0,
            replay_pattern: None,
            fault_budget: None,
            target: None,
            no_restarts: false,
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

    /// The Write-All instance this config names, every machine knob at
    /// its default.
    ///
    /// # Errors
    ///
    /// An unknown algorithm name.
    pub fn spec(&self) -> Result<WriteAllSpec, RunError> {
        Ok(WriteAllSpec::new(Algo::parse(&self.algo)?, self.n as usize, self.p as usize))
    }

    /// Reject configurations no run can honour: an unknown algorithm or
    /// adversary kind, a zero or oversized instance or processor count
    /// (see [`MAX_SIZE`] and [`MAX_PROCESSORS`]), an in-place X instance
    /// that is not a power of two ≥ 4, `xkiller` on an algorithm without
    /// an X layout, a stalked cell outside the array, a zero cadence, a
    /// fault rate that is not a probability, or a checkpoint on an
    /// algorithm whose program-level state a resumed run cannot recover.
    ///
    /// A config that passes builds its program through
    /// [`RunConfig::spec`] and its adversary through [`build_adversary`]
    /// without a panic.
    ///
    /// # Errors
    ///
    /// [`RunError`] naming the offending field.
    pub fn validate(&self) -> Result<(), RunError> {
        let algo = Algo::parse(&self.algo)?;
        if !ADVERSARIES.contains(&self.adversary.as_str()) {
            return Err(unknown_adversary(&self.adversary));
        }
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
        if algo == Algo::XInPlace && !(self.n >= 4 && self.n.is_power_of_two()) {
            return Err(RunError(format!(
                "--algo {} needs --n to be a power of two >= 4, not {}",
                self.algo, self.n
            )));
        }
        if self.adversary == "xkiller" && !matches!(algo, Algo::X | Algo::Interleaved) {
            return Err(RunError(format!(
                "--adversary xkiller needs an algorithm with an X layout (--algo x or vx), not {}",
                self.algo
            )));
        }
        if let Some(target) = self.target.filter(|&t| t >= self.n) {
            return Err(RunError(format!(
                "--target {target} is outside the array: cells run from 0 to {}",
                self.n - 1
            )));
        }
        if self.every == 0 {
            return Err(RunError(
                "--every 0 is a degenerate cadence: the run would never checkpoint and a crash \
                 would lose everything; give a positive tick interval (or use --policy adaptive)"
                    .into(),
            ));
        }
        for (flag, value) in [("--rate", self.rate), ("--restart-rate", self.restart_rate)] {
            if !(0.0..=1.0).contains(&value) {
                return Err(RunError(format!("{flag} must be between 0 and 1, not {value}")));
            }
        }
        if matches!(algo, Algo::Acc(_)) && self.checkpoint.is_some() {
            return Err(RunError(
                "--checkpoint does not support --algo acc: its incarnation counter is \
                 program-level state a resumed run cannot recover"
                    .into(),
            ));
        }
        Ok(())
    }
}

fn unknown_adversary(kind: &str) -> RunError {
    RunError(format!("unknown adversary '{kind}' (expected one of: {})", ADVERSARIES.join(", ")))
}

/// Build the adversary a [`RunConfig`] names over the instance `setup`
/// describes, from scratch (a checkpoint restore then rehydrates its
/// mutable cursor/RNG state). Every kind is checkpointable. `cfg` must
/// have passed [`RunConfig::validate`], which refuses whatever would make
/// an adversary's constructor panic.
///
/// # Errors
///
/// An unknown kind, `xkiller` over an instance without an X layout (the
/// snapshot model has none), and a missing, unreadable or illegal replay
/// pattern.
pub fn build_adversary(
    cfg: &RunConfig,
    setup: &WriteAllSetup,
) -> Result<Box<dyn Adversary>, RunError> {
    let x = setup.tasks.x();
    let (rate, restart, seed) = (cfg.rate, cfg.restart_rate, cfg.seed);
    let adversary: Box<dyn Adversary> = match cfg.adversary.as_str() {
        "none" => Box::new(NoFailures),
        "thrashing" => Box::new(Thrashing::new()),
        "pigeonhole" => Box::new(Pigeonhole::new(x)),
        "pigeonhole-failstop" => Box::new(Pigeonhole::fail_stop(x)),
        "random" => Box::new(RandomFaults::new(rate, restart, seed)),
        "offline" => {
            Box::new(OfflineRandom::new(cfg.p as usize, OFFLINE_TICKS, rate, restart, seed))
        }
        "xkiller" => match (setup.x_layout, setup.tree) {
            (Some(layout), Some(tree)) => Box::new(XKiller::new(x, layout, tree)),
            _ => {
                return Err(RunError(
                    "--adversary xkiller needs an algorithm with an X layout (--algo x or vx)"
                        .into(),
                ))
            }
        },
        "stalking" => {
            let target = cfg.target.map_or(x.len() - 1, |t| t as usize);
            let mode = if cfg.no_restarts { StalkingMode::FailStop } else { StalkingMode::Restart };
            Box::new(Stalking::new(x, target, mode))
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
        // Same hidden-mode chain as BurstyFaults::preset, but honouring
        // the configured restart rate.
        "bursty" => Box::new(BurstyFaults::new(0.002, rate, restart, 0.02, 0.10, seed)),
        other => return Err(unknown_adversary(other)),
    };
    Ok(match cfg.fault_budget {
        Some(m) => Box::new(Budgeted::new(adversary, m)),
        None => adversary,
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
        let bad = RunConfig { algo: "zzz".into(), ..RunConfig::default() };
        assert!(bad.validate().unwrap_err().0.contains("unknown algorithm 'zzz'"));
        let bad = RunConfig { adversary: "martian".into(), ..RunConfig::default() };
        assert!(bad.validate().unwrap_err().0.contains("unknown adversary 'martian'"));
        for algo in ["v", "w", "x-inplace", "acc"] {
            let bad = RunConfig {
                algo: algo.into(),
                adversary: "xkiller".into(),
                ..RunConfig::default()
            };
            assert!(bad.validate().unwrap_err().0.contains("X layout"), "{algo}");
        }
        for algo in ["x", "vx", "interleaved"] {
            RunConfig { algo: algo.into(), adversary: "xkiller".into(), ..RunConfig::default() }
                .validate()
                .unwrap();
        }
        for target in [1024, 5000, u64::MAX] {
            let bad = RunConfig { target: Some(target), ..RunConfig::default() };
            let err = bad.validate().unwrap_err().0;
            assert!(err.contains(&format!("--target {target} is outside the array")), "{err}");
        }
        RunConfig { target: Some(1023), ..RunConfig::default() }.validate().unwrap();
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
        let dir = std::env::temp_dir().join(format!("rfsp-run-table-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pattern = dir.join("p.pat");
        std::fs::write(&pattern, "F 1 0 before-writes\nR 1 1\n").unwrap();
        for kind in ADVERSARIES {
            for fault_budget in [None, Some(10)] {
                let cfg = RunConfig {
                    adversary: kind.to_string(),
                    replay_pattern: Some(pattern.display().to_string()),
                    fault_budget,
                    ..RunConfig::default()
                };
                cfg.validate().unwrap();
                let adversary = build_adversary(&cfg, &cfg.spec().unwrap().setup()).unwrap();
                // Every kind is checkpointable.
                assert!(adversary.save_state().is_some(), "{kind} {fault_budget:?}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();

        let cfg = RunConfig { adversary: "replay".into(), ..RunConfig::default() };
        let setup = cfg.spec().unwrap().setup();
        let Err(err) = build_adversary(&cfg, &setup) else { panic!("replay without pattern") };
        assert!(err.0.contains("--replay-pattern"), "{err}");
        let cfg = RunConfig { adversary: "martian".into(), ..RunConfig::default() };
        let Err(err) = build_adversary(&cfg, &setup) else { panic!("unknown adversary accepted") };
        assert!(err.0.contains("unknown adversary 'martian'"), "{err}");
        // The snapshot model's setup has no X layout for the X-killer.
        let cfg = RunConfig { adversary: "xkiller".into(), ..RunConfig::default() };
        let snapshot = WriteAllSetup { x_layout: None, tree: None, ..setup };
        let Err(err) = build_adversary(&cfg, &snapshot) else { panic!("xkiller without layout") };
        assert!(err.0.contains("X layout"), "{err}");
    }
}
