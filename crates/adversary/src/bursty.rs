//! Bursty (Markov-modulated) fault injection.
//!
//! Real fault processes are rarely i.i.d.: crashes cluster — a flaky
//! power rail, a thundering-herd OOM — separated by long calm stretches.
//! [`BurstyFaults`] models this with the classic two-state
//! Markov-modulated process: a hidden mode chain flips between **calm**
//! and **burst**, and the per-processor failure probability each tick is
//! whichever rate the current mode dictates. Restarts behave as in
//! [`RandomFaults`](crate::RandomFaults).
//!
//! This is the stress case for the adaptive checkpoint policy: a rate
//! chosen for the *average* intensity is wrong in both modes, so an
//! engine that tracks the live EWMA intensity (see `rfsp_pram::policy`)
//! has something real to adapt to.
//!
//! Like every sweep adversary, the whole mutable state — mode bit plus
//! RNG cursor — save/restores through the checkpoint protocol, so a
//! killed-and-resumed run draws the identical decision stream.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfsp_pram::{Adversary, Decisions, FailPoint, MachineView, ProcStatus};
use serde::Value;

/// Two-state Markov-modulated failure/restart injection.
#[derive(Clone, Debug)]
pub struct BurstyFaults {
    /// Per-processor, per-tick failure probability in the calm mode.
    pub p_fail_calm: f64,
    /// Per-processor, per-tick failure probability in the burst mode.
    pub p_fail_burst: f64,
    /// Per-processor, per-tick restart probability (mode-independent).
    pub p_restart: f64,
    /// Per-tick probability of entering a burst from calm.
    pub p_enter_burst: f64,
    /// Per-tick probability of leaving a burst back to calm.
    pub p_exit_burst: f64,
    /// `true` while the hidden chain is in the burst mode.
    burst: bool,
    rng: SmallRng,
}

impl BurstyFaults {
    /// A bursty adversary starting in the calm mode.
    ///
    /// # Panics
    ///
    /// Panics unless every argument is a probability in `[0, 1]`.
    pub fn new(
        p_fail_calm: f64,
        p_fail_burst: f64,
        p_restart: f64,
        p_enter_burst: f64,
        p_exit_burst: f64,
        seed: u64,
    ) -> Self {
        for (name, p) in [
            ("p_fail_calm", p_fail_calm),
            ("p_fail_burst", p_fail_burst),
            ("p_restart", p_restart),
            ("p_enter_burst", p_enter_burst),
            ("p_exit_burst", p_exit_burst),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be a probability");
        }
        BurstyFaults {
            p_fail_calm,
            p_fail_burst,
            p_restart,
            p_enter_burst,
            p_exit_burst,
            burst: false,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A preset matching the policy bench: rare long bursts of heavy
    /// churn (`p_fail_burst`) over a near-quiet baseline, with the burst
    /// intensity as the single swept knob.
    pub fn preset(p_fail_burst: f64, seed: u64) -> Self {
        Self::new(0.002, p_fail_burst, 0.6, 0.02, 0.10, seed)
    }

    /// Whether the hidden chain is currently bursting.
    pub fn bursting(&self) -> bool {
        self.burst
    }
}

impl Adversary for BurstyFaults {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        // Advance the hidden mode chain first: exactly one draw per tick,
        // whatever the machine looks like, so the chain's trajectory
        // depends only on the seed.
        let flip = if self.burst { self.p_exit_burst } else { self.p_enter_burst };
        if self.rng.random_bool(flip) {
            self.burst = !self.burst;
        }
        let p_fail = if self.burst { self.p_fail_burst } else { self.p_fail_calm };

        let mut d = Decisions::none();
        // Restarts first: stranded processors contribute nothing.
        for meta in view.procs {
            if meta.status == ProcStatus::Failed && self.rng.random_bool(self.p_restart) {
                d.restart(meta.pid);
            }
        }
        // Failures: keep at least one completing processor, like the
        // i.i.d. workhorse — a legal adversary may not halt the machine.
        let active: Vec<_> = view.active_pids().collect();
        if active.len() <= 1 {
            return d;
        }
        let mut spared = false;
        let last = *active.last().expect("nonempty");
        for pid in active {
            if pid == last && !spared {
                break;
            }
            if self.rng.random_bool(p_fail) {
                let t = view.tentative.get(pid).expect("active processor has a cycle");
                let w = t.writes.len();
                let point = match self.rng.random_range(0..3) {
                    0 => FailPoint::BeforeReads,
                    1 => FailPoint::BeforeWrites,
                    _ if w >= 1 => FailPoint::AfterWrite(self.rng.random_range(1..=w)),
                    _ => FailPoint::BeforeWrites,
                };
                d.fail(pid, point);
            } else {
                spared = true;
            }
        }
        d
    }

    fn save_state(&self) -> Option<Value> {
        let rng = Value::Seq(self.rng.state().iter().map(|&w| Value::UInt(w)).collect());
        Some(Value::Map(vec![
            ("rng".to_string(), rng),
            ("burst".to_string(), Value::Bool(self.burst)),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        let rng = state
            .get("rng")
            .and_then(Value::as_seq)
            .ok_or("bursty-faults state needs an `rng` sequence")?;
        let words: Vec<u64> = rng.iter().filter_map(Value::as_u64).collect();
        let s: [u64; 4] = words.try_into().map_err(|_| "`rng` must hold exactly four u64 words")?;
        let burst = match state.get("burst") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("`burst` must be a boolean".to_string()),
        };
        self.rng = SmallRng::from_state(s);
        self.burst = burst;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsp_core::{AlgoX, WriteAllTasks, XOptions};
    use rfsp_pram::{CycleBudget, LayoutBuilder, Machine};

    #[test]
    fn x_completes_under_bursty_churn() {
        let n = 64;
        let p = 16;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        // Aggressive chain so a short run sees both modes.
        let mut adv = BurstyFaults::new(0.02, 0.5, 0.6, 0.3, 0.3, 99);
        let report = m.run(&mut adv).unwrap();
        assert!(tasks.all_written(m.memory()));
        assert!(report.stats.failures > 0, "churn must actually bite");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        let _ = BurstyFaults::new(0.1, 1.5, 0.5, 0.1, 0.1, 0);
    }

    /// The hidden mode chain plus RNG cursor round-trips through the
    /// checkpoint protocol: a run paused at EVERY tick boundary, with the
    /// adversary serialized and restored into a fresh differently-seeded
    /// instance at each pause, still reproduces the uninterrupted run.
    #[test]
    fn checkpoint_resume_preserves_modulated_stream() {
        use rfsp_pram::{NoopObserver, RunControl, RunSpec, RunStatus};

        let n = 64;
        let p = 8;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());

        let mut straight = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let expected = straight.run(&mut BurstyFaults::new(0.05, 0.6, 0.6, 0.2, 0.2, 7)).unwrap();
        assert!(expected.stats.failures > 0, "want a run with actual faults");

        let mut machine = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let mut adv = BurstyFaults::new(0.05, 0.6, 0.6, 0.2, 0.2, 7);
        let mut last_pause = None;
        let report = loop {
            let lp = last_pause;
            let status = machine
                .run_with(RunSpec::default(), &mut adv, &mut NoopObserver, |cycle| {
                    if lp == Some(cycle) {
                        RunControl::Continue
                    } else {
                        RunControl::Pause
                    }
                })
                .unwrap();
            match status {
                RunStatus::Completed(report) => break report,
                RunStatus::Paused { cycle } => {
                    last_pause = Some(cycle);
                    let ck = machine.save_checkpoint(&adv).unwrap();
                    let mut fresh = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
                    // Different seed, mid-burst or not: restore overwrites.
                    let mut adv2 = BurstyFaults::new(0.05, 0.6, 0.6, 0.2, 0.2, 12345);
                    fresh.restore_checkpoint(&ck, &mut adv2).unwrap();
                    machine = fresh;
                    adv = adv2;
                }
            }
        };
        assert_eq!(report.stats, expected.stats);
        assert_eq!(report.pattern, expected.pattern);
        assert_eq!(machine.memory().as_slice(), straight.memory().as_slice());
    }
}
