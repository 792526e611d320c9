//! Random fault injection: the workhorse adversary for parameter sweeps.
//!
//! Not one of the paper's named adversaries, but the natural way to drive
//! the `M`-sweeps of Theorem 4.3 and Corollaries 4.10–4.12: each tick,
//! every active processor fails independently with probability `p_fail`
//! (at a uniformly random legal point of its cycle — before reads, before
//! writes, or between writes), and every failed processor restarts with
//! probability `p_restart`. An optional event budget caps `|F|`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfsp_pram::{Adversary, Decisions, FailPoint, MachineView, ProcStatus};
use serde::Value;

/// I.i.d. failure/restart injection with an optional `|F|` budget.
#[derive(Clone, Debug)]
pub struct RandomFaults {
    /// Per-processor, per-tick failure probability.
    pub p_fail: f64,
    /// Per-processor, per-tick restart probability (for failed processors).
    pub p_restart: f64,
    /// Remaining failure+restart events; `None` = unlimited.
    budget: Option<u64>,
    rng: SmallRng,
}

impl RandomFaults {
    /// Unlimited-budget random faults.
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities are in `[0, 1]`.
    pub fn new(p_fail: f64, p_restart: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_fail), "p_fail must be a probability");
        assert!((0.0..=1.0).contains(&p_restart), "p_restart must be a probability");
        RandomFaults { p_fail, p_restart, budget: None, rng: SmallRng::seed_from_u64(seed) }
    }

    /// Cap the failure pattern at `m` events (Theorem 4.3's `M`). Once the
    /// budget is exhausted no *new failures* are issued; pending restarts
    /// are still granted (and counted) so no processor is stranded.
    pub fn with_budget(mut self, m: u64) -> Self {
        self.budget = Some(m);
        self
    }

    /// Remaining event budget, if any.
    pub fn remaining_budget(&self) -> Option<u64> {
        self.budget
    }

    fn take_budget(&mut self) -> bool {
        match &mut self.budget {
            None => true,
            Some(0) => false,
            Some(b) => {
                *b -= 1;
                true
            }
        }
    }
}

impl Adversary for RandomFaults {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let mut d = Decisions::none();
        // Restarts first: stranded processors contribute nothing.
        for meta in view.procs {
            if meta.status == ProcStatus::Failed && self.rng.random_bool(self.p_restart) {
                // Restarts are granted even on an empty budget (but still
                // counted against it) so a failed machine can always drain.
                if let Some(b) = &mut self.budget {
                    *b = b.saturating_sub(1);
                }
                d.restart(meta.pid);
            }
        }
        // Failures: keep at least one completing processor.
        let active: Vec<_> = view.active_pids().collect();
        if active.len() <= 1 {
            return d;
        }
        let mut spared = false;
        let last = *active.last().expect("nonempty");
        for pid in active {
            // Always spare the final active processor if nobody else was.
            if pid == last && !spared {
                break;
            }
            if self.rng.random_bool(self.p_fail) && self.take_budget() {
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
        let budget = match self.budget {
            Some(b) => Value::UInt(b),
            None => Value::Null,
        };
        Some(Value::Map(vec![("rng".to_string(), rng), ("budget".to_string(), budget)]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        let rng = state
            .get("rng")
            .and_then(Value::as_seq)
            .ok_or("random-faults state needs an `rng` sequence")?;
        let words: Vec<u64> = rng.iter().filter_map(Value::as_u64).collect();
        let s: [u64; 4] = words.try_into().map_err(|_| "`rng` must hold exactly four u64 words")?;
        let budget = match state.get("budget") {
            Some(Value::Null) | None => None,
            Some(v) => Some(v.as_u64().ok_or("`budget` must be an integer or null")?),
        };
        self.rng = SmallRng::from_state(s);
        self.budget = budget;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsp_core::{AlgoV, AlgoX, WriteAllTasks, XOptions};
    use rfsp_pram::{CycleBudget, LayoutBuilder, Machine};

    #[test]
    fn x_completes_under_heavy_random_churn() {
        let n = 64;
        let p = 16;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let mut adv = RandomFaults::new(0.3, 0.5, 1234);
        let report = m.run(&mut adv).unwrap();
        assert!(tasks.all_written(m.memory()));
        assert!(report.stats.failures > 0);
    }

    #[test]
    fn v_completes_under_budgeted_churn() {
        let n = 128;
        let p = 8;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoV::new(&mut layout, tasks, p);
        let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let mut adv = RandomFaults::new(0.2, 0.7, 99).with_budget(100);
        let report = m.run(&mut adv).unwrap();
        assert!(tasks.all_written(m.memory()));
        // The budget is approximately respected (restarts may overshoot by
        // the number of pending failed processors).
        assert!(report.stats.pattern_size() <= 100 + p as u64);
    }

    #[test]
    fn budget_zero_means_no_failures() {
        let n = 32;
        let p = 4;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let mut adv = RandomFaults::new(0.9, 0.5, 5).with_budget(0);
        let report = m.run(&mut adv).unwrap();
        assert_eq!(report.stats.pattern_size(), 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        let _ = RandomFaults::new(1.5, 0.0, 0);
    }

    /// The decision log of a seeded random run, replayed through a
    /// [`ScheduledAdversary`], reproduces the run exactly: same stats,
    /// same pattern, same final memory. This is the contract the chaos
    /// harness's minimal replay files rely on.
    #[test]
    fn recorded_random_run_replays_exactly() {
        use rfsp_pram::{DecisionRecorder, ScheduledAdversary};

        let n = 64;
        let p = 16;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());

        let mut original = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let mut rec = DecisionRecorder::new(RandomFaults::new(0.25, 0.6, 777));
        let report = original.run(&mut rec).unwrap();
        assert!(report.stats.failures > 0, "want a run with actual faults");
        let log = rec.into_pattern();
        // The recorder's log is exactly the machine's recorded pattern.
        assert_eq!(log, report.pattern);

        let mut replayed = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let replay_report = replayed.run(&mut ScheduledAdversary::new(log)).unwrap();
        assert_eq!(replay_report.stats, report.stats);
        assert_eq!(replay_report.pattern, report.pattern);
        assert_eq!(replay_report.per_processor, report.per_processor);
        assert_eq!(replayed.memory().as_slice(), original.memory().as_slice());
    }

    /// Checkpointing a machine + RandomFaults mid-run and restoring into
    /// fresh instances (differently seeded — restore overwrites the
    /// stream) continues exactly like the uninterrupted run.
    #[test]
    fn checkpoint_resume_preserves_random_stream() {
        use rfsp_pram::{NoopObserver, RunControl, RunSpec, RunStatus};

        let n = 64;
        let p = 8;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());

        let mut straight = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let expected =
            straight.run(&mut RandomFaults::new(0.3, 0.5, 4242).with_budget(200)).unwrap();

        let mut first = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let mut adv1 = RandomFaults::new(0.3, 0.5, 4242).with_budget(200);
        let status = first
            .run_with(RunSpec::default(), &mut adv1, &mut NoopObserver, |cycle| {
                if cycle == 5 {
                    RunControl::Pause
                } else {
                    RunControl::Continue
                }
            })
            .unwrap();
        assert!(matches!(status, RunStatus::Paused { cycle: 5 }));
        let ck = first.save_checkpoint(&adv1).unwrap();

        let mut second = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        // Deliberately different seed and budget: restore must overwrite.
        let mut adv2 = RandomFaults::new(0.3, 0.5, 1).with_budget(7);
        second.restore_checkpoint(&ck, &mut adv2).unwrap();
        let report = second.run(&mut adv2).unwrap();

        assert_eq!(report.stats, expected.stats);
        assert_eq!(report.pattern, expected.pattern);
        assert_eq!(second.memory().as_slice(), straight.memory().as_slice());
    }

    /// The cursor protocol under *continuous* interruption: the run is
    /// paused at every single tick boundary, and at each pause the
    /// adversary's state is saved and restored into a fresh instance with
    /// a different seed and budget. The decision stream must still match
    /// the uninterrupted run exactly — i.e. `save_state`/`restore_state`
    /// round-trips the full mid-run cursor (RNG words + remaining
    /// budget), not just end-of-run state.
    #[test]
    fn mid_run_cursor_roundtrips_at_every_pause() {
        use rfsp_pram::{NoopObserver, RunControl, RunSpec, RunStatus};

        let n = 64;
        let p = 8;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());

        let mut straight = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let expected =
            straight.run(&mut RandomFaults::new(0.3, 0.5, 2024).with_budget(150)).unwrap();
        assert!(expected.stats.failures > 0, "want a run with actual faults");

        let mut machine = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let mut adv = RandomFaults::new(0.3, 0.5, 2024).with_budget(150);
        let mut last_pause = None;
        let mut pauses = 0u64;
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
                    pauses += 1;
                    let saved = adv.save_state().expect("random faults are checkpointable");
                    // Fresh instance with a wrong seed and wrong budget:
                    // restore must overwrite both halves of the cursor.
                    let mut fresh = RandomFaults::new(0.3, 0.5, 1).with_budget(3);
                    fresh.restore_state(&saved).unwrap();
                    assert_eq!(
                        fresh.remaining_budget(),
                        adv.remaining_budget(),
                        "budget cursor round-trips mid-run"
                    );
                    adv = fresh;
                }
            }
        };
        assert!(pauses > 2, "the run must actually have been interrupted repeatedly");
        assert_eq!(report.stats, expected.stats);
        assert_eq!(report.pattern, expected.pattern);
        assert_eq!(machine.memory().as_slice(), straight.memory().as_slice());
    }
}
