//! Off-line (non-adaptive) adversaries.
//!
//! §5's randomization discussion hinges on the on-line/off-line
//! distinction: "the existing upper bounds for randomized solutions for
//! Write-All apply to off-line, i.e., non-adaptive adversaries", and "when
//! the adversary is made off-line, the ACC algorithm becomes efficient in
//! the fail-stop/restart setting". An off-line adversary commits to its
//! entire failure pattern *before* the execution starts — it cannot react
//! to coin flips.
//!
//! [`OfflineRandom`] is such a schedule: a seeded random failure/restart
//! process that reads nothing of the machine but the clock. It draws each
//! tick's events when that tick comes, so a run holds one tick of the
//! schedule rather than all of it; the schedule itself is fixed by the
//! seed before the execution starts. [`offline_random_pattern`] runs the
//! same generator to write the schedule out as a
//! [`FailurePattern`], which `ScheduledAdversary` replays event for
//! event like the adversary itself.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfsp_pram::{
    Adversary, Decisions, FailPoint, FailureEvent, FailureKind, FailurePattern, MachineView, Pid,
};
use serde::Value;

/// A pre-committed random failure/restart schedule for `p` processors over
/// a horizon of `ticks` ticks: each alive processor (except processor 0,
/// which is kept immune so the schedule is legal under the model's
/// progress condition regardless of the algorithm) fails before its writes
/// with probability `p_fail` per tick, and each failed processor restarts
/// with probability `p_restart` per tick.
///
/// The generator tracks its own notion of liveness so the schedule is
/// always legal (never fails a failed processor or restarts an alive one);
/// legality is the only information it shares with the execution. Tick
/// `t`'s failures are issued at tick `t` and its restarts take effect at
/// `t + 1`, as a replayed pattern's would.
#[derive(Clone, Debug)]
pub struct OfflineRandom {
    p_fail: f64,
    p_restart: f64,
    /// The horizon: ticks at or past it draw nothing.
    ticks: u64,
    /// The next tick to draw.
    next: u64,
    rng: SmallRng,
    /// The generator's liveness bit per processor, 64 to a word.
    alive: Vec<u64>,
    p: usize,
}

impl OfflineRandom {
    /// The schedule seeded `seed` for `p` processors over `ticks` ticks.
    ///
    /// # Panics
    ///
    /// Panics unless the probabilities are in `[0, 1]` and `p > 0`.
    pub fn new(p: usize, ticks: u64, p_fail: f64, p_restart: f64, seed: u64) -> Self {
        assert!(p > 0, "need at least one processor");
        assert!((0.0..=1.0).contains(&p_fail), "p_fail must be a probability");
        assert!((0.0..=1.0).contains(&p_restart), "p_restart must be a probability");
        OfflineRandom {
            p_fail,
            p_restart,
            ticks,
            next: 0,
            rng: SmallRng::seed_from_u64(seed),
            alive: vec![u64::MAX; p.div_ceil(64)],
            p,
        }
    }

    /// Draw the next tick's events into `d`: its failures, then the
    /// restarts that take effect one tick later, each in processor order.
    fn draw(&mut self, d: &mut Decisions) {
        for pid in 1..self.p {
            let (word, bit) = (pid / 64, 1u64 << (pid % 64));
            if self.alive[word] & bit != 0 {
                if self.rng.random_bool(self.p_fail) {
                    self.alive[word] &= !bit;
                    d.fail(Pid(pid), FailPoint::BeforeWrites);
                }
            } else if self.rng.random_bool(self.p_restart) {
                self.alive[word] |= bit;
                d.restart(Pid(pid));
            }
        }
        self.next += 1;
    }
}

impl Adversary for OfflineRandom {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let mut d = Decisions::none();
        // A tick the machine skipped is drawn late, as a replay would
        // issue its overdue events.
        while self.next <= view.cycle && self.next < self.ticks {
            self.draw(&mut d);
        }
        d
    }

    fn save_state(&self) -> Option<Value> {
        let words = |ws: &[u64]| Value::Seq(ws.iter().map(|&w| Value::UInt(w)).collect());
        Some(Value::Map(vec![
            ("next".to_string(), Value::UInt(self.next)),
            ("rng".to_string(), words(&self.rng.state())),
            ("alive".to_string(), words(&self.alive)),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        let words = |key: &str| -> Result<Vec<u64>, String> {
            let seq = state
                .get(key)
                .and_then(Value::as_seq)
                .ok_or(format!("offline state needs an `{key}` sequence"))?;
            seq.iter().map(|v| v.as_u64().ok_or(format!("`{key}` must hold u64 words"))).collect()
        };
        let next = state
            .get("next")
            .and_then(Value::as_u64)
            .ok_or("offline state needs a `next` integer")?;
        let rng: [u64; 4] =
            words("rng")?.try_into().map_err(|_| "`rng` must hold exactly four u64 words")?;
        let alive = words("alive")?;
        if alive.len() != self.alive.len() {
            return Err(format!(
                "`alive` holds {} words, not the {} of {} processors",
                alive.len(),
                self.alive.len(),
                self.p
            ));
        }
        self.next = next;
        self.rng = SmallRng::from_state(rng);
        self.alive = alive;
        Ok(())
    }
}

/// The whole schedule of [`OfflineRandom::new`]`(p, ticks, p_fail,
/// p_restart, seed)` as a failure pattern: failures at their tick,
/// restarts one tick later, where they take effect.
///
/// # Panics
///
/// As [`OfflineRandom::new`].
pub fn offline_random_pattern(
    p: usize,
    ticks: u64,
    p_fail: f64,
    p_restart: f64,
    seed: u64,
) -> FailurePattern {
    let mut generator = OfflineRandom::new(p, ticks, p_fail, p_restart, seed);
    let mut pattern = FailurePattern::new();
    let mut d = Decisions::none();
    for time in 0..ticks {
        d.fails.clear();
        d.restarts.clear();
        generator.draw(&mut d);
        pattern.extend(d.fails.iter().map(|&(pid, point)| FailureEvent {
            kind: FailureKind::Failure { point },
            pid: pid.0,
            time,
        }));
        pattern.extend(d.restarts.iter().map(|&pid| FailureEvent {
            kind: FailureKind::Restart,
            pid: pid.0,
            time: time + 1,
        }));
    }
    pattern
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsp_core::{AccOptions, AlgoAcc, AlgoX, WriteAllTasks, XOptions};
    use rfsp_pram::{
        CycleBudget, LayoutBuilder, Machine, NoopObserver, RunControl, RunLimits, RunSpec,
        RunStatus, ScheduledAdversary, TraceRecorder,
    };

    #[test]
    fn schedule_is_legal_and_replayable() {
        let pattern = offline_random_pattern(16, 500, 0.1, 0.5, 99);
        assert!(pattern.size() > 0);
        // Processor 0 never appears.
        assert!(pattern.events().iter().all(|e| e.pid != 0));
        // Times are ordered (FailurePattern::push enforces it; double-check).
        let times: Vec<u64> = pattern.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The adversary draws tick by tick what the pattern writes out whole:
    /// a run under it streams the same events, byte for byte, as a replay
    /// of the pattern, for several seeds and processor counts (one past a
    /// word of liveness bits too).
    #[test]
    fn per_tick_draws_match_the_replayed_pattern() {
        for (seed, n, p) in [(1, 64, 8), (7, 128, 65), (42, 32, 32), (1991, 256, 4)] {
            let mut layout = LayoutBuilder::new();
            let tasks = WriteAllTasks::new(&mut layout, n);
            let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
            let stream = |mut adversary: Box<dyn Adversary>| {
                let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
                let mut recorder = TraceRecorder::unbounded();
                m.run_observed(&mut adversary, RunLimits::default(), &mut recorder).unwrap();
                assert!(tasks.all_written(m.memory()));
                recorder.to_jsonl()
            };
            let live = stream(Box::new(OfflineRandom::new(p, 10_000, 0.2, 0.4, seed)));
            let pattern = offline_random_pattern(p, 10_000, 0.2, 0.4, seed);
            let replayed = stream(Box::new(ScheduledAdversary::new(pattern)));
            assert!(live.contains("Failure"), "seed {seed}: no failure drawn");
            assert_eq!(live, replayed, "seed {seed}, P = {p}");
        }
    }

    /// A checkpoint taken mid-run carries the RNG and the liveness bits: a
    /// fresh adversary restored from it draws the rest of the schedule.
    #[test]
    fn restored_state_draws_the_rest_of_the_schedule() {
        let (n, p) = (128, 70);
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoX::new(&mut layout, tasks, p, XOptions::default());
        let build = || Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let straight = build().run(&mut OfflineRandom::new(p, 10_000, 0.3, 0.3, 5)).unwrap();

        let mut m = build();
        let mut adv = OfflineRandom::new(p, 10_000, 0.3, 0.3, 5);
        let spec = RunSpec::default();
        let status = m
            .run_with(spec, &mut adv, &mut NoopObserver, |c| {
                if c >= 6 {
                    RunControl::Pause
                } else {
                    RunControl::Continue
                }
            })
            .unwrap();
        assert!(matches!(status, RunStatus::Paused { .. }));
        let ck =
            rfsp_pram::Checkpoint::from_json(&m.save_checkpoint(&adv).unwrap().to_json()).unwrap();
        let mut resumed = build();
        let mut fresh = OfflineRandom::new(p, 10_000, 0.3, 0.3, 5);
        resumed.restore_checkpoint(&ck, &mut fresh).unwrap();
        let RunStatus::Completed(report) = resumed
            .run_with(spec, &mut fresh, &mut NoopObserver, |_| RunControl::Continue)
            .unwrap()
        else {
            unreachable!("never paused")
        };
        assert_eq!(report.stats, straight.stats);
        assert_eq!(report.pattern, straight.pattern);

        let mut short = OfflineRandom::new(4, 10, 0.3, 0.3, 5);
        let err = short.restore_state(&ck.adversary).unwrap_err();
        assert!(err.contains("`alive` holds 2 words, not the 1 of 4 processors"), "{err}");
    }

    /// §5's positive claim: ACC is efficient against an off-line adversary
    /// even in the restart model.
    #[test]
    fn acc_is_efficient_against_offline_restarts() {
        let n = 64;
        let p = 8;
        let mut layout = LayoutBuilder::new();
        let tasks = WriteAllTasks::new(&mut layout, n);
        let algo = AlgoAcc::new(&mut layout, tasks, AccOptions { seed: 5 });
        let mut adv = OfflineRandom::new(p, 100_000, 0.2, 0.5, 123);
        let mut m = Machine::new(&algo, p, CycleBudget::PAPER).unwrap();
        let report = m.run(&mut adv).unwrap();
        assert!(tasks.all_written(m.memory()));
        // Orders of magnitude below the stalking blow-up (§5): comfortably
        // polynomial in N.
        assert!(
            report.stats.completed_work() < (n * n) as u64,
            "S = {} should be small off-line",
            report.stats.completed_work()
        );
    }
}
