//! [`RunSession`] — the one implementation of "run this crash-safely" —
//! and [`run_with_cut`], the in-memory kill/checkpoint/resume cross-check.
//!
//! The session loop is the orchestration `rfsp experiment --run writeall`
//! pioneered (PR 4) and the policy engine refined (PR 9), extracted so the
//! CLI, the soak harness, and the `rfsp serve` daemon all drive the exact
//! same code:
//!
//! 1. run a panic-isolated segment until the policy's next checkpoint is
//!    due, a caller pause fires (SIGINT, preemption quantum,
//!    cancellation), or the run completes;
//! 2. at each pause, flush the events log and — when the cadence or an
//!    external pause demands it — fsync it and publish a durable
//!    checkpoint atomically;
//! 3. hand control to the caller (`on_pause`), who may stop the session
//!    (checkpointed, resumable) or let it continue;
//! 4. on a panic in program code, rewind machine + adversary + policy
//!    engine + events log to the last checkpoint (or the start) and
//!    replay, with the wasted-work counters recording the overhead; a
//!    second panic at the same tick ends the session with an error.

use std::time::Instant;

use rfsp_pram::{
    Adversary, ExecutionModel, NoopObserver, Observer, PolicyEngine, PolicyKind, Pram, PramError,
    RunControl, RunLimits, RunReport, RunSpec, RunStatus, SharedMemory, Tee, WastedWork,
};

use crate::checkpoint::{SessionCheckpoint, SESSION_CHECKPOINT_VERSION};
use crate::config::{build_adversary, RunConfig};
use crate::events::EventLog;
use crate::program::WriteAllSetup;
use crate::{machine_err, RunError};
use serde::{Deserialize, Serialize};

/// The tick engine a [`RunSession`] runs on. There is one: the calling
/// thread plays every tick.
///
/// [`RunSession::new`] and [`RunSession::resume`] still take it because
/// the benchmark under `perfbench/` passes it, and that benchmark may not
/// change in the same change as the code it measures. It goes with the
/// benchmark's next revision (ROADMAP item 1).
#[derive(Clone, Copy, Debug, Default)]
pub enum ExecMode {
    /// The calling thread plays every tick.
    #[default]
    Sequential,
}

/// What the caller decides at a pause.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PauseFlow {
    /// Keep running.
    Continue,
    /// Stop the session here (the state is checkpointed if a checkpoint
    /// path is configured — the run is resumable).
    Stop,
}

/// What the session tells the caller at a pause.
#[derive(Debug)]
pub struct PauseInfo<'a> {
    /// The tick boundary the machine is paused at.
    pub cycle: u64,
    /// Whether this pause published a durable checkpoint.
    pub checkpointed: bool,
    /// Whether the pause was requested by the caller's `pause_when` hook
    /// (as opposed to the checkpoint cadence alone).
    pub external: bool,
    /// Cumulative fault-tolerance overhead so far.
    pub wasted: &'a WastedWork,
}

/// How a session ended.
#[derive(Debug)]
pub enum SessionEnd {
    /// The program ran to completion.
    Completed(RunReport),
    /// The caller stopped the session at a pause (resumable).
    Stopped {
        /// The tick boundary the session stopped at.
        cycle: u64,
    },
}

/// One crash-safe run: machine + adversary + policy engine + events log +
/// durable checkpoints, driven by the canonical session loop.
///
/// Generic over the machine's [`ExecutionModel`], so either model
/// qualifies. The `rebuild` factory recreates the machine from scratch —
/// the from-scratch leg of panic recovery when no checkpoint exists yet. It
/// must build the program the config names: the session derives the
/// instance's [`WriteAllSetup`] from the config, for region-aware
/// adversaries.
pub struct RunSession<'a, M: ExecutionModel> {
    cfg: RunConfig,
    setup: WriteAllSetup,
    machine: Pram<M>,
    adversary: Box<dyn Adversary>,
    engine: PolicyEngine,
    events: EventLog,
    wasted: WastedWork,
    /// The last published snapshot, kept in memory: a panic in program
    /// code is handled like a crash — rewind to it and replay.
    last_saved: Option<SessionCheckpoint>,
    last_pause: Option<u64>,
    /// The tick of the last panic the session recovered from: a second
    /// panic there would only replay into the same panic.
    last_panic: Option<u64>,
    rebuild: Box<dyn FnMut() -> Result<Pram<M>, PramError> + 'a>,
}

impl<'a, M> RunSession<'a, M>
where
    M: ExecutionModel,
    M::Private: Serialize + Deserialize,
{
    /// Start a fresh session from `cfg`, which must have passed
    /// [`RunConfig::validate`]. `rebuild` constructs the machine (it is
    /// called once now, and again if a panic forces a from-scratch restart
    /// before the first checkpoint).
    ///
    /// # Errors
    ///
    /// Machine construction, adversary construction, and events-log I/O.
    pub fn new(
        cfg: RunConfig,
        _exec: ExecMode,
        mut rebuild: Box<dyn FnMut() -> Result<Pram<M>, PramError> + 'a>,
    ) -> Result<Self, RunError> {
        let machine = rebuild().map_err(|e| machine_err(&e))?;
        let setup = cfg.spec()?.setup();
        let adversary = build_adversary(&cfg, &setup)?;
        let engine = PolicyEngine::new(cfg.policy_kind());
        let (events, _) = EventLog::open(cfg.events.as_deref(), None)?;
        Ok(RunSession {
            cfg,
            setup,
            machine,
            adversary,
            engine,
            events,
            wasted: WastedWork::default(),
            last_saved: None,
            last_pause: None,
            last_panic: None,
            rebuild,
        })
    }

    /// Resume a session from a loaded checkpoint: rebuild the machine and
    /// adversary from the checkpoint's config (which
    /// [`SessionCheckpoint::load`] validated), rehydrate their state,
    /// truncate the events log back to the checkpointed offset, and count
    /// the dropped tail as ticks to replay.
    ///
    /// # Errors
    ///
    /// Construction and I/O as [`RunSession::new`], plus restore refusals
    /// (cross-policy or cross-layout checkpoints, version skew).
    pub fn resume(
        ck: SessionCheckpoint,
        _exec: ExecMode,
        mut rebuild: Box<dyn FnMut() -> Result<Pram<M>, PramError> + 'a>,
    ) -> Result<Self, RunError> {
        let cfg = ck.config.clone();
        let mut machine = rebuild().map_err(|e| machine_err(&e))?;
        let setup = cfg.spec()?.setup();
        let mut adversary = build_adversary(&cfg, &setup)?;
        let mut engine = PolicyEngine::new(cfg.policy_kind());
        let (events, replayed_tail) =
            EventLog::open(cfg.events.as_deref(), Some(ck.events_offset))?;
        // Engine first: its restore refuses cross-policy checkpoints
        // before anything is mutated.
        engine.restore_state(&ck.machine.policy).map_err(|e| machine_err(&e))?;
        machine.restore_checkpoint(&ck.machine, &mut *adversary).map_err(|e| machine_err(&e))?;
        let mut wasted = ck.wasted;
        wasted.restores += 1;
        wasted.replayed_ticks += replayed_tail;
        eprintln!(
            "resumed from tick {} ({} event bytes kept, {replayed_tail} ticks to replay)",
            ck.machine.cycle, ck.events_offset
        );
        Ok(RunSession {
            cfg,
            setup,
            machine,
            adversary,
            engine,
            events,
            wasted,
            last_saved: Some(ck),
            last_pause: None,
            last_panic: None,
            rebuild,
        })
    }

    /// The run's configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The machine's current tick.
    pub fn cycle(&self) -> u64 {
        self.machine.cycle()
    }

    /// Cumulative fault-tolerance overhead.
    pub fn wasted(&self) -> &WastedWork {
        &self.wasted
    }

    /// The policy kind in force (for reporting).
    pub fn policy_kind(&self) -> PolicyKind {
        self.engine.kind()
    }

    /// The machine's shared memory (for postcondition checks).
    pub fn memory(&self) -> &SharedMemory {
        self.machine.memory()
    }

    /// Drive the session until completion or a caller-requested stop.
    ///
    /// * `pause_when` is consulted at every tick boundary (cheap!): return
    ///   `true` to force a pause — SIGINT, a preemption quantum expiring,
    ///   a cancellation flag. An externally requested pause always writes
    ///   a checkpoint (when a path is configured), even off-cadence, so
    ///   stopping is always resumable.
    /// * `on_pause` runs while the machine is paused at a tick boundary,
    ///   after any due checkpoint was published; return
    ///   [`PauseFlow::Stop`] to end the session there. Calling `run`
    ///   again on a stopped session goes on from that pause exactly as if
    ///   `on_pause` had returned [`PauseFlow::Continue`].
    /// * `telemetry` sees every machine event, after the events log and
    ///   the policy engine (daemon subscribers hang off this).
    ///
    /// # Errors
    ///
    /// Machine errors and checkpoint/events I/O. A panic in program code is
    /// not an error the first time: the session rewinds to its last
    /// checkpoint (or restarts from scratch) and replays. A second panic at
    /// the tick of the last one it recovered from is: the replay reached
    /// the same panic, so the error names the processor and the tick.
    pub fn run(
        &mut self,
        pause_when: &mut dyn FnMut(u64) -> bool,
        on_pause: &mut dyn FnMut(PauseInfo<'_>) -> PauseFlow,
        telemetry: &mut dyn Observer,
    ) -> Result<SessionEnd, RunError> {
        let limits = self.cfg.limits();
        let cadence = self.cfg.checkpoint.is_some();
        loop {
            let lp = self.last_pause;
            // The engine only moves its due point when a checkpoint is
            // recorded — at a pause — so the target is stable for the
            // whole run segment.
            let due_at = self.engine.next_due();
            // Whether the segment's pause was externally requested (such
            // pauses force a checkpoint and are reported to `on_pause`).
            let mut external = false;
            let spec = RunSpec { catch_panics: true, limits };
            let status = {
                let mut inner = Tee(&mut self.events, &mut self.engine);
                let mut observer = Tee(&mut inner, telemetry);
                self.machine.run_with(spec, &mut *self.adversary, &mut observer, |cycle| {
                    let ext = pause_when(cycle);
                    if (ext || (cadence && cycle >= due_at)) && lp != Some(cycle) {
                        external = ext;
                        RunControl::Pause
                    } else {
                        RunControl::Continue
                    }
                })
            };
            let status = match status {
                Ok(status) => status,
                Err(e @ PramError::WorkerPanic { .. }) => {
                    self.recover_from_panic(&e)?;
                    continue;
                }
                Err(e) => return Err(machine_err(&e)),
            };
            match status {
                RunStatus::Completed(report) => {
                    // A caller may now vouch for the whole stream (the
                    // daemon writes its done marker), so make it durable.
                    self.events.durable_offset()?;
                    return Ok(SessionEnd::Completed(report));
                }
                RunStatus::Paused { cycle } => {
                    self.last_pause = Some(cycle);
                    let checkpointed = self.checkpoint_if_due(cycle, external)?;
                    let info = PauseInfo { cycle, checkpointed, external, wasted: &self.wasted };
                    match on_pause(info) {
                        PauseFlow::Continue => {}
                        PauseFlow::Stop => return Ok(SessionEnd::Stopped { cycle }),
                    }
                }
            }
        }
    }

    /// Publish a checkpoint if the cadence is due at `cycle` — or
    /// unconditionally when the pause was `forced` externally — and keep
    /// it in memory as the panic-rewind target.
    fn checkpoint_if_due(&mut self, cycle: u64, forced: bool) -> Result<bool, RunError> {
        let due = self.engine.checkpoint_due(cycle) || forced;
        let Some(path) = self.cfg.checkpoint.as_deref().filter(|_| due) else {
            self.events.checkpointable_offset()?;
            return Ok(false);
        };
        let started = Instant::now();
        // The checkpoint vouches for the events up to its offset: those
        // bytes reach the disk before the checkpoint does.
        let offset = self.events.durable_offset()?;
        let mut machine_ck =
            self.machine.save_checkpoint(&*self.adversary).map_err(|e| machine_err(&e))?;
        // The cost model prices the checkpoint by its shape: a pure
        // function of machine state, identical in a resumed and an
        // uninterrupted run, that needs no encode.
        self.engine.record_checkpoint(cycle, machine_ck.cost_bytes());
        machine_ck.policy = self.engine.save_state();
        let ck = SessionCheckpoint {
            version: SESSION_CHECKPOINT_VERSION,
            config: self.cfg.clone(),
            events_offset: offset,
            wasted: self.wasted,
            machine: machine_ck,
        };
        let file_bytes = ck.store(path)?;
        self.wasted.checkpoints += 1;
        self.wasted.checkpoint_bytes += file_bytes;
        self.wasted.checkpoint_ns += started.elapsed().as_nanos() as u64;
        self.last_saved = Some(ck);
        Ok(true)
    }

    /// Crash-style panic recovery: the machine stands mid-tick where the
    /// panic left it. Rewind to the last durable checkpoint (or restart
    /// from scratch) and replay — unless the panic struck at the tick of
    /// the last one recovered from, which a replay only reaches again.
    fn recover_from_panic(&mut self, e: &PramError) -> Result<(), RunError> {
        let panicked_at = self.machine.cycle();
        if self.last_panic == Some(panicked_at) {
            return Err(RunError(format!(
                "machine error: {e}; it struck again at tick {panicked_at} after a replay, \
                 so the session stops"
            )));
        }
        self.last_panic = Some(panicked_at);
        self.wasted.restores += 1;
        match &self.last_saved {
            Some(saved) => {
                self.engine.restore_state(&saved.machine.policy).map_err(|e| machine_err(&e))?;
                self.machine
                    .restore_checkpoint(&saved.machine, &mut *self.adversary)
                    .map_err(|e| machine_err(&e))?;
                self.events.rewind_to(saved.events_offset)?;
                self.wasted.replayed_ticks += panicked_at.saturating_sub(saved.machine.cycle);
                eprintln!(
                    "{e}; rewound from tick {panicked_at} to checkpointed tick {}",
                    saved.machine.cycle
                );
            }
            None => {
                self.machine = (self.rebuild)().map_err(|e| machine_err(&e))?;
                self.adversary = build_adversary(&self.cfg, &self.setup)?;
                self.engine = PolicyEngine::new(self.cfg.policy_kind());
                self.events.rewind_to(0)?;
                self.wasted.replayed_ticks += panicked_at;
                eprintln!("{e}; no checkpoint yet — restarted from scratch at tick 0");
            }
        }
        self.last_pause = None;
        Ok(())
    }
}

/// Outcome of a [`run_with_cut`] kill/checkpoint/resume cross-check.
pub struct CutOutcome<M: ExecutionModel> {
    /// The (resumed or uninterrupted) run's report.
    pub report: RunReport,
    /// The machine that produced it, for memory/postcondition inspection.
    pub machine: Pram<M>,
    /// Adaptive-policy cuts only: the uninterrupted and the resumed
    /// engine's serialized final states (`None` if the run completed
    /// before the kill tick — nothing was cut).
    pub policy_states: Option<(String, String)>,
}

/// Kill a run at a tick boundary, checkpoint it **through the JSON
/// codec** (the on-disk format is part of what callers certify), restore
/// into a freshly built machine + adversary, and run to completion — the
/// soak harness's crash-recovery lane, for either model.
///
/// With `policy` set, an adaptive [`PolicyEngine`] of that kind observes
/// an uninterrupted reference run and the killed/resumed run; the engine
/// state rides the checkpoint's policy payload and both serialized final
/// states are returned for bit-equality checks (the policy-determinism
/// claim: decisions are a pure function of the event stream).
///
/// # Errors
///
/// See [`PramError`].
pub fn run_with_cut<M>(
    mut build: impl FnMut() -> Result<Pram<M>, PramError>,
    mut make_adversary: impl FnMut() -> Box<dyn Adversary>,
    limits: RunLimits,
    kill_at: u64,
    policy: Option<PolicyKind>,
) -> Result<CutOutcome<M>, PramError>
where
    M: ExecutionModel,
    M::Private: Serialize + Deserialize,
{
    let spec = RunSpec { limits, ..RunSpec::default() };
    let mut ref_engine = policy.map(PolicyEngine::new);
    if let Some(engine) = &mut ref_engine {
        // Uninterrupted run with the engine observing: the
        // decision-stream reference.
        let mut straight = build()?;
        let mut adv = make_adversary();
        straight.run_with(spec, &mut *adv, engine, |_| RunControl::Continue)?;
    }

    let mut first = build()?;
    let mut adv = make_adversary();
    let mut engine = policy.map(PolicyEngine::new);
    let mut armed = true;
    let mut control = |cycle: u64| {
        if armed && cycle >= kill_at {
            armed = false;
            RunControl::Pause
        } else {
            RunControl::Continue
        }
    };
    let status = match &mut engine {
        Some(e) => first.run_with(spec, &mut *adv, e, &mut control)?,
        None => first.run_with(spec, &mut *adv, &mut NoopObserver, &mut control)?,
    };
    match status {
        // Finished before the kill tick: nothing to resume.
        RunStatus::Completed(report) => {
            Ok(CutOutcome { report, machine: first, policy_states: None })
        }
        RunStatus::Paused { .. } => {
            let mut ck = first.save_checkpoint(&*adv)?;
            if let Some(e) = &engine {
                ck.policy = e.save_state();
            }
            // Round-trip through JSON: the on-disk format — including the
            // policy payload when present — is part of what callers
            // certify.
            let ck = rfsp_pram::Checkpoint::from_json(&ck.to_json())?;
            drop(first);
            let mut second = build()?;
            // The replacement adversary is rebuilt from config, as a
            // resuming process would; the checkpoint rehydrates its
            // mutable cursor.
            let mut adv2 = make_adversary();
            let mut resumed_engine = policy.map(PolicyEngine::new);
            if let Some(e) = &mut resumed_engine {
                e.restore_state(&ck.policy)?;
            }
            second.restore_checkpoint(&ck, &mut *adv2)?;
            let mut to_end = |_| RunControl::Continue;
            let status = match &mut resumed_engine {
                Some(e) => second.run_with(spec, &mut *adv2, e, &mut to_end)?,
                None => second.run_with(spec, &mut *adv2, &mut NoopObserver, &mut to_end)?,
            };
            let RunStatus::Completed(report) = status else {
                unreachable!("the control callback never pauses")
            };
            let policy_states = match (&ref_engine, &resumed_engine) {
                (Some(r), Some(g)) => Some((
                    serde::json::to_string(&r.save_state()),
                    serde::json::to_string(&g.save_state()),
                )),
                _ => None,
            };
            Ok(CutOutcome { report, machine: second, policy_states })
        }
    }
}
