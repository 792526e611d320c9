//! The chaos harness behind `rfsp soak`: randomized cross-checking of the
//! crash-safety machinery.
//!
//! Each [`SoakCase`] drives one Write-All instance four ways and demands
//! bit-identical results:
//!
//! 1. a **reference** sequential run under seeded [`RandomFaults`], with a
//!    [`DecisionRecorder`] capturing every adversary decision;
//! 2. the recorded pattern **replayed on the worker pool** (engine
//!    equivalence);
//! 3. the replay with an **injected worker panic**
//!    ([`PanicOnce`]) under [`PanicPolicy::FallbackSequential`] — the run
//!    must survive the panic and still match (panic isolation);
//! 4. the replay **killed at a tick boundary**, checkpointed, and resumed
//!    into a fresh machine (crash recovery).
//!
//! On top of the equivalences every case checks the postcondition (the
//! array really is written) and the paper's accounting invariants. A case
//! is fully described by its JSON encoding, so the harness's failure
//! artifact — a *replay file* — is simply the offending [`SoakCase`];
//! [`run_case`] on the parsed file reproduces the failure with no other
//! state.
//!
//! Since the unified execution core, the harness also fuzzes the §3
//! **snapshot machine** ([`SoakAlgo::Snapshot`]): those cases run the
//! balanced-allocation algorithm under seeded random churn and cross-check
//! the reference run against a kill/checkpoint/resume run through the same
//! shared-core machinery (the snapshot engine is sequential-only, so the
//! pooled and panic checks do not apply).

// `SoakFailure` carries the whole offending case by value — it is the
// replay artifact, and the error path is cold (one failure ends the
// batch), so the large `Err` variant is deliberate.
#![allow(clippy::result_large_err)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfsp_adversary::RandomFaults;
use rfsp_core::{SnapshotBalance, WriteAllTasks};
use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{
    Adversary, CompletionHint, CycleBudget, DecisionRecorder, ExecMode, FailurePattern,
    LayoutBuilder, Machine, NoopObserver, PanicPolicy, Pid, PolicyKind, PramError, Program,
    ReadSet, RunControl, RunLimits, RunSpec, RunStatus, ScheduledAdversary, SharedMemory, Step,
    Word, WriteSet,
};
use rfsp_run::run_with_cut;
use serde::{Deserialize, Serialize};

use crate::{with_write_all_program, Algo, WriteAllSetup, WriteAllSpec, WriteAllVisitor};

/// Which algorithm a soak case exercises.
///
/// Algorithm W is deliberately absent: it does not terminate under
/// restarting adversaries (Theorem 3.1 territory), so random churn would
/// time most cases out.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SoakAlgo {
    /// Algorithm X.
    X,
    /// Algorithm V.
    V,
    /// Interleaved V+X.
    Interleaved,
    /// Algorithm X in place (power-of-two sizes).
    XInPlace,
    /// Randomized ACC with this program seed. ACC runs every check except
    /// kill/resume: its program-level incarnation counter is not part of a
    /// machine checkpoint, so a resumed ACC run is not bit-reproducible.
    Acc {
        /// Program seed.
        seed: u64,
    },
    /// The §3 snapshot-model balanced-allocation algorithm on
    /// [`SnapshotMachine`]. The snapshot engine is sequential-only, so
    /// these cases check the reference run against kill/checkpoint/resume
    /// (the `threads` and `panic` fields are ignored).
    Snapshot,
}

impl SoakAlgo {
    /// The bench-runner (word-model) algorithm this case targets, or
    /// `None` for the snapshot-machine lane.
    pub fn to_algo(self) -> Option<Algo> {
        match self {
            SoakAlgo::X => Some(Algo::X),
            SoakAlgo::V => Some(Algo::V),
            SoakAlgo::Interleaved => Some(Algo::Interleaved),
            SoakAlgo::XInPlace => Some(Algo::XInPlace),
            SoakAlgo::Acc { seed } => Some(Algo::Acc(seed)),
            SoakAlgo::Snapshot => None,
        }
    }

    /// Whether the kill/resume check is sound for this algorithm.
    fn checkpointable(self) -> bool {
        !matches!(self, SoakAlgo::Acc { .. })
    }
}

/// An injected host fault: processor `pid`'s `execute` panics on its
/// `on_call`-th invocation (once; the tick is then replayed sequentially
/// under [`PanicPolicy::FallbackSequential`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PanicSpec {
    /// The processor whose program code blows up.
    pub pid: usize,
    /// Which `execute` call (1-based) panics.
    pub on_call: u64,
}

/// One self-contained chaos scenario. The JSON encoding of this struct is
/// the harness's replay-file format.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SoakCase {
    /// Algorithm under test.
    pub algo: SoakAlgo,
    /// Write-All instance size.
    pub n: usize,
    /// Processor count.
    pub p: usize,
    /// Worker threads for the pooled runs.
    pub threads: usize,
    /// Per-processor, per-tick failure probability.
    pub fail_rate: f64,
    /// Per-processor, per-tick restart probability.
    pub restart_rate: f64,
    /// Seed of the reference run's [`RandomFaults`] stream.
    pub adversary_seed: u64,
    /// Injected worker panic, if any (needs `threads >= 2`).
    pub panic: Option<PanicSpec>,
    /// Simulated kill: pause at this tick, checkpoint, resume in a fresh
    /// machine. `None` (and always for ACC) skips the check.
    pub kill_at: Option<u64>,
    /// Also run the kill/resume check with an adaptive [`PolicyEngine`]
    /// riding the checkpoint: the restored engine must land in exactly
    /// the serialized state the uninterrupted engine reaches — the policy
    /// determinism claim (decisions are a pure function of the event
    /// stream), certified through the v4 codec's policy payload.
    pub adaptive_policy: bool,
    /// Tick budget; a reference run that exceeds it is *skipped*, not
    /// failed (the random churn merely outlasted the budget).
    pub max_cycles: u64,
}

impl SoakCase {
    /// Encode as a replay file.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(&self.to_value())
    }

    /// Decode a replay file.
    ///
    /// # Errors
    ///
    /// Returns the parse/shape error as a string.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde::json::from_str(text).map_err(|e| e.to_string())?;
        Self::from_value(&v).map_err(|e| e.to_string())
    }
}

/// Why a case did not produce a verdict.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// Every check passed. The flag records whether the injected panic
    /// actually fired (the victim may halt before its trigger call).
    Passed {
        /// `true` if the [`PanicSpec`] actually detonated.
        panic_fired: bool,
    },
    /// The reference run outlived `max_cycles`; no verdict.
    Skipped(String),
}

/// A reproducible chaos-harness failure: the case plus which check broke.
#[derive(Clone, Debug)]
pub struct SoakFailure {
    /// The offending scenario (serialize with [`SoakCase::to_json`] for
    /// the replay file).
    pub case: SoakCase,
    /// Which cross-check failed.
    pub check: String,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl std::fmt::Display for SoakFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "soak check `{}` failed: {}", self.check, self.detail)
    }
}

/// Everything one engine run produces that equivalence compares.
struct RunData {
    stats: rfsp_pram::WorkStats,
    pattern: FailurePattern,
    per_processor: Vec<u64>,
    mem: Vec<Word>,
    verified: bool,
    /// Reference mode only: the recorded decision log.
    log: Option<FailurePattern>,
    /// Panic mode only: whether the injected panic fired.
    panic_fired: bool,
    /// Policy-resume mode only: the adaptive engine's serialized final
    /// state from the uninterrupted run and from the kill/resume run
    /// (`None` if the run completed before the kill tick).
    policy_states: Option<(String, String)>,
}

/// Chaos wrapper program: delegates to `inner`, but the victim
/// processor's `execute` panics on its `on_call`-th invocation — exactly
/// once, *before* touching any state, so a sequential replay of the tick
/// reproduces the clean run bit for bit.
pub struct PanicOnce<'a, P> {
    inner: &'a P,
    victim: Pid,
    on_call: u64,
    calls: AtomicU64,
    fired: AtomicBool,
}

impl<'a, P> PanicOnce<'a, P> {
    /// Arm the trap on `victim`'s `on_call`-th execute.
    pub fn new(inner: &'a P, victim: Pid, on_call: u64) -> Self {
        PanicOnce {
            inner,
            victim,
            on_call,
            calls: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        }
    }

    /// Whether the trap has detonated.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }
}

impl<P: Program> Program for PanicOnce<'_, P> {
    type Private = P::Private;

    fn shared_size(&self) -> usize {
        self.inner.shared_size()
    }

    fn init_memory(&self, mem: &mut SharedMemory) {
        self.inner.init_memory(mem);
    }

    fn on_start(&self, pid: Pid) -> Self::Private {
        self.inner.on_start(pid)
    }

    fn plan(&self, pid: Pid, state: &Self::Private, values: &[Word], reads: &mut ReadSet) {
        self.inner.plan(pid, state, values, reads);
    }

    fn execute(
        &self,
        pid: Pid,
        state: &mut Self::Private,
        values: &[Word],
        writes: &mut WriteSet,
    ) -> Step {
        if pid == self.victim && !self.fired.load(Ordering::Relaxed) {
            let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            if call >= self.on_call && !self.fired.swap(true, Ordering::Relaxed) {
                panic!("soak chaos: injected panic in P{} (execute call {call})", pid.0);
            }
        }
        self.inner.execute(pid, state, values, writes)
    }

    fn is_complete(&self, mem: &SharedMemory) -> bool {
        self.inner.is_complete(mem)
    }

    fn completion_hint(&self, addr: usize, value: Word) -> CompletionHint {
        self.inner.completion_hint(addr, value)
    }
}

enum Mode<'a> {
    /// Sequential run under recorded [`RandomFaults`].
    Reference,
    /// Pooled run replaying the reference decisions.
    Pooled(&'a FailurePattern),
    /// Pooled + injected panic + graceful degradation.
    PanicChaos(&'a FailurePattern, PanicSpec),
    /// Pause at `kill_at`, checkpoint, resume into a fresh machine.
    KillResume(&'a FailurePattern, u64),
    /// Kill/resume with an adaptive [`PolicyEngine`] observing both runs;
    /// the engine state rides the checkpoint's policy payload and the
    /// restored engine must reproduce the uninterrupted engine's final
    /// serialized state bit for bit.
    PolicyResume(&'a FailurePattern, u64),
}

struct CaseRunner<'a> {
    case: &'a SoakCase,
    mode: Mode<'a>,
}

impl WriteAllVisitor for CaseRunner<'_> {
    type Out = Result<RunData, PramError>;

    fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
    where
        P: Program + Sync,
        P::Private: Send + Serialize + Deserialize,
    {
        let c = self.case;
        let limits = RunLimits { max_cycles: c.max_cycles };
        let collect = |report: rfsp_pram::RunReport,
                       m: &Machine<'_, P>,
                       log: Option<FailurePattern>,
                       panic_fired: bool| RunData {
            stats: report.stats,
            per_processor: report.per_processor,
            pattern: report.pattern,
            mem: m.memory().as_slice().to_vec(),
            verified: setup.tasks.all_written(m.memory()),
            log,
            panic_fired,
            policy_states: None,
        };
        match self.mode {
            Mode::Reference => {
                let mut m = Machine::new(prog, c.p, budget)?;
                let mut rec = DecisionRecorder::new(RandomFaults::new(
                    c.fail_rate,
                    c.restart_rate,
                    c.adversary_seed,
                ));
                let report = m.run_observed(&mut rec, limits, &mut NoopObserver)?;
                let log = rec.into_pattern();
                Ok(collect(report, &m, Some(log), false))
            }
            Mode::Pooled(log) => {
                let mut m = Machine::new(prog, c.p, budget)?;
                let mut adv = ScheduledAdversary::new(log.clone());
                let report =
                    m.run_threaded_observed(&mut adv, limits, c.threads, &mut NoopObserver)?;
                Ok(collect(report, &m, None, false))
            }
            Mode::PanicChaos(log, spec) => {
                let chaos = PanicOnce::new(prog, Pid(spec.pid), spec.on_call);
                let mut m = Machine::new(&chaos, c.p, budget)?;
                let mut adv = ScheduledAdversary::new(log.clone());
                let spec = RunSpec {
                    exec: ExecMode::Threads(c.threads),
                    panic: Some(PanicPolicy::FallbackSequential),
                    limits,
                };
                let RunStatus::Completed(report) =
                    m.run_with(spec, &mut adv, &mut NoopObserver, |_| RunControl::Continue)?
                else {
                    unreachable!("the control callback never pauses")
                };
                let fired = chaos.fired();
                Ok(RunData {
                    stats: report.stats,
                    per_processor: report.per_processor,
                    pattern: report.pattern,
                    mem: m.memory().as_slice().to_vec(),
                    verified: setup.tasks.all_written(m.memory()),
                    log: None,
                    panic_fired: fired,
                    policy_states: None,
                })
            }
            // Both crash-recovery lanes route through the session layer's
            // `run_with_cut`: kill at a tick boundary, checkpoint through
            // the JSON codec, restore into a fresh machine + adversary.
            // The harness certifies that shared implementation — there is
            // no soak-private checkpoint/resume code to drift from it.
            Mode::KillResume(log, kill_at) => {
                let cut = run_with_cut(
                    || Machine::new(prog, c.p, budget),
                    || Box::new(ScheduledAdversary::new(log.clone())) as Box<dyn Adversary>,
                    limits,
                    kill_at,
                    None,
                )?;
                Ok(collect(cut.report, &cut.machine, None, false))
            }
            Mode::PolicyResume(log, kill_at) => {
                // With a policy set, `run_with_cut` also drives an
                // uninterrupted adaptive engine as the decision-stream
                // reference and returns both serialized final states; the
                // cut engine's state rides the checkpoint's v4 payload.
                let cut = run_with_cut(
                    || Machine::new(prog, c.p, budget),
                    || Box::new(ScheduledAdversary::new(log.clone())) as Box<dyn Adversary>,
                    limits,
                    kill_at,
                    Some(PolicyKind::Adaptive),
                )?;
                let mut data = collect(cut.report, &cut.machine, None, false);
                data.policy_states = cut.policy_states;
                Ok(data)
            }
        }
    }
}

fn compare(
    case: &SoakCase,
    check: &str,
    reference: &RunData,
    got: &RunData,
) -> Result<(), SoakFailure> {
    let fail =
        |detail: String| Err(SoakFailure { case: case.clone(), check: check.to_string(), detail });
    if got.stats != reference.stats {
        return fail(format!("stats diverge: {:?} vs {:?}", got.stats, reference.stats));
    }
    if got.pattern != reference.pattern {
        return fail("recorded failure patterns diverge".to_string());
    }
    if got.per_processor != reference.per_processor {
        return fail("per-processor work decomposition diverges".to_string());
    }
    if got.mem != reference.mem {
        return fail("final shared memory diverges".to_string());
    }
    if !got.verified {
        return fail("postcondition violated: array not fully written".to_string());
    }
    Ok(())
}

/// The snapshot-machine lane: reference run under recorded [`RandomFaults`]
/// cross-checked against a kill/checkpoint/resume run — the two must agree
/// on stats, pattern, per-processor work, and final memory, and the
/// reference must satisfy the postcondition and accounting invariants.
/// Both runs go through the unified execution core's shared run loop and
/// checkpoint codec, so this certifies the snapshot side of that machinery
/// the same way the word-model lane certifies its side.
fn run_snapshot_case(case: &SoakCase) -> Result<CaseOutcome, SoakFailure> {
    let fail = |check: &str, detail: String| SoakFailure {
        case: case.clone(),
        check: check.to_string(),
        detail,
    };
    let limits = RunLimits { max_cycles: case.max_cycles };
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, case.n);
    let prog = SnapshotBalance::new(tasks, case.n);

    // 1. Reference run, recording the adversary's decisions.
    let mut m =
        SnapshotMachine::new(&prog, case.p, 1).map_err(|e| fail("reference", e.to_string()))?;
    let mut rec = DecisionRecorder::new(RandomFaults::new(
        case.fail_rate,
        case.restart_rate,
        case.adversary_seed,
    ));
    let reference = match m.run_observed(&mut rec, limits, &mut NoopObserver) {
        Ok(report) => report,
        Err(PramError::CycleLimit { .. }) => {
            return Ok(CaseOutcome::Skipped(format!(
                "reference run exceeded {} cycles",
                case.max_cycles
            )))
        }
        Err(e) => return Err(fail("reference", e.to_string())),
    };
    let log = rec.into_pattern();
    let ref_mem = m.memory().as_slice().to_vec();

    // 2. Postcondition and accounting invariants on the reference report.
    if !tasks.all_written(m.memory()) {
        return Err(fail("postcondition", "array not fully written".to_string()));
    }
    if reference.stats.interrupted_cycles > reference.stats.failures {
        return Err(fail(
            "accounting",
            format!(
                "S' - S = {} interrupted cycles exceeds |failures| = {} (Remark 2 bound)",
                reference.stats.interrupted_cycles, reference.stats.failures
            ),
        ));
    }
    if reference.stats.pattern_size() != reference.pattern.size() as u64 {
        return Err(fail(
            "accounting",
            "pattern size counter disagrees with the recorded pattern".to_string(),
        ));
    }
    if reference.per_processor.iter().sum::<u64>() != reference.stats.completed_cycles {
        return Err(fail("accounting", "per-processor work does not sum to S".to_string()));
    }
    if log != reference.pattern {
        return Err(fail(
            "recorder",
            "decision log diverges from the machine's recorded pattern".to_string(),
        ));
    }

    // 3. Crash recovery: kill at a tick boundary, checkpoint, resume —
    // through the session layer's shared `run_with_cut`, same as the
    // word-model lane.
    if let Some(kill_at) = case.kill_at {
        let cut = run_with_cut(
            || SnapshotMachine::new(&prog, case.p, 1),
            || Box::new(ScheduledAdversary::new(log.clone())) as Box<dyn Adversary>,
            limits,
            kill_at,
            None,
        )
        .map_err(|e| fail("kill-resume", e.to_string()))?;
        let resumed = cut.report;
        let mem = cut.machine.memory().as_slice().to_vec();
        let mismatch = |what: &str| fail("kill-resume-equivalence", format!("{what} diverge"));
        if resumed.stats != reference.stats {
            return Err(mismatch("stats"));
        }
        if resumed.pattern != reference.pattern {
            return Err(mismatch("recorded failure patterns"));
        }
        if resumed.per_processor != reference.per_processor {
            return Err(mismatch("per-processor work decompositions"));
        }
        if mem != ref_mem {
            return Err(mismatch("final shared memories"));
        }
    }

    Ok(CaseOutcome::Passed { panic_fired: false })
}

/// Run every check of one scenario. This is both the soak loop body and
/// the whole of `rfsp soak --replay`: a failure's [`SoakCase`] fed back in
/// reproduces it exactly.
///
/// # Errors
///
/// [`SoakFailure`] when a cross-check or invariant breaks — the bug report.
pub fn run_case(case: &SoakCase) -> Result<CaseOutcome, SoakFailure> {
    let Some(algo) = case.algo.to_algo() else {
        return run_snapshot_case(case);
    };
    let fail = |check: &str, detail: String| SoakFailure {
        case: case.clone(),
        check: check.to_string(),
        detail,
    };

    let program = WriteAllSpec::new(algo, case.n, case.p);

    // 1. Reference run, recording the adversary's decisions.
    let reference =
        match with_write_all_program(&program, CaseRunner { case, mode: Mode::Reference }) {
            Ok(data) => data,
            Err(PramError::CycleLimit { .. }) => {
                return Ok(CaseOutcome::Skipped(format!(
                    "reference run exceeded {} cycles",
                    case.max_cycles
                )))
            }
            Err(e) => return Err(fail("reference", e.to_string())),
        };
    let log = reference.log.clone().expect("reference mode records a log");

    // 2. Accounting invariants on the reference report.
    if !reference.verified {
        return Err(fail("postcondition", "array not fully written".to_string()));
    }
    if reference.stats.interrupted_cycles > reference.stats.failures {
        return Err(fail(
            "accounting",
            format!(
                "S' - S = {} interrupted cycles exceeds |failures| = {} (Remark 2 bound)",
                reference.stats.interrupted_cycles, reference.stats.failures
            ),
        ));
    }
    if reference.stats.pattern_size() != reference.pattern.size() as u64 {
        return Err(fail(
            "accounting",
            "pattern size counter disagrees with the recorded pattern".to_string(),
        ));
    }
    if reference.per_processor.iter().sum::<u64>() != reference.stats.completed_cycles {
        return Err(fail("accounting", "per-processor work does not sum to S".to_string()));
    }
    // The recorder's log must be exactly the machine's recorded pattern.
    if log != reference.pattern {
        return Err(fail(
            "recorder",
            "decision log diverges from the machine's recorded pattern".to_string(),
        ));
    }

    // 3. Engine equivalence: replay on the worker pool.
    let pooled = with_write_all_program(&program, CaseRunner { case, mode: Mode::Pooled(&log) })
        .map_err(|e| fail("pooled", e.to_string()))?;
    compare(case, "pooled-equivalence", &reference, &pooled)?;

    // 4. Panic isolation: same replay with a detonating worker.
    let mut panic_fired = false;
    if let Some(spec) = case.panic {
        if case.threads >= 2 {
            let chaotic = with_write_all_program(
                &program,
                CaseRunner { case, mode: Mode::PanicChaos(&log, spec) },
            )
            .map_err(|e| fail("panic-chaos", e.to_string()))?;
            compare(case, "panic-chaos-equivalence", &reference, &chaotic)?;
            panic_fired = chaotic.panic_fired;
        }
    }

    // 5. Crash recovery: kill at a tick boundary, checkpoint, resume.
    if let Some(kill_at) = case.kill_at {
        if case.algo.checkpointable() {
            let resumed = with_write_all_program(
                &program,
                CaseRunner { case, mode: Mode::KillResume(&log, kill_at) },
            )
            .map_err(|e| fail("kill-resume", e.to_string()))?;
            compare(case, "kill-resume-equivalence", &reference, &resumed)?;
        }
    }

    // 6. Policy determinism: an adaptive policy engine fed the same event
    // stream through a checkpoint/restore cut must land in exactly the
    // state the uninterrupted engine reaches.
    if case.adaptive_policy && case.algo.checkpointable() {
        if let Some(kill_at) = case.kill_at {
            let resumed = with_write_all_program(
                &program,
                CaseRunner { case, mode: Mode::PolicyResume(&log, kill_at) },
            )
            .map_err(|e| fail("policy-resume", e.to_string()))?;
            compare(case, "policy-resume-equivalence", &reference, &resumed)?;
            if let Some((uninterrupted, restored)) = &resumed.policy_states {
                if uninterrupted != restored {
                    return Err(fail(
                        "policy-state-equivalence",
                        format!(
                            "adaptive engine state diverges after resume: {restored} vs \
                             uninterrupted {uninterrupted}"
                        ),
                    ));
                }
            }
        }
    }

    Ok(CaseOutcome::Passed { panic_fired })
}

/// Soak-loop configuration.
#[derive(Clone, Copy, Debug)]
pub struct SoakOptions {
    /// How many randomized cases to run.
    pub cases: usize,
    /// Master seed for case generation.
    pub seed: u64,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions { cases: 64, seed: 0x50AC }
    }
}

/// Tallies from a completed soak loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct SoakSummary {
    /// Cases whose every check passed.
    pub passed: usize,
    /// Cases skipped (reference outlived its tick budget).
    pub skipped: usize,
    /// How many injected panics actually detonated across the loop.
    pub panics_fired: usize,
}

/// Derive the `i`-th randomized case from the master seed.
pub fn generate_case(seed: u64, i: u64) -> SoakCase {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i));
    let algo = match rng.random_range(0..6) {
        0 => SoakAlgo::X,
        1 => SoakAlgo::V,
        2 => SoakAlgo::Interleaved,
        3 => SoakAlgo::XInPlace,
        4 => SoakAlgo::Snapshot,
        _ => SoakAlgo::Acc { seed: rng.random_range(1..u64::MAX) },
    };
    // Power-of-two sizes suit every algorithm (in-place X demands them).
    let n = 16usize << rng.random_range(0..3);
    let p = *[2usize, 4, 8].iter().filter(|&&p| p <= n).nth(rng.random_range(0..3)).unwrap_or(&2);
    let threads = rng.random_range(1..=4);
    let panic = if threads >= 2 {
        Some(PanicSpec { pid: rng.random_range(0..p), on_call: rng.random_range(1..=16) })
    } else {
        None
    };
    SoakCase {
        algo,
        n,
        p,
        threads,
        fail_rate: f64::from(rng.random_range(0..35u32)) / 100.0,
        restart_rate: 0.4 + f64::from(rng.random_range(0..50u32)) / 100.0,
        adversary_seed: rng.random_range(0..u64::MAX),
        panic,
        kill_at: Some(rng.random_range(1..=24)),
        adaptive_policy: rng.random_bool(0.5),
        max_cycles: 50_000,
    }
}

/// Run `opts.cases` randomized scenarios, reporting each through
/// `on_case`; stops at (and returns) the first failure.
///
/// Injected panics print nothing: the default panic hook is silenced for
/// the duration of the loop (the machine catches and accounts for them).
///
/// # Errors
///
/// The first [`SoakFailure`] — serialize its `case` as the replay file.
pub fn run_soak(
    opts: SoakOptions,
    mut on_case: impl FnMut(usize, &SoakCase, &CaseOutcome),
) -> Result<SoakSummary, SoakFailure> {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = (|| {
        let mut summary = SoakSummary::default();
        for i in 0..opts.cases {
            let case = generate_case(opts.seed, i as u64);
            let outcome = run_case(&case)?;
            match &outcome {
                CaseOutcome::Passed { panic_fired } => {
                    summary.passed += 1;
                    summary.panics_fired += usize::from(*panic_fired);
                }
                CaseOutcome::Skipped(_) => summary.skipped += 1,
            }
            on_case(i, &case, &outcome);
        }
        Ok(summary)
    })();
    std::panic::set_hook(hook);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_file_roundtrips() {
        let case = generate_case(7, 3);
        let text = case.to_json();
        let back = SoakCase::from_json(&text).unwrap();
        assert_eq!(back, case);
        assert!(SoakCase::from_json("{not json").is_err());
    }

    /// Minimal one-cell program for unit-testing the trap wrapper.
    struct WriteOne;

    impl Program for WriteOne {
        type Private = ();
        fn shared_size(&self) -> usize {
            1
        }
        fn on_start(&self, _pid: Pid) {}
        fn plan(&self, _pid: Pid, _state: &(), _values: &[Word], _reads: &mut ReadSet) {}
        fn execute(
            &self,
            _pid: Pid,
            _state: &mut (),
            _values: &[Word],
            writes: &mut WriteSet,
        ) -> Step {
            writes.push(0, 1);
            Step::Halt
        }
        fn is_complete(&self, mem: &SharedMemory) -> bool {
            mem.peek(0) == 1
        }
    }

    #[test]
    fn panic_once_fires_exactly_once() {
        let prog = WriteOne;
        let trap = PanicOnce::new(&prog, Pid(0), 1);
        assert!(!trap.fired());
        let mut ws = WriteSet::default();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            trap.execute(Pid(0), &mut (), &[], &mut ws);
        }));
        assert!(caught.is_err());
        assert!(trap.fired());
        // Re-running must not detonate again.
        let step = trap.execute(Pid(0), &mut (), &[], &mut ws);
        assert_eq!(step, Step::Halt);
    }

    #[test]
    fn a_small_soak_batch_is_green() {
        let mut seen = 0;
        let summary = run_soak(SoakOptions { cases: 6, seed: 42 }, |_, _, _| seen += 1)
            .expect("soak batch must pass");
        assert_eq!(seen, 6);
        assert_eq!(summary.passed + summary.skipped, 6);
        assert!(summary.passed > 0, "want at least one conclusive case");
    }

    /// The snapshot lane end to end: a hand-written high-churn case whose
    /// kill tick lands mid-run, so the checkpoint/resume path really
    /// executes (not the completed-before-kill degenerate branch).
    #[test]
    fn snapshot_lane_kill_resume_case_is_green() {
        let case = SoakCase {
            algo: SoakAlgo::Snapshot,
            n: 48,
            p: 8,
            threads: 1,
            fail_rate: 0.3,
            restart_rate: 0.6,
            adversary_seed: 99,
            panic: None,
            kill_at: Some(2),
            adaptive_policy: false,
            max_cycles: 50_000,
        };
        let outcome = run_case(&case).expect("snapshot case passes");
        assert!(matches!(outcome, CaseOutcome::Passed { panic_fired: false }));
        // The replay file round-trips the new variant too.
        let back = SoakCase::from_json(&case.to_json()).unwrap();
        assert_eq!(back, case);
        assert!(matches!(run_case(&back), Ok(CaseOutcome::Passed { .. })));
    }

    #[test]
    fn replayed_case_reproduces_its_verdict() {
        // A deterministic hand-written case, exercising every check.
        let case = SoakCase {
            algo: SoakAlgo::X,
            n: 32,
            p: 8,
            threads: 3,
            fail_rate: 0.25,
            restart_rate: 0.6,
            adversary_seed: 1234,
            panic: Some(PanicSpec { pid: 2, on_call: 3 }),
            kill_at: Some(4),
            adaptive_policy: true,
            max_cycles: 50_000,
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let a = run_case(&case);
        let b = run_case(&SoakCase::from_json(&case.to_json()).unwrap());
        std::panic::set_hook(hook);
        let a = a.expect("case passes");
        let b = b.expect("replayed case passes");
        assert!(matches!(a, CaseOutcome::Passed { panic_fired: true }), "panic must fire: {a:?}");
        assert!(matches!(b, CaseOutcome::Passed { panic_fired: true }));
    }
}
