//! Adaptive checkpoint/restart policy: Young/Daly interval tuning driven
//! by the observed failure process.
//!
//! The crash-safe long-run mode (PR 4) checkpoints every `K` ticks, with
//! `K` chosen by hand. That knob decides the whole wasted-work tradeoff:
//! checkpoint too often and the run pays checkpoint overhead for faults
//! that never come; too rarely and every crash replays a long tail of
//! lost ticks. A [`PolicyEngine`] closes the loop. It watches the same
//! [`TraceEvent`] stream every other observer sees, folds the failure
//! events into a fixed-point EWMA intensity estimate `λ` (failures per
//! tick), and steers the interval toward the Young/Daly optimum
//!
//! ```text
//! K* ≈ sqrt(2·C / λ)
//! ```
//!
//! where `C` is the checkpoint cost in tick units. The steering is AIMD:
//! the interval decays multiplicatively toward a lower target (react fast
//! when failures spike) and grows additively toward a higher one (reclaim
//! overhead cautiously when the machine calms down), clamped to
//! `[k_min, k_max]`.
//!
//! **Determinism.** Checkpoint-cadence decisions must be a pure function
//! of the event stream, or a killed-and-resumed run would checkpoint at
//! different ticks than the uninterrupted run and the soak cross-checks
//! could never demand bit-identical behavior. The engine therefore does
//! all arithmetic in integers (no float accumulation order to worry
//! about) and feeds its cost model only deterministic inputs: the
//! configured prior and each machine checkpoint's priced size,
//! [`Checkpoint::cost_bytes`](crate::Checkpoint::cost_bytes), a function
//! of its shape alone — never the measured wall-clock save time. For the
//! same reason the engine carries **no telemetry**: wasted-work accounting
//! ([`WastedWork`](crate::trace::WastedWork)) lives with the runner,
//! outside the policy state, so a resumed run (whose restore/replay
//! counters necessarily differ from the uninterrupted run's) still
//! serializes byte-identical policy state and checkpoints at the
//! identical ticks.
//!
//! The engine's full state serializes to a [`Value`] that rides inside
//! the [`Checkpoint`](crate::Checkpoint) (its `policy` field, since v4),
//! so a resumed run continues the *same* policy trajectory. Restoring refuses
//! state saved under a different policy kind or tuning — resuming a
//! `fixed:500` run under `adaptive` would silently change where
//! checkpoints land, which is exactly the nondeterminism the codec
//! version gate exists to prevent.
//!
//! The engine also escalates the pooled engine's
//! [`PanicPolicy`]: an adaptive run starts on
//! [`PanicPolicy::Surface`] (a worker panic aborts the tick and surfaces,
//! leaving the machine at the tick boundary) and falls back to
//! [`PanicPolicy::FallbackSequential`] only after repeated panics — the
//! optimistic stance costs nothing when panics are rare and keeps the
//! failure visible while they are.

use serde::Value;

use crate::error::PramError;
use crate::exec::PanicPolicy;
use crate::trace::{Observer, TraceEvent};

/// Fixed-point scale for the EWMA failure intensity: `lambda_fp` holds
/// `λ · LAMBDA_SCALE` where `λ` is failures per tick.
const LAMBDA_SCALE: u64 = 1 << 20;

/// Which policy a [`PolicyEngine`] implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// Checkpoint every `K` ticks, unconditionally (the PR 4 behavior).
    Fixed(u64),
    /// Young/Daly + AIMD online tuning.
    Adaptive,
}

impl PolicyKind {
    /// Parse a `--policy` argument: `adaptive`, or `fixed:K` with `K >= 1`.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown kinds and degenerate (`0` or
    /// unparseable) fixed intervals.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text == "adaptive" {
            return Ok(PolicyKind::Adaptive);
        }
        if let Some(k) = text.strip_prefix("fixed:") {
            let k: u64 = k
                .parse()
                .map_err(|_| format!("bad fixed checkpoint interval '{k}' (want fixed:K)"))?;
            if k == 0 {
                return Err("fixed:0 would checkpoint every tick boundary forever; \
                            use a positive interval"
                    .into());
            }
            return Ok(PolicyKind::Fixed(k));
        }
        Err(format!("unknown policy '{text}' (adaptive|fixed:K)"))
    }

    fn tag(&self) -> &'static str {
        match self {
            PolicyKind::Fixed(_) => "fixed",
            PolicyKind::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::Fixed(k) => write!(f, "fixed:{k}"),
            PolicyKind::Adaptive => write!(f, "adaptive"),
        }
    }
}

/// Tuning knobs of the adaptive rule. All deterministic inputs; the
/// defaults suit the tick scales the long-run mode and benches use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyConfig {
    /// Prior checkpoint cost `C` in tick units (refined online from
    /// checkpoints' priced sizes).
    pub cost_ticks: u64,
    /// Lower clamp on the interval.
    pub k_min: u64,
    /// Upper clamp on the interval (also the interval while no failure
    /// has been observed yet).
    pub k_max: u64,
    /// EWMA window exponent: the intensity estimate averages over
    /// `2^ewma_shift` ticks.
    pub ewma_shift: u32,
    /// How many checkpoint bytes cost about one tick of work, for the
    /// online cost refinement. Byte sizes are deterministic, wall-clock
    /// save times are not — so this is the only measured input the cost
    /// model is allowed.
    pub bytes_per_tick: u64,
    /// Worker panics tolerated on [`PanicPolicy::Surface`] before the
    /// engine escalates to [`PanicPolicy::FallbackSequential`].
    pub panic_threshold: u32,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            cost_ticks: 8,
            k_min: 4,
            k_max: 4096,
            ewma_shift: 5,
            bytes_per_tick: 4096,
            panic_threshold: 3,
        }
    }
}

/// The policy engine: an [`Observer`] that tracks the failure process and
/// answers "checkpoint now?" at every tick boundary.
///
/// Drive it by [`Tee`](crate::trace::Tee)-ing it onto whatever observer
/// the run already uses, ask [`PolicyEngine::checkpoint_due`] inside the
/// run-control callback, and call [`PolicyEngine::record_checkpoint`]
/// after each checkpoint actually written. [`PolicyEngine::save_state`] /
/// [`PolicyEngine::restore_state`] move the engine through the checkpoint
/// codec.
#[derive(Clone, Debug)]
pub struct PolicyEngine {
    kind: PolicyKind,
    config: PolicyConfig,
    /// EWMA failure intensity, `λ · LAMBDA_SCALE`.
    lambda_fp: u64,
    /// Online checkpoint cost estimate, `C · LAMBDA_SCALE` tick units.
    cost_fp: u64,
    /// Current interval (adaptive) or the fixed `K`.
    k: u64,
    /// Tick boundary of the last checkpoint written (0 = none yet).
    last_checkpoint: u64,
    /// Ticks folded so far.
    ticks: u64,
    /// Failure events in the currently open tick.
    open_failures: u64,
    /// Whether a tick is open (so the first TickStart does not fold an
    /// empty phantom tick).
    tick_open: bool,
    /// Worker panics survived so far.
    panics: u32,
}

/// Integer square root (floor), enough for interval arithmetic.
fn isqrt(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let mut x = v;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + v / x) / 2;
    }
    x
}

impl PolicyEngine {
    /// An engine with default tuning.
    pub fn new(kind: PolicyKind) -> Self {
        Self::with_config(kind, PolicyConfig::default())
    }

    /// An engine with explicit tuning.
    pub fn with_config(kind: PolicyKind, config: PolicyConfig) -> Self {
        let k = match kind {
            PolicyKind::Fixed(k) => k,
            // Start at the geometric mean of the clamps: close enough to
            // any plausible optimum that the first interval is never a
            // catastrophe in either direction, and AIMD converges from
            // there as evidence arrives.
            PolicyKind::Adaptive => {
                isqrt(config.k_min * config.k_max).clamp(config.k_min, config.k_max)
            }
        };
        PolicyEngine {
            kind,
            config,
            lambda_fp: 0,
            cost_fp: config.cost_ticks * LAMBDA_SCALE,
            k,
            last_checkpoint: 0,
            ticks: 0,
            open_failures: 0,
            tick_open: false,
            panics: 0,
        }
    }

    /// The policy this engine implements.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The interval currently in force.
    pub fn interval(&self) -> u64 {
        self.k
    }

    /// The current intensity estimate `λ` in millifailures per tick
    /// (telemetry only).
    pub fn lambda_milli(&self) -> u64 {
        self.lambda_fp * 1000 / LAMBDA_SCALE
    }

    /// The tick boundary at which the next checkpoint falls due if the
    /// interval does not move (a pause-target hint for run controllers;
    /// [`PolicyEngine::checkpoint_due`] is the authority).
    pub fn next_due(&self) -> u64 {
        self.last_checkpoint + self.k
    }

    /// Fold one closed tick's failure count into the estimate and steer
    /// the interval. Exposed for simulation harnesses (the bench sweep
    /// replays recorded failure series through this exact code path); the
    /// [`Observer`] impl calls it once per completed tick.
    pub fn observe_tick(&mut self, failures: u64) {
        self.ticks += 1;
        let s = self.config.ewma_shift;
        // Decay at least 1 so the integer EWMA reaches zero in calm
        // regimes instead of stalling just below 2^s.
        let decay = (self.lambda_fp >> s).max(1);
        self.lambda_fp = self.lambda_fp.saturating_sub(decay) + ((failures * LAMBDA_SCALE) >> s);
        if self.kind == PolicyKind::Adaptive {
            self.steer();
        }
    }

    /// One AIMD step toward the Young/Daly target.
    fn steer(&mut self) {
        // K* = sqrt(2·C/λ); C and λ both carry LAMBDA_SCALE, which
        // cancels in the quotient. No failures observed → widest interval.
        let target = (2 * self.cost_fp)
            .checked_div(self.lambda_fp)
            .map_or(self.config.k_max, isqrt)
            .clamp(self.config.k_min, self.config.k_max);
        if target < self.k {
            // Multiplicative decrease: halve, but never past the target.
            self.k = (self.k / 2).max(target);
        } else if target > self.k {
            // Additive increase, proportional to the checkpoint cost so
            // convergence does not stall at large intervals.
            let step = (self.config.cost_ticks / 2).max(1);
            self.k = (self.k + step).min(target);
        }
    }

    /// Whether a checkpoint is due at the tick boundary before `cycle`:
    /// the interval in force has elapsed since the last checkpoint. For a
    /// fresh fixed policy this reproduces the PR 4 `cycle % K == 0`
    /// cadence exactly (checkpoints land at `K, 2K, …`); for the adaptive
    /// policy the live (steered) interval applies.
    pub fn checkpoint_due(&self, cycle: u64) -> bool {
        cycle > 0 && cycle >= self.last_checkpoint + self.k
    }

    /// Record a checkpoint actually written at tick boundary `cycle`.
    /// `bytes` is the machine checkpoint's priced size
    /// ([`Checkpoint::cost_bytes`](crate::Checkpoint::cost_bytes)), which
    /// refines the cost model — a deterministic input, unlike wall-clock
    /// save time, which the engine refuses to know about.
    pub fn record_checkpoint(&mut self, cycle: u64, bytes: u64) {
        // EWMA the byte-derived cost toward the observed size (same
        // window as the intensity estimate).
        let observed_fp = (bytes.max(1) * LAMBDA_SCALE).div_ceil(self.config.bytes_per_tick);
        let s = self.config.ewma_shift;
        self.cost_fp = self.cost_fp - (self.cost_fp >> s) + (observed_fp >> s);
        self.last_checkpoint = cycle;
    }

    /// Record a surfaced worker panic; returns the policy to retry under.
    pub fn record_panic(&mut self) -> PanicPolicy {
        self.panics = self.panics.saturating_add(1);
        self.panic_policy()
    }

    /// Reinitialize the decision state for a from-scratch restart (a
    /// panic recovery with no checkpoint to rewind to), keeping only the
    /// panic count — forgetting it would reset the escalation clock and a
    /// deterministic panic could live-loop the run forever.
    pub fn reset_preserving_panics(&mut self) {
        let panics = self.panics;
        *self = Self::with_config(self.kind, self.config);
        self.panics = panics;
    }

    /// The [`PanicPolicy`] the run should currently use. Fixed policies
    /// keep the long-run mode's historical always-degrade stance;
    /// adaptive runs stay optimistic until `panic_threshold` panics.
    pub fn panic_policy(&self) -> PanicPolicy {
        match self.kind {
            PolicyKind::Fixed(_) => PanicPolicy::FallbackSequential,
            PolicyKind::Adaptive => {
                if self.panics >= self.config.panic_threshold {
                    PanicPolicy::FallbackSequential
                } else {
                    PanicPolicy::Surface
                }
            }
        }
    }

    /// Serialize the full engine state for the checkpoint's `policy`
    /// field. Identical streams produce identical state (the soak lane's
    /// cross-check relies on byte equality of this value's JSON).
    pub fn save_state(&self) -> Value {
        let c = &self.config;
        let fixed_k = match self.kind {
            PolicyKind::Fixed(k) => k,
            PolicyKind::Adaptive => 0,
        };
        Value::Map(vec![
            ("kind".into(), Value::Str(self.kind.tag().into())),
            ("fixed_k".into(), Value::UInt(fixed_k)),
            ("cost_ticks".into(), Value::UInt(c.cost_ticks)),
            ("k_min".into(), Value::UInt(c.k_min)),
            ("k_max".into(), Value::UInt(c.k_max)),
            ("ewma_shift".into(), Value::UInt(u64::from(c.ewma_shift))),
            ("bytes_per_tick".into(), Value::UInt(c.bytes_per_tick)),
            ("panic_threshold".into(), Value::UInt(u64::from(c.panic_threshold))),
            ("lambda_fp".into(), Value::UInt(self.lambda_fp)),
            ("cost_fp".into(), Value::UInt(self.cost_fp)),
            ("k".into(), Value::UInt(self.k)),
            ("last_checkpoint".into(), Value::UInt(self.last_checkpoint)),
            ("ticks".into(), Value::UInt(self.ticks)),
            ("panics".into(), Value::UInt(u64::from(self.panics))),
            // A pause lands on a tick boundary, where the just-finished
            // tick is still open (it folds only at the next TickStart or
            // at Completed). Persist it, or a resumed engine would drop
            // one tick observation and drift off the uninterrupted run.
            ("tick_open".into(), Value::UInt(u64::from(self.tick_open))),
            ("open_failures".into(), Value::UInt(self.open_failures)),
        ])
    }

    /// Restore engine state saved by [`PolicyEngine::save_state`].
    ///
    /// # Errors
    ///
    /// [`PramError::Checkpoint`] on a malformed value, or — the refusal
    /// this codec version exists for — state saved under a different
    /// policy kind or tuning than this engine's: resuming a run under a
    /// different policy would silently move its checkpoint cadence.
    pub fn restore_state(&mut self, state: &Value) -> Result<(), PramError> {
        let fail = |detail: String| PramError::Checkpoint { detail };
        let want = |name: &str| -> Result<u64, PramError> {
            state
                .get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| fail(format!("policy state needs an integer `{name}` field")))
        };
        let kind = state
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("policy state needs a `kind` tag".into()))?;
        let fixed_k = want("fixed_k")?;
        let saved_kind = match kind {
            "adaptive" => PolicyKind::Adaptive,
            "fixed" => PolicyKind::Fixed(fixed_k),
            other => return Err(fail(format!("unknown policy kind `{other}` in checkpoint"))),
        };
        if saved_kind != self.kind {
            return Err(fail(format!(
                "cross-policy restore refused: the checkpoint was taken under policy \
                 `{saved_kind}` but this run uses `{}`",
                self.kind
            )));
        }
        let saved_config = PolicyConfig {
            cost_ticks: want("cost_ticks")?,
            k_min: want("k_min")?,
            k_max: want("k_max")?,
            ewma_shift: want("ewma_shift")? as u32,
            bytes_per_tick: want("bytes_per_tick")?,
            panic_threshold: want("panic_threshold")? as u32,
        };
        if saved_config != self.config {
            return Err(fail(format!(
                "cross-policy restore refused: the checkpoint's tuning {saved_config:?} \
                 differs from this run's {:?}",
                self.config
            )));
        }
        self.lambda_fp = want("lambda_fp")?;
        self.cost_fp = want("cost_fp")?;
        self.k = want("k")?;
        self.last_checkpoint = want("last_checkpoint")?;
        self.ticks = want("ticks")?;
        self.panics = want("panics")? as u32;
        self.tick_open = want("tick_open")? != 0;
        self.open_failures = want("open_failures")?;
        Ok(())
    }

    fn fold_open_tick(&mut self) {
        if self.tick_open {
            let failures = self.open_failures;
            self.tick_open = false;
            self.open_failures = 0;
            self.observe_tick(failures);
        }
    }
}

impl Observer for PolicyEngine {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::TickStart { .. } => {
                self.fold_open_tick();
                self.tick_open = true;
            }
            TraceEvent::Failure { .. } if self.tick_open => self.open_failures += 1,
            TraceEvent::Completed { .. } => self.fold_open_tick(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_adaptive_and_fixed() {
        assert_eq!(PolicyKind::parse("adaptive").unwrap(), PolicyKind::Adaptive);
        assert_eq!(PolicyKind::parse("fixed:500").unwrap(), PolicyKind::Fixed(500));
        assert!(PolicyKind::parse("fixed:0").is_err(), "degenerate interval");
        assert!(PolicyKind::parse("fixed:x").is_err());
        assert!(PolicyKind::parse("nope").is_err());
    }

    #[test]
    fn isqrt_is_floor_sqrt() {
        for v in [0u64, 1, 2, 3, 4, 8, 9, 15, 16, 1 << 40, u64::MAX] {
            let r = isqrt(v);
            assert!(r * r <= v, "isqrt({v}) = {r}");
            assert!(r.checked_add(1).is_none_or(|r1| r1.checked_mul(r1).is_none_or(|sq| sq > v)));
        }
    }

    #[test]
    fn fixed_keeps_interval_cadence() {
        let mut e = PolicyEngine::new(PolicyKind::Fixed(5));
        for t in 0..100 {
            e.observe_tick(u64::from(t % 3 == 0));
        }
        assert!(!e.checkpoint_due(0));
        assert!(e.checkpoint_due(5));
        e.record_checkpoint(5, 2048);
        assert!(!e.checkpoint_due(7));
        assert!(e.checkpoint_due(10));
        assert_eq!(e.interval(), 5, "fixed interval never moves");
    }

    #[test]
    fn adaptive_shrinks_under_faults_and_recovers() {
        let mut e = PolicyEngine::new(PolicyKind::Adaptive);
        let cfg = PolicyConfig::default();
        let calm_k = e.interval();
        assert_eq!(calm_k, isqrt(cfg.k_min * cfg.k_max), "starts at the geometric mean");
        // Heavy failure regime: λ → ~2 failures/tick, K* = sqrt(2·8/2) ≈ 2
        // clamps to k_min.
        for _ in 0..200 {
            e.observe_tick(2);
        }
        assert_eq!(e.interval(), PolicyConfig::default().k_min, "AIMD decreased");
        // Calm again: additive recovery toward k_max.
        for _ in 0..50 {
            e.observe_tick(0);
        }
        assert!(e.interval() > PolicyConfig::default().k_min, "AIMD increasing");
        let mid = e.interval();
        for _ in 0..5000 {
            e.observe_tick(0);
        }
        assert!(e.interval() > mid);
        assert_eq!(e.interval(), PolicyConfig::default().k_max, "full recovery");
    }

    #[test]
    fn adaptive_cadence_follows_record_checkpoint() {
        let mut e = PolicyEngine::with_config(
            PolicyKind::Adaptive,
            PolicyConfig { k_min: 8, k_max: 8, ..PolicyConfig::default() },
        );
        assert_eq!(e.interval(), 8);
        assert!(!e.checkpoint_due(7));
        assert!(e.checkpoint_due(8));
        assert_eq!(e.next_due(), 8);
        e.record_checkpoint(8, 1024);
        assert!(!e.checkpoint_due(9));
        assert!(e.checkpoint_due(16));
        assert_eq!(e.next_due(), 16);
    }

    #[test]
    fn panic_escalation_is_thresholded() {
        let mut e = PolicyEngine::new(PolicyKind::Adaptive);
        assert_eq!(e.panic_policy(), PanicPolicy::Surface);
        assert_eq!(e.record_panic(), PanicPolicy::Surface);
        assert_eq!(e.record_panic(), PanicPolicy::Surface);
        assert_eq!(e.record_panic(), PanicPolicy::FallbackSequential, "third panic escalates");
        // Fixed runs keep the historical always-degrade behavior.
        let f = PolicyEngine::new(PolicyKind::Fixed(10));
        assert_eq!(f.panic_policy(), PanicPolicy::FallbackSequential);
    }

    #[test]
    fn state_roundtrips_and_decisions_are_stream_deterministic() {
        // Feed the same synthetic failure series to (a) one uninterrupted
        // engine and (b) an engine that is serialized/restored halfway —
        // identical state and identical subsequent decisions.
        let series: Vec<u64> = (0..400).map(|t| u64::from(t % 7 == 0) * 2).collect();
        let mut straight = PolicyEngine::new(PolicyKind::Adaptive);
        let mut first = PolicyEngine::new(PolicyKind::Adaptive);
        for &f in &series[..200] {
            straight.observe_tick(f);
            first.observe_tick(f);
        }
        let saved = first.save_state();
        let mut second = PolicyEngine::new(PolicyKind::Adaptive);
        second.restore_state(&saved).unwrap();
        for &f in &series[200..] {
            straight.observe_tick(f);
            second.observe_tick(f);
        }
        assert_eq!(
            serde::json::to_string(&straight.save_state()),
            serde::json::to_string(&second.save_state()),
            "resumed engine diverged from the uninterrupted one"
        );
        for cycle in 0..4096 {
            assert_eq!(straight.checkpoint_due(cycle), second.checkpoint_due(cycle));
        }
    }

    #[test]
    fn cross_policy_restore_is_refused() {
        let adaptive = PolicyEngine::new(PolicyKind::Adaptive);
        let saved = adaptive.save_state();
        let mut fixed = PolicyEngine::new(PolicyKind::Fixed(100));
        let err = fixed.restore_state(&saved).unwrap_err();
        assert!(err.to_string().contains("cross-policy restore refused"), "{err}");
        // Same kind, different tuning: also refused.
        let mut tuned = PolicyEngine::with_config(
            PolicyKind::Adaptive,
            PolicyConfig { k_max: 64, ..PolicyConfig::default() },
        );
        let err = tuned.restore_state(&saved).unwrap_err();
        assert!(err.to_string().contains("cross-policy restore refused"), "{err}");
        // And the matching engine accepts it.
        let mut ok = PolicyEngine::new(PolicyKind::Adaptive);
        ok.restore_state(&saved).unwrap();
    }

    #[test]
    fn observer_folds_failures_per_tick() {
        use crate::adversary::FailPoint;
        use crate::word::Pid;
        let mut e = PolicyEngine::new(PolicyKind::Adaptive);
        e.event(TraceEvent::TickStart { cycle: 0 });
        e.event(TraceEvent::Failure { cycle: 0, pid: Pid(1), point: FailPoint::BeforeReads });
        e.event(TraceEvent::Failure { cycle: 0, pid: Pid(2), point: FailPoint::BeforeWrites });
        e.event(TraceEvent::TickStart { cycle: 1 });
        e.event(TraceEvent::Completed { cycle: 1 });
        let mut by_hand = PolicyEngine::new(PolicyKind::Adaptive);
        by_hand.observe_tick(2);
        by_hand.observe_tick(0);
        assert_eq!(
            serde::json::to_string(&e.save_state()),
            serde::json::to_string(&by_hand.save_state())
        );
    }
}
