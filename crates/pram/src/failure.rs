//! Failure patterns: recorded and replayable fault schedules.
//!
//! Definition 2.1 of the paper: a failure pattern `F` is a set of triples
//! `<tag, PID, t>` where `tag` is `failure` or `restart`; its size `|F|` is
//! the cardinality. The machine records the pattern the adversary actually
//! produced in every [`RunReport`](crate::RunReport), and
//! [`ScheduledAdversary`] replays a pattern verbatim, which makes every
//! adversarial run reproducible and serializable.

use std::fmt;

use serde::{Deserialize, Error, Serialize, Value};

use crate::adversary::{Adversary, Decisions, FailPoint, MachineView};
use crate::cycle::MAX_WRITES;
use crate::word::Pid;

/// `failure` or `restart` (the `tag` of Definition 2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FailureKind {
    /// The processor stops; private memory is lost.
    Failure {
        /// Exactly where inside its cycle the processor was stopped, so a
        /// replay reproduces the run bit for bit.
        point: FailPoint,
    },
    /// The processor resumes at its initial state knowing only its PID.
    Restart,
}

/// One element of a failure pattern: `<tag, PID, t>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FailureEvent {
    /// Failure or restart.
    pub kind: FailureKind,
    /// The processor concerned.
    pub pid: usize,
    /// The tick at which the event occurred.
    pub time: u64,
}

/// A failure pattern `F`: a time-ordered list of failure/restart events.
///
/// Its serde form, which only checkpoints use, is one flat array of three
/// integers per event, `[dt, pid, code, dt, pid, code, …]`:
///
/// * `dt` is the event's time minus the previous event's time (the first
///   event's time itself), so a decoded pattern is time-ordered by
///   construction;
/// * `pid` is the processor;
/// * `code` is the tag and the fail point: 0 for a restart, 1 for
///   [`FailPoint::BeforeReads`], 2 for [`FailPoint::BeforeWrites`], and
///   `2 + k` for [`FailPoint::AfterWrite`]`(k)`, `1 <= k <= MAX_WRITES`.
///   The degenerate `AfterWrite(0)` has no code, and no cycle holds more
///   than [`MAX_WRITES`] writes, so every other code is refused.
///
/// An event takes 7–9 bytes of JSON in this form, against about 95 in the
/// pretty-printed nested maps that checkpoint v4 wrote.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FailurePattern {
    events: Vec<FailureEvent>,
}

impl FailurePattern {
    /// The empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event. Events must be pushed in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `event.time` precedes the last recorded event's time.
    pub fn push(&mut self, event: FailureEvent) {
        if let Some(last) = self.events.last() {
            assert!(event.time >= last.time, "failure pattern must be time-ordered");
        }
        self.events.push(event);
    }

    /// `|F|`: the number of failure and restart events.
    pub fn size(&self) -> usize {
        self.events.len()
    }

    /// Whether the pattern is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in time order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Number of failure (non-restart) events.
    pub fn failure_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, FailureKind::Failure { .. })).count()
    }

    /// Number of restart events.
    pub fn restart_count(&self) -> usize {
        self.events.len() - self.failure_count()
    }

    /// Check that the pattern is a *legal* fault schedule: events in
    /// non-decreasing time order, no failure of an already failed
    /// processor, no restart of a non-failed one, and no degenerate
    /// `after-write:0` fail point. With `processors = Some(p)`, also check
    /// every PID against the machine size.
    ///
    /// Patterns recorded by the machine satisfy this by construction; the
    /// check matters for patterns from external sources — a hand-written
    /// replay file, or a deserialized checkpoint (whose decoder keeps the
    /// time order but knows nothing of processor liveness).
    ///
    /// # Errors
    ///
    /// [`PatternError`] naming the first offending event.
    pub fn validate(&self, processors: Option<usize>) -> Result<(), PatternError> {
        let err = |event: usize, detail: String| Err(PatternError { event: Some(event), detail });
        let mut failed: Vec<bool> = Vec::new();
        let mut last_time = 0u64;
        for (i, e) in self.events.iter().enumerate() {
            if e.time < last_time {
                return err(i, format!("time {} after time {last_time} (not sorted)", e.time));
            }
            last_time = e.time;
            if let Some(p) = processors {
                if e.pid >= p {
                    return err(i, format!("P{} does not exist (machine has {p})", e.pid));
                }
            }
            if e.pid >= failed.len() {
                failed.resize(e.pid + 1, false);
            }
            match e.kind {
                FailureKind::Failure { point } => {
                    if failed[e.pid] {
                        return err(
                            i,
                            format!("failure of already failed P{} at t={}", e.pid, e.time),
                        );
                    }
                    if point == FailPoint::AfterWrite(0) {
                        return err(i, "after-write:0 is not a legal fail point".to_string());
                    }
                    failed[e.pid] = true;
                }
                FailureKind::Restart => {
                    if !failed[e.pid] {
                        return err(i, format!("restart of non-failed P{} at t={}", e.pid, e.time));
                    }
                    failed[e.pid] = false;
                }
            }
        }
        Ok(())
    }
}

/// Why a [`FailurePattern`] is not a legal fault schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatternError {
    /// Index of the offending event, when attributable to one.
    pub event: Option<usize>,
    /// What is wrong with it.
    pub detail: String,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.event {
            Some(i) => write!(f, "invalid failure pattern (event {i}): {}", self.detail),
            None => write!(f, "invalid failure pattern: {}", self.detail),
        }
    }
}

impl std::error::Error for PatternError {}

/// The flat serde form's code for one event (see [`FailurePattern`]).
fn event_code(kind: FailureKind) -> u64 {
    match kind {
        FailureKind::Restart => 0,
        FailureKind::Failure { point: FailPoint::BeforeReads } => 1,
        FailureKind::Failure { point: FailPoint::BeforeWrites } => 2,
        // Saturating: a `k` this large is refused by the decoder, as no
        // cycle can produce it.
        FailureKind::Failure { point: FailPoint::AfterWrite(k) } => (k as u64).saturating_add(2),
    }
}

/// The event kind `code` stands for, if any.
fn event_kind(code: u64) -> Option<FailureKind> {
    let point = match code {
        0 => return Some(FailureKind::Restart),
        1 => FailPoint::BeforeReads,
        2 => FailPoint::BeforeWrites,
        _ => {
            let k = usize::try_from(code - 2).ok().filter(|&k| k <= MAX_WRITES)?;
            FailPoint::AfterWrite(k)
        }
    };
    Some(FailureKind::Failure { point })
}

impl Serialize for FailurePattern {
    fn to_value(&self) -> Value {
        let mut flat = Vec::with_capacity(3 * self.events.len());
        let mut prev = 0;
        for e in &self.events {
            // `push` and the decoder keep the events time-ordered, so the
            // delta cannot underflow.
            flat.push(Value::UInt(e.time - prev));
            flat.push(Value::UInt(e.pid as u64));
            flat.push(Value::UInt(event_code(e.kind)));
            prev = e.time;
        }
        Value::Seq(flat)
    }
}

impl Deserialize for FailurePattern {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let flat = v.as_seq().ok_or_else(|| {
            Error::custom(format!("a failure pattern must be a flat integer array, got {v:?}"))
        })?;
        if flat.len() % 3 != 0 {
            return Err(Error::custom(format!(
                "a failure pattern holds three integers per event, got {} integers",
                flat.len()
            )));
        }
        let int = |i: usize| {
            flat[i].as_u64().ok_or_else(|| {
                Error::custom(format!(
                    "failure pattern element {i} must be an unsigned integer, got {:?}",
                    flat[i]
                ))
            })
        };
        let mut events = Vec::with_capacity(flat.len() / 3);
        let mut time = 0u64;
        for i in (0..flat.len()).step_by(3) {
            let event = i / 3;
            time = time.checked_add(int(i)?).ok_or_else(|| {
                Error::custom(format!("failure pattern event {event}: time overflows u64"))
            })?;
            let pid = usize::try_from(int(i + 1)?).map_err(|_| {
                Error::custom(format!("failure pattern event {event}: pid does not fit usize"))
            })?;
            let code = int(i + 2)?;
            let kind = event_kind(code).ok_or_else(|| {
                Error::custom(format!("failure pattern event {event}: unknown event code {code}"))
            })?;
            events.push(FailureEvent { kind, pid, time });
        }
        Ok(FailurePattern { events })
    }
}

impl FromIterator<FailureEvent> for FailurePattern {
    fn from_iter<I: IntoIterator<Item = FailureEvent>>(iter: I) -> Self {
        let mut p = FailurePattern::new();
        for e in iter {
            p.push(e);
        }
        p
    }
}

impl Extend<FailureEvent> for FailurePattern {
    fn extend<I: IntoIterator<Item = FailureEvent>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

/// An adversary that replays a recorded [`FailurePattern`] verbatim: events
/// with time `t` are issued at tick `t`. Restart events are issued the tick
/// *before* their recorded time (restarts take effect at the start of the
/// next tick), so a replayed run reproduces the recorded timeline.
#[derive(Clone, Debug)]
pub struct ScheduledAdversary {
    pattern: FailurePattern,
    next: usize,
}

impl ScheduledAdversary {
    /// Replay `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is not a legal fault schedule (see
    /// [`FailurePattern::validate`]). Patterns recorded by the machine are
    /// always legal; use [`ScheduledAdversary::try_new`] for patterns from
    /// untrusted sources.
    pub fn new(pattern: FailurePattern) -> Self {
        Self::try_new(pattern).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Replay `pattern`, rejecting illegal fault schedules.
    ///
    /// # Errors
    ///
    /// [`PatternError`] naming the first offending event.
    pub fn try_new(pattern: FailurePattern) -> Result<Self, PatternError> {
        pattern.validate(None)?;
        Ok(ScheduledAdversary { pattern, next: 0 })
    }

    /// Remaining unissued events.
    pub fn remaining(&self) -> usize {
        self.pattern.size() - self.next
    }
}

impl Adversary for ScheduledAdversary {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let mut d = Decisions::none();
        while let Some(e) = self.pattern.events().get(self.next) {
            // Failures at tick t are issued at tick t; restarts recorded at
            // tick t take effect at t, so they must be issued at t-1.
            let issue_at = match e.kind {
                FailureKind::Failure { .. } => e.time,
                FailureKind::Restart => e.time.saturating_sub(1),
            };
            if issue_at > view.cycle {
                break;
            }
            match e.kind {
                FailureKind::Failure { point } => {
                    d.fail(Pid(e.pid), point);
                }
                FailureKind::Restart => {
                    d.restart(Pid(e.pid));
                }
            }
            self.next += 1;
        }
        d
    }

    fn save_state(&self) -> Option<Value> {
        Some(Value::Map(vec![("next".to_string(), (self.next as u64).to_value())]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        let Value::Map(entries) = state else {
            return Err("scheduled adversary state must be a map".to_string());
        };
        let next = entries
            .iter()
            .find(|(k, _)| k == "next")
            .ok_or_else(|| "scheduled adversary state is missing `next`".to_string())?;
        let next = match next.1 {
            Value::UInt(n) => n as usize,
            ref other => return Err(format!("`next` must be an integer, got {other:?}")),
        };
        if next > self.pattern.size() {
            return Err(format!(
                "`next` = {next} exceeds the pattern's {} events",
                self.pattern.size()
            ));
        }
        self.next = next;
        Ok(())
    }
}

/// Wraps any adversary and records every decision it makes as a
/// [`FailurePattern`], using the same convention as the machine's own
/// recorded pattern (failures logged at the decision tick, restarts at the
/// following tick, where they take effect). Replaying the log through a
/// [`ScheduledAdversary`] therefore reproduces the wrapped adversary's run
/// bit for bit — the backbone of the chaos harness's minimal replay files.
#[derive(Clone, Debug)]
pub struct DecisionRecorder<A> {
    inner: A,
    log: FailurePattern,
}

impl<A> DecisionRecorder<A> {
    /// Record `inner`'s decisions.
    pub fn new(inner: A) -> Self {
        DecisionRecorder { inner, log: FailurePattern::new() }
    }

    /// The decisions recorded so far.
    pub fn pattern(&self) -> &FailurePattern {
        &self.log
    }

    /// Consume the recorder, yielding the recorded pattern.
    pub fn into_pattern(self) -> FailurePattern {
        self.log
    }

    /// The wrapped adversary.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: Adversary> Adversary for DecisionRecorder<A> {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let d = self.inner.decide(view);
        for &(pid, point) in &d.fails {
            self.log.push(FailureEvent {
                kind: FailureKind::Failure { point },
                pid: pid.0,
                time: view.cycle,
            });
        }
        for &pid in &d.restarts {
            self.log.push(FailureEvent {
                kind: FailureKind::Restart,
                pid: pid.0,
                time: view.cycle + 1,
            });
        }
        d
    }

    fn save_state(&self) -> Option<Value> {
        let inner = self.inner.save_state()?;
        Some(Value::Map(vec![
            ("inner".to_string(), inner),
            ("log".to_string(), self.log.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        let Value::Map(entries) = state else {
            return Err("decision recorder state must be a map".to_string());
        };
        let field = |name: &str| {
            entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("decision recorder state is missing `{name}`"))
        };
        let log = FailurePattern::from_value(field("log")?).map_err(|e| e.to_string())?;
        log.validate(None).map_err(|e| e.to_string())?;
        self.inner.restore_state(field("inner")?)?;
        self.log = log;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(pid: usize, time: u64) -> FailureEvent {
        FailureEvent { kind: FailureKind::Failure { point: FailPoint::BeforeWrites }, pid, time }
    }

    #[test]
    fn pattern_counts() {
        let mut p = FailurePattern::new();
        p.push(fail(0, 1));
        p.push(FailureEvent { kind: FailureKind::Restart, pid: 0, time: 3 });
        assert_eq!(p.size(), 2);
        assert_eq!(p.failure_count(), 1);
        assert_eq!(p.restart_count(), 1);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn pattern_rejects_unordered() {
        let mut p = FailurePattern::new();
        p.push(fail(0, 5));
        p.push(fail(1, 2));
    }

    #[test]
    fn collects_from_iterator() {
        let p: FailurePattern = vec![fail(0, 0), fail(1, 1)].into_iter().collect();
        assert_eq!(p.size(), 2);
        assert!(!p.is_empty());
    }

    fn restart(pid: usize, time: u64) -> FailureEvent {
        FailureEvent { kind: FailureKind::Restart, pid, time }
    }

    #[test]
    fn validate_accepts_legal_schedules() {
        let p: FailurePattern =
            vec![fail(0, 1), fail(1, 1), restart(0, 3), fail(0, 5)].into_iter().collect();
        assert_eq!(p.validate(None), Ok(()));
        assert_eq!(p.validate(Some(2)), Ok(()));
    }

    #[test]
    fn validate_rejects_double_failure() {
        let p: FailurePattern = vec![fail(0, 1), fail(0, 2)].into_iter().collect();
        let err = p.validate(None).unwrap_err();
        assert_eq!(err.event, Some(1));
        assert!(err.detail.contains("already failed P0"), "{err}");
    }

    #[test]
    fn validate_rejects_restart_of_alive() {
        let p: FailurePattern = vec![restart(2, 4)].into_iter().collect();
        let err = p.validate(None).unwrap_err();
        assert!(err.to_string().contains("restart of non-failed P2"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_range_pid_and_bad_fail_point() {
        let p: FailurePattern = vec![fail(5, 0)].into_iter().collect();
        assert!(p.validate(Some(4)).unwrap_err().detail.contains("machine has 4"));
        let p = FailurePattern {
            events: vec![FailureEvent {
                kind: FailureKind::Failure { point: FailPoint::AfterWrite(0) },
                pid: 0,
                time: 0,
            }],
        };
        assert!(p.validate(None).unwrap_err().detail.contains("after-write:0"));
    }

    #[test]
    fn validate_rejects_unsorted_pattern() {
        // `push` and the decoder keep the order; validate still catches a
        // pattern built around both.
        let p = FailurePattern { events: vec![fail(0, 5), fail(1, 2)] };
        let err = p.validate(None).unwrap_err();
        assert!(err.detail.contains("not sorted"), "{err}");
        assert!(ScheduledAdversary::try_new(p).is_err());
    }

    fn point(k: usize) -> FailPoint {
        match k {
            0 => FailPoint::BeforeReads,
            1 => FailPoint::BeforeWrites,
            k => FailPoint::AfterWrite(k - 1),
        }
    }

    #[test]
    fn flat_form_is_pinned() {
        let p: FailurePattern = vec![
            FailureEvent { kind: FailureKind::Failure { point: point(0) }, pid: 3, time: 5 },
            FailureEvent { kind: FailureKind::Failure { point: point(3) }, pid: 1, time: 5 },
            restart(3, 7),
            FailureEvent { kind: FailureKind::Failure { point: point(1) }, pid: 12, time: 7 },
        ]
        .into_iter()
        .collect();
        let text = serde::json::to_string(&p);
        assert_eq!(text, "[5,3,1,0,1,4,2,3,0,0,12,2]");
        assert_eq!(serde::json::from_str::<FailurePattern>(&text), Ok(p));
        assert_eq!(serde::json::to_string(&FailurePattern::new()), "[]");
    }

    #[test]
    fn malformed_flat_forms_are_errors() {
        let decode = |text: &str| serde::json::from_str::<FailurePattern>(text).unwrap_err();
        let max = u64::MAX;
        let unknown = 3 + MAX_WRITES as u64;
        for (text, expect) in [
            ("{\"events\":[]}".to_string(), "flat integer array"),
            ("[0,1]".to_string(), "three integers per event, got 2"),
            ("[0,1,2,3]".to_string(), "three integers per event, got 4"),
            ("[0,\"1\",2]".to_string(), "element 1 must be an unsigned integer"),
            ("[0,1,1.5]".to_string(), "element 2 must be an unsigned integer"),
            ("[-1,1,1]".to_string(), "element 0 must be an unsigned integer"),
            ("[0,null,1]".to_string(), "element 1 must be an unsigned integer"),
            ("[0,1,[1]]".to_string(), "element 2 must be an unsigned integer"),
            (format!("[0,1,{unknown}]"), "event 0: unknown event code"),
            (format!("[0,1,1,0,1,{max}]"), "event 1: unknown event code"),
            (format!("[{max},0,1,1,0,0]"), "event 1: time overflows u64"),
        ] {
            let err = decode(&text).to_string();
            assert!(err.contains(expect), "{text}: {err}");
        }
        // Every code up to the widest cycle's last write decodes.
        for code in 0..unknown {
            assert!(serde::json::from_str::<FailurePattern>(&format!("[0,0,{code}]")).is_ok());
        }
        if usize::try_from(max).is_err() {
            assert!(decode(&format!("[0,{max},1]")).to_string().contains("pid does not fit"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]

        /// Encode then decode is the identity on legal patterns: every
        /// fail point, bursts of events in one tick, long gaps, and times
        /// near `u64::MAX`.
        #[test]
        fn flat_form_roundtrips_legal_patterns(
            late in proptest::any::<bool>(),
            steps in proptest::collection::vec(
                (0u8..4, proptest::any::<u64>(), 0usize..8, 0usize..MAX_WRITES + 2),
                0..96,
            ),
        ) {
            // 96 steps of at most 2^40 ticks stay below 2^47.
            let mut time = if late { u64::MAX - (1 << 47) } else { 0 };
            let mut failed = [false; 8];
            let mut p = FailurePattern::new();
            for (gap, raw, pid, k) in steps {
                time += match gap {
                    0 => 0,
                    1 => raw % 4,
                    2 => raw % 256,
                    _ => raw % (1 << 40),
                };
                let kind = if failed[pid] {
                    FailureKind::Restart
                } else {
                    FailureKind::Failure { point: point(k) }
                };
                failed[pid] = !failed[pid];
                p.push(FailureEvent { kind, pid, time });
            }
            proptest::prop_assert_eq!(p.validate(None), Ok(()));
            let text = serde::json::to_string(&p);
            proptest::prop_assert_eq!(serde::json::from_str::<FailurePattern>(&text), Ok(p.clone()));
            proptest::prop_assert_eq!(FailurePattern::from_value(&p.to_value()), Ok(p));
        }
    }

    #[test]
    #[should_panic(expected = "invalid failure pattern")]
    fn scheduled_new_panics_on_illegal_pattern() {
        let _ = ScheduledAdversary::new(vec![restart(0, 1)].into_iter().collect());
    }

    #[test]
    fn scheduled_save_restore_resumes_replay() {
        use crate::memory::SharedMemory;
        use crate::word::Pid;
        use crate::{ProcMeta, ProcStatus};

        let pattern: FailurePattern =
            vec![fail(0, 0), restart(0, 2), fail(1, 3)].into_iter().collect();
        let mut adv = ScheduledAdversary::new(pattern.clone());

        let mem = SharedMemory::new(1);
        let procs = [
            ProcMeta { pid: Pid(0), status: ProcStatus::Alive, completed_cycles: 0 },
            ProcMeta { pid: Pid(1), status: ProcStatus::Alive, completed_cycles: 0 },
        ];
        let tentative = [None, None];
        let view = |cycle| MachineView {
            cycle,
            processors: 2,
            mem: &mem,
            procs: &procs,
            tentative: &tentative,
            unvisited: None,
        };

        // Tick 0 issues the failure of P0 and (at t-1) the restart at t=2.
        let d0 = adv.decide(&view(0));
        assert_eq!(d0.fails.len(), 1);
        let saved = adv.save_state().expect("scheduled adversary is checkpointable");

        let mut resumed = ScheduledAdversary::new(pattern);
        resumed.restore_state(&saved).unwrap();
        assert_eq!(resumed.remaining(), adv.remaining());
        for cycle in 1..5 {
            assert_eq!(adv.decide(&view(cycle)), resumed.decide(&view(cycle)));
        }
        assert_eq!(resumed.remaining(), 0);
    }

    #[test]
    fn recorder_log_replays_identically() {
        use crate::memory::SharedMemory;
        use crate::word::Pid;
        use crate::{ProcMeta, ProcStatus};

        // A stateful scripted adversary (not ScheduledAdversary, so the
        // test exercises the recorder's time-stamping conventions).
        struct EveryOther;
        impl Adversary for EveryOther {
            fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
                let mut d = Decisions::none();
                if view.cycle.is_multiple_of(2) {
                    d.fail(Pid(0), FailPoint::BeforeReads).restart(Pid(0));
                }
                d
            }
        }

        let mem = SharedMemory::new(1);
        let procs = [ProcMeta { pid: Pid(0), status: ProcStatus::Alive, completed_cycles: 0 }];
        let tentative = [None];
        let view = |cycle| MachineView {
            cycle,
            processors: 1,
            mem: &mem,
            procs: &procs,
            tentative: &tentative,
            unvisited: None,
        };

        let mut rec = DecisionRecorder::new(EveryOther);
        let original: Vec<Decisions> = (0..6).map(|c| rec.decide(&view(c))).collect();
        let log = rec.into_pattern();
        assert_eq!(log.validate(None), Ok(()));

        let mut replay = ScheduledAdversary::new(log);
        let replayed: Vec<Decisions> = (0..6).map(|c| replay.decide(&view(c))).collect();
        assert_eq!(original, replayed);
        assert_eq!(replay.remaining(), 0);
    }
}
