//! Timing wrappers around the two interfaces the machine calls back into
//! on every tick: the [`Adversary`] and the [`Observer`].
//!
//! Both wrappers only stamp a shared monotonic [`Clock`] and forward the
//! call unchanged, so a wrapped run makes the same decisions and emits the
//! same events as an unwrapped one (pinned by `tests/non_perturbation.rs`).
//! Stamps go to plain vectors owned by each wrapper; nothing enters the
//! deterministic event stream.

use std::time::Instant;

use rfsp_pram::{Adversary, Decisions, MachineView, Observer, TraceEvent};
use serde::Value;

/// One in this many `Observer::event` calls (other than `TickStart` and
/// `Completed`, which are always stamped) is timed. Timing every call made
/// a traced `x_faults` run (5 M events) 2.6 times as long as an untraced
/// one.
pub const OBSERVER_SAMPLE: u64 = 1024;

/// Nanoseconds since a fixed epoch, shared by every stamp of one run.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Median cost of one back-to-back pair of stamps, subtracted from
    /// sampled spans shorter than a few stamps.
    pub fn overhead_ns(&self) -> u64 {
        let mut pairs: Vec<u64> = (0..4001)
            .map(|_| {
                let a = self.now();
                self.now() - a
            })
            .collect();
        pairs.sort_unstable();
        pairs[pairs.len() / 2]
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// Stamps the start and end of every [`Adversary::decide`] call.
pub struct TimedAdversary<'a> {
    inner: &'a mut dyn Adversary,
    clock: Clock,
    /// `(start, end)` of each `decide` call, in call order.
    pub calls: Vec<(u64, u64)>,
}

impl<'a> TimedAdversary<'a> {
    /// Wrap `inner`, stamping with `clock`.
    pub fn new(inner: &'a mut dyn Adversary, clock: Clock) -> Self {
        TimedAdversary { inner, clock, calls: Vec::new() }
    }
}

impl Adversary for TimedAdversary<'_> {
    fn decide(&mut self, view: &MachineView<'_>) -> Decisions {
        let start = self.clock.now();
        let decisions = self.inner.decide(view);
        self.calls.push((start, self.clock.now()));
        decisions
    }

    fn save_state(&self) -> Option<Value> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// Stamps every `TickStart` and `Completed` event and times a fixed
/// sample of the other [`Observer::event`] calls into the wrapped
/// observer.
pub struct TimedObserver<'a> {
    inner: &'a mut dyn Observer,
    clock: Clock,
    /// Stamp taken as each `TickStart` arrived, in tick order.
    pub tick_starts: Vec<u64>,
    /// Stamp taken as the `Completed` event arrived.
    pub completed_at: Option<u64>,
    /// Every event delivered, `TickStart` and `Completed` included.
    pub events: u64,
    /// `(start, end)` of each sampled call into the wrapped observer.
    pub samples: Vec<(u64, u64)>,
}

impl<'a> TimedObserver<'a> {
    /// Wrap `inner`, stamping with `clock`.
    pub fn new(inner: &'a mut dyn Observer, clock: Clock) -> Self {
        TimedObserver {
            inner,
            clock,
            tick_starts: Vec::new(),
            completed_at: None,
            events: 0,
            samples: Vec::new(),
        }
    }
}

impl Observer for TimedObserver<'_> {
    fn event(&mut self, event: TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::TickStart { .. } => self.tick_starts.push(self.clock.now()),
            TraceEvent::Completed { .. } => self.completed_at = Some(self.clock.now()),
            _ if self.events.is_multiple_of(OBSERVER_SAMPLE) => {
                let start = self.clock.now();
                self.inner.event(event);
                self.samples.push((start, self.clock.now()));
                return;
            }
            _ => {}
        }
        self.inner.event(event);
    }
}
