//! Execution observers: structured event streams and per-tick telemetry.
//!
//! An [`Observer`] receives every semantically meaningful event of a run —
//! cycle completions, interruptions, failures, restarts, committed writes,
//! completion — letting tools trace, visualize or cross-check executions
//! without touching the accounting. Two observers ship with the crate:
//!
//! * [`TraceRecorder`] — a bounded **ring buffer**: keeps the most recent
//!   `cap` events (the interesting tail of a long run) while totals keep
//!   counting, and exports the stream as JSONL for replay comparison.
//!   Per-kind counts over an unbounded recording are checked against
//!   [`WorkStats`](crate::WorkStats) in the test suite, giving the
//!   accounting an independent witness.
//! * [`MetricsObserver`] — folds the event stream into a per-tick
//!   [`TickMetrics`] time series (alive processors, completions,
//!   failures, restarts, commits, cumulative `S`, `S'` and `|F|`), the
//!   measurement substrate behind the `BENCH_*.json` artifacts and the
//!   `rfsp trace` subcommand. The finished [`RunSeries`] exports as JSON,
//!   JSONL or CSV via serde.
//!
//! Every engine emits the identical stream for identical runs: each row of
//! [`Machine::run_with`](crate::Machine::run_with)'s backend table shares
//! the one run loop, which the test suite pins with a byte-identical JSONL
//! comparison under a replayed failure pattern.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::adversary::FailPoint;
use crate::word::{Pid, Word};

/// One machine event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A new tick began.
    TickStart {
        /// The tick.
        cycle: u64,
    },
    /// A processor completed (and was charged for) its update cycle.
    CycleCompleted {
        /// The tick.
        cycle: u64,
        /// The processor.
        pid: Pid,
    },
    /// A processor's cycle was interrupted by a failure.
    CycleInterrupted {
        /// The tick.
        cycle: u64,
        /// The processor.
        pid: Pid,
    },
    /// A processor was stopped by the adversary.
    Failure {
        /// The tick.
        cycle: u64,
        /// The processor.
        pid: Pid,
        /// Where inside the cycle the stop landed.
        point: FailPoint,
    },
    /// A processor was restarted (effective next tick).
    Restart {
        /// The tick.
        cycle: u64,
        /// The processor.
        pid: Pid,
    },
    /// A write was committed to shared memory (after conflict resolution).
    Commit {
        /// The tick.
        cycle: u64,
        /// The written address.
        addr: usize,
        /// The written value.
        value: Word,
    },
    /// The program's completion predicate became true.
    Completed {
        /// The tick at which completion was detected.
        cycle: u64,
    },
}

impl TraceEvent {
    /// Append this event's JSON to `out`: byte for byte what
    /// `serde::json::to_string(self)` renders, without building a
    /// `serde::Value` tree or a `String`. Every JSONL event sink (the
    /// events log, the daemon's watch stream, [`TraceRecorder::to_jsonl`])
    /// encodes through here into a buffer it reuses; the derived
    /// `Serialize` stays the reference the tests pin this encoder to.
    pub fn append_json(&self, out: &mut Vec<u8>) {
        match *self {
            TraceEvent::TickStart { cycle } => open_variant(out, "TickStart", cycle),
            TraceEvent::CycleCompleted { cycle, pid } => {
                open_variant(out, "CycleCompleted", cycle);
                push_field(out, "pid", pid.0 as u64);
            }
            TraceEvent::CycleInterrupted { cycle, pid } => {
                open_variant(out, "CycleInterrupted", cycle);
                push_field(out, "pid", pid.0 as u64);
            }
            TraceEvent::Failure { cycle, pid, point } => {
                open_variant(out, "Failure", cycle);
                push_field(out, "pid", pid.0 as u64);
                out.extend_from_slice(b",\"point\":");
                match point {
                    FailPoint::BeforeReads => out.extend_from_slice(b"\"BeforeReads\""),
                    FailPoint::BeforeWrites => out.extend_from_slice(b"\"BeforeWrites\""),
                    FailPoint::AfterWrite(k) => {
                        out.extend_from_slice(b"{\"AfterWrite\":");
                        push_uint(out, k as u64);
                        out.push(b'}');
                    }
                }
            }
            TraceEvent::Restart { cycle, pid } => {
                open_variant(out, "Restart", cycle);
                push_field(out, "pid", pid.0 as u64);
            }
            TraceEvent::Commit { cycle, addr, value } => {
                open_variant(out, "Commit", cycle);
                push_field(out, "addr", addr as u64);
                push_field(out, "value", value);
            }
            TraceEvent::Completed { cycle } => open_variant(out, "Completed", cycle),
        }
        out.extend_from_slice(b"}}");
    }
}

/// `{"<variant>":{"cycle":<cycle>`: every event's opening, since `cycle`
/// is each variant's first field.
fn open_variant(out: &mut Vec<u8>, variant: &str, cycle: u64) {
    out.extend_from_slice(b"{\"");
    out.extend_from_slice(variant.as_bytes());
    out.extend_from_slice(b"\":{\"cycle\":");
    push_uint(out, cycle);
}

/// `,"<name>":<value>`.
fn push_field(out: &mut Vec<u8>, name: &str, value: u64) {
    out.extend_from_slice(b",\"");
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b"\":");
    push_uint(out, value);
}

/// `value` in decimal, as the JSON writer renders unsigned integers.
fn push_uint(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// A sink for [`TraceEvent`]s. All methods default to no-ops so observers
/// implement only what they need.
pub trait Observer: Send {
    /// Receive one event.
    fn event(&mut self, event: TraceEvent);
}

/// The do-nothing observer: lets observer-taking APIs be called without
/// telemetry at zero cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn event(&mut self, _event: TraceEvent) {}
}

/// Fan one event stream out to two observers, e.g. a [`TraceRecorder`] and
/// a [`MetricsObserver`] on the same run.
pub struct Tee<'a>(pub &'a mut dyn Observer, pub &'a mut dyn Observer);

impl Observer for Tee<'_> {
    fn event(&mut self, event: TraceEvent) {
        self.0.event(event);
        self.1.event(event);
    }
}

/// A bounded ring-buffer recorder: keeps the **most recent** `cap` events
/// (evicting the oldest), so long runs retain the interesting tail instead
/// of the boring prefix. Totals keep counting past the cap.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    events: VecDeque<TraceEvent>,
    cap: usize,
    /// Total events seen, including evicted ones.
    pub total_events: u64,
    /// Events evicted to respect the cap.
    pub dropped: u64,
}

impl TraceRecorder {
    /// An effectively unbounded recorder (cap `usize::MAX`).
    pub fn unbounded() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// Keep only the most recent `cap` events.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "ring buffer needs a positive capacity");
        TraceRecorder { events: VecDeque::new(), cap, total_events: 0, dropped: 0 }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The retained events as a contiguous vector, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The retained stream as JSONL: one event per line in its serde JSON
    /// form (see [`TraceEvent::append_json`]), trailing newline included.
    /// Two identical runs export byte-identical streams, which the
    /// engine-equivalence tests rely on.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        for e in &self.events {
            e.append_json(&mut out);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("event JSON is ASCII")
    }
}

impl Observer for TraceRecorder {
    fn event(&mut self, event: TraceEvent) {
        self.total_events += 1;
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// First-class wasted-work accounting for runs under faults: everything a
/// crash/restart run spends that an undisturbed run would not. Filled by
/// runners (the long-run mode, the soak harness, the policy bench) and
/// carried on [`RunSeries`] so the tradeoff the checkpoint-interval policy
/// optimizes — replay cost vs checkpoint overhead — is a measured series,
/// not an estimate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct WastedWork {
    /// Checkpoint restores performed (crashes survived).
    pub restores: u64,
    /// Ticks re-executed because they post-dated the restored checkpoint.
    pub replayed_ticks: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Total serialized checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// Wall-clock nanoseconds spent saving checkpoints (telemetry only —
    /// policy decisions never read this; see `crate::policy`).
    pub checkpoint_ns: u64,
}

impl WastedWork {
    /// Accumulate another accounting into this one (e.g. a resumed run's
    /// fresh tally onto the checkpointed cumulative one).
    pub fn absorb(&mut self, other: &WastedWork) {
        self.restores += other.restores;
        self.replayed_ticks += other.replayed_ticks;
        self.checkpoints += other.checkpoints;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.checkpoint_ns += other.checkpoint_ns;
    }
}

/// One row of the per-tick telemetry time series.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct TickMetrics {
    /// The tick this row describes.
    pub cycle: u64,
    /// Processors alive at the start of the tick (failures later in the
    /// same tick do not subtract; restarts count from the following tick).
    pub alive: u64,
    /// Update cycles completed (and charged) this tick.
    pub completed: u64,
    /// Update cycles interrupted by failures this tick.
    pub interrupted: u64,
    /// Failure events this tick.
    pub failures: u64,
    /// Restart events this tick (effective next tick).
    pub restarts: u64,
    /// Writes committed to shared memory this tick.
    pub commits: u64,
    /// Cumulative completed work `S` through this tick.
    pub s: u64,
    /// Cumulative available steps `S' = S + interrupted` through this tick.
    pub s_prime: u64,
    /// Cumulative failure-pattern size `|F|` through this tick.
    pub pattern_size: u64,
    /// `1` if this tick re-executed work already performed before a
    /// checkpoint restore (detected from the stream: its cycle number is
    /// at or below the observer's high-water mark), else `0`.
    pub replayed: u64,
}

impl TickMetrics {
    /// The CSV header matching [`TickMetrics::to_csv_row`].
    pub const CSV_HEADER: &'static str =
        "cycle,alive,completed,interrupted,failures,restarts,commits,s,s_prime,pattern_size,replayed";

    /// This row as a CSV line (no trailing newline).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{}",
            self.cycle,
            self.alive,
            self.completed,
            self.interrupted,
            self.failures,
            self.restarts,
            self.commits,
            self.s,
            self.s_prime,
            self.pattern_size,
            self.replayed
        )
    }
}

/// A complete per-tick telemetry series for one run.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RunSeries {
    /// Processor count `P` of the machine that produced the series.
    pub processors: u64,
    /// The tick at which the program completed, if it did.
    pub completed_cycle: Option<u64>,
    /// Wasted-work accounting for the run (all zeros for an undisturbed
    /// run with no checkpointing).
    pub wasted: WastedWork,
    /// One row per tick, in tick order.
    pub ticks: Vec<TickMetrics>,
}

impl RunSeries {
    /// The final row, if any tick ran.
    pub fn last(&self) -> Option<&TickMetrics> {
        self.ticks.last()
    }

    /// The series as JSONL: one row per line (trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.ticks {
            out.push_str(&serde::json::to_string(t));
            out.push('\n');
        }
        out
    }

    /// The series as CSV with a header row (trailing newline included).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(TickMetrics::CSV_HEADER);
        out.push('\n');
        for t in &self.ticks {
            out.push_str(&t.to_csv_row());
            out.push('\n');
        }
        out
    }

    /// Stream the series as JSONL into `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(self.to_jsonl().as_bytes())
    }

    /// Stream the series as CSV into `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_csv<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(self.to_csv().as_bytes())
    }
}

/// Folds the event stream into a per-tick [`TickMetrics`] series.
///
/// Attach to any observed entry point
/// ([`Machine::run_observed`](crate::Machine::run_observed),
/// [`Machine::run_threaded_observed`](crate::Machine::run_threaded_observed),
/// [`Machine::tick_observed`](crate::Machine::tick_observed)); call
/// [`MetricsObserver::finish`] afterwards to close the final tick and take
/// the [`RunSeries`].
#[derive(Clone, Debug)]
pub struct MetricsObserver {
    processors: usize,
    /// Per-processor failed flag, tracked from failure/restart events.
    failed: Vec<bool>,
    /// The row being accumulated, if a tick is open.
    open: Option<TickMetrics>,
    ticks: Vec<TickMetrics>,
    completed_cycle: Option<u64>,
    s: u64,
    s_prime: u64,
    pattern_size: u64,
    /// Highest tick number seen; a `TickStart` at or below it means the
    /// stream rewound through a checkpoint restore and the tick is a
    /// replay.
    high_water: Option<u64>,
    wasted: WastedWork,
}

impl MetricsObserver {
    /// An observer for a machine with `processors` processors.
    pub fn new(processors: usize) -> Self {
        MetricsObserver {
            processors,
            failed: vec![false; processors],
            open: None,
            ticks: Vec::new(),
            completed_cycle: None,
            s: 0,
            s_prime: 0,
            pattern_size: 0,
            high_water: None,
            wasted: WastedWork::default(),
        }
    }

    /// Note a checkpoint written by the runner driving this observer
    /// (`bytes` serialized, `ns` of wall-clock save time).
    pub fn note_checkpoint(&mut self, bytes: u64, ns: u64) {
        self.wasted.checkpoints += 1;
        self.wasted.checkpoint_bytes += bytes;
        self.wasted.checkpoint_ns += ns;
    }

    /// Note a checkpoint restore performed by the runner. Replayed ticks
    /// are counted separately, from the rewound stream itself.
    pub fn note_restore(&mut self) {
        self.wasted.restores += 1;
    }

    /// The wasted-work tally so far.
    pub fn wasted(&self) -> WastedWork {
        self.wasted
    }

    fn alive(&self) -> u64 {
        (self.processors - self.failed.iter().filter(|&&f| f).count()) as u64
    }

    fn close_open_tick(&mut self) {
        if let Some(row) = self.open.take() {
            self.ticks.push(row);
        }
    }

    /// Close the final tick and return the finished series.
    pub fn finish(mut self) -> RunSeries {
        self.close_open_tick();
        RunSeries {
            processors: self.processors as u64,
            completed_cycle: self.completed_cycle,
            wasted: self.wasted,
            ticks: self.ticks,
        }
    }

    /// The rows of every *closed* tick so far (streaming consumers can
    /// read this between [`Machine::tick_observed`]
    /// (crate::Machine::tick_observed) calls).
    pub fn ticks(&self) -> &[TickMetrics] {
        &self.ticks
    }
}

impl Observer for MetricsObserver {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::TickStart { cycle } => {
                self.close_open_tick();
                let replayed = self.high_water.is_some_and(|h| cycle <= h);
                self.high_water = Some(self.high_water.map_or(cycle, |h| h.max(cycle)));
                if replayed {
                    self.wasted.replayed_ticks += 1;
                }
                self.open = Some(TickMetrics {
                    cycle,
                    alive: self.alive(),
                    s: self.s,
                    s_prime: self.s_prime,
                    pattern_size: self.pattern_size,
                    replayed: u64::from(replayed),
                    ..TickMetrics::default()
                });
            }
            TraceEvent::CycleCompleted { .. } => {
                self.s += 1;
                self.s_prime += 1;
                if let Some(row) = &mut self.open {
                    row.completed += 1;
                    row.s = self.s;
                    row.s_prime = self.s_prime;
                }
            }
            TraceEvent::CycleInterrupted { .. } => {
                self.s_prime += 1;
                if let Some(row) = &mut self.open {
                    row.interrupted += 1;
                    row.s_prime = self.s_prime;
                }
            }
            TraceEvent::Failure { pid, .. } => {
                self.pattern_size += 1;
                if let Some(f) = self.failed.get_mut(pid.0) {
                    *f = true;
                }
                if let Some(row) = &mut self.open {
                    row.failures += 1;
                    row.pattern_size = self.pattern_size;
                }
            }
            TraceEvent::Restart { pid, .. } => {
                self.pattern_size += 1;
                if let Some(f) = self.failed.get_mut(pid.0) {
                    *f = false;
                }
                if let Some(row) = &mut self.open {
                    row.restarts += 1;
                    row.pattern_size = self.pattern_size;
                }
            }
            TraceEvent::Commit { .. } => {
                if let Some(row) = &mut self.open {
                    row.commits += 1;
                }
            }
            TraceEvent::Completed { cycle } => {
                self.close_open_tick();
                self.completed_cycle = Some(cycle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_evicts_oldest() {
        let mut rec = TraceRecorder::with_capacity(2);
        rec.event(TraceEvent::TickStart { cycle: 0 });
        rec.event(TraceEvent::CycleCompleted { cycle: 0, pid: Pid(0) });
        rec.event(TraceEvent::TickStart { cycle: 1 });
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.total_events, 3);
        assert_eq!(rec.dropped, 1);
        let kept = rec.to_vec();
        assert_eq!(kept[0], TraceEvent::CycleCompleted { cycle: 0, pid: Pid(0) });
        assert_eq!(kept[1], TraceEvent::TickStart { cycle: 1 });
    }

    #[test]
    fn trace_event_serde_roundtrip() {
        let events = vec![
            TraceEvent::TickStart { cycle: 3 },
            TraceEvent::Failure { cycle: 3, pid: Pid(2), point: FailPoint::AfterWrite(1) },
            TraceEvent::Commit { cycle: 3, addr: 17, value: 9 },
            TraceEvent::Completed { cycle: 4 },
        ];
        for e in &events {
            let text = serde::json::to_string(e);
            let back: TraceEvent = serde::json::from_str(&text).unwrap();
            assert_eq!(back, *e, "event {text} did not round-trip");
        }
    }

    /// Every variant and every `FailPoint` shape, with `cycle` and the
    /// other fields drawn from `c`, `u` and `w`.
    fn every_shape(c: u64, u: usize, w: u64) -> Vec<TraceEvent> {
        let pid = Pid(u);
        let mut events = vec![
            TraceEvent::TickStart { cycle: c },
            TraceEvent::CycleCompleted { cycle: c, pid },
            TraceEvent::CycleInterrupted { cycle: c, pid },
            TraceEvent::Restart { cycle: c, pid },
            TraceEvent::Commit { cycle: c, addr: u, value: w },
            TraceEvent::Completed { cycle: c },
        ];
        for point in [FailPoint::BeforeReads, FailPoint::BeforeWrites, FailPoint::AfterWrite(u)] {
            events.push(TraceEvent::Failure { cycle: c, pid, point });
        }
        events
    }

    /// Encode `e` after bytes the buffer already holds, and demand the
    /// appended bytes equal the derived `Serialize`'s rendering.
    fn check_encoder(e: &TraceEvent) -> Result<(), String> {
        let mut buf = b"kept".to_vec();
        e.append_json(&mut buf);
        let want = serde::json::to_string(e);
        if buf.starts_with(b"kept") && buf[4..] == *want.as_bytes() {
            Ok(())
        } else {
            Err(format!("{e:?}: encoder wrote {:?}, serde {want}", String::from_utf8_lossy(&buf)))
        }
    }

    #[test]
    fn encoder_matches_serde_on_every_shape() {
        const WORDS: [u64; 4] = [0, 1, u64::MAX, usize::MAX as u64];
        const SIZES: [usize; 3] = [0, 1, usize::MAX];
        let mut checked = 0;
        for c in WORDS {
            for u in SIZES {
                for w in WORDS {
                    for e in every_shape(c, u, w) {
                        check_encoder(&e).unwrap();
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 4 * 3 * 4 * 9);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]

        #[test]
        fn encoder_matches_serde_on_arbitrary_events(
            shape in 0usize..9,
            words in (proptest::any::<u64>(), proptest::any::<usize>(), proptest::any::<u64>()),
            // Right shifts spread the draws over every digit count.
            shifts in (0u32..64, 0u32..64, 0u32..64),
        ) {
            let (c, u, w) = (words.0 >> shifts.0, words.1 >> shifts.1, words.2 >> shifts.2);
            let e = every_shape(c, u, w)[shape];
            check_encoder(&e).map_err(proptest::TestCaseError::fail)?;
        }
    }

    #[test]
    fn to_jsonl_is_one_serde_line_per_event() {
        let mut rec = TraceRecorder::unbounded();
        let events = every_shape(7, 3, 11);
        for &e in &events {
            rec.event(e);
        }
        let want: String = events.iter().map(|e| serde::json::to_string(e) + "\n").collect();
        assert_eq!(rec.to_jsonl(), want);
    }

    #[test]
    fn metrics_fold_small_run() {
        let mut m = MetricsObserver::new(2);
        m.event(TraceEvent::TickStart { cycle: 0 });
        m.event(TraceEvent::CycleCompleted { cycle: 0, pid: Pid(0) });
        m.event(TraceEvent::CycleInterrupted { cycle: 0, pid: Pid(1) });
        m.event(TraceEvent::Failure { cycle: 0, pid: Pid(1), point: FailPoint::BeforeWrites });
        m.event(TraceEvent::Commit { cycle: 0, addr: 0, value: 1 });
        m.event(TraceEvent::TickStart { cycle: 1 });
        m.event(TraceEvent::CycleCompleted { cycle: 1, pid: Pid(0) });
        m.event(TraceEvent::Restart { cycle: 1, pid: Pid(1) });
        m.event(TraceEvent::TickStart { cycle: 2 });
        m.event(TraceEvent::CycleCompleted { cycle: 2, pid: Pid(0) });
        m.event(TraceEvent::CycleCompleted { cycle: 2, pid: Pid(1) });
        m.event(TraceEvent::Completed { cycle: 3 });
        let series = m.finish();
        assert_eq!(series.completed_cycle, Some(3));
        assert_eq!(series.ticks.len(), 3);
        let [t0, t1, t2] = series.ticks[..] else { panic!("expected 3 rows") };
        assert_eq!((t0.alive, t0.completed, t0.interrupted, t0.failures), (2, 1, 1, 1));
        assert_eq!((t1.alive, t1.restarts), (1, 1), "P1 down at tick 1 start");
        assert_eq!(t2.alive, 2, "restart effective at tick 2");
        assert_eq!((t2.s, t2.s_prime, t2.pattern_size), (4, 5, 2));
    }

    #[test]
    fn series_exports_roundtrip() {
        let series = RunSeries {
            processors: 2,
            completed_cycle: Some(1),
            wasted: WastedWork { checkpoints: 3, checkpoint_bytes: 900, ..Default::default() },
            ticks: vec![
                TickMetrics {
                    cycle: 0,
                    alive: 2,
                    completed: 2,
                    s: 2,
                    s_prime: 2,
                    ..Default::default()
                },
                TickMetrics {
                    cycle: 1,
                    alive: 2,
                    completed: 1,
                    s: 3,
                    s_prime: 3,
                    ..Default::default()
                },
            ],
        };
        // JSON round-trip through serde.
        let json = serde::json::to_string(&series);
        let back: RunSeries = serde::json::from_str(&json).unwrap();
        assert_eq!(back, series);
        // JSONL: one line per tick.
        assert_eq!(series.to_jsonl().lines().count(), 2);
        // CSV: header + rows, fixed column order.
        let csv = series.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(TickMetrics::CSV_HEADER));
        assert_eq!(lines.clone().count(), 2);
        assert!(lines.next().unwrap().starts_with("0,2,2,"));
    }

    #[test]
    fn replayed_ticks_detected_from_rewound_stream() {
        // Simulate a crash after tick 3 with a checkpoint at tick 2: the
        // stream rewinds and ticks 2 and 3 run again.
        let mut m = MetricsObserver::new(1);
        for cycle in 0..4 {
            m.event(TraceEvent::TickStart { cycle });
            m.event(TraceEvent::CycleCompleted { cycle, pid: Pid(0) });
        }
        m.note_checkpoint(512, 1000);
        m.note_restore();
        for cycle in 2..5 {
            m.event(TraceEvent::TickStart { cycle });
            m.event(TraceEvent::CycleCompleted { cycle, pid: Pid(0) });
        }
        m.event(TraceEvent::Completed { cycle: 5 });
        let series = m.finish();
        assert_eq!(series.wasted.restores, 1);
        assert_eq!(series.wasted.replayed_ticks, 2, "ticks 2 and 3 replayed");
        assert_eq!(series.wasted.checkpoints, 1);
        assert_eq!(series.wasted.checkpoint_bytes, 512);
        let replayed: Vec<u64> = series.ticks.iter().map(|t| t.replayed).collect();
        assert_eq!(replayed, vec![0, 0, 0, 0, 1, 1, 0]);
        assert!(series.to_csv().lines().next().unwrap().ends_with(",replayed"));
    }

    #[test]
    fn wasted_work_absorbs() {
        let mut a = WastedWork { restores: 1, replayed_ticks: 5, ..Default::default() };
        let b = WastedWork {
            restores: 2,
            replayed_ticks: 7,
            checkpoints: 3,
            checkpoint_bytes: 64,
            checkpoint_ns: 9,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            WastedWork {
                restores: 3,
                replayed_ticks: 12,
                checkpoints: 3,
                checkpoint_bytes: 64,
                checkpoint_ns: 9,
            }
        );
    }

    #[test]
    fn tee_duplicates_events() {
        let mut a = TraceRecorder::unbounded();
        let mut b = TraceRecorder::unbounded();
        {
            let mut tee = Tee(&mut a, &mut b);
            tee.event(TraceEvent::TickStart { cycle: 0 });
            tee.event(TraceEvent::CycleCompleted { cycle: 0, pid: Pid(0) });
        }
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }
}
