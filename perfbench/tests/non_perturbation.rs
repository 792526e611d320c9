//! The benchmark's timing wrappers must not change what they time: on
//! small instances of each in-process workload, a run through the timing
//! `Adversary`/`Observer` gives the same `WorkStats`, the same failure
//! pattern and a byte-identical JSONL event stream as an unwrapped run.

use rfsp_perfbench::inproc::{self, Geometry, InProc};
use rfsp_perfbench::spans::Trace;
use rfsp_perfbench::timing::Clock;
use rfsp_pram::{FailurePattern, TraceRecorder, WorkStats};

fn small(w: InProc) -> (Geometry, usize) {
    match w {
        // Two threads, so the pooled engine runs under the wrappers.
        InProc::ScaleNofail => (Geometry { n: 1 << 14, p: 1 << 8 }, 2),
        InProc::XFaults => (Geometry { n: 1 << 10, p: 1 << 6 }, 1),
        InProc::SnapshotPigeonhole => (Geometry { n: 1 << 8, p: 1 << 8 }, 1),
    }
}

const ALL: [InProc; 3] = [InProc::ScaleNofail, InProc::XFaults, InProc::SnapshotPigeonhole];

fn run(w: InProc, traced: bool) -> (WorkStats, FailurePattern, String) {
    let (g, threads) = small(w);
    let mut recorder = TraceRecorder::unbounded();
    let rep = inproc::rep(w, g, 11, threads, Clock::new(), traced, Some(&mut recorder))
        .expect("small run succeeds");
    rep.check().expect("output checks pass");
    assert_eq!(rep.ticks.is_some(), traced);
    (rep.stats, rep.pattern, recorder.to_jsonl())
}

#[test]
fn timing_wrappers_leave_stats_pattern_and_events_unchanged() {
    for w in ALL {
        let plain = run(w, false);
        let timed = run(w, true);
        assert_eq!(plain.0, timed.0, "{w:?}: WorkStats differ");
        assert_eq!(plain.1, timed.1, "{w:?}: failure patterns differ");
        assert!(!plain.2.is_empty(), "{w:?}: no events recorded");
        assert!(plain.2 == timed.2, "{w:?}: JSONL event streams differ");
    }
}

#[test]
fn traced_ticks_pair_up_and_nest_under_one_run_span() {
    for w in ALL {
        let (g, threads) = small(w);
        let clock = Clock::new();
        let rep = inproc::rep(w, g, 11, threads, clock, true, None).expect("small run succeeds");
        let mut trace = Trace::default();
        let phases = inproc::record_spans(&mut trace, 0, &rep).expect("stamps pair up");
        assert_eq!(phases.ticks, rep.stats.parallel_time, "{w:?}");
        let totals = trace.totals();
        assert_eq!(totals["tick"].1, phases.ticks, "{w:?}");
        assert_eq!(totals["adversary.decide"].1, phases.ticks, "{w:?}");
        assert_eq!(totals["rep"].1, 1, "{w:?}");
        // Tick phases tile each tick, so only the run call's entry and
        // exit and the gaps between stamps are unattributed.
        assert_eq!(totals["tick"].0, 0, "{w:?}: tick phases leave gaps");
        let share = trace.unattributed_share();
        assert!((0.0..1.0).contains(&share), "{w:?}: unattributed share {share}");
    }
}
