//! E2 — Theorem 3.1: the pigeonhole adversary forces `Ω(N log N)`
//! completed work on every Write-All algorithm, even in the snapshot
//! model.

use rfsp_adversary::Pigeonhole;
use rfsp_core::{SnapshotBalance, WriteAllTasks};
use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{LayoutBuilder, NoopObserver, Observer, RunLimits, WorkStats};
use rfsp_run::{Algo, WriteAllSpec};

use crate::{fmt, loglog_slope, print_table, run_write_all, TelemetrySink};

/// Stats of the snapshot algorithm under the pigeonhole adversary, with the
/// run's event stream delivered to `observer` (the unified execution core
/// gives the snapshot machine the same event stream as the word machine).
pub fn snapshot_under_pigeonhole_observed(n: usize, observer: &mut dyn Observer) -> WorkStats {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let algo = SnapshotBalance::new(tasks, n);
    let mut m = SnapshotMachine::new(&algo, n, 1).expect("snapshot machine");
    let mut adversary = Pigeonhole::new(tasks.x());
    let report =
        m.run_observed(&mut adversary, RunLimits::default(), observer).expect("snapshot run");
    assert!(tasks.all_written(m.memory()));
    report.stats
}

/// Completed work and pattern size of the snapshot algorithm under the
/// pigeonhole adversary (unobserved convenience wrapper).
pub fn snapshot_under_pigeonhole(n: usize) -> (u64, u64) {
    let stats = snapshot_under_pigeonhole_observed(n, &mut NoopObserver);
    (stats.completed_work(), stats.pattern_size())
}

/// Run experiment E2.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e2");
    // ×4 ladder up to 64k: large enough that the N log N asymptote shows
    // through the constant factors (feasible since the snapshot machine
    // and the pigeonhole adversary run on the incremental unvisited index).
    let sizes = [1024usize, 4096, 16384, 65536];
    let mut rows = Vec::new();
    let mut snap_points = Vec::new();
    for &n in &sizes {
        let nlogn = n as f64 * (n as f64).log2();
        let snap_stats =
            sink.observe_snapshot(format!("snapshot-pigeonhole-n{n}"), "snapshot", n, n, |obs| {
                snapshot_under_pigeonhole_observed(n, obs)
            });
        let snap_s = snap_stats.completed_work();
        snap_points.push((n as f64, snap_s as f64));
        let mut cols = vec![n.to_string(), fmt(snap_s as f64 / nlogn)];
        for algo in [Algo::X, Algo::V, Algo::Interleaved] {
            let run = sink
                .observe(format!("{}-pigeonhole-n{n}", algo.name()), algo.name(), n, n, |obs| {
                    run_write_all(
                        &WriteAllSpec::new(algo, n, n),
                        |setup| Pigeonhole::new(setup.tasks.x()),
                        RunLimits::default(),
                        obs,
                    )
                })
                .expect("E2 run failed");
            assert!(run.verified);
            cols.push(fmt(run.report.stats.completed_work() as f64 / nlogn));
        }
        rows.push(cols);
    }
    print_table(
        "E2 (Theorem 3.1) — completed work / (N log₂ N) under the pigeonhole adversary, P = N",
        &["N", "snapshot model", "X", "V", "V+X"],
        &rows,
    );
    let slope = loglog_slope(&snap_points);
    println!();
    println!(
        "Paper: every column must stay bounded away from 0 as N grows (the \
         Ω(N log N) lower bound); the snapshot column also stays bounded above \
         (Theorem 3.2). Measured snapshot-model growth exponent: {} \
         (N log N has slope slightly above 1).",
        fmt(slope)
    );
    sink.finish();
}
