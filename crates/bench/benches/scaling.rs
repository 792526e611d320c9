//! Near-linear scaling sweep for the batched tentative-phase kernels.
//!
//! Measures wall time of the no-failure Write-All baseline as the instance
//! grows to `N = 2^28` and the pooled tick engine fans out over worker
//! threads, and writes `BENCH_SCALE.json` (next to `BENCH_BANKS.json`)
//! with ns/cell and parallel-efficiency columns:
//!
//! * **word model**, flat layout: the full grid
//!   `N ∈ {2^20, 2^24, 2^28} × threads ∈ {1, 2, 4, 8}` — the tentpole
//!   claim (vectorized kernels keep ns/cell flat while N grows three
//!   decades, and pooled runs approach linear speedup on multi-core
//!   hosts);
//! * **word model**, banked layout (64 banks, block interleave 8): the
//!   same thread sweep at `N ∈ {2^20, 2^24}` — bank arithmetic must not
//!   break the scaling;
//! * **snapshot model**, flat + banked at `N ∈ {2^20, 2^22}`,
//!   single-threaded (the snapshot machine is sequential by design).
//!
//! Every run is a real machine execution ([`TrivialAssign`] /
//! [`SnapshotBalance`] under [`NoFailures`]) with the postcondition
//! verified; `speedup_vs_1t` and `parallel_efficiency` compare each pooled
//! row against the sequential row of the same (model, layout, N) in the
//! same process, so the ratios are host-independent even where absolute
//! times are not.
//!
//! The artifact records the measuring host (logical cores, active
//! `RFSP_*` tuning) so consumers can tell real parallelism from a host
//! that could never express it.
//!
//! Set `RFSP_BENCH_QUICK=1` to shrink the sweep to seconds (CI smoke
//! mode); in quick mode the run additionally **asserts** speedup > 1 at
//! 4 threads for the largest quick size whenever the host has at least 4
//! logical cores, so the CI bench job's exit code gates scaling
//! regressions. `RFSP_BENCH_DIR` chooses the artifact directory
//! (default `.`).

use std::time::Instant;

use rfsp_core::{SnapshotBalance, TrivialAssign, WriteAllTasks};
use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{
    CycleBudget, LayoutBuilder, Machine, MemoryLayout, NoFailures, NoopObserver, RunLimits,
    RunReport,
};
use serde::{Deserialize, Serialize};

/// Fixed per-processor load: `P = N / CELLS_PER_PROC`, so the tick count
/// stays constant across the N sweep and ns/cell isolates per-cell cost.
const CELLS_PER_PROC: usize = 4096;

/// One row of `BENCH_SCALE.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ScaleRow {
    model: String,
    layout: String,
    n: u64,
    p: u64,
    threads: u64,
    ticks: u64,
    elapsed_ns: u64,
    ns_per_cell: f64,
    speedup_vs_1t: f64,
    parallel_efficiency: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct ScaleArtifact {
    experiment: String,
    cells_per_proc: u64,
    quick: bool,
    /// Logical CPUs of the measuring host. Consumers (`bench_guard`, the
    /// CI smoke gate) must not hold speedup expectations the recording
    /// host could not physically express: a row measured with
    /// `threads > host_logical_cores` documents coordination overhead,
    /// not parallelism.
    host_logical_cores: u64,
    /// `RFSP_*` tuning environment active during the measurement, as
    /// sorted `KEY=VALUE` strings — so a blessed artifact records whether
    /// the pool was forced, degraded or left at its defaults.
    host_tuning: Vec<String>,
    rows: Vec<ScaleRow>,
}

fn quick() -> bool {
    std::env::var_os("RFSP_BENCH_QUICK").is_some()
}

fn host_logical_cores() -> u64 {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64
}

fn host_tuning() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("RFSP_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    vars.sort();
    vars
}

/// Word-model sizes for the flat sweep (the tentpole reaches `2^28`).
///
/// Quick mode keeps two tiny smoke points but tops out at `2^23`: large
/// enough that a tick's work (~100µs) clears the adaptive inline-degrade
/// threshold, so the CI smoke gate below measures the actual parallel
/// engine instead of the deliberate single-worker fallback — while one
/// point stays a few seconds, not minutes.
fn word_sizes() -> Vec<usize> {
    if quick() {
        vec![1 << 12, 1 << 14, 1 << 23]
    } else {
        vec![1 << 20, 1 << 24, 1 << 28]
    }
}

/// Sizes for the banked word sweep.
fn small_sizes() -> Vec<usize> {
    if quick() {
        vec![1 << 12]
    } else {
        vec![1 << 20, 1 << 24]
    }
}

/// Sizes for the snapshot model. Its tentative phase ranks and `select`s
/// in the unvisited index every tick, at O(log N) per processor, so the
/// run costs `O(N log N)` whatever the cells per processor. The sweep
/// times the snapshot machine sequentially, so it has no thread axis and
/// stays at two sizes.
fn snapshot_sizes() -> Vec<usize> {
    if quick() {
        vec![1 << 12]
    } else {
        vec![1 << 20, 1 << 22]
    }
}

fn thread_sweep() -> Vec<usize> {
    if quick() {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// Repetitions per point (best-of, minimum as the estimator); the largest
/// instances run once — a 2 GiB array is its own noise floor.
fn reps(n: usize) -> usize {
    if n >= 1 << 26 {
        1
    } else {
        3
    }
}

/// One timed word-model run; returns (elapsed ns, report).
fn word_run_once(layout: MemoryLayout, n: usize, p: usize, threads: usize) -> (u128, RunReport) {
    let mut lb = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut lb, n);
    let algo = TrivialAssign::new(tasks, p);
    let mut m = Machine::with_layout(&algo, p, CycleBudget::PAPER, layout).expect("valid layout");
    let start = Instant::now();
    let report = m
        .run_threaded_observed(&mut NoFailures, RunLimits::default(), threads, &mut NoopObserver)
        .expect("scaling run");
    let elapsed = start.elapsed().as_nanos();
    assert!(tasks.all_written(m.memory()), "write-all postcondition failed");
    (elapsed, report)
}

/// One timed snapshot-model run (the snapshot machine is sequential).
fn snapshot_run_once(layout: MemoryLayout, n: usize, p: usize) -> (u128, RunReport) {
    let mut lb = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut lb, n);
    let algo = SnapshotBalance::new(tasks, p);
    let mut m = SnapshotMachine::with_layout(&algo, p, 1, layout).expect("valid layout");
    let start = Instant::now();
    let report = m.run(&mut NoFailures).expect("scaling run");
    let elapsed = start.elapsed().as_nanos();
    assert!(tasks.all_written(m.memory()), "write-all postcondition failed");
    (elapsed, report)
}

/// Best-of-`reps(n)` measurement; returns (elapsed ns, ticks).
fn measure(n: usize, run: impl Fn() -> (u128, RunReport)) -> (u64, u64) {
    let mut best: Option<(u128, u64)> = None;
    for _ in 0..reps(n) {
        let (ns, report) = run();
        let ticks = report.stats.parallel_time;
        best = Some(match best {
            Some(b) if b.0 <= ns => b,
            _ => (ns, ticks),
        });
    }
    let (ns, ticks) = best.expect("at least one rep");
    (ns as u64, ticks)
}

#[allow(clippy::too_many_arguments)]
fn push_row(
    rows: &mut Vec<ScaleRow>,
    model: &str,
    layout: MemoryLayout,
    n: usize,
    p: usize,
    threads: usize,
    elapsed_ns: u64,
    ticks: u64,
    seq_ns: u64,
) {
    let speedup = seq_ns as f64 / elapsed_ns.max(1) as f64;
    rows.push(ScaleRow {
        model: model.to_string(),
        layout: layout.to_string(),
        n: n as u64,
        p: p as u64,
        threads: threads as u64,
        ticks,
        elapsed_ns,
        ns_per_cell: elapsed_ns as f64 / n as f64,
        speedup_vs_1t: speedup,
        parallel_efficiency: speedup / threads as f64,
    });
    let row = rows.last().expect("just pushed");
    println!(
        "{:<8} {:<12} n=2^{:<2} threads={} : {:>8.2} ns/cell  speedup {:.2}x  eff {:.2}",
        model,
        row.layout,
        n.trailing_zeros(),
        threads,
        row.ns_per_cell,
        row.speedup_vs_1t,
        row.parallel_efficiency,
    );
}

fn banked_layout() -> MemoryLayout {
    MemoryLayout::Banked { banks: 64, interleave: 8 }
}

fn main() {
    let mut rows = Vec::new();

    // Word model: thread sweep per (layout, N), sequential first so the
    // pooled rows have their same-process denominator.
    let word_grid: Vec<(MemoryLayout, Vec<usize>)> =
        vec![(MemoryLayout::Flat, word_sizes()), (banked_layout(), small_sizes())];
    for (layout, sizes) in word_grid {
        for n in sizes {
            let p = (n / CELLS_PER_PROC).max(1);
            let mut seq_ns = 0u64;
            for threads in thread_sweep() {
                let (ns, ticks) = measure(n, || word_run_once(layout, n, p, threads));
                if threads == 1 {
                    seq_ns = ns;
                }
                push_row(&mut rows, "word", layout, n, p, threads, ns, ticks, seq_ns);
            }
        }
    }

    // Snapshot model: timed sequentially, both layouts.
    for layout in [MemoryLayout::Flat, banked_layout()] {
        for n in snapshot_sizes() {
            let p = (n / CELLS_PER_PROC).max(1);
            let (ns, ticks) = measure(n, || snapshot_run_once(layout, n, p));
            push_row(&mut rows, "snapshot", layout, n, p, 1, ns, ticks, ns);
        }
    }

    let artifact = ScaleArtifact {
        experiment: "SCALE".to_string(),
        cells_per_proc: CELLS_PER_PROC as u64,
        quick: quick(),
        host_logical_cores: host_logical_cores(),
        host_tuning: host_tuning(),
        rows,
    };
    let dir = std::env::var("RFSP_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_SCALE.json");
    let json = serde::json::to_string_pretty(&artifact);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .expect("write artifact");
    println!("wrote {}", path.display());

    // CI smoke gate (quick mode only): on a host that can actually run 4
    // workers concurrently, the pooled engine must beat sequential at the
    // largest quick size — a real measured speedup, asserted so the bench
    // job's exit code gates the merge. A smaller host cannot express the
    // expectation at all (the adaptive degrade then runs the tick inline
    // by design), so it skips loudly instead of asserting on numbers the
    // hardware cannot produce.
    if quick() {
        let smoke_threads = 4u64;
        let largest = *word_sizes().iter().max().expect("non-empty sweep") as u64;
        if artifact.host_logical_cores >= smoke_threads {
            let row = artifact
                .rows
                .iter()
                .find(|r| {
                    r.model == "word"
                        && r.layout == "flat"
                        && r.n == largest
                        && r.threads == smoke_threads
                })
                .expect("quick sweep covers 4 threads at its largest flat size");
            assert!(
                row.speedup_vs_1t > 1.0,
                "CI scaling smoke: pooled speedup {:.3}x at {} threads (n=2^{}) did not beat \
                 sequential on a {}-core host",
                row.speedup_vs_1t,
                smoke_threads,
                largest.trailing_zeros(),
                artifact.host_logical_cores,
            );
            println!(
                "smoke OK: speedup {:.2}x at {smoke_threads} threads (n=2^{})",
                row.speedup_vs_1t,
                largest.trailing_zeros()
            );
        } else {
            println!(
                "SKIP: scaling smoke needs {smoke_threads} logical cores, host has {} — \
                 speedup > 1 is unmeasurable here",
                artifact.host_logical_cores
            );
        }
    }
}
