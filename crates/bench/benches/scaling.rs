//! Scaling sweep for the tentative-phase and commit kernels.
//!
//! Measures wall time of the no-failure Write-All baseline as the instance
//! grows to `N = 2^28`, and writes `BENCH_SCALE.json` (next to
//! `BENCH_BANKS.json`) with an ns/cell column:
//!
//! * **word model**, flat layout at `N ∈ {2^20, 2^24, 2^28}` — the kernels
//!   must keep ns/cell flat while N grows three decades;
//! * **word model**, banked layout (64 banks, block interleave 8) at
//!   `N ∈ {2^20, 2^24}` — bank arithmetic must not break the scaling;
//! * **snapshot model**, flat + banked at `N ∈ {2^20, 2^22}`.
//!
//! Every run is a real machine execution ([`TrivialAssign`] /
//! [`SnapshotBalance`] under [`NoFailures`]) with the postcondition
//! verified. There is one tick engine: the calling thread plays every
//! tick, so the sweep has no thread axis.
//!
//! Each word-model row also carries `bare_ns_per_cell`: the time per cell
//! of the same stores in the same order — tick by tick, one store per
//! processor in PID order — over a plain array of the same size, with no
//! engine. The ratio of `ns_per_cell` to it is what the engine costs
//! beyond its stores. The bare loop stores into one flat array, so on a
//! banked row the ratio also prices the bank mapping.
//!
//! The artifact records the measuring host's logical cores, so every
//! figure says which host it came from.
//!
//! Set `RFSP_BENCH_QUICK=1` to shrink the sweep to seconds (CI smoke
//! mode). `RFSP_BENCH_DIR` chooses the artifact directory (default `.`).

use std::time::Instant;

use rfsp_core::{SnapshotBalance, TrivialAssign, WriteAllTasks};
use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{CycleBudget, LayoutBuilder, Machine, MemoryLayout, NoFailures, RunReport};
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
    ticks: u64,
    elapsed_ns: u64,
    ns_per_cell: f64,
    /// The bare store loop's time per cell; word rows only.
    bare_ns_per_cell: Option<f64>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct ScaleArtifact {
    experiment: String,
    cells_per_proc: u64,
    quick: bool,
    /// Logical CPUs of the measuring host.
    host_logical_cores: u64,
    rows: Vec<ScaleRow>,
}

fn quick() -> bool {
    std::env::var_os("RFSP_BENCH_QUICK").is_some()
}

fn host_logical_cores() -> u64 {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64
}

/// Word-model sizes for the flat sweep (the tentpole reaches `2^28`).
///
/// Quick mode keeps two tiny smoke points but tops out at `2^23`, where
/// one point stays a few seconds, not minutes.
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
/// run costs `O(N log N)` whatever the cells per processor; the sweep
/// stays at two sizes.
fn snapshot_sizes() -> Vec<usize> {
    if quick() {
        vec![1 << 12]
    } else {
        vec![1 << 20, 1 << 22]
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
fn word_run_once(layout: MemoryLayout, n: usize, p: usize) -> (u128, RunReport) {
    let mut lb = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut lb, n);
    let algo = TrivialAssign::new(tasks, p);
    let mut m = Machine::with_layout(&algo, p, CycleBudget::PAPER, layout).expect("valid layout");
    let start = Instant::now();
    let report = m.run(&mut NoFailures).expect("scaling run");
    let elapsed = start.elapsed().as_nanos();
    assert!(tasks.all_written(m.memory()), "write-all postcondition failed");
    (elapsed, report)
}

/// One timed bare store loop: the stores of a [`TrivialAssign`] run (tick
/// `t` stores offset `t` of every processor's block, in PID order) into a
/// zeroed array of `n` cells allocated before the clock starts, as the
/// machine's memory is. Returns the elapsed ns.
fn bare_run_once(n: usize, p: usize) -> u128 {
    let mut cells = vec![0u64; n];
    let chunk = n.div_ceil(p);
    let start = Instant::now();
    for t in 0..chunk {
        for pid in 0..p {
            let addr = pid * chunk + t;
            if addr < ((pid + 1) * chunk).min(n) {
                // An opaque index keeps the compiler from reordering or
                // vectorizing the stores.
                cells[std::hint::black_box(addr)] = 1;
            }
        }
    }
    let elapsed = start.elapsed().as_nanos();
    assert!(std::hint::black_box(&cells).iter().all(|&c| c == 1), "bare loop missed a cell");
    elapsed
}

/// Best-of-`reps(n)` bare store loop; returns elapsed ns.
fn measure_bare(n: usize, p: usize) -> u64 {
    (0..reps(n)).map(|_| bare_run_once(n, p)).min().expect("at least one rep") as u64
}

/// One timed snapshot-model run.
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

fn push_row(
    rows: &mut Vec<ScaleRow>,
    model: &str,
    layout: MemoryLayout,
    (n, p): (usize, usize),
    (elapsed_ns, ticks): (u64, u64),
    bare_ns: Option<u64>,
) {
    rows.push(ScaleRow {
        model: model.to_string(),
        layout: layout.to_string(),
        n: n as u64,
        p: p as u64,
        ticks,
        elapsed_ns,
        ns_per_cell: elapsed_ns as f64 / n as f64,
        bare_ns_per_cell: bare_ns.map(|ns| ns as f64 / n as f64),
    });
    let row = rows.last().expect("just pushed");
    let bare = row.bare_ns_per_cell.map_or(String::new(), |b| {
        format!("  bare {b:.2} ns/cell ({:.1}x)", row.ns_per_cell / b.max(f64::MIN_POSITIVE))
    });
    println!(
        "{:<8} {:<12} n=2^{:<2} : {:>8.2} ns/cell{bare}",
        model,
        row.layout,
        n.trailing_zeros(),
        row.ns_per_cell,
    );
}

fn banked_layout() -> MemoryLayout {
    MemoryLayout::Banked { banks: 64, interleave: 8 }
}

fn main() {
    let mut rows = Vec::new();

    // Word model, each row beside its bare store loop.
    let word_grid: Vec<(MemoryLayout, Vec<usize>)> =
        vec![(MemoryLayout::Flat, word_sizes()), (banked_layout(), small_sizes())];
    for (layout, sizes) in word_grid {
        for n in sizes {
            let p = (n / CELLS_PER_PROC).max(1);
            let measured = measure(n, || word_run_once(layout, n, p));
            let bare = measure_bare(n, p);
            push_row(&mut rows, "word", layout, (n, p), measured, Some(bare));
        }
    }

    // Snapshot model, both layouts.
    for layout in [MemoryLayout::Flat, banked_layout()] {
        for n in snapshot_sizes() {
            let p = (n / CELLS_PER_PROC).max(1);
            let measured = measure(n, || snapshot_run_once(layout, n, p));
            push_row(&mut rows, "snapshot", layout, (n, p), measured, None);
        }
    }

    let artifact = ScaleArtifact {
        experiment: "SCALE".to_string(),
        cells_per_proc: CELLS_PER_PROC as u64,
        quick: quick(),
        host_logical_cores: host_logical_cores(),
        rows,
    };
    let dir = std::env::var("RFSP_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_SCALE.json");
    let json = serde::json::to_string_pretty(&artifact);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .expect("write artifact");
    println!("wrote {}", path.display());
}
