//! Throughput regression guard for the tick engine's hot paths.
//!
//! Three claims, each pinned in CI:
//!
//! 1. **Flat tick cost** — the bank-partitioned memory backend must not
//!    tax the flat layout. Measures ns/tick of the no-failure Write-All
//!    baseline ([`TrivialAssign`], the `BENCH_TICK` workload) under the
//!    flat layout against the committed baseline
//!    `crates/bench/baseline/tick_flat.json`; fails when the measured cost
//!    exceeds `baseline × RFSP_GUARD_RATIO` (default 4 — generous, because
//!    CI hosts vary; the guard catches algorithmic regressions, not
//!    machine noise).
//! 2. **Scale kernel cost** — the batched tentative-phase kernels must
//!    keep per-cell cost flat at scale. Measures ns/cell of the same
//!    workload at the `BENCH_SCALE.json` geometry (`N = 2^20`, 4096 cells
//!    per processor, sequential engine) against
//!    `crates/bench/baseline/scale_word_flat.json`, gated by the same
//!    `RFSP_GUARD_RATIO`.
//! 3. **Relative checks** (machine-independent, both sides measured in
//!    the same process): the banked layout must cost at most
//!    `RFSP_GUARD_BANKED_RATIO` (default 4) times flat, and the pooled
//!    engine at 2 threads must keep parallel efficiency — sequential time
//!    over `2 ×` pooled time — at or above `RFSP_GUARD_EFF_FLOOR`
//!    (default 0.10; a deliberately low floor, since a single-core CI
//!    host makes pooling pure overhead and the check then only catches
//!    pathological coordination regressions). Relative checks are
//!    noise-sensitive, so a failure triggers ONE full re-measure of both
//!    sides — both attempts are logged — and only a repeated failure
//!    fails the guard.
//!
//! 4. **Committed scaling artifact** — the blessed
//!    `crates/bench/artifacts/BENCH_SCALE.json` must show the pooled
//!    engine at `speedup_vs_1t >= 1.0` for every flat word row with
//!    `N >= 2^24` and `threads >= 2` whose thread count the recording
//!    host could actually run (`host_logical_cores >= threads`); rows
//!    beyond the recorded core count are skipped loudly. And on a live
//!    host with 2+ logical cores, the measured 2-thread run must beat
//!    sequential (`RFSP_GUARD_SPEEDUP_FLOOR`, default 1.0) — with the
//!    same one-retry noise policy as the other relative checks.
//!
//! 5. **Committed policy artifact** — the blessed
//!    `crates/bench/artifacts/BENCH_POLICY.json` (written by the policy
//!    bench) must show the adaptive checkpoint policy wasting no more
//!    ticks than the better fixed-interval extreme at every swept
//!    intensity — a pure file check, so a stale artifact cannot smuggle
//!    a regression past CI.
//!
//! `RFSP_GUARD_UPDATE=1` re-blesses both committed baselines with the
//! current measurements.

use std::time::Instant;

use rfsp_core::{TrivialAssign, WriteAllTasks};
use rfsp_pram::{
    CycleBudget, LayoutBuilder, Machine, MemoryLayout, NoFailures, NoopObserver, RunLimits,
};
use serde::{Deserialize, Serialize};

#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct Baseline {
    /// Blessed flat-layout cost in ns/tick.
    ns_per_tick: u64,
}

#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct ScaleBaseline {
    /// Blessed sequential flat word-model cost in milli-ns/cell at the
    /// scale geometry (fixed-point: 1000 = 1 ns/cell; the integer keeps
    /// the artifact stable under sub-ns kernels).
    milli_ns_per_cell: u64,
}

/// The subset of a `BENCH_SCALE.json` row the guard consumes (extra
/// fields in the artifact are ignored by the deserializer).
#[derive(Clone, Debug, Deserialize)]
struct ScaleRow {
    model: String,
    layout: String,
    n: u64,
    threads: u64,
    speedup_vs_1t: f64,
}

/// The committed scaling artifact, `crates/bench/artifacts/BENCH_SCALE.json`.
#[derive(Clone, Debug, Deserialize)]
struct ScaleArtifact {
    quick: bool,
    host_logical_cores: u64,
    rows: Vec<ScaleRow>,
}

const CELLS_PER_PROC: usize = 64;
const PROCESSORS: usize = 256;
const REPS: usize = 5;

/// The `BENCH_SCALE.json` geometry, small-N point.
const SCALE_N: usize = 1 << 20;
const SCALE_CELLS_PER_PROC: usize = 4096;
const SCALE_REPS: usize = 3;

/// One full run; returns (elapsed ns, ticks).
fn run_once(layout: MemoryLayout) -> (u128, u64) {
    let n = CELLS_PER_PROC * PROCESSORS;
    let mut lb = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut lb, n);
    let algo = TrivialAssign::new(tasks, PROCESSORS);
    let mut m =
        Machine::with_layout(&algo, PROCESSORS, CycleBudget::PAPER, layout).expect("valid layout");
    let start = Instant::now();
    let report = m.run(&mut NoFailures).expect("guard run");
    let elapsed = start.elapsed().as_nanos();
    assert!(tasks.all_written(m.memory()), "write-all postcondition failed");
    (elapsed, report.stats.parallel_time)
}

/// Best-of-`REPS` ns/tick — the minimum is the least-noisy estimator for
/// a short CPU-bound loop.
fn measure(layout: MemoryLayout) -> f64 {
    (0..REPS)
        .map(|_| {
            let (ns, ticks) = run_once(layout);
            ns as f64 / ticks.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One flat word-model run at the scale geometry; returns ns/cell.
fn scale_run_once(threads: usize) -> f64 {
    let p = SCALE_N / SCALE_CELLS_PER_PROC;
    let mut lb = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut lb, SCALE_N);
    let algo = TrivialAssign::new(tasks, p);
    let mut m = Machine::new(&algo, p, CycleBudget::PAPER).expect("valid machine");
    let start = Instant::now();
    m.run_threaded_observed(&mut NoFailures, RunLimits::default(), threads, &mut NoopObserver)
        .expect("guard run");
    let elapsed = start.elapsed().as_nanos();
    assert!(tasks.all_written(m.memory()), "write-all postcondition failed");
    elapsed as f64 / SCALE_N as f64
}

/// Best-of-`SCALE_REPS` ns/cell at the scale geometry.
fn measure_scale(threads: usize) -> f64 {
    (0..SCALE_REPS).map(|_| scale_run_once(threads)).fold(f64::INFINITY, f64::min)
}

fn env_ratio(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn baseline_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline")
}

/// A relative (same-process, two-sided) check with one retry: measure,
/// test, and on failure re-measure both sides once — logging both
/// attempts — before declaring a real regression. Returns `true` on
/// failure.
fn relative_check_with_retry(
    name: &str,
    mut measure_both: impl FnMut() -> (f64, f64),
    first: (f64, f64),
    ok: impl Fn(f64, f64) -> bool,
    describe_failure: impl Fn(f64, f64),
) -> bool {
    if ok(first.0, first.1) {
        return false;
    }
    println!(
        "retry: {name} failed on first attempt ({:.2} vs {:.2}); re-measuring both sides once",
        first.0, first.1
    );
    let second = measure_both();
    println!(
        "retry: {name} attempt 1 = ({:.2}, {:.2}), attempt 2 = ({:.2}, {:.2})",
        first.0, first.1, second.0, second.1
    );
    if ok(second.0, second.1) {
        println!("retry: {name} passed on re-measure; treating first attempt as noise");
        return false;
    }
    describe_failure(second.0, second.1);
    true
}

/// Gate the **committed** `BENCH_SCALE.json`: every blessed flat
/// word-model row with `N >= 2^24` and `threads >= 2` must show
/// `speedup_vs_1t >= 1.0` — the pooled engine may never lose to the
/// sequential engine at scale. Rows whose thread count exceeds the
/// recording host's logical cores are skipped loudly: such a row
/// documents the adaptive inline degrade, not parallelism, and holding
/// it to a speedup floor would reward faking the measurement. Returns
/// `true` on failure.
fn check_committed_scaling() -> bool {
    const SPEEDUP_FLOOR_N: u64 = 1 << 24;
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts").join("BENCH_SCALE.json");
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no committed scaling artifact at {} ({e}); run the scaling bench and commit it",
            path.display()
        )
    });
    let artifact: ScaleArtifact = serde::json::from_str(&raw).expect("scale artifact");
    assert!(!artifact.quick, "the committed BENCH_SCALE.json must come from a full sweep");
    let mut failed = false;
    let mut gated = 0usize;
    for row in &artifact.rows {
        if row.model != "word" || row.layout != "flat" {
            continue;
        }
        if row.n < SPEEDUP_FLOOR_N || row.threads < 2 {
            continue;
        }
        if artifact.host_logical_cores < row.threads {
            println!(
                "SKIP: blessed speedup floor for n=2^{} threads={} — the recording host had \
                 {} logical core(s)",
                row.n.trailing_zeros(),
                row.threads,
                artifact.host_logical_cores
            );
            continue;
        }
        gated += 1;
        if row.speedup_vs_1t < 1.0 {
            eprintln!(
                "FAIL: committed BENCH_SCALE.json shows speedup {:.3}x at n=2^{} threads={} \
                 (recorded on a {}-core host) — the blessed artifact must demonstrate the pooled \
                 engine beating sequential at scale; re-measure on capable hardware",
                row.speedup_vs_1t,
                row.n.trailing_zeros(),
                row.threads,
                artifact.host_logical_cores
            );
            failed = true;
        }
    }
    if gated > 0 && !failed {
        println!("OK: {gated} blessed scaling rows at or above the 1.0x speedup floor");
    }
    failed
}

/// The subset of a `BENCH_POLICY.json` row the guard consumes.
#[derive(Clone, Debug, Deserialize)]
struct PolicyRow {
    intensity: f64,
    policy: String,
    wasted_ticks: u64,
}

/// The committed policy artifact, `crates/bench/artifacts/BENCH_POLICY.json`.
#[derive(Clone, Debug, Deserialize)]
struct PolicyArtifact {
    quick: bool,
    rows: Vec<PolicyRow>,
}

/// Gate the **committed** `BENCH_POLICY.json`: at every swept intensity
/// the blessed artifact must show the adaptive checkpoint policy wasting
/// no more ticks (replay + checkpoint overhead) than the better of the
/// two fixed-interval extremes. The policy bench asserts this claim when
/// it runs; the guard re-checks the committed numbers so a stale or
/// hand-edited artifact cannot smuggle a regression past CI. Returns
/// `true` on failure.
fn check_committed_policy() -> bool {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("artifacts")
        .join("BENCH_POLICY.json");
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no committed policy artifact at {} ({e}); run the policy bench and commit it",
            path.display()
        )
    });
    let artifact: PolicyArtifact = serde::json::from_str(&raw).expect("policy artifact");
    assert!(!artifact.quick, "the committed BENCH_POLICY.json must come from a full sweep");
    let mut failed = false;
    let mut intensities: Vec<f64> = artifact.rows.iter().map(|r| r.intensity).collect();
    intensities.dedup();
    assert!(intensities.len() >= 2, "the committed policy sweep must cover several intensities");
    for intensity in intensities {
        let wasted = |pred: &dyn Fn(&str) -> bool| {
            artifact
                .rows
                .iter()
                .filter(|r| r.intensity == intensity && pred(&r.policy))
                .map(|r| r.wasted_ticks)
                .min()
        };
        let adaptive = wasted(&|p| p == "adaptive").expect("adaptive row per intensity");
        let best_fixed = wasted(&|p| p.starts_with("fixed:")).expect("fixed rows per intensity");
        if adaptive > best_fixed {
            eprintln!(
                "FAIL: committed BENCH_POLICY.json shows the adaptive policy wasting {adaptive} \
                 ticks at intensity {intensity}, worse than the better fixed extreme \
                 ({best_fixed}) — re-run the policy bench and commit an artifact that passes"
            );
            failed = true;
        }
    }
    if !failed {
        println!("OK: blessed policy sweep keeps adaptive at or below the fixed extremes");
    }
    failed
}

fn main() {
    let flat = measure(MemoryLayout::Flat);
    let banked = measure(MemoryLayout::banked(PROCESSORS));
    let scale_seq = measure_scale(1);
    let scale_pool2 = measure_scale(2);
    println!("flat        : {flat:.1} ns/tick");
    println!("banked      : {banked:.1} ns/tick ({:.2}x flat)", banked / flat);
    println!("scale seq   : {scale_seq:.3} ns/cell (N = 2^20, flat word model)");
    println!(
        "scale pool2 : {scale_pool2:.3} ns/cell (efficiency {:.2})",
        scale_seq / (2.0 * scale_pool2)
    );

    let dir = baseline_dir();
    let tick_path = dir.join("tick_flat.json");
    let scale_path = dir.join("scale_word_flat.json");
    if std::env::var_os("RFSP_GUARD_UPDATE").is_some() {
        std::fs::create_dir_all(&dir).expect("baseline dir");
        let blessed = Baseline { ns_per_tick: flat.ceil() as u64 };
        std::fs::write(&tick_path, serde::json::to_string_pretty(&blessed))
            .expect("write baseline");
        println!("blessed {} at {} ns/tick", tick_path.display(), blessed.ns_per_tick);
        let blessed = ScaleBaseline { milli_ns_per_cell: (scale_seq * 1000.0).ceil() as u64 };
        std::fs::write(&scale_path, serde::json::to_string_pretty(&blessed))
            .expect("write baseline");
        println!("blessed {} at {} milli-ns/cell", scale_path.display(), blessed.milli_ns_per_cell);
        return;
    }

    let read_baseline = |path: &std::path::Path| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            panic!(
                "no committed baseline at {} ({e}); run with RFSP_GUARD_UPDATE=1 to create it",
                path.display()
            )
        })
    };
    let baseline: Baseline = serde::json::from_str(&read_baseline(&tick_path)).expect("baseline");
    let scale_baseline: ScaleBaseline =
        serde::json::from_str(&read_baseline(&scale_path)).expect("baseline");
    let ratio = env_ratio("RFSP_GUARD_RATIO", 4.0);
    let limit = baseline.ns_per_tick as f64 * ratio;
    let scale_limit = scale_baseline.milli_ns_per_cell as f64 / 1000.0 * ratio;
    println!("baseline: {} ns/tick (limit {limit:.0} = {ratio}x)", baseline.ns_per_tick);
    println!(
        "baseline: {:.3} ns/cell at scale (limit {scale_limit:.3} = {ratio}x)",
        scale_baseline.milli_ns_per_cell as f64 / 1000.0
    );

    let mut failed = false;
    if flat > limit {
        eprintln!(
            "FAIL: flat layout {flat:.1} ns/tick exceeds {limit:.0} ({ratio}x committed baseline {}) — \
             the flat fast path regressed; investigate or re-bless with RFSP_GUARD_UPDATE=1",
            baseline.ns_per_tick
        );
        failed = true;
    }
    if scale_seq > scale_limit {
        eprintln!(
            "FAIL: scale kernel {scale_seq:.3} ns/cell exceeds {scale_limit:.3} ({ratio}x committed \
             baseline) — the batched tentative-phase kernel regressed; investigate or re-bless \
             with RFSP_GUARD_UPDATE=1"
        );
        failed = true;
    }

    let banked_ratio = env_ratio("RFSP_GUARD_BANKED_RATIO", 4.0);
    failed |= relative_check_with_retry(
        "banked/flat ratio",
        || (measure(MemoryLayout::Flat), measure(MemoryLayout::banked(PROCESSORS))),
        (flat, banked),
        |f, b| b <= f * banked_ratio,
        |f, b| {
            eprintln!(
                "FAIL: banked layout is {:.2}x flat (limit {banked_ratio}x) — bank address \
                 arithmetic got too expensive",
                b / f
            );
        },
    );

    let eff_floor = env_ratio("RFSP_GUARD_EFF_FLOOR", 0.10);
    failed |= relative_check_with_retry(
        "pooled efficiency",
        || (measure_scale(1), measure_scale(2)),
        (scale_seq, scale_pool2),
        |seq, pool| seq / (2.0 * pool) >= eff_floor,
        |seq, pool| {
            eprintln!(
                "FAIL: pooled efficiency {:.3} at 2 threads below floor {eff_floor} — the worker \
                 pool's per-tick coordination cost regressed",
                seq / (2.0 * pool)
            );
        },
    );

    // On a host that can actually run two workers concurrently the floor
    // is much stronger: the pooled engine must not lose to sequential at
    // all. Single-core hosts skip (loudly) — there the adaptive degrade
    // runs the tick inline and speedup > 1 is physically unmeasurable.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores >= 2 {
        let speedup_floor = env_ratio("RFSP_GUARD_SPEEDUP_FLOOR", 1.0);
        failed |= relative_check_with_retry(
            "pooled speedup",
            || (measure_scale(1), measure_scale(2)),
            (scale_seq, scale_pool2),
            |seq, pool| seq / pool >= speedup_floor,
            |seq, pool| {
                eprintln!(
                    "FAIL: pooled speedup {:.3}x at 2 threads below floor {speedup_floor} on a \
                     {cores}-core host — the parallel tick engine regressed",
                    seq / pool
                );
            },
        );
    } else {
        println!("SKIP: live pooled-speedup floor needs >= 2 logical cores, host has {cores}");
    }

    failed |= check_committed_scaling();
    failed |= check_committed_policy();

    if failed {
        std::process::exit(1);
    }
    println!(
        "OK: tick and scale throughput within {ratio}x of baselines, banked within \
         {banked_ratio}x of flat, pooled efficiency >= {eff_floor}"
    );
}
