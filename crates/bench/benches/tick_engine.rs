//! Tick-engine throughput: sequential vs persistent-pool tentative phase.
//!
//! The workload is the no-failure Write-All baseline ([`TrivialAssign`],
//! `N = 64·P`): every tick runs `P` independent tentative cycles of
//! constant work, so the measured difference between engines is pure
//! engine overhead — worker wake-up, chunk claiming, and the commit
//! sweep — rather than algorithmic cost. `P` spans three orders so both
//! the small-tick regime (where pool wake-up dominates and sequential
//! wins) and the wide-tick regime (where chunked parallelism pays) are
//! visible.
//!
//! Besides criterion's wall-time lines, one observed run per
//! configuration is recorded into `BENCH_TICK.json` via the existing
//! [`TelemetrySink`] (into `RFSP_BENCH_DIR`, or the working directory
//! when unset) so the artifact carries work stats and per-tick series
//! alongside the timings. Set `RFSP_BENCH_QUICK=1` to skip the `P = 4096`
//! point (CI smoke mode). Speedup at `P = 4096` requires a multi-core
//! host; on a single hardware thread the pool measures its own overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfsp_bench::{TelemetrySink, WriteAllRun};
use rfsp_core::{TrivialAssign, WriteAllTasks};
use rfsp_pram::{
    CycleBudget, LayoutBuilder, Machine, NoFailures, NoopObserver, Observer, PramError, RunLimits,
};

/// Cells per processor: every run is exactly 64 full-width ticks.
const CELLS_PER_PROC: usize = 64;

fn processor_counts() -> Vec<usize> {
    if std::env::var_os("RFSP_BENCH_QUICK").is_some() {
        vec![16, 256]
    } else {
        vec![16, 256, 4096]
    }
}

/// The engines compared, as thread counts: the sequential engine (1) and
/// a pool sized to the host.
fn engines() -> Vec<usize> {
    let threads = std::thread::available_parallelism().map_or(4, |c| c.get()).clamp(2, 8);
    vec![1, threads]
}

/// Display label of an engine (`seq` / `pool4`).
fn label(threads: usize) -> String {
    if threads == 1 {
        "seq".to_string()
    } else {
        format!("pool{threads}")
    }
}

fn run_once(
    threads: usize,
    p: usize,
    observer: &mut dyn Observer,
) -> Result<WriteAllRun, PramError> {
    let n = CELLS_PER_PROC * p;
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let algo = TrivialAssign::new(tasks, p);
    let mut m = Machine::new(&algo, p, CycleBudget::PAPER)?;
    let report =
        m.run_threaded_observed(&mut NoFailures, RunLimits::default(), threads, observer)?;
    Ok(WriteAllRun { report, verified: tasks.all_written(m.memory()) })
}

fn bench_tick_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("tick_engine");
    for &p in &processor_counts() {
        for engine in engines() {
            group.bench_with_input(BenchmarkId::new(label(engine), p), &p, |b, &p| {
                b.iter(|| run_once(engine, p, &mut NoopObserver).expect("bench run"))
            });
        }
    }
    group.finish();
}

/// One observed (metrics-collecting) run per configuration, written as
/// `BENCH_TICK.json` — kept outside the timed loops so the observer cost
/// never pollutes the wall-time numbers.
fn emit_artifact(_c: &mut Criterion) {
    let dir = std::env::var("RFSP_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let mut sink = TelemetrySink::with_dir("TICK", &dir);
    for &p in &processor_counts() {
        for engine in engines() {
            let n = CELLS_PER_PROC * p;
            let run = sink
                .observe(format!("{}-p{p}", label(engine)), "Trivial", n, p, |obs| {
                    run_once(engine, p, obs)
                })
                .expect("observed run");
            assert!(run.verified, "write-all postcondition failed for {} p={p}", label(engine));
        }
    }
    if let Some(path) = sink.finish() {
        println!("wrote {}", path.display());
    }
}

criterion_group!(benches, bench_tick_engine, emit_artifact);
criterion_main!(benches);
