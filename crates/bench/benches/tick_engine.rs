//! Tick-engine throughput on the no-failure Write-All baseline.
//!
//! The workload is [`TrivialAssign`] with `N = 64·P`: every tick runs `P`
//! independent tentative cycles of constant work, so the measured time is
//! engine overhead — the tentative loop and the commit sweep — rather than
//! algorithmic cost. `P` spans three orders, from ticks small enough that
//! per-tick fixed costs show to ticks wide enough that the per-processor
//! costs dominate.
//!
//! Besides criterion's wall-time lines, one observed run per
//! configuration is recorded into `BENCH_TICK.json` via the existing
//! [`TelemetrySink`] (into `RFSP_BENCH_DIR`, or the working directory
//! when unset) so the artifact carries work stats and per-tick series
//! alongside the timings. Set `RFSP_BENCH_QUICK=1` to skip the `P = 4096`
//! point (CI smoke mode).

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

fn run_once(p: usize, observer: &mut dyn Observer) -> Result<WriteAllRun, PramError> {
    let n = CELLS_PER_PROC * p;
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let algo = TrivialAssign::new(tasks, p);
    let mut m = Machine::new(&algo, p, CycleBudget::PAPER)?;
    let report = m.run_observed(&mut NoFailures, RunLimits::default(), observer)?;
    Ok(WriteAllRun { report, verified: tasks.all_written(m.memory()) })
}

fn bench_tick_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("tick_engine");
    for &p in &processor_counts() {
        group.bench_with_input(BenchmarkId::new("seq", p), &p, |b, &p| {
            b.iter(|| run_once(p, &mut NoopObserver).expect("bench run"))
        });
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
        let n = CELLS_PER_PROC * p;
        let run = sink
            .observe(format!("seq-p{p}"), "Trivial", n, p, |obs| run_once(p, obs))
            .expect("observed run");
        assert!(run.verified, "write-all postcondition failed for p={p}");
    }
    if let Some(path) = sink.finish() {
        println!("wrote {}", path.display());
    }
}

criterion_group!(benches, bench_tick_engine, emit_artifact);
criterion_main!(benches);
