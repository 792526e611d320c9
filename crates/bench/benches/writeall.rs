//! Criterion wall-time benches for the Write-All algorithms.
//!
//! The paper's metric is completed work (see the `e*` experiment
//! binaries); these benches track the host-time cost of the simulator
//! itself so performance regressions in the engines are visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rfsp_adversary::{RandomFaults, Thrashing};
use rfsp_bench::{run_write_all, Algo, WriteAllRun, WriteAllSpec};
use rfsp_pram::{Adversary, NoFailures, NoopObserver, RunLimits};

/// One sequential run of `algo` on `n` cells and `p` processors.
fn run(algo: Algo, n: usize, p: usize, adversary: impl Adversary) -> WriteAllRun {
    let spec = WriteAllSpec::new(algo, n, p);
    run_write_all(&spec, |_| adversary, RunLimits::default(), &mut NoopObserver).expect("bench run")
}

fn bench_no_failures(c: &mut Criterion) {
    let mut group = c.benchmark_group("write_all_no_failures");
    for &n in &[256usize, 1024] {
        let p = n / 16;
        for algo in [Algo::X, Algo::V, Algo::W, Algo::Interleaved] {
            group.bench_with_input(BenchmarkId::new(algo.name(), n), &(n, p), |b, &(n, p)| {
                b.iter(|| run(algo, n, p, NoFailures))
            });
        }
    }
    group.finish();
}

fn bench_under_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("write_all_under_faults");
    let n = 512;
    let p = 64;
    group.bench_function("X/random_churn", |b| {
        b.iter(|| run(Algo::X, n, p, RandomFaults::new(0.1, 0.7, 42)))
    });
    group.bench_function("V/random_churn", |b| {
        b.iter(|| run(Algo::V, n, p, RandomFaults::new(0.1, 0.7, 42)))
    });
    group.bench_function("X/thrashing", |b| b.iter(|| run(Algo::X, n, p, Thrashing::new())));
    group.finish();
}

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("x_variants");
    let n = 1024;
    let p = 64;
    for algo in [Algo::X, Algo::XInPlace] {
        group.bench_function(algo.name(), |b| b.iter(|| run(algo, n, p, NoFailures)));
    }
    group.bench_function("X-lockfree-4-threads", |b| {
        b.iter(|| rfsp_core::run_lockfree_x(n, 4, rfsp_core::LockfreeOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_no_failures, bench_under_faults, bench_variants);
criterion_main!(benches);
