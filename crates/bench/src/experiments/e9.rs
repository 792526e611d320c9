//! E9 — Theorem 4.1 and Corollaries 4.10–4.12: general PRAM simulation.
//!
//! Simulates classic PRAM kernels on `P ≤ N/log²N` restartable fail-stop
//! processors with `O(N/log N)` failures per simulated step and checks:
//! work-optimality (`S = O(τ·N)`, Corollary 4.12), the `σ = O(log²N)`
//! overhead ratio, and `σ` decay as `|F|` grows (Corollary 4.11).

use rfsp_adversary::RandomFaults;
use rfsp_pram::{MetricsObserver, NoopObserver, RunLimits, Word, WriteMode};
use rfsp_sim::programs::{OddEvenSort, ParallelSum, PrefixSums};
use rfsp_sim::{reference_run, simulate, simulate_with_mode_observed, Engine, SimProgram};

use crate::{fmt, print_table, TelemetrySink};

fn kernel_row<P: SimProgram + Sync + Clone>(
    sink: &mut TelemetrySink,
    name: &str,
    prog: P,
    p: usize,
    fault_rate: f64,
    budget: u64,
    expected: &[Word],
) -> Vec<String> {
    let mut adv = RandomFaults::new(fault_rate, 0.8, 0xE9).with_budget(budget);
    let mut metrics = if sink.is_active() { Some(MetricsObserver::new(p)) } else { None };
    let mut noop = NoopObserver;
    let report = simulate_with_mode_observed(
        prog.clone(),
        p,
        Engine::Interleaved,
        &mut adv,
        RunLimits::default(),
        WriteMode::Common,
        match metrics.as_mut() {
            Some(m) => m,
            None => &mut noop,
        },
    )
    .expect("E9 simulation failed");
    assert_eq!(report.memory, expected, "{name}: simulated output differs from reference");
    let n = report.sim_processors;
    if let Some(m) = metrics {
        sink.record_series(
            format!("sim-{name}-n{n}"),
            "V+X",
            n,
            p,
            true,
            report.run.stats,
            m.finish(),
        );
    }
    let log2n = (n as f64).log2().max(1.0);
    let sigma = report.run.overhead_ratio(n as u64);
    vec![
        name.to_string(),
        n.to_string(),
        report.sim_steps.to_string(),
        p.to_string(),
        report.run.stats.pattern_size().to_string(),
        fmt(report.run.stats.completed_work() as f64),
        fmt(report.work_ratio()),
        fmt(sigma),
        fmt(sigma / (log2n * log2n)),
    ]
}

/// Run experiment E9.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e9");
    let mut rows = Vec::new();
    for n in [256usize, 1024] {
        let log2n = (n as f64).log2();
        let p = ((n as f64) / (log2n * log2n)).max(1.0) as usize;
        let budget = ((n as f64) / log2n) as u64;
        let prog = PrefixSums::new((0..n as u32).map(|i| i % 7).collect());
        let expected = reference_run(&prog);
        rows.push(kernel_row(
            &mut sink,
            "prefix-sums",
            prog,
            p,
            0.01,
            budget * 2 * (log2n as u64 + 1),
            &expected,
        ));
        let prog = ParallelSum::new((0..n as u32).map(|i| i % 5).collect());
        let expected = reference_run(&prog);
        rows.push(kernel_row(&mut sink, "reduction-sum", prog, p, 0.01, budget, &expected));
    }
    {
        let n = 64usize;
        let prog = OddEvenSort::new((0..n as u32).rev().collect());
        let expected = reference_run(&prog);
        rows.push(kernel_row(&mut sink, "odd-even-sort", prog, 8, 0.01, 256, &expected));
    }
    print_table(
        "E9 (Thm 4.1, Cor 4.12) — simulating PRAM kernels, P ≤ N/log²N, M = O(N/log N) per step",
        &["kernel", "N", "τ", "P", "|F|", "S", "S/(τ·N)", "σ", "σ/log²N"],
        &rows,
    );
    println!();
    println!(
        "Paper: outputs must equal the failure-free reference (verified), \
         completed work S = O(τ·N) in the optimality range (S/(τ·N) bounded \
         by a constant), and σ = O(log²N)."
    );

    // Corollary 4.11: σ improves as |F| grows.
    let n = 512usize;
    let prog = PrefixSums::new((0..n as u32).map(|i| i % 3).collect());
    let expected = reference_run(&prog);
    let mut rows = Vec::new();
    for (label, rate, budget) in [
        ("small (≈P)", 0.01f64, 64u64),
        ("medium (≈N log N)", 0.2, (n as f64 * (n as f64).log2()) as u64),
        ("large (≈N^1.6)", 0.5, (n as f64).powf(1.6) as u64),
    ] {
        let mut adv = RandomFaults::new(rate, 0.8, 0x4_11).with_budget(budget);
        let report =
            simulate(prog.clone(), 64, Engine::Interleaved, &mut adv, RunLimits::default())
                .expect("E9b simulation failed");
        assert_eq!(report.memory, expected);
        sink.record_stats(
            format!("e9b-{}", crate::slugify(label)),
            "V+X",
            n,
            64,
            true,
            report.run.stats,
        );
        rows.push(vec![
            label.to_string(),
            report.run.stats.pattern_size().to_string(),
            fmt(report.run.stats.completed_work() as f64),
            fmt(report.run.overhead_ratio(n as u64)),
        ]);
    }
    print_table(
        "E9b (Corollary 4.11) — σ vs failure-pattern size, prefix-sums N = 512, P = 64",
        &["|F| regime", "|F| actual", "S", "σ = S/(N+|F|)"],
        &rows,
    );
    println!();
    println!(
        "Paper: \"the efficiency of our algorithm improves for large failure \
         patterns\": σ = O(log N) once |F| = Ω(N log N) and O(1) once \
         |F| = Ω(N^1.6) — σ must fall monotonically down the table."
    );
    sink.finish();
}
