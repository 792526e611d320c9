//! E5 — Theorem 4.3: algorithm V under failures *and* restarts has
//! `S = O(N + P log² N + M log N)` for patterns of size `M`.

use rfsp_adversary::RandomFaults;
use rfsp_pram::RunLimits;

use crate::{fmt, print_table, run_write_all, Algo, TelemetrySink, WriteAllSpec};

/// Run experiment E5.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e5");
    let n = 4096usize;
    let p = 256usize;
    let log2n = (n as f64).log2();
    let mut rows = Vec::new();
    for m_budget in [0u64, 64, 512, 4096, 16384] {
        let mut adv = RandomFaults::new(0.05, 0.8, 0xE5).with_budget(m_budget);
        let run = sink
            .observe(format!("v-restarts-m{m_budget}"), Algo::V.name(), n, p, |obs| {
                run_write_all(
                    &WriteAllSpec::new(Algo::V, n, p),
                    |_| &mut adv,
                    RunLimits::default(),
                    obs,
                )
            })
            .expect("E5 run failed");
        assert!(run.verified);
        let s = run.report.stats.completed_work() as f64;
        let m = run.report.stats.pattern_size() as f64;
        let bound = n as f64 + p as f64 * log2n * log2n + m * log2n;
        rows.push(vec![m_budget.to_string(), fmt(m), fmt(s), fmt(bound), fmt(s / bound)]);
    }
    print_table(
        "E5 (Theorem 4.3) — algorithm V with restarts, N = 4096, P = 256, sweeping M",
        &["M budget", "|F| actual", "S", "N + P·log²N + M·log N", "ratio"],
        &rows,
    );
    println!();
    println!(
        "Paper: S = O(N + P log²N + M log N) — the ratio column must stay \
         bounded by a constant as the failure pattern grows by orders of \
         magnitude."
    );
    sink.finish();
}
