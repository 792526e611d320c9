//! E4 — Lemma 4.2: algorithm V under fail-stop errors *without restarts*
//! has `S = O(N + P log² N)`.

use rfsp_adversary::RandomFaults;
use rfsp_pram::RunLimits;
use rfsp_run::{Algo, WriteAllSpec};

use crate::{fmt, print_table, run_write_all, TelemetrySink};

/// Run experiment E4.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e4");
    let mut rows = Vec::new();
    for (n, p) in
        [(1024usize, 16usize), (1024, 64), (1024, 256), (4096, 64), (4096, 256), (4096, 1024)]
    {
        // Fail-stop only: p_restart = 0; at most P-1 failures (the model
        // keeps one processor alive).
        let mut adv = RandomFaults::new(0.002, 0.0, 0xE4).with_budget(p as u64 - 1);
        let run = sink
            .observe(format!("v-failstop-n{n}-p{p}"), Algo::V.name(), n, p, |obs| {
                run_write_all(
                    &WriteAllSpec::new(Algo::V, n, p),
                    |_| &mut adv,
                    RunLimits::default(),
                    obs,
                )
            })
            .expect("E4 run failed");
        assert!(run.verified);
        let s = run.report.stats.completed_work() as f64;
        let log2n = (n as f64).log2();
        let bound = n as f64 + p as f64 * log2n * log2n;
        rows.push(vec![
            n.to_string(),
            p.to_string(),
            run.report.stats.failures.to_string(),
            fmt(s),
            fmt(bound),
            fmt(s / bound),
        ]);
    }
    print_table(
        "E4 (Lemma 4.2) — algorithm V, fail-stop without restarts",
        &["N", "P", "failures", "S", "N + P·log²N", "ratio"],
        &rows,
    );
    println!();
    println!(
        "Paper: S = O(N + P log²N) — the ratio column must stay bounded by a \
         constant across both N and P sweeps."
    );
    sink.finish();
}
