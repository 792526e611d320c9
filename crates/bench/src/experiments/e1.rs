//! E1 — Example 2.2: the thrashing adversary and why completed-work
//! accounting exists.
//!
//! Claim: charging for *incomplete* cycles (`S'`) lets a trivial adversary
//! force `Ω(P·N)` on any Write-All algorithm, while completed work `S`
//! stays small under the same adversary.

use rfsp_adversary::Thrashing;
use rfsp_pram::RunLimits;
use rfsp_run::{Algo, WriteAllSpec};

use crate::{fmt, print_table, run_write_all, TelemetrySink};

/// Run experiment E1.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e1");
    let mut rows = Vec::new();
    for k in [64usize, 128, 256, 512] {
        let (n, p) = (k, k);
        let run = sink
            .observe(format!("x-thrashing-n{k}"), Algo::X.name(), n, p, |obs| {
                run_write_all(
                    &WriteAllSpec::new(Algo::X, n, p),
                    |_| Thrashing::new(),
                    RunLimits::default(),
                    obs,
                )
            })
            .expect("E1 run failed");
        assert!(run.verified);
        let s = run.report.stats.completed_work() as f64;
        let sp = run.report.stats.s_prime() as f64;
        let pn = (p * n) as f64;
        rows.push(vec![
            k.to_string(),
            fmt(s),
            fmt(sp),
            fmt(sp / pn),
            fmt(s / n as f64),
            run.report.stats.pattern_size().to_string(),
        ]);
    }
    print_table(
        "E1 (Example 2.2) — thrashing adversary vs algorithm X, N = P",
        &["N = P", "S (completed)", "S' (incl. partial)", "S'/(P·N)", "S/N", "|F|"],
        &rows,
    );
    println!();
    println!(
        "Paper: S' = Ω(P·N) under thrashing (quadratic), while completed-work \
         accounting discharges the adversary: S'/(P·N) should approach a constant \
         and S/N should stay near a small constant."
    );
    sink.finish();
}
