//! E12 — §5 open problems, measured: the fail-stop (no-restart) behaviour
//! of algorithms X, V and W.
//!
//! The paper leaves open (a) the worst-case fail-stop work of X — it
//! conjectures `S = O(N log N log log N)` and reports that the [KS 89]
//! adversary extracts `S = Θ(N log N log log N / log log log N)` from it —
//! and (b) the exact analysis of V without restarts, noting ([Mar 91])
//! that W achieves `S = O(N + P log²N / log log N)`. This experiment runs
//! all three under the fail-stop halving adversary and fits growth
//! exponents.

use rfsp_adversary::Pigeonhole;
use rfsp_pram::RunLimits;
use rfsp_run::{Algo, WriteAllSpec};

use crate::{fmt, loglog_slope, print_table, run_write_all, TelemetrySink};

/// Run experiment E12.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e12");
    let sizes = [128usize, 256, 512, 1024, 2048];
    let mut rows = Vec::new();
    let mut points_x = Vec::new();
    for &n in &sizes {
        let mut cols = vec![n.to_string()];
        for algo in [Algo::X, Algo::V, Algo::W] {
            let run = sink
                .observe(
                    format!("{}-failstop-halving-n{n}", algo.name()),
                    algo.name(),
                    n,
                    n,
                    |obs| {
                        run_write_all(
                            &WriteAllSpec::new(algo, n, n),
                            |setup| Pigeonhole::fail_stop(setup.tasks.x()),
                            RunLimits::default(),
                            obs,
                        )
                    },
                )
                .expect("E12 run failed");
            assert!(run.verified);
            let s = run.report.stats.completed_work();
            if algo == Algo::X {
                points_x.push((n as f64, s as f64));
            }
            cols.push(s.to_string());
            cols.push(fmt(s as f64 / (n as f64 * (n as f64).log2())));
        }
        rows.push(cols);
    }
    print_table(
        "E12 (§5 open problems) — fail-stop halving adversary, P = N, no restarts",
        &["N", "S(X)", "X/(N lg N)", "S(V)", "V/(N lg N)", "S(W)", "W/(N lg N)"],
        &rows,
    );
    let slope = loglog_slope(&points_x);
    println!();
    println!(
        "Paper (conjecture): X's fail-stop worst case is ~N log N log log N; \
         measured X growth exponent under this adversary: {} (N log N fits \
         ≈1.1; the conjectured bound ≈1.15 at these sizes). V and W stay \
         near N log N, consistent with Lemma 4.2 / [Mar 91]; V's \
         enumeration-free iterations are shorter, so its constant is \
         smaller than W's.",
        fmt(slope)
    );
    sink.finish();
}
