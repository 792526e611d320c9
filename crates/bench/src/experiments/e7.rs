//! E7 — Theorem 4.8: the X-killer adversary forces algorithm X to
//! `S = Ω(N^{log₂ 3})` with `P = N`.

use rfsp_adversary::XKiller;
use rfsp_pram::RunLimits;
use rfsp_run::{Algo, WriteAllSpec};

use crate::{fmt, loglog_slope, print_table, run_write_all, TelemetrySink};

/// Completed work of X under the X-killer at `N = P = n`.
pub fn x_under_killer(n: usize) -> (u64, u64) {
    let mut inert = TelemetrySink::for_experiment("e7-probe");
    x_under_killer_observed(n, &mut inert)
}

fn x_under_killer_observed(n: usize, sink: &mut TelemetrySink) -> (u64, u64) {
    let run = sink
        .observe(format!("x-killer-n{n}"), Algo::X.name(), n, n, |obs| {
            run_write_all(
                &WriteAllSpec::new(Algo::X, n, n),
                |setup| {
                    XKiller::new(
                        setup.tasks.x(),
                        setup.x_layout.expect("X layout"),
                        setup.tree.expect("tree"),
                    )
                },
                RunLimits::default(),
                obs,
            )
        })
        .expect("E7 run failed");
    assert!(run.verified);
    (run.report.stats.completed_work(), run.report.stats.pattern_size())
}

/// Run experiment E7.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e7");
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for n in [64usize, 128, 256, 512, 1024, 2048] {
        let (s, f) = x_under_killer_observed(n, &mut sink);
        points.push((n as f64, s as f64));
        let nlog3 = (n as f64).powf(3f64.log2());
        rows.push(vec![
            n.to_string(),
            s.to_string(),
            fmt(s as f64 / nlog3),
            fmt(s as f64 / (n as f64 * (n as f64).log2())),
            f.to_string(),
        ]);
    }
    let slope = loglog_slope(&points);
    print_table(
        "E7 (Theorem 4.8) — algorithm X under the postorder X-killer, P = N",
        &["N", "S", "S/N^1.585", "S/(N log₂ N)", "|F|"],
        &rows,
    );
    println!();
    println!(
        "Paper: S = Ω(N^{{log₂ 3}}) = Ω(N^1.585). Measured log-log growth \
         exponent of S vs N: {} (clearly super-(N log N): the S/(N log₂ N) \
         column must diverge).",
        fmt(slope)
    );
    sink.finish();
}
