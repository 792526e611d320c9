//! E11 — Remark 5 ablation: the local optimizations of algorithm X.
//!
//! Remark 5: X can be locally optimized by (i) spreading the initial
//! processor positions evenly and (ii) storing visited-leaf *counts* in
//! the progress tree. "Our worst case analysis does not benefit from these
//! modifications" — this ablation measures what they buy in practice.

use rfsp_adversary::{Pigeonhole, RandomFaults, XKiller};
use rfsp_core::XOptions;
use rfsp_pram::RunLimits;

use crate::{fmt, print_table, run_write_all, Algo, TelemetrySink, WriteAllSpec};

/// Run experiment E11.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e11");
    let n = 1024usize;
    // P < N so the initial spread matters (at P = N the spread and packed
    // placements coincide); the X-killer table below uses P = N, its
    // natural habitat.
    let p = 64usize;
    let variants = [
        ("baseline (Fig. 5)", XOptions::default()),
        ("spread initial (5i)", XOptions { spread_initial: true, ..Default::default() }),
        ("counting tree (5ii)", XOptions { counting: true, ..Default::default() }),
        ("both", XOptions { spread_initial: true, counting: true }),
    ];
    let mut rows = Vec::new();
    for (name, opts) in variants {
        let slug = crate::slugify(name);
        let spec = WriteAllSpec { x_options: opts, ..WriteAllSpec::new(Algo::X, n, p) };
        let calm = sink
            .observe(format!("x-{slug}-nofail"), "X", n, p, |obs| {
                run_write_all(&spec, |_| rfsp_pram::NoFailures, RunLimits::default(), obs)
            })
            .expect("E11 calm run");
        let churn = sink
            .observe(format!("x-{slug}-churn"), "X", n, p, |obs| {
                run_write_all(
                    &spec,
                    |_| RandomFaults::new(0.05, 0.6, 0xE11),
                    RunLimits::default(),
                    obs,
                )
            })
            .expect("E11 churn run");
        let pigeon = sink
            .observe(format!("x-{slug}-pigeonhole"), "X", n, p, |obs| {
                run_write_all(
                    &spec,
                    |setup| Pigeonhole::new(setup.tasks.x()),
                    RunLimits::default(),
                    obs,
                )
            })
            .expect("E11 pigeonhole run");
        let killer = sink
            .observe(format!("x-{slug}-killer"), "X", n, p, |obs| {
                run_write_all(
                    &spec,
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
            .expect("E11 killer run");
        for r in [&calm, &churn, &pigeon, &killer] {
            assert!(r.verified);
        }
        rows.push(vec![
            name.to_string(),
            fmt(calm.report.stats.completed_work() as f64),
            fmt(churn.report.stats.completed_work() as f64),
            fmt(pigeon.report.stats.completed_work() as f64),
            fmt(killer.report.stats.completed_work() as f64),
        ]);
    }
    print_table(
        "E11 (Remark 5) — algorithm X variants, N = 1024, P = 64; S per adversary",
        &["variant", "no failures", "random churn", "pigeonhole", "X-killer"],
        &rows,
    );
    println!();
    println!(
        "Paper: the optimizations do not change the worst case (the X-killer \
         column stays super-linear for every variant) but may help elsewhere; \
         the counting tree steers processors toward remaining work and the \
         spread start removes the initial pile-up."
    );
    sink.finish();
}
