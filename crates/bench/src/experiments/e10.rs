//! E10 — §5: the stalking adversary vs randomized ACC and deterministic X.

use rfsp_adversary::{OfflineRandom, Stalking, StalkingMode};
use rfsp_pram::{PramError, RunLimits};
use rfsp_run::{Algo, WriteAllSpec};

use crate::{fmt, print_table, run_write_all, TelemetrySink};

/// Mean completed work of `algo` under the stalker over `seeds` trials;
/// `None` entries were censored at the cycle limit (the adversary held the
/// algorithm hostage past the limit — evidence for the §5 blow-up).
fn stalked(
    sink: &mut TelemetrySink,
    algo: Algo,
    n: usize,
    p: usize,
    mode: StalkingMode,
    limit: u64,
) -> (f64, usize, usize) {
    let seeds: [u64; 5] = [11, 23, 37, 51, 73];
    let mode_name = match mode {
        StalkingMode::FailStop => "failstop",
        StalkingMode::Restart => "restart",
    };
    let mut total = 0.0;
    let mut finished = 0;
    let mut censored = 0;
    for (k, seed) in seeds.iter().enumerate() {
        let algo = match algo {
            Algo::Acc(_) => Algo::Acc(*seed),
            other => {
                if k > 0 {
                    break; // deterministic: one trial suffices
                }
                other
            }
        };
        // Censored runs error out of `observe` and are therefore absent
        // from the artifact — only completed runs carry telemetry.
        let result = sink.observe(
            format!("{}-stalk-{mode_name}-n{n}-s{seed}", algo.name()),
            algo.name(),
            n,
            p,
            |obs| {
                run_write_all(
                    &WriteAllSpec::new(algo, n, p),
                    |setup| Stalking::new(setup.tasks.x(), n - 1, mode),
                    RunLimits { max_cycles: limit },
                    obs,
                )
            },
        );
        match result {
            Ok(run) => {
                assert!(run.verified);
                total += run.report.stats.completed_work() as f64;
                finished += 1;
            }
            Err(PramError::CycleLimit { .. }) => censored += 1,
            Err(e) => panic!("E10 failed: {e}"),
        }
    }
    let mean = if finished > 0 { total / finished as f64 } else { f64::NAN };
    (mean, finished, censored)
}

/// Run experiment E10.
pub fn run() {
    let mut sink = TelemetrySink::for_experiment("e10");
    let p = 8usize;
    let limit = 3_000_000u64;
    let mut rows = Vec::new();
    for n in [16usize, 32, 64] {
        let (x_fs, _, _) = stalked(&mut sink, Algo::X, n, p, StalkingMode::FailStop, limit);
        let (x_rs, _, _) = stalked(&mut sink, Algo::X, n, p, StalkingMode::Restart, limit);
        let (acc_fs, f1, c1) =
            stalked(&mut sink, Algo::Acc(0), n, p, StalkingMode::FailStop, limit);
        let (acc_rs, f2, c2) = stalked(&mut sink, Algo::Acc(0), n, p, StalkingMode::Restart, limit);
        let acc_rs_str = if f2 == 0 {
            format!("censored ({c2}/{})", f2 + c2)
        } else if c2 > 0 {
            format!("{} ({}x censored)", fmt(acc_rs), c2)
        } else {
            fmt(acc_rs)
        };
        let _ = (f1, c1);
        rows.push(vec![n.to_string(), fmt(x_fs), fmt(x_rs), fmt(acc_fs), acc_rs_str]);
    }
    print_table(
        "E10 (§5) — stalking adversary (target = last cell), P = 8, mean of 5 seeds for ACC",
        &["N", "X fail-stop", "X restart", "ACC fail-stop (mean S)", "ACC restart (mean S)"],
        &rows,
    );

    // The off-line control: the same fault *rates*, pre-committed, leave
    // ACC efficient even in the restart model.
    let mut rows = Vec::new();
    for n in [16usize, 32, 64] {
        let mut total = 0.0;
        let seeds = [11u64, 23, 37, 51, 73];
        for &seed in &seeds {
            let mut adv = OfflineRandom::new(p, 1_000_000, 0.1, 0.5, seed);
            let run = sink
                .observe(format!("acc-offline-n{n}-s{seed}"), "ACC", n, p, |obs| {
                    run_write_all(
                        &WriteAllSpec::new(Algo::Acc(seed), n, p),
                        |_| &mut adv,
                        RunLimits::default(),
                        obs,
                    )
                })
                .expect("E10 offline run failed");
            assert!(run.verified);
            total += run.report.stats.completed_work() as f64;
        }
        let mean = total / seeds.len() as f64;
        rows.push(vec![n.to_string(), fmt(mean), fmt(mean / n as f64)]);
    }
    print_table(
        "E10b (§5) — ACC vs an OFF-LINE random restart adversary, P = 8, mean of 5 seeds",
        &["N", "mean S", "S/N"],
        &rows,
    );
    println!();
    println!(
        "Paper: deterministic X completes with O(P) extra work (its processors \
         converge on the stalked leaf together, forcing the release condition), \
         while randomized ACC suffers polynomial expected work under fail-stop \
         stalking and an exponential blow-up — censored runs — in the restart \
         model. Off-line (non-adaptive) adversaries leave ACC efficient, which \
         E10 demonstrates by construction: the stalker is the *only* adaptive \
         ingredient."
    );
    sink.finish();
}
