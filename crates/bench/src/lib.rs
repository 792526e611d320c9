//! Shared harness for the experiment binaries.
//!
//! Every experiment binary (`e1_thrashing` … `e10_stalking`) prints a
//! Markdown table comparing the paper's claim with the measured behaviour;
//! `all_experiments` runs the full suite. This library holds the common
//! plumbing: algorithm runners, table formatting, and regression helpers.

pub mod experiments;
pub mod soak;
pub mod telemetry;

use rfsp_pram::{
    Adversary, CycleBudget, Machine, Observer, PramError, Program, RunLimits, RunReport,
};
use rfsp_run::{with_write_all_program, WriteAllSetup, WriteAllSpec, WriteAllVisitor};
use serde::{Deserialize, Serialize};

pub use telemetry::{BenchArtifact, BenchRun, TelemetrySink};

/// Outcome of one Write-All run.
#[derive(Clone, Debug)]
pub struct WriteAllRun {
    /// The machine report.
    pub report: RunReport,
    /// Whether the array was fully written (always true on `Ok`).
    pub verified: bool,
}

/// Run the Write-All instance `spec` names, streaming every machine event
/// to `observer` (attach a
/// [`MetricsObserver`](rfsp_pram::MetricsObserver) to collect the per-tick
/// telemetry behind the `BENCH_*.json` artifacts). `make_adversary` sees
/// the instance's [`WriteAllSetup`], which region-aware adversaries like
/// the pigeonhole and the stalker need; others ignore it.
///
/// # Errors
///
/// Propagates machine errors (including invalid layouts);
/// [`PramError::CycleLimit`] marks runs the adversary successfully
/// prevented from finishing within `limits`.
pub fn run_write_all<F, A>(
    spec: &WriteAllSpec,
    make_adversary: F,
    limits: RunLimits,
    observer: &mut dyn Observer,
) -> Result<WriteAllRun, PramError>
where
    F: FnOnce(&WriteAllSetup) -> A,
    A: Adversary,
{
    struct Run<'s, 'o, F> {
        spec: &'s WriteAllSpec,
        make_adversary: F,
        limits: RunLimits,
        observer: &'o mut dyn Observer,
    }

    impl<F, A> WriteAllVisitor for Run<'_, '_, F>
    where
        F: FnOnce(&WriteAllSetup) -> A,
        A: Adversary,
    {
        type Out = Result<WriteAllRun, PramError>;

        fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
        where
            P: Program,
            P::Private: Serialize + Deserialize,
        {
            let mut adversary = (self.make_adversary)(setup);
            let mut m = Machine::with_layout(prog, self.spec.p, budget, self.spec.layout)?;
            let report = m.run_observed(&mut adversary, self.limits, self.observer)?;
            Ok(WriteAllRun { report, verified: setup.tasks.all_written(m.memory()) })
        }
    }

    with_write_all_program(spec, Run { spec, make_adversary, limits, observer })
}

/// Least-squares slope of `log y` against `log x` — the empirical exponent
/// of a power law.
///
/// # Panics
///
/// Panics on fewer than two points or non-positive coordinates.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Print a Markdown table and, if `RFSP_CSV_DIR` is set, also write the
/// rows as `<dir>/<slug-of-title>.csv` so experiment data can be plotted
/// without scraping stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    if let Ok(dir) = std::env::var("RFSP_CSV_DIR") {
        if let Err(e) = write_csv(&dir, title, headers, rows) {
            eprintln!("warning: could not write CSV for '{title}': {e}");
        }
    }
}

/// Turn a table title into a file-system-friendly slug.
pub fn slugify(title: &str) -> String {
    let mut slug = String::new();
    let mut dash = false;
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !slug.is_empty() {
            slug.push('-');
            dash = true;
        }
    }
    slug.trim_end_matches('-').to_string()
}

fn write_csv(
    dir: &str,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir).join(format!("{}.csv", slugify(title)));
    let escape = |cell: &str| {
        if cell.contains([',', '"', '\n']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Format a float compactly.
pub fn fmt(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsp_pram::{MemoryLayout, NoFailures, NoopObserver};
    use rfsp_run::Algo;

    #[test]
    fn runner_covers_all_algorithms() {
        for algo in [Algo::X, Algo::V, Algo::W, Algo::Interleaved, Algo::XInPlace, Algo::Acc(3)] {
            let spec = WriteAllSpec::new(algo, 32, 8);
            let run = run_write_all(&spec, |_| NoFailures, RunLimits::default(), &mut NoopObserver)
                .unwrap();
            assert!(run.verified, "{algo:?}");
            assert!(run.report.stats.completed_work() > 0);
        }
    }

    #[test]
    fn banked_layout_matches_flat_runner() {
        let run = |spec: &WriteAllSpec| {
            run_write_all(spec, |_| NoFailures, RunLimits::default(), &mut NoopObserver).unwrap()
        };
        let flat = run(&WriteAllSpec::new(Algo::X, 32, 8));
        let banked = run(&WriteAllSpec {
            layout: MemoryLayout::banked(4),
            ..WriteAllSpec::new(Algo::X, 32, 8)
        });
        assert!(banked.verified);
        assert_eq!(flat.report.stats, banked.report.stats);
    }

    #[test]
    fn slugify_is_filesystem_friendly() {
        assert_eq!(
            slugify("E7 (Theorem 4.8) — algorithm X, P = N"),
            "e7-theorem-4-8-algorithm-x-p-n"
        );
        assert_eq!(slugify("---"), "");
    }

    #[test]
    fn csv_emission_roundtrips() {
        let dir = std::env::temp_dir().join("rfsp-csv-test");
        let dir_s = dir.to_str().unwrap().to_string();
        write_csv(&dir_s, "T1, with \"quotes\"", &["a", "b"], &[vec!["1".into(), "x,y".into()]])
            .unwrap();
        let text = std::fs::read_to_string(dir.join("t1-with-quotes.csv")).unwrap();
        assert_eq!(text, "a,b\n1,\"x,y\"\n");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn slope_of_a_pure_power_law() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|k| {
                let x = (1 << k) as f64;
                (x, 3.0 * x.powf(1.585))
            })
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 1.585).abs() < 1e-9);
    }

    #[test]
    fn region_aware_runner_exposes_layout() {
        let run = run_write_all(
            &WriteAllSpec::new(Algo::X, 16, 16),
            |setup| {
                assert!(setup.x_layout.is_some());
                NoFailures
            },
            RunLimits::default(),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(run.verified);
    }
}
