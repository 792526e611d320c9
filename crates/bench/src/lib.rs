//! Shared harness for the experiment binaries.
//!
//! Every experiment binary (`e1_thrashing` … `e10_stalking`) prints a
//! Markdown table comparing the paper's claim with the measured behaviour;
//! `all_experiments` runs the full suite. This library holds the common
//! plumbing: algorithm runners, table formatting, and regression helpers.

pub mod experiments;
pub mod soak;
pub mod telemetry;

use rfsp_core::{
    AccOptions, AlgoAcc, AlgoV, AlgoW, AlgoX, AlgoXInPlace, Interleaved, WriteAllTasks, XOptions,
};
use rfsp_pram::{
    Adversary, CycleBudget, ExecMode, LayoutBuilder, Machine, MemoryLayout, Observer, PramError,
    Program, RunControl, RunLimits, RunReport, RunSpec, RunStatus,
};
use serde::{Deserialize, Serialize};

pub use telemetry::{BenchArtifact, BenchRun, TelemetrySink};

/// Which Write-All algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// Algorithm X (local traversal).
    X,
    /// Algorithm V (phase-synchronized).
    V,
    /// Algorithm W (the [KS 89] baseline with enumeration).
    W,
    /// Interleaved V+X (Theorem 4.9).
    Interleaved,
    /// Algorithm X in place (Remark 7; power-of-two sizes only).
    XInPlace,
    /// Randomized ACC with this seed (§5 baseline).
    Acc(u64),
}

impl Algo {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::X => "X",
            Algo::V => "V",
            Algo::W => "W",
            Algo::Interleaved => "V+X",
            Algo::XInPlace => "X-inplace",
            Algo::Acc(_) => "ACC",
        }
    }
}

/// One Write-All run: the instance and every machine knob the run recipe
/// forwards. All knobs except the instance are behavior-invariant — every
/// tick engine, layout and batch width produces a bit-identical run.
#[derive(Clone, Copy, Debug)]
pub struct WriteAllSpec<'a> {
    /// The algorithm.
    pub algo: Algo,
    /// Instance size `N`.
    pub n: usize,
    /// Processor count `P`.
    pub p: usize,
    /// The tick engine.
    pub exec: ExecMode<'a>,
    /// The shared-memory layout: per-bank counters (and any attached
    /// network meter) reflect a real bank mapping.
    pub layout: MemoryLayout,
    /// Tentative-phase batch width ([`Machine::set_batch_width`]); `None`
    /// keeps the machine default, `Some(1)` forces the scalar reference
    /// path.
    pub batch_width: Option<usize>,
    /// Algorithm X's options (the Remark 5 ablation); must stay at the
    /// default for every other algorithm.
    pub x_options: XOptions,
}

impl WriteAllSpec<'_> {
    /// `algo` on `n` cells and `p` processors, every knob at its default:
    /// the sequential engine, flat memory, the machine's batch width and
    /// default X options.
    pub fn new(algo: Algo, n: usize, p: usize) -> Self {
        WriteAllSpec {
            algo,
            n,
            p,
            exec: ExecMode::Sequential,
            layout: MemoryLayout::Flat,
            batch_width: None,
            x_options: XOptions::default(),
        }
    }
}

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
    spec: &WriteAllSpec<'_>,
    make_adversary: F,
    limits: RunLimits,
    observer: &mut dyn Observer,
) -> Result<WriteAllRun, PramError>
where
    F: FnOnce(&WriteAllSetup) -> A,
    A: Adversary,
{
    struct Run<'s, 'o, F> {
        spec: &'s WriteAllSpec<'s>,
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
            P: Program + Sync,
            P::Private: Send + Serialize + Deserialize,
        {
            let mut adversary = (self.make_adversary)(setup);
            let mut m = Machine::with_layout(prog, self.spec.p, budget, self.spec.layout)?;
            if let Some(w) = self.spec.batch_width {
                m.set_batch_width(w);
            }
            let run = RunSpec { exec: self.spec.exec, panic: None, limits: self.limits };
            let RunStatus::Completed(report) =
                m.run_with(run, &mut adversary, self.observer, |_| RunControl::Continue)?
            else {
                unreachable!("the control callback never pauses")
            };
            Ok(WriteAllRun { report, verified: setup.tasks.all_written(m.memory()) })
        }
    }

    with_write_all_program(spec, Run { spec, make_adversary, limits, observer })
}

/// A computation generic over the *concrete* Write-All program type.
///
/// [`run_write_all`] erases the program behind a fixed run recipe;
/// anything needing the extra capabilities of the machine's crash-safety
/// surface — [`Machine::save_checkpoint`] /
/// [`Machine::restore_checkpoint`] (which require `P::Private:
/// Serialize + Deserialize`), a panic-isolating [`Machine::run_with`], or
/// multiple machines over one program — implements this trait instead and
/// lets [`with_write_all_program`] construct the program.
pub trait WriteAllVisitor {
    /// What the visit produces.
    type Out;

    /// Run against the concrete program. `budget` is the cycle budget the
    /// algorithm requires (the paper's 4-read/2-write budget for all but
    /// the interleaved algorithm).
    fn visit<P>(self, prog: &P, setup: &WriteAllSetup, budget: CycleBudget) -> Self::Out
    where
        P: Program + Sync,
        P::Private: Send + Serialize + Deserialize;
}

/// Build the Write-All program `spec` names — from its algorithm, instance
/// size, processor count and X options — and hand it to `visitor`.
///
/// # Panics
///
/// If `spec` sets non-default X options for an algorithm other than X.
pub fn with_write_all_program<V: WriteAllVisitor>(spec: &WriteAllSpec<'_>, visitor: V) -> V::Out {
    let (n, p) = (spec.n, spec.p);
    assert!(
        matches!(spec.algo, Algo::X) || spec.x_options == XOptions::default(),
        "X options apply to algorithm X only"
    );
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    match spec.algo {
        Algo::X => {
            let prog = AlgoX::new(&mut layout, tasks, p, spec.x_options);
            let setup =
                WriteAllSetup { tasks, x_layout: Some(*prog.layout()), tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::V => {
            let prog = AlgoV::new(&mut layout, tasks, p);
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::W => {
            let prog = AlgoW::new(&mut layout, tasks, p);
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::Interleaved => {
            let prog = Interleaved::new(&mut layout, tasks, p);
            let setup = WriteAllSetup {
                tasks,
                x_layout: Some(*prog.x_half().layout()),
                tree: Some(prog.x_half().tree()),
            };
            let budget = prog.required_budget();
            visitor.visit(&prog, &setup, budget)
        }
        Algo::XInPlace => {
            let prog = AlgoXInPlace::new(&mut layout, tasks, p);
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
        Algo::Acc(seed) => {
            let prog = AlgoAcc::new(&mut layout, tasks, AccOptions { seed });
            let setup = WriteAllSetup { tasks, x_layout: None, tree: Some(prog.tree()) };
            visitor.visit(&prog, &setup, CycleBudget::PAPER)
        }
    }
}

/// What a region-aware adversary constructor gets to see.
#[derive(Clone, Debug)]
pub struct WriteAllSetup {
    /// The Write-All instance (exposes the array region).
    pub tasks: WriteAllTasks,
    /// Algorithm X's layout, when the algorithm is X-based.
    pub x_layout: Option<rfsp_core::XLayout>,
    /// The progress-tree shape, when the algorithm has one.
    pub tree: Option<rfsp_core::HeapTree>,
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
    use rfsp_pram::{NoFailures, NoopObserver};

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
    fn pooled_engine_matches_sequential_runner() {
        let run = |spec: &WriteAllSpec<'_>| {
            run_write_all(spec, |_| NoFailures, RunLimits::default(), &mut NoopObserver).unwrap()
        };
        let seq = run(&WriteAllSpec::new(Algo::X, 32, 8));
        let pooled =
            run(&WriteAllSpec { exec: ExecMode::Threads(3), ..WriteAllSpec::new(Algo::X, 32, 8) });
        assert!(seq.verified && pooled.verified);
        assert_eq!(seq.report.stats, pooled.report.stats);
    }

    #[test]
    fn banked_layout_matches_flat_runner() {
        let run = |spec: &WriteAllSpec<'_>| {
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
