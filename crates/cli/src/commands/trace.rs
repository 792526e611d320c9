//! `rfsp trace` — run one Write-All instance under full telemetry and
//! export the stream.
//!
//! Accepts the instance and adversary options of `rfsp writeall` (not its
//! engine, layout or `--record-pattern` options); the run is driven
//! through a [`Tee`] of a [`TraceRecorder`] (raw machine events) and a
//! [`MetricsObserver`] (per-tick aggregates), and either or both views
//! can be written to a file or streamed to stdout (`-`).
//!
//! `--model snapshot` traces the §3 snapshot machine instead (the
//! balanced-allocation algorithm of Theorem 3.2 on `SnapshotMachine`):
//! since the unified execution core, snapshot runs stream the exact same
//! event vocabulary as word-model runs, so every export below works
//! unchanged. `--algo` is ignored in that model.
//!
//! ```text
//! rfsp trace --algo v --n 256 --p 16 --adversary random --rate 0.1 --metrics -
//! rfsp trace --algo x --adversary xkiller --events run.jsonl --metrics run.csv
//! rfsp trace --n 4096 --adversary thrashing --tail 500 --events -
//! rfsp trace --model snapshot --n 1024 --p 64 --adversary pigeonhole --events -
//! ```

use rfsp_bench::{run_write_all, WriteAllSetup, WriteAllSpec};
use rfsp_core::{SnapshotBalance, WriteAllTasks};
use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{
    LayoutBuilder, MetricsObserver, NoFailures, Observer, RunLimits, Tee, TraceRecorder, WorkStats,
};

use crate::args::{ArgError, Args};
use crate::commands::writeall::{build_adversary, parse_algo, parse_sizes};

fn write_out(dest: &str, text: &str) -> Result<(), ArgError> {
    if dest == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(dest, text).map_err(|e| ArgError(format!("cannot write {dest}: {e}")))
    }
}

/// Drive the snapshot-model balanced-allocation run under the selected
/// adversary, streaming events to `observer`.
fn run_snapshot(
    args: &Args,
    n: usize,
    p: usize,
    max_cycles: u64,
    observer: &mut dyn Observer,
) -> Result<WorkStats, ArgError> {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, n);
    let algo = SnapshotBalance::new(tasks, n);
    let mut m =
        SnapshotMachine::new(&algo, p, 1).map_err(|e| ArgError(format!("machine error: {e}")))?;
    // Region-aware adversaries see the same Write-All array; the snapshot
    // model has no X layout or progress tree, so layout-bound adversaries
    // (xkiller) are rejected by `build_adversary` itself.
    let setup = WriteAllSetup { tasks, x_layout: None, tree: None };
    let mut adversary = build_adversary(args, &setup, n)?;
    let report = m
        .run_observed(&mut adversary, RunLimits { max_cycles }, observer)
        .map_err(|e| ArgError(format!("machine error: {e}")))?;
    if !tasks.all_written(m.memory()) {
        return Err(ArgError("postcondition failed: array not fully written".into()));
    }
    Ok(report.stats)
}

/// Execute the subcommand.
///
/// # Errors
///
/// Reports bad arguments, I/O problems, and machine errors as [`ArgError`].
pub fn run(args: &Args) -> Result<(), ArgError> {
    let (n, p) = parse_sizes(args)?;
    let model = args.get_or("model", "word");
    if model != "word" && model != "snapshot" {
        return Err(crate::unknown("--model", model, &["word", "snapshot"]));
    }
    let max_cycles: u64 = args.get_parsed("max-cycles", RunLimits::default().max_cycles)?;
    let tail: usize = args.get_parsed("tail", 0)?;
    let format = args.get_or("format", "csv");
    if format != "csv" && format != "jsonl" {
        return Err(crate::unknown("--format", format, &["csv", "jsonl"]));
    }

    let mut recorder =
        if tail == 0 { TraceRecorder::unbounded() } else { TraceRecorder::with_capacity(tail) };
    let mut metrics = MetricsObserver::new(p);

    let (algo_name, stats) = if model == "snapshot" {
        let stats = run_snapshot(args, n, p, max_cycles, &mut Tee(&mut recorder, &mut metrics))?;
        ("snapshot", stats)
    } else {
        let algo = parse_algo(args.get_or("algo", "x"))?;
        let mut build_err = None;
        let result = run_write_all(
            &WriteAllSpec::new(algo, n, p),
            |setup| match build_adversary(args, setup, n) {
                Ok(adv) => adv,
                Err(e) => {
                    build_err = Some(e);
                    Box::new(NoFailures)
                }
            },
            RunLimits { max_cycles },
            &mut Tee(&mut recorder, &mut metrics),
        );
        if let Some(e) = build_err {
            return Err(e);
        }
        let run = result.map_err(|e| ArgError(format!("machine error: {e}")))?;
        if !run.verified {
            return Err(ArgError("postcondition failed: array not fully written".into()));
        }
        (algo.name(), run.report.stats)
    };
    let series = metrics.finish();

    let events_dest = args.get("events");
    let metrics_dest = args.get("metrics");
    if let Some(dest) = events_dest {
        write_out(dest, &recorder.to_jsonl())?;
    }
    if let Some(dest) = metrics_dest {
        let text = if format == "csv" { series.to_csv() } else { series.to_jsonl() };
        write_out(dest, &text)?;
    }
    if events_dest.is_none() && metrics_dest.is_none() {
        // No export requested: stream the per-tick series to stdout.
        print!("{}", if format == "csv" { series.to_csv() } else { series.to_jsonl() });
    }

    // Keep stdout clean for piped telemetry; the summary goes to stderr.
    eprintln!(
        "trace: {algo_name} N={n} P={p} adversary={} — {} events ({} dropped by --tail), {} ticks, \
         S={} S'={} |F|={}",
        args.get_or("adversary", "none"),
        recorder.total_events,
        recorder.dropped,
        series.ticks.len(),
        stats.completed_cycles,
        stats.s_prime(),
        stats.pattern_size(),
    );
    Ok(())
}
