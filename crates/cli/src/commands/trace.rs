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
//! unchanged. `--algo` is ignored in that model, though it must still
//! name an algorithm.
//!
//! ```text
//! rfsp trace --algo v --n 256 --p 16 --adversary random --rate 0.1 --metrics -
//! rfsp trace --algo x --adversary xkiller --events run.jsonl --metrics run.csv
//! rfsp trace --n 4096 --adversary thrashing --tail 500 --events -
//! rfsp trace --model snapshot --n 1024 --p 64 --adversary pigeonhole --events -
//! ```

use rfsp_bench::run_write_all;
use rfsp_core::{SnapshotBalance, WriteAllTasks};
use rfsp_pram::snapshot::SnapshotMachine;
use rfsp_pram::{LayoutBuilder, MetricsObserver, Observer, Tee, TraceRecorder, WorkStats};
use rfsp_run::{build_adversary, RunConfig, WriteAllSetup};

use crate::args::{ArgError, Args};
use crate::commands::config_from_args;

fn write_out(dest: &str, text: &str) -> Result<(), ArgError> {
    if dest == "-" {
        print!("{text}");
        Ok(())
    } else {
        std::fs::write(dest, text).map_err(|e| ArgError(format!("cannot write {dest}: {e}")))
    }
}

/// Drive the snapshot-model balanced-allocation run under the configured
/// adversary, streaming events to `observer`.
fn run_snapshot(cfg: &RunConfig, observer: &mut dyn Observer) -> Result<WorkStats, ArgError> {
    let mut layout = LayoutBuilder::new();
    let tasks = WriteAllTasks::new(&mut layout, cfg.n as usize);
    let algo = SnapshotBalance::new(tasks, cfg.n as usize);
    let mut m = SnapshotMachine::new(&algo, cfg.p as usize, 1)
        .map_err(|e| ArgError(format!("machine error: {e}")))?;
    // Region-aware adversaries see the same Write-All array; the snapshot
    // model has no X layout or progress tree, so layout-bound adversaries
    // (xkiller) are refused by `build_adversary` itself.
    let setup = WriteAllSetup { tasks, x_layout: None, tree: None };
    let mut adversary = build_adversary(cfg, &setup)?;
    let report = m
        .run_observed(&mut adversary, cfg.limits(), observer)
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
    // `--events` names trace's own export, not a session's events log.
    let cfg = RunConfig { events: None, ..config_from_args(args)? };
    let (n, p) = (cfg.n, cfg.p);
    let model = args.get_or("model", "word");
    if model != "word" && model != "snapshot" {
        return Err(crate::unknown("--model", model, &["word", "snapshot"]));
    }
    let tail: usize = args.get_parsed("tail", 0)?;
    let format = args.get_or("format", "csv");
    if format != "csv" && format != "jsonl" {
        return Err(crate::unknown("--format", format, &["csv", "jsonl"]));
    }

    let mut recorder =
        if tail == 0 { TraceRecorder::unbounded() } else { TraceRecorder::with_capacity(tail) };
    let mut metrics = MetricsObserver::new(p as usize);
    let mut observer = Tee(&mut recorder, &mut metrics);

    let (algo_name, stats) = if model == "snapshot" {
        ("snapshot", run_snapshot(&cfg, &mut observer)?)
    } else {
        let spec = cfg.spec()?;
        let adversary = build_adversary(&cfg, &spec.setup())?;
        let run = run_write_all(&spec, |_| adversary, cfg.limits(), &mut observer)
            .map_err(|e| ArgError(format!("machine error: {e}")))?;
        if !run.verified {
            return Err(ArgError("postcondition failed: array not fully written".into()));
        }
        (spec.algo.name(), run.report.stats)
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
        cfg.adversary,
        recorder.total_events,
        recorder.dropped,
        series.ticks.len(),
        stats.completed_cycles,
        stats.s_prime(),
        stats.pattern_size(),
    );
    Ok(())
}
