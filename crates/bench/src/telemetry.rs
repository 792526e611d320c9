//! Per-run telemetry artifacts for the experiment suite.
//!
//! When the `RFSP_BENCH_DIR` environment variable is set (mirroring
//! `RFSP_CSV_DIR` for the Markdown tables), every experiment additionally
//! writes `BENCH_<exp>.json` into that directory: one [`BenchArtifact`]
//! holding, for each measured run, the machine's [`WorkStats`] plus the
//! full per-tick [`RunSeries`] collected by a
//! [`MetricsObserver`](rfsp_pram::MetricsObserver) attached to the run.
//! With the variable unset the sink is inert and runs execute with a
//! no-op observer — the tables are unchanged either way.
//!
//! The artifact is plain JSON produced by the serde value model, so it
//! round-trips: `serde::json::from_str::<BenchArtifact>` recovers exactly
//! what was written.

use std::path::{Path, PathBuf};

use rfsp_pram::{MetricsObserver, NoopObserver, Observer, RunSeries, WorkStats};
use serde::{Deserialize, Serialize};

use crate::WriteAllRun;

/// One measured run inside a [`BenchArtifact`].
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct BenchRun {
    /// Experiment-chosen row label (e.g. `"x-thrashing-n256"`).
    pub label: String,
    /// Algorithm display name.
    pub algo: String,
    /// Problem size `N`.
    pub n: u64,
    /// Processor count `P`.
    pub p: u64,
    /// Whether the run's postcondition was verified.
    pub verified: bool,
    /// The run's work and fault counters.
    pub stats: WorkStats,
    /// Per-tick telemetry; `None` for runs recorded through
    /// [`TelemetrySink::record_stats`] (engines or summaries with no event
    /// stream). Since the unified execution core, snapshot-model runs
    /// stream the same events as word-model runs and carry a series too.
    pub series: Option<RunSeries>,
}

/// Everything one experiment writes into `BENCH_<exp>.json`.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct BenchArtifact {
    /// The experiment slug (`"e1"` … `"e13"`).
    pub experiment: String,
    /// The measured runs, in execution order.
    pub runs: Vec<BenchRun>,
}

/// Collects [`BenchRun`]s for one experiment and writes the artifact on
/// [`TelemetrySink::finish`]. Inert (no observers attached, nothing
/// written) unless `RFSP_BENCH_DIR` is set.
#[derive(Debug)]
pub struct TelemetrySink {
    experiment: String,
    dir: Option<PathBuf>,
    runs: Vec<BenchRun>,
}

impl TelemetrySink {
    /// A sink for experiment `name`, active iff `RFSP_BENCH_DIR` is set.
    pub fn for_experiment(name: &str) -> Self {
        TelemetrySink {
            experiment: name.to_string(),
            dir: std::env::var_os("RFSP_BENCH_DIR").map(PathBuf::from),
            runs: Vec::new(),
        }
    }

    /// A sink writing into an explicit directory regardless of the
    /// environment (used by tests and the CLI).
    pub fn with_dir(name: &str, dir: impl AsRef<Path>) -> Self {
        TelemetrySink {
            experiment: name.to_string(),
            dir: Some(dir.as_ref().to_path_buf()),
            runs: Vec::new(),
        }
    }

    /// Whether runs are being recorded.
    pub fn is_active(&self) -> bool {
        self.dir.is_some()
    }

    /// Run `f` under a per-tick metrics observer (when active; a no-op
    /// observer otherwise) and record the outcome. `f` receives the
    /// observer to pass to [`run_write_all`](crate::run_write_all);
    /// failed runs (e.g. deliberate cycle-limit censoring) are not
    /// recorded and their error is returned unchanged.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns.
    pub fn observe<E>(
        &mut self,
        label: impl Into<String>,
        algo: &str,
        n: usize,
        p: usize,
        f: impl FnOnce(&mut dyn Observer) -> Result<WriteAllRun, E>,
    ) -> Result<WriteAllRun, E> {
        if !self.is_active() {
            return f(&mut NoopObserver);
        }
        let mut metrics = MetricsObserver::new(p);
        let run = f(&mut metrics)?;
        self.runs.push(BenchRun {
            label: label.into(),
            algo: algo.to_string(),
            n: n as u64,
            p: p as u64,
            verified: run.verified,
            stats: run.report.stats,
            series: Some(metrics.finish()),
        });
        Ok(run)
    }

    /// Like [`TelemetrySink::observe`] for runners that return bare
    /// [`WorkStats`] instead of a [`WriteAllRun`] — the snapshot-model
    /// experiments, whose runners assert their postcondition internally
    /// (hence `verified: true`) and panic on failure. Runs `f` under a
    /// per-tick metrics observer when active, a no-op observer otherwise.
    pub fn observe_snapshot(
        &mut self,
        label: impl Into<String>,
        algo: &str,
        n: usize,
        p: usize,
        f: impl FnOnce(&mut dyn Observer) -> WorkStats,
    ) -> WorkStats {
        if !self.is_active() {
            return f(&mut NoopObserver);
        }
        let mut metrics = MetricsObserver::new(p);
        let stats = f(&mut metrics);
        self.runs.push(BenchRun {
            label: label.into(),
            algo: algo.to_string(),
            n: n as u64,
            p: p as u64,
            verified: true,
            stats,
            series: Some(metrics.finish()),
        });
        stats
    }

    /// Record a run whose series was collected by an externally managed
    /// [`MetricsObserver`] (e.g. one attached to `rfsp_sim::simulate_observed`).
    /// No-op when inactive.
    #[allow(clippy::too_many_arguments)]
    pub fn record_series(
        &mut self,
        label: impl Into<String>,
        algo: &str,
        n: usize,
        p: usize,
        verified: bool,
        stats: WorkStats,
        series: RunSeries,
    ) {
        if self.is_active() {
            self.runs.push(BenchRun {
                label: label.into(),
                algo: algo.to_string(),
                n: n as u64,
                p: p as u64,
                verified,
                stats,
                series: Some(series),
            });
        }
    }

    /// Record a run measured through an engine that has no event stream
    /// (stats only, no series). No-op when inactive.
    pub fn record_stats(
        &mut self,
        label: impl Into<String>,
        algo: &str,
        n: usize,
        p: usize,
        verified: bool,
        stats: WorkStats,
    ) {
        if self.is_active() {
            self.runs.push(BenchRun {
                label: label.into(),
                algo: algo.to_string(),
                n: n as u64,
                p: p as u64,
                verified,
                stats,
                series: None,
            });
        }
    }

    /// Runs recorded so far.
    pub fn runs(&self) -> &[BenchRun] {
        &self.runs
    }

    /// Write `BENCH_<exp>.json` (when active) and return its path. Prints
    /// a warning instead of failing the experiment if the write errors.
    pub fn finish(self) -> Option<PathBuf> {
        let dir = self.dir?;
        let artifact = BenchArtifact { experiment: self.experiment, runs: self.runs };
        let path = dir.join(format!("BENCH_{}.json", artifact.experiment));
        let json = serde::json::to_string_pretty(&artifact);
        let write = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json));
        match write {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write {}: {e}", path.display());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_write_all, Algo, WriteAllSpec};
    use rfsp_pram::{NoFailures, RunLimits};

    #[test]
    fn inactive_sink_records_nothing() {
        let mut sink = TelemetrySink { experiment: "t".into(), dir: None, runs: Vec::new() };
        let run = sink
            .observe("r", "X", 32, 8, |obs| {
                run_write_all(
                    &WriteAllSpec::new(Algo::X, 32, 8),
                    |_| NoFailures,
                    RunLimits::default(),
                    obs,
                )
            })
            .unwrap();
        assert!(run.verified);
        assert!(sink.runs().is_empty());
        assert!(sink.finish().is_none());
    }

    /// Snapshot-model runs go through the same observer pipeline as word
    /// runs now: an active sink records a full per-tick series for them
    /// (E2/E3's `BENCH_*.json` artifacts rely on this).
    #[test]
    fn snapshot_runs_carry_series() {
        let dir = std::env::temp_dir().join("rfsp-bench-snap-sink-test");
        let mut sink = TelemetrySink::with_dir("e3-test", &dir);
        let stats = sink.observe_snapshot("snap-32", "snapshot", 32, 32, |obs| {
            crate::experiments::e2::snapshot_under_pigeonhole_observed(32, obs)
        });
        let path = sink.finish().expect("artifact written");
        let text = std::fs::read_to_string(&path).unwrap();
        let artifact: BenchArtifact = serde::json::from_str(&text).unwrap();
        let run = &artifact.runs[0];
        assert!(run.verified);
        assert_eq!(run.stats, stats);
        let series = run.series.as_ref().expect("snapshot run has a series");
        assert_eq!(series.processors, 32);
        assert_eq!(series.last().expect("nonempty").s, stats.completed_cycles);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn active_sink_writes_roundtrippable_artifact() {
        let dir = std::env::temp_dir().join("rfsp-bench-sink-test");
        let mut sink = TelemetrySink::with_dir("t2", &dir);
        let run = sink
            .observe("v-32", "V", 32, 8, |obs| {
                run_write_all(
                    &WriteAllSpec::new(Algo::V, 32, 8),
                    |_| NoFailures,
                    RunLimits::default(),
                    obs,
                )
            })
            .unwrap();
        sink.record_stats("snap", "snapshot", 32, 32, true, run.report.stats);
        let path = sink.finish().expect("artifact written");
        let text = std::fs::read_to_string(&path).unwrap();
        let artifact: BenchArtifact = serde::json::from_str(&text).unwrap();
        assert_eq!(artifact.experiment, "t2");
        assert_eq!(artifact.runs.len(), 2);
        let first = &artifact.runs[0];
        assert_eq!(first.stats, run.report.stats);
        let series = first.series.as_ref().expect("observed run has a series");
        assert_eq!(series.processors, 8);
        let last = series.last().expect("nonempty series");
        assert_eq!(last.s, run.report.stats.completed_cycles);
        assert!(artifact.runs[1].series.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
