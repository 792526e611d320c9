//! Metric names, units and the result line the benchmark prints last.

use std::collections::BTreeMap;

use crate::stats;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ns_per_cell", "ns"),
    ("job_s", "s"),
    ("recover_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_cell", "cycles/cell"),
];

/// Per-layer metrics, reported by the traced run. A metric of a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tick.tentative_ns", "ns"),
    ("tick.commit_ns", "ns"),
    ("tick.ns_per_cycle", "ns"),
    ("tick.count", "count"),
    ("cycles.useful_share", "ratio"),
    ("pool.speedup", "ratio"),
    ("adversary.decide_ns", "ns"),
    ("adversary.failures", "count"),
    ("adversary.restarts", "count"),
    ("observer.events", "count"),
    ("observer.ns_per_event", "ns"),
    ("setup.program_ns", "ns"),
    ("setup.machine_ns", "ns"),
    ("session.segment_ns", "ns"),
    ("ckpt.count", "count"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.publish_ns", "ns"),
    ("ckpt.load_ns", "ns"),
    ("spool.scan_ns", "ns"),
    ("events.bytes", "bytes"),
    ("json.encode_ns_per_byte", "ns/byte"),
    ("json.parse_ns_per_byte", "ns/byte"),
    ("daemon.submit_ms", "ms"),
    ("daemon.first_event_ms", "ms"),
    ("daemon.watch_bytes", "bytes"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, daemon starts, submitted jobs).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Count one failed operation.
    pub fn fail(&mut self, error: impl Into<String>) {
        self.failed += 1;
        self.errors.push(error.into());
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Note a timing's median, tail percentile and sample count (in the
    /// unit of `samples`).
    pub fn timing(&mut self, what: &str, unit: &str, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        let tail =
            stats::tail(samples).map_or_else(String::new, |(label, v)| format!(", {label} {v:.6}"));
        self.lines.push(format!(
            "{what}: median {:.6} {unit}{tail}, n = {}",
            stats::median(samples),
            samples.len()
        ));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// in `names` (a missing per-layer metric reads 0).
    ///
    /// # Errors
    ///
    /// A missing end-to-end metric or a non-finite value.
    pub fn result_line(
        &self,
        names: &[(&str, &str)],
        zero_missing: bool,
    ) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in names {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if zero_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        ))
    }
}
