//! The rfsp benchmark: four workloads timed end to end with tracing off,
//! and a separate traced run that splits the same work into per-layer
//! self times. `README.md` next to this crate lists every metric.

pub mod daemon;
pub mod drive;
pub mod host;
pub mod inproc;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timing;
