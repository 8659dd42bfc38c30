//! The repository's single benchmark.
//!
//! One process runs one named campaign workload as a batch job at one
//! worker thread, checks its output, and prints every end-to-end metric;
//! a separate traced run re-drives the same units through the program's
//! public constructors with timing decorators and prints the per-layer
//! split. See `README.md` in this directory for the workloads, the
//! layer → metric → workload table and what is left out.

use std::fmt::Write as _;

pub mod alloc;
pub mod calib;
pub mod micro;
pub mod redrive;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;

pub use workload::{output_check, Campaign, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value; never NaN or infinite.
    pub value: f64,
}

/// A metric, with a non-finite value (a ratio over nothing) read as 0.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
}

/// What one run attempted, how much of it failed the output check, and
/// the metrics it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Checked operations: reps and re-driven campaigns.
    pub attempted: usize,
    /// Operations whose output failed the check.
    pub failed: usize,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric's value and unit.
    pub fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        line.push_str("}}");
        line
    }
}
