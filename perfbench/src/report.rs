//! The result of one benchmark run: named metrics with units, the
//! operation tally, and every failed output check.

use crate::sys::json_str;

/// Metrics and check outcomes gathered by one workload run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations the workload attempted (runs or HTTP requests).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records metric `name` (replacing an earlier value of that name).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records every failure message in `failures`.
    pub fn fail_all(&mut self, failures: Vec<String>) {
        self.failures.extend(failures);
    }

    /// The failed checks so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The value of metric `name`, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The one-line result object, restricted to `names` in that order.
    /// A name without a recorded value is a failed check.
    pub fn result_line(&mut self, names: &[(&str, &str)]) -> String {
        let mut entries = Vec::new();
        for &(name, unit) in names {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, value, got_unit)) if value.is_finite() => {
                    if *got_unit != unit {
                        self.failures.push(format!(
                            "metric {name} measured in {got_unit}, declared {unit}"
                        ));
                    }
                    entries.push(format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json_str(name),
                        value,
                        json_str(unit)
                    ));
                }
                Some((_, value, _)) => self.failures.push(format!("metric {name} is {value}")),
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            entries.join(", ")
        )
    }
}
