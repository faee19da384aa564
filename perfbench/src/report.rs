//! The run's report: metrics by name and unit, check results, and the
//! closing JSON line.

use std::fmt::Write as _;

/// One reported number.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Sample count, base or percentile the value rests on.
    pub note: String,
}

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    /// Lines printed before the metrics.
    pub header: Vec<String>,
    /// Metrics of the closing JSON line.
    pub metrics: Vec<Metric>,
    /// Further numbers printed for people only.
    pub extra: Vec<Metric>,
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Why operations or checks failed.
    pub errors: Vec<String>,
    /// Check results, for people.
    pub checks: Vec<String>,
}

impl Report {
    /// Adds a metric of the closing JSON line.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note,
        });
    }

    /// Adds a number printed for people only.
    pub fn extra(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.extra.push(Metric {
            name,
            unit,
            value,
            note,
        });
    }

    /// Records a correctness check.
    pub fn check(&mut self, what: &str, outcome: Result<String, String>) {
        self.attempted += 1;
        match outcome {
            Ok(detail) => self.checks.push(format!("ok    {what}: {detail}")),
            Err(why) => {
                self.checks.push(format!("FAIL  {what}: {why}"));
                self.errors.push(format!("{what}: {why}"));
            }
        }
    }

    /// Records failed operations that are not checks.
    pub fn fail(&mut self, errors: impl IntoIterator<Item = String>) {
        for e in errors {
            self.checks.push(format!("FAIL  {e}"));
            self.errors.push(e);
        }
    }

    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The report as text: header, metrics, checks, then the JSON line.
    pub fn render(&mut self) -> String {
        for m in self.metrics.iter_mut().chain(self.extra.iter_mut()) {
            if !m.value.is_finite() {
                self.errors
                    .push(format!("{} is not a finite number", m.name));
                m.value = 0.0;
            }
        }
        let mut out = String::new();
        for line in &self.header {
            let _ = writeln!(out, "{line}");
        }
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                out,
                "  {:<36} {:>16.4} {:<8} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let failed = self.errors.len() as u64;
        let attempted = self.attempted.max(1);
        let _ = writeln!(
            out,
            "  {:<36} {:>16.4} {:<8} {failed} of {attempted} operations and checks",
            "failed_frac",
            failed as f64 / attempted as f64,
            "1"
        );
        for c in &self.checks {
            let _ = writeln!(out, "  {c}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            metrics.join(", ")
        );
        out
    }
}
