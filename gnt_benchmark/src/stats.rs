//! Metrics, order statistics, and the one-line JSON result.

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name` of `value` in `unit`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between order statistics; `0` for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A run's verdict and metrics.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations and checks run.
    pub attempted: u64,
    /// Operations and checks whose output was wrong, that returned an
    /// unexpected error, or that panicked.
    pub failed: u64,
    /// The metrics of the run, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, each metric as `{"value", "unit"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `v` as a JSON number: every digit Rust's shortest round-trip form
/// prints, and `0` for a non-finite value (JSON has no NaN).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
