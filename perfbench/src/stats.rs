//! Order statistics over raw samples, and the result line.

/// The `q`-quantile (0..=1) of `samples`, linearly interpolated
/// between closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if s[lo] == s[hi] {
        return s[lo];
    }
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never calls).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Named metrics in output order.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The result object, printed as the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            // A percentile made of failed requests is infinite.
            let v = if value.is_nan() {
                0.0
            } else {
                value.min(1e300)
            };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let mut m = Metrics::default();
        m.put("latency_p50_ms", 1.203456789, "ms");
        m.put("count", 3.0, "count");
        let line = result_line(true, 10, 0, &m);
        let doc = tadfa_sched::json::parse(&line).expect("valid JSON");
        let v = doc.get("metrics").and_then(|m| m.get("latency_p50_ms"));
        assert_eq!(
            v.and_then(|v| v.get("value")).and_then(|v| v.as_f64()),
            Some(1.203456789)
        );
        assert!(line.contains("\"count\": {\"value\": 3.0"));
    }
}
