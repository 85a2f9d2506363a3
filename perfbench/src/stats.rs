//! Small statistics, timing and reporting helpers.

use std::hint::black_box;
use std::time::Instant;

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of a sample (0 for an
/// empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Runs `f` once and returns its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median wall seconds of `f` over repeated calls: at least `min_reps`
/// calls, then more until `budget_s` of wall time is spent or
/// `max_reps` is reached. `prepare` builds each call's input outside
/// the timed region; inputs and results pass through `black_box` so the
/// measured call cannot be optimised away.
pub fn median_time<I, R>(
    min_reps: usize,
    max_reps: usize,
    budget_s: f64,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> R,
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < max_reps && start.elapsed().as_secs_f64() < budget_s)
    {
        let input = black_box(prepare());
        let (out, secs) = timed(|| black_box(f(input)));
        drop(out);
        samples.push(secs);
    }
    median(&samples)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Ratio of the median of the last quarter of `series` to the median of
/// its first quarter, pooled over several equally long series (the
/// positions line up across repetitions). Above 1 means later slices
/// cost more wall time than early ones.
pub fn drift(series: &[Vec<f64>]) -> f64 {
    let len = series.iter().map(Vec::len).min().unwrap_or(0);
    let quarter = (len / 4).max(1);
    if len < 2 {
        return 1.0;
    }
    let pool = |range: std::ops::Range<usize>| -> Vec<f64> {
        series
            .iter()
            .flat_map(|s| s[range.clone()].to_vec())
            .collect()
    };
    median(&pool(len - quarter..len)) / median(&pool(0..quarter))
}

/// Named metrics with units, rendered as the benchmark's JSON object.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Replaces the value of a metric added earlier.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(entry) = self.0.iter_mut().find(|(n, _, _)| *n == name) {
            entry.1 = value;
        }
    }

    /// Names and values, in the order added.
    pub fn values(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(name, value, _)| (*name, *value))
    }

    /// The value of a metric added earlier.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives. Non-finite values, which JSON cannot carry, become 0; the run
/// counts them as failed checks.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn drift_compares_last_to_first_quarter() {
        let s = vec![vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]];
        assert_eq!(drift(&s), 4.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("a.b", 1.5, "ms");
        m.put("c", 2.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2.0, \"unit\": \"count\"}}"
        );
        assert_eq!(m.get("c"), Some(2.0));
    }
}
