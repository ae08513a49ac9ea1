//! Order statistics and the result line.

/// Nearest-rank percentile of `xs` (sorted in place); `None` when empty.
pub fn percentile(xs: &mut [f64], p: usize) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (xs.len() * p).div_ceil(100).max(1);
    Some(xs[rank - 1])
}

/// Median of `xs` (sorted in place); `None` when empty.
pub fn median(xs: &mut [f64]) -> Option<f64> {
    percentile(xs, 50)
}

/// Samples beyond the `p`th percentile of `n` samples.
pub fn beyond(n: usize, p: usize) -> usize {
    n - (n * p).div_ceil(100).max(1).min(n)
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (sessions, calls, or set-ups).
    pub samples: usize,
}

/// The benchmark's verdict for one run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Correct when every operation passed its check and every metric was
    /// measured (a metric with no samples is never printed as a number).
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// A readable table, then the JSON result as the last line.
    pub fn print(&self) {
        println!(
            "{:<28} {:>16} {:<8} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "{:<28} {:>16.6} {:<8} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let correct = self.correct();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 50), Some(50.0));
        assert_eq!(percentile(&mut xs, 99), Some(99.0));
        assert_eq!(beyond(100, 99), 1);
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("p50_ms", 1.0 / 3.0, "ms", 3);
        assert!(r.json().contains("0.3333333333333333"));
        assert!(r.json().starts_with("{\"correct\": true"));
    }
}
