//! Statistics and the result printer.
//!
//! A run ends with human-readable `#` lines and, last, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.

use std::fmt::Write as _;

/// Median of a sample (mean of the middle pair for even sizes); `None`
/// when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Most windows [`calm_median`] cuts the timed phase into.
pub const WINDOWS: usize = 20;
/// Samples a [`calm_median`] window holds on average: a class with few
/// samples gets fewer, longer windows.
pub const WINDOW_SAMPLES: usize = 12;
/// Samples a window needs before its median counts.
pub const WINDOW_MIN_SAMPLES: usize = 3;
/// Windows [`best_rate`] cuts the timed phase into.
pub const RATE_WINDOWS: usize = 6;

/// The median of the calmest window. Samples are `(seconds since the
/// timed phase began, value)`; the `span` seconds of the phase are cut
/// into `len / WINDOW_SAMPLES` equal windows (1 to [`WINDOWS`]). Among
/// windows with at least [`WINDOW_MIN_SAMPLES`] samples, the lowest
/// median wins. The host's speed drifts by a fifth over tens of seconds
/// and the drift only ever slows work down, so the calmest window is the
/// repeatable one. Falls back to the median of all samples.
pub fn calm_median(samples: &[(f64, f64)], span: f64) -> Option<f64> {
    let n = (samples.len() / WINDOW_SAMPLES).clamp(1, WINDOWS);
    let mut windows = vec![Vec::new(); n];
    for &(at, v) in samples {
        let w = ((at / span * n as f64).max(0.0) as usize).min(n - 1);
        windows[w].push(v);
    }
    windows
        .iter()
        .filter(|w| w.len() >= WINDOW_MIN_SAMPLES)
        .filter_map(|w| median(w))
        .min_by(f64::total_cmp)
        .or_else(|| median(&samples.iter().map(|s| s.1).collect::<Vec<_>>()))
}

/// Completions per second in the busiest of [`RATE_WINDOWS`] equal
/// windows of the `span`-second timed phase, from completion times in
/// seconds; completions after the span are left out.
pub fn best_rate(times: &[f64], span: f64) -> f64 {
    let len = span / RATE_WINDOWS as f64;
    let mut counts = [0u64; RATE_WINDOWS];
    for &t in times {
        let w = (t / len).max(0.0) as usize;
        if w < RATE_WINDOWS {
            counts[w] += 1;
        }
    }
    counts.iter().max().copied().unwrap_or(0) as f64 / len
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Percentile the value sits at, in percent.
    pub percentile: f64,
    /// Sample size.
    pub n: usize,
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with [`TAIL_BEYOND`] samples beyond it: the
/// `(n - 10)`-th smallest value, which sits at percentile `(n - 10) / n`.
/// `None` when the sample has no more than ten values.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based rank of the tail value
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (printed before the JSON line).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one failed operation, with the reason as a note.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.correct = false;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    /// The `#` lines and the final JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "# {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// The result object. Non-finite values cannot be written as JSON
    /// numbers, so they are rejected by [`Outcome::check_finite`] first.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Replace a non-finite metric by 0 and mark the run incorrect: a
    /// metric the run could not measure is a failed run.
    pub fn check_finite(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone())
            .collect();
        for name in bad {
            self.fail(format!("metric {name} could not be measured"));
        }
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn calm_median_takes_the_lowest_full_window() {
        // 36 samples over 3 s: three windows of a second. The middle one
        // is calm; the last has too few samples to count.
        let mut s: Vec<(f64, f64)> = (0..24)
            .map(|i| (0.04 * f64::from(i), 30.0 + f64::from(i)))
            .collect();
        s.extend((0..10).map(|i| (1.0 + 0.09 * f64::from(i), 10.0 + f64::from(i))));
        s.extend([(2.5, 1.0), (2.6, 2.0)]);
        assert_eq!(calm_median(&s, 3.0), Some(14.5));
        // Too few samples for more than one window: the overall median.
        assert_eq!(
            calm_median(&[(0.1, 4.0), (1.1, 2.0), (2.1, 3.0)], 3.0),
            Some(3.0)
        );
        assert_eq!(calm_median(&[], 1.0), None);
    }

    #[test]
    fn best_rate_counts_the_busiest_window_only() {
        // Six windows of one second; window 1 holds four completions.
        let times = [0.1, 0.2, 1.1, 1.2, 1.3, 1.4, 5.5, 9.0];
        assert_eq!(best_rate(&times, 6.0), 4.0);
        assert_eq!(best_rate(&times, 3.0), 8.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1..=100: the tail value must have exactly ten samples above it.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(v.iter().filter(|x| **x > t.value).count(), TAIL_BEYOND);
        // 1000 samples reach the 99th percentile.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("tail");
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let t = tail(&[5.0; 11]).expect("eleven samples have a tail");
        assert_eq!(t.value, 5.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn printer_writes_every_metric_with_name_and_unit_last() {
        let mut o = Outcome {
            correct: true,
            attempted: 12,
            ..Outcome::default()
        };
        o.metric("probe_p50_ms", 1.203_4, "ms");
        o.metric("ops_per_s", 815.0, "op/s");
        o.note("run: seed=1");
        let text = o.render();
        let last = text.lines().last().expect("output has lines");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"probe_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"ops_per_s\": {\"value\": 815, \"unit\": \"op/s\"}}}"
        );
        assert!(text.lines().next().is_some_and(|l| l == "# run: seed=1"));
        assert!(text.contains("probe_p50_ms"));
    }

    #[test]
    fn non_finite_metric_fails_the_run() {
        let mut o = Outcome {
            correct: true,
            attempted: 1,
            ..Outcome::default()
        };
        o.metric("x", f64::NAN, "ms");
        o.check_finite();
        assert!(!o.correct);
        assert_eq!(o.failed, 1);
        assert!(o.json().contains("\"x\": {\"value\": 0, "));
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
