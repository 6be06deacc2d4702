//! Window statistics: every reported value is the median of its windows,
//! with the extremes and the sample count beside it.

use crate::json::Value;

/// Median, extremes and count of one metric's window samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: Vec<f64>,
}

/// The median of `samples` (mean of the two middle ones for an even
/// count); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

impl Stat {
    /// Summarises `samples`.
    pub fn of(samples: &[f64]) -> Stat {
        Stat {
            median: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: samples.to_vec(),
        }
    }

    /// The least disturbed window: the smallest sample of a cost, the
    /// largest of a rate. On a shared machine interference only ever makes
    /// a window slower, and it comes in episodes of seconds; the best of
    /// many windows spread over the run is the estimate of what the code
    /// itself costs that repeats from run to run.
    pub fn best(&self, higher_is_better: bool) -> f64 {
        if higher_is_better {
            self.max
        } else {
            self.min
        }
    }

    /// A single measurement.
    pub fn one(value: f64) -> Stat {
        Stat::of(&[value])
    }

    /// The reported `value` with the window statistics behind it.
    pub fn to_json(&self, value: f64, unit: &str) -> Value {
        Value::obj([
            ("value", Value::Num(value)),
            ("unit", Value::str(unit)),
            ("median", Value::Num(self.median)),
            ("min", Value::Num(self.min)),
            ("max", Value::Num(self.max)),
            ("samples", Value::Int(self.samples.len() as u64)),
            (
                "windows",
                Value::Arr(self.samples.iter().map(|&v| Value::Num(v)).collect()),
            ),
        ])
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// which is what the benchmark's acceptance check uses.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let cut = |i: usize| -> f64 {
        // j = i * (n + 1) / 4, clamped to the interpolable range.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_extremes() {
        let s = Stat::of(&[5.0, 1.0, 3.0, 9.0, 7.0]);
        assert_eq!((s.median, s.min, s.max), (5.0, 1.0, 9.0));
        assert_eq!(s.samples.len(), 5);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert!(median(&[]).is_nan());
        assert_eq!(Stat::one(2.5).median, 2.5);
        assert_eq!((s.best(false), s.best(true)), (1.0, 9.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[3.0, 7.0]), Some((2.0, 5.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
