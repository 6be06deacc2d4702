//! A log-linear (HDR-style) histogram with a lock-free `record`.
//!
//! Each power-of-two octave is split into 32 equal sub-buckets, so a
//! bucket is at most 1/32 of its lower bound wide and a value reported at
//! the bucket's midpoint is within 1.6 % of any value recorded into it.
//! Values below 32 get one bucket each (exact). This is the
//! outside-the-program answer to the 16-bucket `LATENCY_BUCKETS_US`
//! ladder, whose "p99" is a bucket bound.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Octaves 5..=63 above the exact range, plus the exact range itself.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Candidate percentiles for [`Histogram::tail`], ascending.
const TAILS: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Concurrent histogram of `u64` samples (nanoseconds, by convention).
pub struct Histogram {
    counts: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // position of the leading one, >= SUB_BITS
    let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
    SUB + (e - SUB_BITS) as usize * SUB + sub
}

/// Inclusive lower bound and width of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let octave = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    let width = 1u64 << octave;
    (((SUB as u64) + sub) << octave, width)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one sample. Wait-free: one relaxed `fetch_add` (the counts
    /// are statistics and publish no other data).
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The value at quantile `q` in `[0, 1]` (bucket midpoint), or `None`
    /// when empty. Uses the nearest-rank definition, like indexing a
    /// sorted vector at `ceil(q * n) - 1`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                let (lo, width) = bucket_range(i);
                return Some(lo as f64 + (width - 1) as f64 / 2.0);
            }
        }
        None
    }

    /// The highest percentile among 50 / 90 / 99 / 99.9 / 99.99 that still
    /// has at least ten samples beyond it, with its value: `(q, value)`.
    /// `None` with fewer than twenty samples (not even a median with ten
    /// beyond it).
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.count() as f64;
        TAILS
            .iter()
            .rev()
            .find(|&&q| n * (1.0 - q) >= 10.0)
            .and_then(|&q| Some((q, self.quantile(q)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix;

    fn sorted_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_u64_range_without_gaps() {
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_range(i);
            assert_eq!(lo, expect_lo, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + (width - 1)), i);
            expect_lo = lo.wrapping_add(width);
        }
        assert_eq!(expect_lo, 0, "last bucket ends at u64::MAX");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_a_sorted_vector_within_three_percent() {
        let mut rng = SplitMix::new(7);
        // Log-uniform over 100 ns .. 100 ms: every octave is populated.
        let mut samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let exp = 2.0 + 6.0 * rng.unit();
                10f64.powf(exp) as u64
            })
            .collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        assert_eq!(h.count(), samples.len() as u64);
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = sorted_quantile(&samples, q);
            let got = h.quantile(q).unwrap();
            let err = (got - exact).abs() / exact;
            assert!(err <= 0.03, "q={q}: {got} vs {exact} ({err:.4})");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(0.5), Some(15.0));
        assert_eq!(h.quantile(1.0), Some(31.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let h = Histogram::new();
        assert_eq!(h.tail(), None);
        for v in 0..19 {
            h.record(1000 + v);
        }
        assert_eq!(h.tail(), None, "19 samples: no median with ten beyond");
        h.record(2000);
        assert_eq!(h.tail().map(|t| t.0), Some(0.5));
        for v in 0..980 {
            h.record(1000 + v);
        }
        assert_eq!(h.tail().map(|t| t.0), Some(0.99), "1000 samples");
        for v in 0..9_000 {
            h.record(1000 + v);
        }
        assert_eq!(h.tail().map(|t| t.0), Some(0.999), "10000 samples");
    }

    #[test]
    fn record_is_safe_from_many_threads() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
