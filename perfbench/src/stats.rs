//! Order statistics and timing helpers.
//!
//! Every figure the benchmark reports is a median (or a stated percentile)
//! of individually timed samples, never a mean: one descheduled iteration
//! on a two-core sandbox must not move the number.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0.0..=1.0`) of `samples`, linearly interpolated
/// between the two nearest order statistics. Panics on an empty slice or a
/// NaN sample — both are harness bugs, not measurement outcomes.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The smallest sample.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The largest sample.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Time one call, in seconds.
pub fn time_s<O>(f: impl FnOnce() -> O) -> (f64, O) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_secs_f64(), out)
}

/// Median seconds per call of `f` over at least `min_samples` calls, more
/// while `budget` lasts. For calls long enough (≳ 10 µs) that the two clock
/// reads around each are noise.
pub fn median_call_s(min_samples: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_samples || started.elapsed() < budget {
        samples.push(time_s(&mut f).0);
    }
    median(&samples)
}

/// Median nanoseconds per call of a *short* routine: calls are timed in
/// batches sized to about two milliseconds, seven batches, median batch.
pub fn batched_call_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    const BATCH: Duration = Duration::from_millis(2);
    const BATCHES: usize = 7;
    let calibrate = Instant::now();
    let mut calls = 0u64;
    while calibrate.elapsed() < BATCH / 4 || calls == 0 {
        std::hint::black_box(f());
        calls += 1;
    }
    let per_call = (calibrate.elapsed().as_nanos() / u128::from(calls)).max(1);
    let batch = (BATCH.as_nanos() / per_call).clamp(1, 1_000_000) as u64;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// 64-bit FNV-1a, the digest the benchmark prints over the `Debug` form of
/// every simulated report.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold the `Debug` rendering of `value` into the digest.
    pub fn update_debug(&mut self, value: &impl std::fmt::Debug) {
        self.update(format!("{value:?}").as_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_of_a_known_sample() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(min(&s), 1.0);
        assert_eq!(max(&s), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&s, 0.25), 2.0);
        // Even count: the median interpolates between the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile(&[10.0, 20.0], 0.75), 17.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
