//! Integer-only metrics: named counters and fixed-boundary log2 histograms.
//!
//! Every aggregate is a `u64`; there is no floating point anywhere in the
//! registry, so two same-seed runs produce `==`-equal registries and the
//! rendered text table is byte-identical.

use std::collections::BTreeMap;

use crate::table::{Align, TextTable};

/// Number of buckets in a [`Log2Histogram`]: one for zero plus one per
/// possible position of a `u64` value's highest set bit.
pub(crate) const LOG2_BUCKETS: usize = 65;

/// A histogram with fixed power-of-two bucket boundaries.
///
/// Bucket 0 counts exact zeros; bucket `i >= 1` counts values `v` with
/// `2^(i-1) <= v < 2^i`. The boundaries are a property of the type, not the
/// data, so histograms from different runs (or different hosts) are directly
/// comparable and merging is bucket-wise addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// The bucket index `value` falls into.
    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Record one sample.
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub(crate) fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub(crate) fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean (`sum / count`), or 0 when empty.
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// An upper bound below which at least half the samples fall: the
    /// exclusive upper boundary of the bucket containing the median sample.
    /// Integer-exact and deterministic, unlike an interpolated percentile.
    fn p50_bound(&self) -> u64 {
        let target = self.count.div_ceil(2);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= target {
                return if i >= 64 { u64::MAX } else { 1u64 << i };
            }
        }
        0
    }
}

/// A registry of named counters and log2 histograms.
///
/// Names are `&'static str` and storage is `BTreeMap`, so iteration order —
/// and therefore every export — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Log2Histogram>,
}

impl Metrics {
    /// Increment the named counter by `delta`, creating it at zero first.
    pub(crate) fn add(&mut self, counter: &'static str, delta: u64) {
        *self.counters.entry(counter).or_insert(0) += delta;
    }

    /// Record `value` into the named histogram, creating it empty first.
    pub(crate) fn observe(&mut self, histogram: &'static str, value: u64) {
        self.histograms.entry(histogram).or_default().record(value);
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterate histograms in name order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&'static str, &Log2Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Render the whole registry as a deterministic text report: one table
    /// of counters, one of histogram summaries (all integers).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let mut t = TextTable::new(&[("counter", Align::Left), ("value", Align::Right)]);
            for (name, value) in self.counters() {
                t.row([name.to_string(), value.to_string()]);
            }
            out.push_str(&t.render());
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let mut t = TextTable::new(&[
                ("histogram", Align::Left),
                ("count", Align::Right),
                ("min", Align::Right),
                ("mean", Align::Right),
                ("p50<", Align::Right),
                ("max", Align::Right),
                ("sum", Align::Right),
            ]);
            for (name, h) in self.histograms() {
                t.row([
                    name.to_string(),
                    h.count().to_string(),
                    h.min().to_string(),
                    h.mean().to_string(),
                    h.p50_bound().to_string(),
                    h.max().to_string(),
                    h.sum().to_string(),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Metrics {
        /// The current value of a counter (0 if never incremented).
        pub(crate) fn counter(&self, name: &str) -> u64 {
            self.counters.get(name).copied().unwrap_or(0)
        }
    }

    impl Log2Histogram {
        /// The raw bucket counts.
        fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
            &self.buckets
        }
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(1023), 10);
        assert_eq!(Log2Histogram::bucket_index(1024), 11);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_aggregates() {
        let mut h = Log2Histogram::default();
        assert_eq!((h.count(), h.min(), h.max(), h.mean()), (0, 0, 0, 0));
        for v in [0u64, 1, 5, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 111);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 22);
        assert_eq!(h.buckets()[0], 1); // the zero
        assert_eq!(h.buckets()[3], 2); // the fives: [4, 8)

        // Median sample (third of five) is a 5 → bucket [4, 8) → bound 8.
        assert_eq!(h.p50_bound(), 8);
    }

    #[test]
    fn registry_is_deterministic_and_renders() {
        let mut m = Metrics::default();
        m.add("z.migrations", 2);
        m.add("a.backups", 1);
        m.add("z.migrations", 1);
        m.observe("downtime_ns", 1500);
        m.observe("downtime_ns", 3000);
        assert_eq!(m.counter("z.migrations"), 3);
        assert_eq!(m.counter("missing"), 0);
        let names: Vec<_> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.backups", "z.migrations"]);

        let text = m.render_text();
        assert!(text.contains("a.backups"));
        assert!(text.contains("downtime_ns"));
        // Render twice: byte-identical.
        assert_eq!(text, m.render_text());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn every_sample_lands_in_its_boundary_bucket(vs in proptest::collection::vec(proptest::num::u64::ANY, 1..200)) {
                let mut h = Log2Histogram::default();
                for &v in &vs {
                    h.record(v);
                }
                prop_assert_eq!(h.count(), vs.len() as u64);
                prop_assert_eq!(h.buckets().iter().sum::<u64>(), vs.len() as u64);
                for &v in &vs {
                    let i = Log2Histogram::bucket_index(v);
                    if i == 0 {
                        prop_assert_eq!(v, 0);
                    } else {
                        prop_assert!(v >= (1u64 << (i - 1)));
                        if i < 64 {
                            prop_assert!(v < (1u64 << i));
                        }
                    }
                }
                prop_assert_eq!(h.min(), *vs.iter().min().unwrap());
                prop_assert_eq!(h.max(), *vs.iter().max().unwrap());
            }
        }
    }
}
