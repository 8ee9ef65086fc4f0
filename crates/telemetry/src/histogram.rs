//! Atomic log₂-bucketed latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets: one per possible `floor(log2(ns))` of a `u64`.
pub(crate) const BUCKETS: usize = 64;

/// A concurrent latency histogram over nanosecond durations.
///
/// Bucket `i` counts observations with `floor(log2(ns)) == i` (bucket 0
/// also takes 0 ns), so the bucket upper edge is `2^(i+1) - 1` ns. Every
/// update is a pair of relaxed atomic adds; reads ([`Histogram::snapshot`])
/// are relaxed per-field, exact once writers are quiet.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one duration in nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        let b = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one [`Duration`] (saturating at `u64::MAX` ns ≈ 584 years).
    pub fn observe(&self, d: Duration) {
        self.observe_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the whole histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with the raw (per-bucket) and
/// cumulative views the exposition format needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Raw per-bucket counts: `buckets[i]` counts `floor(log2(ns)) == i`.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Exact nanosecond sum of all observations.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// The cumulative `(le_seconds, count)` series of the OpenMetrics
    /// `_bucket` samples, trimmed to the occupied bucket range (the
    /// implicit `+Inf` bucket — equal to [`HistogramSnapshot::count`] —
    /// is *not* included). Counts are monotone non-decreasing and the last
    /// entry (when any) equals `count`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let Some(hi) = self.buckets.iter().rposition(|&b| b != 0) else {
            return Vec::new();
        };
        let lo = self.buckets.iter().position(|&b| b != 0).unwrap_or(0);
        let mut acc = 0u64;
        (lo..=hi)
            .map(|i| {
                acc += self.buckets[i];
                // Upper edge of bucket i is 2^(i+1)-1 ns; any sample in it
                // is <= that, so le = 2^(i+1) ns (in seconds) is a valid
                // inclusive bound and prints as a short round float.
                ((1u128 << (i + 1)) as f64 / 1e9, acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cumulate_to_count() {
        let h = Histogram::default();
        for ns in [0, 1, 2, 3, 900, 1_000_000, u64::MAX] {
            h.observe_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        let cum = s.cumulative();
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        assert_eq!(cum.last().unwrap().1, s.count);
    }

    #[test]
    fn empty_histogram_has_no_buckets() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert!(s.cumulative().is_empty());
    }
}
