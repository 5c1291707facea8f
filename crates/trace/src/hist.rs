//! Fixed-bucket latency histograms (HDR style) and their artifact-facing
//! summaries. Home of the types previously defined in `esync-sim`'s
//! metrics module — hoisted here so the phase-decomposition instruments
//! can use them without a dependency cycle (`esync-sim` re-exports them,
//! so every pre-existing path still works).

use esync_core::time::RealDuration;
use serde::Serialize;

/// Linear sub-buckets per power-of-two magnitude: 2⁵ = 32, bounding the
/// relative quantization error at ~3%.
const HIST_SUB_BITS: u32 = 5;
const HIST_SUB: u64 = 1 << HIST_SUB_BITS;
/// Bucket count covering the full `u64` range: magnitudes `5..=63` each
/// contribute 32 buckets, plus the exact `0..32` range.
const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize) * HIST_SUB as usize + HIST_SUB as usize;

/// A fixed-bucket latency histogram in the HDR style: 32 linear
/// sub-buckets per power-of-two magnitude, so any `u64` nanosecond value
/// lands in one of `HIST_BUCKETS` buckets with ≤ ~3% relative error.
///
/// The record path is integer-only (a leading-zeros count and two shifts —
/// no float ops, no allocation), so it can sit on the simulator's and the
/// runtime's per-commit hot paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Box<[u64; HIST_BUCKETS]>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// The bucket index of `v`: exact below [`HIST_SUB`], then
/// `(magnitude, top-5-mantissa-bits)`.
#[inline]
fn hist_index(v: u64) -> usize {
    if v < HIST_SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let offset = ((msb - HIST_SUB_BITS + 1) as usize) << HIST_SUB_BITS;
        let sub = ((v >> (msb - HIST_SUB_BITS)) & (HIST_SUB - 1)) as usize;
        offset + sub
    }
}

/// The smallest value mapping to bucket `idx` (inverse of [`hist_index`]).
fn hist_lower_bound(idx: usize) -> u64 {
    if idx < HIST_SUB as usize {
        idx as u64
    } else {
        let octave = (idx >> HIST_SUB_BITS) - 1;
        let sub = (idx as u64) & (HIST_SUB - 1);
        (HIST_SUB + sub) << octave
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; HIST_BUCKETS]),
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one observation, in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[hist_index(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records a [`RealDuration`] observation.
    #[inline]
    pub fn record_duration(&mut self, d: RealDuration) {
        self.record(d.as_nanos());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact smallest observation (`None` if empty).
    pub fn min_ns(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min_ns)
    }

    /// The exact largest observation (`None` if empty).
    pub fn max_ns(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max_ns)
    }

    /// The exact mean, in nanoseconds (`None` if empty).
    pub fn mean_ns(&self) -> Option<u64> {
        (self.total > 0).then(|| (self.sum_ns / u128::from(self.total)) as u64)
    }

    /// The `q`-quantile (nearest-rank over buckets), reported as the lower
    /// bound of the containing bucket — within ~3% of the exact value.
    /// `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < q ≤ 1.0`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q <= 1.0, "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(hist_lower_bound(idx).clamp(self.min_ns, self.max_ns));
            }
        }
        unreachable!("cumulative counts reach total")
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The non-empty buckets as `(lower_bound_ns, count)`, ascending — the
    /// compact dump embedded in benchmark artifacts.
    pub fn nonempty_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (hist_lower_bound(i), c))
            .collect()
    }

    /// The serializable summary (quantiles plus the bucket dump).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.total,
            min_ns: self.min_ns().unwrap_or(0),
            mean_ns: self.mean_ns().unwrap_or(0),
            p50_ns: self.quantile(0.50).unwrap_or(0),
            p99_ns: self.quantile(0.99).unwrap_or(0),
            p999_ns: self.quantile(0.999).unwrap_or(0),
            max_ns: self.max_ns().unwrap_or(0),
            buckets: self.nonempty_buckets(),
        }
    }
}

/// The artifact-facing summary of a [`LatencyHistogram`]. Every field is a
/// deterministic function of the recorded values (integer nanoseconds, no
/// wall-clock contamination), so workload artifacts diff cleanly across
/// reruns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Exact minimum (ns); 0 if empty.
    pub min_ns: u64,
    /// Exact mean (ns); 0 if empty.
    pub mean_ns: u64,
    /// 50th percentile (bucket lower bound, ns).
    pub p50_ns: u64,
    /// 99th percentile (bucket lower bound, ns).
    pub p99_ns: u64,
    /// 99.9th percentile (bucket lower bound, ns).
    pub p999_ns: u64,
    /// Exact maximum (ns); 0 if empty.
    pub max_ns: u64,
    /// Non-empty `(lower_bound_ns, count)` buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_lower_bound_are_inverse_enough() {
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 123_456_789, u64::MAX] {
            let idx = hist_index(v);
            let lb = hist_lower_bound(idx);
            assert!(lb <= v, "lower bound {lb} exceeds {v}");
            // Relative error bounded by one sub-bucket (~3%).
            if v >= HIST_SUB {
                assert!(v - lb <= v / HIST_SUB, "bucket too wide at {v}");
            } else {
                assert_eq!(lb, v, "exact region must be exact");
            }
        }
    }

    #[test]
    fn hist_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = (0..64u32)
            .flat_map(|shift| {
                [0u64, 1, 3]
                    .map(|near| (1u64 << shift).saturating_add(near << shift.saturating_sub(4)))
            })
            .chain([0, 1, 31, 32, 33, u64::MAX])
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = hist_index(v);
            assert!(idx < HIST_BUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "v={v}: index went backwards");
            last = idx;
            // The inverse maps back to a bucket containing v.
            let lo = hist_lower_bound(idx);
            assert!(lo <= v, "lower bound {lo} > v={v}");
            assert!(idx + 1 == HIST_BUCKETS || hist_lower_bound(idx + 1) > v);
        }
        assert_eq!(hist_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let h = LatencyHistogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.max_ns, 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for v in [5u64, 40, 41, 1000, 1_000_000] {
            a.record(v);
            c.record(v);
        }
        for v in [7u64, 40, 2_000_000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }
}
