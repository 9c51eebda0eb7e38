//! The log-linear histogram: exact count/sum, bounded relative error on
//! quantiles.
//!
//! Values `0..16` get one bucket each (exact). Above that, every power-of-two
//! octave is split into 16 linear sub-buckets, so a bucket's width is at most
//! 1/16 of its lower bound — quantile estimates carry ≤ 6.25% relative error
//! while the whole `u64` range fits in a few hundred buckets. `count`, `sum`,
//! `min`, and `max` are tracked exactly, and [`Histogram::merge`] is a plain
//! element-wise add, so merging is associative and commutative and the merged
//! count/sum equal the element-wise totals bit for bit.

/// Sub-bucket resolution: each octave is split into `1 << SUB_BITS` linear
/// sub-buckets.
const SUB_BITS: u32 = 4;
/// Number of linear sub-buckets per octave (and the exact-bucket cutoff).
const SUB: u64 = 1 << SUB_BITS;

/// Maps a value to its bucket index.
fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let octave = msb - SUB_BITS;
    let sub = (value >> octave) & (SUB - 1);
    (SUB as u32 + octave * SUB as u32 + sub as u32) as usize
}

/// The inclusive upper bound of a bucket index (saturating at `u64::MAX`).
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let octave = ((index - SUB) / SUB) as u32;
    let sub = (index - SUB) % SUB;
    let lo = (SUB << octave) + (sub << octave);
    lo.saturating_add((1u64 << octave) - 1)
}

/// A log-linear histogram over `u64` values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts, grown lazily to the highest bucket observed.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations (one bucket touch).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations (saturating at `u64::MAX`, reachable
    /// only by recording values near the top of the `u64` range).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound of the bucket
    /// holding the rank-`ceil(q·count)` observation, clamped to the exact
    /// observed `max`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Adds `other`'s observations into `self`. Element-wise over buckets,
    /// so merge order never changes the result.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The observations `self` gained since `earlier` was captured, as a
    /// new histogram: the inverse of [`Histogram::merge`] for the exact
    /// fields. `earlier` must be a previous snapshot of the same
    /// histogram (every bucket of `earlier` ≤ the matching bucket here);
    /// `count`, `sum`, and the per-bucket counts of the delta are then
    /// exact — `earlier.merge(&delta)` reproduces `self` bucket for
    /// bucket. `min`/`max` cannot be recovered from cumulative state, so
    /// the delta approximates them from its bucket bounds: `min` is the
    /// lower bound of its first occupied bucket, `max` the upper bound of
    /// its last occupied bucket clamped to the exact cumulative `max`.
    /// Quantiles (which only read buckets and the `max` clamp) stay
    /// upper-bound estimates with the usual ≤ 6.25% relative error.
    ///
    /// Windowed telemetry is the intended caller: subtracting the
    /// previous window's snapshot yields the distribution of just that
    /// window's observations, in O(buckets) with no allocation beyond the
    /// delta itself.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut buckets = self.buckets.clone();
        for (b, o) in buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(*o);
        }
        let count = self.count.saturating_sub(earlier.count);
        let sum = self.sum.saturating_sub(earlier.sum);
        let first = buckets.iter().position(|&n| n > 0);
        let last = buckets.iter().rposition(|&n| n > 0);
        let (min, max) = match (count, first, last) {
            (0, ..) | (_, None, _) | (_, _, None) => (0, 0),
            (_, Some(first), Some(last)) => {
                let lo = if first == 0 {
                    0
                } else {
                    bucket_upper(first - 1) + 1
                };
                (lo, bucket_upper(last).min(self.max))
            }
        };
        Histogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, in ascending
    /// bound order (rendering; the Prometheus exposition cumulates these).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_upper(idx), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for q in [0.0, 0.5, 1.0] {
            let got = h.quantile(q);
            assert!(got < 16, "q={q} -> {got}");
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.sum(), (0..16).sum::<u64>());
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every value lands in a bucket whose bounds contain it, and bucket
        // indices are monotone in the value.
        let mut prev_idx = 0;
        for &v in &[
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1000,
            4096,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "index not monotone at {v}");
            prev_idx = idx;
            let hi = bucket_upper(idx);
            assert!(v <= hi, "value {v} above bucket upper {hi}");
            if idx > 0 {
                let prev_hi = bucket_upper(idx - 1);
                assert!(v > prev_hi, "value {v} not above previous bucket {prev_hi}");
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let got = h.quantile(q);
            let err = got.abs_diff(exact) as f64 / exact as f64;
            assert!(err <= 0.0625, "q={q}: got {got}, exact {exact}, err {err}");
            assert!(got >= exact, "upper-bound estimate must not undershoot");
        }
        assert_eq!(h.quantile(1.0), 10_000, "max is exact");
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn merge_equals_interleaved_recording() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..1000u64 {
            let v = i.wrapping_mul(2654435761) % 100_000;
            all.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn zero_is_an_exact_bucket() {
        // 0 lands in the first exact bucket — its own bucket, not shared
        // with 1 — and every quantile of an all-zero distribution is 0.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_upper(0), 0);
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (2, 0, 0, 0));
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), vec![(0, 2)]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        // Mixed with a nonzero value, 0 still holds p50 of {0, 0, 7}.
        h.record(7);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn u64_max_lands_in_the_top_bucket_without_overflow() {
        // The top octave's arithmetic must not overflow: u64::MAX maps to
        // the last sub-bucket of octave 59, whose upper bound saturates at
        // u64::MAX exactly.
        let idx = bucket_index(u64::MAX);
        assert_eq!(bucket_upper(idx), u64::MAX);
        let lo = bucket_upper(idx - 1) + 1;
        assert!(lo > u64::MAX / 2, "top bucket lo = {lo}");

        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!((h.count(), h.min(), h.max()), (1, u64::MAX, u64::MAX));
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), vec![(u64::MAX, 1)]);
        // Quantiles clamp to the exact max, so even the bucket's huge
        // width cannot push the estimate past the observation.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), u64::MAX, "q={q}");
        }
    }

    #[test]
    fn extremes_merge_and_quantile_together() {
        // Both edge values in one histogram: {0, u64::MAX}. p50 must come
        // from the 0 bucket, p100 from the exact max.
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!((h.min(), h.max()), (0, u64::MAX));
        assert_eq!(h.sum(), u64::MAX, "0 contributes nothing to the sum");
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Merging preserves the extremes element-wise.
        let mut other = Histogram::new();
        other.record(42);
        other.merge(&h);
        assert_eq!((other.min(), other.max()), (0, u64::MAX));
        assert_eq!(other.count(), 3);
    }

    /// One draw from the windowed-telemetry value mix, with both edges
    /// forced in one time in twenty each: 0 and a high octave (below sum
    /// saturation, which makes a cumulative sum unrecoverable by design).
    fn window_value(rng: &mut asc_testkit::Rng) -> u64 {
        match rng.range_u32(0, 20) {
            0 => 0,
            1 => 1 << 52,
            _ => rng.range_u64(0, 1 << 40),
        }
    }

    #[test]
    fn diff_recovers_the_window_exactly() {
        // earlier + window = later  ⇒  later.diff(earlier) == window on
        // every exact field (count, sum, buckets), for seeded random
        // splits of one stream into consecutive windows.
        asc_testkit::check(0xD1FF_5EED, 16, |rng| {
            let mut later = Histogram::new();
            for _ in 0..rng.range_usize(0, 200) {
                later.record(window_value(rng));
            }
            for _ in 0..4 {
                let earlier = later.clone();
                let mut window = Histogram::new();
                for _ in 0..rng.range_usize(0, 120) {
                    let v = window_value(rng);
                    window.record(v);
                    later.record(v);
                }
                let delta = later.diff(&earlier);
                assert_eq!(delta.count(), window.count());
                assert_eq!(delta.sum(), window.sum());
                assert_eq!(
                    delta.nonzero_buckets().collect::<Vec<_>>(),
                    window.nonzero_buckets().collect::<Vec<_>>()
                );
                // min/max are bucket-bound approximations: they bracket
                // the exact window extremes within one bucket's width.
                assert!(delta.min() <= window.min());
                assert!(delta.max() >= window.max());
                assert!(delta.max() <= later.max());
                // Round trip: merging the delta back onto `earlier`
                // reproduces `later` bucket for bucket.
                let mut rebuilt = earlier.clone();
                rebuilt.merge(&delta);
                assert_eq!(rebuilt.count(), later.count());
                assert_eq!(rebuilt.sum(), later.sum());
                assert_eq!(
                    rebuilt.nonzero_buckets().collect::<Vec<_>>(),
                    later.nonzero_buckets().collect::<Vec<_>>()
                );
            }
        });
    }

    #[test]
    fn diff_of_identical_snapshots_is_empty() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 99, 1 << 30, u64::MAX] {
            h.record(v);
        }
        let delta = h.diff(&h.clone());
        assert_eq!(
            (delta.count(), delta.sum(), delta.min(), delta.max()),
            (0, 0, 0, 0)
        );
        assert_eq!(delta.quantile(0.5), 0);
        assert_eq!(delta.nonzero_buckets().count(), 0);
    }
}
