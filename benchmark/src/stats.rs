//! Exact-sample latency recording and the slice/median reducer.
//!
//! `remus_common::LatencyStat` buckets by powers of two of a microsecond
//! (`p50=8us`), so it cannot resolve a 10 % change; the benchmark keeps
//! every sample as raw nanoseconds instead and sorts once at the end.

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice.
/// Zero for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for an even count).
/// Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of a `u64` sample set, as `f64`. Sorts in place.
pub fn median_u64(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    percentile(samples, 50.0) as f64
}

/// `(max - min) / median` of `values`, in percent: how far the slices of
/// one run disagree.
pub fn spread_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    100.0 * (max - min) / m
}

/// One connection's samples for a measured window cut into equal slices.
/// A sample lands in the slice in which its operation completed.
#[derive(Debug)]
pub struct SliceRecorder {
    slices: Vec<Vec<u64>>,
}

impl SliceRecorder {
    /// `slices` empty slices, each with room for `capacity` samples so the
    /// measured loop does not reallocate.
    pub fn new(slices: usize, capacity: usize) -> Self {
        SliceRecorder {
            slices: (0..slices).map(|_| Vec::with_capacity(capacity)).collect(),
        }
    }

    /// Number of slices.
    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    /// Records one sample into `slice`.
    #[inline]
    pub fn record(&mut self, slice: usize, value: u64) {
        self.slices[slice].push(value);
    }

    /// Merges several connections' recorders slice by slice and sorts each
    /// merged slice ascending.
    pub fn merge_sorted(recorders: &[&SliceRecorder]) -> Vec<Vec<u64>> {
        let n = recorders.first().map_or(0, |r| r.slices());
        (0..n)
            .map(|i| {
                let mut all: Vec<u64> = recorders
                    .iter()
                    .flat_map(|r| r.slices[i].iter().copied())
                    .collect();
                all.sort_unstable();
                all
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 99.9), 100);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn percentile_keeps_exact_nanoseconds() {
        // The reason LatencyStat is not reused: 4_217 ns and 4_650 ns fall
        // in the same power-of-two bucket but differ by 10 %.
        let a = vec![4_217u64; 1000];
        let b = vec![4_650u64; 1000];
        assert_eq!(percentile(&a, 50.0), 4_217);
        assert_eq!(percentile(&b, 50.0), 4_650);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let mut s = vec![9, 1, 5];
        assert_eq!(median_u64(&mut s), 5.0);
    }

    #[test]
    fn median_of_slices_ignores_one_stolen_slice() {
        // Five healthy slices and one in which the hypervisor took the
        // core: the median does not move, the spread shows it.
        let tps = [
            200_000.0, 201_000.0, 199_000.0, 90_000.0, 200_500.0, 199_500.0,
        ];
        let m = median(&tps);
        assert!((m - 199_750.0).abs() < 1.0);
        assert!(spread_pct(&tps) > 50.0);
    }

    #[test]
    fn recorder_merges_by_slice() {
        let mut a = SliceRecorder::new(2, 4);
        let mut b = SliceRecorder::new(2, 4);
        a.record(0, 30);
        a.record(1, 5);
        b.record(0, 10);
        b.record(0, 20);
        let merged = SliceRecorder::merge_sorted(&[&a, &b]);
        assert_eq!(merged, vec![vec![10, 20, 30], vec![5]]);
    }
}
