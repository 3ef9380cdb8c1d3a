//! Order statistics for step timings.

/// Median of a sample set (mean of the two middle values for an even
/// count). Empty input gives 0.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Index of the nearest-rank `p`-th percentile in a sorted set of `n`.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1
}

/// Tail percentiles tried from the highest down.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when no tail percentile qualifies).
    pub percentile: f64,
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least 10 samples
/// beyond it; the [`median`] when the set is too small for any of them.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    for p in TAIL_LADDER {
        let i = rank(p, n);
        let beyond = n - 1 - i;
        if beyond >= 10 {
            return Tail {
                percentile: p,
                value: s[i],
                beyond,
                samples: n,
            };
        }
    }
    Tail {
        percentile: 50.0,
        value: median(&s),
        beyond: n / 2,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 60 samples: p90 leaves 6 beyond, p75 leaves 15.
        let t = tail(&ramp(60));
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 44.0, 15));
        // 100 samples: p90 leaves exactly 10.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 89.0, 10));
        // 99 samples: p90 would leave 9, so p75.
        assert_eq!(tail(&ramp(99)).percentile, 75.0);
        // 1000 samples: p99 leaves 10, p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 989.0, 10));
        // 2 × 10 000: p99.9 leaves 20.
        assert_eq!(tail(&ramp(20_000)).percentile, 99.9);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_small_sets() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 2.0, 3));
        assert_eq!(tail(&[1.0, 2.0]).value, 1.5);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
