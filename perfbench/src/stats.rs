//! Order statistics over latency samples.

/// The percentiles a tail is chosen from, highest first. p99.9 is left
/// out: over the ~20 000 requests of an `adhoc_plan` run it is set by the
/// handful of queries whose planning or join explodes, and it varied
/// fourfold from seed to seed where p99 holds steady.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Fewest samples that must lie beyond a percentile for it to be reported
/// as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The value at percentile `p` (0–100) of ascending `sorted` by the
/// nearest-rank rule, with the number of samples strictly beyond its rank.
pub fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "a percentile needs at least one sample");
    let n = sorted.len();
    // The epsilon keeps float noise (99.9% of 10 000 is 9990.000000000002)
    // from pushing a rank up by one.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// The median of `values` (any order; the mean of the middle two for an
/// even count). Zero for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean; zero for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail percentile and the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen from [`TAIL_LADDER`].
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; with too few samples for any,
/// the median.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "a tail needs at least one sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pick = |p: f64| {
        let (value, beyond) = nearest_rank(&sorted, p);
        Tail {
            percentile: p,
            value,
            beyond,
            samples: sorted.len(),
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&p| pick(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| pick(50.0))
}

/// `num / den`, or zero when `den` is zero. Never negative zero (an
/// empty float sum is `-0.0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den + 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        let t = tail(&ramp(1000));
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: p99's rank is 990, leaving 9 — too few; p90 leaves 99.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.beyond), (90.0, 99));
        // 20 000 samples stay at p99, the top of the ladder.
        let t = tail(&ramp(20_000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 19_800.0, 200));
    }

    #[test]
    fn tail_ignores_sample_order_and_falls_back_to_the_median() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        let t = tail(&shuffled);
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 180.0, 20));
        // Five samples: nothing has ten beyond, so the median is reported.
        let t = tail(&ramp(5));
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (50.0, 3.0, 2, 5)
        );
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
