//! Order statistics for every latency `koko_bench` reports: medians,
//! quartiles, and the highest percentile the sample count supports.

/// The percentiles a tail may be reported at, ascending, in tenths of a
/// percent (whole numbers keep "ten samples beyond p99.9 of 10 000" exact).
const LADDER_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// A tail needs this many samples beyond it before it is worth reporting.
const BEYOND: usize = 10;

/// Sorted samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `p`-th percentile (0–100), linearly interpolated between order
    /// statistics; `None` for an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac)
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The median, or 0 for an empty sample (a metric nothing produced).
    pub fn median_or_zero(&self) -> f64 {
        self.median().unwrap_or(0.0)
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// First and third quartile as Python's `statistics.quantiles(v, n=4)`
    /// gives them (the exclusive method), so a spread computed here equals
    /// the one a driver computes from the same values. Needs two samples.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        let m = self.sorted.len();
        if m < 2 {
            return None;
        }
        let cut = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (self.sorted[j - 1] * (4.0 - delta) + self.sorted[j] * delta) / 4.0
        };
        Some((cut(1), cut(3)))
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> Option<f64> {
        let (q1, q3) = self.quartiles()?;
        let median = self.median()?;
        (median != 0.0).then(|| (q3 - q1) / median.abs())
    }

    /// The highest ladder percentile with at least ten samples beyond it,
    /// and its value. `None` below twenty samples, where even the median
    /// has fewer than ten samples on its far side.
    pub fn highest_percentile(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        let per_mille = LADDER_PER_MILLE
            .iter()
            .copied()
            .rev()
            .find(|pm| n * (1000 - pm) >= BEYOND * 1000)?;
        let p = per_mille as f64 / 10.0;
        Some((p, self.percentile(p)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn empty_sample_has_no_statistics() {
        let s = ramp(0);
        assert_eq!(s.len(), 0);
        assert_eq!(s.median(), None);
        assert_eq!(s.quartiles(), None);
        assert_eq!(s.spread(), None);
        assert_eq!(s.highest_percentile(), None);
        assert_eq!(s.median_or_zero(), 0.0);
    }

    #[test]
    fn one_sample_is_its_own_median_and_has_no_tail() {
        let s = ramp(1);
        assert_eq!(s.median(), Some(1.0));
        assert_eq!(s.percentile(95.0), Some(1.0));
        assert_eq!(s.quartiles(), None);
        assert_eq!(s.highest_percentile(), None);
    }

    #[test]
    fn nineteen_samples_support_no_percentile() {
        let s = ramp(19);
        assert_eq!(s.median(), Some(10.0));
        assert_eq!(s.highest_percentile(), None, "9.5 samples beyond p50");
        assert_eq!(s.quartiles(), Some((5.0, 15.0)));
    }

    #[test]
    fn two_hundred_samples_support_p95() {
        let s = ramp(200);
        assert_eq!(s.median(), Some(100.5));
        let (p, v) = s.highest_percentile().unwrap();
        assert_eq!(p, 95.0);
        assert!((v - 190.05).abs() < 1e-9, "{v}");
        assert_eq!(ramp(199).highest_percentile().unwrap().0, 90.0);
    }

    #[test]
    fn two_thousand_samples_support_p99() {
        let s = ramp(2000);
        let (p, v) = s.highest_percentile().unwrap();
        assert_eq!(p, 99.0);
        assert!((v - 1980.01).abs() < 1e-9, "{v}");
        assert_eq!(ramp(10_000).highest_percentile().unwrap().0, 99.9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(ramp(10).quartiles(), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(Samples::new(vec![3.0, 1.0]).quartiles(), Some((0.5, 3.5)));
        let spread = ramp(10).spread().unwrap();
        assert!((spread - 1.0).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let s = Samples::new(vec![f64::NAN, 2.0, f64::INFINITY, 4.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.median(), Some(3.0));
    }
}
