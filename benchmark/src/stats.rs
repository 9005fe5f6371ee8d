//! Order statistics for the benchmark's reports: medians, quartiles, the
//! tail percentile a sample count can support, and the floor the gated
//! times are reduced to.

/// Median, quartiles, sample count and supported tail of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it; `None` below forty samples (median only).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&v);
        let tail = tail_percentile(v.len()).map(|p| (p, percentile_sorted(&v, p)));
        Some(Self {
            n: v.len(),
            median,
            q1,
            q3,
            tail,
        })
    }

    /// Interquartile range as a share of the median (the contract's
    /// "spread"); 0 when the median is 0.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// How the repetitions of one run reduce to the number a gate compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    Median,
    /// The 5th percentile (nearest rank): of `n` repetitions the
    /// `⌈n/20⌉`-th fastest — the fastest one up to twenty, the tenth of two
    /// hundred. For a time on a shared host: neighbours slow a repetition
    /// down in phases that last seconds to minutes and never speed one up,
    /// so the fast end of a run is what the program costs and the median
    /// is what the neighbours were doing. It reads the same as long as a
    /// twentieth of the run fell in a quiet phase, and — unlike the
    /// minimum — does not hang on the one luckiest repetition.
    Floor,
}

impl Stat {
    /// Reduce `values` (0 when empty).
    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            Stat::Median => median(values),
            Stat::Floor => {
                let mut v = values.to_vec();
                v.sort_by(f64::total_cmp);
                match v.len() {
                    0 => 0.0,
                    n => v[n.div_ceil(20) - 1],
                }
            }
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Stat::Median => "median",
            Stat::Floor => "p5",
        }
    }
}

/// `(q1, median, q3)` of sorted, non-empty `v`, as Python's
/// `statistics.quantiles(v, n=4)` gives them (the "exclusive" method: cut
/// `i` sits at rank `i·(m+1)/4`, clamped to the data), so the spreads this
/// program prints are the ones the driver computes. A single sample is its
/// own quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Percentiles a report may quote, lowest first, in per-mille so the
/// "samples beyond" count is exact integer arithmetic.
const LADDER_PERMILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond it; `None` when even the lowest rung has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER_PERMILLE
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|&pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0..=100) of sorted, non-empty `v`.
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    /// Reference values from Python:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` → 2.75, 5.5, 8.25
    /// `statistics.quantiles([1,2,3,4,5], n=4)` → 1.5, 3.0, 4.5
    /// `statistics.quantiles([10, 20], n=4)` → 7.5, 15.0, 22.5 — the
    /// exclusive method extrapolates on two points; ours clamps the same
    /// way Python does (j in 1..m-1), so the values agree.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let five: Vec<f64> = (1..=5).map(f64::from).collect();
        let s = Summary::of(&five).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        let s = Summary::of(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn floor_is_the_fastest_twentieth() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(Stat::Floor.of(&v), 10.0);
        assert_eq!(Stat::Floor.of(&v[..40]), 162.0); // 2nd smallest of 161..=200
        assert_eq!(Stat::Floor.of(&v[..20]), 181.0); // the minimum
        assert_eq!(Stat::Floor.of(&[3.0, 2.0]), 2.0);
        assert_eq!(Stat::Floor.of(&[]), 0.0);
        assert_eq!(Stat::Median.of(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// What the floor is for: a run of which four fifths fell in a slow
    /// phase reads like a quiet one; its median does not.
    #[test]
    fn floor_ignores_a_slow_phase_the_median_follows() {
        let quiet: Vec<f64> = (0..100).map(|i| 1.0 + 0.001 * f64::from(i % 10)).collect();
        let mut noisy = quiet.clone();
        for x in noisy.iter_mut().take(80) {
            *x *= 1.6;
        }
        assert!((Stat::Floor.of(&noisy) / Stat::Floor.of(&quiet) - 1.0).abs() < 0.01);
        assert!(Stat::Median.of(&noisy) / Stat::Median.of(&quiet) > 1.5);
    }

    #[test]
    fn tail_value_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(Summary::of(&[1.0, 2.0]).unwrap().tail, None);
    }
}
