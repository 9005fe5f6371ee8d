//! Statistics collectors for simulation experiments.

/// Median and percentiles over a bounded sample buffer.
///
/// Table 2 of the paper reports *median* call times; this collector keeps
/// all samples (experiments are finite) and sorts on demand.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// q-th percentile (0 ≤ q ≤ 100) by nearest-rank; `None` if empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let rank = ((q / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Arithmetic mean; `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_median() {
        let mut s = Samples::new();
        for x in [5.0, 1.0, 3.0] {
            s.record(x);
        }
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(5.0));
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn percentile_is_nearest_rank_whatever_the_recording_order() {
        let mut s = Samples::new();
        for x in [7.0, 2.0, 9.0, 1.0, 10.0, 4.0, 3.0, 8.0, 6.0, 5.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 10);
        // Rank round(q/100 · 9) into the sorted 1..=10.
        assert_eq!(s.percentile(25.0), Some(3.0));
        assert_eq!(s.percentile(90.0), Some(9.0));
        assert_eq!(s.median(), Some(6.0), "rank round(4.5) = 5");
        assert_eq!(s.mean(), Some(5.5));
    }

    #[test]
    fn empty_samples_have_no_statistics() {
        let s = Samples::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(99.0), None);
        assert_eq!(s.mean(), None);
    }
}
