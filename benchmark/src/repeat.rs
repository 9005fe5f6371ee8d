//! `--check-repeat`: two complete runs of the same build must agree within
//! the benchmark's own bounds, or the benchmark cannot tell a change from
//! its own noise.

use crate::stats::{Stat, Summary};

/// How one end-to-end metric on one workload compared across two runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Both spreads within the bound, reported values within the bound.
    Unchanged { moved: f64 },
    /// The reported values differ by more than the bound.
    Moved { moved: f64 },
    /// A run's value is not known to within the bound — its estimated
    /// run-to-run spread exceeds it — so a difference of that size could
    /// not be told from noise: not "unchanged".
    Unresolved { spread: f64 },
    /// One of the runs has no samples.
    Missing,
}

impl Verdict {
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Unchanged { .. })
    }
}

/// The run-to-run spread to expect of a run's median, estimated from the
/// run's own repetitions: the median of `n` roughly normal samples has
/// 1.25/√n times their dispersion, so the interquartile range of such
/// medians, as a share of the median, is the repetitions' spread scaled by
/// that factor. (Two runs cannot show a run-to-run spread directly. For a
/// metric reported as its floor this overstates the spread — the fast end
/// of a run is tighter than its middle — which errs towards "unresolved".)
fn median_spread(s: &Summary) -> f64 {
    1.25 * s.spread() / (s.n as f64).sqrt()
}

/// Compare the repetitions of two runs of one metric, each run reduced by
/// `stat`, under `bound` (a share of the first run's value).
pub fn compare(first: &[f64], second: &[f64], stat: Stat, bound: f64) -> Verdict {
    let (Some(a), Some(b)) = (Summary::of(first), Summary::of(second)) else {
        return Verdict::Missing;
    };
    let spread = median_spread(&a).max(median_spread(&b));
    if spread > bound {
        return Verdict::Unresolved { spread };
    }
    let (a, b) = (stat.of(first), stat.of(second));
    let moved = if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a).abs() / a.abs()
    };
    if moved > bound {
        Verdict::Moved { moved }
    } else {
        Verdict::Unchanged { moved }
    }
}

/// One line of the repeat report.
pub fn describe(metric: &str, workload: &str, bound: f64, v: &Verdict) -> String {
    let what = match v {
        Verdict::Unchanged { moved } => format!("unchanged (moved {:.1}%)", 100.0 * moved),
        Verdict::Moved { moved } => format!("MOVED {:.1}%", 100.0 * moved),
        Verdict::Unresolved { spread } => {
            format!("unresolved (known to {:.1}% only)", 100.0 * spread)
        }
        Verdict::Missing => "MISSING (a run has no samples)".to_string(),
    };
    format!("{metric}@{workload}: {what} [bound {:.0}%]", 100.0 * bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..11)
            .map(|i| center * (1.0 + jitter * (f64::from(i) - 5.0) / 5.0))
            .collect()
    }

    #[test]
    fn tight_runs_with_close_medians_are_unchanged() {
        let v = compare(&around(1.0, 0.02), &around(1.03, 0.02), Stat::Median, 0.10);
        assert!(v.passed(), "{v:?}");
    }

    #[test]
    fn tight_runs_with_distant_medians_moved() {
        let v = compare(&around(1.0, 0.02), &around(1.2, 0.02), Stat::Median, 0.10);
        assert!(matches!(v, Verdict::Moved { moved } if (moved - 0.2).abs() < 1e-9));
        // Direction does not matter: the same build got faster is as much
        // a failure of repeatability as slower.
        let v = compare(&around(1.2, 0.02), &around(1.0, 0.02), Stat::Floor, 0.10);
        assert!(matches!(v, Verdict::Moved { .. }));
    }

    #[test]
    fn a_wide_run_is_unresolved_never_unchanged() {
        let v = compare(&around(1.0, 0.5), &around(1.0, 0.02), Stat::Median, 0.10);
        assert!(matches!(v, Verdict::Unresolved { spread } if spread > 0.10));
        assert!(!v.passed());
        assert!(describe("makespan_s", "lu_net", 0.10, &v).contains("unresolved"));
        assert!(!describe("makespan_s", "lu_net", 0.10, &v).contains("unchanged"));
    }

    /// Two runs whose slow phases differ but whose fast ends agree: moved
    /// by the median, unchanged by the floor.
    #[test]
    fn the_floor_compares_the_fast_ends() {
        let quiet = around(1.0, 0.02);
        let mut busy = quiet.clone();
        for x in busy.iter_mut().skip(2) {
            *x += 0.3;
        }
        assert!(matches!(
            compare(&quiet, &busy, Stat::Median, 0.10),
            Verdict::Moved { .. }
        ));
        assert!(compare(&quiet, &busy, Stat::Floor, 0.10).passed());
    }

    #[test]
    fn empty_runs_are_missing() {
        assert_eq!(compare(&[], &[1.0], Stat::Median, 0.1), Verdict::Missing);
        assert!(!Verdict::Missing.passed());
    }

    #[test]
    fn zero_medians_compare_exactly() {
        assert!(compare(&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0], Stat::Median, 0.0).passed());
        assert!(!compare(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0], Stat::Floor, 0.5).passed());
    }

    #[test]
    fn report_lines_name_metric_and_workload() {
        let line = describe("setup_s", "lu_mt", 0.25, &Verdict::Moved { moved: 0.31 });
        assert_eq!(line, "setup_s@lu_mt: MOVED 31.0% [bound 25%]");
    }
}
