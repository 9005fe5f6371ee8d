//! The result line the benchmark contract asks for, and the metric-name
//! rule. Hand-written: the only JSON this program emits is one flat object.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The contract's name rule: starts with a letter or digit, then letters,
/// digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A JSON number for `v` with all its digits: Rust's `Display` prints the
/// shortest decimal that round-trips, never an exponent, which is valid
/// JSON for every finite value.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    v.to_string()
}

/// The one-line result object:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
/// Panics on a name that breaks the contract's rule — a bug in this
/// program, never input.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_metric_name(&m.name), "bad metric name {:?}", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        for ok in ["makespan_s", "linalg.gemm_gflops", "a", "9lives", "x-y.z_0"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "makespan_s@lu_mt",
            "µs",
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("makespan_s", 0.5125, "s"),
                Metric::new("peak_rss_mb", 101.0, "MB"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"makespan_s\": {\"value\": 0.5125, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 101, \"unit\": \"MB\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn empty_metrics_is_still_an_object() {
        assert_eq!(
            result_line(false, 1, 1, &[]),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
        );
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(-0.25), "-0.25");
        assert_eq!(number(1.5e-7), "0.00000015");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_values_are_refused() {
        number(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn bad_names_are_refused() {
        result_line(true, 1, 0, &[Metric::new("a b", 1.0, "s")]);
    }
}
