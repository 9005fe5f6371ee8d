//! Structural validator for exported Chrome trace files — what CI runs
//! over the JSON the examples and benches write with `--trace`.
//!
//! Usage: `validate_trace FILE [FILE...]`. Each file must parse as Chrome
//! trace-event JSON and pass [`dps_obs::validate_chrome_trace`] (balanced
//! op spans, async wave spans closed, flow arrows resolved, metadata
//! records well-formed, no op of a wave starting on a track before the
//! wave's first token is delivered there). Exits non-zero on the first
//! invalid file.

use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_trace FILE [FILE...]");
        return ExitCode::FAILURE;
    }
    for path in &paths {
        let json = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::FAILURE;
            }
        };
        match dps_obs::validate_chrome_trace(&json) {
            Ok(stats) => println!(
                "{path}: ok — {} records, {} tracks, {} wave spans, {} op spans \
                 ({} nested), {} flows",
                stats.records,
                stats.tracks,
                stats.wave_spans,
                stats.op_spans,
                stats.nested_op_spans,
                stats.flows
            ),
            Err(e) => {
                eprintln!("{path}: INVALID Chrome trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
