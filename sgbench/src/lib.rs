//! The shifting-gears benchmark: three workloads driven through the
//! workspace's public entry points, an untraced run for the end-to-end
//! metrics and a traced run that charges wall time to layers.
//! See `README.md` in this directory.

pub mod metrics;
pub mod serve;
pub mod sweep;
pub mod trace;
pub mod workload;

use metrics::{Report, Stopwatch};
use std::path::{Path, PathBuf};
use workload::Workload;

/// Scratch space of a run (journals, span records), inside the
/// benchmark's own directory.
pub fn runs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("runs")
}

/// Writes the span records of a traced run to
/// `runs/<workload>-<seed>-spans.csv`.
pub fn write_spans(workload: Workload, seed: u64, spans: &[trace::Span], out: &mut Report) {
    let path = runs_dir().join(format!("{}-{seed}-spans.csv", workload.name()));
    let written = std::fs::create_dir_all(runs_dir())
        .and_then(|()| std::fs::write(&path, trace::render(spans)));
    out.notes.push(match written {
        Ok(()) => format!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    });
}

/// Runs one workload: untraced (end-to-end metrics) or traced (per-layer
/// metrics). `process_start` is where `setup_s` starts counting.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    process_start: Stopwatch,
) -> std::io::Result<Report> {
    std::fs::create_dir_all(runs_dir())?;
    match (workload, traced) {
        (Workload::ServeMixed, false) => serve::run(seed, seconds, process_start),
        (Workload::ServeMixed, true) => serve::traced(seed, seconds),
        (w, false) => Ok(sweep::run(w, seed, seconds, process_start)),
        (w, true) => Ok(sweep::traced(w, seed, seconds)),
    }
}
