//! Shared harness utilities for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index). This library provides the
//! per-cell runner with a wall-clock budget and the paper-style
//! formatting (`ϵ` for sub-second runs, `∞` for timeouts).

use cfa_core::engine::{EngineLimits, Status};
use cfa_core::results::Metrics;
use cfa_core::Analysis;
use cfa_syntax::cps::CpsProgram;
use std::time::Duration;

/// The depth-sweep workload `engine_bench` measures, as `(name,
/// source)` pairs: the representative suite programs the E12 experiment
/// sweeps, plus the worst-case family (densest store traffic). Each
/// program runs at every depth of [`DEPTH_SWEEP_KS`]: 21 cells.
pub fn depth_sweep_programs() -> Vec<(String, String)> {
    let mut programs: Vec<(String, String)> = cfa_workloads::suite()
        .into_iter()
        .filter(|p| matches!(p.name, "eta" | "sat" | "regex" | "interp"))
        .map(|p| (p.name.to_owned(), p.source.to_owned()))
        .collect();
    for n in [2usize, 4, 6] {
        programs.push((
            format!("worst-case-{n}"),
            cfa_workloads::worst_case_source(n),
        ));
    }
    programs
}

/// The context depths of the depth sweep.
pub const DEPTH_SWEEP_KS: [usize; 3] = [0, 1, 2];

/// Default per-cell wall-clock budget, overridable with the
/// `CFA_CELL_TIMEOUT_SECS` environment variable.
pub fn cell_budget() -> Duration {
    let secs = std::env::var("CFA_CELL_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(60);
    Duration::from_secs(secs)
}

/// Runs one `(program, analysis)` cell under the given budget.
pub fn run_cell(program: &CpsProgram, analysis: Analysis, budget: Duration) -> Metrics {
    cfa_core::analyze(program, analysis, EngineLimits::timeout(budget))
}

/// Formats a run the way the paper's §6.1.1 table does: `ϵ` for less
/// than a second, `∞` for a timeout, otherwise seconds/minutes.
pub fn fmt_cell(metrics: &Metrics) -> String {
    match &metrics.status {
        Status::TimedOut | Status::IterationLimit => "∞".to_owned(),
        Status::Cancelled | Status::Aborted { .. } => "✗".to_owned(),
        Status::Completed => fmt_duration(metrics.elapsed),
    }
}

/// Formats a duration in the paper's style.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 1.0 {
        "ϵ".to_owned()
    } else if secs < 60.0 {
        format!("{secs:.0} s")
    } else {
        let mins = (secs / 60.0).floor() as u64;
        let rem = secs - (mins as f64) * 60.0;
        format!("{mins} m {rem:.0} s")
    }
}

/// Formats a duration with full precision (for the speed/precision
/// table where sub-second differences matter).
pub fn fmt_duration_precise(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1000.0;
    if ms < 1000.0 {
        format!("{ms:.1} ms")
    } else {
        format!("{:.2} s", d.as_secs_f64())
    }
}

/// Renders a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:>width$}  ", width = width));
    }
    out.trim_end().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(fmt_duration(Duration::from_millis(200)), "ϵ");
        assert_eq!(fmt_duration(Duration::from_secs(46)), "46 s");
        assert_eq!(fmt_duration(Duration::from_secs(51 * 60)), "51 m 0 s");
        assert_eq!(fmt_duration(Duration::from_secs(68)), "1 m 8 s");
    }

    #[test]
    fn cells_report_infinity_on_timeout() {
        // The n=10 worst case cannot finish k=1 within 1 ms.
        let p = cfa_syntax::compile(&cfa_workloads::worst_case_source(10)).unwrap();
        let m = run_cell(&p, Analysis::KCfa { k: 1 }, Duration::from_millis(1));
        assert_eq!(fmt_cell(&m), "∞");
    }

    #[test]
    fn fast_cells_report_epsilon() {
        let p = cfa_syntax::compile("((lambda (x) x) 1)").unwrap();
        let m = run_cell(&p, Analysis::KCfa { k: 1 }, Duration::from_secs(5));
        assert_eq!(fmt_cell(&m), "ϵ");
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
