//! Golden race-detector suite (the acceptance gate for the static race
//! client):
//!
//! * every seeded race in the racy programs is reported — zero false
//!   negatives;
//! * the join-synchronized and CAS-guarded programs produce zero
//!   reports;
//! * the report is byte-identical no matter which engine computed the
//!   fixpoint — sequential and sharded-parallel, each in both
//!   evaluation modes;
//! * the agreed reports on the random concurrent family match a
//!   committed artifact (`CFA_BLESS=1` regenerates it), because engine
//!   agreement alone cannot see a regression in the detector they all
//!   share.

use cfa::analysis::engine::{run_fixpoint_with, EngineLimits, EvalMode, FixpointResult};
use cfa::analysis::flatcfa::{AddrM, FlatCfaMachine, FlatPolicy, MConfig, ValM};
use cfa::analysis::kcfa::KCfaMachine;
use cfa::analysis::races::{races_kcfa, races_mcfa, races_poly_kcfa, RaceReport};
use cfa::analysis::{run_fixpoint_parallel_on, Sharded};
use cfa_testsupport::{
    check_golden, golden_racy_programs, golden_synchronized_programs, PAR_THREADS,
};

/// Which evaluation modes to sweep. `CFA_EVAL_MODE` narrows the run to
/// one mode (`semi-naive` or `full-reeval`) so the CI race matrix can
/// pin one mode per leg; anything else (including unset) means both.
fn selected_modes() -> Vec<EvalMode> {
    match std::env::var("CFA_EVAL_MODE").as_deref() {
        Ok("semi-naive") => vec![EvalMode::SemiNaive],
        Ok("full-reeval") => vec![EvalMode::FullReeval],
        _ => vec![EvalMode::SemiNaive, EvalMode::FullReeval],
    }
}

/// Race reports for one program from every selected engine, labeled.
fn kcfa_reports(src: &str, k: usize) -> Vec<(String, RaceReport)> {
    let p = cfa::compile(src).expect("golden program compiles");
    let mut out = Vec::new();
    for mode in selected_modes() {
        let r = run_fixpoint_with(&mut KCfaMachine::new(&p, k), EngineLimits::default(), mode);
        assert!(r.status.is_complete(), "sequential {mode:?} incomplete");
        out.push((format!("sequential {mode:?}"), races_kcfa(&p, k, &r)));
        let r = run_fixpoint_parallel_on::<Sharded, _>(
            &mut KCfaMachine::new(&p, k),
            PAR_THREADS,
            EngineLimits::default(),
            mode,
        );
        assert!(r.status.is_complete(), "sharded {mode:?} incomplete");
        out.push((format!("sharded {mode:?}"), races_kcfa(&p, k, &r)));
    }
    out
}

/// Same engine sweep for the flat-environment machine: m-CFA under
/// [`FlatPolicy::TopMFrames`], poly k-CFA under
/// [`FlatPolicy::LastKCalls`].
fn flat_reports(src: &str, bound: usize, policy: FlatPolicy) -> Vec<(String, RaceReport)> {
    let p = cfa::compile(src).expect("golden program compiles");
    let mk = || FlatCfaMachine::new(&p, bound, policy);
    let detect = |r: &FixpointResult<MConfig, AddrM, ValM>| match policy {
        FlatPolicy::TopMFrames => races_mcfa(&p, bound, r),
        FlatPolicy::LastKCalls => races_poly_kcfa(&p, bound, r),
    };
    let mut out = Vec::new();
    for mode in selected_modes() {
        let r = run_fixpoint_with(&mut mk(), EngineLimits::default(), mode);
        assert!(r.status.is_complete(), "sequential {mode:?} incomplete");
        out.push((format!("sequential {mode:?}"), detect(&r)));
        let r = run_fixpoint_parallel_on::<Sharded, _>(
            &mut mk(),
            PAR_THREADS,
            EngineLimits::default(),
            mode,
        );
        assert!(r.status.is_complete(), "sharded {mode:?} incomplete");
        out.push((format!("sharded {mode:?}"), detect(&r)));
    }
    out
}

/// Asserts all engine-labeled reports agree, returning the canonical one.
fn assert_engines_agree_on_report(name: &str, reports: Vec<(String, RaceReport)>) -> RaceReport {
    let (_, canonical) = reports.first().expect("at least one engine ran").clone();
    for (engine, report) in &reports {
        assert_eq!(
            report, &canonical,
            "{name}: {engine} report diverges from {}",
            reports[0].0
        );
    }
    canonical
}

#[test]
fn racy_programs_all_report_races_everywhere() {
    for &(name, src) in golden_racy_programs() {
        for k in [0usize, 1] {
            let report = assert_engines_agree_on_report(name, kcfa_reports(src, k));
            assert!(
                !report.races.is_empty(),
                "{name} (k={k}): seeded race missed\n{}",
                report.render_text()
            );
        }
        let report =
            assert_engines_agree_on_report(name, flat_reports(src, 1, FlatPolicy::TopMFrames));
        assert!(
            !report.races.is_empty(),
            "{name} (m=1): seeded race missed\n{}",
            report.render_text()
        );
    }
}

#[test]
fn synchronized_programs_stay_silent_everywhere() {
    for &(name, src) in golden_synchronized_programs() {
        let report = assert_engines_agree_on_report(name, kcfa_reports(src, 1));
        assert!(
            report.races.is_empty(),
            "{name} (k=1): false positive on synchronized program\n{}",
            report.render_text()
        );
        let report =
            assert_engines_agree_on_report(name, flat_reports(src, 1, FlatPolicy::TopMFrames));
        assert!(
            report.races.is_empty(),
            "{name} (m=1): false positive on synchronized program\n{}",
            report.render_text()
        );
    }
}

#[test]
fn random_concurrent_reports_are_engine_independent() {
    // The random family has no expected race count, but whatever the
    // detector says must not depend on which engine ran the fixpoint.
    // Every engine feeds the same detector, so agreement alone cannot
    // catch a detector regression: the agreed reports are also pinned,
    // one line per seed and analysis.
    let mut pinned = String::new();
    for seed in 0..16u64 {
        let src = cfa_testsupport::random_concurrent_scheme_program(seed, 25);
        let name = format!("seed {seed}");
        for reports in [
            kcfa_reports(&src, 0),
            kcfa_reports(&src, 1),
            flat_reports(&src, 1, FlatPolicy::TopMFrames),
            flat_reports(&src, 1, FlatPolicy::LastKCalls),
        ] {
            let report = assert_engines_agree_on_report(&name, reports);
            pinned.push_str(&format!("{name} {}\n", report.render_json()));
        }
    }
    check_golden("races/random-concurrent.jsonl", &pinned);
}
