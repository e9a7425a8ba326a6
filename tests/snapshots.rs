//! Golden snapshot suite: the cross-*version* regression net.
//!
//! Every workload-suite program is normalized through the full engine
//! matrix ([`cfa_testsupport::canon_snapshot_matrix`] asserts all five
//! engine configurations serialize byte-identically) and the agreed
//! normal form must match the artifact committed under `tests/golden/`
//! — so a semantics change shows up as a reviewable diff of a checked
//! in file, not just a failing in-process assertion. The race
//! detector's JSON reports get the same treatment.
//!
//! Regenerate after an intentional semantics change with:
//!
//! ```text
//! CFA_BLESS=1 cargo test --test snapshots
//! ```

use cfa::analysis::engine::{run_fixpoint_with, EngineLimits, EvalMode};
use cfa::analysis::flatcfa::{FlatCfaMachine, FlatPolicy};
use cfa::analysis::kcfa::KCfaMachine;
use cfa::analysis::races::{races_kcfa, races_mcfa};
use cfa::Analysis;
use cfa_testsupport::{
    canon_snapshot_matrix, check_golden, golden_racy_programs, golden_slug,
    golden_synchronized_programs,
};

/// The analyses pinned per program: one per machine family. `scm2c` is
/// the exception — its exponential shared-environment store makes the
/// k=1 normal form a >13 MB artifact, so the k-CFA golden pins k=0
/// there (the corpus runner still sweeps it at k=1; only the
/// committed-artifact depth is reduced).
fn pinned_analyses(name: &str) -> [Analysis; 3] {
    let k = if name == "scm2c" { 0 } else { 1 };
    [
        Analysis::KCfa { k },
        Analysis::MCfa { m: 1 },
        Analysis::PolyKCfa { k: 1 },
    ]
}

#[test]
fn suite_normal_forms_match_committed_goldens() {
    for prog in cfa::workloads::suite() {
        let p = cfa::compile(prog.source).expect("suite program compiles");
        for analysis in pinned_analyses(prog.name) {
            let snapshot = canon_snapshot_matrix(&p, prog.name, analysis);
            check_golden(
                &format!(
                    "snapshots/{}--{}.json",
                    golden_slug(prog.name),
                    golden_slug(&analysis.short_name())
                ),
                &snapshot.to_json(),
            );
        }
    }
}

#[test]
fn concurrent_normal_forms_match_committed_goldens() {
    for &(name, src) in golden_racy_programs()
        .iter()
        .chain(golden_synchronized_programs())
    {
        let p = cfa::compile(src).expect("golden program compiles");
        for analysis in pinned_analyses(name) {
            let snapshot = canon_snapshot_matrix(&p, name, analysis);
            check_golden(
                &format!(
                    "snapshots/{}--{}.json",
                    golden_slug(name),
                    golden_slug(&analysis.short_name())
                ),
                &snapshot.to_json(),
            );
        }
    }
}

#[test]
fn race_reports_match_committed_goldens() {
    // `races_golden.rs` proves the reports are engine-independent, so
    // one sequential run per analysis pins the artifact.
    for &(name, src) in golden_racy_programs()
        .iter()
        .chain(golden_synchronized_programs())
    {
        let p = cfa::compile(src).expect("golden program compiles");
        let r = run_fixpoint_with(
            &mut KCfaMachine::new(&p, 1),
            EngineLimits::default(),
            EvalMode::SemiNaive,
        );
        assert!(r.status.is_complete(), "{name}: k=1 incomplete");
        check_golden(
            &format!("races/{}--k-1.json", golden_slug(name)),
            &races_kcfa(&p, 1, &r).render_json(),
        );
        let r = run_fixpoint_with(
            &mut FlatCfaMachine::new(&p, 1, FlatPolicy::TopMFrames),
            EngineLimits::default(),
            EvalMode::SemiNaive,
        );
        assert!(r.status.is_complete(), "{name}: m=1 incomplete");
        check_golden(
            &format!("races/{}--m-1.json", golden_slug(name)),
            &races_mcfa(&p, 1, &r).render_json(),
        );
    }
}
