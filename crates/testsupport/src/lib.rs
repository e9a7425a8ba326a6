//! Shared test harness for the differential and property suites.
//!
//! Every integration suite needs the same three ingredients, previously
//! re-declared ad hoc per file:
//!
//! * **random-program generators** — re-exported from
//!   [`cfa_workloads::gen`] (mini-Scheme) and [`cfa_workloads::gen_fj`]
//!   (Featherweight Java), plus the curated [`scheme_corpus`];
//! * **the engine-matrix runner** — [`assert_engines_agree`] runs a
//!   machine through the sequential engine and the sharded parallel
//!   engine (at [`PAR_THREADS`] workers), each in both [`EvalMode`]s,
//!   plus the retained reference engine as oracle, and asserts all five
//!   reach the identical fixpoint (the fixed point of a monotone
//!   transfer function is unique, so any divergence is a bug);
//! * **fixpoint-equality assertions** — [`Fixpoint`] is the canonical
//!   comparable form (configuration set + materialized store), with
//!   conversions from both engine result types;
//! * **fault-injection plumbing** — [`limits_with_plan`] arms a
//!   [`FaultPlan`] on fresh limits (each run arms its own counters),
//!   [`assert_fixpoint_subset`] checks the partial-run soundness
//!   contract, and [`quiet_injected_panics`] keeps deliberately
//!   injected panics out of the test output.
//!
//! The analysis-family sweeps [`check_scheme_program`] and
//! [`check_fj_program`] run the quad across every machine the paper
//! compares (k-CFA, m-CFA, poly-k-CFA, FJ under both tick policies).
//! [`corpus`] builds the program corpus of the `corpus_diff` runner.

#![warn(missing_docs)]

use cfa_core::engine::{run_fixpoint_with, EngineLimits, EvalMode};
use cfa_core::fabric::FaultPlan;
use cfa_core::flatcfa::{FlatCfaMachine, FlatPolicy};
use cfa_core::kcfa::KCfaMachine;
use cfa_core::parallel::{run_fixpoint_parallel_on, ParallelMachine, Sharded};
use cfa_core::reference::{run_fixpoint_reference, ReferenceMachine};
use cfa_fj::kcfa::{FjAnalysisOptions, FjMachine};
use cfa_fj::parse_fj;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

pub use cfa_core::fabric::FaultPlan as EngineFaultPlan;
pub use cfa_workloads::gen::random_concurrent_program as random_concurrent_scheme_program;
pub use cfa_workloads::gen::random_program as random_scheme_program;
pub use cfa_workloads::gen_fj::{random_fj_program, FjGenConfig};

pub mod corpus;
pub mod rendezvous;

/// Thread count for the parallel runs: enough workers that task
/// migration, message routing, and steals all actually happen.
pub const PAR_THREADS: usize = 3;

/// A fixpoint in canonical, comparable form: the set of reached
/// configurations and the fully materialized store.
#[derive(PartialEq, Eq, Debug)]
pub struct Fixpoint<C: Eq + Hash, A: Ord, V: Ord> {
    /// Reached configurations (order-insensitive).
    pub configs: HashSet<C>,
    /// Every `(address, flow set)` fact of the final store.
    pub store: BTreeMap<A, BTreeSet<V>>,
}

/// Canonicalizes a delta/parallel engine result.
pub fn fixpoint_of<C, A, V>(r: &cfa_core::engine::FixpointResult<C, A, V>) -> Fixpoint<C, A, V>
where
    C: Eq + Hash + Clone,
    A: Ord + Clone + Eq + Hash,
    V: Ord + Clone + Eq + Hash,
{
    Fixpoint {
        configs: r.configs.iter().cloned().collect(),
        store: r.store.iter().map(|(a, set)| (a.clone(), set)).collect(),
    }
}

/// Canonicalizes a reference engine result.
pub fn fixpoint_of_reference<C, A, V>(
    r: &cfa_core::reference::RefFixpointResult<C, A, V>,
) -> Fixpoint<C, A, V>
where
    C: Eq + Hash + Clone,
    A: Ord + Clone + Eq + Hash,
    V: Ord + Clone,
{
    Fixpoint {
        configs: r.configs.iter().cloned().collect(),
        store: r
            .store
            .iter()
            .map(|(a, set)| (a.clone(), set.clone()))
            .collect(),
    }
}

/// Runs fresh machine instances through the engine matrix — sequential
/// and sharded-parallel ([`PAR_THREADS`] workers), each in both
/// semi-naive and full-re-evaluation mode, plus the retained reference
/// engine as oracle — and asserts identical configuration sets and
/// stores everywhere.
///
/// # Panics
///
/// Panics (with `label` in the message) when any engine fails to
/// complete or any fixpoint diverges from the reference.
pub fn assert_engines_agree<M, R, F, G>(label: &str, mk_new: F, mk_ref: G)
where
    M: ParallelMachine,
    R: ReferenceMachine<Config = M::Config, Addr = M::Addr, Val = M::Val>,
    M::Config: Hash + Eq + Clone + Send + Sync + Debug,
    M::Addr: Ord + Clone + Send + Sync + Debug,
    M::Val: Ord + Clone + Hash + Send + Sync + Debug,
    F: Fn() -> M,
    G: FnOnce() -> R,
{
    let limits = EngineLimits::default;
    let reference = run_fixpoint_reference(&mut mk_ref(), limits());
    assert!(
        reference.status.is_complete(),
        "{label}: reference engine incomplete"
    );
    let expected = fixpoint_of_reference(&reference);

    for mode in [EvalMode::SemiNaive, EvalMode::FullReeval] {
        let r = run_fixpoint_with(&mut mk_new(), limits(), mode);
        assert!(
            r.status.is_complete(),
            "{label}: sequential {mode:?} engine incomplete"
        );
        assert_eq!(
            fixpoint_of(&r),
            expected,
            "{label}: sequential {mode:?} fixpoint diverges from reference"
        );

        let s = run_fixpoint_parallel_on::<Sharded, M>(&mut mk_new(), PAR_THREADS, limits(), mode);
        assert!(
            s.status.is_complete(),
            "{label}: sharded-parallel {mode:?} engine incomplete"
        );
        assert_eq!(
            fixpoint_of(&s),
            expected,
            "{label}: sharded-parallel {mode:?} fixpoint diverges from reference"
        );
    }
}

/// Runs [`assert_engines_agree`] for every CPS analysis family on one
/// mini-Scheme program: k-CFA at the given `ks`, and both flat-policy
/// machines (m-CFA, poly-k) at bounds 0..=2.
pub fn check_scheme_program(src: &str, name: &str, ks: &[usize]) {
    let p = cfa_syntax::compile(src).expect("program compiles");
    for &k in ks {
        assert_engines_agree(
            &format!("{name} k-CFA k={k}"),
            || KCfaMachine::new(&p, k),
            || KCfaMachine::new(&p, k),
        );
    }
    for (policy, tag) in [
        (FlatPolicy::TopMFrames, "m-CFA"),
        (FlatPolicy::LastKCalls, "poly-k"),
    ] {
        for bound in [0usize, 1, 2] {
            assert_engines_agree(
                &format!("{name} {tag} bound={bound}"),
                || FlatCfaMachine::new(&p, bound, policy),
                || FlatCfaMachine::new(&p, bound, policy),
            );
        }
    }
}

/// Runs [`assert_engines_agree`] for the Featherweight Java machine on
/// one program, under both tick policies at the given `ks`.
pub fn check_fj_program(src: &str, name: &str, ks: &[usize]) {
    let p = parse_fj(src).expect("program parses");
    for &k in ks {
        for options in [FjAnalysisOptions::paper(k), FjAnalysisOptions::oo(k)] {
            assert_engines_agree(
                &format!("{name} FJ {options:?}"),
                || FjMachine::new(&p, options),
                || FjMachine::new(&p, options),
            );
        }
    }
}

/// Runs fresh machine instances through the full engine matrix (like
/// [`assert_engines_agree`]) but compares *canonical snapshots*: every
/// engine's fixpoint is normalized via the given `canon_*` projections
/// and all serialized normal forms must be byte-identical. Returns the
/// agreed snapshot.
fn canon_across_engines<M, R, CF, CR, F, G>(
    label: &str,
    mk_new: F,
    mk_ref: G,
    canon_fix: CF,
    canon_ref: CR,
) -> cfa_core::CanonSnapshot
where
    M: ParallelMachine,
    R: ReferenceMachine<Config = M::Config, Addr = M::Addr, Val = M::Val>,
    M::Config: Hash + Eq + Clone + Send + Sync + Debug,
    M::Addr: Ord + Clone + Send + Sync + Debug,
    M::Val: Ord + Clone + Hash + Send + Sync + Debug,
    F: Fn() -> M,
    G: FnOnce() -> R,
    CF: Fn(
        &cfa_core::engine::FixpointResult<M::Config, M::Addr, M::Val>,
    ) -> Result<cfa_core::CanonSnapshot, cfa_core::NotComparable>,
    CR: Fn(
        &cfa_core::reference::RefFixpointResult<M::Config, M::Addr, M::Val>,
    ) -> Result<cfa_core::CanonSnapshot, cfa_core::NotComparable>,
{
    let limits = EngineLimits::default;
    let reference = run_fixpoint_reference(&mut mk_ref(), limits());
    let baseline = canon_ref(&reference)
        .unwrap_or_else(|e| panic!("{label}: reference engine has no normal form: {e}"));
    let expected = baseline.to_json();

    let check = |engine: &str, got: Result<cfa_core::CanonSnapshot, cfa_core::NotComparable>| {
        let snapshot = got.unwrap_or_else(|e| panic!("{label}: {engine} has no normal form: {e}"));
        let json = snapshot.to_json();
        if json != expected {
            let report = cfa_core::diff_snapshots(&baseline, &snapshot, 10);
            panic!(
                "{label}: {engine} normal form diverges from reference:\n{}",
                report.render()
            );
        }
    };

    for mode in [EvalMode::SemiNaive, EvalMode::FullReeval] {
        let r = run_fixpoint_with(&mut mk_new(), limits(), mode);
        check(&format!("sequential {mode:?}"), canon_fix(&r));
        let s = run_fixpoint_parallel_on::<Sharded, M>(&mut mk_new(), PAR_THREADS, limits(), mode);
        check(&format!("sharded-parallel {mode:?}"), canon_fix(&s));
    }
    baseline
}

/// Runs one analysis on `program` through the full engine matrix
/// (sequential and sharded-parallel × both eval modes, plus the
/// reference oracle) and asserts every engine's canonical normal form
/// serializes
/// byte-identically. Returns the agreed snapshot.
///
/// # Panics
///
/// Panics (with `label` and the engine name in the message, plus a
/// structural diff) when any engine's normal form diverges, or when any
/// engine fails to reach a complete fixpoint.
pub fn canon_snapshot_matrix(
    program: &cfa_syntax::cps::CpsProgram,
    label: &str,
    analysis: cfa_core::Analysis,
) -> cfa_core::CanonSnapshot {
    use cfa_core::Analysis;
    match analysis {
        Analysis::KCfa { k } => canon_across_engines(
            &format!("{label} [{analysis}]"),
            || KCfaMachine::new(program, k),
            || KCfaMachine::new(program, k),
            |r| cfa_core::canon_kcfa(program, k, r),
            |r| cfa_core::canon_kcfa_ref(program, k, r),
        ),
        Analysis::MCfa { m } => canon_across_engines(
            &format!("{label} [{analysis}]"),
            || FlatCfaMachine::new(program, m, FlatPolicy::TopMFrames),
            || FlatCfaMachine::new(program, m, FlatPolicy::TopMFrames),
            |r| cfa_core::canon_mcfa(program, m, r),
            |r| cfa_core::canon_mcfa_ref(program, m, r),
        ),
        Analysis::PolyKCfa { k } => canon_across_engines(
            &format!("{label} [{analysis}]"),
            || FlatCfaMachine::new(program, k, FlatPolicy::LastKCalls),
            || FlatCfaMachine::new(program, k, FlatPolicy::LastKCalls),
            |r| cfa_core::canon_poly_kcfa(program, k, r),
            |r| cfa_core::canon_poly_kcfa_ref(program, k, r),
        ),
    }
}

/// The repository-root `tests/golden/` directory where snapshot
/// artifacts are committed.
pub fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .canonicalize()
        .unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
        })
}

/// Whether `CFA_BLESS=1` is set: golden checks regenerate their
/// artifacts instead of comparing against them.
pub fn bless_requested() -> bool {
    std::env::var("CFA_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Turns a human-readable program name into a stable artifact file
/// stem: lowercased, every non-alphanumeric run collapsed to one `-`.
pub fn golden_slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.extend(c.to_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_owned()
}

/// Compares `actual` against the committed golden artifact at `path`
/// (relative to [`golden_dir`]). Under `CFA_BLESS=1` the artifact is
/// (re)written instead; otherwise a missing or differing file panics
/// with regeneration instructions.
///
/// # Panics
///
/// Panics when the artifact is missing or differs and blessing was not
/// requested.
pub fn check_golden(relative: &str, actual: &str) {
    let path = golden_dir().join(relative);
    if bless_requested() {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create golden dir");
        }
        std::fs::write(&path, actual).expect("write golden artifact");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden artifact {}: {e}\n\
             regenerate with: CFA_BLESS=1 cargo test",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "golden artifact {} is stale\n\
         regenerate with: CFA_BLESS=1 cargo test",
        path.display()
    );
}

/// The marker every deliberately injected panic message carries.
/// [`quiet_injected_panics`] suppresses the default panic banner for
/// payloads containing it, so fault-injection suites don't spray
/// "thread panicked" noise over a passing run.
pub const INJECTED_FAULT_MARKER: &str = "injected fault:";

/// Installs (once, process-wide) a panic hook that swallows the default
/// backtrace banner for panics whose payload contains
/// [`INJECTED_FAULT_MARKER`]. Every other panic is forwarded to the
/// previous hook unchanged, so genuine failures still print.
pub fn quiet_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.contains(INJECTED_FAULT_MARKER)) {
                previous(info);
            }
        }));
    });
}

/// Builds [`EngineLimits`] with `plan` armed, mirroring what
/// `EngineLimits::from_env` does for `CFA_FAULT_PLAN`. Each engine
/// entry point arms the plan's per-run counters and cancel token
/// itself, so these limits can safely be cloned across concurrent
/// runs — a `cancel_pop` clause fires only in the run whose own pop
/// count reaches it.
pub fn limits_with_plan(plan: FaultPlan) -> EngineLimits {
    EngineLimits {
        fault_plan: Some(std::sync::Arc::new(plan)),
        ..EngineLimits::default()
    }
}

/// Asserts every fact of `partial` appears in `full` — the soundness
/// contract for interrupted runs: a monotone engine only ever *adds*
/// configurations and store facts, so any prefix of a run (aborted,
/// cancelled, or iteration-limited) must be a subset of the completed
/// fixpoint.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first configuration or
/// `(address, value)` fact present in `partial` but not in `full`.
pub fn assert_fixpoint_subset<C, A, V>(
    label: &str,
    partial: &Fixpoint<C, A, V>,
    full: &Fixpoint<C, A, V>,
) where
    C: Eq + Hash + Debug,
    A: Ord + Debug,
    V: Ord + Debug,
{
    for config in &partial.configs {
        assert!(
            full.configs.contains(config),
            "{label}: partial-run config {config:?} missing from the completed fixpoint"
        );
    }
    for (addr, vals) in &partial.store {
        let full_vals = full.store.get(addr);
        for val in vals {
            assert!(
                full_vals.is_some_and(|f| f.contains(val)),
                "{label}: partial-run fact {addr:?} ↦ {val:?} missing from the completed fixpoint"
            );
        }
    }
}

/// The cross-suite Scheme corpus: every workloads-suite program, the
/// paper's worst-case family, the Figure 1 `fn` program, and a band of
/// random programs — the program list the cross-validation suites
/// previously re-declared inline.
pub fn scheme_corpus() -> Vec<String> {
    let mut out: Vec<String> = cfa_workloads::suite()
        .iter()
        .map(|p| p.source.to_owned())
        .collect();
    out.push(cfa_workloads::worst_case_source(3));
    out.push(cfa_workloads::fn_program(2, 2));
    for seed in 0..20 {
        out.push(random_scheme_program(seed, 30));
    }
    out
}

/// The concurrent Scheme corpus: the golden race-detector programs
/// (racy, join-synchronized, and CAS-guarded shapes) plus a band of
/// random spawn/join/atom programs.
///
/// Kept separate from [`scheme_corpus`] on purpose: the naive
/// per-state-store machine and the concrete/abstract soundness
/// comparison only support sequential programs, while this corpus is
/// for the suites that must agree across *engines* (sequential,
/// sharded-parallel, reference) and for the race
/// detector's property tests.
pub fn concurrent_scheme_corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = golden_racy_programs()
        .iter()
        .chain(golden_synchronized_programs().iter())
        .map(|&(name, src)| (name.to_owned(), src.to_owned()))
        .collect();
    for seed in 0..12 {
        out.push((
            format!("random-concurrent seed={seed}"),
            random_concurrent_scheme_program(seed, 25),
        ));
    }
    out
}

/// Golden concurrent programs that each contain a seeded race. The race
/// detector must report at least one race on every one of these (zero
/// false negatives).
pub fn golden_racy_programs() -> &'static [(&'static str, &'static str)] {
    &[
        (
            "unjoined read vs child write",
            "(let ((a (atom 0)))
               (let ((t (spawn (reset! a 1))))
                 (deref a)))",
        ),
        (
            "concurrent sibling writes",
            "(let ((a (atom 0)))
               (let ((t1 (spawn (reset! a 1))))
                 (let ((t2 (spawn (reset! a 2))))
                   (begin (join t1) (join t2)))))",
        ),
        (
            "plain write racing a cas",
            "(let ((a (atom 0)))
               (let ((t (spawn (cas! a 0 1))))
                 (begin (reset! a 2) (join t))))",
        ),
        (
            "child read vs later main write",
            "(let ((a (atom 0)))
               (let ((t (spawn (deref a))))
                 (begin (reset! a 1) (join t))))",
        ),
    ]
}

/// Golden concurrent programs whose accesses are fully ordered by
/// `join` or guarded by `cas!`. The race detector must report nothing
/// on any of these (zero false positives on synchronized code).
pub fn golden_synchronized_programs() -> &'static [(&'static str, &'static str)] {
    &[
        (
            "join before read",
            "(let ((a (atom 0)))
               (let ((t (spawn (reset! a 1))))
                 (begin (join t) (deref a))))",
        ),
        (
            "sequential spawn/join chain",
            "(let ((a (atom 0)))
               (let ((t1 (spawn (reset! a 1))))
                 (begin
                   (join t1)
                   (let ((t2 (spawn (reset! a 2))))
                     (begin (join t2) (deref a))))))",
        ),
        (
            "all updates via cas",
            "(let ((a (atom 0)))
               (let ((t (spawn (cas! a 0 1))))
                 (begin (cas! a 0 2) (join t))))",
        ),
        (
            "main write before any spawn",
            "(let ((a (atom 0)))
               (begin
                 (reset! a 1)
                 (let ((t (spawn (deref a))))
                   (join t))))",
        ),
    ]
}
