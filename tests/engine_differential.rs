//! Differential tests: every engine must compute *exactly* the fixpoint
//! of the retained original engine.
//!
//! The fixed point of a monotone transfer function is unique, so the
//! rebuilt hot path (`cfa_core::engine`) in both evaluation modes
//! (semi-naive delta transfer functions and full re-evaluation), the
//! work-stealing parallel engine over the shared address-sharded store
//! (`cfa_core::shardstore`) — any interleaving, any thread count, both
//! modes — and the retained pre-interning engine
//! (`cfa_core::reference`) must agree on
//!
//! * the set of reached configurations, and
//! * every `(address, flow set)` fact in the final store,
//!
//! for every analysis family, on the curated workloads suite (Scheme and
//! Featherweight Java) and on randomized programs. The shared
//! engine-quad runner lives in `cfa_testsupport`.

use cfa::analysis::engine::{run_fixpoint_with, AbstractMachine, EngineLimits, EvalMode};
use cfa::analysis::flatcfa::{FlatCfaMachine, FlatPolicy};
use cfa::analysis::kcfa::KCfaMachine;
use cfa::analysis::reference::{run_fixpoint_reference, ReferenceMachine};
use cfa::analysis::{
    run_fixpoint_parallel_on, AnalysisPool, ParallelMachine, PoolConfig, Replicated, Sharded,
};
use cfa_testsupport::{check_fj_program, check_scheme_program};
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;

/// Every Scheme program of the workloads suite, at every CPS analysis
/// family. The two heavyweights are exercised at k = 0 only to keep the
/// suite fast; k = 1 coverage comes from the rest.
#[test]
fn suite_scheme_fixpoints_are_identical() {
    for prog in cfa::workloads::suite() {
        if matches!(prog.name, "interp" | "scm2c") {
            let p = cfa::compile(prog.source).expect("suite compiles");
            cfa_testsupport::assert_engines_agree(
                &format!("{} k-CFA k=0", prog.name),
                || cfa::analysis::kcfa::KCfaMachine::new(&p, 0),
                || cfa::analysis::kcfa::KCfaMachine::new(&p, 0),
            );
            continue;
        }
        check_scheme_program(prog.source, prog.name, &[0, 1]);
    }
}

/// Every Featherweight Java program of the OO suite, both tick policies.
#[test]
fn suite_fj_fixpoints_are_identical() {
    for prog in cfa::workloads::fj_suite() {
        check_fj_program(prog.source, prog.name, &[0, 1]);
    }
}

/// The paper's worst-case family — the densest store traffic we have.
#[test]
fn worst_case_fixpoints_are_identical() {
    for n in [2usize, 4] {
        let src = cfa::workloads::worst_case_source(n);
        check_scheme_program(&src, &format!("worst-case n={n}"), &[0, 1]);
    }
}

/// The concurrent corpus: golden race-detector programs plus random
/// spawn/join/atom programs. These exercise the abstract-thread domain
/// (thread-return addresses, join blocking, atom cells), where an
/// engine that mishandled cross-thread flow would diverge. The naive
/// per-state-store machine is deliberately absent here — it cannot
/// model cross-thread store flow (see `cfa_core::naive`).
#[test]
fn concurrent_fixpoints_are_identical() {
    for (name, src) in cfa_testsupport::concurrent_scheme_corpus() {
        check_scheme_program(&src, &name, &[0, 1]);
    }
}

/// Runs fresh machines from `mk` through every engine path that fills
/// the machine-side metric accumulators — the reference engine, the
/// sequential engine in both modes, sharded@2 (after `absorb`) and a
/// pool tenant — and asserts `sets` reads the same from each.
fn assert_metric_sets_agree<M, S>(
    label: &str,
    pool: &AnalysisPool,
    mk: impl Fn() -> M,
    sets: impl Fn(&M) -> S,
) where
    M: ParallelMachine + ReferenceMachine + 'static,
    <M as AbstractMachine>::Config: Send + Sync,
    <M as AbstractMachine>::Addr: Send + Sync + Ord,
    <M as AbstractMachine>::Val: Send + Sync,
    S: PartialEq + Debug,
{
    let limits = EngineLimits::default;
    let mut reference = mk();
    let r = run_fixpoint_reference(&mut reference, limits());
    assert!(r.status.is_complete(), "{label}: reference incomplete");
    let expected = sets(&reference);
    for mode in [EvalMode::SemiNaive, EvalMode::FullReeval] {
        let mut machine = mk();
        let r = run_fixpoint_with(&mut machine, limits(), mode);
        assert!(r.status.is_complete(), "{label}: sequential {mode:?}");
        assert_eq!(sets(&machine), expected, "{label}: sequential {mode:?}");
    }
    let mut machine = mk();
    let r = run_fixpoint_parallel_on::<Sharded, _>(&mut machine, 2, limits(), EvalMode::SemiNaive);
    assert!(r.status.is_complete(), "{label}: sharded@2");
    assert_eq!(sets(&machine), expected, "{label}: sharded@2");
    let run = pool
        .submit::<Replicated, _>(mk(), limits(), EvalMode::SemiNaive)
        .wait();
    assert!(run.fixpoint.status.is_complete(), "{label}: pool tenant");
    assert_eq!(sets(&run.machine), expected, "{label}: pool tenant");
}

/// The sets behind `Metrics` — call targets per site with the
/// saw-a-non-closure flag, the distinct `(λ, entry environment)` pairs,
/// and the halt values — agree across engine paths for every CPS
/// analysis family on the suite and the extended suite. These sets are
/// written on the machine side, where the engines differ: the
/// interned paths record call targets for new closures only and log an
/// entry environment only when the machine first builds it.
#[test]
fn metric_sets_agree_across_engine_paths() {
    let pool = AnalysisPool::new(PoolConfig {
        threads: 1,
        ..PoolConfig::default()
    });
    let programs = cfa::workloads::suite()
        .into_iter()
        .chain(cfa::workloads::extended_suite());
    for prog in programs {
        let p = Arc::new(cfa::compile(prog.source).expect("suite compiles"));
        for bound in 0..=2usize {
            assert_metric_sets_agree(
                &format!("{} k-CFA k={bound}", prog.name),
                &pool,
                || KCfaMachine::new_owned(Arc::clone(&p), bound),
                KCfaMachine::metric_sets,
            );
            for (policy, tag) in [
                (FlatPolicy::TopMFrames, "m-CFA"),
                (FlatPolicy::LastKCalls, "poly-k"),
            ] {
                assert_metric_sets_agree(
                    &format!("{} {tag} bound={bound}", prog.name),
                    &pool,
                    || FlatCfaMachine::new_owned(Arc::clone(&p), bound, policy),
                    FlatCfaMachine::metric_sets,
                );
            }
        }
    }
    pool.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Randomized Scheme programs: identical fixpoints across engines.
    #[test]
    fn random_scheme_fixpoints_are_identical(seed in 0u64..10_000) {
        let src = cfa_testsupport::random_scheme_program(seed, 35);
        check_scheme_program(&src, &format!("random seed={seed}"), &[0, 1]);
    }

    /// Randomized Featherweight Java programs: identical fixpoints.
    #[test]
    fn random_fj_fixpoints_are_identical(seed in 0u64..10_000) {
        let src = cfa_testsupport::random_fj_program(seed, Default::default());
        check_fj_program(&src, &format!("random FJ seed={seed}"), &[0, 1]);
    }

    /// Randomized concurrent Scheme programs: identical fixpoints across
    /// engines on the abstract-thread domain.
    #[test]
    fn random_concurrent_fixpoints_are_identical(seed in 0u64..10_000) {
        let src = cfa_testsupport::random_concurrent_scheme_program(seed, 25);
        check_scheme_program(&src, &format!("random concurrent seed={seed}"), &[0, 1]);
    }
}
