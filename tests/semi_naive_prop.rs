//! Property tests for the semi-naive delta-aware transfer functions.
//!
//! For random programs and random machine/context configurations, the
//! semi-naive fixpoint must equal the full-re-evaluation fixpoint must
//! equal the reference fixpoint — for the sequential engine and the
//! 3-thread sharded parallel engine. `cfa_testsupport::assert_engines_agree`
//! (called through the per-family sweeps) runs exactly that
//! four-engine matrix + oracle.
//!
//! Beyond agreement, the suite checks the *point* of semi-naive
//! evaluation: on feedback-heavy workloads the delta engine feeds
//! strictly fewer value ids through joins while performing the same
//! number of evaluations in the same order.

use cfa::analysis::engine::{run_fixpoint_with, EngineLimits, EvalMode};
use cfa::analysis::flatcfa::{FlatCfaMachine, FlatPolicy};
use cfa::analysis::kcfa::KCfaMachine;
use cfa_testsupport::{check_fj_program, check_scheme_program, random_scheme_program};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random Scheme program × random context depth, across every CPS
    /// machine family: all four engines agree with the oracle.
    #[test]
    fn random_scheme_semi_naive_equals_full_equals_reference(
        seed in 0u64..10_000,
        k in 0usize..3,
    ) {
        let src = random_scheme_program(seed, 30);
        check_scheme_program(&src, &format!("semi-naive seed={seed}"), &[k]);
    }

    /// Random FJ program × random context depth, both tick policies.
    #[test]
    fn random_fj_semi_naive_equals_full_equals_reference(
        seed in 0u64..10_000,
        k in 0usize..3,
    ) {
        let src = cfa_testsupport::random_fj_program(seed, Default::default());
        check_fj_program(&src, &format!("semi-naive FJ seed={seed}"), &[k]);
    }

    /// The sharded backend keeps exact per-row semi-naive deltas on the
    /// *shared* store: for random programs, its
    /// semi-naive fixpoint matches its own full re-evaluation and the
    /// sequential engine — facts, bound addresses, and configurations.
    #[test]
    fn sharded_semi_naive_equals_full_equals_sequential(
        seed in 0u64..10_000,
        k in 0usize..2,
    ) {
        use cfa::analysis::shardstore::run_fixpoint_sharded_with;
        let src = random_scheme_program(seed, 30);
        let p = cfa::compile(&src).expect("generated programs compile");
        let seq = run_fixpoint_with(
            &mut KCfaMachine::new(&p, k), EngineLimits::default(), EvalMode::SemiNaive);
        for mode in [EvalMode::SemiNaive, EvalMode::FullReeval] {
            let sh = run_fixpoint_sharded_with(
                &mut KCfaMachine::new(&p, k), 3, EngineLimits::default(), mode);
            prop_assert!(sh.status.is_complete(), "seed {} {:?}", seed, mode);
            prop_assert_eq!(
                cfa_testsupport::fixpoint_of(&sh),
                cfa_testsupport::fixpoint_of(&seq),
                "seed {} {:?}: sharded fixpoint diverges", seed, mode
            );
        }
    }

    /// Sequential scheduling is deterministic, so the two modes must
    /// not only reach the same fixpoint but take the identical
    /// evaluation trajectory — semi-naive only narrows the join inputs.
    #[test]
    fn modes_share_the_evaluation_trajectory(seed in 0u64..10_000, k in 0usize..2) {
        let src = random_scheme_program(seed, 30);
        let p = cfa::compile(&src).expect("generated programs compile");
        let semi = run_fixpoint_with(
            &mut KCfaMachine::new(&p, k), EngineLimits::default(), EvalMode::SemiNaive);
        let full = run_fixpoint_with(
            &mut KCfaMachine::new(&p, k), EngineLimits::default(), EvalMode::FullReeval);
        prop_assert_eq!(semi.iterations, full.iterations, "seed {}", seed);
        prop_assert_eq!(semi.wakeups, full.wakeups, "seed {}", seed);
        prop_assert_eq!(semi.delta_facts, full.delta_facts, "seed {}", seed);
        prop_assert!(
            semi.store.value_join_count() <= full.store.value_join_count(),
            "seed {}: semi-naive scanned more ids ({} > {})",
            seed, semi.store.value_join_count(), full.store.value_join_count()
        );
    }
}

/// On the interpreter workload (the most feedback-heavy suite program)
/// the narrowing must be material, not incidental: every machine family
/// re-runs configurations many times, and semi-naive re-runs must scan
/// far fewer ids.
#[test]
fn interp_join_traffic_shrinks_materially() {
    let interp = cfa::workloads::suite()
        .into_iter()
        .find(|p| p.name == "interp")
        .expect("suite has interp");
    let p = cfa::compile(interp.source).expect("interp compiles");

    fn check<M: cfa::analysis::engine::AbstractMachine>(label: &str, mut mk: impl FnMut() -> M) {
        let semi = run_fixpoint_with(&mut mk(), EngineLimits::default(), EvalMode::SemiNaive);
        let full = run_fixpoint_with(&mut mk(), EngineLimits::default(), EvalMode::FullReeval);
        assert!(semi.delta_applies > 0, "{label}: no narrowed applications");
        let (s, f) = (semi.store.value_join_count(), full.store.value_join_count());
        assert!(
            s * 2 <= f,
            "{label}: semi-naive scanned {s} ids vs {f} full — expected ≥2× reduction"
        );
        assert_eq!(semi.store.fact_count(), full.store.fact_count(), "{label}");
    }

    check("k-CFA k=1", || KCfaMachine::new(&p, 1));
    check("m-CFA m=1", || {
        FlatCfaMachine::new(&p, 1, FlatPolicy::TopMFrames)
    });
}
