//! Fabric-level regression tests: the sharded multi-worker backend and
//! the one-worker pool tenant run through the one generic loop
//! (`cfa_core::fabric`), so the scheduling invariants must hold
//! *identically* for both — this file pins them, guarding against
//! backend-specific drift returning.
//!
//! The load-bearing counter identity, asserted on every completed run:
//!
//! ```text
//! iterations + skipped == config_count + wakeups
//! ```
//!
//! Every fresh configuration is deduplicated once and popped exactly
//! once (`config_count` pops), every scheduled wakeup is popped exactly
//! once (`wakeups` pops), and every pop either evaluates (`iterations`)
//! or dies at the epoch gate (`skipped`). A lost wakeup breaks the
//! identity from the right (a scheduled wake never popped would also
//! deadlock termination — the fabric's pending counter is asserted
//! zero on completion inside `Fabric::finish`); a double-delivered or
//! phantom pop breaks it from the left.

use cfa::analysis::engine::{AbstractMachine, EngineLimits, EvalMode, Status, TrackedStore};
use cfa::analysis::parallel::{run_fixpoint_parallel_on, ParallelMachine, Replicated, Sharded};
use cfa::analysis::pool::{AnalysisPool, PoolConfig};
use cfa_testsupport::rendezvous::Rendezvous;

/// A feedback machine whose fixpoint needs many cross-config wakeups —
/// dense scheduling traffic without forced interleavings. Config 4
/// reads two rows that grow one step apart, so even one worker pops
/// duplicate wakeups for the epoch gate to skip.
struct Feedback;

impl AbstractMachine for Feedback {
    type Config = u8;
    type Addr = u8;
    type Val = u8;

    fn initial(&self) -> u8 {
        0
    }

    fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
        if *c == 0 {
            s.join(&0, [1u8]);
            out.extend([1, 2, 3, 4]);
        } else if *c == 4 {
            let _ = s.read(&0);
            let _ = s.read(&1);
        } else {
            let seen = s.read(&(*c % 3));
            let next: Vec<u8> = seen
                .iter()
                .map(|id| *s.val(id))
                .filter(|&v| v < 60)
                .map(|v| v + 1)
                .collect();
            s.join(&((*c + 1) % 3), next);
        }
    }
}

impl ParallelMachine for Feedback {
    fn fork(&self) -> Self {
        Feedback
    }
    fn absorb(&mut self, _worker: Self) {}
}

/// Asserts the fabric counter identity on a completed run.
fn assert_sched_identity<C, A, V>(r: &cfa::analysis::engine::FixpointResult<C, A, V>, label: &str) {
    assert_eq!(r.status, Status::Completed, "{label}");
    assert_eq!(
        r.iterations + r.skipped,
        r.config_count() as u64 + r.wakeups,
        "{label}: every fresh config and every scheduled wakeup must be \
         popped exactly once (iterations {} + skipped {} vs configs {} + \
         wakeups {})",
        r.iterations,
        r.skipped,
        r.config_count(),
        r.wakeups
    );
}

/// The forced stale-snapshot interleaving through the fabric loop
/// (it needs two workers, so it runs on the sharded backend): no
/// wakeup may be lost and the counter identity must hold.
#[test]
fn rendezvous_sched_invariants_hold_on_the_sharded_fabric() {
    for round in 0..10 {
        let mut machine = Rendezvous::new();
        let r = run_fixpoint_parallel_on::<Sharded, _>(
            &mut machine,
            2,
            EngineLimits::default(),
            EvalMode::SemiNaive,
        );
        let label = format!("round {round}");
        assert_sched_identity(&r, &label);
        assert_eq!(
            r.store.read(&5),
            [42u8].into_iter().collect(),
            "{label}: the write landed"
        );
        assert_eq!(
            r.store.read(&6),
            [42u8].into_iter().collect(),
            "{label}: the reader re-ran after its stale snapshot"
        );
    }
}

/// Dense wakeup traffic through the unified driver: the counter
/// identity and the fixpoint hold for the sharded backend across
/// thread counts and for a pool tenant whose run spans many quanta, in
/// both modes.
#[test]
fn feedback_sched_invariants_hold_for_both_backends() {
    let expect = cfa::analysis::engine::run_fixpoint(&mut Feedback, EngineLimits::default());
    let check = |r: &cfa::analysis::engine::FixpointResult<u8, u8, u8>, label: &str| {
        assert_sched_identity(r, label);
        for a in 0..3u8 {
            assert_eq!(
                r.store.read(&a),
                expect.store.read(&a),
                "{label}: fixpoint agrees with sequential"
            );
        }
        assert_eq!(r.config_count(), expect.config_count(), "{label}");
    };
    for mode in [EvalMode::SemiNaive, EvalMode::FullReeval] {
        for threads in [1, 2, 4] {
            let r = run_fixpoint_parallel_on::<Sharded, _>(
                &mut Feedback,
                threads,
                EngineLimits::default(),
                mode,
            );
            check(&r, &format!("sharded threads={threads} {mode:?}"));
        }

        // A quantum far shorter than the run, so the tenant suspends
        // and resumes mid-run: the identity must survive the parking.
        let pool = AnalysisPool::new(PoolConfig {
            threads: 1,
            queue_depth: 4,
            quantum_pops: 4,
        });
        let run = pool
            .submit::<Replicated, _>(Feedback, EngineLimits::default(), mode)
            .wait();
        let quanta = pool.metrics().quanta;
        pool.shutdown();
        assert!(quanta > 1, "pool tenant {mode:?}: ran in {quanta} quantum");
        check(&run.fixpoint, &format!("pool tenant {mode:?}"));
    }
}

/// The sequential engine satisfies the same identity (its wakeups are
/// exact, so `skipped` is zero) — the invariant is engine-wide, not a
/// parallel artifact.
#[test]
fn sequential_engine_satisfies_the_identity() {
    let r = cfa::analysis::engine::run_fixpoint(&mut Feedback, EngineLimits::default());
    assert_eq!(r.status, Status::Completed);
    assert_eq!(r.skipped, 0, "sequential wakeups are exact");
    assert_eq!(r.iterations, r.config_count() as u64 + r.wakeups);
}
