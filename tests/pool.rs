//! Multi-tenant pool suite: one long-lived [`AnalysisPool`] driving
//! many independent fixpoints at once.
//!
//! The contracts under test:
//!
//! 1. **identity** — a pooled run lands on the *same* fixpoint as a
//!    solo run of the same program (the fixed point of a monotone
//!    transfer function is unique, and the pool must not perturb it);
//! 2. **fair scheduling** — a pathological worst-case-family tenant
//!    cannot starve small pool-mates: round-robin quanta keep every
//!    tenant flowing;
//! 3. **isolation** — cancellation, time budgets, injected panics, and
//!    the stall watchdog are all per-tenant: one misbehaving run never
//!    takes a sibling down with it;
//! 4. **honest accounting** — time spent waiting in the admission
//!    queue is reported as `queue_wait` and never billed against the
//!    tenant's `time_budget`.
//!
//! Every tenant keeps a private store ([`Replicated`]).

use cfa::analysis::engine::{EngineLimits, Status};
use cfa::analysis::kcfa::{analyze_kcfa, submit_kcfa, KcfaJob};
use cfa::analysis::parallel::Replicated;
use cfa::analysis::pool::{AnalysisPool, PoolConfig};
use cfa::workloads::worst_case_source;
use cfa::CpsProgram;
use cfa_testsupport::{fixpoint_of, limits_with_plan, quiet_injected_panics};
use std::sync::Arc;
use std::time::Duration;

/// Compiles every program in the workloads suite (the paper's §6
/// table rows) to shared ownership, ready for pool submission.
fn suite_programs() -> Vec<(&'static str, Arc<CpsProgram>)> {
    cfa::workloads::suite()
        .iter()
        .map(|p| {
            (
                p.name,
                Arc::new(cfa::compile(p.source).expect("suite program compiles")),
            )
        })
        .collect()
}

/// A program small enough to finish in well under a millisecond solo.
fn tiny() -> Arc<CpsProgram> {
    Arc::new(cfa::compile("((lambda (x) x) 1)").expect("tiny program compiles"))
}

/// A worst-case-family hog: solo work roughly doubles per `n` (~3,000
/// evaluations at `n = 10`, ~12,000 at `n = 12`) — orders of magnitude
/// more pops than the single-quantum tiny program.
fn hog(n: usize) -> Arc<CpsProgram> {
    Arc::new(cfa::compile(&worst_case_source(n)).expect("worst-case program compiles"))
}

/// Pushing the whole workload suite through one pool concurrently must
/// land every tenant on exactly the fixpoint a solo run computes.
#[test]
fn pool_matches_solo_runs_on_every_backend() {
    let pool = AnalysisPool::new(PoolConfig {
        threads: 3,
        ..PoolConfig::default()
    });
    let jobs: Vec<(&str, Arc<CpsProgram>, KcfaJob)> = suite_programs()
        .into_iter()
        .map(|(name, p)| {
            let job = submit_kcfa::<Replicated>(&pool, Arc::clone(&p), 1, EngineLimits::default());
            (name, p, job)
        })
        .collect();
    for (name, p, job) in jobs {
        let pooled = job.wait();
        assert_eq!(
            pooled.fixpoint.status,
            Status::Completed,
            "{name}: pooled run should complete"
        );
        let solo = analyze_kcfa(&p, 1, EngineLimits::default());
        assert_eq!(
            fixpoint_of(&pooled.fixpoint),
            fixpoint_of(&solo.fixpoint),
            "{name}: pooled fixpoint diverged from the solo run"
        );
        assert_eq!(
            pooled.halt_values, solo.halt_values,
            "{name}: pooled halt values diverged from the solo run"
        );
    }
    pool.shutdown();
}

/// Time spent queued behind another tenant is not the tenant's fault:
/// a tiny analysis with a 5ms `time_budget` that waits ~100ms for a
/// hog to clear the pool's only thread must still *complete* — and
/// report the wait in `queue_wait`, not `elapsed`.
#[test]
fn queue_wait_is_not_billed_to_the_time_budget_on_every_backend() {
    // One thread and an effectively unbounded quantum: the hog runs to
    // completion before the tiny tenant is ever activated.
    let pool = AnalysisPool::new(PoolConfig {
        threads: 1,
        queue_depth: 16,
        quantum_pops: u64::MAX,
    });
    let budget = Duration::from_millis(5);
    let hog_job = submit_kcfa::<Replicated>(&pool, hog(11), 1, EngineLimits::default());
    let limits = EngineLimits {
        time_budget: Some(budget),
        ..EngineLimits::default()
    };
    let tiny_job = submit_kcfa::<Replicated>(&pool, tiny(), 1, limits);

    let tiny_run = tiny_job.wait();
    assert_eq!(
        tiny_run.fixpoint.status,
        Status::Completed,
        "a long-queued tiny analysis must not be timed out by its queue wait"
    );
    assert!(
        tiny_run.fixpoint.queue_wait > budget,
        "expected a queue wait past the whole 5ms budget, got {:?}",
        tiny_run.fixpoint.queue_wait
    );
    assert!(
        tiny_run.fixpoint.elapsed < budget,
        "the tiny run itself should finish within its budget, took {:?}",
        tiny_run.fixpoint.elapsed
    );
    assert_eq!(hog_job.wait().fixpoint.status, Status::Completed);
    pool.shutdown();
}

/// Cancelling a still-queued request must resolve it as `Cancelled`
/// without ever running it: zero iterations, zero elapsed work.
#[test]
fn cancel_while_queued_runs_nothing_on_every_backend() {
    let pool = AnalysisPool::new(PoolConfig {
        threads: 1,
        queue_depth: 16,
        quantum_pops: u64::MAX,
    });
    let hog_job = submit_kcfa::<Replicated>(&pool, hog(10), 1, EngineLimits::default());
    let queued = submit_kcfa::<Replicated>(&pool, tiny(), 1, EngineLimits::default());
    queued.cancel();
    let run = queued.wait();
    assert_eq!(
        run.fixpoint.status,
        Status::Cancelled,
        "cancelling a queued request must resolve it as Cancelled"
    );
    assert_eq!(
        run.fixpoint.iterations, 0,
        "a cancelled-before-activation run must do zero evaluations"
    );
    assert_eq!(hog_job.wait().fixpoint.status, Status::Completed);
    pool.shutdown();
}

/// Round-robin fairness: on a single pool thread, a worst-case-family
/// hog (~12,000 pops, ~48 quanta) and a batch of single-quantum small
/// tenants time-slice. Every small tenant completes while the hog is
/// *still running* — proven by cancelling the hog afterwards and
/// observing `Cancelled`, which is only possible if it had work left.
/// A starvation-prone scheduler (run-to-completion) would instead
/// finish the hog first and the cancel would land on a completed run.
#[test]
fn hog_cannot_starve_small_tenants_on_every_backend() {
    let pool = AnalysisPool::new(PoolConfig {
        threads: 1,
        queue_depth: 32,
        quantum_pops: 256,
    });
    let hog_job = submit_kcfa::<Replicated>(&pool, hog(12), 1, EngineLimits::default());
    let smalls: Vec<KcfaJob> = (0..8)
        .map(|_| submit_kcfa::<Replicated>(&pool, tiny(), 1, EngineLimits::default()))
        .collect();
    for (i, job) in smalls.into_iter().enumerate() {
        let run = job.wait();
        assert_eq!(
            run.fixpoint.status,
            Status::Completed,
            "small tenant {i} starved behind the hog"
        );
    }
    hog_job.cancel();
    let hog_run = hog_job.wait();
    assert_eq!(
        hog_run.fixpoint.status,
        Status::Cancelled,
        "the hog should still have been mid-run when the smalls finished"
    );
    assert!(
        hog_run.fixpoint.iterations > 0,
        "the hog should have made some progress before cancellation"
    );
    pool.shutdown();
}

/// A tenant whose transfer function panics aborts alone: its
/// pool-mates all complete, on fixpoints byte-identical to solo runs.
#[test]
fn panicking_tenant_spares_its_siblings_on_every_backend() {
    use cfa::analysis::fabric::FaultPlan;
    quiet_injected_panics();
    let pool = AnalysisPool::new(PoolConfig {
        threads: 2,
        ..PoolConfig::default()
    });
    let doomed = submit_kcfa::<Replicated>(
        &pool,
        hog(10),
        1,
        limits_with_plan(FaultPlan::new().panic_at_eval(50)),
    );
    let siblings: Vec<(&str, Arc<CpsProgram>, KcfaJob)> = suite_programs()
        .into_iter()
        .map(|(name, p)| {
            let job = submit_kcfa::<Replicated>(&pool, Arc::clone(&p), 1, EngineLimits::default());
            (name, p, job)
        })
        .collect();

    let doomed_run = doomed.wait();
    let Status::Aborted { message, .. } = &doomed_run.fixpoint.status else {
        panic!(
            "expected the planned panic to abort the tenant, got {:?}",
            doomed_run.fixpoint.status
        );
    };
    assert!(
        message.contains("injected fault: panic at evaluation 50"),
        "abort message {message:?} should carry the injected payload"
    );

    for (name, p, job) in siblings {
        let pooled = job.wait();
        assert_eq!(
            pooled.fixpoint.status,
            Status::Completed,
            "{name}: sibling of a panicking tenant must still complete"
        );
        let solo = analyze_kcfa(&p, 1, EngineLimits::default());
        assert_eq!(
            fixpoint_of(&pooled.fixpoint),
            fixpoint_of(&solo.fixpoint),
            "{name}: sibling fixpoint perturbed by a pool-mate's panic"
        );
    }
    pool.shutdown();
}

/// Dropping the pool (instead of calling `shutdown`) must still drain
/// every admitted tenant — handles never hang.
#[test]
fn drop_drains_admitted_tenants() {
    let pool = AnalysisPool::new(PoolConfig {
        threads: 2,
        ..PoolConfig::default()
    });
    let jobs: Vec<KcfaJob> = suite_programs()
        .into_iter()
        .map(|(_, p)| submit_kcfa::<Replicated>(&pool, p, 1, EngineLimits::default()))
        .collect();
    drop(pool);
    for job in jobs {
        assert_eq!(job.wait().fixpoint.status, Status::Completed);
    }
}
