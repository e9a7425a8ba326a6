//! The store-backend selectors, one per run shape.
//!
//! Every run is a [`crate::fabric`] run. A run with **N workers** uses
//! the shared address-sharded store ([`crate::shardstore`]), selected by
//! [`Sharded`] — the one [`StoreBackend`] that
//! [`run_fixpoint_parallel_on`] dispatches to. A run with **one
//! worker** needs no sharing: the sequential engine
//! ([`crate::engine::run_fixpoint`]) and every [`crate::pool`] tenant
//! run the same private-store worker over a private
//! [`crate::store::AbsStore`]; [`Replicated`] selects it as the tenant
//! store (the one [`crate::pool::PoolBackend`]).
//!
//! # Convergence
//!
//! The fixed point of a monotone transfer function is unique, so any
//! interleaving must reach the same configuration set and store facts
//! as [`crate::engine::run_fixpoint`] and [`crate::reference`]; the
//! differential tests in `tests/engine_differential.rs` enforce that on
//! the Scheme and FJ suites, the worst-case family, and random
//! programs, and `tests/pool.rs` holds pool tenants to their solo runs.

use crate::engine::{AbstractMachine, EngineLimits, EvalMode, FixpointResult};

/// An [`AbstractMachine`] that can be driven by N workers at once.
///
/// Each worker drives its own machine instance (forked up front), so
/// `step` keeps its `&mut self` freedom — metric logs, memo tables and
/// environment pools stay thread-local — and the per-worker state is
/// folded back into the original machine when the run ends.
pub trait ParallelMachine: AbstractMachine + Send {
    /// A fresh worker-local instance sharing the immutable program data
    /// (metric accumulators start empty).
    fn fork(&self) -> Self;

    /// Folds a worker's accumulated state back into `self`. Called once
    /// per worker after the fixpoint is reached; the union across
    /// workers must be order-insensitive.
    fn absorb(&mut self, worker: Self);
}

/// A multi-worker store backend, as a type-level selector: how N
/// workers share the abstract store. [`Sharded`] is the one
/// implementation; [`run_fixpoint_parallel_on`] is generic over this.
pub trait StoreBackend {
    /// Runs `machine` to its least fixed point on `threads` workers
    /// under this backend.
    fn run_fixpoint<M>(
        machine: &mut M,
        threads: usize,
        limits: EngineLimits,
        mode: EvalMode,
    ) -> FixpointResult<M::Config, M::Addr, M::Val>
    where
        M: ParallelMachine,
        M::Config: Send + Sync,
        M::Addr: Send + Sync + Ord,
        M::Val: Send + Sync;
}

/// The pool tenant's store: one private [`crate::store::AbsStore`] per
/// tenant, driven by a one-worker fabric loop ([`crate::pool`]) — the
/// sequential engine's worker, run in quanta.
#[derive(Copy, Clone, Debug, Default)]
pub struct Replicated;

impl crate::pool::PoolBackend for Replicated {
    fn tenant<M>(
        machine: M,
        limits: EngineLimits,
        mode: EvalMode,
        deposit: Box<dyn FnOnce(crate::pool::PoolRun<M>) + Send>,
    ) -> Box<dyn crate::pool::TenantRun>
    where
        M: ParallelMachine + 'static,
        M::Config: Send + Sync + 'static,
        M::Addr: Send + Sync + Ord + 'static,
        M::Val: Send + Sync + 'static,
    {
        Box::new(crate::pool::SoloTenant::new(machine, limits, mode, deposit))
    }
}

/// One shared, address-sharded store ([`crate::shardstore`]).
#[derive(Copy, Clone, Debug, Default)]
pub struct Sharded;

impl StoreBackend for Sharded {
    fn run_fixpoint<M>(
        machine: &mut M,
        threads: usize,
        limits: EngineLimits,
        mode: EvalMode,
    ) -> FixpointResult<M::Config, M::Addr, M::Val>
    where
        M: ParallelMachine,
        M::Config: Send + Sync,
        M::Addr: Send + Sync + Ord,
        M::Val: Send + Sync,
    {
        crate::shardstore::run_fixpoint_sharded_with(machine, threads, limits, mode)
    }
}

/// Runs `machine` to its least fixed point on `threads` workers under
/// the store backend `B`.
///
/// # Examples
///
/// ```
/// use cfa_core::engine::{run_fixpoint, EngineLimits, EvalMode};
/// use cfa_core::kcfa::KCfaMachine;
/// use cfa_core::parallel::{run_fixpoint_parallel_on, Sharded};
///
/// let p = cfa_syntax::compile("((lambda (x) x) 1)").unwrap();
/// let seq = run_fixpoint(&mut KCfaMachine::new(&p, 1), EngineLimits::default());
/// let sh = run_fixpoint_parallel_on::<Sharded, _>(
///     &mut KCfaMachine::new(&p, 1),
///     2,
///     EngineLimits::default(),
///     EvalMode::SemiNaive,
/// );
/// // The fixed point of a monotone transfer function is unique, so
/// // both engines reach identical facts.
/// assert_eq!(seq.store.fact_count(), sh.store.fact_count());
/// assert_eq!(seq.config_count(), sh.config_count());
/// ```
pub fn run_fixpoint_parallel_on<B, M>(
    machine: &mut M,
    threads: usize,
    limits: EngineLimits,
    mode: EvalMode,
) -> FixpointResult<M::Config, M::Addr, M::Val>
where
    B: StoreBackend,
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    B::run_fixpoint(machine, threads, limits, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Status, TrackedStore};
    use crate::pool::{AnalysisPool, PoolConfig};

    /// The reader (scheduled first) reads two addresses that two later
    /// configurations grow one step apart. The fabric runs fresh
    /// configurations before pinned re-runs, so both growths land while
    /// the reader's first wakeup is still queued: the second finds it
    /// queued and adds nothing. Every one-worker run — sequential, pool
    /// tenant, sharded at one thread — takes the same deterministic
    /// schedule: root, reader, two growers, one re-run that sees both
    /// values, and no duplicate for the epoch gate to absorb.
    struct TwoGrowers;

    impl AbstractMachine for TwoGrowers {
        type Config = u32;
        type Addr = u32;
        type Val = u32;

        fn initial(&self) -> u32 {
            0
        }

        fn step(&mut self, c: &u32, s: &mut TrackedStore<'_, u32, u32>, out: &mut Vec<u32>) {
            match *c {
                // Root: schedule the reader before the growers.
                0 => out.extend([10, 1, 2]),
                1 => s.join(&100, [7]),
                2 => s.join(&101, [8]),
                10 => {
                    let _ = s.read(&100);
                    let _ = s.read(&101);
                }
                _ => {}
            }
        }
    }

    impl ParallelMachine for TwoGrowers {
        fn fork(&self) -> Self {
            TwoGrowers
        }
        fn absorb(&mut self, _worker: Self) {}
    }

    #[test]
    fn a_reader_woken_twice_before_its_rerun_is_queued_once() {
        let pool = AnalysisPool::new(PoolConfig {
            threads: 1,
            ..PoolConfig::default()
        });
        let tenant = pool
            .submit::<Replicated, _>(TwoGrowers, EngineLimits::default(), EvalMode::SemiNaive)
            .wait()
            .fixpoint;
        pool.shutdown();
        let sequential = crate::engine::run_fixpoint(&mut TwoGrowers, EngineLimits::default());
        let sharded = run_fixpoint_parallel_on::<Sharded, _>(
            &mut TwoGrowers,
            1,
            EngineLimits::default(),
            EvalMode::SemiNaive,
        );
        for (r, label) in [
            (sequential, "sequential"),
            (tenant, "pool tenant"),
            (sharded, "sharded@1"),
        ] {
            assert_eq!(r.status, Status::Completed, "{label}");
            assert_eq!(
                r.wakeups, 1,
                "{label}: the second growth finds the reader queued"
            );
            assert_eq!(r.skipped, 0, "{label}: no duplicate reaches the epoch gate");
            assert_eq!(
                r.iterations, 5,
                "{label}: root, reader, growers, one justified re-run"
            );
            assert_eq!(r.store.read(&100), [7].into_iter().collect(), "{label}");
            assert_eq!(r.store.read(&101), [8].into_iter().collect(), "{label}");
        }
    }
}
