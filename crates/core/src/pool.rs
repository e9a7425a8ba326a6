//! The multi-tenant analysis pool: one long-lived worker pool
//! concurrently driving many independent fixpoint instances.
//!
//! The direct entry points ([`crate::engine::run_fixpoint`],
//! [`crate::shardstore`]) give one run its threads for its whole
//! lifetime — the right shape for one big analysis, the wrong one for
//! a service running thousands of small ones (the realistic k-CFA
//! workload mix, per the paper's complexity results: many small
//! higher-order programs, each cheap, arriving concurrently).
//! [`AnalysisPool`] inverts the ownership: the pool's threads are the
//! long-lived resource, and each submitted analysis is a **tenant**
//! that borrows them in bounded quanta.
//!
//! # Per-run state split
//!
//! Everything that makes up one run — pending counter, status,
//! stop flag, watchdog meters — lives in the tenant's own private
//! one-worker [`Fabric`]; the pool shares only threads. A tenant is a
//! parked `fabric::WorkerState` plus the private-store worker of the
//! sequential engine (`engine::SoloWorker`, selected by
//! [`crate::parallel::Replicated`]), which owns the submitted machine:
//! whichever pool thread picks the tenant up next resumes the state
//! against the tenant's fabric (`WorkerCtx::resume`), runs a bounded
//! quantum of `fabric::worker_turn`s, and parks it again. One turn is
//! one unit of the loop [`crate::engine::run_fixpoint`] runs to
//! quiescence in one go, so a pooled run takes exactly the sequential
//! engine's trajectory and reaches its fixpoint. When the run stops,
//! the tenant hands its store and machine over as the result.
//!
//! # Fairness
//!
//! Scheduling is round-robin over a single ready queue: a tenant whose
//! quantum expires goes to the back, and the next tenant comes off the
//! front. A pathological worst-case-family program therefore costs its
//! pool-mates at most `(tenants − 1) × quantum` of added latency per
//! quantum of its own — it cannot starve the batch.
//!
//! # Isolation
//!
//! * **Panics** — `seed`/`evaluate` run under the fabric's
//!   `catch_unwind`; a panicking tenant aborts *itself*
//!   ([`Status::Aborted`]) and its pool-mates never notice.
//! * **Stalls** — the stall watchdog reads per-fabric meters, and each
//!   tenant has its own fabric, so a tenant that leaks pending work
//!   aborts alone; an idle-looking pool thread busy on another tenant
//!   can never trip it.
//! * **Fault plans** — each tenant arms its own [`fabric::FaultPlan`]
//!   counters (`fabric::ArmedFaultPlan`), so a plan inherited through
//!   cloned [`EngineLimits`] fires only in the run it was planned
//!   against.
//! * **Budgets** — `time_budget` is measured from the tenant's first
//!   quantum, never from submission: queue wait is reported separately
//!   ([`crate::engine::FixpointResult::queue_wait`]) and costs the
//!   tenant nothing.
//!
//! # Example
//!
//! ```
//! use cfa_core::engine::{EngineLimits, Status};
//! use cfa_core::pool::{AnalysisPool, PoolConfig};
//! use cfa_core::parallel::Replicated;
//! use cfa_core::kcfa::submit_kcfa;
//! use std::sync::Arc;
//!
//! let pool = AnalysisPool::new(PoolConfig::default());
//! let p = Arc::new(cfa_syntax::compile("((lambda (x) x) 1)").unwrap());
//! let job = submit_kcfa::<Replicated>(&pool, p, 1, EngineLimits::default());
//! let result = job.wait();
//! assert_eq!(result.fixpoint.status, Status::Completed);
//! pool.shutdown();
//! ```

use crate::engine::{
    AbstractMachine, CancelToken, EngineLimits, EvalMode, FixpointResult, SoloWorker, Status,
};
use crate::fabric::{self, ArmedFaultPlan, Fabric, LockRecovered, Turn, WorkerCtx};
use crate::parallel::ParallelMachine;
use crate::telemetry::TraceBuffer;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Sizing knobs for an [`AnalysisPool`].
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Pool worker threads (at least one).
    pub threads: usize,
    /// Admission bound: the maximum number of unfinished tenants
    /// (queued + running). [`AnalysisPool::submit`] blocks while the
    /// pool is at the bound — backpressure, not rejection.
    pub queue_depth: usize,
    /// Pops (evaluations + gate-skips) one scheduling quantum may
    /// take before the tenant yields its thread.
    pub quantum_pops: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            queue_depth: 256,
            quantum_pops: 256,
        }
    }
}

impl PoolConfig {
    /// The default sizing overridden by the environment:
    /// `CFA_POOL_THREADS` (worker threads) and `CFA_POOL_QUEUE_DEPTH`
    /// (admission bound). A malformed value is an error naming the
    /// variable and its text — silently ignoring an operator's sizing
    /// would be worse.
    pub fn try_from_env() -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Some(n) = crate::engine::env_knob("CFA_POOL_THREADS", str::parse::<usize>)? {
            cfg.threads = n;
        }
        if let Some(n) = crate::engine::env_knob("CFA_POOL_QUEUE_DEPTH", str::parse::<usize>)? {
            cfg.queue_depth = n;
        }
        Ok(cfg)
    }

    /// [`PoolConfig::try_from_env`], panicking with its error.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// What one scheduling quantum of a tenant did.
#[doc(hidden)]
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Quantum {
    /// Took work; requeue for another quantum.
    Progress,
    /// Nothing runnable but the run is still pending (e.g. awaiting
    /// its stall watchdog); requeue, but don't spin hot on it.
    Idle,
    /// The run is over (quiescent, limit-stopped, or aborted): call
    /// [`TenantRun::finish`].
    Finished,
}

/// One admitted analysis, type-erased: the pool schedules these without
/// knowing the machine, the store backend, or the result type.
///
/// Not part of the supported API — implemented by the tenant store
/// (via [`PoolBackend`]) and consumed by the pool's scheduler.
#[doc(hidden)]
pub trait TenantRun: Send {
    /// Runs up to `max_pops` pops of this tenant's worker loop.
    fn quantum(&mut self, max_pops: u64) -> Quantum;

    /// Whether the tenant's external [`CancelToken`] has been flipped
    /// (checked at quantum boundaries, so a still-queued tenant is
    /// cancelled before its first evaluation).
    fn cancel_requested(&self) -> bool;

    /// Tears the run down and deposits its result. `queue_wait` is the
    /// submission→activation gap the pool measured.
    fn finish(self: Box<Self>, queue_wait: Duration);

    /// [`TenantRun::finish`] for a run cancelled at a quantum boundary:
    /// records [`Status::Cancelled`] first, then finishes normally.
    fn finish_cancelled(self: Box<Self>, queue_wait: Duration);
}

/// A finished pooled run: the machine (with its accumulated metric
/// state) plus the raw fixpoint.
pub struct PoolRun<M: AbstractMachine> {
    /// The machine the tenant drove, with its accumulated metric state
    /// — what `build_metrics`-style summaries read.
    pub machine: M,
    /// The raw fixpoint result, [`FixpointResult::queue_wait`] filled
    /// in by the pool.
    pub fixpoint: FixpointResult<M::Config, M::Addr, M::Val>,
}

impl<M: AbstractMachine> std::fmt::Debug for PoolRun<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolRun")
            .field("status", &self.fixpoint.status)
            .finish_non_exhaustive()
    }
}

/// The store a pool tenant keeps, as a type-level selector — implemented
/// by [`crate::parallel::Replicated`], one private store per tenant.
pub trait PoolBackend {
    /// Builds the type-erased tenant that drives `machine` to its
    /// fixpoint under this backend, depositing a [`PoolRun`] when done.
    /// Internal plumbing for [`AnalysisPool::submit`].
    #[doc(hidden)]
    fn tenant<M>(
        machine: M,
        limits: EngineLimits,
        mode: EvalMode,
        deposit: Box<dyn FnOnce(PoolRun<M>) + Send>,
    ) -> Box<dyn TenantRun>
    where
        M: ParallelMachine + 'static,
        M::Config: Send + Sync + 'static,
        M::Addr: Send + Sync + Ord + 'static,
        M::Val: Send + Sync + 'static;
}

/// One tenant: a private one-worker [`Fabric`], the private-store
/// worker homed on it (which owns the submitted machine), and the parked
/// loop state the quanta resume.
pub(crate) struct SoloTenant<M: ParallelMachine> {
    fabric: Fabric<usize, Infallible>,
    backend: SoloWorker<M>,
    /// Parked between quanta; taken while one is running.
    state: Option<fabric::WorkerState>,
    limits: EngineLimits,
    armed: Option<ArmedFaultPlan>,
    mode: EvalMode,
    /// Set at the first quantum — the run's time-budget clock starts
    /// here, not at submission.
    started: Option<Instant>,
    seeded: bool,
    deposit: Box<dyn FnOnce(PoolRun<M>) + Send>,
}

impl<M> SoloTenant<M>
where
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync,
    M::Val: Send + Sync,
{
    /// A tenant that drives `machine` to its fixpoint and deposits the
    /// [`PoolRun`] when it stops.
    pub(crate) fn new(
        machine: M,
        limits: EngineLimits,
        mode: EvalMode,
        deposit: Box<dyn FnOnce(PoolRun<M>) + Send>,
    ) -> Self {
        let (fabric, backend) = SoloWorker::fabric(machine);
        let armed = limits.fault_plan.as_deref().map(ArmedFaultPlan::new);
        let state = fabric::WorkerState::with_trace(TraceBuffer::new(limits.trace));
        SoloTenant {
            fabric,
            backend,
            state: Some(state),
            limits,
            armed,
            mode,
            started: None,
            seeded: false,
            deposit,
        }
    }
}

impl<M> TenantRun for SoloTenant<M>
where
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync,
    M::Val: Send + Sync,
{
    fn quantum(&mut self, max_pops: u64) -> Quantum {
        let first_quantum = self.started.is_none();
        let start = *self.started.get_or_insert_with(Instant::now);
        let mut state = self.state.take().expect("tenant state parked");
        if first_quantum {
            // The tenant's run-relative clock starts at activation, so
            // queue wait never skews its timeline.
            state.trace.set_origin(start);
        }
        let mut ctx = WorkerCtx::resume(0, &self.fabric, self.mode, state);
        ctx.state.trace.tenant_resume(ctx.state.pops);
        if !self.seeded {
            self.seeded = true;
            fabric::seed_worker(&mut self.backend, &mut ctx);
        }
        let budget = ctx.state.pops + max_pops;
        let outcome = loop {
            match fabric::worker_turn(
                &mut self.backend,
                &mut ctx,
                &self.limits,
                self.armed.as_ref(),
                start,
            ) {
                Turn::Stopped => break Quantum::Finished,
                Turn::Idle => break Quantum::Idle,
                Turn::Worked if ctx.state.pops >= budget => break Quantum::Progress,
                Turn::Worked => {}
            }
        };
        ctx.state.trace.tenant_suspend(ctx.state.pops);
        self.state = Some(ctx.suspend());
        outcome
    }

    fn cancel_requested(&self) -> bool {
        self.limits
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    }

    /// Deposits the run: the tenant's store *is* the result and its
    /// machine the submitted one, both handed over as is.
    fn finish(self: Box<Self>, queue_wait: Duration) {
        let SoloTenant {
            fabric,
            backend,
            state,
            started,
            deposit,
            ..
        } = *self;
        let status = fabric.finish();
        let totals = state.expect("tenant state parked").into_totals();
        let elapsed = started.map_or(Duration::ZERO, |s| s.elapsed());
        deposit(backend.into_result(status, totals, elapsed, queue_wait));
    }

    fn finish_cancelled(self: Box<Self>, queue_wait: Duration) {
        // First writer wins, so a tenant that already stopped for a
        // different reason keeps its own status.
        self.fabric.stop(Status::Cancelled);
        self.finish(queue_wait);
    }
}

/// A ticket for one submitted analysis: wait for (or cancel) the run,
/// or ask to be woken when it finishes ([`JobHandle::when_finished`]).
///
/// Dropping the handle detaches the run — it still executes and its
/// result is discarded on deposit.
pub struct JobHandle<T> {
    core: Arc<HandleCore<T>>,
    cancel: CancelToken,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

struct HandleCore<T> {
    slot: Mutex<Slot<T>>,
    done: Condvar,
}

/// A handle's result, once deposited, and the wake hook waiting for it.
struct Slot<T> {
    result: Option<T>,
    hook: Option<Box<dyn FnOnce() + Send>>,
}

impl<T: Send + 'static> JobHandle<T> {
    /// A handle with no result yet, and the deposit that fills it: the
    /// deposit stores the result, wakes [`JobHandle::wait`], then runs
    /// the wake hook outside the slot lock.
    fn pending(cancel: CancelToken) -> (Self, Box<dyn FnOnce(T) + Send>) {
        let core = Arc::new(HandleCore {
            slot: Mutex::new(Slot {
                result: None,
                hook: None,
            }),
            done: Condvar::new(),
        });
        let deposit = {
            let core = Arc::clone(&core);
            Box::new(move |result| {
                let hook = {
                    let mut slot = core.slot.lock_recovered();
                    slot.result = Some(result);
                    slot.hook.take()
                };
                core.done.notify_all();
                if let Some(hook) = hook {
                    // The deposit runs on a pool thread: a panicking
                    // hook must not take that thread down with it.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(hook));
                }
            })
        };
        (JobHandle { core, cancel }, deposit)
    }
}

impl<T> JobHandle<T> {
    /// Blocks until the run deposits its result and returns it.
    pub fn wait(self) -> T {
        let mut slot = self.core.slot.lock_recovered();
        loop {
            if let Some(result) = slot.result.take() {
                return result;
            }
            slot = self
                .core
                .done
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Whether the result has been deposited ([`JobHandle::wait`] will
    /// return without blocking).
    pub fn is_finished(&self) -> bool {
        self.core.slot.lock_recovered().result.is_some()
    }

    /// Runs `hook` once, right after the run deposits its result —
    /// on the pool thread that deposits it, where
    /// [`JobHandle::is_finished`] already reads `true` — or at once on
    /// the caller if the result is already deposited. The hook should
    /// be brief (it delays that thread's next quantum); a panic in it is
    /// contained. A handle keeps one hook: registering another before
    /// the deposit replaces it.
    pub fn when_finished(&self, hook: impl FnOnce() + Send + 'static) {
        let mut slot = self.core.slot.lock_recovered();
        if slot.result.is_none() {
            slot.hook = Some(Box::new(hook));
            return;
        }
        drop(slot);
        hook();
    }

    /// Requests cancellation: a still-queued run finishes
    /// [`Status::Cancelled`] at zero iterations; a running one stops at
    /// its next cadenced check or quantum boundary.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The run's [`CancelToken`] (shared with the tenant's limits).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }
}

/// One admitted tenant in the scheduler's ready queue.
struct AdmittedTenant {
    run: Box<dyn TenantRun>,
    submitted: Instant,
    /// Measured at activation (first quantum); `None` while queued.
    queue_wait: Option<Duration>,
}

/// Scheduler state shared by the pool's worker threads.
struct PoolSched {
    /// Tenants not currently checked out by a worker, in round-robin
    /// order (front is next to run, expired quanta requeue at the
    /// back).
    ready: VecDeque<AdmittedTenant>,
    /// Unfinished tenants: ready + checked out. Bounds admission and
    /// gates shutdown drain.
    live: usize,
    shutdown: bool,
}

/// Monotonic pool-lifetime counters, updated lock-free by the worker
/// loop and read by [`AnalysisPool::metrics`].
#[derive(Debug, Default)]
struct PoolStats {
    /// Tenants admitted (excludes shutdown-rejected submissions).
    submitted: AtomicU64,
    /// Tenants that have taken their first quantum.
    activated: AtomicU64,
    /// Tenants that deposited a result.
    finished: AtomicU64,
    /// Scheduling quanta served across all tenants.
    quanta: AtomicU64,
    /// Total submission→activation wait, microseconds, summed over
    /// activated tenants.
    queue_wait_us: AtomicU64,
    /// Total wall time spent inside tenant quanta, microseconds.
    eval_us: AtomicU64,
}

struct PoolShared {
    sched: Mutex<PoolSched>,
    /// Wakes workers: tenant ready or shutdown.
    work: Condvar,
    /// Wakes blocked submitters: a tenant finished.
    admit: Condvar,
    quantum_pops: u64,
    queue_depth: usize,
    stats: PoolStats,
}

/// A live snapshot of an [`AnalysisPool`]'s gauges and lifetime
/// counters ([`AnalysisPool::metrics`]) — what `cfa serve` reports for
/// its `stats` request.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Pool worker threads.
    pub threads: usize,
    /// Tenants parked in the ready queue right now.
    pub queued: usize,
    /// Tenants checked out by a worker right now (live − queued).
    pub active: usize,
    /// Unfinished tenants (queued + active) — the admission gauge.
    pub live: usize,
    /// Tenants admitted over the pool's lifetime.
    pub submitted: u64,
    /// Tenants that have taken their first quantum.
    pub activated: u64,
    /// Tenants that deposited a result.
    pub finished: u64,
    /// Scheduling quanta served.
    pub quanta: u64,
    /// Total submission→activation wait (µs) over activated tenants;
    /// divide by `activated` for the mean per-tenant queue wait.
    pub queue_wait_us: u64,
    /// Total wall time spent inside tenant quanta (µs); divide by
    /// `quanta` for the mean quantum, or by `finished` for the mean
    /// per-tenant evaluation time.
    pub eval_us: u64,
}

impl PoolMetrics {
    /// Renders the snapshot as one line of JSON (the `cfa serve`
    /// `stats` payload).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"threads\":{},\"queued\":{},\"active\":{},\"live\":{},\
             \"submitted\":{},\"activated\":{},\"finished\":{},\"quanta\":{},\
             \"queue_wait_us\":{},\"eval_us\":{}}}",
            self.threads,
            self.queued,
            self.active,
            self.live,
            self.submitted,
            self.activated,
            self.finished,
            self.quanta,
            self.queue_wait_us,
            self.eval_us,
        )
    }
}

/// A long-lived pool of worker threads concurrently driving many
/// independent fixpoint analyses — see the module docs for the
/// scheduling and isolation story.
pub struct AnalysisPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for AnalysisPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sched = self.shared.sched.lock_recovered();
        f.debug_struct("AnalysisPool")
            .field("threads", &self.workers.len())
            .field("live", &sched.live)
            .field("queued", &sched.ready.len())
            .finish_non_exhaustive()
    }
}

impl AnalysisPool {
    /// Starts `config.threads` long-lived worker threads.
    pub fn new(config: PoolConfig) -> Self {
        let shared = Arc::new(PoolShared {
            sched: Mutex::new(PoolSched {
                ready: VecDeque::new(),
                live: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            admit: Condvar::new(),
            quantum_pops: config.quantum_pops.max(1),
            queue_depth: config.queue_depth.max(1),
            stats: PoolStats::default(),
        });
        let workers = (0..config.threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cfa-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        AnalysisPool { shared, workers }
    }

    /// Submits `machine` for analysis with tenant store `B`,
    /// returning immediately with a [`JobHandle`]. Blocks only when the
    /// pool is at its admission bound ([`PoolConfig::queue_depth`]).
    ///
    /// The tenant observes `limits` exactly as a dedicated run would,
    /// except that the time-budget clock starts at its first scheduling
    /// quantum — queue wait is reported separately on
    /// [`FixpointResult::queue_wait`]. If `limits.cancel` is unset, a
    /// fresh token is installed so [`JobHandle::cancel`] always works.
    pub fn submit<B, M>(
        &self,
        machine: M,
        mut limits: EngineLimits,
        mode: EvalMode,
    ) -> JobHandle<PoolRun<M>>
    where
        B: PoolBackend,
        M: ParallelMachine + 'static,
        M::Config: Send + Sync + 'static,
        M::Addr: Send + Sync + Ord + 'static,
        M::Val: Send + Sync + 'static,
    {
        let cancel = match &limits.cancel {
            Some(token) => token.clone(),
            None => {
                let token = CancelToken::new();
                limits.cancel = Some(token.clone());
                token
            }
        };
        let (handle, deposit) = JobHandle::pending(cancel);
        let tenant = B::tenant(machine, limits, mode, deposit);

        let mut sched = self.shared.sched.lock_recovered();
        while sched.live >= self.shared.queue_depth && !sched.shutdown {
            sched = self
                .shared
                .admit
                .wait(sched)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if sched.shutdown {
            drop(sched);
            // A shut-down pool runs nothing new: deposit a Cancelled
            // result immediately so the handle never hangs.
            tenant.finish_cancelled(Duration::ZERO);
        } else {
            sched.live += 1;
            sched.ready.push_back(AdmittedTenant {
                run: tenant,
                submitted: Instant::now(),
                queue_wait: None,
            });
            drop(sched);
            self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
            self.shared.work.notify_one();
        }
        handle
    }

    /// A live snapshot of the pool's gauges (queue depth, active and
    /// parked tenants) and lifetime counters (admissions, finishes,
    /// quanta served, cumulative queue-wait and in-quantum time).
    /// Counters are monotonic and lock-free; the two gauges are read
    /// under the scheduler lock, so they are mutually consistent.
    pub fn metrics(&self) -> PoolMetrics {
        let (queued, live) = {
            let sched = self.shared.sched.lock_recovered();
            (sched.ready.len(), sched.live)
        };
        let stats = &self.shared.stats;
        PoolMetrics {
            threads: self.workers.len(),
            queued,
            active: live.saturating_sub(queued),
            live,
            submitted: stats.submitted.load(Ordering::Relaxed),
            activated: stats.activated.load(Ordering::Relaxed),
            finished: stats.finished.load(Ordering::Relaxed),
            quanta: stats.quanta.load(Ordering::Relaxed),
            queue_wait_us: stats.queue_wait_us.load(Ordering::Relaxed),
            eval_us: stats.eval_us.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting work, drains every queued and running tenant to
    /// completion (each deposits its result), and joins the worker
    /// threads. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut sched = self.shared.sched.lock_recovered();
            sched.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.admit.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for AnalysisPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One pool worker: claim the front ready tenant, run one quantum,
/// requeue or finish it. Runs until shutdown *and* every tenant has
/// drained.
fn worker_loop(shared: &PoolShared) {
    loop {
        let mut tenant = {
            let mut sched = shared.sched.lock_recovered();
            loop {
                if let Some(t) = sched.ready.pop_front() {
                    break t;
                }
                if sched.shutdown && sched.live == 0 {
                    return;
                }
                sched = shared
                    .work
                    .wait(sched)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Activation: the submission→first-quantum gap is the queue
        // wait; the tenant's own clocks start now.
        let queue_wait = match tenant.queue_wait {
            Some(w) => w,
            None => {
                let w = tenant.submitted.elapsed();
                tenant.queue_wait = Some(w);
                shared.stats.activated.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .queue_wait_us
                    .fetch_add(w.as_micros() as u64, Ordering::Relaxed);
                w
            }
        };
        if tenant.run.cancel_requested() {
            finish_one(shared);
            tenant.run.finish_cancelled(queue_wait);
            continue;
        }
        let quantum_started = Instant::now();
        let outcome = tenant.run.quantum(shared.quantum_pops);
        shared.stats.quanta.fetch_add(1, Ordering::Relaxed);
        shared.stats.eval_us.fetch_add(
            quantum_started.elapsed().as_micros() as u64,
            Ordering::Relaxed,
        );
        match outcome {
            Quantum::Finished => {
                finish_one(shared);
                tenant.run.finish(queue_wait);
            }
            Quantum::Progress => requeue(shared, tenant),
            Quantum::Idle => {
                // Pending work but nothing runnable (a leaked pending
                // count awaiting its watchdog): keep the tenant
                // scheduled but don't spin hot on it.
                std::thread::sleep(Duration::from_micros(50));
                requeue(shared, tenant);
            }
        }
    }
}

/// Releases one finished tenant's admission slot and wakes submitters
/// and draining workers. Called *before* the result deposit, so a
/// returned [`JobHandle::wait`] implies [`AnalysisPool::metrics`]
/// already counts the job as finished — the worker thread still
/// completes the deposit before parking, so shutdown's thread join
/// cannot outrun a pending deposit and no handle ever hangs.
fn finish_one(shared: &PoolShared) {
    shared.stats.finished.fetch_add(1, Ordering::Relaxed);
    {
        let mut sched = shared.sched.lock_recovered();
        sched.live -= 1;
    }
    shared.admit.notify_all();
    // Wake parked workers so shutdown drain can observe live == 0.
    shared.work.notify_all();
}

/// Returns a tenant to the back of the round-robin queue.
fn requeue(shared: &PoolShared, tenant: AdmittedTenant) {
    {
        let mut sched = shared.sched.lock_recovered();
        sched.ready.push_back(tenant);
    }
    shared.work.notify_one();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn wake_hook_registered_before_the_deposit_runs_once_after_it() {
        let (handle, deposit) = JobHandle::<u32>::pending(CancelToken::new());
        let (ran, runs) = mpsc::channel();
        let core = Arc::clone(&handle.core);
        handle.when_finished(move || {
            let finished = core.slot.lock_recovered().result.is_some();
            ran.send(finished).expect("test still listening");
        });
        assert!(runs.try_recv().is_err(), "the hook ran before the deposit");
        deposit(7);
        assert_eq!(runs.try_recv(), Ok(true), "the hook must see the result");
        assert_eq!(handle.wait(), 7);
        // The hook's sender is gone: it ran exactly once.
        assert_eq!(runs.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn wake_hook_registered_after_the_deposit_runs_at_once_on_the_caller() {
        let (handle, deposit) = JobHandle::<u32>::pending(CancelToken::new());
        deposit(7);
        let (ran, runs) = mpsc::channel();
        handle.when_finished(move || {
            ran.send(std::thread::current().id())
                .expect("test still listening");
        });
        assert_eq!(runs.try_recv(), Ok(std::thread::current().id()));
        assert_eq!(handle.wait(), 7);
    }

    #[test]
    fn wake_hook_of_a_shut_down_pool_submission_sees_cancelled() {
        let mut pool = AnalysisPool::new(PoolConfig {
            threads: 1,
            ..PoolConfig::default()
        });
        pool.shutdown_inner();
        let program = Arc::new(cfa_syntax::compile("((lambda (x) x) 1)").expect("compiles"));
        let job = crate::kcfa::submit_kcfa::<crate::parallel::Replicated>(
            &pool,
            program,
            1,
            EngineLimits::default(),
        );
        let (ran, runs) = mpsc::channel();
        job.when_finished(move || ran.send(()).expect("test still listening"));
        assert_eq!(runs.try_recv(), Ok(()), "the run was already deposited");
        assert_eq!(job.wait().fixpoint.status, Status::Cancelled);
    }
}
