//! Fault-injection suite for the hardened fixpoint fabric.
//!
//! Every test here interrupts a run mid-flight — injected transfer
//! panic, cooperative cancellation, forced delta-log trim, deliberate
//! termination-protocol violation — and checks the three robustness
//! contracts the engine now guarantees:
//!
//! 1. **the process survives**: a panicking configuration aborts the
//!    *run*, all workers drain and join, and the caller gets a
//!    well-formed [`Status::Aborted`] naming the panicking config;
//! 2. **interruption is prompt**: a cancellation request is observed
//!    within one limit-check cadence per worker
//!    ([`LIMIT_CHECK_CADENCE`] pops), never "whenever the run ends";
//! 3. **partials are sound**: whatever an interrupted run has in its
//!    store is a subset of the completed fixpoint — monotone engines
//!    only ever add facts, so a prefix of a run is never wrong, merely
//!    incomplete.
//!
//! Faults are keyed on exact global pop/evaluation counts
//! ([`FaultPlan`]), so each scenario lands at the same logical point on
//! every run. The scenarios run every fabric engine: the sequential
//! engine (a one-worker fabric) and the sharded backend; the pool
//! scenarios run pool tenants.

use cfa::analysis::engine::{
    run_fixpoint_with, AbstractMachine, CancelToken, EngineLimits, EvalMode, FixpointResult,
    Status, TrackedStore,
};
use cfa::analysis::fabric::{FaultPlan, LIMIT_CHECK_CADENCE};
use cfa::analysis::kcfa::{AddrK, KCfaMachine, KConfig, ValK};
use cfa::analysis::parallel::{run_fixpoint_parallel_on, ParallelMachine, Replicated, Sharded};
use cfa::analysis::reference::{run_fixpoint_reference, RefTrackedStore, ReferenceMachine};
use cfa::CpsProgram;
use cfa_testsupport::{
    assert_fixpoint_subset, fixpoint_of, fixpoint_of_reference, limits_with_plan,
    quiet_injected_panics, PAR_THREADS,
};
use std::time::Duration;

const MODES: [EvalMode; 2] = [EvalMode::SemiNaive, EvalMode::FullReeval];

/// The workload all injections land on: the suite's `regex` program at
/// k = 1 — roughly 2,500 sequential evaluations over 1,100+
/// configurations, large enough that every pop- or eval-keyed clause
/// fires mid-run at every thread count.
fn regex() -> CpsProgram {
    let src = cfa::workloads::suite()
        .iter()
        .find(|p| p.name == "regex")
        .expect("regex is in the workloads suite")
        .source;
    cfa::compile(src).expect("suite program compiles")
}

/// A k-CFA fixpoint of the fault workload.
type KRun = FixpointResult<KConfig, AddrK, ValK>;

/// The fabric engines, by worker count: the sequential engine (a
/// one-worker fabric) and the sharded backend at [`PAR_THREADS`]
/// workers.
const WORKERS: [usize; 2] = [1, PAR_THREADS];

/// Runs `p` at k = 1 on `workers` fabric workers: the sequential engine
/// for one, the sharded backend for more.
fn run_on(workers: usize, p: &CpsProgram, limits: EngineLimits, mode: EvalMode) -> KRun {
    let mut machine = KCfaMachine::new(p, 1);
    if workers == 1 {
        run_fixpoint_with(&mut machine, limits, mode)
    } else {
        run_fixpoint_parallel_on::<Sharded, _>(&mut machine, workers, limits, mode)
    }
}

/// An injected panic at evaluation 50 must leave the process alive,
/// join every worker, and return `Aborted` naming a real configuration
/// whose partial store is a subset of the completed fixpoint.
fn assert_injected_panic_contained(workers: usize) {
    quiet_injected_panics();
    let p = regex();
    for mode in MODES {
        let full = run_fixpoint_with(&mut KCfaMachine::new(&p, 1), EngineLimits::default(), mode);
        assert!(full.status.is_complete());

        let label = format!("{workers} workers/{mode:?}");
        let limits = limits_with_plan(FaultPlan::new().panic_at_eval(50));
        let r = run_on(workers, &p, limits, mode);
        let Status::Aborted { config, message } = &r.status else {
            panic!("{label}: expected Aborted, got {:?}", r.status);
        };
        assert!(
            message.contains("injected fault: panic at evaluation 50"),
            "{label}: abort message {message:?} does not carry the panic payload"
        );
        assert!(
            !config.is_empty() && config != "<seed>" && config != "<worker>",
            "{label}: abort should name the evaluating configuration, got {config:?}"
        );
        assert_fixpoint_subset(
            &format!("{label} post-panic partial"),
            &fixpoint_of(&r),
            &fixpoint_of(&full),
        );
    }
}

#[test]
fn injected_panic_is_contained_on_every_backend() {
    assert_injected_panic_contained(PAR_THREADS);
}

/// The sequential engine is a one-worker fabric run with the same
/// fault hooks, so the same plan aborts it the same way.
#[test]
fn sequential_engine_contains_injected_panic() {
    assert_injected_panic_contained(1);
}

/// A two-party machine whose steps 1 and 2 each spin until the other
/// has started (bounded by a short deadline): with two workers, worker
/// 0 blocks inside one step, so worker 1 *must* pick up the other —
/// the deterministic way to land a fault on a non-zero worker id,
/// which cheap workloads can't guarantee (one fast worker may drain
/// the whole queue alone).
#[derive(Clone)]
struct TwoParty {
    a_started: std::sync::Arc<std::sync::atomic::AtomicBool>,
    b_started: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl TwoParty {
    fn new() -> Self {
        TwoParty {
            a_started: Default::default(),
            b_started: Default::default(),
        }
    }

    fn await_peer(flag: &std::sync::atomic::AtomicBool) {
        let deadline = std::time::Instant::now() + Duration::from_millis(500);
        while !flag.load(std::sync::atomic::Ordering::Acquire)
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
    }
}

impl AbstractMachine for TwoParty {
    type Config = u8;
    type Addr = u8;
    type Val = u8;

    fn initial(&self) -> u8 {
        0
    }

    fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
        use std::sync::atomic::Ordering;
        match *c {
            0 => out.extend([1, 2]),
            1 => {
                self.a_started.store(true, Ordering::Release);
                Self::await_peer(&self.b_started);
                s.join(&1, [1u8]);
            }
            2 => {
                self.b_started.store(true, Ordering::Release);
                Self::await_peer(&self.a_started);
                s.join(&2, [2u8]);
            }
            _ => {}
        }
    }
}

impl ParallelMachine for TwoParty {
    fn fork(&self) -> Self {
        self.clone()
    }

    fn absorb(&mut self, _worker: Self) {}
}

/// The `panic_worker` clause scopes the eval count to one worker, so
/// the abort path is exercised from a non-zero worker id too.
#[test]
fn worker_scoped_panic_is_contained_on_every_backend() {
    quiet_injected_panics();
    let limits = limits_with_plan(FaultPlan::new().panic_at_eval(1).on_worker(1));
    let r = run_fixpoint_parallel_on::<Sharded, _>(
        &mut TwoParty::new(),
        2,
        limits,
        EvalMode::SemiNaive,
    );
    let Status::Aborted { message, .. } = &r.status else {
        panic!("expected Aborted, got {:?}", r.status);
    };
    assert!(
        message.contains("worker 1"),
        "abort message {message:?} should come from worker 1"
    );
}

/// Cancellation is observed within one limit-check cadence per worker:
/// after the token flips at global pop `N`, each of the `t` workers
/// performs at most `LIMIT_CHECK_CADENCE` further pops before its next
/// check. One worker gets no more slack than that; several get ×2 for
/// pops counted while the flip is in flight.
fn assert_cancellation_within_bound(workers: usize) {
    const CANCEL_AT: u64 = 400;
    let p = regex();
    for mode in MODES {
        let full = run_fixpoint_with(&mut KCfaMachine::new(&p, 1), EngineLimits::default(), mode);
        let label = format!("{workers} workers/{mode:?}");
        let limits = limits_with_plan(FaultPlan::new().cancel_at_pop(CANCEL_AT));
        let r = run_on(workers, &p, limits, mode);
        assert_eq!(r.status, Status::Cancelled, "{label}");
        let pops = r.iterations + r.skipped;
        let slack = match workers {
            1 => LIMIT_CHECK_CADENCE,
            t => t as u64 * LIMIT_CHECK_CADENCE * 2,
        };
        let bound = CANCEL_AT + slack;
        assert!(
            pops <= bound,
            "{label}: {pops} pops despite cancellation at pop {CANCEL_AT} (bound {bound})"
        );
        assert_fixpoint_subset(
            &format!("{label} cancelled partial"),
            &fixpoint_of(&r),
            &fixpoint_of(&full),
        );
    }
}

#[test]
fn cancellation_lands_within_bound_on_every_backend() {
    assert_cancellation_within_bound(PAR_THREADS);
}

/// The sequential engine, one worker, gets no slack for flips in
/// flight: it stops within one `LIMIT_CHECK_CADENCE` of the flip.
#[test]
fn sequential_engine_cancellation_lands_within_bound() {
    assert_cancellation_within_bound(1);
}

/// A forced watermark-0 delta-log trim mid-run degrades baselines to
/// the snapshot-loss fallback but must not change the fixpoint.
#[test]
fn forced_trim_preserves_fixpoint_on_every_backend() {
    let p = regex();
    for mode in MODES {
        let full = run_fixpoint_with(&mut KCfaMachine::new(&p, 1), EngineLimits::default(), mode);
        for workers in WORKERS {
            let label = format!("{workers} workers/{mode:?}");
            let limits = limits_with_plan(FaultPlan::new().trim_at_pop(100));
            let r = run_on(workers, &p, limits, mode);
            assert!(
                r.status.is_complete(),
                "{label}: forced trim should not stop the run, got {:?}",
                r.status
            );
            assert_eq!(
                fixpoint_of(&r),
                fixpoint_of(&full),
                "{label}: forced mid-run trim changed the fixpoint"
            );
        }
    }
}

/// A leaked pending count is a deliberate termination-protocol
/// violation: pending never reaches zero, every worker goes idle, and
/// without the watchdog the run would hang forever. The watchdog must
/// turn that hang into a diagnostic abort — on the sequential engine
/// too, which is a one-worker fabric run.
#[test]
fn leaked_pending_trips_watchdog_on_every_backend() {
    let p = regex();
    for workers in WORKERS {
        let mut limits = limits_with_plan(FaultPlan::new().leak_pending_at_pop(5));
        limits.stall_timeout = Some(Duration::from_millis(200));
        let r = run_on(workers, &p, limits, EvalMode::SemiNaive);
        let Status::Aborted { config, message } = &r.status else {
            panic!(
                "{workers} workers: expected the watchdog to abort, got {:?}",
                r.status
            );
        };
        assert_eq!(config.as_str(), Status::STALL_WATCHDOG, "{workers} workers");
        assert!(
            message.contains("pending"),
            "{workers} workers: watchdog dump {message:?} should report the stuck pending count"
        );
    }
}

/// Runs the fault workload as a pool tenant under `limits`.
fn run_tenant(p: &CpsProgram, limits: EngineLimits) -> KRun {
    use cfa::analysis::kcfa::submit_kcfa;
    use cfa::analysis::pool::{AnalysisPool, PoolConfig};
    let pool = AnalysisPool::new(PoolConfig {
        threads: 1,
        ..PoolConfig::default()
    });
    let run = submit_kcfa::<Replicated>(&pool, std::sync::Arc::new(p.clone()), 1, limits).wait();
    pool.shutdown();
    run.fixpoint
}

/// Every fabric engine checks its limits on each worker's first pop:
/// the sequential engine, the sharded backend at one and at several
/// workers, and a pool tenant all stop with `expect` before evaluating.
fn assert_stops_before_first_evaluation(limits: EngineLimits, expect: Status) {
    let p = regex();
    let sharded_1 = run_fixpoint_parallel_on::<Sharded, _>(
        &mut KCfaMachine::new(&p, 1),
        1,
        limits.clone(),
        EvalMode::SemiNaive,
    );
    let runs = [
        (
            "sequential",
            run_on(1, &p, limits.clone(), EvalMode::SemiNaive),
        ),
        (
            "sharded",
            run_on(PAR_THREADS, &p, limits.clone(), EvalMode::SemiNaive),
        ),
        ("sharded@1", sharded_1),
        ("pool tenant", run_tenant(&p, limits)),
    ];
    for (label, r) in runs {
        assert_eq!(r.status, expect, "{label}");
        assert_eq!(r.iterations, 0, "{label}: evaluated despite {expect:?}");
    }
}

/// A token cancelled before the run starts stops every engine at its
/// very first limit check, before any evaluation.
#[test]
fn pre_cancelled_token_stops_every_engine_immediately() {
    let token = CancelToken::new();
    token.cancel();
    assert_stops_before_first_evaluation(
        EngineLimits::cancellable(token.clone()),
        Status::Cancelled,
    );

    let p = regex();
    let r = run_fixpoint_reference(
        &mut KCfaMachine::new(&p, 1),
        EngineLimits::cancellable(token),
    );
    assert_eq!(r.status, Status::Cancelled);
    assert_eq!(
        r.iterations, 0,
        "reference engine evaluated despite cancellation"
    );
}

/// A zero time budget is spent before the first pop: every fabric
/// engine times out without evaluating (the reference oracle's twin is
/// `reference_time_budget_checked_before_first_pop`).
#[test]
fn zero_time_budget_stops_every_engine_immediately() {
    assert_stops_before_first_evaluation(EngineLimits::timeout(Duration::ZERO), Status::TimedOut);
}

/// A machine whose transfer function itself panics (no injection
/// plumbing involved) — the containment the fault plan merely
/// simulates. The chain 0 → 1 → … guarantees config 7 is evaluated on
/// every engine; `Aborted` must name it.
#[derive(Clone)]
struct PoisonPill;

impl AbstractMachine for PoisonPill {
    type Config = u32;
    type Addr = u32;
    type Val = u32;

    fn initial(&self) -> u32 {
        0
    }

    fn step(&mut self, c: &u32, s: &mut TrackedStore<'_, u32, u32>, out: &mut Vec<u32>) {
        if *c == 7 {
            panic!("injected fault: poison pill at config 7");
        }
        s.join(c, [*c]);
        if *c < 20 {
            out.push(c + 1);
        }
    }
}

impl ParallelMachine for PoisonPill {
    fn fork(&self) -> Self {
        PoisonPill
    }

    fn absorb(&mut self, _worker: Self) {}
}

impl ReferenceMachine for PoisonPill {
    type Config = u32;
    type Addr = u32;
    type Val = u32;

    fn initial(&self) -> u32 {
        0
    }

    fn step(&mut self, c: &u32, s: &mut RefTrackedStore<'_, u32, u32>, out: &mut Vec<u32>) {
        if *c == 7 {
            panic!("injected fault: poison pill at config 7");
        }
        s.join(*c, [*c]);
        if *c < 20 {
            out.push(c + 1);
        }
    }
}

#[test]
fn transfer_function_panic_names_the_config_on_every_engine() {
    quiet_injected_panics();
    let expect_poisoned = |status: &Status, engine: &str| {
        let Status::Aborted { config, message } = status else {
            panic!("{engine}: expected Aborted, got {status:?}");
        };
        assert_eq!(config.as_str(), "7", "{engine}: abort should name config 7");
        assert!(message.contains("poison pill"), "{engine}: {message:?}");
    };

    for mode in MODES {
        let r = run_fixpoint_with(&mut PoisonPill, EngineLimits::default(), mode);
        expect_poisoned(&r.status, &format!("sequential/{mode:?}"));

        let r = run_fixpoint_parallel_on::<Sharded, _>(
            &mut PoisonPill,
            PAR_THREADS,
            EngineLimits::default(),
            mode,
        );
        expect_poisoned(&r.status, &format!("sharded/{mode:?}"));
    }

    let r = run_fixpoint_reference(&mut PoisonPill, EngineLimits::default());
    expect_poisoned(&r.status, "reference");
}

/// A panicking `seed` is contained too, tagged `<seed>` (there is no
/// configuration to blame yet).
#[derive(Clone)]
struct PoisonSeed;

impl AbstractMachine for PoisonSeed {
    type Config = u32;
    type Addr = u32;
    type Val = u32;

    fn initial(&self) -> u32 {
        0
    }

    fn seed(&mut self, _store: &mut TrackedStore<'_, u32, u32>) {
        panic!("injected fault: poisoned seed");
    }

    fn step(&mut self, _c: &u32, _s: &mut TrackedStore<'_, u32, u32>, _out: &mut Vec<u32>) {}
}

impl ParallelMachine for PoisonSeed {
    fn fork(&self) -> Self {
        PoisonSeed
    }

    fn absorb(&mut self, _worker: Self) {}
}

#[test]
fn seed_panic_is_contained_on_every_backend() {
    quiet_injected_panics();
    let r = run_fixpoint_parallel_on::<Sharded, _>(
        &mut PoisonSeed,
        PAR_THREADS,
        EngineLimits::default(),
        EvalMode::SemiNaive,
    );
    let Status::Aborted { config, message } = &r.status else {
        panic!("expected Aborted, got {:?}", r.status);
    };
    assert_eq!(config.as_str(), "<seed>");
    assert!(message.contains("poisoned seed"), "{message:?}");
}

/// Satellite: an iteration-limited run on the *sharded* backend leaves
/// a well-formed partial store — every row readable, every fact a
/// subset of the completed fixpoint — even though workers stopped
/// mid-protocol with messages still in flight.
#[test]
fn sharded_iteration_limit_partial_is_well_formed() {
    let p = regex();
    for mode in MODES {
        let r = run_fixpoint_parallel_on::<Sharded, _>(
            &mut KCfaMachine::new(&p, 1),
            PAR_THREADS,
            EngineLimits::iterations(300),
            mode,
        );
        assert_eq!(r.status, Status::IterationLimit, "{mode:?}");
        assert!(r.iterations > 0, "{mode:?}: the run did start");
        let partial = fixpoint_of(&r);
        assert!(
            !partial.configs.is_empty(),
            "{mode:?}: partial run discovered configurations"
        );
        let full = run_fixpoint_with(&mut KCfaMachine::new(&p, 1), EngineLimits::default(), mode);
        assert_fixpoint_subset(
            &format!("sharded/{mode:?} iteration-limited partial"),
            &partial,
            &fixpoint_of(&full),
        );
    }
}

/// Satellite: the reference oracle shares the main engine's pre-pop,
/// pop-keyed limit discipline. A zero budget must stop it at the very
/// first check, before any evaluation — the old per-iteration check
/// ran the transfer function first and could overrun silently.
#[test]
fn reference_time_budget_checked_before_first_pop() {
    let p = regex();
    let r = run_fixpoint_reference(
        &mut KCfaMachine::new(&p, 1),
        EngineLimits::timeout(Duration::ZERO),
    );
    assert_eq!(r.status, Status::TimedOut);
    assert_eq!(
        r.iterations, 0,
        "the oracle must consult the clock before popping, not after evaluating"
    );
}

/// An unbounded machine under a small budget: the oracle must return
/// `TimedOut` promptly instead of chasing the infinite frontier.
struct InfiniteChain;

impl ReferenceMachine for InfiniteChain {
    type Config = u64;
    type Addr = u64;
    type Val = u64;

    fn initial(&self) -> u64 {
        0
    }

    fn step(&mut self, c: &u64, _s: &mut RefTrackedStore<'_, u64, u64>, out: &mut Vec<u64>) {
        out.push(c + 1);
    }
}

#[test]
fn reference_time_budget_cannot_be_overrun() {
    let budget = Duration::from_millis(20);
    let start = std::time::Instant::now();
    let r = run_fixpoint_reference(&mut InfiniteChain, EngineLimits::timeout(budget));
    assert_eq!(r.status, Status::TimedOut);
    // The check fires every 256 pops of a near-instant step; seconds of
    // slack still catches a per-iteration (or absent) discipline that
    // would chase the infinite frontier until max_iterations.
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "oracle overran its time budget: ran {:?}",
        start.elapsed()
    );
}

/// The oracle's iteration-limited partial obeys the same soundness
/// contract as the main engines' partials.
#[test]
fn reference_iteration_limit_partial_is_sound() {
    let p = regex();
    let full = run_fixpoint_reference(&mut KCfaMachine::new(&p, 1), EngineLimits::default());
    assert!(full.status.is_complete());
    let r = run_fixpoint_reference(&mut KCfaMachine::new(&p, 1), EngineLimits::iterations(300));
    assert_eq!(r.status, Status::IterationLimit);
    assert_eq!(r.iterations, 300);
    assert_fixpoint_subset(
        "reference iteration-limited partial",
        &fixpoint_of_reference(&r),
        &fixpoint_of_reference(&full),
    );
}

/// The `CFA_FAULT_PLAN` grammar: well-formed plans parse, junk is
/// rejected with a message naming the bad clause.
#[test]
fn fault_plan_parse_grammar() {
    assert!(FaultPlan::parse("panic_eval=40,panic_worker=1").is_ok());
    assert!(FaultPlan::parse("cancel_pop=100").is_ok());
    assert!(FaultPlan::parse(" trim_pop = 3 , leak_pop = 9 ").is_ok());
    assert!(
        FaultPlan::parse("").is_ok(),
        "empty plan is the unarmed plan"
    );
    assert!(FaultPlan::parse("panic_eval")
        .unwrap_err()
        .contains("key=value"));
    assert!(FaultPlan::parse("panic_eval=x")
        .unwrap_err()
        .contains("panic_eval=x"));
    assert!(FaultPlan::parse("explode=1")
        .unwrap_err()
        .contains("explode"));
}

/// Fault-plan counters are armed per run, not per plan object: two
/// concurrent fixpoints sharing one `Arc<FaultPlan>` each observe the
/// fault at *their own* 50th evaluation. Before the counters were
/// per-run, the clause fired once at the 50th evaluation *summed
/// across the two runs* — one run aborted (nondeterministically) and
/// the other sailed through on a half-consumed counter.
#[test]
fn shared_plan_faults_every_planned_run_on_every_backend() {
    quiet_injected_panics();
    let limits = limits_with_plan(FaultPlan::new().panic_at_eval(50));
    let run = |limits: EngineLimits| {
        let p = regex();
        run_fixpoint_parallel_on::<Sharded, _>(
            &mut KCfaMachine::new(&p, 1),
            PAR_THREADS,
            limits,
            EvalMode::SemiNaive,
        )
    };
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let limits = limits.clone();
            std::thread::spawn(move || run(limits))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let r = h
            .join()
            .expect("analysis thread panicked outside the engine");
        let Status::Aborted { message, .. } = &r.status else {
            panic!(
                "run {i} shared the plan but did not fault — counters aliased, got {:?}",
                r.status
            );
        };
        assert!(
            message.contains("injected fault: panic at evaluation 50"),
            "run {i} aborted off-plan: {message:?}"
        );
    }

    // Same aliasing bug, sequential flavor: reusing the plan for a
    // second run must fire the clause again, not find it consumed.
    let r = run(limits);
    assert!(
        matches!(&r.status, Status::Aborted { .. }),
        "a reused plan must re-arm its counters, got {:?}",
        r.status
    );
}

/// A concurrent *unplanned* run must never observe a neighbor's fault
/// plan: only the planned fixpoint faults.
#[test]
fn only_the_planned_run_faults_on_every_backend() {
    quiet_injected_panics();
    let run = |limits: EngineLimits| {
        std::thread::spawn(move || {
            let p = regex();
            run_fixpoint_parallel_on::<Sharded, _>(
                &mut KCfaMachine::new(&p, 1),
                PAR_THREADS,
                limits,
                EvalMode::SemiNaive,
            )
        })
    };
    let planned = run(limits_with_plan(FaultPlan::new().panic_at_eval(50)));
    let unplanned = run(EngineLimits::default());
    let r = planned.join().expect("planned thread");
    assert!(
        matches!(&r.status, Status::Aborted { .. }),
        "the planned run must fault, got {:?}",
        r.status
    );
    let r = unplanned.join().expect("unplanned thread");
    assert!(
        r.status.is_complete(),
        "the unplanned concurrent run caught a neighbor's fault: {:?}",
        r.status
    );
}

/// The 2-tenant pool flavor of `leaked_pending_trips_watchdog`: the
/// stall watchdog is scoped per tenant, so a stalled run aborts with
/// the watchdog diagnostic while its pool-mate completes untouched.
#[test]
fn stalled_tenant_spares_its_pool_mate_on_every_backend() {
    use cfa::analysis::kcfa::submit_kcfa;
    use cfa::analysis::pool::{AnalysisPool, PoolConfig};
    let pool = AnalysisPool::new(PoolConfig {
        threads: 2,
        ..PoolConfig::default()
    });
    let p = std::sync::Arc::new(regex());
    let mut limits = limits_with_plan(FaultPlan::new().leak_pending_at_pop(5));
    limits.stall_timeout = Some(Duration::from_millis(200));
    let stalled = submit_kcfa::<Replicated>(&pool, std::sync::Arc::clone(&p), 1, limits);
    let healthy = submit_kcfa::<Replicated>(&pool, p, 1, EngineLimits::default());

    let healthy_run = healthy.wait();
    assert!(
        healthy_run.fixpoint.status.is_complete(),
        "pool-mate of a stalled tenant must complete, got {:?}",
        healthy_run.fixpoint.status
    );
    let stalled_run = stalled.wait();
    let Status::Aborted { config, message } = &stalled_run.fixpoint.status else {
        panic!(
            "expected the per-tenant watchdog to abort the stalled run, got {:?}",
            stalled_run.fixpoint.status
        );
    };
    assert_eq!(config.as_str(), Status::STALL_WATCHDOG);
    assert!(
        message.contains("pending"),
        "watchdog dump {message:?} should report the stuck pending count"
    );
    pool.shutdown();
}
