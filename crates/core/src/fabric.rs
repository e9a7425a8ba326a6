//! The scheduling fabric: one generic worker loop that every fixpoint
//! run shares — the sequential engine and a pool tenant (one worker
//! over a private store) as much as a sharded run (N workers over one
//! shared store).
//!
//! The loop exists once, parameterized over a [`BackendWorker`] that
//! contributes only the store-specific operations (how facts move, how
//! configurations are deduplicated, how dependencies register, what a
//! message means), so a scheduling, limit, fault or telemetry fix can
//! never land in only one copy.
//!
//! # What the fabric owns
//!
//! * **stealable fresh-task deques** — one per worker; owners pop the
//!   front, thieves steal half from the back (the steal's two queue
//!   locks are never held across each other, so crossed steals cannot
//!   deadlock). A task is whatever the backend queues for a
//!   never-evaluated configuration, already deduplicated by the backend
//!   ([`WorkerCtx::submit_fresh`]);
//! * **pinned wakeups** — re-evaluations of a configuration run only on
//!   its home worker (where its read set and last-run state live), via
//!   a worker-private wake queue with an is-queued flag per local task:
//!   a configuration woken by several growth events before its re-run
//!   is queued once ([`WorkerCtx::wake_local`]), and `wakeups` counts
//!   the enqueues;
//! * **fresh before pinned** — each turn pops fresh work first and
//!   re-runs woken configurations only when no fresh task is left, so
//!   several growth events coalesce into one re-evaluation;
//! * **the pending-counter termination protocol** — one atomic counts
//!   queued tasks + in-flight evaluations + undelivered messages +
//!   queued wakeups; a task or message releases its own count only
//!   after everything it spawned has been counted, so `pending == 0`
//!   observed by an idle worker proves global quiescence
//!   ([`Fabric::finish`] asserts it on every completed run);
//! * **pop-keyed limit checks** — cancellation, the wall clock and the
//!   store-bytes watermark are consulted on each worker's first pop and
//!   then every [`LIMIT_CHECK_CADENCE`] *pops* (evaluations and
//!   gate-skips alike), so a pre-cancelled or zero-budget run evaluates
//!   nothing and a long run of skipped pops can never starve the
//!   timeout;
//! * **the iteration budget** — a global evaluation counter claimed
//!   before each step;
//! * **parking: who unparks whom** — a worker that has run dry yields
//!   for 16 idle turns, then marks itself in the fabric's parked set,
//!   re-checks the fresh queues, its inbox, `pending` and the done
//!   flag, and only then parks. Whoever creates work unparks the
//!   worker it is for: [`WorkerCtx::send`] unparks its target (remote
//!   wakes travel as messages); a push that leaves a fresh queue
//!   holding at least two tasks unparks one parked thief (the owner
//!   pops the first task itself); a stop or quiescence unparks every
//!   worker. A parked worker's own fresh and wake queues are empty —
//!   only it pushes to them — so no other work can be waiting for it.
//!   A producer checks the parked set *after* publishing its work and a
//!   parker re-checks for work *after* marking itself, so at least one
//!   of them sees the other: no wakeup is lost. A park times out after
//!   a quarter of the stall timeout, so the stall watchdog still runs;
//!   `SchedStats::park_timeouts` counts the parks that ended that way;
//! * the stall watchdog, the armed fault plan, the per-worker telemetry
//!   ring, and the [`SchedStats`] accounting for all of the above;
//! * **adaptive inbox drains** — each drain takes a bounded batch sized
//!   by the worker's observed average inbox depth (clamped to
//!   8..=512), then the worker returns to evaluating. Workers that see
//!   deep inboxes take bigger gulps (amortizing the inbox lock);
//!   workers with shallow traffic take small ones, so evaluations — and
//!   the wake coalescing that deferring pinned re-runs buys —
//!   interleave with delivery instead of stalling behind a deep inbox.
//!
//! # What a backend contributes
//!
//! The [`BackendWorker`] hooks are exactly the store-specific residue:
//! how a configuration is deduplicated, homed and epoch-gated against
//! *its* store view, what one evaluation does (step, dependency
//! registration, growth announcement), what an inter-worker message
//! means, and what the store-bytes watermark trims. Two backends
//! implement it: the private-store worker of a one-worker run
//! ([`crate::engine::run_fixpoint`] and every [`crate::pool`] tenant;
//! it sends no messages and never leaves its thread) and the sharded
//! multi-worker backend ([`crate::shardstore`], whose messages route
//! growth, dependency and wake notifications to row owners). The
//! differential suites prove both reach the reference oracle's fixpoint
//! through this one loop.

use crate::engine::{panic_message, CancelToken, EngineLimits, EvalMode, SchedStats, Status};
use crate::telemetry::TraceBuffer;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Poison-recovering locking, used for every mutex the fabric and the
/// sharded store share across workers.
///
/// Every structure guarded this way is join-semilattice data (dedup
/// sets, idempotent joins, FIFO queues of by-value tasks): a panic
/// mid-update can at worst leave a *smaller* value than intended, never
/// a corrupt one, so the data behind a poisoned lock is still soundly
/// usable — a torn write is soundly re-joinable, and an aborted run
/// must be able to drain it into a partial result.
pub(crate) trait LockRecovered<T: ?Sized> {
    /// Locks, unwrapping [`std::sync::PoisonError`] into its guard.
    fn lock_recovered(&self) -> MutexGuard<'_, T>;
}

impl<T: ?Sized> LockRecovered<T> for Mutex<T> {
    fn lock_recovered(&self) -> MutexGuard<'_, T> {
        self.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Pops between cancellation / wall-clock / watermark checks (each
/// worker also checks on its first pop). Keyed on *total* pops
/// (evaluations + gate-skips): a long run of skipped pops must still
/// consult the clock, or it could overrun `time_budget` unnoticed.
pub const LIMIT_CHECK_CADENCE: u64 = 64;

/// Smallest bounded inbox drain.
const MIN_DRAIN_BATCH: usize = 8;

/// Largest bounded inbox drain.
const MAX_DRAIN_BATCH: usize = 512;

/// Idle turns a worker spends yielding before it parks. A short spin
/// keeps a worker that is about to receive work off the park/unpark
/// path, whose two system calls cost more than a few yields.
const IDLE_YIELDS: u32 = 16;

/// A push that leaves a fresh queue at least this deep unparks one
/// parked thief: the queue's owner pops the first task itself, so a
/// thief woken for a lone task would most often find nothing to steal.
const THIEF_WAKE_DEPTH: usize = 2;

/// Parks per stall timeout: a parked worker wakes after a quarter of
/// [`EngineLimits::stall_timeout`] to run the watchdog, so a stall is
/// reported at most a quarter of the threshold late.
const PARKS_PER_STALL_TIMEOUT: u32 = 4;

/// A deterministic fault-injection plan, threaded through cheap atomic
/// hooks in the worker loop (one `Option` branch per pop when unarmed —
/// `engine_bench` pins that this costs nothing).
///
/// Clauses are keyed on exact per-run pop / evaluation counts, so a
/// fault lands at the same logical point on every run regardless of
/// thread interleaving:
///
/// * **panic at evaluation N** (optionally only counting worker W's
///   evaluations) — exercises the panic-isolation path end to end:
///   `catch_unwind`, abort broadcast, drain, join, partial result;
/// * **cancel at pop N** — flips the run's armed [`CancelToken`]
///   (observed by the loop exactly like an external
///   [`EngineLimits::cancel`]), pinning the cancellation-latency bound;
/// * **trim at pop N** — forces a delta-log trim mid-run (watermark 0),
///   exercising the snapshot-loss fallback without memory pressure;
/// * **leak pending at pop N** — deliberately breaks the termination
///   protocol (one phantom pending count), proving the stall watchdog
///   turns a would-be hang into a diagnostic abort.
///
/// A `FaultPlan` is pure clauses — the counters the clauses key on
/// live in the per-run `ArmedFaultPlan` each engine entry point
/// creates. Sharing one plan (or one cloned [`EngineLimits`]) across
/// concurrent runs is therefore safe: each run counts its *own* pops
/// and evaluations and flips its *own* cancel token, so a fault
/// planned against one run can never fire in a pool-mate that merely
/// inherited the same limits.
///
/// Carried on [`EngineLimits::fault_plan`]; the CLI arms one from the
/// `CFA_FAULT_PLAN` environment variable (see [`FaultPlan::parse`]).
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// Panic when the run's (or one worker's) evaluation count reaches
    /// this 1-based value.
    panic_at_eval: Option<u64>,
    /// Restrict the panic clause's counting to this worker id.
    panic_worker: Option<usize>,
    /// Flip the run's cancel token when its pop count reaches this.
    cancel_at_pop: Option<u64>,
    /// Force a watermark-0 delta-log trim at this run pop count.
    trim_at_pop: Option<u64>,
    /// Add one phantom pending count at this run pop count.
    leak_at_pop: Option<u64>,
}

/// Pop-keyed side effects [`FaultPlan::on_pop`] asks the worker loop to
/// perform (the plan itself owns the cancel flip).
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct PopFaults {
    /// Force `enforce_watermark(0)` on this worker now.
    pub trim: bool,
    /// Add one phantom pending count (watchdog test hook).
    pub leak: bool,
}

impl FaultPlan {
    /// An empty plan (no clauses armed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a panic on the `nth` (1-based) counted evaluation.
    pub fn panic_at_eval(mut self, nth: u64) -> Self {
        self.panic_at_eval = Some(nth);
        self
    }

    /// Restricts the panic clause to count only worker `w`'s
    /// evaluations.
    pub fn on_worker(mut self, w: usize) -> Self {
        self.panic_worker = Some(w);
        self
    }

    /// Arms a cancellation at the `nth` (1-based) global pop.
    pub fn cancel_at_pop(mut self, nth: u64) -> Self {
        self.cancel_at_pop = Some(nth);
        self
    }

    /// Arms a forced delta-log trim at the `nth` (1-based) global pop.
    pub fn trim_at_pop(mut self, nth: u64) -> Self {
        self.trim_at_pop = Some(nth);
        self
    }

    /// Arms a phantom pending count at the `nth` (1-based) global pop —
    /// a deliberate termination-protocol violation for exercising the
    /// stall watchdog.
    pub fn leak_pending_at_pop(mut self, nth: u64) -> Self {
        self.leak_at_pop = Some(nth);
        self
    }

    /// Parses the `CFA_FAULT_PLAN` knob: comma-separated `key=value`
    /// clauses, e.g. `panic_eval=40,panic_worker=1` or
    /// `cancel_pop=100`. Keys: `panic_eval`, `panic_worker`,
    /// `cancel_pop`, `trim_pop`, `leak_pop`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause {clause:?} is not key=value"))?;
            let n: u64 = value
                .trim()
                .parse()
                .map_err(|e| format!("clause {clause:?}: {e}"))?;
            match key.trim() {
                "panic_eval" => plan.panic_at_eval = Some(n),
                "panic_worker" => plan.panic_worker = Some(n as usize),
                "cancel_pop" => plan.cancel_at_pop = Some(n),
                "trim_pop" => plan.trim_at_pop = Some(n),
                "leak_pop" => plan.leak_at_pop = Some(n),
                other => return Err(format!("unknown fault clause key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// A [`FaultPlan`] armed for exactly one fixpoint run: the clauses plus
/// the run-private pop/eval counters they key on and the run-private
/// cancel token the `cancel_at_pop` clause flips.
///
/// Every engine entry point (sequential, parallel drive, pool tenant)
/// creates one of these at run entry — never shared across runs — so
/// two concurrent fixpoints cloned from the same [`EngineLimits`]
/// count independently and cannot trigger (or cancel) each other.
#[derive(Debug)]
pub(crate) struct ArmedFaultPlan {
    plan: FaultPlan,
    evals: AtomicU64,
    pops: AtomicU64,
    token: CancelToken,
}

impl ArmedFaultPlan {
    /// Arms `plan` for one run with fresh counters and a fresh token.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        ArmedFaultPlan {
            plan: plan.clone(),
            evals: AtomicU64::new(0),
            pops: AtomicU64::new(0),
            token: CancelToken::new(),
        }
    }

    /// Whether this run's injected `cancel_at_pop` clause has fired.
    /// Checked by the loops' cadenced cancel test alongside the
    /// external [`EngineLimits::cancel`] token.
    pub(crate) fn cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// Pop hook: counts one pop of this run and fires any pop-keyed
    /// clause landing exactly on it. Called by the worker loop once per
    /// pop *only when a plan is armed*.
    pub(crate) fn on_pop(&self) -> PopFaults {
        let n = self.pops.fetch_add(1, Ordering::AcqRel) + 1;
        if self.plan.cancel_at_pop == Some(n) {
            self.token.cancel();
        }
        PopFaults {
            trim: self.plan.trim_at_pop == Some(n),
            leak: self.plan.leak_at_pop == Some(n),
        }
    }

    /// Evaluation hook: counts one evaluation on `worker` and panics
    /// when the armed clause lands on it. Runs *inside* the loop's
    /// `catch_unwind`, so the injected panic takes the exact path a
    /// real transfer-function panic takes.
    pub(crate) fn on_eval(&self, worker: usize) {
        let Some(nth) = self.plan.panic_at_eval else {
            return;
        };
        if self.plan.panic_worker.is_some_and(|w| w != worker) {
            return;
        }
        let n = self.evals.fetch_add(1, Ordering::AcqRel) + 1;
        if n == nth {
            panic!("injected fault: panic at evaluation {nth} (worker {worker})");
        }
    }
}

/// State shared by all workers of one run: the scheduling fabric. `T`
/// is the backend's fresh-task type ([`BackendWorker::Task`]), `M` its
/// inter-worker message type.
#[derive(Debug)]
pub struct Fabric<T, M> {
    /// Per-worker queues of *fresh* (never-evaluated) tasks, already
    /// deduplicated by the backend. Owners push/pop the front; thieves
    /// steal a batch from the back. Wakeups never enter these queues —
    /// they are pinned to the home worker's private queue.
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Per-worker message inboxes (ring buffers: senders push the
    /// back, bounded drains pop the front in O(batch)).
    inboxes: Vec<Mutex<VecDeque<M>>>,
    /// Queued tasks + in-flight evaluations + undelivered messages +
    /// queued wakeups.
    pending: AtomicU64,
    /// Raised once: fixpoint reached or a limit fired.
    done: AtomicBool,
    /// Global evaluation counter (for `max_iterations`).
    evals: AtomicU64,
    /// The limit that stopped the run, if any (first writer wins).
    stop_status: Mutex<Option<Status>>,
    /// Per-worker idle flags and last-published counters, for the stall
    /// watchdog: updated only on idle transitions, so the hot loop pays
    /// nothing.
    meters: Vec<WorkerMeter>,
    /// Milliseconds-since-start (plus one, so zero means "not all
    /// idle") of the moment every worker was first observed idle with
    /// work still pending. Reset whenever any worker finds work.
    all_idle_since: AtomicU64,
    /// The parked set: one slot per worker.
    parked: Vec<ParkSlot>,
}

/// One worker's slot in a fabric's parked set.
#[derive(Debug, Default)]
struct ParkSlot {
    /// Raised by the worker before its last re-check for work; lowered
    /// by whoever unparks it, or by the worker itself when it declines
    /// to park or its park times out.
    parked: AtomicBool,
    /// The worker's thread, registered on its first park — before its
    /// flag is ever raised, so an unparker that sees the flag sees it.
    thread: OnceLock<Thread>,
}

/// How one [`Fabric::park`] ended.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Park {
    /// The re-check after marking found work: the worker never slept.
    Declined,
    /// Someone gave the worker work (or ended the run) and unparked it.
    Unparked,
    /// Nobody unparked the worker before the timeout.
    TimedOut,
}

/// One worker's watchdog mirror: its idle flag plus the scheduling
/// counters it last published (on entering idle — exact at the only
/// moment the watchdog reads them, since an idle worker's counters
/// don't move).
#[derive(Debug, Default)]
struct WorkerMeter {
    idle: AtomicBool,
    pops: AtomicU64,
    iterations: AtomicU64,
    skipped: AtomicU64,
    steals: AtomicU64,
    idle_spins: AtomicU64,
}

impl<T, M> Fabric<T, M> {
    /// An empty fabric for `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        Fabric {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            inboxes: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicU64::new(0),
            done: AtomicBool::new(false),
            evals: AtomicU64::new(0),
            stop_status: Mutex::new(None),
            meters: (0..threads).map(|_| WorkerMeter::default()).collect(),
            all_idle_since: AtomicU64::new(0),
            parked: (0..threads).map(|_| ParkSlot::default()).collect(),
        }
    }

    /// Number of workers this fabric schedules.
    pub fn threads(&self) -> usize {
        self.queues.len()
    }

    /// Seeds the run: queues the root task at worker 0 (the backend
    /// has already recorded the root configuration as seen).
    pub fn submit_root(&self, root: T) {
        self.pending_add();
        self.queues[0].lock_recovered().push_back(root);
    }

    /// Records the limit that stopped the run (first writer wins) and
    /// raises the done flag.
    pub(crate) fn stop(&self, status: Status) {
        self.stop_status.lock_recovered().get_or_insert(status);
        self.raise_done();
    }

    /// Raises the done flag — the run is over, quiescent or stopped —
    /// and unparks every worker so each one sees it. The flag is stored
    /// before the parked set is read, and [`Fabric::park`] raises a
    /// worker's mark before it re-reads the flag (both sequentially
    /// consistent), so a worker cannot sleep through the end of a run.
    fn raise_done(&self) {
        self.done.store(true, Ordering::SeqCst);
        for id in 0..self.threads() {
            self.unpark(id);
        }
    }

    /// Unparks worker `id` if it is parked, returning whether it was.
    /// A producer calls this *after* publishing the work it has for
    /// `id`, which is what makes the parker's re-check sufficient.
    fn unpark(&self, id: usize) -> bool {
        let slot = &self.parked[id];
        let was_parked =
            slot.parked.load(Ordering::SeqCst) && slot.parked.swap(false, Ordering::SeqCst);
        if was_parked {
            slot.thread
                .get()
                .expect("a parked worker has registered its thread")
                .unpark();
        }
        was_parked
    }

    /// Unparks one parked worker other than `id`: a thief for the
    /// fresh tasks `id` has just queued.
    fn unpark_thief(&self, id: usize) {
        let n = self.threads();
        for off in 1..n {
            if self.unpark((id + off) % n) {
                return;
            }
        }
    }

    /// Whether worker `id` has anything to do: the run is over or
    /// quiescent (its next turn stops), its inbox holds a message, or
    /// some fresh queue holds a task it could pop or steal — the
    /// re-check a worker makes after marking itself parked.
    fn has_work(&self, id: usize) -> bool {
        self.done.load(Ordering::SeqCst)
            || self.pending.load(Ordering::Acquire) == 0
            || !self.inboxes[id].lock_recovered().is_empty()
            || self.queues.iter().any(|q| !q.lock_recovered().is_empty())
    }

    /// Parks worker `id` — the calling thread — until another worker
    /// unparks it or `timeout` passes (`None`: no timeout). The worker
    /// first raises its mark in the parked set, then asks `has_work`,
    /// and sleeps only if that finds nothing: work published before the
    /// mark is seen by `has_work`, and a producer that publishes after
    /// it sees the mark and unparks.
    fn park(&self, id: usize, timeout: Option<Duration>, has_work: impl FnOnce() -> bool) -> Park {
        let slot = &self.parked[id];
        let thread = slot.thread.get_or_init(std::thread::current);
        debug_assert_eq!(
            thread.id(),
            std::thread::current().id(),
            "worker {id} parks on its own thread"
        );
        slot.parked.store(true, Ordering::SeqCst);
        if has_work() {
            // A producer may have lowered the mark already and left an
            // unpark token behind; a later park absorbs it as one
            // spurious wakeup.
            slot.parked.store(false, Ordering::SeqCst);
            return Park::Declined;
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        // `park` may return spuriously: only a lowered mark means an
        // unpark.
        while slot.parked.load(Ordering::SeqCst) {
            match deadline {
                None => std::thread::park(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return if slot.parked.swap(false, Ordering::SeqCst) {
                            Park::TimedOut
                        } else {
                            Park::Unparked
                        };
                    }
                    std::thread::park_timeout(deadline - now);
                }
            }
        }
        Park::Unparked
    }

    fn pending_add(&self) {
        self.pending.fetch_add(1, Ordering::AcqRel);
    }

    fn pending_sub(&self) {
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }

    /// Tears the fabric down after all workers have returned: the final
    /// [`Status`]. (The reached configurations are the backend's: each
    /// backend deduplicates its own.)
    ///
    /// # Panics
    ///
    /// On a [`Status::Completed`] run the pending counter must be
    /// exactly zero — queued tasks, in-flight evaluations, undelivered
    /// messages, and queued wakeups have all been released — and this
    /// asserts it: a nonzero count would mean the termination protocol
    /// lost or double-counted work.
    pub fn finish(self) -> Status {
        let status = self
            .stop_status
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .unwrap_or(Status::Completed);
        if status == Status::Completed {
            assert_eq!(
                self.pending.load(Ordering::Acquire),
                0,
                "completed run with nonzero pending: termination protocol broken"
            );
        }
        status
    }

    /// Publishes worker `id`'s counters and marks it idle — called on
    /// each turn of the idle loop, never on the evaluation hot path.
    fn note_idle(&self, id: usize, ctx_pops: u64, sched: &SchedStats, iters: u64, skipped: u64) {
        let m = &self.meters[id];
        m.pops.store(ctx_pops, Ordering::Relaxed);
        m.iterations.store(iters, Ordering::Relaxed);
        m.skipped.store(skipped, Ordering::Relaxed);
        m.steals.store(sched.steals, Ordering::Relaxed);
        m.idle_spins.store(sched.idle_spins, Ordering::Relaxed);
        m.idle.store(true, Ordering::Release);
    }

    /// Marks worker `id` busy again and resets the all-idle stall
    /// clock — called once per idle→busy transition.
    fn note_busy(&self, id: usize) {
        self.meters[id].idle.store(false, Ordering::Release);
        self.all_idle_since.store(0, Ordering::Release);
    }

    /// The stall watchdog: with work still pending and *every* worker
    /// idle, starts (or reads) the all-idle clock; once the state has
    /// persisted past `threshold`, returns the diagnostic dump to abort
    /// with. All-idle-with-pending is terminal — idle workers send no
    /// messages and steal from empty queues, so nothing can wake
    /// anyone — which is exactly why it is safe to call it a bug rather
    /// than latency.
    fn check_stall(&self, threshold: Duration, start: Instant) -> Option<String> {
        if self.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        if !self.meters.iter().all(|m| m.idle.load(Ordering::Acquire)) {
            return None;
        }
        let now = start.elapsed().as_millis() as u64 + 1;
        let since = self.all_idle_since.load(Ordering::Acquire);
        if since == 0 {
            let _ =
                self.all_idle_since
                    .compare_exchange(0, now, Ordering::AcqRel, Ordering::Acquire);
            return None;
        }
        if now.saturating_sub(since) < threshold.as_millis() as u64 {
            return None;
        }
        // Re-validate before aborting: a worker that found work in the
        // meantime has reset the clock.
        if self.all_idle_since.load(Ordering::Acquire) == since
            && self.meters.iter().all(|m| m.idle.load(Ordering::Acquire))
            && self.pending.load(Ordering::Acquire) > 0
        {
            Some(self.stall_dump())
        } else {
            None
        }
    }

    /// The watchdog's diagnostic: the pending count plus, per worker,
    /// the last-published scheduling counters and the live inbox/queue
    /// depths — enough to tell a lost wakeup (pending counted, no queue
    /// holds it) from an undrained inbox or an unpopped queue.
    fn stall_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "stall watchdog: pending={} with all {} workers idle;",
            self.pending.load(Ordering::Acquire),
            self.threads()
        );
        for (id, m) in self.meters.iter().enumerate() {
            let inbox_depth = self.inboxes[id].lock_recovered().len();
            let queue_depth = self.queues[id].lock_recovered().len();
            let _ = write!(
                out,
                " [worker {id}: pops={} iterations={} skipped={} steals={} \
                 idle_spins={} inbox_depth={inbox_depth} queue_depth={queue_depth}]",
                m.pops.load(Ordering::Relaxed),
                m.iterations.load(Ordering::Relaxed),
                m.skipped.load(Ordering::Relaxed),
                m.steals.load(Ordering::Relaxed),
                m.idle_spins.load(Ordering::Relaxed),
            );
        }
        out
    }
}

/// One worker's handle onto the fabric: its identity, the fabric it
/// belongs to, and its loop state. Backends receive `&mut WorkerCtx`
/// in every hook and use it to submit fresh tasks, schedule wakeups,
/// route messages and count their work — they never touch the shared
/// state directly.
#[derive(Debug)]
pub struct WorkerCtx<'f, T, M> {
    id: usize,
    fabric: &'f Fabric<T, M>,
    mode: EvalMode,
    /// The private wake queue and every per-worker counter.
    pub(crate) state: WorkerState,
}

/// The persistent half of a [`WorkerCtx`], detached from the fabric
/// borrow: the private wake queue plus every per-worker counter.
///
/// A worker that runs to quiescence on one thread keeps it inside its
/// [`WorkerCtx`] for the whole loop. A pool tenant runs in bounded
/// quanta on whichever pool worker picks it up next, so between quanta
/// its state is parked ([`WorkerCtx::suspend`]) and rebound to the
/// fabric on the next visit ([`WorkerCtx::resume`]).
#[derive(Debug, Default)]
pub(crate) struct WorkerState {
    /// Pinned re-evaluations of locally homed configurations, by local
    /// index. Worker-private (no lock): only the owner pushes and pops.
    wakes: VecDeque<usize>,
    /// Per local task: whether it sits in `wakes` (set at push, cleared
    /// at pop), so a configuration woken again before its re-run is not
    /// queued twice.
    queued: Vec<bool>,
    /// Wakeups this worker enqueued (local wakes plus delivered remote
    /// ones; a wake that finds its task already queued counts nothing).
    pub(crate) wakeups: u64,
    /// `(address, value)` facts this worker's evaluations added.
    pub(crate) delta_facts: u64,
    /// Application sites this worker processed in narrowed semi-naive
    /// form.
    pub(crate) delta_applies: u64,
    /// Scheduler observability counters.
    sched: SchedStats,
    /// This worker's telemetry ring ([`crate::telemetry`]): the loop
    /// and the backend hooks emit timeline events into it. Costs one
    /// branch per emit when tracing is off.
    pub(crate) trace: TraceBuffer,
    /// Sum of inbox depths observed at each non-empty drain — the
    /// adaptive drain signal (`depth_sum / sched.inbox_drains` is
    /// the average depth this worker actually finds waiting).
    depth_sum: u64,
    iterations: u64,
    skipped: u64,
    /// Pops this worker has taken (evaluations + gate-skips) — keys the
    /// cadenced limit checks and meters a pool tenant's quanta.
    pub(crate) pops: u64,
    /// Whether the last turn ended idle — the next turn that finds work
    /// publishes the idle→busy transition to the stall watchdog.
    was_idle: bool,
}

/// Everything a finished worker contributes to its run's totals — one
/// named field per counter, so a result-assembly site that forgets a
/// field fails to compile instead of silently dropping it.
#[derive(Debug, Default)]
pub struct WorkerTotals {
    /// Evaluations this worker performed.
    pub iterations: u64,
    /// Pops absorbed by the epoch gate.
    pub skipped: u64,
    /// Wakeups this worker enqueued.
    pub wakeups: u64,
    /// Facts this worker's evaluations added.
    pub delta_facts: u64,
    /// Narrowed semi-naive application sites.
    pub delta_applies: u64,
    /// Scheduling counters.
    pub sched: SchedStats,
    /// This worker's telemetry ring, merged into
    /// [`crate::telemetry::RunTrace`] at result assembly.
    pub trace: TraceBuffer,
}

impl WorkerState {
    /// Fresh state carrying `trace` — how every worker starts, a pool
    /// tenant included (its ring is installed before the first resume).
    pub(crate) fn with_trace(trace: TraceBuffer) -> Self {
        WorkerState {
            trace,
            ..WorkerState::default()
        }
    }

    /// Consumes the parked state into the totals a finished run
    /// reports.
    pub(crate) fn into_totals(self) -> WorkerTotals {
        WorkerTotals {
            iterations: self.iterations,
            skipped: self.skipped,
            wakeups: self.wakeups,
            delta_facts: self.delta_facts,
            delta_applies: self.delta_applies,
            sched: self.sched,
            trace: self.trace,
        }
    }
}

impl<'f, T, M> WorkerCtx<'f, T, M> {
    /// Rebinds parked worker state to `fabric` for the next run quantum
    /// (the inverse of [`WorkerCtx::suspend`]).
    pub(crate) fn resume(
        id: usize,
        fabric: &'f Fabric<T, M>,
        mode: EvalMode,
        state: WorkerState,
    ) -> Self {
        WorkerCtx {
            id,
            fabric,
            mode,
            state,
        }
    }

    /// Parks this worker's loop state, releasing the fabric borrow
    /// until the next [`WorkerCtx::resume`].
    pub(crate) fn suspend(self) -> WorkerState {
        self.state
    }

    /// Publishes the idle→busy transition (at most once per idle
    /// stretch) — called whenever a turn finds messages or a task.
    fn note_busy_transition(&mut self) {
        if self.state.was_idle {
            self.fabric.note_busy(self.id);
            self.state.was_idle = false;
        }
    }

    /// This worker's index (0-based; also its shard id under the
    /// sharded backend).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total workers in the run.
    pub fn threads(&self) -> usize {
        self.fabric.threads()
    }

    /// The evaluation mode of the run (semi-naive vs full
    /// re-evaluation).
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Ships `msg` to `target`'s inbox, counting it pending until the
    /// receiver processes it, and unparks `target` if it is parked.
    pub fn send(&self, target: usize, msg: M) {
        self.fabric.pending_add();
        self.fabric.inboxes[target].lock_recovered().push_back(msg);
        self.fabric.unpark(target);
    }

    /// Queues a never-seen task on this worker's stealable queue
    /// (locality first; stealing rebalances). The backend has already
    /// deduplicated it: each configuration is submitted once per run.
    /// A queue that now holds two tasks unparks one parked thief.
    pub fn submit_fresh(&self, task: T) {
        self.fabric.pending_add();
        let depth = {
            let mut queue = self.fabric.queues[self.id].lock_recovered();
            queue.push_back(task);
            queue.len()
        };
        if depth >= THIEF_WAKE_DEPTH {
            self.fabric.unpark_thief(self.id);
        }
    }

    /// Schedules a wakeup of locally homed task `i` — whether the
    /// growth was observed here or a remote wake message delivered it.
    /// A task already waiting in the wake queue is not queued again (its
    /// pending re-run observes this growth too), so `wakeups` counts
    /// enqueues, on the receiving worker.
    pub fn wake_local(&mut self, i: usize) {
        if i >= self.state.queued.len() {
            self.state.queued.resize(i + 1, false);
        }
        if !self.state.queued[i] {
            self.state.queued[i] = true;
            self.state.wakeups += 1;
            self.fabric.pending_add();
            self.state.wakes.push_back(i);
        }
    }

    /// Pops the next pinned re-run, clearing its is-queued flag.
    fn pop_wake(&mut self) -> Option<usize> {
        let i = self.state.wakes.pop_front()?;
        self.state.queued[i] = false;
        Some(i)
    }

    fn pop_local(&self) -> Option<T> {
        self.fabric.queues[self.id].lock_recovered().pop_front()
    }

    /// Steals up to half of a victim's fresh queue (from the back),
    /// keeping one task to run and enqueueing the rest locally. Locks
    /// are never held across each other, so crossed steals cannot
    /// deadlock. Stolen tasks were already counted pending when first
    /// queued — moving them counts nothing.
    fn steal(&mut self) -> Option<T> {
        let n = self.fabric.queues.len();
        for off in 1..n {
            let victim = (self.id + off) % n;
            let mut stolen = {
                let mut q = self.fabric.queues[victim].lock_recovered();
                let len = q.len();
                if len == 0 {
                    continue;
                }
                q.split_off(len - len.div_ceil(2))
            };
            self.state.trace.steal(stolen.len() as u64);
            let first = stolen.pop_front();
            if !stolen.is_empty() {
                let depth = {
                    let mut queue = self.fabric.queues[self.id].lock_recovered();
                    queue.append(&mut stolen);
                    queue.len()
                };
                if depth >= THIEF_WAKE_DEPTH {
                    self.fabric.unpark_thief(self.id);
                }
            }
            self.state.sched.steals += 1;
            return first;
        }
        self.state.sched.failed_steals += 1;
        None
    }

    /// How many messages the next inbox drain may take.
    fn drain_limit(&self) -> usize {
        // Sized by the *observed* inbox depth (what was waiting when
        // this worker drained), never by the delivered batch sizes —
        // those are themselves capped by the limit, and averaging them
        // would pin the limit at MIN_DRAIN_BATCH forever.
        match self
            .state
            .depth_sum
            .checked_div(self.state.sched.inbox_drains)
        {
            None => MIN_DRAIN_BATCH,
            Some(avg) => usize::try_from(avg)
                .unwrap_or(MAX_DRAIN_BATCH)
                .clamp(MIN_DRAIN_BATCH, MAX_DRAIN_BATCH),
        }
    }

    /// Takes one bounded batch from this worker's inbox (FIFO order
    /// preserved; empty when the inbox is), recording the observed
    /// depth and the drain counters.
    fn drain_inbox(&mut self) -> VecDeque<M> {
        let limit = self.drain_limit();
        let mut inbox = self.fabric.inboxes[self.id].lock_recovered();
        let depth = inbox.len();
        if depth == 0 {
            return VecDeque::new();
        }
        self.state.sched.inbox_drains += 1;
        self.state.sched.max_inbox_depth = self.state.sched.max_inbox_depth.max(depth as u64);
        self.state.depth_sum += depth as u64;
        let msgs = if depth <= limit {
            std::mem::take(&mut *inbox)
        } else {
            // Front drain of a ring buffer: O(limit), no shifting of
            // the messages left behind.
            inbox.drain(..limit).collect()
        };
        self.state.sched.inbox_batches += msgs.len() as u64;
        self.state.trace.inbox_drain(msgs.len() as u64);
        msgs
    }
}

/// The store-specific half of a fabric worker: what the fabric's
/// generic driver ([`drive`], [`drive_one`]) calls into.
///
/// Implementations hold the worker's store view and its per-config
/// scheduling state (the seen set, read sets, last-run epochs,
/// dependency lists); the fabric holds everything else. Every hook
/// receives the worker's [`WorkerCtx`] to submit fresh tasks, schedule
/// wakeups, and route messages.
///
/// Nothing here asks for `Send`: a one-worker run ([`drive_one`])
/// stays on the caller's thread. Only [`drive`]'s multi-worker spawn
/// requires the backend, its tasks and its messages to cross threads.
pub trait BackendWorker {
    /// What the fresh-task queues carry for a never-evaluated
    /// configuration: the configuration itself when tasks can be stolen
    /// by another worker, a local index when the worker interns on
    /// discovery.
    type Task;
    /// The backend's inter-worker message: a sharded growth /
    /// dependency / wake routing message ([`std::convert::Infallible`]
    /// for a backend that runs one worker).
    type Msg;

    /// Seeds the worker's store view before the loop starts (e.g. the
    /// Featherweight Java machine pre-binds the `Main` receiver).
    fn seed(&mut self, ctx: &mut WorkerCtx<'_, Self::Task, Self::Msg>);

    /// Homes a fresh or stolen task on this worker, returning its local
    /// index (interning the configuration if the backend has not yet).
    /// Wakeups for it are pinned to this worker from now on.
    fn home(&mut self, task: Self::Task) -> usize;

    /// The epoch gate: `true` when re-evaluating task `i` is provably a
    /// no-op (no address it last read has grown past the epoch that
    /// evaluation observed). A one-worker run with exact dependency
    /// lists never trips it; a sharded run pops stale cross-worker
    /// wakes (a wake that arrives after the re-run it asked for) and
    /// they die here.
    fn gated(&self, i: usize) -> bool;

    /// Evaluates task `i`: step the machine against the store view,
    /// register dependencies (with stale-dep pruning), deduplicate and
    /// submit fresh successors, and announce growth (local wakes +
    /// routed messages).
    fn evaluate(&mut self, i: usize, ctx: &mut WorkerCtx<'_, Self::Task, Self::Msg>);

    /// `Debug`-renders task `i`'s configuration, for
    /// [`Status::Aborted`]'s diagnostic when its evaluation panics.
    fn describe(&self, i: usize) -> String;

    /// Delivers one inter-worker message. The fabric releases the
    /// message's pending count after this returns, so everything the
    /// delivery spawns (wakes, forwarded messages) must be counted
    /// inside.
    fn on_msg(&mut self, msg: Self::Msg, ctx: &mut WorkerCtx<'_, Self::Task, Self::Msg>);

    /// Enforces [`EngineLimits::store_bytes_watermark`], called on the
    /// pop cadence: trim delta logs if the store this worker writes
    /// outgrew `watermark`.
    fn enforce_watermark(&mut self, watermark: usize);
}

/// What one worker hands back from [`drive`]: its backend (store view,
/// machine, backend-specific counters) plus the fabric-accumulated
/// counters.
#[derive(Debug)]
pub struct WorkerReport<B> {
    /// The backend worker, for the caller to drain (store, machine,
    /// counter sums).
    pub backend: B,
    /// The worker's scheduling counters and telemetry ring.
    pub totals: WorkerTotals,
}

/// The unified worker loop — the one place every scheduling invariant
/// lives. See the module docs for the protocol; the order of business
/// each turn is: done flag, inbox (one bounded drain), fresh
/// work, pinned wakeups, steal, termination check / stall watchdog;
/// per pop: fault hooks, cadenced cancel + wall-clock + watermark
/// checks, epoch gate, iteration claim, contained evaluation.
///
/// # Idle turns
///
/// The first [`IDLE_YIELDS`] idle turns of an idle stretch each end in
/// a `yield_now`; every later one parks the worker ([`Fabric::park`])
/// until another worker gives it work or ends the run. The park times
/// out after a quarter of [`EngineLimits::stall_timeout`] (never, with
/// the watchdog off), so an idle worker still runs the stall watchdog;
/// a park that times out counts one `SchedStats::park_timeouts`.
///
/// # Fault containment
///
/// `seed` and `evaluate` — the two hooks that run machine (user) code —
/// execute under `catch_unwind`. A caught panic records
/// [`Status::Aborted`] (naming the panicking configuration and the
/// panic payload) via [`Fabric::stop`], which raises the shared done
/// flag: the *first* worker to observe any stop condition — panic,
/// cancellation, deadline, iteration cap, stall — broadcasts it this
/// way, and every other worker exits at its next loop top without
/// taking another task, so shutdown latency is bounded by one in-flight
/// evaluation per worker. The panicking task's pending count is
/// released before breaking, so the counter stays reconciled; the
/// partial result is assembled from whatever every worker had derived,
/// which by monotonicity is a subset of the true fixpoint.
fn run_worker<B: BackendWorker>(
    mut backend: B,
    mut ctx: WorkerCtx<'_, B::Task, B::Msg>,
    limits: &EngineLimits,
    armed: Option<&ArmedFaultPlan>,
    start: Instant,
) -> WorkerReport<B> {
    seed_worker(&mut backend, &mut ctx);

    let park_timeout = limits
        .stall_timeout
        .map(|stall| stall / PARKS_PER_STALL_TIMEOUT);
    let mut idle_streak: u32 = 0;
    loop {
        match worker_turn(&mut backend, &mut ctx, limits, armed, start) {
            Turn::Stopped => break,
            Turn::Worked => idle_streak = 0,
            Turn::Idle if idle_streak < IDLE_YIELDS => {
                idle_streak += 1;
                std::thread::yield_now();
            }
            Turn::Idle => {
                let (fabric, id) = (ctx.fabric, ctx.id);
                if fabric.park(id, park_timeout, || fabric.has_work(id)) == Park::TimedOut {
                    ctx.state.sched.park_timeouts += 1;
                }
            }
        }
    }

    WorkerReport {
        backend,
        totals: ctx.suspend().into_totals(),
    }
}

/// Seeds `backend`'s store view under `catch_unwind`: a panicking seed
/// records [`Status::Aborted`] exactly like a panicking evaluation.
/// Runs once per worker before its first turn.
pub(crate) fn seed_worker<B: BackendWorker>(
    backend: &mut B,
    ctx: &mut WorkerCtx<'_, B::Task, B::Msg>,
) {
    if let Err(payload) =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| backend.seed(ctx)))
    {
        ctx.fabric.stop(Status::Aborted {
            config: "<seed>".to_owned(),
            message: panic_message(payload.as_ref()),
        });
    }
}

/// What one [`worker_turn`] did.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Turn {
    /// Delivered messages or took a pop — call again immediately.
    Worked,
    /// No message, no pop, and the run is still pending — yield or park
    /// until someone gives this worker work ([`run_worker`]), or, in a
    /// pool, yield this tenant's slot, and call again later.
    Idle,
    /// The run is over: quiescent, limit-stopped, or aborted.
    Stopped,
}

/// One turn of the worker loop: the unit [`run_worker`] iterates to
/// quiescence and the analysis pool replays in bounded quanta. All
/// loop state lives in `ctx`, so a turn is resumable across threads
/// (suspend the ctx to a [`WorkerState`], resume it elsewhere).
pub(crate) fn worker_turn<B: BackendWorker>(
    backend: &mut B,
    ctx: &mut WorkerCtx<'_, B::Task, B::Msg>,
    limits: &EngineLimits,
    armed: Option<&ArmedFaultPlan>,
    start: Instant,
) -> Turn {
    if ctx.fabric.done.load(Ordering::Acquire) {
        return Turn::Stopped;
    }

    // Deliver messages before taking on new evaluations, so local
    // wakeups are scheduled against the freshest store view: one
    // bounded batch, then fall through to evaluate.
    let msgs = ctx.drain_inbox();
    let delivered = !msgs.is_empty();
    if delivered {
        for msg in msgs {
            backend.on_msg(msg, ctx);
            // Only now is the message's own pending released:
            // everything it spawned is already counted.
            ctx.fabric.pending_sub();
        }
        ctx.note_busy_transition();
    }

    // Fresh exploration first — it discovers the configuration
    // space and is the work that can be stolen; pinned re-runs
    // after (deferring them coalesces several growth events into
    // one re-evaluation); stealing only when both are dry.
    let task: Option<usize> = match ctx.pop_local() {
        Some(task) => Some(backend.home(task)),
        None => match ctx.pop_wake() {
            Some(i) => Some(i),
            None => ctx.steal().map(|task| backend.home(task)),
        },
    };
    let Some(i) = task else {
        if delivered {
            // Delivering is work: the rest of a bounded drain may still
            // wait in the inbox, so this worker is not idle.
            return Turn::Worked;
        }
        if ctx.fabric.pending.load(Ordering::Acquire) == 0 {
            ctx.fabric.raise_done();
            return Turn::Stopped;
        }
        // Publish counters and the idle flag for the stall
        // watchdog (idle loop only — the hot path pays nothing),
        // then check whether all-idle-with-pending has persisted
        // past the threshold.
        ctx.fabric.note_idle(
            ctx.id,
            ctx.state.pops,
            &ctx.state.sched,
            ctx.state.iterations,
            ctx.state.skipped,
        );
        ctx.state.was_idle = true;
        if let Some(threshold) = limits.stall_timeout {
            ctx.state.trace.watchdog_tick();
            if let Some(dump) = ctx.fabric.check_stall(threshold, start) {
                ctx.fabric.stop(Status::Aborted {
                    config: Status::STALL_WATCHDOG.to_owned(),
                    message: dump,
                });
                return Turn::Stopped;
            }
        }
        ctx.state.sched.idle_spins += 1;
        return Turn::Idle;
    };
    ctx.note_busy_transition();

    // Limits are consulted on this worker's first pop — so a cancelled
    // token or a spent budget stops the run before it evaluates
    // anything — and then every LIMIT_CHECK_CADENCE pops.
    let check_limits = ctx.state.pops.is_multiple_of(LIMIT_CHECK_CADENCE);
    ctx.state.pops += 1;
    let pop_faults = armed.map(ArmedFaultPlan::on_pop).unwrap_or_default();
    if pop_faults.leak {
        ctx.fabric.pending_add();
    }
    if pop_faults.trim {
        backend.enforce_watermark(0);
    }
    if check_limits {
        let external = limits
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled);
        if external || armed.is_some_and(ArmedFaultPlan::cancelled) {
            ctx.fabric.stop(Status::Cancelled);
            ctx.fabric.pending_sub();
            return Turn::Stopped;
        }
        if let Some(budget) = limits.time_budget {
            if start.elapsed() > budget {
                ctx.fabric.stop(Status::TimedOut);
                ctx.fabric.pending_sub();
                return Turn::Stopped;
            }
        }
        if let Some(watermark) = limits.store_bytes_watermark {
            backend.enforce_watermark(watermark);
        }
    }

    // The epoch gate: a pop whose re-evaluation would be a provable
    // no-op (a stale cross-worker wake that arrived after the re-run
    // it asked for) dies here.
    if backend.gated(i) {
        ctx.state.skipped += 1;
        ctx.state.trace.gate_skip(i as u64);
        ctx.fabric.pending_sub();
        return Turn::Worked;
    }

    if ctx.fabric.evals.fetch_add(1, Ordering::AcqRel) >= limits.max_iterations {
        ctx.fabric.stop(Status::IterationLimit);
        ctx.fabric.pending_sub();
        return Turn::Worked;
    }
    ctx.state.iterations += 1;

    // Contained evaluation: the injected-fault hook runs inside the
    // same catch_unwind as the machine's transfer function, so an
    // injected panic exercises exactly the real abort path. The
    // eval_end event is emitted on the panic path too, so every
    // counted iteration has a complete start/end pair in the trace.
    ctx.state.trace.eval_start(i as u64);
    let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(plan) = armed {
            plan.on_eval(ctx.id);
        }
        backend.evaluate(i, ctx)
    }));
    ctx.state.trace.eval_end(i as u64);
    // Only now is this task's own pending count released:
    // everything it spawned is already counted, so pending == 0
    // implies global quiescence. Released on the panic path too, so
    // an aborted run's counter stays reconciled.
    ctx.fabric.pending_sub();
    if let Err(payload) = evaluated {
        ctx.fabric.stop(Status::Aborted {
            config: backend.describe(i),
            message: panic_message(payload.as_ref()),
        });
        return Turn::Stopped;
    }
    Turn::Worked
}

/// A fresh worker context whose telemetry ring is timed from `start`.
fn fresh_ctx<'f, T, M>(
    id: usize,
    fabric: &'f Fabric<T, M>,
    mode: EvalMode,
    limits: &EngineLimits,
    start: Instant,
) -> WorkerCtx<'f, T, M> {
    let mut trace = TraceBuffer::new(limits.trace);
    trace.set_origin(start);
    WorkerCtx::resume(id, fabric, mode, WorkerState::with_trace(trace))
}

/// Runs the worker of a one-worker fabric to quiescence (or until a
/// limit fires) on the caller's thread — how the sequential engine
/// ([`crate::engine::run_fixpoint`]) runs: deterministic, no spawn
/// cost, and nothing crosses a thread, so the backend need not be
/// `Send`. A lone worker has no one to wait for: it goes idle with
/// work pending only when the termination protocol is broken, and then
/// parks on the stall watchdog's timeout until the watchdog aborts the
/// run.
pub fn drive_one<B: BackendWorker>(
    fabric: &Fabric<B::Task, B::Msg>,
    backend: B,
    mode: EvalMode,
    limits: &EngineLimits,
    start: Instant,
) -> WorkerReport<B> {
    assert_eq!(fabric.threads(), 1, "drive_one runs a one-worker fabric");
    // Arm the fault plan for exactly this run: per-run counters and a
    // per-run cancel token — never shared with another run holding the
    // same limits.
    let armed = limits.fault_plan.as_deref().map(ArmedFaultPlan::new);
    let ctx = fresh_ctx(0, fabric, mode, limits, start);
    run_worker(backend, ctx, limits, armed.as_ref(), start)
}

/// Runs one backend worker per fabric slot to quiescence (or until a
/// limit fires) and returns their reports, in worker order.
/// `backends.len()` must equal [`Fabric::threads`]. A single worker
/// stays on the caller's thread ([`drive_one`]). Of N workers, worker
/// 0 runs on the caller's thread too and workers 1..N on scoped
/// threads — one thread start fewer per run — which is why only this
/// entry point asks the backend, its tasks and its messages to be
/// `Send`.
///
/// Machine panics are contained inside the worker loop, so a worker
/// that panics out of it has hit a fabric bug. The run (and the
/// process) survives that too, on worker 0 as on a spawned worker: the
/// dying worker records [`Status::Aborted`] with config `"<worker>"` at
/// once, the others drain, and its report is lost.
pub fn drive<B>(
    fabric: &Fabric<B::Task, B::Msg>,
    mut backends: Vec<B>,
    mode: EvalMode,
    limits: &EngineLimits,
    start: Instant,
) -> Vec<WorkerReport<B>>
where
    B: BackendWorker + Send,
    B::Task: Send,
    B::Msg: Send,
{
    assert_eq!(
        backends.len(),
        fabric.threads(),
        "one backend worker per fabric slot"
    );
    if backends.len() == 1 {
        let backend = backends.pop().expect("one worker");
        return vec![drive_one(fabric, backend, mode, limits, start)];
    }
    // One armed plan per run, shared by reference across this run's
    // workers only.
    let armed = limits.fault_plan.as_deref().map(ArmedFaultPlan::new);
    let armed = armed.as_ref();
    std::thread::scope(|scope| {
        let mut workers = backends.drain(..).enumerate();
        let (_, first) = workers.next().expect("a multi-worker run");
        let handles: Vec<_> = workers
            .map(|(id, backend)| {
                let ctx = fresh_ctx(id, fabric, mode, limits, start);
                scope.spawn(move || run_contained(backend, ctx, limits, armed, start))
            })
            .collect();
        let ctx = fresh_ctx(0, fabric, mode, limits, start);
        let first = run_contained(first, ctx, limits, armed, start);
        let rest = handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        });
        std::iter::once(first).chain(rest).flatten().collect()
    })
}

/// Runs one worker of a multi-worker run, turning a panic out of the
/// worker loop into an abort of the run.
///
/// Machine panics are contained inside the loop, so a panic that
/// escapes it is a fabric bug. The run (and the process) must survive
/// it all the same: the dying worker records [`Status::Aborted`] with
/// config `"<worker>"` *at once*, on its own thread, so the other
/// workers see the done flag and drain instead of waiting for work it
/// will never release. Its report (its store view, its counters) is
/// lost; the partial result is assembled from the survivors.
fn run_contained<B: BackendWorker>(
    backend: B,
    ctx: WorkerCtx<'_, B::Task, B::Msg>,
    limits: &EngineLimits,
    armed: Option<&ArmedFaultPlan>,
    start: Instant,
) -> Option<WorkerReport<B>> {
    let fabric = ctx.fabric;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_worker(backend, ctx, limits, armed, start)
    }))
    .map_err(|payload| {
        fabric.stop(Status::Aborted {
            config: "<worker>".to_owned(),
            message: panic_message(payload.as_ref()),
        })
    })
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend whose tasks do nothing and whose messages are recorded
    /// in delivery order.
    #[derive(Default)]
    struct Recorder {
        delivered: Vec<u32>,
    }

    impl BackendWorker for Recorder {
        type Task = u32;
        type Msg = u32;

        fn seed(&mut self, _ctx: &mut WorkerCtx<'_, u32, u32>) {}

        fn home(&mut self, task: u32) -> usize {
            task as usize
        }

        fn gated(&self, _i: usize) -> bool {
            false
        }

        fn evaluate(&mut self, _i: usize, _ctx: &mut WorkerCtx<'_, u32, u32>) {}

        fn describe(&self, i: usize) -> String {
            i.to_string()
        }

        fn on_msg(&mut self, msg: u32, _ctx: &mut WorkerCtx<'_, u32, u32>) {
            self.delivered.push(msg);
        }

        fn enforce_watermark(&mut self, _watermark: usize) {}
    }

    /// A worker with no task but a deep inbox is busy until the inbox
    /// is empty: each bounded drain is a worked turn, never an idle
    /// spin, so the worker never yields or parks while the rest of its
    /// drain waits in its inbox.
    #[test]
    fn a_turn_that_delivers_messages_is_work() {
        let fabric: Fabric<u32, u32> = Fabric::new(2);
        let limits = EngineLimits::default();
        let start = Instant::now();
        let sender = fresh_ctx(1, &fabric, EvalMode::SemiNaive, &limits, start);
        let sent = 3 * MIN_DRAIN_BATCH as u32 + 1;
        for msg in 0..sent {
            sender.send(0, msg);
        }
        let mut ctx = fresh_ctx(0, &fabric, EvalMode::SemiNaive, &limits, start);
        let mut backend = Recorder::default();
        let mut turns = 0;
        while !fabric.inboxes[0].lock_recovered().is_empty() {
            let turn = worker_turn(&mut backend, &mut ctx, &limits, None, start);
            turns += 1;
            assert_eq!(turn, Turn::Worked, "turn {turns} delivered messages");
            assert_eq!(ctx.state.sched.idle_spins, 0, "turn {turns}");
        }
        assert!(
            turns > 1,
            "the first drain is bounded, so it takes {turns} turns"
        );
        assert_eq!(backend.delivered, (0..sent).collect::<Vec<_>>());
        assert_eq!(
            worker_turn(&mut backend, &mut ctx, &limits, None, start),
            Turn::Stopped,
            "every message delivered: the run is quiescent"
        );
    }

    /// Spins until `flag` is set — the tests' rendezvous. Bounded, so a
    /// broken protocol fails the test instead of hanging it.
    fn await_flag(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !flag.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "rendezvous timed out");
            std::thread::yield_now();
        }
    }

    /// A fabric with one phantom pending count — an evaluation still in
    /// flight on worker 1 — so a re-check that finds nothing finds
    /// nothing because the queues and inboxes are empty, not because
    /// the run is quiescent.
    fn busy_fabric() -> Fabric<u32, u32> {
        let fabric = Fabric::new(2);
        fabric.pending_add();
        fabric
    }

    /// The race a parked set must survive, forced: worker 0 has looked
    /// at its inbox and found it empty, and only then does a producer
    /// send it a message and check the parked set — before worker 0
    /// has marked itself parked. The producer sees no mark and unparks
    /// no one, so the re-check worker 0 makes after marking itself must
    /// find the message and decline to sleep. Without that re-check
    /// the message would wait out the whole park timeout.
    #[test]
    fn a_worker_that_parks_after_the_producer_checked_sees_the_work() {
        let fabric = busy_fabric();
        let limits = EngineLimits::default();
        let start = Instant::now();
        let (looked, sent) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|scope| {
            let parker = scope.spawn(|| {
                assert!(fabric.inboxes[0].lock_recovered().is_empty());
                looked.store(true, Ordering::Release);
                await_flag(&sent);
                fabric.park(0, Some(Duration::from_secs(2)), || fabric.has_work(0))
            });
            await_flag(&looked);
            let producer = fresh_ctx(1, &fabric, EvalMode::SemiNaive, &limits, start);
            producer.send(0, 7);
            sent.store(true, Ordering::Release);
            assert_eq!(parker.join().expect("parker"), Park::Declined);
        });
    }

    /// The other order of the same race, forced for every way work or
    /// the end of a run reaches a worker: worker 0 marks itself parked
    /// and re-checks, finding nothing, and only then does the producer
    /// act and check the parked set. The producer must see the mark and
    /// unpark worker 0, which wakes at once rather than at its timeout.
    #[test]
    fn a_producer_that_checks_after_the_mark_unparks_the_worker() {
        type Produce = fn(&WorkerCtx<'_, u32, u32>);
        let producers: [(&str, Produce); 4] = [
            ("a message", |p| p.send(0, 7)),
            ("a stealable task", |p| {
                p.submit_fresh(1);
                p.submit_fresh(2);
            }),
            ("a stop", |p| p.fabric.stop(Status::Cancelled)),
            ("quiescence", |p| p.fabric.raise_done()),
        ];
        let limits = EngineLimits::default();
        for (what, produce) in producers {
            let fabric = busy_fabric();
            let start = Instant::now();
            let (rechecked, produced) = (AtomicBool::new(false), AtomicBool::new(false));
            std::thread::scope(|scope| {
                let parker = scope.spawn(|| {
                    fabric.park(0, Some(Duration::from_secs(2)), || {
                        let found = fabric.has_work(0);
                        rechecked.store(true, Ordering::Release);
                        await_flag(&produced);
                        found
                    })
                });
                await_flag(&rechecked);
                produce(&fresh_ctx(1, &fabric, EvalMode::SemiNaive, &limits, start));
                produced.store(true, Ordering::Release);
                assert_eq!(parker.join().expect("parker"), Park::Unparked, "{what}");
            });
        }
    }

    /// A lone task is its owner's to pop: queueing it wakes no thief.
    /// Only the second task in the queue does.
    #[test]
    fn a_thief_is_unparked_for_the_second_queued_task() {
        let fabric = busy_fabric();
        let limits = EngineLimits::default();
        let producer = fresh_ctx(1, &fabric, EvalMode::SemiNaive, &limits, Instant::now());
        let slot = &fabric.parked[0];
        slot.thread.get_or_init(std::thread::current);
        slot.parked.store(true, Ordering::SeqCst);
        producer.submit_fresh(1);
        assert!(slot.parked.load(Ordering::SeqCst), "one queued task");
        producer.submit_fresh(2);
        assert!(!slot.parked.load(Ordering::SeqCst), "two queued tasks");
    }

    /// A park nobody answers ends at its timeout, and says so.
    #[test]
    fn an_unanswered_park_times_out() {
        let fabric = busy_fabric();
        let park = fabric.park(0, Some(Duration::from_millis(10)), || fabric.has_work(0));
        assert_eq!(park, Park::TimedOut);
        assert!(!fabric.parked[0].parked.load(Ordering::SeqCst));
    }

    /// A backend whose root task sends one message to the worker it
    /// names, and whose message handler panics: a panic out of the
    /// worker loop, i.e. a fabric bug, not a machine panic.
    struct PanicOnMessage;

    impl BackendWorker for PanicOnMessage {
        type Task = usize;
        type Msg = ();

        fn seed(&mut self, _ctx: &mut WorkerCtx<'_, usize, ()>) {}

        fn home(&mut self, target: usize) -> usize {
            target
        }

        fn gated(&self, _i: usize) -> bool {
            false
        }

        fn evaluate(&mut self, target: usize, ctx: &mut WorkerCtx<'_, usize, ()>) {
            ctx.send(target, ());
        }

        fn describe(&self, i: usize) -> String {
            i.to_string()
        }

        fn on_msg(&mut self, _msg: (), ctx: &mut WorkerCtx<'_, usize, ()>) {
            panic!("fabric fault on worker {}", ctx.id());
        }

        fn enforce_watermark(&mut self, _watermark: usize) {}
    }

    /// A panic out of the worker loop aborts the run as `"<worker>"` —
    /// on worker 0, which runs on the caller's thread, exactly as on a
    /// spawned worker — and the survivors drain promptly instead of
    /// idling until the stall watchdog fires.
    #[test]
    fn a_panic_out_of_the_worker_loop_aborts_the_run() {
        for target in [0, 1] {
            let fabric: Fabric<usize, ()> = Fabric::new(2);
            fabric.submit_root(target);
            let start = Instant::now();
            let reports = drive(
                &fabric,
                vec![PanicOnMessage, PanicOnMessage],
                EvalMode::SemiNaive,
                &EngineLimits::default(),
                start,
            );
            assert_eq!(reports.len(), 1, "worker {target}'s report is lost");
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "worker {target}: the survivor drained late"
            );
            let Status::Aborted { config, message } = fabric.finish() else {
                panic!("worker {target}: expected Aborted");
            };
            assert_eq!(config, "<worker>");
            assert!(
                message.contains(&format!("fabric fault on worker {target}")),
                "{message}"
            );
        }
    }
}
