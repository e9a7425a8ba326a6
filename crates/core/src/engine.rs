//! A delta-driven worklist engine for single-threaded-store abstract
//! interpreters.
//!
//! The transfer function of §3.7 re-runs *every* reachable configuration
//! whenever the store grows. This engine implements the standard
//! refinement — re-enqueue only the dependents of addresses whose flow
//! sets grew — on top of the interned, zero-copy store representation of
//! [`crate::store`]. A sequential run is a **one-worker
//! [`crate::fabric`] run**: the fabric's one worker loop schedules it
//! (fresh configurations before pinned re-runs, deduplicated wakeups,
//! limit checks, fault hooks, telemetry, the stall watchdog), and the
//! private-store worker defined here — the same one every
//! [`crate::pool`] tenant runs — contributes the store-specific half:
//!
//! * configurations are interned to dense indices on discovery, and
//!   **dependency sets are plain `Vec`s indexed by interned address id**
//!   (no hashing on the scheduling path);
//! * a step's recorded reads are **deduplicated** before dependency
//!   registration, and each dependency list stays sorted/unique;
//! * dependency lists are **pruned**: when a configuration's read set
//!   shrinks on re-evaluation, it is removed from the dependent lists of
//!   the addresses it no longer reads, so growth of a dropped address
//!   cannot re-enqueue it for nothing;
//! * every configuration remembers the store **epoch** at its last
//!   evaluation; a popped configuration whose read addresses have not
//!   grown past that epoch is skipped outright (its re-evaluation would
//!   be a provable no-op). With exact (pruned) dependency lists and the
//!   fabric's is-queued wake flags, every one-worker wakeup is
//!   justified, so a one-worker run never trips this gate; sharded runs
//!   use it to drop stale cross-worker wakes;
//! * joins report the **delta of newly added value ids**, surfaced in
//!   [`FixpointResult::delta_facts`] — the amount of real lattice growth
//!   the run performed, as opposed to raw join calls;
//! * re-evaluations are **semi-naive**: the engine hands the machine the
//!   store epoch of the configuration's last evaluation (its
//!   *baseline*), and [`TrackedStore::read_with_delta`] splits every
//!   read into `(all, new)` — the full flow set plus the values added
//!   since the baseline. Machines use the split at application sites to
//!   join `new closures × all args ∪ old closures × new args` instead
//!   of the full product (the Datalog semi-naive rule instantiated for
//!   transfer functions). First visits and snapshot loss
//!   ([`crate::store::AbsStore::trim_delta_logs`]) degrade to `new =
//!   all`, i.e. full re-evaluation; [`EvalMode::FullReeval`] forces
//!   that degradation everywhere, which is the pre-semi-naive engine,
//!   kept selectable for differential tests and benchmarks.
//!
//! The computed fixpoint is identical to the naive §3.7 transfer and to
//! the original clone-based engine (the fixed point of a monotone
//! function is unique); only the iteration order differs. The retained
//! original engine in [`crate::reference`] — a separate loop on purpose,
//! so it stays an independent oracle — and the differential tests in
//! `tests/engine_differential.rs` enforce exactly that.
//!
//! The engine is generic over the abstract machine — the CPS k-CFA,
//! m-CFA / polynomial-k-CFA, and Featherweight Java analyzers all drive
//! their transitions through it.

use crate::fabric::{self, BackendWorker, Fabric, WorkerCtx, WorkerTotals};
use crate::fxhash::FxHashMap;
use crate::store::{AbsStore, Flow, FlowSet};
use std::collections::hash_map::Entry;
use std::convert::Infallible;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// An abstract transition system with a single-threaded store.
pub trait AbstractMachine {
    /// A configuration: the store-less part of an abstract state (e.g.
    /// `(call, β̂, t̂)` for k-CFA). `Debug` is required so a panicking
    /// evaluation can name the configuration in [`Status::Aborted`].
    type Config: Clone + Eq + Hash + std::fmt::Debug;
    /// Abstract addresses.
    type Addr: Clone + Eq + Hash;
    /// Abstract values.
    type Val: Clone + Eq + Hash + Ord;

    /// The initial configuration `ς̂₀`.
    fn initial(&self) -> Self::Config;

    /// Seeds the store before exploration begins (e.g. the Featherweight
    /// Java machine pre-allocates the `Main` receiver and the halt
    /// continuation). Default: nothing.
    fn seed(&mut self, store: &mut TrackedStore<'_, Self::Addr, Self::Val>) {
        let _ = store;
    }

    /// Computes the successors of `config`, reading and joining through
    /// `store` (which records dependencies), pushing successors into
    /// `out`.
    fn step(
        &mut self,
        config: &Self::Config,
        store: &mut TrackedStore<'_, Self::Addr, Self::Val>,
        out: &mut Vec<Self::Config>,
    );

    /// Drops state that only speeds up [`AbstractMachine::step`]. The
    /// private-store worker calls it when its run is over, so a finished
    /// machine kept for its metrics (a pooled result waits for its
    /// in-order reply) holds no more than those. Default: nothing.
    fn release_caches(&mut self) {}
}

/// A borrowed machine is a machine: the sequential entry points drive
/// the caller's machine in place ([`run_fixpoint`] takes `&mut M`)
/// through the same private-store worker a pool tenant drives its owned
/// machine through.
impl<M: AbstractMachine> AbstractMachine for &mut M {
    type Config = M::Config;
    type Addr = M::Addr;
    type Val = M::Val;

    fn initial(&self) -> Self::Config {
        (**self).initial()
    }

    fn seed(&mut self, store: &mut TrackedStore<'_, Self::Addr, Self::Val>) {
        (**self).seed(store);
    }

    fn step(
        &mut self,
        config: &Self::Config,
        store: &mut TrackedStore<'_, Self::Addr, Self::Val>,
        out: &mut Vec<Self::Config>,
    ) {
        (**self).step(config, store, out);
    }

    fn release_caches(&mut self) {
        (**self).release_caches();
    }
}

/// A flow set split against a configuration's baseline epoch: the full
/// current set plus the part that arrived after the baseline.
///
/// On a first visit (or after snapshot loss) `new` equals `all`, so
/// semi-naive code degrades to a full evaluation without a special
/// case. `new` always over-approximates the truly unseen values —
/// re-processing an already-seen value is a harmless idempotent join —
/// and both flows are sorted id sets.
#[derive(Clone, Debug)]
pub struct DeltaFlow {
    /// The full current flow set.
    pub all: Flow,
    /// The values added since the reader's baseline (== `all` when no
    /// baseline applies).
    pub new: Flow,
}

impl DeltaFlow {
    /// The empty split (`⊥`/`⊥`).
    pub fn empty() -> Self {
        DeltaFlow {
            all: Flow::empty(),
            new: Flow::empty(),
        }
    }

    /// Wraps a machine-*constructed* flow (literals, λ-closures, primop
    /// results): new on a first (full) visit, already-seen on
    /// re-evaluations — the same construction flowed last time.
    pub fn constructed(flow: Flow, first_visit: bool) -> Self {
        let new = if first_visit {
            flow.clone()
        } else {
            Flow::empty()
        };
        DeltaFlow { all: flow, new }
    }

    /// Upgrades this closure flow to all-new when every id in
    /// `results` is new: the reader's previous evaluation may then have
    /// produced no results at all, in which case the closures here were
    /// never applied and must receive the full product rather than the
    /// semi-naive narrowing. (If a previous evaluation *did* have
    /// results, at least one old id survives in `results.all` — unless
    /// every old id also re-arrived through a new source, where the
    /// upgrade is a harmless idempotent over-approximation.)
    pub fn upgraded_if_all_new(self, results: &DeltaFlow) -> DeltaFlow {
        if results.new.len() == results.all.len() {
            DeltaFlow {
                all: self.all.clone(),
                new: self.all,
            }
        } else {
            self
        }
    }

    /// Whether anything new arrived since the baseline.
    pub fn has_new(&self) -> bool {
        !self.new.is_empty()
    }

    /// Whether `id` is part of the post-baseline growth.
    pub fn is_new(&self, id: u32) -> bool {
        self.new.contains(id)
    }
}

/// A store view that records which addresses were read (for dependency
/// tracking) and which grew (to schedule re-analysis).
///
/// Reads hand out zero-copy [`Flow`] views; joins are id-level sorted
/// merges. Use [`TrackedStore::val`] to resolve an id from a flow back
/// to the abstract value it denotes. When the engine re-evaluates a
/// configuration it sets the view's *baseline* — the store epoch of the
/// configuration's previous evaluation — which powers the semi-naive
/// [`TrackedStore::read_with_delta`] split.
///
/// The view is backend-polymorphic: the one-worker private-store worker
/// (sequential runs and pool tenants) wraps a private [`AbsStore`]; the
/// sharded parallel workers wrap a [`crate::shardstore::ShardView`]
/// onto the globally shared store (reads snapshot any row, writes go
/// through the shared row, and growth notifications route to the row's
/// owner shard). Machines see one API either way.
#[derive(Debug)]
pub struct TrackedStore<'a, A, V> {
    view: View<'a, A, V>,
    delta_facts: u64,
    delta_applies: u64,
}

#[derive(Debug)]
enum View<'a, A, V> {
    Local(LocalView<'a, A, V>),
    Shard(crate::shardstore::ShardView<'a, A, V>),
}

/// The single-owner backend: a mutable borrow of one [`AbsStore`].
#[derive(Debug)]
struct LocalView<'a, A, V> {
    store: &'a mut AbsStore<A, V>,
    /// Epoch of the reader's last complete evaluation (None: first
    /// visit, or delta evaluation disabled).
    baseline: Option<u64>,
    reads: Vec<u32>,
    grew: Vec<u32>,
    delta: Vec<u32>,
}

impl<'a, A: Eq + Hash + Clone, V: Eq + Hash + Clone + Ord> TrackedStore<'a, A, V> {
    /// Wraps `store` reusing caller-provided scratch buffers (the
    /// private-store worker recycles its own across steps).
    pub(crate) fn wrap(
        store: &'a mut AbsStore<A, V>,
        baseline: Option<u64>,
        reads: Vec<u32>,
        grew: Vec<u32>,
        delta: Vec<u32>,
    ) -> Self {
        TrackedStore {
            view: View::Local(LocalView {
                store,
                baseline,
                reads,
                grew,
                delta,
            }),
            delta_facts: 0,
            delta_applies: 0,
        }
    }

    /// Wraps a sharded worker's view of the global store.
    pub(crate) fn wrap_shard(view: crate::shardstore::ShardView<'a, A, V>) -> Self {
        TrackedStore {
            view: View::Shard(view),
            delta_facts: 0,
            delta_applies: 0,
        }
    }

    /// Disassembles a local view into its tracking state: `(reads,
    /// grew, delta, delta_facts, delta_applies)`.
    pub(crate) fn into_parts(self) -> (Vec<u32>, Vec<u32>, Vec<u32>, u64, u64) {
        match self.view {
            View::Local(v) => (
                v.reads,
                v.grew,
                v.delta,
                self.delta_facts,
                self.delta_applies,
            ),
            View::Shard(_) => unreachable!("into_parts is the local-backend accessor"),
        }
    }

    /// Disassembles a sharded view: `(shard view, delta_facts,
    /// delta_applies)`.
    pub(crate) fn into_shard_parts(self) -> (crate::shardstore::ShardView<'a, A, V>, u64, u64) {
        match self.view {
            View::Shard(v) => (v, self.delta_facts, self.delta_applies),
            View::Local(_) => unreachable!("into_shard_parts is the sharded-backend accessor"),
        }
    }

    /// Reads the flow set at `addr`, recording the dependency.
    pub fn read(&mut self, addr: &A) -> Flow {
        match &mut self.view {
            View::Local(v) => {
                let id = v.store.addr_id(addr);
                v.reads.push(id);
                v.store.flow_by_id(id)
            }
            View::Shard(v) => v.read(addr),
        }
    }

    /// Reads the flow set at `addr` split against the baseline: the
    /// full set and the values added since this configuration's last
    /// evaluation. Records the dependency exactly like
    /// [`TrackedStore::read`].
    ///
    /// Without a baseline (first visit, [`EvalMode::FullReeval`]) or
    /// when the store's delta logs were trimmed past the baseline,
    /// `new == all`.
    pub fn read_with_delta(&mut self, addr: &A) -> DeltaFlow {
        match &mut self.view {
            View::Local(v) => {
                let id = v.store.addr_id(addr);
                v.reads.push(id);
                let all = v.store.flow_by_id(id);
                let new = match v.baseline {
                    Some(epoch) => v
                        .store
                        .delta_flow_since(id, epoch)
                        .unwrap_or_else(|| all.clone()),
                    None => all.clone(),
                };
                DeltaFlow { all, new }
            }
            View::Shard(v) => v.read_with_delta(addr),
        }
    }

    /// Whether this evaluation has no usable baseline — machines must
    /// treat every value as new (full evaluation).
    pub fn first_visit(&self) -> bool {
        match &self.view {
            View::Local(v) => v.baseline.is_none(),
            View::Shard(v) => v.first_visit(),
        }
    }

    /// Records one application site processed in narrowed (semi-naive)
    /// form — i.e. an already-seen closure paired only with argument
    /// deltas, or skipped outright. Surfaced as
    /// [`FixpointResult::delta_applies`].
    pub fn note_delta_apply(&mut self) {
        self.delta_applies += 1;
    }

    /// Joins values into `addr`, recording growth.
    pub fn join(&mut self, addr: &A, values: impl IntoIterator<Item = V>) {
        let ids: Vec<u32> = values.into_iter().map(|v| self.intern(v)).collect();
        self.join_flow(addr, &Flow::from_ids(ids));
    }

    /// Joins an id-level flow into `addr` — the zero-copy path for
    /// "copy the values at one address to another".
    pub fn join_flow(&mut self, addr: &A, flow: &Flow) {
        match &mut self.view {
            View::Local(v) => {
                let id = v.store.addr_id(addr);
                v.delta.clear();
                if v.store.join_ids(id, flow.ids(), &mut v.delta) {
                    v.grew.push(id);
                    self.delta_facts += v.delta.len() as u64;
                }
            }
            View::Shard(v) => {
                self.delta_facts += v.join_ids(addr, flow.ids());
            }
        }
    }

    /// Resolves a value id from a [`Flow`] to the value it denotes.
    pub fn val(&self, id: u32) -> &V {
        match &self.view {
            View::Local(v) => v.store.val(id),
            View::Shard(v) => v.val(id),
        }
    }

    /// Interns a value, returning its id (for building result flows).
    pub fn intern(&mut self, value: V) -> u32 {
        match &mut self.view {
            View::Local(v) => v.store.val_id(value),
            View::Shard(v) => v.intern(value),
        }
    }

    /// Materializes a flow into a value set (for machine-side metric
    /// accumulators; not a hot-path operation).
    pub fn materialize(&self, flow: &Flow) -> FlowSet<V> {
        match &self.view {
            View::Local(v) => v.store.materialize(flow),
            View::Shard(v) => v.materialize(flow),
        }
    }

    /// Reads without recording a dependency. Use only for metrics, never
    /// for values that influence successor computation.
    pub fn peek(&self, addr: &A) -> Flow {
        match &self.view {
            View::Local(v) => v.store.read_flow(addr),
            View::Shard(v) => v.peek(addr),
        }
    }
}

/// How woken configurations are re-evaluated.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum EvalMode {
    /// Semi-naive: re-evaluations receive a baseline epoch, so
    /// delta-aware machines join only the growth (the default).
    #[default]
    SemiNaive,
    /// Full re-evaluation: no baseline is ever passed, so every
    /// evaluation behaves like a first visit. This is exactly the
    /// pre-semi-naive engine; differential tests and `engine_bench`
    /// run it against [`EvalMode::SemiNaive`] to prove the fixpoints
    /// match and measure the saved join traffic.
    FullReeval,
}

/// Why the engine stopped.
///
/// Every non-[`Completed`](Status::Completed) status still comes with a
/// well-formed *partial* [`FixpointResult`]: the store holds only facts
/// the transfer functions legitimately derived, so by monotonicity it
/// is a subset of the completed run's fixpoint (`tests/faults.rs` pins
/// exactly that).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Status {
    /// The least fixed point was reached.
    Completed,
    /// The iteration budget was exhausted first.
    IterationLimit,
    /// The wall-clock deadline passed first.
    TimedOut,
    /// The run observed its [`CancelToken`] and stopped cooperatively.
    Cancelled,
    /// The run was aborted: a transfer function panicked (caught and
    /// contained — the process and sibling runs survive), or the stall
    /// watchdog detected a hung scheduler.
    Aborted {
        /// `Debug` rendering of the configuration whose evaluation
        /// panicked; [`Status::STALL_WATCHDOG`] when the stall watchdog
        /// fired instead.
        config: String,
        /// The panic payload (or the watchdog's diagnostic dump).
        message: String,
    },
}

impl Status {
    /// The sentinel `config` of an [`Status::Aborted`] raised by the
    /// stall watchdog rather than a panicking evaluation.
    pub const STALL_WATCHDOG: &'static str = "<stall-watchdog>";

    /// Whether the analysis ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, Status::Completed)
    }

    /// Whether the run was aborted (panic or watchdog) — the one status
    /// that signals a *fault* rather than an exhausted budget or an
    /// external request.
    pub fn is_aborted(&self) -> bool {
        matches!(self, Status::Aborted { .. })
    }
}

/// A shared cooperative-cancellation flag.
///
/// Clone it freely: all clones observe the same flag. Hand one to a run
/// via [`EngineLimits::cancel`] and flip it from any thread with
/// [`CancelToken::cancel`]; the run stops with [`Status::Cancelled`] at
/// its next pop-keyed limit check, returning the usual well-formed
/// partial result.
///
/// ```
/// use cfa_core::engine::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.cancelled
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// Resource limits (and scheduling knobs) for a run.
///
/// # Examples
///
/// Limits compose with struct-update syntax; the default is unbounded:
///
/// ```
/// use cfa_core::engine::EngineLimits;
/// use std::time::Duration;
///
/// let limits = EngineLimits {
///     max_iterations: 10_000,
///     time_budget: Some(Duration::from_secs(5)),
///     ..EngineLimits::default()
/// };
/// assert_eq!(limits.max_iterations, 10_000);
/// assert_eq!(EngineLimits::default().max_iterations, u64::MAX);
/// assert_eq!(EngineLimits::iterations(100).max_iterations, 100);
/// ```
#[derive(Clone, Debug)]
pub struct EngineLimits {
    /// Maximum number of configuration evaluations.
    pub max_iterations: u64,
    /// Optional wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Optional cooperative-cancellation token, checked at the same
    /// pop-keyed cadence as the wall clock. `None` (the default) means
    /// the run is not externally cancellable.
    pub cancel: Option<CancelToken>,
    /// Stall-watchdog threshold: if the pending counter stays nonzero
    /// while *every* worker is idle for longer than this, the run
    /// aborts with a diagnostic dump instead of hanging forever
    /// ([`Status::Aborted`] with [`Status::STALL_WATCHDOG`]).
    /// All-idle-with-work-pending is a terminal state — idle workers
    /// send no messages, so nothing can wake them — hence a true
    /// scheduler bug, never normal latency. Every engine but the
    /// reference oracle runs on the fabric and honors it (a sequential
    /// run is a one-worker fabric). `None` disables the watchdog.
    pub stall_timeout: Option<Duration>,
    /// Optional deterministic fault plan
    /// ([`crate::fabric::FaultPlan`]): injected panics, forced
    /// cancellation, and forced delta-log trims, keyed on exact pop and
    /// evaluation counts. `None` (the default) arms nothing and costs
    /// one branch per pop.
    pub fault_plan: Option<std::sync::Arc<crate::fabric::FaultPlan>>,
    /// Optional store-bytes watermark: when the (approximate) bytes
    /// held by a store's **delta logs** — the portion a trim reclaims,
    /// tracked incrementally so the check is O(1) — exceed this, the
    /// logs are trimmed ([`AbsStore::trim_delta_logs`]) to reclaim the
    /// doubled-row memory. Configurations whose semi-naive baseline
    /// predates the trim hit the snapshot-loss fallback and soundly
    /// re-evaluate in full (`new == all`). `None` (the default) never
    /// trims.
    pub store_bytes_watermark: Option<usize>,
    /// Telemetry configuration ([`crate::telemetry::TraceConfig`]):
    /// off (the default — one dead branch per would-be event),
    /// counters only, or full per-worker event rings merged into
    /// [`FixpointResult::trace`]. The CLI reads it from `CFA_TRACE`.
    pub trace: crate::telemetry::TraceConfig,
}

impl Default for EngineLimits {
    fn default() -> Self {
        EngineLimits {
            max_iterations: u64::MAX,
            time_budget: None,
            cancel: None,
            stall_timeout: Some(Duration::from_secs(30)),
            fault_plan: None,
            store_bytes_watermark: None,
            trace: crate::telemetry::TraceConfig::default(),
        }
    }
}

impl EngineLimits {
    /// A limit of `max_iterations` configuration evaluations.
    pub fn iterations(max_iterations: u64) -> Self {
        EngineLimits {
            max_iterations,
            ..Self::default()
        }
    }

    /// A wall-clock budget.
    pub fn timeout(budget: Duration) -> Self {
        EngineLimits {
            time_budget: Some(budget),
            ..Self::default()
        }
    }

    /// A store-bytes watermark above which delta logs are trimmed.
    pub fn store_watermark(bytes: usize) -> Self {
        EngineLimits {
            store_bytes_watermark: Some(bytes),
            ..Self::default()
        }
    }

    /// Unbounded limits observing `token` — the run stops with
    /// [`Status::Cancelled`] once the token is flipped.
    pub fn cancellable(token: CancelToken) -> Self {
        EngineLimits {
            cancel: Some(token),
            ..Self::default()
        }
    }

    /// Limits read from the environment, for operational entry points
    /// (the CLI): `CFA_MAX_ITERS` (evaluation budget),
    /// `CFA_TIME_BUDGET_MS` (wall-clock budget in milliseconds),
    /// `CFA_FAULT_PLAN` (a deterministic fault plan — see
    /// [`crate::fabric::FaultPlan::parse`]; a `cancel_pop=N` clause
    /// flips the run's own armed token, which every engine observes
    /// exactly like an external [`CancelToken`]), and `CFA_TRACE`
    /// (`off` / `counters` / `full` — see
    /// [`crate::telemetry::TraceConfig::parse`]). Unset variables leave
    /// the default (unbounded, tracing off); a malformed value is an
    /// error naming the variable and its text, since silently ignoring
    /// an operator's budget would be worse.
    pub fn try_from_env() -> Result<Self, String> {
        let mut limits = Self::default();
        if let Some(n) = env_knob("CFA_MAX_ITERS", str::parse::<u64>)? {
            limits.max_iterations = n;
        }
        if let Some(ms) = env_knob("CFA_TIME_BUDGET_MS", str::parse::<u64>)? {
            limits.time_budget = Some(Duration::from_millis(ms));
        }
        if let Some(plan) = env_knob("CFA_FAULT_PLAN", crate::fabric::FaultPlan::parse)? {
            limits.fault_plan = Some(std::sync::Arc::new(plan));
        }
        if let Some(trace) = env_knob("CFA_TRACE", crate::telemetry::TraceConfig::try_parse)? {
            limits.trace = trace;
        }
        Ok(limits)
    }

    /// [`EngineLimits::try_from_env`], panicking with its error.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Reads the environment variable `name` through `parse`: `None` when
/// it is unset, and an error naming the variable and its text when
/// `parse` rejects it.
pub(crate) fn env_knob<T, E: std::fmt::Display>(
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Ok(v) => parse(&v)
            .map(Some)
            .map_err(|e| format!("{name}={v:?}: {e}")),
        Err(_) => Ok(None),
    }
}

/// Scheduler observability counters, accumulated across workers.
///
/// Every engine but the reference oracle runs on the fabric and fills
/// these in. Messages and steals flow only between the workers of a
/// sharded run: a one-worker run (sequential or pool tenant) has no
/// victim to steal from, so it reports zero steals and traffic, and
/// one failed steal per time its queues ran dry — once, on a normal
/// completion. All counters are totals over the whole run except
/// `max_inbox_depth`, which is the deepest single inbox drain any
/// worker performed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Successful steals (a task taken from another worker's queue).
    pub steals: u64,
    /// Steal attempts that scanned every victim and found nothing.
    pub failed_steals: u64,
    /// Idle loop iterations with no task, no message, and no steal.
    pub idle_spins: u64,
    /// Inter-worker messages processed (the sharded backend's growth,
    /// dependency and wake messages).
    pub inbox_batches: u64,
    /// Non-empty inbox drains performed (`inbox_batches /
    /// inbox_drains` is the average batch one drain delivered; the
    /// fabric sizes its bounded drains by the average *observed*
    /// depth, which delivered batch sizes under-report once the bound
    /// kicks in).
    pub inbox_drains: u64,
    /// Deepest inbox observed at any single drain (messages waiting,
    /// whether or not that drain delivered them all).
    pub max_inbox_depth: u64,
    /// Approximate store-resident bytes at quiescence: the private
    /// store of a sequential run or pool tenant, the single shared store
    /// of a sharded run.
    pub store_resident_bytes: u64,
}

impl SchedStats {
    /// Folds one worker's counters into the run totals.
    pub(crate) fn absorb(&mut self, other: &SchedStats) {
        self.steals += other.steals;
        self.failed_steals += other.failed_steals;
        self.idle_spins += other.idle_spins;
        self.inbox_batches += other.inbox_batches;
        self.inbox_drains += other.inbox_drains;
        self.max_inbox_depth = self.max_inbox_depth.max(other.max_inbox_depth);
        self.store_resident_bytes += other.store_resident_bytes;
    }
}

/// The engine's output: reached configurations, final store, statistics.
#[derive(Debug)]
pub struct FixpointResult<C, A, V> {
    /// All reached configurations: in discovery order on a one-worker
    /// run (sequential or pool tenant), in no particular order on a
    /// sharded run.
    pub configs: Vec<C>,
    /// The final single-threaded store.
    pub store: AbsStore<A, V>,
    /// Why the run stopped.
    pub status: Status,
    /// Number of configuration evaluations (including re-evaluations).
    pub iterations: u64,
    /// Popped configurations skipped because no read address had grown
    /// past their last-evaluation epoch. Zero for every monotone
    /// machine on a one-worker run ([`run_fixpoint`], pool tenants):
    /// pruned dependency lists and deduplicated wake queues make each
    /// wakeup exact. Positive on sharded runs, where a wake can arrive
    /// from another worker after the re-run it asked for.
    pub skipped: u64,
    /// Dependent re-enqueues caused by address growth (wakeups). A
    /// configuration woken again while already queued counts once. The
    /// stale-dependency regression tests count these.
    pub wakeups: u64,
    /// Total `(address, value)` facts added across all joins — the real
    /// lattice growth (compare with the raw join count in the store).
    pub delta_facts: u64,
    /// Application sites processed in narrowed semi-naive form (an
    /// already-seen closure paired with argument deltas only, or
    /// skipped because nothing it reads grew). Zero under
    /// [`EvalMode::FullReeval`] and for machines that never call
    /// [`TrackedStore::note_delta_apply`].
    pub delta_applies: u64,
    /// Scheduler observability: steals, idle spins, message traffic,
    /// and approximate store-resident bytes.
    pub sched: SchedStats,
    /// Wall-clock time of the run — counted from the run's *first
    /// evaluation quantum*, not from submission, so a pool-queued run's
    /// wait never eats its `time_budget`.
    pub elapsed: Duration,
    /// Time the run spent admission-queued before its first quantum.
    /// Always zero for the direct (non-pooled) entry points, which
    /// start executing at submission; the analysis pool records the
    /// submission→activation gap here, *outside* `elapsed` and the
    /// time-budget clock.
    pub queue_wait: Duration,
    /// The merged per-worker telemetry rings
    /// ([`crate::telemetry::RunTrace`]): one lane per worker under
    /// `CFA_TRACE=full`, counters only under `counters`, empty (zero
    /// lanes) when tracing was off.
    pub trace: crate::telemetry::RunTrace,
}

impl<C, A, V> FixpointResult<C, A, V> {
    /// Number of distinct configurations reached.
    pub fn config_count(&self) -> usize {
        self.configs.len()
    }
}

/// Renders a caught panic payload for [`Status::Aborted`]: `panic!`
/// with a literal yields `&str`, formatted panics yield `String`,
/// anything else gets a placeholder.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The private-store worker of a one-worker [`crate::fabric`] run: the
/// backend of the sequential engine ([`run_fixpoint`], over a borrowed
/// machine) and of every [`crate::pool`] tenant (over an owned one).
///
/// It owns its machine, a private [`AbsStore`] and the scheduling
/// tables — configurations interned in discovery order, dependency
/// lists with pruning, read sets, last-run epochs. Fresh successors are
/// deduplicated through its own config index and queued by index, so
/// one worker owns everything: reads and writes never cross a thread
/// and no message is ever sent ([`Infallible`]).
pub(crate) struct SoloWorker<M: AbstractMachine> {
    machine: M,
    store: AbsStore<M::Addr, M::Val>,
    configs: Vec<M::Config>,
    index: FxHashMap<M::Config, usize>,
    /// Dependents of each address, indexed by interned address id; each
    /// list is sorted and duplicate-free.
    deps: Vec<Vec<usize>>,
    /// Per config: the read set of its last evaluation and the store
    /// epoch that evaluation started at (None = never evaluated).
    config_reads: Vec<Vec<u32>>,
    last_run_epoch: Vec<Option<u64>>,
    /// Successor scratch, recycled across evaluations.
    successors: Vec<M::Config>,
    /// Tracking-buffer scratch (reads, grew, delta), recycled likewise.
    bufs: (Vec<u32>, Vec<u32>, Vec<u32>),
}

impl<M: AbstractMachine> SoloWorker<M> {
    /// A one-worker fabric with `machine`'s initial configuration
    /// queued, and the worker that runs it.
    pub(crate) fn fabric(machine: M) -> (Fabric<usize, Infallible>, Self) {
        let root = machine.initial();
        let mut worker = SoloWorker {
            machine,
            store: AbsStore::new(),
            configs: Vec::new(),
            index: FxHashMap::default(),
            deps: Vec::new(),
            config_reads: Vec::new(),
            last_run_epoch: Vec::new(),
            successors: Vec::new(),
            bufs: Default::default(),
        };
        let fabric = Fabric::new(1);
        let root = worker
            .intern(root)
            .expect("the first configuration is fresh");
        fabric.submit_root(root);
        (fabric, worker)
    }

    /// Interns `cfg`, returning its index if it was never seen before.
    fn intern(&mut self, cfg: M::Config) -> Option<usize> {
        match self.index.entry(cfg) {
            Entry::Occupied(_) => None,
            Entry::Vacant(slot) => {
                let i = self.configs.len();
                self.configs.push(slot.key().clone());
                slot.insert(i);
                self.config_reads.push(Vec::new());
                self.last_run_epoch.push(None);
                Some(i)
            }
        }
    }

    /// Registers config `i` in the dependency lists of its
    /// just-recorded read set (`bufs.0`) and prunes it from the lists of
    /// addresses it no longer reads.
    ///
    /// The raw reads are sorted and deduped here, swapped into
    /// `config_reads[i]` as the config's read set for the epoch gate,
    /// and the previous read set comes back as scratch. Without the
    /// pruning walk, dep lists are insert-only and growth of a dropped
    /// address re-enqueues the config for a guaranteed no-op.
    fn register_deps(&mut self, i: usize) {
        let reads = &mut self.bufs.0;
        reads.sort_unstable();
        reads.dedup();
        // Prune dropped addresses: walk the previous read set (sorted,
        // unique) against the new one and deregister this config from
        // every address it no longer reads.
        let mut ni = 0;
        for &a in &self.config_reads[i] {
            while ni < reads.len() && reads[ni] < a {
                ni += 1;
            }
            if ni < reads.len() && reads[ni] == a {
                continue;
            }
            if let Some(dependents) = self.deps.get_mut(a as usize) {
                if let Ok(pos) = dependents.binary_search(&i) {
                    dependents.remove(pos);
                }
            }
        }
        for &a in reads.iter() {
            if self.deps.len() <= a as usize {
                self.deps.resize_with(a as usize + 1, Vec::new);
            }
            let dependents = &mut self.deps[a as usize];
            if let Err(pos) = dependents.binary_search(&i) {
                dependents.insert(pos, i);
            }
        }
        std::mem::swap(&mut self.config_reads[i], reads);
    }

    /// Assembles the finished run from this worker and the fabric's
    /// totals: the machine comes back as is, and the store *is* the
    /// fixpoint, moved out as is.
    pub(crate) fn into_result(
        mut self,
        status: Status,
        totals: WorkerTotals,
        elapsed: Duration,
        queue_wait: Duration,
    ) -> crate::pool::PoolRun<M> {
        let WorkerTotals {
            iterations,
            skipped,
            wakeups,
            delta_facts,
            delta_applies,
            mut sched,
            trace,
        } = totals;
        sched.store_resident_bytes = self.store.approx_bytes() as u64;
        self.machine.release_caches();
        let fixpoint = FixpointResult {
            configs: self.configs,
            store: self.store,
            status,
            iterations,
            skipped,
            wakeups,
            delta_facts,
            delta_applies,
            sched,
            elapsed,
            queue_wait,
            trace: crate::telemetry::RunTrace::from_buffers(vec![trace]),
        };
        crate::pool::PoolRun {
            machine: self.machine,
            fixpoint,
        }
    }
}

impl<M: AbstractMachine> BackendWorker for SoloWorker<M> {
    type Task = usize;
    type Msg = Infallible;

    fn seed(&mut self, _ctx: &mut WorkerCtx<'_, usize, Infallible>) {
        let mut tracked =
            TrackedStore::wrap(&mut self.store, None, Vec::new(), Vec::new(), Vec::new());
        self.machine.seed(&mut tracked);
    }

    /// Configurations are interned on discovery, so a task already is
    /// its local index.
    fn home(&mut self, task: usize) -> usize {
        task
    }

    fn gated(&self, i: usize) -> bool {
        match self.last_run_epoch[i] {
            Some(epoch) => self.config_reads[i]
                .iter()
                .all(|&a| self.store.addr_epoch(a) <= epoch),
            None => false,
        }
    }

    /// Evaluates one configuration (by index): step, dependency
    /// registration with pruning, successor dedup, wakeups.
    fn evaluate(&mut self, i: usize, ctx: &mut WorkerCtx<'_, usize, Infallible>) {
        let epoch_at_start = self.store.epoch();
        let config = self.configs[i].clone();
        let mut successors = std::mem::take(&mut self.successors);
        let (reads, grew, delta) = &mut self.bufs;
        reads.clear();
        grew.clear();
        // The baseline for semi-naive reads: the epoch this config's
        // previous evaluation started at. FullReeval withholds it, so
        // delta-aware machines degrade to the full product.
        let baseline = match ctx.mode() {
            EvalMode::SemiNaive => self.last_run_epoch[i],
            EvalMode::FullReeval => None,
        };
        let mut tracked = TrackedStore::wrap(
            &mut self.store,
            baseline,
            std::mem::take(reads),
            std::mem::take(grew),
            std::mem::take(delta),
        );
        self.machine.step(&config, &mut tracked, &mut successors);
        let (reads, grew, delta, step_delta, step_applies) = tracked.into_parts();
        self.bufs = (reads, grew, delta);
        ctx.state.delta_facts += step_delta;
        ctx.state.delta_applies += step_applies;
        self.last_run_epoch[i] = Some(epoch_at_start);

        self.register_deps(i);

        for succ in successors.drain(..) {
            if let Some(j) = self.intern(succ) {
                ctx.submit_fresh(j);
            }
        }
        self.successors = successors;

        let grew = &mut self.bufs.1;
        grew.sort_unstable();
        grew.dedup();
        let before = ctx.state.wakeups;
        for &a in grew.iter() {
            if let Some(dependents) = self.deps.get(a as usize) {
                for &j in dependents {
                    ctx.wake_local(j);
                }
            }
        }
        let woken = ctx.state.wakeups - before;
        if woken > 0 {
            ctx.state.trace.wake_batch(woken);
        }
    }

    fn describe(&self, i: usize) -> String {
        format!("{:?}", self.configs[i])
    }

    fn on_msg(&mut self, msg: Infallible, _ctx: &mut WorkerCtx<'_, usize, Infallible>) {
        match msg {}
    }

    fn enforce_watermark(&mut self, watermark: usize) {
        if self.store.delta_log_bytes() > watermark {
            self.store.trim_delta_logs();
        }
    }
}

/// Runs `machine` to its least fixed point (or until a limit fires),
/// with semi-naive re-evaluation ([`EvalMode::SemiNaive`]).
///
/// # Examples
///
/// ```
/// use cfa_core::engine::{run_fixpoint, EngineLimits, Status};
/// use cfa_core::kcfa::KCfaMachine;
///
/// let p = cfa_syntax::compile("((lambda (x) x) 1)").unwrap();
/// let r = run_fixpoint(&mut KCfaMachine::new(&p, 1), EngineLimits::default());
/// assert_eq!(r.status, Status::Completed);
/// assert!(r.store.fact_count() > 0, "the identity application binds x");
/// ```
pub fn run_fixpoint<M: AbstractMachine>(
    machine: &mut M,
    limits: EngineLimits,
) -> FixpointResult<M::Config, M::Addr, M::Val> {
    run_fixpoint_with(machine, limits, EvalMode::SemiNaive)
}

/// Runs `machine` to its least fixed point under an explicit
/// [`EvalMode`]. The computed fixpoint is mode-independent (it is the
/// unique least fixed point); the mode only changes how much work
/// re-evaluations redo.
///
/// The run is a one-worker [`crate::fabric`] run on the caller's
/// thread: [`fabric::drive_one`] schedules the machine's private-store
/// worker, and the worker's store is the result.
pub fn run_fixpoint_with<M: AbstractMachine>(
    machine: &mut M,
    limits: EngineLimits,
    mode: EvalMode,
) -> FixpointResult<M::Config, M::Addr, M::Val> {
    let start = Instant::now();
    let (fabric, worker) = SoloWorker::fabric(machine);
    let report = fabric::drive_one(&fabric, worker, mode, &limits, start);
    let status = fabric.finish();
    report
        .backend
        .into_result(status, report.totals, start.elapsed(), Duration::ZERO)
        .fixpoint
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy machine: configs are integers 0..n; config i writes i to
    /// address i % 3 and steps to i+1; config n reads address 0.
    struct Counter {
        n: u32,
    }

    impl AbstractMachine for Counter {
        type Config = u32;
        type Addr = u32;
        type Val = u32;

        fn initial(&self) -> u32 {
            0
        }

        fn step(
            &mut self,
            config: &u32,
            store: &mut TrackedStore<'_, u32, u32>,
            out: &mut Vec<u32>,
        ) {
            let c = *config;
            if c < self.n {
                store.join(&(c % 3), [c]);
                out.push(c + 1);
            } else {
                // Terminal config reads address 0, so it re-runs whenever
                // address 0 grows; the fixpoint must still terminate.
                let _ = store.read(&0);
            }
        }
    }

    #[test]
    fn reaches_fixpoint() {
        let mut m = Counter { n: 10 };
        let r = run_fixpoint(&mut m, EngineLimits::default());
        assert_eq!(r.status, Status::Completed);
        assert_eq!(r.config_count(), 11);
        assert_eq!(r.store.read(&0), [0u32, 3, 6, 9].into_iter().collect());
    }

    #[test]
    fn iteration_limit_fires() {
        let mut m = Counter { n: 1_000_000 };
        let r = run_fixpoint(&mut m, EngineLimits::iterations(100));
        assert_eq!(r.status, Status::IterationLimit);
        assert!(r.iterations <= 100);
    }

    #[test]
    fn timeout_fires() {
        struct Spin;
        impl AbstractMachine for Spin {
            type Config = u64;
            type Addr = u64;
            type Val = u64;
            fn initial(&self) -> u64 {
                0
            }
            fn step(&mut self, c: &u64, _s: &mut TrackedStore<'_, u64, u64>, out: &mut Vec<u64>) {
                std::thread::sleep(Duration::from_millis(1));
                out.push(c + 1);
            }
        }
        let r = run_fixpoint(&mut Spin, EngineLimits::timeout(Duration::from_millis(50)));
        assert_eq!(r.status, Status::TimedOut);
    }

    #[test]
    fn dependents_rerun_on_store_growth() {
        /// Config 0 reads addr 0 and, per value v seen, writes v+1 to
        /// addr 0 (capped) — convergence requires re-running config 0.
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
                    out.push(1);
                } else {
                    let seen = s.read(&0);
                    let next: Vec<u8> = seen
                        .iter()
                        .map(|id| *s.val(id))
                        .filter(|&v| v < 5)
                        .map(|v| v + 1)
                        .collect();
                    s.join(&0, next);
                }
            }
        }
        let r = run_fixpoint(&mut Feedback, EngineLimits::default());
        assert_eq!(r.status, Status::Completed);
        assert_eq!(r.store.read(&0), (1u8..=5).collect());
    }

    #[test]
    fn delta_facts_count_real_growth() {
        let mut m = Counter { n: 9 };
        let r = run_fixpoint(&mut m, EngineLimits::default());
        // Each of 0..9 lands once in one of three flow sets: 9 new facts.
        assert_eq!(r.delta_facts, 9);
        assert_eq!(r.store.fact_count(), 9);
    }

    /// Address 0 is a "mode" cell, address 1 a "noise" cell. The root
    /// config reads the mode and — only while the mode is still empty —
    /// also reads the noise cell; once the marker lands its read set
    /// shrinks to `{mode}`. A chain of follow-up configs then grows the
    /// noise cell repeatedly.
    struct ShrinkingReader {
        noise: u8,
    }

    impl AbstractMachine for ShrinkingReader {
        type Config = u8;
        type Addr = u8;
        type Val = u8;

        fn initial(&self) -> u8 {
            0
        }

        fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
            match *c {
                0 => {
                    let mode = s.read(&0);
                    if mode.is_empty() {
                        let _ = s.read(&1);
                    }
                    out.push(1);
                }
                1 => {
                    s.join(&0, [1u8]);
                    out.push(2);
                }
                n if n < 2 + self.noise => {
                    s.join(&1, [100 + n]);
                    out.push(n + 1);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn shrunk_read_sets_are_pruned_from_dep_lists() {
        // Regression test for insert-only dependency lists: before the
        // pruning fix, every noise-cell growth re-woke the root config
        // (wakeups = 1 + noise, each wakeup then epoch-gate-skipped).
        // With pruning, the root is deregistered from the noise cell the
        // moment its read set shrinks, so the only wakeup is the
        // justified one from the mode-cell marker.
        let noise = 8;
        let r = run_fixpoint(&mut ShrinkingReader { noise }, EngineLimits::default());
        assert_eq!(r.status, Status::Completed);
        assert_eq!(r.wakeups, 1, "only the mode-marker wakeup is justified");
        assert_eq!(
            r.skipped, 0,
            "no spurious wakeups left for the gate to absorb"
        );
        // The root ran twice (initial + marker wakeup); the chain configs
        // once each; the terminal config once.
        assert_eq!(r.iterations, 1 + (2 + noise as u64) + 1);
        assert_eq!(r.store.read(&1).len(), noise as usize);
    }

    /// A delta-aware copier fed in two waves. Configs `1..=writes` grow
    /// address 0 one value at a time (wave one); config 100 semi-naively
    /// copies **only the delta** of address 0 into address 1; config 50
    /// echoes each wave-one value `v` it finds in address 1 back into
    /// address 0 as `v + 100` (wave two). The fabric runs fresh
    /// configurations first, so all of wave one lands before the
    /// copier's first re-run; wave two exists only *because* of that
    /// re-run and reaches the copier through a second one. If the engine
    /// ever hands the copier a wrong baseline — or the store loses part
    /// of a delta — address 1 ends up a strict subset of address 0.
    struct DeltaCopier {
        writes: u8,
        /// Evaluations of the copier (config 100).
        copies: u32,
    }

    impl DeltaCopier {
        fn new(writes: u8) -> Self {
            DeltaCopier { writes, copies: 0 }
        }

        /// Both waves: `1..=writes` and their echoes.
        fn fixpoint(&self) -> FlowSet<u8> {
            (1..=self.writes).flat_map(|v| [v, v + 100]).collect()
        }
    }

    impl AbstractMachine for DeltaCopier {
        type Config = u8;
        type Addr = u8;
        type Val = u8;

        fn initial(&self) -> u8 {
            0
        }

        fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
            match *c {
                0 => out.extend([100, 50, 1]),
                100 => {
                    self.copies += 1;
                    let d = s.read_with_delta(&0);
                    s.join_flow(&1, &d.new);
                }
                50 => {
                    let copied = s.read(&1);
                    let echoes: Vec<u8> = copied
                        .iter()
                        .map(|id| *s.val(id))
                        .filter(|&v| v <= self.writes)
                        .map(|v| v + 100)
                        .collect();
                    s.join(&0, echoes);
                }
                c if c <= self.writes => {
                    s.join(&0, [c]);
                    out.push(c + 1);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn semi_naive_delta_copy_reaches_the_full_fixpoint() {
        let mut m = DeltaCopier::new(9);
        let r = run_fixpoint(&mut m, EngineLimits::default());
        assert_eq!(r.status, Status::Completed);
        assert_eq!(r.store.read(&0), m.fixpoint());
        assert_eq!(
            r.store.read(&1),
            r.store.read(&0),
            "delta copies must accumulate to the full set"
        );
        // First visit (empty), one re-run per wave: wave one arrives
        // whole, wave two only after the first re-run produced it.
        assert_eq!(m.copies, 3, "the copier re-ran once per wave");
        // The copier and the echo are each woken twice; every other
        // configuration runs once.
        assert_eq!(r.wakeups, 4);
        assert_eq!(r.skipped, 0, "one-worker wakeups are exact");
        assert_eq!(r.iterations, r.config_count() as u64 + r.wakeups);
    }

    #[test]
    fn eval_modes_compute_identical_fixpoints() {
        let semi = run_fixpoint_with(
            &mut DeltaCopier::new(9),
            EngineLimits::default(),
            EvalMode::SemiNaive,
        );
        let full = run_fixpoint_with(
            &mut DeltaCopier::new(9),
            EngineLimits::default(),
            EvalMode::FullReeval,
        );
        assert_eq!(semi.store.read(&0), full.store.read(&0));
        assert_eq!(semi.store.read(&1), full.store.read(&1));
        assert_eq!(semi.configs, full.configs, "identical exploration order");
        assert_eq!(semi.iterations, full.iterations, "identical scheduling");
        assert_eq!(semi.delta_facts, full.delta_facts, "same lattice growth");
        // Semi-naive feeds strictly fewer value ids through joins: the
        // copier's wave-two re-run joins only the echoes, while under
        // FullReeval it re-joins wave one as well.
        assert!(
            semi.store.value_join_count() < full.store.value_join_count(),
            "semi-naive {} !< full {}",
            semi.store.value_join_count(),
            full.store.value_join_count()
        );
    }

    #[test]
    fn snapshot_loss_degrades_delta_reads_to_full() {
        let mut store: AbsStore<u8, u8> = AbsStore::new();
        store.join(0, [1, 2]);
        let lost_baseline = 0u64; // predates the growth below the trim
        store.trim_delta_logs();
        let kept_baseline = store.epoch();
        store.join(0, [3]);
        {
            let mut t = TrackedStore::wrap(
                &mut store,
                Some(lost_baseline),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            );
            let d = t.read_with_delta(&0);
            assert_eq!(d.all.len(), 3);
            assert_eq!(d.new.len(), 3, "snapshot loss must degrade to new == all");
        }
        {
            let mut t = TrackedStore::wrap(
                &mut store,
                Some(kept_baseline),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            );
            let d = t.read_with_delta(&0);
            assert_eq!(d.all.len(), 3);
            assert_eq!(
                d.new.len(),
                1,
                "post-trim baselines keep exact deltas: {:?}",
                d.new
            );
        }
    }

    #[test]
    fn full_reeval_never_passes_a_baseline() {
        struct AssertFirst {
            evals: u32,
        }
        impl AbstractMachine for AssertFirst {
            type Config = u8;
            type Addr = u8;
            type Val = u8;
            fn initial(&self) -> u8 {
                0
            }
            fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
                assert!(s.first_visit(), "FullReeval must withhold the baseline");
                self.evals += 1;
                match *c {
                    0 => {
                        let _ = s.read(&0);
                        out.push(1);
                    }
                    1 => s.join(&0, [1u8]),
                    _ => {}
                }
            }
        }
        let mut m = AssertFirst { evals: 0 };
        let r = run_fixpoint_with(&mut m, EngineLimits::default(), EvalMode::FullReeval);
        assert_eq!(r.status, Status::Completed);
        assert!(m.evals >= 3, "config 0 re-ran after the growth");
    }

    #[test]
    fn limit_cut_config_stays_queued_semantics() {
        // With a budget of exactly the config count minus one, the last
        // config must be reported as IterationLimit — not silently
        // dropped (the pre-pop limit check).
        let mut m = Counter { n: 5 };
        let full = run_fixpoint(&mut m, EngineLimits::default());
        let needed = full.iterations;
        let mut m2 = Counter { n: 5 };
        let cut = run_fixpoint(&mut m2, EngineLimits::iterations(needed - 1));
        assert_eq!(cut.status, Status::IterationLimit);
        let mut m3 = Counter { n: 5 };
        let exact = run_fixpoint(&mut m3, EngineLimits::iterations(needed));
        assert_eq!(exact.status, Status::Completed);
    }
}
