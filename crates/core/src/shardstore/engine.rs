//! The sharded parallel fixpoint engine: N workers race monotonically
//! on **one** [`SharedStore`]. Scheduling (steal discipline, pinned
//! wakeups, termination, limit checks) is the generic [`crate::fabric`]
//! loop; this module contributes the store-specific half
//! ([`fabric::BackendWorker`]).
//!
//! # How work and facts move
//!
//! Configurations are sharded by **first touch**: a fresh configuration
//! is deduplicated once, globally, through the run's hash-sharded
//! seen set that every worker shares, entered into a stealable
//! queue, and becomes *homed* at
//! whichever worker first evaluates it — its read set and last-run
//! epochs live only there, and every re-evaluation (wakeup) is pinned
//! to that home. Only never-evaluated configurations migrate between
//! workers, so no evaluation is ever repeated elsewhere. On the store
//! side:
//!
//! * **reads** go straight to the shared store from any thread
//!   (epoch-stamped snapshots under a per-row mutex, epoch gates on a
//!   lock-free atomic);
//! * **writes** go through the shared row from any thread (the row
//!   mutex serializes them), so a worker's successors immediately read
//!   the arguments their parent just bound — the property that keeps
//!   the evaluation count in the sequential engine's regime. A fact is
//!   interned once and joined once, so store memory is O(program), not
//!   O(program × threads). What *is* routed to the shard that owns a
//!   grown row is the **growth notification** (`Msg::Grew`) —
//!   addresses, never facts;
//! * **dependents are indexed at the row's owner**: after an
//!   evaluation, the home worker registers `(worker, config)` in the
//!   owner's dependency lists (`Msg::Deps`), and growth wakes exactly
//!   the registered dependents, point-to-point (`Msg::Wakes`) —
//!   never every worker.
//!
//! # The stale-snapshot race
//!
//! A reader can snapshot a row, and the owner can grow that row and
//! wake its *current* dependents before the reader's registration
//! arrives. Registrations therefore carry the epoch the reader
//! observed; the owner compares it against the row's current epoch when
//! it processes the registration and immediately wakes the reader if
//! the row has moved past it. Every read is thus covered: growth before
//! the read is in the snapshot, growth after it either finds the
//! dependent registered or is caught by the registration-time check.
//! (`tests/store_backends.rs` forces this interleaving with a
//! rendezvous machine.)
//!
//! # Semi-naive deltas on a shared store
//!
//! A configuration's baseline is not one global epoch (racy on a shared
//! store — a concurrent owner may publish growth stamped below a
//! just-read counter) but the **per-row epochs its last evaluation
//! observed**, recorded under the same lock as each snapshot. Delta
//! reads answer "what landed after the epoch I actually saw", served
//! from the owner-written per-row delta logs.
//!
//! # Termination and result
//!
//! The fabric's single pending counter carries over unchanged: queued
//! tasks + in-flight evaluations + undelivered messages + queued
//! wakeups; `pending == 0` observed by an idle worker proves global
//! quiescence. The shared store *is* the fixpoint; it drains into an
//! ordinary [`crate::store::AbsStore`] without re-interning a value.

use super::store::{ShardBufs, ShardView, SharedStore};
use crate::engine::{EngineLimits, EvalMode, FixpointResult, SchedStats, TrackedStore};
use crate::fabric::{self, Fabric, LockRecovered, WorkerCtx};
use crate::fxhash::{FxHashMap, FxHashSet, FxHasher};
use crate::parallel::ParallelMachine;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::Instant;

/// Number of seen-set shards (a power of two well above any sane
/// thread count, so dedup contention stays negligible).
const SEEN_SHARDS: usize = 64;

/// The configurations every worker of one sharded run has discovered,
/// sharded by hash: a fresh successor is queued only by the worker
/// whose insert wins, so each configuration is evaluated once,
/// run-wide. Drained into [`FixpointResult::configs`] when the run
/// ends.
struct SeenSet<C> {
    shards: Vec<Mutex<FxHashSet<C>>>,
}

impl<C: Clone + Eq + Hash> SeenSet<C> {
    fn new() -> Self {
        SeenSet {
            shards: (0..SEEN_SHARDS)
                .map(|_| Mutex::new(FxHashSet::default()))
                .collect(),
        }
    }

    /// Records `cfg`, returning whether it was never seen before.
    fn insert(&self, cfg: &C) -> bool {
        // Sharded on the *high* hash bits: the intra-shard set derives
        // its bucket index from the low bits of the very same hash, so
        // sharding on those would cluster every entry of a shard onto
        // 1/64th of the bucket positions.
        let mut h = FxHasher::default();
        cfg.hash(&mut h);
        let shard = (h.finish() >> 58) as usize % SEEN_SHARDS;
        self.shards[shard].lock_recovered().insert(cfg.clone())
    }

    fn into_configs(self) -> Vec<C> {
        self.shards
            .into_iter()
            .flat_map(|shard| {
                shard
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .collect()
    }
}

/// An inter-worker message. Everything is id-level — the global
/// interner is what keeps the wire format free of values.
enum Msg {
    /// Rows owned by the receiving worker grew (sorted, unique address
    /// ids): wake their registered dependents. The facts themselves are
    /// already in the shared store — growth notifications carry
    /// addresses, never values.
    Grew(Vec<u32>),
    /// Dependency registration from `worker`: `adds` are
    /// `(addr_id, observed epoch, config index at `worker`)` — the
    /// observed epoch powers the stale-snapshot check — and `dels`
    /// deregister `(addr_id, config index)` pairs whose read sets
    /// shrank.
    Deps {
        worker: u32,
        adds: Vec<(u32, u64, u32)>,
        dels: Vec<(u32, u32)>,
    },
    /// Wake the given config indexes homed at the receiving worker.
    Wakes(Vec<u32>),
}

/// Per-owner outgoing dependency batch.
#[derive(Default)]
struct DepBatch {
    adds: Vec<(u32, u64, u32)>,
    dels: Vec<(u32, u32)>,
}

/// The store-specific half of a sharded worker: the home of the
/// configurations it first evaluated (their read sets) and the owner of
/// its row shard (their dependency lists). The loop that drives it is
/// [`crate::fabric`]; the workers borrow the store for the run, which
/// [`fabric::drive`] scopes.
struct ShardedWorker<'s, M: ParallelMachine> {
    machine: M,
    store: &'s SharedStore<M::Addr, M::Val>,
    /// The run's shared dedup of fresh configurations.
    seen: &'s SeenSet<M::Config>,
    /// Locally homed configurations.
    configs: Vec<M::Config>,
    index: FxHashMap<M::Config, usize>,
    /// Per homed config: the `(addr_id, observed epoch)` pairs of its
    /// last evaluation, sorted by address id — gate input and
    /// semi-naive baselines in one.
    config_reads: Vec<Vec<(u32, u64)>>,
    evaluated: Vec<bool>,
    /// Dependents of *owned* rows: addr id → sorted `(worker, config)`.
    deps: FxHashMap<u32, Vec<(u32, u32)>>,
    bufs: ShardBufs,
    /// Per-target outgoing wake batches (scratch, drained per flush).
    out_wakes: Vec<Vec<u32>>,
    /// Per-owner outgoing dependency batches (scratch).
    out_deps: Vec<DepBatch>,
    /// Per-owner outgoing growth notifications (scratch).
    out_grew: Vec<Vec<u32>>,
    /// Successor scratch, recycled across evaluations.
    successors: Vec<M::Config>,
    joins: u64,
    value_joins: u64,
}

impl<'s, M> ShardedWorker<'s, M>
where
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    fn new(
        machine: M,
        store: &'s SharedStore<M::Addr, M::Val>,
        seen: &'s SeenSet<M::Config>,
    ) -> Self {
        let threads = store.shard_count();
        ShardedWorker {
            machine,
            store,
            seen,
            configs: Vec::new(),
            index: FxHashMap::default(),
            config_reads: Vec::new(),
            evaluated: Vec::new(),
            deps: FxHashMap::default(),
            bufs: ShardBufs::default(),
            out_wakes: (0..threads).map(|_| Vec::new()).collect(),
            out_deps: (0..threads).map(|_| DepBatch::default()).collect(),
            out_grew: (0..threads).map(|_| Vec::new()).collect(),
            successors: Vec::new(),
            joins: 0,
            value_joins: 0,
        }
    }

    /// Wakes the dependents of every *self-owned* row among the
    /// (sorted, unique) grown rows — rows owned elsewhere are ignored
    /// (their owners are notified separately). Homed dependents enter
    /// the local wake queue (which drops the ones already queued),
    /// remote ones are batched per target worker (flushed by
    /// [`ShardedWorker::flush_wakes`]).
    fn wake_dependents_of(&mut self, grown: &[u32], ctx: &mut WorkerCtx<'_, M::Config, Msg>) {
        let me = ctx.id();
        let before = ctx.state.wakeups;
        for &a in grown {
            if self.store.owner(a) != me {
                continue;
            }
            if let Some(list) = self.deps.get(&a) {
                for &(w, c) in list {
                    if w as usize == me {
                        ctx.wake_local(c as usize);
                    } else {
                        self.out_wakes[w as usize].push(c);
                    }
                }
            }
        }
        let woken = ctx.state.wakeups - before;
        if woken > 0 {
            ctx.state.trace.wake_batch(woken);
        }
    }

    /// Ships the batched remote wakes, one message per target (the
    /// receiver counts the ones it enqueues).
    fn flush_wakes(&mut self, ctx: &mut WorkerCtx<'_, M::Config, Msg>) {
        for target in 0..self.out_wakes.len() {
            if self.out_wakes[target].is_empty() {
                continue;
            }
            let mut batch = std::mem::take(&mut self.out_wakes[target]);
            batch.sort_unstable();
            batch.dedup();
            ctx.send(target, Msg::Wakes(batch));
        }
    }

    /// Ships the batched dependency registrations, one message per
    /// owner.
    fn flush_deps(&mut self, ctx: &mut WorkerCtx<'_, M::Config, Msg>) {
        for owner in 0..self.out_deps.len() {
            let batch = &mut self.out_deps[owner];
            if batch.adds.is_empty() && batch.dels.is_empty() {
                continue;
            }
            let msg = Msg::Deps {
                worker: ctx.id() as u32,
                adds: std::mem::take(&mut batch.adds),
                dels: std::mem::take(&mut batch.dels),
            };
            ctx.send(owner, msg);
        }
    }

    /// Partitions one evaluation's grown rows (sorted, unique): wakes
    /// local dependents of self-owned rows, batches growth
    /// notifications for foreign owners, and ships both.
    fn announce_growth(&mut self, grown: &[u32], ctx: &mut WorkerCtx<'_, M::Config, Msg>) {
        for &a in grown {
            let owner = self.store.owner(a);
            if owner != ctx.id() {
                self.out_grew[owner].push(a);
            }
        }
        self.wake_dependents_of(grown, ctx);
        self.flush_wakes(ctx);
        for owner in 0..self.out_grew.len() {
            if self.out_grew[owner].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut self.out_grew[owner]);
            ctx.send(owner, Msg::Grew(batch));
        }
    }

    /// Registers config `i`'s new read set: diffs it against the
    /// previous one, applies self-owned adds/dels in place (with the
    /// stale-snapshot wake check), batches foreign ones per owner, and
    /// installs the new read set.
    fn register_deps(
        &mut self,
        i: usize,
        new_reads: &mut Vec<(u32, u64)>,
        ctx: &mut WorkerCtx<'_, M::Config, Msg>,
    ) {
        let me = (ctx.id() as u32, i as u32);
        // Walk old and new (both sorted by addr id).
        let mut stale_self_wake = false;
        {
            let old = std::mem::take(&mut self.config_reads[i]);
            let (mut oi, mut ni) = (0, 0);
            while oi < old.len() || ni < new_reads.len() {
                let oa = old.get(oi).map(|&(a, _)| a);
                let na = new_reads.get(ni).map(|&(a, _)| a);
                let drop_old = match (oa, na) {
                    (Some(a), Some(b)) if a == b => {
                        oi += 1;
                        ni += 1;
                        continue;
                    }
                    (Some(a), Some(b)) => a < b,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => unreachable!("loop condition"),
                };
                if drop_old {
                    // Dropped address: deregister.
                    let a = old[oi].0;
                    let owner = self.store.owner(a);
                    if owner == ctx.id() {
                        if let Some(list) = self.deps.get_mut(&a) {
                            if let Ok(pos) = list.binary_search(&me) {
                                list.remove(pos);
                            }
                        }
                    } else {
                        self.out_deps[owner].dels.push((a, i as u32));
                    }
                    oi += 1;
                } else {
                    // Added address: register with the observed epoch
                    // for the stale-snapshot check.
                    let (b, e) = new_reads[ni];
                    let owner = self.store.owner(b);
                    if owner == ctx.id() {
                        let list = self.deps.entry(b).or_default();
                        if let Err(pos) = list.binary_search(&me) {
                            list.insert(pos, me);
                        }
                        if self.store.addr_epoch(b) > e {
                            stale_self_wake = true;
                        }
                    } else {
                        self.out_deps[owner].adds.push((b, e, i as u32));
                    }
                    ni += 1;
                }
            }
        }
        if stale_self_wake {
            ctx.wake_local(i);
        }
        std::mem::swap(&mut self.config_reads[i], new_reads);
        self.evaluated[i] = true;
        self.flush_deps(ctx);
    }
}

impl<M> fabric::BackendWorker for ShardedWorker<'_, M>
where
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    type Task = M::Config;
    type Msg = Msg;

    fn seed(&mut self, ctx: &mut WorkerCtx<'_, M::Config, Msg>) {
        // Every worker runs the (deterministic) seed, applying only
        // the rows it owns — each row is seeded exactly once, by its
        // owner, with no message traffic.
        let bufs = std::mem::take(&mut self.bufs);
        let view = ShardView::new(self.store, ctx.id(), &[], false, true, bufs);
        let mut tracked = TrackedStore::wrap_shard(view);
        self.machine.seed(&mut tracked);
        let (view, _, _) = tracked.into_shard_parts();
        let (mut bufs, seed_joins, seed_value_joins) = view.into_bufs();
        self.joins += seed_joins;
        self.value_joins += seed_value_joins;
        // No dependents can be registered yet; drop the grow set.
        bufs.grew.clear();
        self.bufs = bufs;
    }

    /// Interns a fresh or stolen configuration into this worker's
    /// local tables: it is homed here from now on.
    fn home(&mut self, cfg: M::Config) -> usize {
        if let Some(&i) = self.index.get(&cfg) {
            return i;
        }
        let i = self.configs.len();
        self.configs.push(cfg.clone());
        self.index.insert(cfg, i);
        self.config_reads.push(Vec::new());
        self.evaluated.push(false);
        i
    }

    fn gated(&self, i: usize) -> bool {
        // Epoch gate on lock-free row epochs: skip when no read row
        // moved past the epoch this config actually observed.
        self.evaluated[i]
            && self.config_reads[i]
                .iter()
                .all(|&(a, e)| self.store.addr_epoch(a) <= e)
    }

    /// Evaluates one homed configuration (by local index).
    fn evaluate(&mut self, i: usize, ctx: &mut WorkerCtx<'_, M::Config, Msg>) {
        let config = self.configs[i].clone();
        self.successors.clear();
        let baseline = ctx.mode() == EvalMode::SemiNaive && self.evaluated[i];
        let mut bufs = std::mem::take(&mut self.bufs);
        bufs.time_locks = ctx.state.trace.enabled();
        let prev_reads: &[(u32, u64)] = if baseline { &self.config_reads[i] } else { &[] };
        let view = ShardView::new(self.store, ctx.id(), prev_reads, baseline, false, bufs);
        let mut tracked = TrackedStore::wrap_shard(view);
        self.machine
            .step(&config, &mut tracked, &mut self.successors);
        let (view, step_delta_facts, step_delta_applies) = tracked.into_shard_parts();
        let (mut bufs, step_joins, step_value_joins) = view.into_bufs();
        ctx.state.delta_facts += step_delta_facts;
        ctx.state.delta_applies += step_delta_applies;
        self.joins += step_joins;
        self.value_joins += step_value_joins;

        for &us in &bufs.lock_waits {
            ctx.state.trace.row_lock_wait(us);
        }
        bufs.lock_waits.clear();

        // Canonicalize the read set: sorted by address, earliest
        // observed epoch per address (reading conservatively early
        // epochs only widens the next delta — sound).
        bufs.reads.sort_unstable();
        bufs.reads.dedup_by_key(|&mut (a, _)| a);
        self.register_deps(i, &mut bufs.reads, ctx);

        for succ in self.successors.drain(..) {
            if self.seen.insert(&succ) {
                ctx.submit_fresh(succ);
            }
        }

        bufs.grew.sort_unstable();
        bufs.grew.dedup();
        let grew = std::mem::take(&mut bufs.grew);
        self.bufs = bufs;
        self.announce_growth(&grew, ctx);
        self.bufs.grew = grew;
    }

    fn describe(&self, i: usize) -> String {
        format!("{:?}", self.configs[i])
    }

    /// Processes one delivered message. The fabric releases the
    /// message's pending count after this returns — everything the
    /// delivery spawns (wakes, forwarded messages) is counted inside.
    fn on_msg(&mut self, msg: Msg, ctx: &mut WorkerCtx<'_, M::Config, Msg>) {
        match msg {
            Msg::Grew(addrs) => {
                debug_assert!(
                    addrs.iter().all(|&a| self.store.owner(a) == ctx.id()),
                    "misrouted growth notification"
                );
                self.wake_dependents_of(&addrs, ctx);
                self.flush_wakes(ctx);
            }
            Msg::Deps { worker, adds, dels } => {
                for (a, seen_epoch, cfg) in adds {
                    debug_assert_eq!(self.store.owner(a), ctx.id(), "misrouted dep");
                    let key = (worker, cfg);
                    let list = self.deps.entry(a).or_default();
                    if let Err(pos) = list.binary_search(&key) {
                        list.insert(pos, key);
                    }
                    // Stale-snapshot check: the row moved past the epoch
                    // the reader observed before this registration
                    // landed — wake it now or it would wait forever.
                    // Self-owned registrations never arrive by message
                    // (register_deps applies them in place), so the
                    // sender is always remote.
                    debug_assert_ne!(worker as usize, ctx.id(), "self-registration by message");
                    if self.store.addr_epoch(a) > seen_epoch {
                        self.out_wakes[worker as usize].push(cfg);
                    }
                }
                for (a, cfg) in dels {
                    if let Some(list) = self.deps.get_mut(&a) {
                        if let Ok(pos) = list.binary_search(&(worker, cfg)) {
                            list.remove(pos);
                        }
                    }
                }
                self.flush_wakes(ctx);
            }
            Msg::Wakes(cfgs) => {
                for c in cfgs {
                    // Counted here, where it enqueues (a config already
                    // waiting for its re-run is not queued twice).
                    ctx.wake_local(c as usize);
                }
            }
        }
    }

    fn enforce_watermark(&mut self, watermark: usize) {
        // The store tracks total delta-log bytes (the portion a trim
        // reclaims) in one atomic; whichever worker notices the overrun
        // trims every row — rows of idle owners included, since
        // trimming is safe from any thread.
        if self.store.delta_log_bytes() > watermark {
            self.store.trim_delta_logs();
        }
    }
}

/// Runs `machine` to its least fixed point on `threads` workers over
/// one shared address-sharded store (semi-naive re-evaluation).
///
/// The returned [`FixpointResult`] matches the sequential engine on
/// configurations and store facts (the fixed point is unique);
/// `configs` order is arbitrary, `iterations`/`skipped`/`wakeups` are
/// summed across workers, and `delta_facts` counts each fact once, at
/// the owner that applied it.
pub fn run_fixpoint_sharded<M>(
    machine: &mut M,
    threads: usize,
    limits: EngineLimits,
) -> FixpointResult<M::Config, M::Addr, M::Val>
where
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    run_fixpoint_sharded_with(machine, threads, limits, EvalMode::SemiNaive)
}

/// [`run_fixpoint_sharded`] under an explicit [`EvalMode`].
pub fn run_fixpoint_sharded_with<M>(
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
    let start = Instant::now();
    let threads = threads.max(1);

    let store: SharedStore<M::Addr, M::Val> = SharedStore::new(threads);
    let seen = SeenSet::new();
    let fabric: Fabric<M::Config, Msg> = Fabric::new(threads);
    let root = machine.initial();
    seen.insert(&root);
    fabric.submit_root(root);

    let backends: Vec<ShardedWorker<M>> = (0..threads)
        .map(|_| ShardedWorker::new(machine.fork(), &store, &seen))
        .collect();
    let reports = fabric::drive(&fabric, backends, mode, &limits, start);
    let status = fabric.finish();

    let (mut iterations, mut skipped, mut wakeups) = (0u64, 0u64, 0u64);
    let (mut delta_facts, mut delta_applies) = (0u64, 0u64);
    let (mut joins, mut value_joins) = (0u64, 0u64);
    let mut sched = SchedStats::default();
    let mut rings = Vec::new();
    for fabric::WorkerReport { backend, totals } in reports {
        iterations += totals.iterations;
        skipped += totals.skipped;
        wakeups += totals.wakeups;
        delta_facts += totals.delta_facts;
        delta_applies += totals.delta_applies;
        joins += backend.joins;
        value_joins += backend.value_joins;
        sched.absorb(&totals.sched);
        rings.push(totals.trace);
        machine.absorb(backend.machine);
    }
    // Drained before the store, so the hash sets are gone by the time
    // the store drain's peak allocation happens.
    let configs = seen.into_configs();

    // The shared store *is* the result: measure it, then drain it into
    // an ordinary AbsStore without re-interning a single value.
    sched.store_resident_bytes = store.approx_bytes() as u64;
    let store = store.into_abs_store(joins, value_joins);

    FixpointResult {
        configs,
        store,
        status,
        iterations,
        skipped,
        wakeups,
        delta_facts,
        delta_applies,
        sched,
        elapsed: start.elapsed(),
        queue_wait: std::time::Duration::ZERO,
        trace: crate::telemetry::RunTrace::from_buffers(rings),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_fixpoint, AbstractMachine, Status};
    use std::time::Duration;

    /// The toy machine of the engine tests.
    #[derive(Clone)]
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

        fn step(&mut self, c: &u32, s: &mut TrackedStore<'_, u32, u32>, out: &mut Vec<u32>) {
            let c = *c;
            if c < self.n {
                s.join(&(c % 3), [c]);
                out.push(c + 1);
            } else {
                let _ = s.read(&0);
            }
        }
    }

    impl ParallelMachine for Counter {
        fn fork(&self) -> Self {
            self.clone()
        }
        fn absorb(&mut self, _worker: Self) {}
    }

    #[test]
    fn sharded_matches_sequential_on_counter() {
        for threads in [1, 2, 4] {
            let seq = run_fixpoint(&mut Counter { n: 40 }, EngineLimits::default());
            let par =
                run_fixpoint_sharded(&mut Counter { n: 40 }, threads, EngineLimits::default());
            assert_eq!(par.status, Status::Completed, "threads={threads}");
            let mut seq_configs = seq.configs.clone();
            let mut par_configs = par.configs.clone();
            seq_configs.sort_unstable();
            par_configs.sort_unstable();
            assert_eq!(seq_configs, par_configs, "threads={threads}");
            for addr in 0..3u32 {
                assert_eq!(
                    seq.store.read(&addr),
                    par.store.read(&addr),
                    "threads={threads}"
                );
            }
            assert_eq!(
                seq.store.fact_count(),
                par.store.fact_count(),
                "threads={threads}"
            );
            assert_eq!(
                seq.delta_facts, par.delta_facts,
                "sharded growth is counted once per fact (threads={threads})"
            );
        }
    }

    /// Feedback machine: convergence requires many cross-config wakeups.
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
                out.extend([1, 2]);
            } else {
                let seen = s.read(&(*c % 2));
                let next: Vec<u8> = seen
                    .iter()
                    .map(|id| *s.val(id))
                    .filter(|&v| v < 40)
                    .map(|v| v + 1)
                    .collect();
                s.join(&((*c + 1) % 2), next);
            }
        }
    }

    impl ParallelMachine for Feedback {
        fn fork(&self) -> Self {
            Feedback
        }
        fn absorb(&mut self, _worker: Self) {}
    }

    #[test]
    fn sharded_feedback_converges_across_thread_counts() {
        let seq = run_fixpoint(&mut Feedback, EngineLimits::default());
        for threads in [1, 2, 4] {
            let par = run_fixpoint_sharded(&mut Feedback, threads, EngineLimits::default());
            assert_eq!(par.status, Status::Completed, "threads={threads}");
            assert_eq!(par.store.read(&0), seq.store.read(&0), "threads={threads}");
            assert_eq!(par.store.read(&1), seq.store.read(&1), "threads={threads}");
            assert_eq!(par.config_count(), seq.config_count(), "threads={threads}");
        }
    }

    /// Both evaluation modes compute the same fixpoint over the shared
    /// store (semi-naive only narrows join inputs).
    #[test]
    fn sharded_modes_agree_and_semi_naive_scans_less() {
        let semi = run_fixpoint_sharded_with(
            &mut Feedback,
            2,
            EngineLimits::default(),
            EvalMode::SemiNaive,
        );
        let full = run_fixpoint_sharded_with(
            &mut Feedback,
            2,
            EngineLimits::default(),
            EvalMode::FullReeval,
        );
        assert_eq!(semi.store.read(&0), full.store.read(&0));
        assert_eq!(semi.store.read(&1), full.store.read(&1));
        assert_eq!(semi.store.fact_count(), full.store.fact_count());
    }

    #[test]
    fn iteration_limit_fires_sharded() {
        let r = run_fixpoint_sharded(
            &mut Counter { n: 1_000_000 },
            2,
            EngineLimits::iterations(100),
        );
        assert_eq!(r.status, Status::IterationLimit);
        assert!(r.iterations <= 100, "globally counted: {}", r.iterations);
    }

    #[test]
    fn timeout_fires_sharded() {
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
        impl ParallelMachine for Spin {
            fn fork(&self) -> Self {
                Spin
            }
            fn absorb(&mut self, _worker: Self) {}
        }
        let r = run_fixpoint_sharded(
            &mut Spin,
            2,
            EngineLimits::timeout(Duration::from_millis(50)),
        );
        assert_eq!(r.status, Status::TimedOut);
    }

    /// A machine whose seed joins rows from every worker: each row must
    /// end up seeded exactly once (by its owner), and the root must see
    /// the seeds even if it races ahead of a slower seeder.
    struct Seeded;

    impl AbstractMachine for Seeded {
        type Config = u16;
        type Addr = u16;
        type Val = u16;

        fn initial(&self) -> u16 {
            0
        }

        fn seed(&mut self, s: &mut TrackedStore<'_, u16, u16>) {
            for a in 0..32u16 {
                s.join(&a, [a + 100]);
            }
        }

        fn step(&mut self, c: &u16, s: &mut TrackedStore<'_, u16, u16>, out: &mut Vec<u16>) {
            if *c < 32 {
                // Copy each seeded row into an output row.
                let f = s.read(c);
                s.join_flow(&(*c + 1000), &f);
                out.push(c + 1);
            }
        }
    }

    impl ParallelMachine for Seeded {
        fn fork(&self) -> Self {
            Seeded
        }
        fn absorb(&mut self, _worker: Self) {}
    }

    #[test]
    fn every_row_is_seeded_exactly_once_by_its_owner() {
        for threads in [1, 3, 4] {
            let r = run_fixpoint_sharded(&mut Seeded, threads, EngineLimits::default());
            assert_eq!(r.status, Status::Completed, "threads={threads}");
            for a in 0..32u16 {
                assert_eq!(
                    r.store.read(&a),
                    [a + 100].into_iter().collect(),
                    "seed row {a} (threads={threads})"
                );
                assert_eq!(
                    r.store.read(&(a + 1000)),
                    [a + 100].into_iter().collect(),
                    "copied row {a} (threads={threads})"
                );
            }
        }
    }
}
