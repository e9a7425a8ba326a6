//! The globally shared, address-sharded store, plus the per-evaluation
//! view the engine hands to machines.
//!
//! One [`SharedStore`] serves every worker:
//!
//! * values and addresses intern through the global
//!   `ConcurrentPool`s (the crate-private `pool` module) — ids are process-global, so a
//!   fact is interned exactly once for the whole run;
//! * each address id maps to one row slot; rows are *owned* by the
//!   shard `owner(addr_id)` (a hash of the id). Writes go through the
//!   row mutex from any thread (immediate read-your-writes); reads
//!   briefly lock the row and clone the epoch-stamped `Arc<Vec<u32>>`
//!   snapshot — exactly the [`Flow`] discipline of the single-threaded
//!   store. Ownership governs the *scheduling* state: the owner holds
//!   the row's dependency list and is the one notified of growth;
//! * each row keeps its append-only delta log (ids in arrival order
//!   with epoch marks) next to the snapshot, serialized by the same
//!   lock, so [`crate::engine::EvalMode::SemiNaive`] keeps exact
//!   deltas on a store every worker writes;
//! * the mirrored `AtomicU64` row epoch gives the scheduler's epoch
//!   gate a lock-free read.
//!
//! The epoch race of a shared store — "I read the global counter, then
//! a row published growth stamped *below* my baseline" — is closed by
//! never using a global baseline: every read records the **row epoch
//! observed under the row lock**, and semi-naive baselines are those
//! per-row epochs. A snapshot and its epoch are taken under one lock,
//! so the delta since a recorded epoch is exactly what that snapshot
//! missed.

use super::pool::{ChunkVec, ConcurrentPool};
use crate::fabric::LockRecovered as _;
use crate::store::{AbsStore, Flow, Row, ValuePool};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Row-lock acquisitions slower than this are reported as
/// [`crate::telemetry::TraceEventKind::RowLockWait`] events (timed only
/// while tracing is enabled — the untraced hot path never reads the
/// clock).
pub(crate) const LOCK_WAIT_THRESHOLD_US: u64 = 100;

/// The owner-written interior of a row.
#[derive(Default)]
struct RowInner {
    ids: Option<Arc<Vec<u32>>>,
    epoch: u64,
    bound: bool,
    log: Vec<u32>,
    marks: Vec<(u64, u32)>,
    /// Delta queries reaching behind this epoch report snapshot loss
    /// (logs before it were trimmed).
    floor: u64,
}

/// One shared row: the mutex guards the snapshot + delta log (held only
/// for O(1) clones on reads, O(delta) on owner writes); the atomic
/// mirrors the row's last-growth epoch for lock-free gate checks.
#[derive(Default)]
pub(crate) struct RowSlot {
    epoch: AtomicU64,
    inner: Mutex<RowInner>,
}

/// A globally shared, address-sharded monotone store.
///
/// `A` is the machine's address type, `V` its value type; both intern
/// into process-global dense ids. See the module docs for the
/// representation and the ownership protocol.
pub struct SharedStore<A, V> {
    addrs: ConcurrentPool<A>,
    vals: ConcurrentPool<V>,
    rows: ChunkVec<RowSlot>,
    epoch: AtomicU64,
    /// Approximate bytes held by all rows' delta logs — the portion a
    /// trim reclaims. Grows on every growing join; reset by
    /// [`SharedStore::trim_delta_logs`].
    log_bytes: AtomicUsize,
    shards: usize,
}

impl<A, V> std::fmt::Debug for SharedStore<A, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStore")
            .field("addrs", &self.addrs.len())
            .field("vals", &self.vals.len())
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("shards", &self.shards)
            .finish()
    }
}

impl<A: Eq + Hash + Clone, V: Eq + Hash + Clone> SharedStore<A, V> {
    /// An empty store whose rows are partitioned across `shards`
    /// owners.
    pub fn new(shards: usize) -> Self {
        SharedStore {
            addrs: ConcurrentPool::new(),
            vals: ConcurrentPool::new(),
            rows: ChunkVec::new(),
            epoch: AtomicU64::new(0),
            log_bytes: AtomicUsize::new(0),
            shards: shards.max(1),
        }
    }

    /// The shard that owns (may write) the row of `addr_id` — a
    /// multiplicative hash of the id, so consecutively interned
    /// addresses spread across owners.
    pub fn owner(&self, addr_id: u32) -> usize {
        (addr_id.wrapping_mul(0x9E37_79B9) >> 16) as usize % self.shards
    }

    /// Number of shards (owners).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Interns `addr`, returning its global id.
    pub fn addr_id(&self, addr: &A) -> u32 {
        self.addrs.intern_ref(addr)
    }

    /// Interns `value`, returning its global id.
    pub fn val_id(&self, value: &V) -> u32 {
        self.vals.intern_ref(value)
    }

    /// Interns an owned `value` — one clone cheaper than
    /// [`SharedStore::val_id`] on first sight (the machines' hot
    /// construction path).
    pub fn val_id_owned(&self, value: V) -> u32 {
        self.vals.intern_owned(value)
    }

    /// The value with id `id` (lock-free).
    pub fn val(&self, id: u32) -> &V {
        self.vals.get(id)
    }

    /// The address with id `id` (lock-free).
    pub fn addr(&self, id: u32) -> &A {
        self.addrs.get(id)
    }

    /// Number of distinct interned addresses.
    pub fn addr_count(&self) -> usize {
        self.addrs.len()
    }

    /// The epoch at which the row of `addr_id` last grew (0 = never) —
    /// a lock-free atomic load, the epoch gate's fast path.
    pub fn addr_epoch(&self, addr_id: u32) -> u64 {
        self.rows
            .get(addr_id as usize)
            .map_or(0, |slot| slot.epoch.load(Ordering::Acquire))
    }

    /// The current snapshot of a row and the epoch it carries, taken
    /// consistently under one row lock. Missing rows are `⊥` at epoch 0.
    pub fn snapshot(&self, addr_id: u32) -> (Flow, u64) {
        match self.rows.get(addr_id as usize) {
            None => (Flow::empty(), 0),
            Some(slot) => {
                let inner = slot.inner.lock_recovered();
                let flow = match &inner.ids {
                    Some(arc) => Flow::Shared(Arc::clone(arc)),
                    None => Flow::empty(),
                };
                (flow, inner.epoch)
            }
        }
    }

    /// [`SharedStore::snapshot`] plus the delta since `since`, all under
    /// one row lock (so `new ⊆ all` is guaranteed).
    ///
    /// The third component is `None` when no exact delta is available —
    /// no baseline was supplied, or the logs covering the span were
    /// trimmed (snapshot loss) — and callers fall back to `new = all`.
    pub fn snapshot_with_delta(
        &self,
        addr_id: u32,
        since: Option<u64>,
    ) -> (Flow, u64, Option<Flow>) {
        let Some(slot) = self.rows.get(addr_id as usize) else {
            return (Flow::empty(), 0, None);
        };
        let inner = slot.inner.lock_recovered();
        let flow = match &inner.ids {
            Some(arc) => Flow::Shared(Arc::clone(arc)),
            None => Flow::empty(),
        };
        let delta = match since {
            None => None,
            Some(s) if s >= inner.epoch => Some(Flow::empty()),
            Some(s) if s < inner.floor => None,
            Some(s) => {
                let idx = inner.marks.partition_point(|&(e, _)| e <= s);
                let start = if idx == 0 {
                    0
                } else {
                    inner.marks[idx - 1].1 as usize
                };
                Some(Flow::from_ids(inner.log[start..].to_vec()))
            }
        };
        (flow, inner.epoch, delta)
    }

    /// Joins already-interned `new_ids` (sorted, unique) into the row of
    /// `addr_id`, appending the exact delta to `delta`. Returns `true`
    /// if the row grew.
    ///
    /// **Write-through from any thread**: the row mutex serializes
    /// writers, the epoch is minted under that lock (so the row's marks
    /// stay strictly increasing), and the joining worker gets immediate
    /// read-your-writes — successors evaluated right after their parent
    /// see the arguments it just bound, exactly like a private store.
    /// What stays with the *owner* shard is
    /// the scheduling side: dependency lists and wakeups — writers ship
    /// the owner a grown-address notification, never the facts.
    pub fn join_row(&self, addr_id: u32, new_ids: &[u32], delta: &mut Vec<u32>) -> bool {
        debug_assert!(
            new_ids.windows(2).all(|w| w[0] < w[1]),
            "join_row needs sorted ids"
        );
        let slot = self.rows.get_or_alloc(addr_id as usize);
        let mut inner = slot.inner.lock_recovered();
        inner.bound = true;
        let delta_start = delta.len();
        match &inner.ids {
            None => delta.extend_from_slice(new_ids),
            Some(cur) => {
                let cur = cur.as_slice();
                let mut i = 0;
                for &id in new_ids {
                    while i < cur.len() && cur[i] < id {
                        i += 1;
                    }
                    if i >= cur.len() || cur[i] != id {
                        delta.push(id);
                    }
                }
            }
        }
        if delta.len() == delta_start {
            return false;
        }
        let added = &delta[delta_start..];
        let merged = match &inner.ids {
            None => added.to_vec(),
            Some(cur) => {
                let mut merged = Vec::with_capacity(cur.len() + added.len());
                let (mut i, mut j) = (0, 0);
                while i < cur.len() && j < added.len() {
                    if cur[i] < added[j] {
                        merged.push(cur[i]);
                        i += 1;
                    } else {
                        merged.push(added[j]);
                        j += 1;
                    }
                }
                merged.extend_from_slice(&cur[i..]);
                merged.extend_from_slice(&added[j..]);
                merged
            }
        };
        inner.ids = Some(Arc::new(merged));
        // The global counter orders growth events; the row's marks stay
        // strictly increasing because the fetch_add happens under this
        // row's lock.
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        inner.epoch = epoch;
        inner.log.extend_from_slice(&delta[delta_start..]);
        let end = u32::try_from(inner.log.len()).expect("delta log overflow");
        inner.marks.push((epoch, end));
        self.log_bytes.fetch_add(
            (delta.len() - delta_start) * std::mem::size_of::<u32>()
                + std::mem::size_of::<(u64, u32)>(),
            Ordering::AcqRel,
        );
        // Publish the epoch for lock-free gate checks *before* the lock
        // drops: a reader that sees the new epoch and then locks the
        // row is guaranteed at least this snapshot.
        slot.epoch.store(epoch, Ordering::Release);
        true
    }

    /// Approximate bytes currently held by delta logs across all rows
    /// — what [`SharedStore::trim_delta_logs`] would reclaim.
    pub fn delta_log_bytes(&self) -> usize {
        self.log_bytes.load(Ordering::Acquire)
    }

    /// Drops every row's delta log, reclaiming the memory. Safe from
    /// any thread (each row is trimmed under its own lock; ownership
    /// governs scheduling state, not log storage). Subsequent delta
    /// queries baselined before the trim report snapshot loss and
    /// degrade to full re-evaluation. Racing trims are idempotent;
    /// joins landing mid-trim at worst leave the byte counter slightly
    /// conservative.
    pub fn trim_delta_logs(&self) {
        self.log_bytes.store(0, Ordering::Release);
        for id in 0..self.addrs.len() {
            if let Some(slot) = self.rows.get(id) {
                let mut inner = slot.inner.lock_recovered();
                inner.log = Vec::new();
                inner.marks = Vec::new();
                inner.floor = inner.epoch;
            }
        }
    }

    /// Approximate resident bytes: pools, the row-slot table, flow
    /// snapshots, and delta logs. Same caveats as
    /// [`AbsStore::approx_bytes`].
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>()
            + self.addrs.approx_bytes()
            + self.vals.approx_bytes()
            + self.rows.allocated_slots() * std::mem::size_of::<RowSlot>();
        for id in 0..self.addrs.len() {
            if let Some(slot) = self.rows.get(id) {
                let inner = slot.inner.lock_recovered();
                if let Some(ids) = &inner.ids {
                    bytes += ids.len() * std::mem::size_of::<u32>();
                }
                bytes += inner.log.capacity() * std::mem::size_of::<u32>()
                    + inner.marks.capacity() * std::mem::size_of::<(u64, u32)>();
            }
        }
        bytes
    }

    /// Converts the quiescent shared store into an ordinary
    /// [`AbsStore`] result — **no re-interning and no row union**: ids
    /// are global, so pools drain in id order and rows move over
    /// verbatim. `joins`/`value_joins` are the workers' summed
    /// counters.
    pub fn into_abs_store(self, joins: u64, value_joins: u64) -> AbsStore<A, V> {
        let n_addrs = self.addrs.len();
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut rows: Vec<Row> = Vec::with_capacity(n_addrs);
        let mut log_floor = 0u64;
        for id in 0..n_addrs {
            match self.rows.get(id) {
                None => rows.push(Row::default()),
                Some(slot) => {
                    let inner = std::mem::take(&mut *slot.inner.lock_recovered());
                    log_floor = log_floor.max(inner.floor);
                    rows.push(Row {
                        ids: inner.ids,
                        bound: inner.bound,
                        epoch: inner.epoch,
                        log: inner.log,
                        marks: inner.marks,
                    });
                }
            }
        }
        AbsStore::assemble(
            ValuePool::from_items(self.addrs.into_items()),
            ValuePool::from_items(self.vals.into_items()),
            rows,
            joins,
            value_joins,
            epoch,
            log_floor,
        )
    }
}

/// Scratch buffers a sharded worker recycles across evaluations.
#[derive(Debug, Default)]
pub(crate) struct ShardBufs {
    pub(crate) reads: Vec<(u32, u64)>,
    pub(crate) grew: Vec<u32>,
    pub(crate) delta: Vec<u32>,
    /// Over-threshold row-lock waits (µs) observed this evaluation —
    /// drained into the worker's trace ring after the step.
    pub(crate) lock_waits: Vec<u64>,
    /// Whether store accesses time their lock acquisitions (set from
    /// the worker's trace level; false keeps the clock off the hot
    /// path).
    pub(crate) time_locks: bool,
}

/// One evaluation's view of the [`SharedStore`], parameterized by the
/// evaluating shard:
///
/// * reads snapshot any row and record `(addr_id, observed epoch)` —
///   the per-row baselines of the *next* semi-naive evaluation;
/// * joins write through to the shared row immediately (so successors
///   evaluated next on this worker read their arguments, exactly as on
///   a private store) and record the grown rows;
///   after the step the engine wakes local dependents and ships the
///   owners of foreign grown rows a growth *notification* — addresses,
///   never facts.
pub struct ShardView<'a, A, V> {
    store: &'a SharedStore<A, V>,
    shard: usize,
    /// The config's previous read set, sorted by address id — the
    /// per-row baselines. Empty on first visits and under full
    /// re-evaluation.
    prev_reads: &'a [(u32, u64)],
    baseline: bool,
    /// Seed mode: every worker seeds identically, so writes to foreign
    /// rows are skipped (their owner performs them) — each row is
    /// seeded exactly once, with no cross-worker traffic.
    drop_remote: bool,
    pub(crate) bufs: ShardBufs,
    pub(crate) joins: u64,
    pub(crate) value_joins: u64,
}

impl<A, V> std::fmt::Debug for ShardView<'_, A, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardView")
            .field("shard", &self.shard)
            .field("baseline", &self.baseline)
            .finish()
    }
}

impl<'a, A: Eq + Hash + Clone, V: Eq + Hash + Clone + Ord> ShardView<'a, A, V> {
    /// A view for one evaluation by `shard`. `prev_reads` must be
    /// sorted by address id; pass an empty slice (and `baseline =
    /// false`) for first visits and full re-evaluation.
    pub(crate) fn new(
        store: &'a SharedStore<A, V>,
        shard: usize,
        prev_reads: &'a [(u32, u64)],
        baseline: bool,
        drop_remote: bool,
        mut bufs: ShardBufs,
    ) -> Self {
        bufs.reads.clear();
        bufs.grew.clear();
        ShardView {
            store,
            shard,
            prev_reads,
            baseline,
            drop_remote,
            bufs,
            joins: 0,
            value_joins: 0,
        }
    }

    /// Records a finished (timed) lock-guarded store access, keeping
    /// only waits past the reporting threshold.
    fn note_lock_wait(&mut self, timer: Option<Instant>) {
        if let Some(t) = timer {
            let us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
            if us >= LOCK_WAIT_THRESHOLD_US {
                self.bufs.lock_waits.push(us);
            }
        }
    }

    pub(crate) fn read(&mut self, addr: &A) -> Flow {
        let id = self.store.addr_id(addr);
        let timer = self.bufs.time_locks.then(Instant::now);
        let (flow, epoch) = self.store.snapshot(id);
        self.note_lock_wait(timer);
        self.bufs.reads.push((id, epoch));
        flow
    }

    pub(crate) fn read_with_delta(&mut self, addr: &A) -> crate::engine::DeltaFlow {
        let id = self.store.addr_id(addr);
        let since = if self.baseline {
            self.prev_reads
                .binary_search_by_key(&id, |&(a, _)| a)
                .ok()
                .map(|i| self.prev_reads[i].1)
        } else {
            None
        };
        let timer = self.bufs.time_locks.then(Instant::now);
        let (all, epoch, delta) = self.store.snapshot_with_delta(id, since);
        self.note_lock_wait(timer);
        self.bufs.reads.push((id, epoch));
        let new = delta.unwrap_or_else(|| all.clone());
        crate::engine::DeltaFlow { all, new }
    }

    pub(crate) fn first_visit(&self) -> bool {
        !self.baseline
    }

    /// Joins sorted-unique `ids` into `addr`'s row, write-through,
    /// returning the exact fact delta. Grown rows are recorded; the
    /// engine notifies foreign owners after the step. Empty joins still
    /// bind the address (the store-entry metric counts ⊥-bound rows).
    pub(crate) fn join_ids(&mut self, addr: &A, ids: &[u32]) -> u64 {
        let addr_id = self.store.addr_id(addr);
        if self.drop_remote && self.store.owner(addr_id) != self.shard {
            return 0;
        }
        self.joins += 1;
        self.value_joins += ids.len() as u64;
        let timer = self.bufs.time_locks.then(Instant::now);
        self.bufs.delta.clear();
        let delta = &mut self.bufs.delta;
        let grew = self.store.join_row(addr_id, ids, delta);
        let delta_len = delta.len() as u64;
        self.note_lock_wait(timer);
        if grew {
            self.bufs.grew.push(addr_id);
            return delta_len;
        }
        0
    }

    pub(crate) fn intern(&mut self, value: V) -> u32 {
        self.store.val_id_owned(value)
    }

    pub(crate) fn val(&self, id: u32) -> &V {
        self.store.val(id)
    }

    pub(crate) fn materialize(&self, flow: &Flow) -> crate::store::FlowSet<V>
    where
        V: Ord,
    {
        flow.iter().map(|id| self.store.val(id).clone()).collect()
    }

    pub(crate) fn peek(&self, addr: &A) -> Flow {
        let id = self.store.addr_id(addr);
        self.store.snapshot(id).0
    }

    /// Hands the scratch buffers (with this eval's reads, grown owned
    /// rows, and routed batches) back to the worker.
    pub(crate) fn into_bufs(self) -> (ShardBufs, u64, u64) {
        (self.bufs, self.joins, self.value_joins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn join_row_reports_exact_deltas_and_epochs() {
        let s: SharedStore<u32, u32> = SharedStore::new(1);
        let a = s.addr_id(&7);
        let (v1, v2, v3) = (s.val_id(&10), s.val_id(&20), s.val_id(&30));
        let mut delta = Vec::new();
        assert!(s.join_row(a, &sorted(vec![v1, v2]), &mut delta));
        assert_eq!(delta.len(), 2);
        let e1 = s.addr_epoch(a);
        assert!(e1 > 0);
        delta.clear();
        assert!(!s.join_row(a, &sorted(vec![v1]), &mut delta), "no-op");
        assert_eq!(s.addr_epoch(a), e1, "no-op keeps the epoch");
        delta.clear();
        assert!(s.join_row(a, &sorted(vec![v2, v3]), &mut delta));
        assert_eq!(delta, vec![v3], "only the new id is a delta");
        assert!(s.addr_epoch(a) > e1);
    }

    #[test]
    fn snapshots_are_epoch_consistent_and_immutable() {
        let s: SharedStore<u32, u32> = SharedStore::new(2);
        let a = s.addr_id(&1);
        let mut delta = Vec::new();
        s.join_row(a, &sorted(vec![s.val_id(&10), s.val_id(&20)]), &mut delta);
        let (before, e_before) = s.snapshot(a);
        delta.clear();
        s.join_row(a, &sorted(vec![s.val_id(&30)]), &mut delta);
        let (after, e_after) = s.snapshot(a);
        assert_eq!(before.len(), 2, "old snapshot untouched by copy-on-grow");
        assert_eq!(after.len(), 3);
        assert!(e_after > e_before);
        assert_eq!(e_after, s.addr_epoch(a), "atomic mirror agrees");
    }

    #[test]
    fn snapshot_with_delta_is_exact_per_row_baseline() {
        let s: SharedStore<u32, u32> = SharedStore::new(2);
        let a = s.addr_id(&1);
        let mut delta = Vec::new();
        s.join_row(a, &sorted(vec![s.val_id(&1), s.val_id(&2)]), &mut delta);
        let (_, e1) = s.snapshot(a);
        delta.clear();
        s.join_row(a, &sorted(vec![s.val_id(&3)]), &mut delta);
        delta.clear();
        s.join_row(a, &sorted(vec![s.val_id(&4)]), &mut delta);
        let (all, _, new) = s.snapshot_with_delta(a, Some(e1));
        assert_eq!(all.len(), 4);
        let new: BTreeSet<u32> = new
            .expect("exact delta")
            .iter()
            .map(|id| *s.val(id))
            .collect();
        assert_eq!(new, [3u32, 4].into_iter().collect(), "both waves visible");
        // Baseline at the current epoch: empty delta.
        let (_, e_now, new_now) = s.snapshot_with_delta(a, Some(s.addr_epoch(a)));
        assert_eq!(e_now, s.addr_epoch(a));
        assert!(new_now.expect("empty delta").is_empty());
        // No baseline: no exact delta.
        assert!(s.snapshot_with_delta(a, None).2.is_none());
    }

    #[test]
    fn trim_reports_snapshot_loss_then_resumes() {
        let s: SharedStore<u32, u32> = SharedStore::new(1);
        let a = s.addr_id(&1);
        let mut delta = Vec::new();
        s.join_row(a, &sorted(vec![s.val_id(&10)]), &mut delta);
        let pre_trim = s.addr_epoch(a);
        s.trim_delta_logs();
        assert!(
            s.snapshot_with_delta(a, Some(0)).2.is_none(),
            "behind-the-trim baselines are unanswerable"
        );
        assert!(
            s.snapshot_with_delta(a, Some(pre_trim))
                .2
                .expect("kept")
                .is_empty(),
            "at-the-trim baselines keep working"
        );
        delta.clear();
        s.join_row(a, &sorted(vec![s.val_id(&11)]), &mut delta);
        let post = s.snapshot_with_delta(a, Some(pre_trim)).2.expect("resumed");
        assert_eq!(post.len(), 1);
    }

    #[test]
    fn into_abs_store_preserves_every_fact_without_reinterning() {
        let s: SharedStore<u32, u32> = SharedStore::new(3);
        let mut delta = Vec::new();
        for (addr, vals) in [(1u32, vec![10u32, 20]), (2, vec![20]), (3, vec![])] {
            let a = s.addr_id(&addr);
            let ids = sorted(vals.iter().map(|v| s.val_id(v)).collect());
            delta.clear();
            s.join_row(a, &ids, &mut delta);
        }
        let abs = s.into_abs_store(3, 3);
        assert_eq!(abs.read(&1), [10u32, 20].into_iter().collect());
        assert_eq!(abs.read(&2), [20u32].into_iter().collect());
        assert!(abs.read(&3).is_empty());
        assert_eq!(abs.len(), 3, "bound-⊥ row 3 stays bound");
        assert_eq!(abs.fact_count(), 3);
        assert_eq!(abs.join_count(), 3);
    }

    #[test]
    fn owner_partition_is_total_and_stable() {
        let s: SharedStore<u32, u32> = SharedStore::new(4);
        let mut per_shard = [0usize; 4];
        for id in 0..1000u32 {
            let o = s.owner(id);
            assert!(o < 4);
            assert_eq!(o, s.owner(id), "stable");
            per_shard[o] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| n > 100),
            "hash partition is roughly balanced: {per_shard:?}"
        );
    }
}
