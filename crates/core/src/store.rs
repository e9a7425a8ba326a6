//! The single-threaded abstract store (paper §3.7), rebuilt around
//! **interned values and zero-copy flow sets**.
//!
//! Shivers's key algorithmic move: approximate the *set* of stores of the
//! naive state-space search by their least upper bound — one global store
//! that only grows. [`AbsStore`] is that store, with monotone `join` as
//! the only write operation.
//!
//! # Representation
//!
//! The paper's `D̂ = P(V)` is represented in three layers:
//!
//! * a [`ValuePool`] interns every abstract value (and every abstract
//!   address) into a dense `u32` id, so equality, hashing, and ordering
//!   on the hot path are integer operations and each value is hashed at
//!   most once per run;
//! * a flow set is a **sorted `Vec<u32>` of value ids behind an `Arc`**
//!   ([`Flow`]): reads hand out a reference-counted view instead of
//!   cloning a `BTreeSet`, membership is a binary search, and joins are
//!   linear sorted-merges that never look at the values themselves;
//! * every bound address carries an **epoch** — the value of a global
//!   counter at the address's last growth. Readers (the worklist engine)
//!   compare epochs to decide whether a dependent configuration can
//!   possibly observe anything new, and [`AbsStore::join_ids`] reports
//!   the exact *delta* of newly added ids;
//! * every row additionally keeps an **append-only delta log**: the ids
//!   in arrival order, with epoch marks. [`AbsStore::delta_ids_since`]
//!   answers "which values landed at this address after epoch `e`?" in
//!   O(log joins + |delta|) — the query semi-naive transfer functions
//!   ask on every re-evaluation (new closures × all args ∪ all closures
//!   × new args instead of the full product). Logs can be dropped
//!   ([`AbsStore::trim_delta_logs`]) to reclaim memory; queries that
//!   reach behind the trim report the loss and callers fall back to
//!   full re-evaluation.
//!
//! Joins are copy-on-grow: a growing join allocates one merged vector
//! and swaps the `Arc`, leaving previously handed-out views untouched
//! (they are immutable snapshots — safe, and free of defensive copies).
//!
//! The value-level API of the original engine ([`AbsStore::read`],
//! [`AbsStore::join`], [`AbsStore::iter`]) is retained for the post-run
//! consumers (soundness checks, reports, metrics); it materializes
//! `BTreeSet`s on demand and is not used on the fixpoint hot path.

use crate::fxhash::FxHashMap;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::Arc;

/// A materialized flow set: the abstract denotation `D̂ = P(V)`.
///
/// Only used off the hot path (post-run inspection and machine-local
/// accumulators); the engine itself works on [`Flow`] id sets.
pub type FlowSet<V> = BTreeSet<V>;

/// Interns items of type `T` into dense `u32` ids.
///
/// Ids are assigned in first-seen order; `get` is a plain vector index.
#[derive(Clone, Debug)]
pub struct ValuePool<T> {
    items: Vec<T>,
    index: FxHashMap<T, u32>,
}

impl<T> Default for ValuePool<T> {
    fn default() -> Self {
        ValuePool {
            items: Vec::new(),
            index: FxHashMap::default(),
        }
    }
}

impl<T: Eq + Hash + Clone> ValuePool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a pool from items already in id order — the final step
    /// of a sharded run, where the global concurrent interner drains
    /// into an ordinary [`ValuePool`] (ids are preserved verbatim; each
    /// item is hashed once to rebuild the lookup index).
    pub(crate) fn from_items(items: Vec<T>) -> Self {
        let index = items
            .iter()
            .enumerate()
            .map(|(i, item)| (item.clone(), i as u32))
            .collect();
        ValuePool { items, index }
    }

    /// Approximate resident bytes: the item vector plus the lookup
    /// index. Heap owned *inside* items (strings, shared environments)
    /// is not chased — the estimate compares store configurations, it
    /// does not audit the allocator.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
            + self.index.capacity() * (std::mem::size_of::<T>() + std::mem::size_of::<(u32, u64)>())
    }

    /// Interns `item`, returning its dense id.
    pub fn intern(&mut self, item: T) -> u32 {
        if let Some(&id) = self.index.get(&item) {
            return id;
        }
        let id = u32::try_from(self.items.len()).expect("pool overflow");
        self.items.push(item.clone());
        self.index.insert(item, id);
        id
    }

    /// Interns by reference, cloning only on first sight.
    pub fn intern_ref(&mut self, item: &T) -> u32 {
        if let Some(&id) = self.index.get(item) {
            return id;
        }
        let id = u32::try_from(self.items.len()).expect("pool overflow");
        self.items.push(item.clone());
        self.index.insert(item.clone(), id);
        id
    }

    /// The item with id `id`.
    pub fn get(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// The id of `item`, if it has been interned.
    pub fn lookup(&self, item: &T) -> Option<u32> {
        self.index.get(item).copied()
    }

    /// Number of interned items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates items in id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

/// A flow set as a sorted set of interned value ids.
///
/// `Shared` is a zero-copy view of a store row (an `Arc` clone); `Owned`
/// holds machine-built sets (literals, primop results). Both variants
/// keep their ids sorted and duplicate-free.
#[derive(Clone, Debug)]
pub enum Flow {
    /// A shared snapshot of a store row.
    Shared(Arc<Vec<u32>>),
    /// A locally built id set.
    Owned(Vec<u32>),
}

impl Default for Flow {
    fn default() -> Self {
        Flow::Owned(Vec::new())
    }
}

impl Flow {
    /// The empty flow set (`⊥`).
    pub fn empty() -> Flow {
        Flow::default()
    }

    /// A one-element flow set.
    pub fn singleton(id: u32) -> Flow {
        Flow::Owned(vec![id])
    }

    /// Builds a flow set from arbitrary ids (sorts and dedups).
    pub fn from_ids(mut ids: Vec<u32>) -> Flow {
        ids.sort_unstable();
        ids.dedup();
        Flow::Owned(ids)
    }

    /// The sorted ids.
    pub fn ids(&self) -> &[u32] {
        match self {
            Flow::Shared(arc) => arc,
            Flow::Owned(v) => v,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.ids().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids().is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: u32) -> bool {
        self.ids().binary_search(&id).is_ok()
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids().iter().copied()
    }
}

/// One bound address: its current id set, whether a join ever touched it
/// (even an empty one — the paper's `⊥`-bound addresses are observable
/// in the store-entry metric), and the global epoch of its last growth.
///
/// `log` holds the row's ids in arrival order; `marks` are `(epoch,
/// end offset into log)` checkpoints, one per growing join, kept in
/// strictly increasing epoch order. Together they answer delta-since
/// queries with a binary search and a slice.
#[derive(Clone, Debug, Default)]
pub(crate) struct Row {
    pub(crate) ids: Option<Arc<Vec<u32>>>,
    pub(crate) bound: bool,
    pub(crate) epoch: u64,
    pub(crate) log: Vec<u32>,
    pub(crate) marks: Vec<(u64, u32)>,
}

/// A monotone map from abstract addresses to flow sets.
///
/// See the module docs for the representation. `A` is the machine's
/// address type, `V` its value type; both are interned on first use.
#[derive(Clone, Debug)]
pub struct AbsStore<A, V> {
    addrs: ValuePool<A>,
    vals: ValuePool<V>,
    rows: Vec<Row>,
    joins: u64,
    value_joins: u64,
    epoch: u64,
    /// Delta queries reaching behind this epoch fail: the logs before it
    /// were dropped by [`AbsStore::trim_delta_logs`].
    log_floor: u64,
    /// Approximate bytes held by the rows' delta logs — maintained
    /// incrementally so the engine's watermark check is O(1), not a
    /// row walk. Reset by [`AbsStore::trim_delta_logs`].
    log_bytes: usize,
    bound_count: usize,
}

impl<A: Eq + Hash + Clone, V: Eq + Hash + Clone> Default for AbsStore<A, V> {
    fn default() -> Self {
        AbsStore {
            addrs: ValuePool::new(),
            vals: ValuePool::new(),
            rows: Vec::new(),
            joins: 0,
            value_joins: 0,
            epoch: 0,
            log_floor: 0,
            log_bytes: 0,
            bound_count: 0,
        }
    }
}

impl<A: Eq + Hash + Clone, V: Eq + Hash + Clone> AbsStore<A, V> {
    /// An empty store (`⊥`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles a store from already-consistent parts — how a sharded
    /// run's global store becomes an ordinary [`AbsStore`] result
    /// without re-interning a single value (ids are process-global).
    pub(crate) fn assemble(
        addrs: ValuePool<A>,
        vals: ValuePool<V>,
        rows: Vec<Row>,
        joins: u64,
        value_joins: u64,
        epoch: u64,
        log_floor: u64,
    ) -> Self {
        let bound_count = rows.iter().filter(|r| r.bound).count();
        let log_bytes = rows
            .iter()
            .map(|r| {
                r.log.len() * std::mem::size_of::<u32>()
                    + r.marks.len() * std::mem::size_of::<(u64, u32)>()
            })
            .sum();
        AbsStore {
            addrs,
            vals,
            rows,
            joins,
            value_joins,
            epoch,
            log_floor,
            log_bytes,
            bound_count,
        }
    }

    // -- id-level API (the hot path) ----------------------------------

    /// Interns `addr`, returning its dense id.
    pub fn addr_id(&mut self, addr: &A) -> u32 {
        let id = self.addrs.intern_ref(addr);
        if self.rows.len() <= id as usize {
            self.rows.resize_with(id as usize + 1, Row::default);
        }
        id
    }

    /// The id of `addr` if it has ever been seen.
    pub fn lookup_addr(&self, addr: &A) -> Option<u32> {
        self.addrs.lookup(addr)
    }

    /// The address with id `id`.
    pub fn addr(&self, id: u32) -> &A {
        self.addrs.get(id)
    }

    /// Interns a value, returning its dense id.
    pub fn val_id(&mut self, value: V) -> u32 {
        self.vals.intern(value)
    }

    /// The value with id `id`.
    pub fn val(&self, id: u32) -> &V {
        self.vals.get(id)
    }

    /// The current flow set at address id `addr_id` — an `Arc` clone,
    /// never a copy of the ids.
    pub fn flow_by_id(&self, addr_id: u32) -> Flow {
        match self.rows.get(addr_id as usize).and_then(|r| r.ids.as_ref()) {
            Some(arc) => Flow::Shared(Arc::clone(arc)),
            None => Flow::empty(),
        }
    }

    /// The current flow set at `addr` (empty if unbound).
    pub fn read_flow(&self, addr: &A) -> Flow {
        match self.lookup_addr(addr) {
            Some(id) => self.flow_by_id(id),
            None => Flow::empty(),
        }
    }

    /// The global join epoch: bumped once per *growing* join.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch at which address id `addr_id` last grew (0 = never).
    pub fn addr_epoch(&self, addr_id: u32) -> u64 {
        self.rows.get(addr_id as usize).map_or(0, |r| r.epoch)
    }

    /// Joins already-interned `new_ids` (sorted, unique) into the row of
    /// `addr_id`, appending the **delta** — the ids actually added — to
    /// `delta`. Returns `true` if the row grew.
    pub fn join_ids(&mut self, addr_id: u32, new_ids: &[u32], delta: &mut Vec<u32>) -> bool {
        self.joins += 1;
        self.value_joins += new_ids.len() as u64;
        debug_assert!(
            new_ids.windows(2).all(|w| w[0] < w[1]),
            "join_ids needs sorted ids"
        );
        if self.rows.len() <= addr_id as usize {
            self.rows.resize_with(addr_id as usize + 1, Row::default);
        }
        let row = &mut self.rows[addr_id as usize];
        if !row.bound {
            row.bound = true;
            self.bound_count += 1;
        }
        let delta_start = delta.len();
        match &row.ids {
            None => delta.extend_from_slice(new_ids),
            Some(cur) => {
                // Single merge scan collecting ids missing from `cur`.
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
        // Copy-on-grow: build the merged vector once; existing `Shared`
        // views keep their snapshot.
        let added = &delta[delta_start..];
        let merged = match &row.ids {
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
        row.ids = Some(Arc::new(merged));
        self.epoch += 1;
        row.epoch = self.epoch;
        // Append the growth to the row's delta log, checkpointed by the
        // epoch that produced it.
        row.log.extend_from_slice(&delta[delta_start..]);
        let end = u32::try_from(row.log.len()).expect("delta log overflow");
        row.marks.push((self.epoch, end));
        self.log_bytes += (delta.len() - delta_start) * std::mem::size_of::<u32>()
            + std::mem::size_of::<(u64, u32)>();
        true
    }

    /// The ids added to the row of `addr_id` strictly after epoch
    /// `since`, in arrival order (distinct, but not sorted).
    ///
    /// Returns `None` when the answer is unknowable — the logs covering
    /// that span were dropped by [`AbsStore::trim_delta_logs`]
    /// (*snapshot loss*); callers must fall back to treating the whole
    /// row as new. An unbound or never-grown row yields an empty slice.
    pub fn delta_ids_since(&self, addr_id: u32, since: u64) -> Option<&[u32]> {
        if since < self.log_floor {
            return None;
        }
        let Some(row) = self.rows.get(addr_id as usize) else {
            return Some(&[]);
        };
        // First mark with epoch > since; everything from its start
        // offset onward is the delta.
        let idx = row.marks.partition_point(|&(e, _)| e <= since);
        let start = if idx == 0 {
            0
        } else {
            row.marks[idx - 1].1 as usize
        };
        Some(&row.log[start..])
    }

    /// [`AbsStore::delta_ids_since`] as a sorted [`Flow`] (`None` on
    /// snapshot loss).
    pub fn delta_flow_since(&self, addr_id: u32, since: u64) -> Option<Flow> {
        self.delta_ids_since(addr_id, since)
            .map(|ids| Flow::from_ids(ids.to_vec()))
    }

    /// Drops every row's delta log, reclaiming the memory. Subsequent
    /// delta queries for epochs before the current one report snapshot
    /// loss (`None`); queries baselined at or after the trim keep
    /// working, since logging continues from here.
    pub fn trim_delta_logs(&mut self) {
        for row in &mut self.rows {
            row.log = Vec::new();
            row.marks = Vec::new();
        }
        self.log_floor = self.epoch;
        self.log_bytes = 0;
    }

    /// Joins a [`Flow`] into `addr` (id-level; no values are touched).
    pub fn join_flow(&mut self, addr: &A, flow: &Flow, delta: &mut Vec<u32>) -> bool {
        let id = self.addr_id(addr);
        self.join_ids(id, flow.ids(), delta)
    }

    // -- value-level API (post-run consumers & compatibility) ---------

    /// Joins `values` into the flow set at `addr`. Returns `true` if the
    /// set grew (the monotonicity signal the worklist engine needs).
    pub fn join(&mut self, addr: A, values: impl IntoIterator<Item = V>) -> bool {
        let ids: Vec<u32> = values.into_iter().map(|v| self.vals.intern(v)).collect();
        let flow = Flow::from_ids(ids);
        let addr_id = self.addr_id(&addr);
        let mut delta = Vec::new();
        self.join_ids(addr_id, flow.ids(), &mut delta)
    }

    /// Materializes the flow set at `addr`; unbound addresses are `⊥`
    /// (empty).
    pub fn read(&self, addr: &A) -> FlowSet<V>
    where
        V: Ord,
    {
        self.materialize(&self.read_flow(addr))
    }

    /// Materializes a [`Flow`] into a value set.
    pub fn materialize(&self, flow: &Flow) -> FlowSet<V>
    where
        V: Ord,
    {
        flow.iter().map(|id| self.vals.get(id).clone()).collect()
    }

    /// Number of bound addresses (addresses some join touched).
    pub fn len(&self) -> usize {
        self.bound_count
    }

    /// Whether no address is bound.
    pub fn is_empty(&self) -> bool {
        self.bound_count == 0
    }

    /// Total number of `(address, value)` facts — the store's lattice
    /// "height consumed", reported by the experiment harness.
    pub fn fact_count(&self) -> usize {
        self.rows
            .iter()
            .filter_map(|r| r.ids.as_ref())
            .map(|ids| ids.len())
            .sum()
    }

    /// Number of join operations performed (including no-ops).
    pub fn join_count(&self) -> u64 {
        self.joins
    }

    /// Total value ids fed into joins (Σ |input set| over all join
    /// calls) — the work a join actually scans. Semi-naive transfer
    /// functions exist to shrink this number; the raw call count above
    /// barely moves.
    pub fn value_join_count(&self) -> u64 {
        self.value_joins
    }

    /// Number of distinct interned values.
    pub fn distinct_values(&self) -> usize {
        self.vals.len()
    }

    /// Approximate bytes currently held by the delta logs — what a
    /// trim would reclaim. Maintained incrementally (O(1) to read);
    /// the engines key `EngineLimits::store_bytes_watermark` on this.
    pub fn delta_log_bytes(&self) -> usize {
        self.log_bytes
    }

    /// The epoch floor below which delta queries report snapshot loss.
    /// Zero until [`AbsStore::trim_delta_logs`] runs; afterwards the
    /// epoch of the most recent trim — engine-level tests use this to
    /// prove a watermark trim actually fired.
    pub fn delta_log_floor(&self) -> u64 {
        self.log_floor
    }

    /// Approximate resident bytes of the store: the interner pools, the
    /// row table, the flow snapshots, and the delta logs. Heap owned
    /// inside individual values is not chased, so treat this as a
    /// comparison metric across engine configurations rather than an
    /// allocator audit. The engine's `store_bytes_watermark` keys delta
    /// log trimming on this number.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>()
            + self.addrs.approx_bytes()
            + self.vals.approx_bytes()
            + self.rows.capacity() * std::mem::size_of::<Row>();
        for row in &self.rows {
            if let Some(ids) = &row.ids {
                bytes += ids.len() * std::mem::size_of::<u32>();
            }
            bytes += row.log.capacity() * std::mem::size_of::<u32>()
                + row.marks.capacity() * std::mem::size_of::<(u64, u32)>();
        }
        bytes
    }

    /// Iterates over `(address id, sorted value ids)` for every bound
    /// address, in id order; a bound row that never received a value
    /// yields an empty slice. The id-level twin of [`AbsStore::iter`].
    pub(crate) fn bound_rows(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.bound)
            .map(|(i, row)| (i as u32, row.ids.as_deref().map_or(&[][..], Vec::as_slice)))
    }

    /// Iterates over `(address, materialized flow set)` pairs for every
    /// bound address, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&A, FlowSet<V>)>
    where
        V: Ord,
    {
        self.bound_rows().map(|(addr, ids)| {
            let set = ids.iter().map(|&id| self.vals.get(id).clone()).collect();
            (self.addrs.get(addr), set)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn join_reports_growth() {
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        assert!(s.join(1, [10]));
        assert!(!s.join(1, [10]), "joining an existing value is a no-op");
        assert!(s.join(1, [11]));
        assert_eq!(s.read(&1).len(), 2);
    }

    #[test]
    fn unbound_reads_are_bottom() {
        let s: AbsStore<u32, u32> = AbsStore::new();
        assert!(s.read(&99).is_empty());
        assert!(s.read_flow(&99).is_empty());
    }

    #[test]
    fn fact_count_sums_sets() {
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        s.join(1, [1, 2, 3]);
        s.join(2, [4]);
        assert_eq!(s.fact_count(), 4);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn join_count_tracks_calls() {
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        s.join(1, [1]);
        s.join(1, [1]);
        assert_eq!(s.join_count(), 2);
    }

    #[test]
    fn empty_joins_bind_addresses() {
        // A join with no values still marks the address bound — the
        // store-entry metric counts ⊥-bound addresses, as the original
        // HashMap-of-BTreeSet representation did.
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        assert!(!s.join(7, []));
        assert_eq!(s.len(), 1);
        assert_eq!(s.fact_count(), 0);
    }

    #[test]
    fn shared_reads_are_snapshots() {
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        s.join(1, [10, 20]);
        let before = s.read_flow(&1);
        s.join(1, [30]);
        let after = s.read_flow(&1);
        assert_eq!(before.len(), 2, "old view untouched by copy-on-grow");
        assert_eq!(after.len(), 3);
    }

    #[test]
    fn join_ids_reports_exact_delta() {
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        s.join(1, [10, 20, 30]);
        let a = s.addr_id(&1);
        let (id15, id20, id40) = (s.val_id(15), s.val_id(20), s.val_id(40));
        let mut ids = vec![id15, id20, id40];
        ids.sort_unstable();
        let mut delta = Vec::new();
        assert!(s.join_ids(a, &ids, &mut delta));
        let mut expect = vec![id15, id40];
        expect.sort_unstable();
        assert_eq!(delta, expect, "delta holds exactly the new ids");
    }

    #[test]
    fn epochs_advance_only_on_growth() {
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        s.join(1, [10]);
        let a = s.addr_id(&1);
        let e1 = s.addr_epoch(a);
        assert!(e1 > 0);
        s.join(1, [10]);
        assert_eq!(s.addr_epoch(a), e1, "no-op join leaves the epoch");
        s.join(1, [11]);
        assert!(s.addr_epoch(a) > e1);
        assert_eq!(s.epoch(), s.addr_epoch(a));
    }

    #[test]
    fn delta_since_returns_exactly_the_later_growth() {
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        s.join(1, [10, 20]);
        let a = s.addr_id(&1);
        let e1 = s.epoch();
        s.join(1, [20, 30]);
        s.join(1, [40]);
        // Since the beginning: everything, in arrival order.
        let all: Vec<u32> = s.delta_ids_since(a, 0).unwrap().to_vec();
        assert_eq!(all.len(), 4);
        // Since e1: only the two later waves.
        let late = s.delta_ids_since(a, e1).unwrap();
        let late_vals: BTreeSet<u32> = late.iter().map(|&id| *s.val(id)).collect();
        assert_eq!(late_vals, [30u32, 40].into_iter().collect());
        // Since the current epoch: nothing.
        assert_eq!(s.delta_ids_since(a, s.epoch()).unwrap(), &[] as &[u32]);
    }

    #[test]
    fn delta_since_spans_two_waves_without_losing_the_first() {
        // The classic semi-naive reset bug: growth arriving in two
        // separate waves must both be visible to a reader baselined
        // before wave one.
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        let a = s.addr_id(&1);
        let base = s.epoch();
        s.join(1, [1, 2]); // wave 1
        s.join(2, [99]); // unrelated traffic in between
        s.join(1, [3]); // wave 2
        let delta: BTreeSet<u32> = s
            .delta_ids_since(a, base)
            .unwrap()
            .iter()
            .map(|&id| *s.val(id))
            .collect();
        assert_eq!(delta, [1u32, 2, 3].into_iter().collect());
    }

    #[test]
    fn trimmed_logs_report_snapshot_loss_then_resume() {
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        s.join(1, [10]);
        let a = s.addr_id(&1);
        let pre_trim = s.epoch();
        s.trim_delta_logs();
        // Baselines behind the trim are unanswerable.
        assert!(s.delta_ids_since(a, 0).is_none());
        // At-or-after the trim, logging has resumed.
        assert_eq!(s.delta_ids_since(a, pre_trim).unwrap(), &[] as &[u32]);
        s.join(1, [11]);
        let post: Vec<u32> = s
            .delta_ids_since(a, pre_trim)
            .unwrap()
            .iter()
            .map(|&id| *s.val(id))
            .collect();
        assert_eq!(post, vec![11]);
    }

    #[test]
    fn value_join_count_tracks_input_sizes() {
        let mut s: AbsStore<u32, u32> = AbsStore::new();
        s.join(1, [1, 2, 3]);
        s.join(1, [3]);
        assert_eq!(s.value_join_count(), 4);
    }

    #[test]
    fn model_based_random_ops_match_btreeset_semantics() {
        // Model-based differential test: the interned/sorted-vec store
        // must agree with the obvious HashMap<A, BTreeSet<V>> model on
        // random join/read sequences (including growth signals).
        let mut s: AbsStore<u64, u64> = AbsStore::new();
        let mut model: HashMap<u64, BTreeSet<u64>> = HashMap::new();
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..5_000 {
            let addr = rng() % 17;
            let n = (rng() % 4) as usize;
            let values: Vec<u64> = (0..n).map(|_| rng() % 23).collect();
            let grew = s.join(addr, values.iter().copied());
            let set = model.entry(addr).or_default();
            let before = set.len();
            set.extend(values.iter().copied());
            assert_eq!(grew, set.len() != before, "growth signals agree");
            let probe = rng() % 17;
            assert_eq!(
                s.read(&probe),
                model.get(&probe).cloned().unwrap_or_default(),
                "reads agree at {probe}"
            );
        }
        assert_eq!(s.len(), model.len());
        assert_eq!(
            s.fact_count(),
            model.values().map(BTreeSet::len).sum::<usize>()
        );
    }
}
