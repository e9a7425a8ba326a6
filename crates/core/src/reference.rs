//! The retained original engine — the pre-interning store and worklist,
//! kept verbatim as a differential oracle and benchmark baseline.
//!
//! [`crate::engine`] rebuilt the fixpoint hot path around interned
//! values and zero-copy flow sets. Because the fixed point of a monotone
//! transfer function is unique, the rebuilt engine must reach *exactly*
//! the same configurations and store facts as this one; the differential
//! tests in `tests/engine_differential.rs` and the `engine_bench`
//! binary both run the two side by side (the former to prove equality,
//! the latter to measure the speedup).
//!
//! Nothing here should be used on new code paths: the clone-per-read
//! [`RefStore`] is the cost model the new engine exists to beat.
//!
//! The oracle deliberately has **no delta interface**: a
//! [`ReferenceMachine`] step always sees materialized full value sets
//! and always re-derives the full product, so it cannot share a
//! semi-naive bug with the engines it checks. The shared runner
//! (`cfa_testsupport::assert_engines_agree`) compares it against the
//! delta engine in both evaluation modes, sequential and parallel.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::time::{Duration, Instant};

pub use crate::engine::{EngineLimits, Status};

/// The original store: a `HashMap` of `BTreeSet`s, cloned on every read.
#[derive(Clone, Debug)]
pub struct RefStore<A, V> {
    map: HashMap<A, BTreeSet<V>>,
    joins: u64,
}

impl<A: Eq + Hash + Clone, V: Ord + Clone> Default for RefStore<A, V> {
    fn default() -> Self {
        RefStore {
            map: HashMap::new(),
            joins: 0,
        }
    }
}

impl<A: Eq + Hash + Clone, V: Ord + Clone> RefStore<A, V> {
    /// An empty store (`⊥`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the flow set at `addr` — **by value**: this is the
    /// clone-per-read cost the interned store removes.
    pub fn read(&self, addr: &A) -> BTreeSet<V> {
        self.map.get(addr).cloned().unwrap_or_default()
    }

    /// Borrows the flow set at `addr` if bound.
    pub fn get(&self, addr: &A) -> Option<&BTreeSet<V>> {
        self.map.get(addr)
    }

    /// Joins `values` into the flow set at `addr`; `true` on growth.
    pub fn join(&mut self, addr: A, values: impl IntoIterator<Item = V>) -> bool {
        self.joins += 1;
        let set = self.map.entry(addr).or_default();
        let before = set.len();
        set.extend(values);
        set.len() != before
    }

    /// Number of bound addresses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no address is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total number of `(address, value)` facts.
    pub fn fact_count(&self) -> usize {
        self.map.values().map(BTreeSet::len).sum()
    }

    /// Number of join operations performed (including no-ops).
    pub fn join_count(&self) -> u64 {
        self.joins
    }

    /// Iterates over `(address, flow set)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&A, &BTreeSet<V>)> {
        self.map.iter()
    }
}

/// The original tracked view: reads clone, dependencies are recorded as
/// owned addresses (duplicates and all).
#[derive(Debug)]
pub struct RefTrackedStore<'a, A, V> {
    store: &'a mut RefStore<A, V>,
    reads: Vec<A>,
    grew: Vec<A>,
}

impl<'a, A: Eq + Hash + Clone, V: Ord + Clone> RefTrackedStore<'a, A, V> {
    /// Wraps a store for a one-off step outside the engine loop — how
    /// the race detector recovers the saturated graph's edges when a
    /// candidate pair needs ordering. Recorded reads and growth are
    /// simply discarded.
    pub(crate) fn wrap(store: &'a mut RefStore<A, V>) -> Self {
        RefTrackedStore {
            store,
            reads: Vec::new(),
            grew: Vec::new(),
        }
    }

    /// Reads the flow set at `addr`, recording the dependency.
    pub fn read(&mut self, addr: &A) -> BTreeSet<V> {
        self.reads.push(addr.clone());
        self.store.read(addr)
    }

    /// Joins values into `addr`, recording growth.
    pub fn join(&mut self, addr: A, values: impl IntoIterator<Item = V>) {
        if self.store.join(addr.clone(), values) {
            self.grew.push(addr);
        }
    }

    /// Reads without recording a dependency.
    pub fn peek(&self, addr: &A) -> BTreeSet<V> {
        self.store.read(addr)
    }
}

/// The machine interface of the original engine: step functions work on
/// materialized value sets.
pub trait ReferenceMachine {
    /// A configuration (see [`crate::engine::AbstractMachine::Config`]).
    /// `Debug` lets an aborted oracle run name the panicking
    /// configuration, as the main engine does.
    type Config: Clone + Eq + Hash + std::fmt::Debug;
    /// Abstract addresses.
    type Addr: Clone + Eq + Hash;
    /// Abstract values.
    type Val: Clone + Ord;

    /// The initial configuration.
    fn initial(&self) -> Self::Config;

    /// Seeds the store before exploration begins.
    fn seed(&mut self, store: &mut RefTrackedStore<'_, Self::Addr, Self::Val>) {
        let _ = store;
    }

    /// Computes the successors of `config`.
    fn step(
        &mut self,
        config: &Self::Config,
        store: &mut RefTrackedStore<'_, Self::Addr, Self::Val>,
        out: &mut Vec<Self::Config>,
    );
}

/// The original engine's output.
#[derive(Debug)]
pub struct RefFixpointResult<C, A, V> {
    /// All reached configurations, in first-visit order.
    pub configs: Vec<C>,
    /// The final single-threaded store.
    pub store: RefStore<A, V>,
    /// Why the run stopped.
    pub status: Status,
    /// Number of configuration evaluations.
    pub iterations: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// The run's telemetry (one lane; empty when tracing is off).
    pub trace: crate::telemetry::RunTrace,
}

impl<C, A, V> RefFixpointResult<C, A, V> {
    /// Number of distinct configurations reached.
    pub fn config_count(&self) -> usize {
        self.configs.len()
    }
}

/// Runs `machine` to its least fixed point with the original scheduling
/// and store representation (kept byte-for-byte from the pre-interning
/// engine, including its quirk of registering duplicate read-deps per
/// occurrence — but *not* its limit-check quirks: the oracle now shares
/// the main engine's discipline of checking limits before the pop,
/// keyed on the pop count, so an oracle run can't silently overrun its
/// `time_budget` and a budget-cut configuration stays queued; it also
/// honors [`EngineLimits::cancel`] and contains transfer-function
/// panics the same way, returning [`Status::Aborted`] instead of
/// unwinding into the caller).
pub fn run_fixpoint_reference<M: ReferenceMachine>(
    machine: &mut M,
    limits: EngineLimits,
) -> RefFixpointResult<M::Config, M::Addr, M::Val> {
    let start = Instant::now();
    let mut trace = crate::telemetry::TraceBuffer::new(limits.trace);
    trace.set_origin(start);
    let mut store: RefStore<M::Addr, M::Val> = RefStore::new();
    let mut configs: Vec<M::Config> = Vec::new();
    let mut index: HashMap<M::Config, usize> = HashMap::new();
    let mut deps: HashMap<M::Addr, HashSet<usize>> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut queued: HashSet<usize> = HashSet::new();

    let intern = |cfg: M::Config,
                  configs: &mut Vec<M::Config>,
                  index: &mut HashMap<M::Config, usize>|
     -> (usize, bool) {
        if let Some(&i) = index.get(&cfg) {
            (i, false)
        } else {
            let i = configs.len();
            configs.push(cfg.clone());
            index.insert(cfg, i);
            (i, true)
        }
    };

    {
        let mut tracked = RefTrackedStore {
            store: &mut store,
            reads: Vec::new(),
            grew: Vec::new(),
        };
        machine.seed(&mut tracked);
    }
    let (root, _) = intern(machine.initial(), &mut configs, &mut index);
    queue.push_back(root);
    queued.insert(root);

    let mut iterations: u64 = 0;
    let mut status = Status::Completed;
    let mut successors: Vec<M::Config> = Vec::new();

    // The reference has no epoch gate, so every pop evaluates and the
    // pop count equals `iterations` — the counter is still kept
    // separate so the oracle's limit checks read exactly like the main
    // engine's pop-keyed ones (the PR 2 fix, ported here).
    let mut pops: u64 = 0;

    while queue.front().is_some() {
        // Check limits *before* popping (the main engine's discipline):
        // a configuration the budget cuts off stays queued.
        if iterations >= limits.max_iterations {
            status = Status::IterationLimit;
            break;
        }
        if pops.is_multiple_of(256) {
            if let Some(token) = &limits.cancel {
                if token.is_cancelled() {
                    status = Status::Cancelled;
                    break;
                }
            }
            if let Some(budget) = limits.time_budget {
                if start.elapsed() > budget {
                    status = Status::TimedOut;
                    break;
                }
            }
        }
        let i = queue.pop_front().expect("peeked element present");
        queued.remove(&i);
        pops += 1;
        iterations += 1;

        let config = configs[i].clone();
        successors.clear();
        let mut tracked = RefTrackedStore {
            store: &mut store,
            reads: Vec::new(),
            grew: Vec::new(),
        };
        trace.eval_start(i as u64);
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine.step(&config, &mut tracked, &mut successors)
        }));
        trace.eval_end(i as u64);
        if let Err(payload) = step {
            status = Status::Aborted {
                config: format!("{config:?}"),
                message: crate::engine::panic_message(payload.as_ref()),
            };
            break;
        }
        let RefTrackedStore { reads, grew, .. } = tracked;

        for addr in reads {
            deps.entry(addr).or_default().insert(i);
        }
        for succ in successors.drain(..) {
            let (j, fresh) = intern(succ, &mut configs, &mut index);
            if fresh && queued.insert(j) {
                queue.push_back(j);
            }
        }
        for addr in grew {
            if let Some(dependents) = deps.get(&addr) {
                for &j in dependents {
                    if queued.insert(j) {
                        queue.push_back(j);
                    }
                }
            }
        }
    }

    RefFixpointResult {
        configs,
        store,
        status,
        iterations,
        elapsed: start.elapsed(),
        trace: crate::telemetry::RunTrace::from_buffers(vec![trace]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        n: u32,
    }

    impl ReferenceMachine for Counter {
        type Config = u32;
        type Addr = u32;
        type Val = u32;

        fn initial(&self) -> u32 {
            0
        }

        fn step(
            &mut self,
            config: &u32,
            store: &mut RefTrackedStore<'_, u32, u32>,
            out: &mut Vec<u32>,
        ) {
            let c = *config;
            if c < self.n {
                store.join(c % 3, [c]);
                out.push(c + 1);
            } else {
                let _ = store.read(&0);
            }
        }
    }

    #[test]
    fn reference_engine_reaches_fixpoint() {
        let mut m = Counter { n: 10 };
        let r = run_fixpoint_reference(&mut m, EngineLimits::default());
        assert_eq!(r.status, Status::Completed);
        assert_eq!(r.config_count(), 11);
        assert_eq!(r.store.read(&0), [0u32, 3, 6, 9].into_iter().collect());
    }

    #[test]
    fn reference_and_delta_engines_agree_on_toys() {
        struct C2(u32);
        impl crate::engine::AbstractMachine for C2 {
            type Config = u32;
            type Addr = u32;
            type Val = u32;
            fn initial(&self) -> u32 {
                0
            }
            fn step(
                &mut self,
                config: &u32,
                store: &mut crate::engine::TrackedStore<'_, u32, u32>,
                out: &mut Vec<u32>,
            ) {
                let c = *config;
                if c < self.0 {
                    store.join(&(c % 3), [c]);
                    out.push(c + 1);
                } else {
                    let _ = store.read(&0);
                }
            }
        }
        let reference = run_fixpoint_reference(&mut Counter { n: 25 }, EngineLimits::default());
        let delta = crate::engine::run_fixpoint(&mut C2(25), EngineLimits::default());
        let ref_configs: std::collections::BTreeSet<u32> =
            reference.configs.iter().copied().collect();
        let new_configs: std::collections::BTreeSet<u32> = delta.configs.iter().copied().collect();
        assert_eq!(ref_configs, new_configs);
        for (addr, set) in reference.store.iter() {
            assert_eq!(delta.store.read(addr), *set, "address {addr}");
        }
        assert_eq!(reference.store.len(), delta.store.len());
        assert_eq!(reference.store.fact_count(), delta.store.fact_count());
    }
}
