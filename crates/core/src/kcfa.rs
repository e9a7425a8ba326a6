//! k-CFA: Shivers's shared-environment abstract interpreter (§3.4–3.7).
//!
//! Abstract states are `(call, β̂, σ̂, t̂)`; this module implements the
//! single-threaded-store formulation of §3.7 on top of the generic
//! worklist engine. The crucial representation choice — the one the paper
//! shows is responsible for EXPTIME-hardness — is that binding
//! environments are **maps** from variables to addresses ([`BEnvK`]):
//! a closure may mix bindings from *different* contexts, so the number of
//! distinct abstract environments can be exponential in program size.
//!
//! `k` is a runtime parameter; `k = 0` gives the classic context-
//! insensitive 0CFA.
//!
//! # Examples
//!
//! ```
//! use cfa_core::kcfa::analyze_kcfa;
//! use cfa_core::engine::EngineLimits;
//!
//! let p = cfa_syntax::compile("(define (id x) x) (id 42)").unwrap();
//! let result = analyze_kcfa(&p, 1, EngineLimits::default());
//! assert!(result.metrics.status.is_complete());
//! assert!(result.metrics.halt_values.contains("42"));
//! ```

use crate::domain::{AVal, AbsBasic, CallString};
use crate::engine::{
    run_fixpoint, AbstractMachine, DeltaFlow, EngineLimits, FixpointResult, TrackedStore,
};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::prim::{classify, PrimSpec};
use crate::reference::{RefTrackedStore, ReferenceMachine};
use crate::results::{MetricSets, Metrics};
use crate::store::{Flow, FlowSet};
use cfa_concrete::base::Slot;
use cfa_syntax::cps::{AExp, CallId, CallKind, CpsProgram, LamId, LamSort};
use cfa_syntax::intern::Symbol;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A k-CFA abstract address: slot × abstract time (`Var × Callᵏ`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AddrK {
    /// What is stored.
    pub slot: Slot,
    /// The abstract binding time.
    pub time: CallString,
}

/// A k-CFA binding environment: a *map* from variables to addresses,
/// stored as a sorted vector behind `Arc`, with its structural hash
/// **precomputed at construction**.
///
/// Structural equality/ordering means environments are compared by
/// meaning. The map-ness is the point: unlike m-CFA environments, two
/// variables in one `BEnvK` may carry different binding times.
///
/// Environments are the deepest keys on the hot path — every config
/// intern, closure intern, and entry-env metric insert hashes one — so
/// re-walking the binding vector per hash would dominate the profile.
/// The cached hash makes those O(1), and equality gets an `Arc` pointer
/// fast path plus a cheap hash-mismatch early exit.
#[derive(Clone, Debug)]
pub struct BEnvK {
    hash: u64,
    items: Arc<Vec<(Symbol, AddrK)>>,
}

impl Default for BEnvK {
    fn default() -> Self {
        Self::from_items(Vec::new())
    }
}

impl PartialEq for BEnvK {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.items, &other.items) || self.items == other.items)
    }
}

impl Eq for BEnvK {}

impl PartialOrd for BEnvK {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BEnvK {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.items.cmp(&other.items)
    }
}

impl std::hash::Hash for BEnvK {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl BEnvK {
    fn from_items(items: Vec<(Symbol, AddrK)>) -> Self {
        use std::hash::{Hash as _, Hasher as _};
        let mut h = crate::fxhash::FxHasher::default();
        items.hash(&mut h);
        BEnvK {
            hash: h.finish(),
            items: Arc::new(items),
        }
    }

    /// The empty environment.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Looks up a variable.
    pub fn get(&self, v: Symbol) -> Option<&AddrK> {
        self.items
            .binary_search_by_key(&v, |(s, _)| *s)
            .ok()
            .map(|i| &self.items[i].1)
    }

    /// Functional extension (later bindings shadow earlier ones).
    pub fn extend(&self, bindings: impl IntoIterator<Item = (Symbol, AddrK)>) -> BEnvK {
        let mut v: Vec<(Symbol, AddrK)> = (*self.items).clone();
        for (sym, addr) in bindings {
            match v.binary_search_by_key(&sym, |(s, _)| *s) {
                Ok(i) => v[i].1 = addr,
                Err(i) => v.insert(i, (sym, addr)),
            }
        }
        Self::from_items(v)
    }

    /// Restriction to a sorted variable set — what a closure captures.
    pub fn restrict(&self, vars: &[Symbol]) -> BEnvK {
        let mut v = Vec::with_capacity(vars.len());
        for &var in vars {
            if let Some(addr) = self.get(var) {
                v.push((var, addr.clone()));
            }
        }
        Self::from_items(v)
    }

    /// The identity of the binding vector: equal for two handles on one
    /// allocation, and unique among live allocations.
    fn id(&self) -> usize {
        Arc::as_ptr(&self.items) as usize
    }

    /// Iterates over the bindings in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &AddrK)> {
        self.items.iter().map(|(s, a)| (*s, a))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A k-CFA abstract value.
pub type ValK = AVal<BEnvK, AddrK>;

/// A k-CFA configuration: the store-less state component `(call, β̂, t̂, θ̂)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct KConfig {
    /// Current call site.
    pub call: CallId,
    /// Current binding environment.
    pub benv: BEnvK,
    /// Current abstract time.
    pub time: CallString,
    /// The abstract thread id: the bounded string of spawn-site labels
    /// that created this thread (empty for the main thread). This is the
    /// bounded-thread-pool component: at most `max(k,1)` spawn sites are
    /// remembered, so the abstract thread pool is finite.
    pub tid: CallString,
}

/// The k-CFA abstract machine (drives the generic engine).
#[derive(Debug)]
pub struct KCfaMachine<'p> {
    program: crate::ProgramSource<'p>,
    k: usize,
    /// Per call site: operator λ-flow and whether a non-closure flowed.
    operator_flows: FxHashMap<CallId, (BTreeSet<LamId>, bool)>,
    /// Log of (λ, entry environment) pairs, one per entry environment
    /// the machine builds; deduplicated once when metrics are built (a
    /// hot-path set insert per application was the single largest cost
    /// in the profile).
    lam_entry_envs: Vec<(LamId, BEnvK)>,
    /// Values reaching `%halt`.
    halt_values: BTreeSet<ValK>,
    /// The interned-engine path's environment constructors, memoized;
    /// the reference path builds every environment afresh.
    envs: EnvCache,
}

/// Memoized environment construction for the interned-engine path.
///
/// k-CFA's cost is its environments: a λ-atom restricts the current
/// environment and a new closure's application extends one, and each
/// fresh build copies and hashes a binding vector. Built environments
/// are hash-consed in `pool`, so each structure has one canonical
/// binding vector, and both constructors become functions of that
/// vector's *identity*: a hit hashes a pointer and a small key, and
/// copies and hashes no binding. Each entry holds its key environment,
/// so the pointer it is keyed by cannot be freed and reused while the
/// entry lives.
#[derive(Debug, Default)]
struct EnvCache {
    /// Hash-consed environments: structurally equal environments share
    /// one `Arc`, so equality checks on the hot path are pointer
    /// comparisons.
    pool: FxHashSet<BEnvK>,
    /// `(env, λ)` → `env` restricted to λ's free variables.
    captured: FxHashMap<(usize, LamId), (BEnvK, BEnvK)>,
    /// `(closure env, λ, time)` → the environment λ's body runs in.
    entry: FxHashMap<(usize, LamId, CallString), (BEnvK, BEnvK)>,
}

impl EnvCache {
    /// What a λ-atom evaluated in `env` captures.
    fn captured(&mut self, env: &BEnvK, lam: LamId, free_vars: &[Symbol]) -> BEnvK {
        match self.captured.entry((env.id(), lam)) {
            Entry::Occupied(hit) => hit.get().1.clone(),
            Entry::Vacant(slot) => {
                let captured = canon_env(&mut self.pool, env.restrict(free_vars));
                slot.insert((env.clone(), captured.clone()));
                captured
            }
        }
    }

    /// The environment a closure `(λ, env)` applied at `time` enters:
    /// `env` extended with λ's `params` bound at `time`. The flag is set
    /// when this call built it — the first time this machine saw the key.
    fn entry(
        &mut self,
        env: &BEnvK,
        lam: LamId,
        params: &[Symbol],
        time: &CallString,
    ) -> (BEnvK, bool) {
        match self.entry.entry((env.id(), lam, time.clone())) {
            Entry::Occupied(hit) => (hit.get().1.clone(), false),
            Entry::Vacant(slot) => {
                let bindings = params.iter().map(|&p| {
                    (
                        p,
                        AddrK {
                            slot: Slot::Var(p),
                            time: time.clone(),
                        },
                    )
                });
                let extended = canon_env(&mut self.pool, env.extend(bindings));
                slot.insert((env.clone(), extended.clone()));
                (extended, true)
            }
        }
    }
}

/// Returns the canonical (shared) copy of `env`, interning it on first
/// sight.
fn canon_env(pool: &mut FxHashSet<BEnvK>, env: BEnvK) -> BEnvK {
    match pool.get(&env) {
        Some(e) => e.clone(),
        None => {
            pool.insert(env.clone());
            env
        }
    }
}

impl<'p> KCfaMachine<'p> {
    /// Creates a machine analyzing `program` with context depth `k`.
    pub fn new(program: &'p CpsProgram, k: usize) -> Self {
        Self::from_source(crate::ProgramSource::Borrowed(program), k)
    }

    /// Creates a `'static` machine holding shared ownership of
    /// `program` — the form [`crate::pool::AnalysisPool`] tenants need,
    /// since they outlive the submitting stack frame.
    pub fn new_owned(program: Arc<CpsProgram>, k: usize) -> KCfaMachine<'static> {
        KCfaMachine::from_source(crate::ProgramSource::Owned(program), k)
    }

    fn from_source(program: crate::ProgramSource<'p>, k: usize) -> Self {
        KCfaMachine {
            program,
            k,
            operator_flows: FxHashMap::default(),
            lam_entry_envs: Vec::new(),
            halt_values: BTreeSet::new(),
            envs: EnvCache::default(),
        }
    }

    /// The sets this machine's [`Metrics`] are built from.
    pub fn metric_sets(&self) -> MetricSets<BEnvK, ValK> {
        MetricSets::collect(
            &self.operator_flows,
            &self.lam_entry_envs,
            &self.halt_values,
        )
    }

    fn tick(&self, label: cfa_syntax::cps::Label, time: &CallString) -> CallString {
        time.push(label, self.k)
    }

    /// Bound on the abstract thread-id string. At least 1 even for
    /// k = 0, so spawned threads stay distinct from the main thread.
    pub(crate) fn tid_bound(&self) -> usize {
        self.k.max(1)
    }

    /// The abstract result address of the thread spawned at `label` by
    /// thread `child_tid` (the *child's* id: spawn site pushed onto the
    /// parent's id).
    fn thread_ret_addr(label: cfa_syntax::cps::Label, child_tid: &CallString) -> AddrK {
        AddrK {
            slot: Slot::ThreadRet(label),
            time: child_tid.clone(),
        }
    }

    /// `Ê(e, β̂, σ̂)` — evaluate an atom to a flow of interned value ids,
    /// split against the configuration's baseline ([`DeltaFlow`]).
    ///
    /// Variable reads hand back the store row's shared id set — no set
    /// is cloned and no value is touched; literals and λ-closures count
    /// as new only on a full (first) visit.
    fn eval(
        &mut self,
        e: &AExp,
        benv: &BEnvK,
        store: &mut TrackedStore<'_, AddrK, ValK>,
    ) -> DeltaFlow {
        match e {
            AExp::Lit(l) => DeltaFlow::constructed(
                Flow::singleton(store.intern(AVal::Basic(AbsBasic::from_lit(*l)))),
                store.first_visit(),
            ),
            AExp::Var(v) => match benv.get(*v) {
                Some(addr) => store.read_with_delta(addr),
                None => DeltaFlow::empty(),
            },
            AExp::Lam(l) => {
                let captured = self.envs.captured(benv, *l, self.program.free_vars(*l));
                DeltaFlow::constructed(
                    Flow::singleton(store.intern(AVal::Clo {
                        lam: *l,
                        env: captured,
                    })),
                    store.first_visit(),
                )
            }
        }
    }

    /// Applies every closure in `fset` to `args` at the new time,
    /// recording call-graph and environment metrics for `site`.
    ///
    /// Semi-naive: a closure that is *new* since the configuration's
    /// last evaluation is applied to the full argument flows; a closure
    /// already applied last time only receives the argument *deltas* —
    /// its parameter joins, environment extension, and successor were
    /// all produced before, so `new f × all args ∪ old f × new args`
    /// covers every pair the full product would. Argument flows are
    /// joined id-to-id ([`TrackedStore::join_flow`]). Call targets are
    /// recorded for new closures only, for the same reason.
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &mut self,
        site: CallId,
        fset: &DeltaFlow,
        args: &[DeltaFlow],
        t_new: &CallString,
        tid: &CallString,
        store: &mut TrackedStore<'_, AddrK, ValK>,
        out: &mut Vec<KConfig>,
    ) {
        let flows = self.operator_flows.entry(site).or_default();
        for fid in fset.all.iter() {
            let is_new = fset.is_new(fid);
            if let AVal::RetK { ret } = store.val(fid) {
                // A thread-return continuation: the abstract thread
                // halts here, delivering its result into the thread's
                // result address (no successor configuration). The
                // dependency tracker wakes any `%join` reading `ret`.
                let ret = ret.clone();
                if let [a] = args {
                    if is_new {
                        store.join_flow(&ret, &a.all);
                    } else if a.has_new() {
                        store.join_flow(&ret, &a.new);
                        store.note_delta_apply();
                    }
                }
                continue;
            }
            let lam = match store.val(fid) {
                AVal::Clo { lam, .. } => *lam,
                _ => {
                    flows.1 |= is_new;
                    continue;
                }
            };
            if is_new {
                flows.0.insert(lam);
            }
            let lam_data = self.program.lam(lam);
            if lam_data.params.len() != args.len() {
                continue;
            }
            if !is_new {
                // Already-applied closure: join only the argument
                // growth into the (deterministic) parameter addresses.
                for (&p, a) in lam_data.params.iter().zip(args) {
                    if a.has_new() {
                        store.join_flow(
                            &AddrK {
                                slot: Slot::Var(p),
                                time: t_new.clone(),
                            },
                            &a.new,
                        );
                    }
                }
                store.note_delta_apply();
                continue;
            }
            let (extended, built) = match store.val(fid) {
                AVal::Clo { env, .. } => self.envs.entry(env, lam, &lam_data.params, t_new),
                _ => unreachable!("checked above"),
            };
            for (&p, values) in lam_data.params.iter().zip(args) {
                store.join_flow(
                    &AddrK {
                        slot: Slot::Var(p),
                        time: t_new.clone(),
                    },
                    &values.all,
                );
            }
            if built {
                self.lam_entry_envs.push((lam, extended.clone()));
            }
            out.push(KConfig {
                call: lam_data.body,
                benv: extended,
                time: t_new.clone(),
                tid: tid.clone(),
            });
        }
    }
}

impl<'p> AbstractMachine for KCfaMachine<'p> {
    type Config = KConfig;
    type Addr = AddrK;
    type Val = ValK;

    fn initial(&self) -> KConfig {
        KConfig {
            call: self.program.entry(),
            benv: BEnvK::empty(),
            time: CallString::empty(),
            tid: CallString::empty(),
        }
    }

    fn step(
        &mut self,
        config: &KConfig,
        store: &mut TrackedStore<'_, AddrK, ValK>,
        out: &mut Vec<KConfig>,
    ) {
        // Clone the source (a reference copy or an `Arc` bump) so
        // `call_data` borrows the local, not `self` — `eval`/`tick`
        // below need `&mut self`.
        let program = self.program.clone();
        let call_data = program.call(config.call);
        match &call_data.kind {
            CallKind::App { func, args } => {
                let fset = self.eval(func, &config.benv, store);
                let arg_sets: Vec<DeltaFlow> = args
                    .iter()
                    .map(|a| self.eval(a, &config.benv, store))
                    .collect();
                let t_new = self.tick(call_data.label, &config.time);
                self.apply(
                    config.call,
                    &fset,
                    &arg_sets,
                    &t_new,
                    &config.tid,
                    store,
                    out,
                );
            }
            CallKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cset = self.eval(cond, &config.benv, store).all;
                let truthy = cset.iter().any(|id| store.val(id).maybe_truthy());
                let falsy = cset.iter().any(|id| store.val(id).maybe_falsy());
                if truthy {
                    out.push(KConfig {
                        call: *then_branch,
                        ..config.clone()
                    });
                }
                if falsy {
                    out.push(KConfig {
                        call: *else_branch,
                        ..config.clone()
                    });
                }
            }
            CallKind::PrimCall { op, args, cont } => {
                let arg_sets: Vec<DeltaFlow> = args
                    .iter()
                    .map(|a| self.eval(a, &config.benv, store))
                    .collect();
                let kset = self.eval(cont, &config.benv, store);
                let t_new = self.tick(call_data.label, &config.time);
                let first = store.first_visit();
                let mut result_ids: Vec<u32> = Vec::new();
                let mut result_new_ids: Vec<u32> = Vec::new();
                match classify(*op) {
                    PrimSpec::Abort => return,
                    PrimSpec::Basics(bs) => {
                        result_ids.extend(bs.iter().map(|b| store.intern(AVal::Basic(*b))));
                        if first {
                            result_new_ids.extend_from_slice(&result_ids);
                        }
                    }
                    PrimSpec::AllocPair => {
                        let car = AddrK {
                            slot: Slot::Car(call_data.label),
                            time: t_new.clone(),
                        };
                        let cdr = AddrK {
                            slot: Slot::Cdr(call_data.label),
                            time: t_new.clone(),
                        };
                        // The cell addresses are deterministic, so a
                        // re-evaluation only forwards the argument
                        // growth into them.
                        if let Some(vals) = arg_sets.first() {
                            if first || vals.has_new() {
                                store.join_flow(&car, if first { &vals.all } else { &vals.new });
                            }
                        }
                        if let Some(vals) = arg_sets.get(1) {
                            if first || vals.has_new() {
                                store.join_flow(&cdr, if first { &vals.all } else { &vals.new });
                            }
                        }
                        let pid = store.intern(AVal::Pair { car, cdr });
                        result_ids.push(pid);
                        if first {
                            result_new_ids.push(pid);
                        }
                    }
                    PrimSpec::ReadCar | PrimSpec::ReadCdr => {
                        let want_car = classify(*op) == PrimSpec::ReadCar;
                        if let Some(vals) = arg_sets.first() {
                            for vid in vals.all.iter() {
                                let addr = match store.val(vid) {
                                    AVal::Pair { car, cdr } => {
                                        if want_car {
                                            car.clone()
                                        } else {
                                            cdr.clone()
                                        }
                                    }
                                    _ => continue,
                                };
                                // A new pair contributes its full cell;
                                // an old pair only the cell's growth.
                                let cell = store.read_with_delta(&addr);
                                result_ids.extend(cell.all.iter());
                                if vals.is_new(vid) {
                                    result_new_ids.extend(cell.all.iter());
                                } else {
                                    result_new_ids.extend(cell.new.iter());
                                }
                            }
                        }
                    }
                    PrimSpec::AllocAtom => {
                        let cell = AddrK {
                            slot: Slot::Atom(call_data.label),
                            time: t_new.clone(),
                        };
                        if let Some(vals) = arg_sets.first() {
                            if first || vals.has_new() {
                                store.join_flow(&cell, if first { &vals.all } else { &vals.new });
                            }
                        }
                        let aid = store.intern(AVal::Atom { cell });
                        result_ids.push(aid);
                        if first {
                            result_new_ids.push(aid);
                        }
                    }
                    PrimSpec::ReadAtom => {
                        if let Some(vals) = arg_sets.first() {
                            for vid in vals.all.iter() {
                                let addr = match store.val(vid) {
                                    AVal::Atom { cell } => cell.clone(),
                                    _ => continue,
                                };
                                let cell = store.read_with_delta(&addr);
                                result_ids.extend(cell.all.iter());
                                if vals.is_new(vid) {
                                    result_new_ids.extend(cell.all.iter());
                                } else {
                                    result_new_ids.extend(cell.new.iter());
                                }
                            }
                        }
                    }
                    PrimSpec::WriteAtom => {
                        // (reset! a v): the abstract store is monotone,
                        // so the overwrite is a join into every cell
                        // reaching `a`; the result is `v` itself.
                        if let (Some(atoms), Some(vals)) = (arg_sets.first(), arg_sets.get(1)) {
                            for vid in atoms.all.iter() {
                                let addr = match store.val(vid) {
                                    AVal::Atom { cell } => cell.clone(),
                                    _ => continue,
                                };
                                if atoms.is_new(vid) {
                                    store.join_flow(&addr, &vals.all);
                                } else if vals.has_new() {
                                    store.join_flow(&addr, &vals.new);
                                }
                            }
                            result_ids.extend(vals.all.iter());
                            result_new_ids.extend(vals.new.iter());
                        }
                    }
                    PrimSpec::CasAtom => {
                        // (cas! a expected new): the swap may or may not
                        // happen abstractly — join the replacement into
                        // the cell and produce bool⊤.
                        if let (Some(atoms), Some(news)) = (arg_sets.first(), arg_sets.get(2)) {
                            for vid in atoms.all.iter() {
                                let addr = match store.val(vid) {
                                    AVal::Atom { cell } => cell.clone(),
                                    _ => continue,
                                };
                                if atoms.is_new(vid) {
                                    store.join_flow(&addr, &news.all);
                                } else if news.has_new() {
                                    store.join_flow(&addr, &news.new);
                                }
                            }
                        }
                        let bid = store.intern(AVal::Basic(AbsBasic::AnyBool));
                        result_ids.push(bid);
                        if first {
                            result_new_ids.push(bid);
                        }
                    }
                }
                if !result_ids.is_empty() {
                    let results = DeltaFlow {
                        all: Flow::from_ids(result_ids),
                        new: Flow::from_ids(result_new_ids),
                    };
                    // All-new results ⇒ the previous evaluation may
                    // have had none, so the continuations were never
                    // applied — run them in full.
                    let kset = kset.upgraded_if_all_new(&results);
                    self.apply(
                        config.call,
                        &kset,
                        &[results],
                        &t_new,
                        &config.tid,
                        store,
                        out,
                    );
                }
            }
            CallKind::Fix { bindings, body } => {
                let t_new = self.tick(call_data.label, &config.time);
                let addrs: Vec<(Symbol, AddrK)> = bindings
                    .iter()
                    .map(|(name, _)| {
                        (
                            *name,
                            AddrK {
                                slot: Slot::Var(*name),
                                time: t_new.clone(),
                            },
                        )
                    })
                    .collect();
                let extended = canon_env(
                    &mut self.envs.pool,
                    config.benv.extend(addrs.iter().cloned()),
                );
                for ((_, lam), (_, addr)) in bindings.iter().zip(&addrs) {
                    let captured = canon_env(
                        &mut self.envs.pool,
                        extended.restrict(self.program.free_vars(*lam)),
                    );
                    store.join(
                        addr,
                        [AVal::Clo {
                            lam: *lam,
                            env: captured,
                        }],
                    );
                }
                out.push(KConfig {
                    call: *body,
                    benv: extended,
                    time: t_new,
                    tid: config.tid.clone(),
                });
            }
            CallKind::Spawn { thunk, cont } => {
                let tset = self.eval(thunk, &config.benv, store);
                let kset = self.eval(cont, &config.benv, store);
                let t_new = self.tick(call_data.label, &config.time);
                let child_tid = config.tid.push(call_data.label, self.tid_bound());
                let ret = Self::thread_ret_addr(call_data.label, &child_tid);
                let first = store.first_visit();
                // Child: every thunk closure starts a new abstract
                // thread whose continuation is the thread-return
                // continuation for `ret`; its successors carry the
                // child's thread id.
                let retk_id = store.intern(AVal::RetK { ret: ret.clone() });
                let retk = DeltaFlow::constructed(Flow::singleton(retk_id), first);
                self.apply(config.call, &tset, &[retk], &t_new, &child_tid, store, out);
                // Parent: continues immediately with the thread handle.
                let tid_id = store.intern(AVal::Tid { ret });
                let handle = DeltaFlow::constructed(Flow::singleton(tid_id), first);
                self.apply(
                    config.call,
                    &kset,
                    &[handle],
                    &t_new,
                    &config.tid,
                    store,
                    out,
                );
            }
            CallKind::Join { target, cont } => {
                let tset = self.eval(target, &config.benv, store);
                let kset = self.eval(cont, &config.benv, store);
                let t_new = self.tick(call_data.label, &config.time);
                let mut result_ids: Vec<u32> = Vec::new();
                let mut result_new_ids: Vec<u32> = Vec::new();
                for vid in tset.all.iter() {
                    let ret = match store.val(vid) {
                        AVal::Tid { ret } => ret.clone(),
                        _ => continue,
                    };
                    // Reading `ret` registers a dependency: if the
                    // child has produced nothing yet, this config is
                    // re-woken when it does — blocking for free.
                    let cell = store.read_with_delta(&ret);
                    result_ids.extend(cell.all.iter());
                    if tset.is_new(vid) {
                        result_new_ids.extend(cell.all.iter());
                    } else {
                        result_new_ids.extend(cell.new.iter());
                    }
                }
                if !result_ids.is_empty() {
                    let results = DeltaFlow {
                        all: Flow::from_ids(result_ids),
                        new: Flow::from_ids(result_new_ids),
                    };
                    let kset = kset.upgraded_if_all_new(&results);
                    self.apply(
                        config.call,
                        &kset,
                        &[results],
                        &t_new,
                        &config.tid,
                        store,
                        out,
                    );
                }
            }
            CallKind::Halt { value } => {
                // Only the growth is new to the accumulator; the rest
                // was recorded by this configuration's earlier visits
                // (re-evaluations stay on the worker that owns the
                // accumulator — configurations are pinned).
                let vals = self.eval(value, &config.benv, store);
                self.halt_values.extend(store.materialize(&vals.new));
            }
        }
    }

    fn release_caches(&mut self) {
        self.envs = EnvCache::default();
    }
}

impl<'p> crate::parallel::ParallelMachine for KCfaMachine<'p> {
    fn fork(&self) -> Self {
        KCfaMachine::from_source(self.program.clone(), self.k)
    }

    fn absorb(&mut self, worker: Self) {
        for (site, (lams, saw_non_clo)) in worker.operator_flows {
            let entry = self.operator_flows.entry(site).or_default();
            entry.0.extend(lams);
            entry.1 |= saw_non_clo;
        }
        self.lam_entry_envs.extend(worker.lam_entry_envs);
        self.halt_values.extend(worker.halt_values);
        // `envs` holds worker-local caches; nothing to keep.
    }
}

// ---------------------------------------------------------------------
// Reference (pre-interning) semantics — the differential oracle
// ---------------------------------------------------------------------

impl<'p> KCfaMachine<'p> {
    /// The original value-level `Ê`, kept for [`ReferenceMachine`].
    fn eval_ref(
        &self,
        e: &AExp,
        benv: &BEnvK,
        store: &mut RefTrackedStore<'_, AddrK, ValK>,
    ) -> FlowSet<ValK> {
        match e {
            AExp::Lit(l) => std::iter::once(AVal::Basic(AbsBasic::from_lit(*l))).collect(),
            AExp::Var(v) => match benv.get(*v) {
                Some(addr) => store.read(&addr.clone()),
                None => FlowSet::new(),
            },
            AExp::Lam(l) => {
                let captured = benv.restrict(self.program.free_vars(*l));
                std::iter::once(AVal::Clo {
                    lam: *l,
                    env: captured,
                })
                .collect()
            }
        }
    }

    /// The original value-level apply, kept for [`ReferenceMachine`].
    #[allow(clippy::too_many_arguments)]
    fn apply_ref(
        &mut self,
        site: CallId,
        fset: &FlowSet<ValK>,
        args: &[FlowSet<ValK>],
        t_new: &CallString,
        tid: &CallString,
        store: &mut RefTrackedStore<'_, AddrK, ValK>,
        out: &mut Vec<KConfig>,
    ) {
        let flows = self.operator_flows.entry(site).or_default();
        for f in fset {
            if let AVal::RetK { ret } = f {
                // Thread-return continuation: deliver the result, no
                // successor (the abstract thread halts).
                if let [a] = args {
                    store.join(ret.clone(), a.iter().cloned());
                }
                continue;
            }
            let AVal::Clo { lam, env } = f else {
                flows.1 = true;
                continue;
            };
            flows.0.insert(*lam);
            let lam_data = self.program.lam(*lam);
            if lam_data.params.len() != args.len() {
                continue;
            }
            let bindings: Vec<(Symbol, AddrK)> = lam_data
                .params
                .iter()
                .map(|&p| {
                    (
                        p,
                        AddrK {
                            slot: Slot::Var(p),
                            time: t_new.clone(),
                        },
                    )
                })
                .collect();
            for ((_, addr), values) in bindings.iter().zip(args) {
                store.join(addr.clone(), values.iter().cloned());
            }
            let extended = env.extend(bindings);
            self.lam_entry_envs.push((*lam, extended.clone()));
            out.push(KConfig {
                call: lam_data.body,
                benv: extended,
                time: t_new.clone(),
                tid: tid.clone(),
            });
        }
    }
}

impl<'p> ReferenceMachine for KCfaMachine<'p> {
    type Config = KConfig;
    type Addr = AddrK;
    type Val = ValK;

    fn initial(&self) -> KConfig {
        AbstractMachine::initial(self)
    }

    fn step(
        &mut self,
        config: &KConfig,
        store: &mut RefTrackedStore<'_, AddrK, ValK>,
        out: &mut Vec<KConfig>,
    ) {
        // Clone the source (a reference copy or an `Arc` bump) so
        // `call_data` borrows the local, not `self` — `eval`/`tick`
        // below need `&mut self`.
        let program = self.program.clone();
        let call_data = program.call(config.call);
        match &call_data.kind {
            CallKind::App { func, args } => {
                let fset = self.eval_ref(func, &config.benv, store);
                let arg_sets: Vec<FlowSet<ValK>> = args
                    .iter()
                    .map(|a| self.eval_ref(a, &config.benv, store))
                    .collect();
                let t_new = self.tick(call_data.label, &config.time);
                self.apply_ref(
                    config.call,
                    &fset,
                    &arg_sets,
                    &t_new,
                    &config.tid,
                    store,
                    out,
                );
            }
            CallKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cset = self.eval_ref(cond, &config.benv, store);
                if cset.iter().any(AVal::maybe_truthy) {
                    out.push(KConfig {
                        call: *then_branch,
                        ..config.clone()
                    });
                }
                if cset.iter().any(AVal::maybe_falsy) {
                    out.push(KConfig {
                        call: *else_branch,
                        ..config.clone()
                    });
                }
            }
            CallKind::PrimCall { op, args, cont } => {
                let arg_sets: Vec<FlowSet<ValK>> = args
                    .iter()
                    .map(|a| self.eval_ref(a, &config.benv, store))
                    .collect();
                let kset = self.eval_ref(cont, &config.benv, store);
                let t_new = self.tick(call_data.label, &config.time);
                let mut results: FlowSet<ValK> = FlowSet::new();
                match classify(*op) {
                    PrimSpec::Abort => return,
                    PrimSpec::Basics(bs) => {
                        results.extend(bs.iter().map(|b| AVal::Basic(*b)));
                    }
                    PrimSpec::AllocPair => {
                        let car = AddrK {
                            slot: Slot::Car(call_data.label),
                            time: t_new.clone(),
                        };
                        let cdr = AddrK {
                            slot: Slot::Cdr(call_data.label),
                            time: t_new.clone(),
                        };
                        if let Some(vals) = arg_sets.first() {
                            store.join(car.clone(), vals.iter().cloned());
                        }
                        if let Some(vals) = arg_sets.get(1) {
                            store.join(cdr.clone(), vals.iter().cloned());
                        }
                        results.insert(AVal::Pair { car, cdr });
                    }
                    PrimSpec::ReadCar | PrimSpec::ReadCdr => {
                        let want_car = classify(*op) == PrimSpec::ReadCar;
                        if let Some(vals) = arg_sets.first() {
                            for v in vals {
                                if let AVal::Pair { car, cdr } = v {
                                    let addr = if want_car { car } else { cdr };
                                    results.extend(store.read(&addr.clone()));
                                }
                            }
                        }
                    }
                    PrimSpec::AllocAtom => {
                        let cell = AddrK {
                            slot: Slot::Atom(call_data.label),
                            time: t_new.clone(),
                        };
                        if let Some(vals) = arg_sets.first() {
                            store.join(cell.clone(), vals.iter().cloned());
                        }
                        results.insert(AVal::Atom { cell });
                    }
                    PrimSpec::ReadAtom => {
                        if let Some(vals) = arg_sets.first() {
                            for v in vals {
                                if let AVal::Atom { cell } = v {
                                    results.extend(store.read(&cell.clone()));
                                }
                            }
                        }
                    }
                    PrimSpec::WriteAtom => {
                        if let (Some(atoms), Some(vals)) = (arg_sets.first(), arg_sets.get(1)) {
                            for v in atoms {
                                if let AVal::Atom { cell } = v {
                                    store.join(cell.clone(), vals.iter().cloned());
                                }
                            }
                            results.extend(vals.iter().cloned());
                        }
                    }
                    PrimSpec::CasAtom => {
                        if let (Some(atoms), Some(news)) = (arg_sets.first(), arg_sets.get(2)) {
                            for v in atoms {
                                if let AVal::Atom { cell } = v {
                                    store.join(cell.clone(), news.iter().cloned());
                                }
                            }
                        }
                        results.insert(AVal::Basic(AbsBasic::AnyBool));
                    }
                }
                if !results.is_empty() {
                    self.apply_ref(
                        config.call,
                        &kset,
                        &[results],
                        &t_new,
                        &config.tid,
                        store,
                        out,
                    );
                }
            }
            CallKind::Fix { bindings, body } => {
                let t_new = self.tick(call_data.label, &config.time);
                let addrs: Vec<(Symbol, AddrK)> = bindings
                    .iter()
                    .map(|(name, _)| {
                        (
                            *name,
                            AddrK {
                                slot: Slot::Var(*name),
                                time: t_new.clone(),
                            },
                        )
                    })
                    .collect();
                let extended = config.benv.extend(addrs.iter().cloned());
                for ((_, lam), (_, addr)) in bindings.iter().zip(&addrs) {
                    let captured = extended.restrict(self.program.free_vars(*lam));
                    store.join(
                        addr.clone(),
                        [AVal::Clo {
                            lam: *lam,
                            env: captured,
                        }],
                    );
                }
                out.push(KConfig {
                    call: *body,
                    benv: extended,
                    time: t_new,
                    tid: config.tid.clone(),
                });
            }
            CallKind::Spawn { thunk, cont } => {
                let tset = self.eval_ref(thunk, &config.benv, store);
                let kset = self.eval_ref(cont, &config.benv, store);
                let t_new = self.tick(call_data.label, &config.time);
                let child_tid = config.tid.push(call_data.label, self.tid_bound());
                let ret = Self::thread_ret_addr(call_data.label, &child_tid);
                let retk: FlowSet<ValK> =
                    std::iter::once(AVal::RetK { ret: ret.clone() }).collect();
                self.apply_ref(config.call, &tset, &[retk], &t_new, &child_tid, store, out);
                let handle: FlowSet<ValK> = std::iter::once(AVal::Tid { ret }).collect();
                self.apply_ref(
                    config.call,
                    &kset,
                    &[handle],
                    &t_new,
                    &config.tid,
                    store,
                    out,
                );
            }
            CallKind::Join { target, cont } => {
                let tset = self.eval_ref(target, &config.benv, store);
                let kset = self.eval_ref(cont, &config.benv, store);
                let t_new = self.tick(call_data.label, &config.time);
                let mut results: FlowSet<ValK> = FlowSet::new();
                for v in &tset {
                    if let AVal::Tid { ret } = v {
                        results.extend(store.read(&ret.clone()));
                    }
                }
                if !results.is_empty() {
                    self.apply_ref(
                        config.call,
                        &kset,
                        &[results],
                        &t_new,
                        &config.tid,
                        store,
                        out,
                    );
                }
            }
            CallKind::Halt { value } => {
                let vals = self.eval_ref(value, &config.benv, store);
                self.halt_values.extend(vals);
            }
        }
    }
}

/// The full output of a k-CFA run.
#[derive(Debug)]
pub struct KcfaResult {
    /// Raw fixpoint data (configurations + store).
    pub fixpoint: FixpointResult<KConfig, AddrK, ValK>,
    /// Cross-analysis summary.
    pub metrics: Metrics,
    /// Abstract values reaching `%halt`.
    pub halt_values: BTreeSet<ValK>,
}

/// Runs k-CFA on `program` with context depth `k`.
pub fn analyze_kcfa(program: &CpsProgram, k: usize, limits: EngineLimits) -> KcfaResult {
    let mut machine = KCfaMachine::new(program, k);
    let fixpoint = run_fixpoint(&mut machine, limits);
    let metrics = build_metrics(
        format!("k-CFA(k={k})"),
        program,
        &fixpoint,
        &machine.operator_flows,
        &machine.lam_entry_envs,
        &machine.halt_values,
    );
    KcfaResult {
        fixpoint,
        metrics,
        halt_values: machine.halt_values,
    }
}

/// A pending pooled k-CFA analysis — [`submit_kcfa`]'s ticket.
#[derive(Debug)]
pub struct KcfaJob {
    handle: crate::pool::JobHandle<crate::pool::PoolRun<KCfaMachine<'static>>>,
    program: Arc<CpsProgram>,
    k: usize,
}

impl KcfaJob {
    /// Blocks until the analysis finishes and assembles the same
    /// [`KcfaResult`] the direct [`analyze_kcfa`] entry point builds.
    pub fn wait(self) -> KcfaResult {
        let run = self.handle.wait();
        let metrics = build_metrics(
            format!("k-CFA(k={})", self.k),
            &self.program,
            &run.fixpoint,
            &run.machine.operator_flows,
            &run.machine.lam_entry_envs,
            &run.machine.halt_values,
        );
        KcfaResult {
            fixpoint: run.fixpoint,
            metrics,
            halt_values: run.machine.halt_values,
        }
    }

    /// Whether the run has deposited its result ([`KcfaJob::wait`]
    /// returns without blocking).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Runs `hook` once the run has deposited its result — see
    /// [`crate::pool::JobHandle::when_finished`].
    pub fn when_finished(&self, hook: impl FnOnce() + Send + 'static) {
        self.handle.when_finished(hook);
    }

    /// Requests cancellation: still-queued runs finish
    /// [`crate::engine::Status::Cancelled`] at zero iterations.
    pub fn cancel(&self) {
        self.handle.cancel();
    }
}

/// Submits a k-CFA analysis of `program` (context depth `k`) to `pool`
/// with tenant store `B` ([`crate::parallel::Replicated`]), returning
/// immediately. The pool drives it
/// to the same fixpoint [`analyze_kcfa`] computes — the fixed point of
/// a monotone transfer function is unique — while time-slicing fairly
/// against the pool's other tenants.
pub fn submit_kcfa<B: crate::pool::PoolBackend>(
    pool: &crate::pool::AnalysisPool,
    program: Arc<CpsProgram>,
    k: usize,
    limits: EngineLimits,
) -> KcfaJob {
    let machine = KCfaMachine::new_owned(Arc::clone(&program), k);
    let handle = pool.submit::<B, _>(machine, limits, crate::engine::EvalMode::SemiNaive);
    KcfaJob { handle, program, k }
}

/// Renders an abstract value for summaries (`3`, `int⊤`, `#<proc:ℓ4>`…).
pub fn render_val<E, A>(program: &CpsProgram, v: &AVal<E, A>) -> String {
    match v {
        AVal::Basic(AbsBasic::Sym(s)) => format!("'{}", program.name(*s)),
        AVal::Basic(b) => b.to_string(),
        AVal::Clo { lam, .. } => format!("#<proc:{:?}>", program.lam(*lam).label),
        AVal::Pair { .. } => "#<pair>".to_owned(),
        AVal::Tid { .. } => "#<thread>".to_owned(),
        AVal::RetK { .. } => "#<thread-return>".to_owned(),
        AVal::Atom { .. } => "#<atom>".to_owned(),
    }
}

/// Builds a [`Metrics`] summary from machine-side metric collections.
/// Shared by the k-CFA and flat-environment analyzers.
pub(crate) fn build_metrics<C, A, E1, A1, E2>(
    analysis: String,
    program: &CpsProgram,
    fixpoint: &FixpointResult<C, A, AVal<E1, A1>>,
    operator_flows: &FxHashMap<CallId, (BTreeSet<LamId>, bool)>,
    lam_entry_envs: &[(LamId, E2)],
    halt_values: &BTreeSet<AVal<E1, A1>>,
) -> Metrics
where
    A: std::hash::Hash + Eq + Clone,
    E1: Ord + Clone + Eq + std::hash::Hash,
    A1: Ord + Clone + Eq + std::hash::Hash,
    E2: Eq + std::hash::Hash,
{
    let mut reachable_user_calls = 0;
    let mut singleton_user_calls = 0;
    let mut call_targets = BTreeMap::new();
    for (&site, (lams, saw_non_clo)) in operator_flows {
        call_targets.insert(site, lams.clone());
        let procs: Vec<LamId> = lams
            .iter()
            .copied()
            .filter(|l| program.lam(*l).sort == LamSort::Proc)
            .collect();
        if procs.is_empty() {
            continue;
        }
        reachable_user_calls += 1;
        if procs.len() == 1 && lams.len() == 1 && !saw_non_clo {
            singleton_user_calls += 1;
        }
    }
    // Deduplicate the entry-environment log once, off the hot path.
    let distinct_envs = {
        let mut distinct: FxHashSet<&E2> = FxHashSet::default();
        distinct.extend(lam_entry_envs.iter().map(|(_, env)| env));
        distinct.len()
    };
    let lam_env_counts = crate::results::distinct_counts(lam_entry_envs);
    Metrics {
        analysis,
        status: fixpoint.status.clone(),
        elapsed: fixpoint.elapsed,
        iterations: fixpoint.iterations,
        config_count: fixpoint.config_count(),
        store_entries: fixpoint.store.len(),
        store_facts: fixpoint.store.fact_count(),
        reachable_user_calls,
        singleton_user_calls,
        call_targets,
        lam_env_counts,
        distinct_envs,
        halt_values: halt_values.iter().map(|v| render_val(program, v)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str, k: usize) -> KcfaResult {
        let p = cfa_syntax::compile(src).unwrap();
        analyze_kcfa(&p, k, EngineLimits::default())
    }

    #[test]
    fn benv_lookup_and_extend() {
        let a0 = AddrK {
            slot: Slot::Var(Symbol::from_index(0)),
            time: CallString::empty(),
        };
        let a1 = AddrK {
            slot: Slot::Var(Symbol::from_index(1)),
            time: CallString::empty(),
        };
        let x = Symbol::from_index(0);
        let y = Symbol::from_index(1);
        let env = BEnvK::empty().extend([(y, a1.clone()), (x, a0.clone())]);
        assert_eq!(env.get(x), Some(&a0));
        assert_eq!(env.get(y), Some(&a1));
        assert_eq!(env.len(), 2);
        // Extension shadows.
        let env2 = env.extend([(x, a1.clone())]);
        assert_eq!(env2.get(x), Some(&a1));
        assert_eq!(env.get(x), Some(&a0), "original unchanged");
    }

    #[test]
    fn benv_restrict_keeps_only_requested() {
        let x = Symbol::from_index(0);
        let y = Symbol::from_index(1);
        let a = AddrK {
            slot: Slot::Var(x),
            time: CallString::empty(),
        };
        let env = BEnvK::empty().extend([(x, a.clone()), (y, a.clone())]);
        let r = env.restrict(&[x]);
        assert_eq!(r.len(), 1);
        assert!(r.get(y).is_none());
    }

    #[test]
    fn constant_program() {
        let r = analyze("42", 0);
        assert!(r.metrics.status.is_complete());
        assert_eq!(
            r.metrics.halt_values,
            ["42".to_owned()].into_iter().collect()
        );
    }

    #[test]
    fn identity_chain_flows_constant() {
        for k in [0, 1, 2] {
            let r = analyze("(define (id x) x) (id (id 42))", k);
            assert!(
                r.metrics.halt_values.contains("42"),
                "k={k}: {:?}",
                r.metrics.halt_values
            );
        }
    }

    #[test]
    fn zero_cfa_merges_identity_arguments() {
        let r = analyze("(define (id x) x) (let ((a (id 3))) (id 4))", 0);
        // Under 0CFA both 3 and 4 flow out of id.
        assert!(
            r.metrics.halt_values.contains("3"),
            "{:?}",
            r.metrics.halt_values
        );
        assert!(r.metrics.halt_values.contains("4"));
    }

    #[test]
    fn one_cfa_distinguishes_identity_arguments() {
        let r = analyze("(define (id x) x) (let ((a (id 3))) (id 4))", 1);
        assert!(
            !r.metrics.halt_values.contains("3"),
            "{:?}",
            r.metrics.halt_values
        );
        assert!(r.metrics.halt_values.contains("4"));
    }

    #[test]
    fn branches_join_both_arms() {
        let r = analyze("(if (zero? 1) 10 20)", 1);
        assert!(r.metrics.halt_values.contains("10"));
        assert!(r.metrics.halt_values.contains("20"));
    }

    #[test]
    fn literal_condition_prunes_dead_arm() {
        let r = analyze("(if #t 10 20)", 0);
        assert!(r.metrics.halt_values.contains("10"));
        assert!(
            !r.metrics.halt_values.contains("20"),
            "{:?}",
            r.metrics.halt_values
        );
    }

    #[test]
    fn recursion_terminates_abstractly() {
        let r = analyze(
            "(define (count n) (if (zero? n) 0 (count (- n 1)))) (count 100)",
            1,
        );
        assert!(r.metrics.status.is_complete());
        // The base case returns the literal 0; the recursive tower collapses
        // int arithmetic to int⊤.
        assert!(
            r.metrics.halt_values.contains("0"),
            "{:?}",
            r.metrics.halt_values
        );
    }

    #[test]
    fn arithmetic_widens() {
        let r = analyze("(+ 1 2)", 0);
        assert!(r.metrics.halt_values.contains("int⊤"));
    }

    #[test]
    fn pairs_flow_through_store() {
        let r = analyze("(car (cons 41 99))", 1);
        assert!(
            r.metrics.halt_values.contains("41"),
            "{:?}",
            r.metrics.halt_values
        );
        assert!(!r.metrics.halt_values.contains("99"));
    }

    #[test]
    fn higher_order_flow_is_tracked() {
        let r = analyze(
            "(define (apply-to-ten f) (f 10))
             (apply-to-ten (lambda (n) n))",
            1,
        );
        assert!(r.metrics.halt_values.contains("10"));
        // The call (f 10) must have exactly one target.
        assert!(r.metrics.singleton_user_calls >= 1);
    }

    #[test]
    fn call_targets_capture_dispatch() {
        let r = analyze(
            "(define (pick b f g) (if b (f 1) (g 2)))
             (pick #t (lambda (x) x) (lambda (y) y))",
            0,
        );
        assert!(r.metrics.reachable_user_calls >= 2);
    }

    #[test]
    fn env_counts_recorded() {
        let r = analyze("(define (id x) x) (let ((a (id 1))) (id 2))", 1);
        assert!(r.metrics.total_env_count() > 0);
    }

    #[test]
    fn deeper_k_refines_or_equals_halt_sets() {
        // Monotone precision on a simple program: halt set for k=2 must be a
        // subset of k=0's.
        let coarse = analyze("(define (id x) x) (let ((a (id 3))) (id 4))", 0);
        let fine = analyze("(define (id x) x) (let ((a (id 3))) (id 4))", 2);
        assert!(fine
            .metrics
            .halt_values
            .is_subset(&coarse.metrics.halt_values));
    }

    #[test]
    fn error_prim_halts_flow() {
        let r = analyze("(error 'boom)", 0);
        assert!(r.metrics.halt_values.is_empty());
        assert!(r.metrics.status.is_complete());
    }

    #[test]
    fn spawn_join_flows_thread_result() {
        for k in [0, 1, 2] {
            let r = analyze("(join (spawn 42))", k);
            assert!(r.metrics.status.is_complete());
            assert!(
                r.metrics.halt_values.contains("42"),
                "k={k}: {:?}",
                r.metrics.halt_values
            );
        }
    }

    #[test]
    fn atom_cells_accumulate_writes() {
        let r = analyze("(let ((c (atom 1))) (deref c))", 1);
        assert!(r.metrics.halt_values.contains("1"));
        let r = analyze(
            "(let ((c (atom 0))) (let ((t (spawn (reset! c 5)))) (join t) (deref c)))",
            1,
        );
        // The abstract cell holds both the initial value and the write.
        assert!(
            r.metrics.halt_values.contains("5"),
            "{:?}",
            r.metrics.halt_values
        );
        assert!(r.metrics.halt_values.contains("0"));
    }

    #[test]
    fn cas_widens_to_any_bool() {
        let r = analyze("(let ((c (atom 0))) (cas! c 0 1))", 0);
        assert!(
            r.metrics.halt_values.contains("bool⊤"),
            "{:?}",
            r.metrics.halt_values
        );
    }

    #[test]
    fn spawned_threads_get_distinct_tids_even_at_k0() {
        let p = cfa_syntax::compile("(join (spawn 7))").unwrap();
        let r = analyze_kcfa(&p, 0, EngineLimits::default());
        let tids: std::collections::BTreeSet<CallString> =
            r.fixpoint.configs.iter().map(|c| c.tid.clone()).collect();
        assert!(tids.len() >= 2, "main + child expected: {tids:?}");
    }

    #[test]
    fn iteration_limit_reports_incomplete() {
        let r = {
            let p = cfa_syntax::compile("(define (f x) (f x)) (f (lambda (y) y))").unwrap();
            analyze_kcfa(&p, 1, EngineLimits::iterations(2))
        };
        assert!(!r.metrics.status.is_complete());
    }
}
