//! m-CFA and naive polynomial k-CFA: flat-environment abstract
//! interpreters (paper §5.2–5.4 and §6).
//!
//! In the flat-environment semantics an abstract environment is just a
//! call string — *all* bindings reachable from an environment share its
//! one allocation context, which collapses the `BEnv` component to
//! `Callᵐ` and makes the system space polynomial (Theorem 5.1).
//!
//! Two context policies instantiate the machine:
//!
//! * [`FlatPolicy::TopMFrames`] — **m-CFA**: applying a *procedure*
//!   pushes the call site; applying a *continuation* **restores** the
//!   continuation closure's saved environment (§5.3's `n̂ew`).
//! * [`FlatPolicy::LastKCalls`] — **naive polynomial k-CFA**: every
//!   application (procedure or continuation) pushes the call site, i.e.
//!   Shivers's last-k-call-sites contour policy on flat environments.
//!   §6 shows this policy degenerates toward 0CFA precision.
//!
//! # Examples
//!
//! ```
//! use cfa_core::flatcfa::analyze_mcfa;
//! use cfa_core::engine::EngineLimits;
//!
//! let p = cfa_syntax::compile("(define (id x) x) (id 42)").unwrap();
//! let result = analyze_mcfa(&p, 1, EngineLimits::default());
//! assert!(result.metrics.halt_values.contains("42"));
//! ```

use crate::domain::{AVal, AbsBasic, CallString};
use crate::engine::{
    run_fixpoint, AbstractMachine, DeltaFlow, EngineLimits, FixpointResult, TrackedStore,
};
use crate::fxhash::FxHashMap;
use crate::kcfa::{build_metrics, render_val};
use crate::prim::{classify, PrimSpec};
use crate::reference::{RefTrackedStore, ReferenceMachine};
use crate::results::{MetricSets, Metrics};
use crate::store::{Flow, FlowSet};
use cfa_concrete::base::Slot;
use cfa_syntax::cps::{AExp, CallId, CallKind, CpsProgram, Label, LamId, LamSort};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A flat-environment abstract address: slot × abstract environment.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AddrM {
    /// What is stored.
    pub slot: Slot,
    /// The environment (call string) it belongs to.
    pub env: CallString,
}

/// A flat-environment abstract value: closures capture a call string.
pub type ValM = AVal<CallString, AddrM>;

/// A flat-environment configuration `(call, ρ̂, θ̂)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MConfig {
    /// Current call site.
    pub call: CallId,
    /// Current abstract environment.
    pub env: CallString,
    /// The abstract thread id: the bounded string of spawn-site labels
    /// that created this thread (empty for the main thread). Bounded by
    /// `max(bound,1)`, so the abstract thread pool stays finite and
    /// spawned threads are distinct from the main thread even at
    /// bound 0. Independent of `env` — it never participates in the
    /// flat-environment context policy.
    pub tid: CallString,
}

/// The context-allocation policy for the flat-environment machine.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FlatPolicy {
    /// m-CFA: top-m stack frames (restore on continuation application).
    TopMFrames,
    /// Naive polynomial k-CFA: last-k call sites (tick on every
    /// application).
    LastKCalls,
}

/// The flat-environment abstract machine.
#[derive(Debug)]
pub struct FlatCfaMachine<'p> {
    program: crate::ProgramSource<'p>,
    bound: usize,
    policy: FlatPolicy,
    operator_flows: FxHashMap<CallId, (BTreeSet<LamId>, bool)>,
    lam_entry_envs: Vec<(LamId, CallString)>,
    halt_values: BTreeSet<ValM>,
}

impl<'p> FlatCfaMachine<'p> {
    /// Creates a machine with the given context bound and policy,
    /// borrowing the caller's program (the direct entry points).
    pub fn new(program: &'p CpsProgram, bound: usize, policy: FlatPolicy) -> Self {
        Self::from_source(crate::ProgramSource::Borrowed(program), bound, policy)
    }

    /// Creates a `'static` machine holding shared ownership of the
    /// program — the form [`crate::pool::AnalysisPool`] tenants need,
    /// since they outlive the submitting stack frame.
    pub fn new_owned(
        program: Arc<CpsProgram>,
        bound: usize,
        policy: FlatPolicy,
    ) -> FlatCfaMachine<'static> {
        FlatCfaMachine::from_source(crate::ProgramSource::Owned(program), bound, policy)
    }

    fn from_source(program: crate::ProgramSource<'p>, bound: usize, policy: FlatPolicy) -> Self {
        FlatCfaMachine {
            program,
            bound,
            policy,
            operator_flows: FxHashMap::default(),
            lam_entry_envs: Vec::new(),
            halt_values: BTreeSet::new(),
        }
    }

    /// The sets this machine's [`Metrics`] are built from.
    pub fn metric_sets(&self) -> MetricSets<CallString, ValM> {
        MetricSets::collect(
            &self.operator_flows,
            &self.lam_entry_envs,
            &self.halt_values,
        )
    }

    /// Bound on the abstract thread-id string. At least 1 even for
    /// bound = 0, so spawned threads stay distinct from the main thread.
    pub(crate) fn tid_bound(&self) -> usize {
        self.bound.max(1)
    }

    /// The abstract result address of the thread spawned at `label` by
    /// thread `child_tid`.
    fn thread_ret_addr(label: Label, child_tid: &CallString) -> AddrM {
        AddrM {
            slot: Slot::ThreadRet(label),
            env: child_tid.clone(),
        }
    }

    fn eval(
        &self,
        e: &AExp,
        env: &CallString,
        store: &mut TrackedStore<'_, AddrM, ValM>,
    ) -> DeltaFlow {
        match e {
            AExp::Lit(l) => DeltaFlow::constructed(
                Flow::singleton(store.intern(AVal::Basic(AbsBasic::from_lit(*l)))),
                store.first_visit(),
            ),
            AExp::Var(v) => store.read_with_delta(&AddrM {
                slot: Slot::Var(*v),
                env: env.clone(),
            }),
            AExp::Lam(l) => DeltaFlow::constructed(
                Flow::singleton(store.intern(AVal::Clo {
                    lam: *l,
                    env: env.clone(),
                })),
                store.first_visit(),
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    /// Applies every closure in `fset`: allocate the new environment,
    /// bind parameters there, and **copy** the λ-term's free variables
    /// from the closure's saved environment (flat-closure creation).
    /// Both the parameter binding and the free-variable copy are pure
    /// id-set merges — the flat machine's hottest loop never touches a
    /// value.
    ///
    /// Semi-naive: closures already applied on this configuration's
    /// previous evaluation receive only the argument and free-variable
    /// *deltas*; their successor configuration was pushed before. The
    /// free-variable sources are still read for every closure — the
    /// reads are this configuration's dependency set, and a dropped
    /// read would silence future wakeups. Call targets are recorded for
    /// new closures only: the previous evaluation recorded the rest.
    fn apply(
        &mut self,
        site: CallId,
        label: Label,
        fset: &DeltaFlow,
        args: &[DeltaFlow],
        current: &CallString,
        tid: &CallString,
        store: &mut TrackedStore<'_, AddrM, ValM>,
        out: &mut Vec<MConfig>,
    ) {
        let policy = self.policy;
        let bound = self.bound;
        let flows = self.operator_flows.entry(site).or_default();
        for fid in fset.all.iter() {
            let is_new = fset.is_new(fid);
            if let AVal::RetK { ret } = store.val(fid) {
                // A thread-return continuation: the abstract thread
                // halts here, delivering its result into the thread's
                // result address (no successor configuration).
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
            let (lam, saved) = match store.val(fid) {
                AVal::Clo { lam, env } => (*lam, env.clone()),
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
            // n̂ew(call, ρ̂, lam, ρ̂′), inlined from `new_env`.
            let fresh = match policy {
                FlatPolicy::TopMFrames => match lam_data.sort {
                    LamSort::Proc => current.push(label, bound),
                    LamSort::Cont => saved.clone(),
                },
                FlatPolicy::LastKCalls => current.push(label, bound),
            };
            for (&p, values) in lam_data.params.iter().zip(args) {
                if is_new || values.has_new() {
                    store.join_flow(
                        &AddrM {
                            slot: Slot::Var(p),
                            env: fresh.clone(),
                        },
                        if is_new { &values.all } else { &values.new },
                    );
                }
            }
            for &fv in self.program.free_vars(lam) {
                let from = AddrM {
                    slot: Slot::Var(fv),
                    env: saved.clone(),
                };
                let to = AddrM {
                    slot: Slot::Var(fv),
                    env: fresh.clone(),
                };
                if from != to {
                    let values = store.read_with_delta(&from);
                    if is_new || values.has_new() {
                        store.join_flow(&to, if is_new { &values.all } else { &values.new });
                    }
                }
            }
            if !is_new {
                store.note_delta_apply();
                continue;
            }
            self.lam_entry_envs.push((lam, fresh.clone()));
            out.push(MConfig {
                call: lam_data.body,
                env: fresh,
                tid: tid.clone(),
            });
        }
    }
}

impl<'p> AbstractMachine for FlatCfaMachine<'p> {
    type Config = MConfig;
    type Addr = AddrM;
    type Val = ValM;

    fn initial(&self) -> MConfig {
        MConfig {
            call: self.program.entry(),
            env: CallString::empty(),
            tid: CallString::empty(),
        }
    }

    fn step(
        &mut self,
        config: &MConfig,
        store: &mut TrackedStore<'_, AddrM, ValM>,
        out: &mut Vec<MConfig>,
    ) {
        // Clone the source (a reference copy or an `Arc` bump) so
        // `call_data` borrows the local, not `self` — the transfer
        // functions below need `&mut self`.
        let program = self.program.clone();
        let call_data = program.call(config.call);
        match &call_data.kind {
            CallKind::App { func, args } => {
                let fset = self.eval(func, &config.env, store);
                let arg_sets: Vec<DeltaFlow> = args
                    .iter()
                    .map(|a| self.eval(a, &config.env, store))
                    .collect();
                self.apply(
                    config.call,
                    call_data.label,
                    &fset,
                    &arg_sets,
                    &config.env,
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
                let cset = self.eval(cond, &config.env, store).all;
                if cset.iter().any(|id| store.val(id).maybe_truthy()) {
                    out.push(MConfig {
                        call: *then_branch,
                        ..config.clone()
                    });
                }
                if cset.iter().any(|id| store.val(id).maybe_falsy()) {
                    out.push(MConfig {
                        call: *else_branch,
                        ..config.clone()
                    });
                }
            }
            CallKind::PrimCall { op, args, cont } => {
                let arg_sets: Vec<DeltaFlow> = args
                    .iter()
                    .map(|a| self.eval(a, &config.env, store))
                    .collect();
                let kset = self.eval(cont, &config.env, store);
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
                        // Pairs are allocated in the *current* abstract
                        // environment (matches the concrete flat machine).
                        let car = AddrM {
                            slot: Slot::Car(call_data.label),
                            env: config.env.clone(),
                        };
                        let cdr = AddrM {
                            slot: Slot::Cdr(call_data.label),
                            env: config.env.clone(),
                        };
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
                        // Atom cells are allocated in the *current*
                        // abstract environment, like pairs.
                        let cell = AddrM {
                            slot: Slot::Atom(call_data.label),
                            env: config.env.clone(),
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
                        // (reset! a v): a join into every cell reaching
                        // `a` (abstract stores are monotone); result `v`.
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
                        call_data.label,
                        &kset,
                        &[results],
                        &config.env,
                        &config.tid,
                        store,
                        out,
                    );
                }
            }
            CallKind::Fix { bindings, body } => {
                for (name, lam) in bindings {
                    store.join(
                        &AddrM {
                            slot: Slot::Var(*name),
                            env: config.env.clone(),
                        },
                        [AVal::Clo {
                            lam: *lam,
                            env: config.env.clone(),
                        }],
                    );
                }
                out.push(MConfig {
                    call: *body,
                    ..config.clone()
                });
            }
            CallKind::Spawn { thunk, cont } => {
                let tset = self.eval(thunk, &config.env, store);
                let kset = self.eval(cont, &config.env, store);
                let child_tid = config.tid.push(call_data.label, self.tid_bound());
                let ret = Self::thread_ret_addr(call_data.label, &child_tid);
                let first = store.first_visit();
                // Child: every thunk closure starts a new abstract
                // thread; its successors carry the child's thread id.
                let retk_id = store.intern(AVal::RetK { ret: ret.clone() });
                let retk = DeltaFlow::constructed(Flow::singleton(retk_id), first);
                self.apply(
                    config.call,
                    call_data.label,
                    &tset,
                    &[retk],
                    &config.env,
                    &child_tid,
                    store,
                    out,
                );
                // Parent: continues immediately with the thread handle.
                let tid_id = store.intern(AVal::Tid { ret });
                let handle = DeltaFlow::constructed(Flow::singleton(tid_id), first);
                self.apply(
                    config.call,
                    call_data.label,
                    &kset,
                    &[handle],
                    &config.env,
                    &config.tid,
                    store,
                    out,
                );
            }
            CallKind::Join { target, cont } => {
                let tset = self.eval(target, &config.env, store);
                let kset = self.eval(cont, &config.env, store);
                let mut result_ids: Vec<u32> = Vec::new();
                let mut result_new_ids: Vec<u32> = Vec::new();
                for vid in tset.all.iter() {
                    let ret = match store.val(vid) {
                        AVal::Tid { ret } => ret.clone(),
                        _ => continue,
                    };
                    // Reading `ret` registers a dependency: this config
                    // re-wakes when the child produces its result.
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
                        call_data.label,
                        &kset,
                        &[results],
                        &config.env,
                        &config.tid,
                        store,
                        out,
                    );
                }
            }
            CallKind::Halt { value } => {
                // Only the growth is new to the accumulator (see the
                // k-CFA machine for the pinning argument).
                let vals = self.eval(value, &config.env, store);
                self.halt_values.extend(store.materialize(&vals.new));
            }
        }
    }
}

impl<'p> crate::parallel::ParallelMachine for FlatCfaMachine<'p> {
    fn fork(&self) -> Self {
        FlatCfaMachine::from_source(self.program.clone(), self.bound, self.policy)
    }

    fn absorb(&mut self, worker: Self) {
        for (site, (lams, saw_non_clo)) in worker.operator_flows {
            let entry = self.operator_flows.entry(site).or_default();
            entry.0.extend(lams);
            entry.1 |= saw_non_clo;
        }
        self.lam_entry_envs.extend(worker.lam_entry_envs);
        self.halt_values.extend(worker.halt_values);
    }
}

// ---------------------------------------------------------------------
// Reference (pre-interning) semantics — the differential oracle
// ---------------------------------------------------------------------

impl<'p> FlatCfaMachine<'p> {
    /// The original value-level `Ê`, kept for [`ReferenceMachine`].
    fn eval_ref(
        &self,
        e: &AExp,
        env: &CallString,
        store: &mut RefTrackedStore<'_, AddrM, ValM>,
    ) -> FlowSet<ValM> {
        match e {
            AExp::Lit(l) => std::iter::once(AVal::Basic(AbsBasic::from_lit(*l))).collect(),
            AExp::Var(v) => store.read(&AddrM {
                slot: Slot::Var(*v),
                env: env.clone(),
            }),
            AExp::Lam(l) => std::iter::once(AVal::Clo {
                lam: *l,
                env: env.clone(),
            })
            .collect(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    /// The original value-level apply, kept for [`ReferenceMachine`].
    fn apply_ref(
        &mut self,
        site: CallId,
        label: Label,
        fset: &FlowSet<ValM>,
        args: &[FlowSet<ValM>],
        current: &CallString,
        tid: &CallString,
        store: &mut RefTrackedStore<'_, AddrM, ValM>,
        out: &mut Vec<MConfig>,
    ) {
        let policy = self.policy;
        let bound = self.bound;
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
            let AVal::Clo { lam, env: saved } = f else {
                flows.1 = true;
                continue;
            };
            flows.0.insert(*lam);
            let lam_data = self.program.lam(*lam);
            if lam_data.params.len() != args.len() {
                continue;
            }
            let fresh = match policy {
                FlatPolicy::TopMFrames => match lam_data.sort {
                    LamSort::Proc => current.push(label, bound),
                    LamSort::Cont => saved.clone(),
                },
                FlatPolicy::LastKCalls => current.push(label, bound),
            };
            for (&p, values) in lam_data.params.iter().zip(args) {
                store.join(
                    AddrM {
                        slot: Slot::Var(p),
                        env: fresh.clone(),
                    },
                    values.iter().cloned(),
                );
            }
            for &fv in self.program.free_vars(*lam) {
                let from = AddrM {
                    slot: Slot::Var(fv),
                    env: saved.clone(),
                };
                let to = AddrM {
                    slot: Slot::Var(fv),
                    env: fresh.clone(),
                };
                if from != to {
                    let values = store.read(&from);
                    store.join(to, values);
                }
            }
            self.lam_entry_envs.push((*lam, fresh.clone()));
            out.push(MConfig {
                call: lam_data.body,
                env: fresh,
                tid: tid.clone(),
            });
        }
    }
}

impl<'p> ReferenceMachine for FlatCfaMachine<'p> {
    type Config = MConfig;
    type Addr = AddrM;
    type Val = ValM;

    fn initial(&self) -> MConfig {
        AbstractMachine::initial(self)
    }

    fn step(
        &mut self,
        config: &MConfig,
        store: &mut RefTrackedStore<'_, AddrM, ValM>,
        out: &mut Vec<MConfig>,
    ) {
        // Clone the source (a reference copy or an `Arc` bump) so
        // `call_data` borrows the local, not `self` — the transfer
        // functions below need `&mut self`.
        let program = self.program.clone();
        let call_data = program.call(config.call);
        match &call_data.kind {
            CallKind::App { func, args } => {
                let fset = self.eval_ref(func, &config.env, store);
                let arg_sets: Vec<FlowSet<ValM>> = args
                    .iter()
                    .map(|a| self.eval_ref(a, &config.env, store))
                    .collect();
                self.apply_ref(
                    config.call,
                    call_data.label,
                    &fset,
                    &arg_sets,
                    &config.env,
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
                let cset = self.eval_ref(cond, &config.env, store);
                if cset.iter().any(AVal::maybe_truthy) {
                    out.push(MConfig {
                        call: *then_branch,
                        ..config.clone()
                    });
                }
                if cset.iter().any(AVal::maybe_falsy) {
                    out.push(MConfig {
                        call: *else_branch,
                        ..config.clone()
                    });
                }
            }
            CallKind::PrimCall { op, args, cont } => {
                let arg_sets: Vec<FlowSet<ValM>> = args
                    .iter()
                    .map(|a| self.eval_ref(a, &config.env, store))
                    .collect();
                let kset = self.eval_ref(cont, &config.env, store);
                let mut results: FlowSet<ValM> = FlowSet::new();
                match classify(*op) {
                    PrimSpec::Abort => return,
                    PrimSpec::Basics(bs) => {
                        results.extend(bs.iter().map(|b| AVal::Basic(*b)));
                    }
                    PrimSpec::AllocPair => {
                        let car = AddrM {
                            slot: Slot::Car(call_data.label),
                            env: config.env.clone(),
                        };
                        let cdr = AddrM {
                            slot: Slot::Cdr(call_data.label),
                            env: config.env.clone(),
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
                        let cell = AddrM {
                            slot: Slot::Atom(call_data.label),
                            env: config.env.clone(),
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
                        call_data.label,
                        &kset,
                        &[results],
                        &config.env,
                        &config.tid,
                        store,
                        out,
                    );
                }
            }
            CallKind::Fix { bindings, body } => {
                for (name, lam) in bindings {
                    store.join(
                        AddrM {
                            slot: Slot::Var(*name),
                            env: config.env.clone(),
                        },
                        [AVal::Clo {
                            lam: *lam,
                            env: config.env.clone(),
                        }],
                    );
                }
                out.push(MConfig {
                    call: *body,
                    ..config.clone()
                });
            }
            CallKind::Spawn { thunk, cont } => {
                let tset = self.eval_ref(thunk, &config.env, store);
                let kset = self.eval_ref(cont, &config.env, store);
                let child_tid = config.tid.push(call_data.label, self.tid_bound());
                let ret = Self::thread_ret_addr(call_data.label, &child_tid);
                let retk: FlowSet<ValM> =
                    std::iter::once(AVal::RetK { ret: ret.clone() }).collect();
                self.apply_ref(
                    config.call,
                    call_data.label,
                    &tset,
                    &[retk],
                    &config.env,
                    &child_tid,
                    store,
                    out,
                );
                let handle: FlowSet<ValM> = std::iter::once(AVal::Tid { ret }).collect();
                self.apply_ref(
                    config.call,
                    call_data.label,
                    &kset,
                    &[handle],
                    &config.env,
                    &config.tid,
                    store,
                    out,
                );
            }
            CallKind::Join { target, cont } => {
                let tset = self.eval_ref(target, &config.env, store);
                let kset = self.eval_ref(cont, &config.env, store);
                let mut results: FlowSet<ValM> = FlowSet::new();
                for v in &tset {
                    if let AVal::Tid { ret } = v {
                        results.extend(store.read(&ret.clone()));
                    }
                }
                if !results.is_empty() {
                    self.apply_ref(
                        config.call,
                        call_data.label,
                        &kset,
                        &[results],
                        &config.env,
                        &config.tid,
                        store,
                        out,
                    );
                }
            }
            CallKind::Halt { value } => {
                let vals = self.eval_ref(value, &config.env, store);
                self.halt_values.extend(vals);
            }
        }
    }
}

/// The full output of a flat-environment analysis run.
#[derive(Debug)]
pub struct FlatCfaResult {
    /// Raw fixpoint data.
    pub fixpoint: FixpointResult<MConfig, AddrM, ValM>,
    /// Cross-analysis summary.
    pub metrics: Metrics,
    /// Abstract values reaching `%halt`.
    pub halt_values: BTreeSet<ValM>,
}

fn analyze_flat(
    program: &CpsProgram,
    bound: usize,
    policy: FlatPolicy,
    name: String,
    limits: EngineLimits,
) -> FlatCfaResult {
    let mut machine = FlatCfaMachine::new(program, bound, policy);
    let fixpoint = run_fixpoint(&mut machine, limits);
    let metrics = build_metrics(
        name,
        program,
        &fixpoint,
        &machine.operator_flows,
        &machine.lam_entry_envs,
        &machine.halt_values,
    );
    FlatCfaResult {
        fixpoint,
        metrics,
        halt_values: machine.halt_values,
    }
}

/// Runs m-CFA with top-`m`-frames contexts.
pub fn analyze_mcfa(program: &CpsProgram, m: usize, limits: EngineLimits) -> FlatCfaResult {
    analyze_flat(
        program,
        m,
        FlatPolicy::TopMFrames,
        format!("m-CFA(m={m})"),
        limits,
    )
}

/// Runs naive polynomial k-CFA (flat environments, last-`k`-call-sites
/// contexts).
pub fn analyze_poly_kcfa(program: &CpsProgram, k: usize, limits: EngineLimits) -> FlatCfaResult {
    analyze_flat(
        program,
        k,
        FlatPolicy::LastKCalls,
        format!("poly-k-CFA(k={k})"),
        limits,
    )
}

/// Renders a flat-machine abstract value (re-exported convenience).
pub fn render_flat_val(program: &CpsProgram, v: &ValM) -> String {
    render_val(program, v)
}

/// A pending pooled flat-environment analysis — the ticket returned by
/// [`submit_mcfa`] and [`submit_poly_kcfa`], mirroring
/// [`crate::kcfa::KcfaJob`].
#[derive(Debug)]
pub struct FlatJob {
    handle: crate::pool::JobHandle<crate::pool::PoolRun<FlatCfaMachine<'static>>>,
    program: Arc<CpsProgram>,
    name: String,
}

impl FlatJob {
    /// Blocks until the analysis finishes and assembles the same
    /// [`FlatCfaResult`] the direct [`analyze_mcfa`] /
    /// [`analyze_poly_kcfa`] entry points build.
    pub fn wait(self) -> FlatCfaResult {
        let run = self.handle.wait();
        let metrics = build_metrics(
            self.name,
            &self.program,
            &run.fixpoint,
            &run.machine.operator_flows,
            &run.machine.lam_entry_envs,
            &run.machine.halt_values,
        );
        FlatCfaResult {
            fixpoint: run.fixpoint,
            metrics,
            halt_values: run.machine.halt_values,
        }
    }

    /// Whether the run has deposited its result ([`FlatJob::wait`]
    /// returns without blocking).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Requests cancellation: still-queued runs finish
    /// [`crate::engine::Status::Cancelled`] at zero iterations.
    pub fn cancel(&self) {
        self.handle.cancel();
    }
}

fn submit_flat<B: crate::pool::PoolBackend>(
    pool: &crate::pool::AnalysisPool,
    program: Arc<CpsProgram>,
    bound: usize,
    policy: FlatPolicy,
    name: String,
    limits: EngineLimits,
) -> FlatJob {
    let machine = FlatCfaMachine::new_owned(Arc::clone(&program), bound, policy);
    let handle = pool.submit::<B, _>(machine, limits, crate::engine::EvalMode::SemiNaive);
    FlatJob {
        handle,
        program,
        name,
    }
}

/// Submits an m-CFA analysis of `program` (context bound `m`) to
/// `pool` with tenant store `B`, returning immediately. The pool
/// drives it to the same fixpoint [`analyze_mcfa`] computes — the
/// fixed point of a monotone transfer function is unique — while
/// time-slicing fairly against the pool's other tenants.
pub fn submit_mcfa<B: crate::pool::PoolBackend>(
    pool: &crate::pool::AnalysisPool,
    program: Arc<CpsProgram>,
    m: usize,
    limits: EngineLimits,
) -> FlatJob {
    submit_flat::<B>(
        pool,
        program,
        m,
        FlatPolicy::TopMFrames,
        format!("m-CFA(m={m})"),
        limits,
    )
}

/// Submits a naive polynomial k-CFA analysis of `program` to `pool`
/// with tenant store `B`; see [`submit_mcfa`].
pub fn submit_poly_kcfa<B: crate::pool::PoolBackend>(
    pool: &crate::pool::AnalysisPool,
    program: Arc<CpsProgram>,
    k: usize,
    limits: EngineLimits,
) -> FlatJob {
    submit_flat::<B>(
        pool,
        program,
        k,
        FlatPolicy::LastKCalls,
        format!("poly-k-CFA(k={k})"),
        limits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mcfa(src: &str, m: usize) -> FlatCfaResult {
        let p = cfa_syntax::compile(src).unwrap();
        analyze_mcfa(&p, m, EngineLimits::default())
    }

    fn poly(src: &str, k: usize) -> FlatCfaResult {
        let p = cfa_syntax::compile(src).unwrap();
        analyze_poly_kcfa(&p, k, EngineLimits::default())
    }

    #[test]
    fn constant_program() {
        let r = mcfa("42", 1);
        assert!(r.metrics.status.is_complete());
        assert!(r.metrics.halt_values.contains("42"));
    }

    #[test]
    fn identity_distinguished_under_m1() {
        let r = mcfa("(define (id x) x) (let ((a (id 3))) (id 4))", 1);
        assert!(r.metrics.halt_values.contains("4"));
        assert!(
            !r.metrics.halt_values.contains("3"),
            "{:?}",
            r.metrics.halt_values
        );
    }

    #[test]
    fn m0_equals_context_insensitive() {
        let r = mcfa("(define (id x) x) (let ((a (id 3))) (id 4))", 0);
        assert!(r.metrics.halt_values.contains("3"));
        assert!(r.metrics.halt_values.contains("4"));
    }

    /// The §6 example: an intervening call inside `identity` destroys
    /// poly-1CFA's context but not m-CFA's.
    const IDENTITY_WITH_CALL: &str = "
        (define (do-something) 0)
        (define (identity x) (let ((_ (do-something))) x))
        (let ((a (identity 3))) (identity 4))";

    #[test]
    fn m1_keeps_bindings_distinct_despite_intervening_call() {
        let r = mcfa(IDENTITY_WITH_CALL, 1);
        assert!(r.metrics.halt_values.contains("4"));
        assert!(
            !r.metrics.halt_values.contains("3"),
            "m-CFA must not merge: {:?}",
            r.metrics.halt_values
        );
    }

    #[test]
    fn poly_1cfa_merges_after_intervening_call() {
        let r = poly(IDENTITY_WITH_CALL, 1);
        assert!(r.metrics.halt_values.contains("4"));
        assert!(
            r.metrics.halt_values.contains("3"),
            "naive poly k-CFA merges to {{3,4}}: {:?}",
            r.metrics.halt_values
        );
    }

    #[test]
    fn poly_1cfa_precise_without_intervening_call() {
        // Matches the paper: without the intervening call all three
        // context-sensitive analyses agree the result is 4 only.
        let r = poly("(define (id x) x) (let ((a (id 3))) (id 4))", 1);
        assert!(r.metrics.halt_values.contains("4"));
        assert!(
            !r.metrics.halt_values.contains("3"),
            "{:?}",
            r.metrics.halt_values
        );
    }

    #[test]
    fn recursion_terminates() {
        for bound in [0, 1, 2] {
            let r = mcfa(
                "(define (len xs) (if (null? xs) 0 (+ 1 (len (cdr xs)))))
                 (len (list 1 2 3))",
                bound,
            );
            assert!(r.metrics.status.is_complete(), "m={bound}");
        }
    }

    #[test]
    fn continuation_restore_preserves_caller_bindings() {
        // After returning from id, the outer x must still be visible —
        // this exercises the env-restore (not pop!) behavior of §5.
        let r = mcfa(
            "(define (id y) y)
             (let ((x 10)) (if (zero? (id 5)) x x))",
            1,
        );
        assert!(
            r.metrics.halt_values.contains("10"),
            "{:?}",
            r.metrics.halt_values
        );
    }

    #[test]
    fn pairs_flow() {
        let r = mcfa("(car (cons 41 99))", 1);
        assert!(r.metrics.halt_values.contains("41"));
        assert!(!r.metrics.halt_values.contains("99"));
    }

    #[test]
    fn higher_order_closures() {
        let r = mcfa(
            "(define (make-adder n) (lambda (m) (+ n m)))
             ((make-adder 3) 10)",
            1,
        );
        assert!(r.metrics.status.is_complete());
        assert!(r.metrics.halt_values.contains("int⊤"));
    }

    #[test]
    fn env_counts_are_polynomial_shaped() {
        // Two call sites of id ⇒ at most 2 entry envs under m=1.
        let r = mcfa("(define (id x) x) (let ((a (id 3))) (id 4))", 1);
        assert!(
            r.metrics.max_env_count() <= 3,
            "{:?}",
            r.metrics.lam_env_counts
        );
    }

    #[test]
    fn policies_differ_only_in_name_and_context() {
        let a = mcfa("42", 1);
        let b = poly("42", 1);
        assert_eq!(a.metrics.halt_values, b.metrics.halt_values);
        assert_ne!(a.metrics.analysis, b.metrics.analysis);
    }

    /// §5.3: "The analysis cannot just 'pop' stack frames … what our
    /// analysis needs to do instead (on a function return) is restore
    /// the abstract environment of the current caller." This program
    /// returns through *three* nested procedure calls with m = 1 — a
    /// pop-based scheme would end with an empty or wrong context, losing
    /// the caller's bindings.
    #[test]
    fn returns_through_deep_chains_restore_caller_envs() {
        let r = mcfa(
            "(define (f x) x)
             (define (g y) (f y))
             (define (h z) (g z))
             (let ((secret 99))
               (let ((r (h 5)))
                 (if (zero? r) secret secret)))",
            1,
        );
        assert!(
            r.metrics.halt_values.contains("99"),
            "caller binding lost after deep return: {:?}",
            r.metrics.halt_values
        );
        assert!(r.metrics.status.is_complete());
    }

    /// Top-m frames measure *call depth*: a chain one deeper than m
    /// merges, and increasing m by one recovers the distinction. (This
    /// is the precise sense in which m-CFA's context is the top of the
    /// stack, not the last m call sites.)
    const DEPTH2: &str = "
        (define (f x) x)
        (define (h z) (f z))
        (let ((a (h 3))) (h 4))";

    #[test]
    fn depth_beyond_m_merges() {
        let r = mcfa(DEPTH2, 1);
        assert!(
            r.metrics.halt_values.contains("3"),
            "{:?}",
            r.metrics.halt_values
        );
        assert!(r.metrics.halt_values.contains("4"));
    }

    #[test]
    fn raising_m_recovers_depth() {
        let r = mcfa(DEPTH2, 2);
        assert!(r.metrics.halt_values.contains("4"));
        assert!(
            !r.metrics.halt_values.contains("3"),
            "m=2 covers the depth-2 chain: {:?}",
            r.metrics.halt_values
        );
    }

    #[test]
    fn spawn_join_flows_thread_result() {
        for bound in [0, 1, 2] {
            let r = mcfa("(join (spawn 42))", bound);
            assert!(r.metrics.status.is_complete());
            assert!(
                r.metrics.halt_values.contains("42"),
                "m={bound}: {:?}",
                r.metrics.halt_values
            );
            let r = poly("(join (spawn 42))", bound);
            assert!(
                r.metrics.halt_values.contains("42"),
                "poly k={bound}: {:?}",
                r.metrics.halt_values
            );
        }
    }

    #[test]
    fn atom_writes_visible_after_join() {
        let r = mcfa(
            "(let ((c (atom 0))) (let ((t (spawn (reset! c 5)))) (join t) (deref c)))",
            1,
        );
        assert!(
            r.metrics.halt_values.contains("5"),
            "{:?}",
            r.metrics.halt_values
        );
        let r = mcfa("(let ((c (atom 0))) (cas! c 0 1))", 1);
        assert!(r.metrics.halt_values.contains("bool⊤"));
    }

    /// Recursion terminates and every reached context respects the
    /// top-m bound.
    #[test]
    fn contexts_respect_the_bound() {
        let r = mcfa(
            "(define (even? n) (if (zero? n) #t (odd? (- n 1))))
             (define (odd? n) (if (zero? n) #f (even? (- n 1))))
             (even? 10)",
            2,
        );
        assert!(r.metrics.status.is_complete());
        for env in r.fixpoint.configs.iter().map(|c| &c.env) {
            assert!(env.len() <= 2, "context exceeded bound: {env}");
        }
    }
}
