//! A static race detector for concurrent higher-order programs — the
//! client analysis built on the abstract-thread domain.
//!
//! After one of the thread-aware analyses ([`crate::kcfa`] or
//! [`crate::flatcfa`]) reaches its fixpoint, this module reads the
//! saturated configurations and reports pairs of atom-cell accesses
//! that **may happen in parallel** without ordering:
//!
//! 1. **Node facts.** Every reached configuration becomes a node,
//!    tagged with its abstract thread id and call site. Spawn nodes
//!    record the child thread they create; join nodes record the thread
//!    they *must* wait for (when the handle flow is a singleton thread
//!    id); primitive calls on atoms record `(cell, access-kind)` facts.
//!    In CPS a thread handle or an atom reaches an atomic expression
//!    only through a variable, so each fact is one read-only lookup of
//!    that variable's address in the interned fixpoint store: nothing
//!    is re-stepped and the store is not copied.
//! 2. **Candidate pairs.** Two accesses to the same abstract cell from
//!    different abstract threads conflict if at least one writes and
//!    they are not both `cas!` (compare-and-swap is the synchronized
//!    update). Without a candidate — every single-threaded program —
//!    the report is final here, and steps 3–5 never run.
//! 3. **Thread graph.** Successor edges are recovered by re-stepping
//!    each configuration with the value-level [`ReferenceMachine`]
//!    against a copy of the final store (at saturation this reproduces
//!    exactly the engine's edges; the differential suite checks that
//!    equivalence).
//! 4. **Must-joined dataflow.** A forward analysis computes, for every
//!    node, the set of threads that have certainly completed on *all*
//!    paths reaching it (gen at joins, kill at re-spawns, intersection
//!    at merges). A join generates only when the joined family provably
//!    has a *single concrete member*: the handle flow names a unique
//!    thread id, that id has exactly one spawn node, the spawn node is
//!    not on a graph cycle (a looping spawn site re-fires), and the
//!    spawning thread is itself a singleton family (recursively, with
//!    `main` as the base case). Joining one handle of a multi-member
//!    family finishes *that* member only — the siblings keep running —
//!    so such joins must not order anything. Spawn edges propagate into
//!    the child, so a child inherits the orderings its parent
//!    established — this is what orders sequential `spawn`/`join`
//!    sibling chains.
//! 5. **Spawn ordering.** An access `a` is ordered before every action
//!    of thread `U` if, for each spawn site `s` of `U`, `a` can only
//!    execute before `s` fires (`a →* s` and not `s →* a` in the
//!    graph). This orders main-thread initialization against later
//!    workers.
//!
//! A candidate pair races unless step 4 or step 5 orders it.
//!
//! The detector is *sound relative to the fixpoint*: with a completed
//! run, every concrete race on an atom cell is covered by a reported
//! abstract pair. Two deliberate caveats, both documented here because
//! they bound that claim:
//!
//! - **Same-thread pairs are not reported.** One abstract thread id can
//!   stand for several concrete threads when a spawn site re-executes
//!   (a loop spawning workers, a helper called twice); conflicts
//!   *within* such a family are invisible at this abstraction. Note
//!   that the thread id is a string of spawn-site labels only, so
//!   raising `k`/`m` splits a family only when the re-executions occur
//!   under distinct *parent spawn chains*; re-executions of one spawn
//!   site by a single thread share an abstract id at every bound.
//! - **The `atom` initialization write is ignored.** The cell is not
//!   shared before the allocating primitive returns it.
//!
//! The report renders as stable, sorted text or JSON (no external
//! serializer), and each race carries a concrete ordering/fence
//! suggestion: which thread to `join`, or which `reset!` to turn into a
//! `cas!`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hash::Hash;

use cfa_concrete::base::Slot;
use cfa_syntax::cps::{AExp, CallId, CallKind, CpsProgram, Label};
use cfa_syntax::intern::Symbol;

use crate::canon::push_json_string;
use crate::domain::{AVal, CallString};
use crate::engine::FixpointResult;
use crate::flatcfa::{AddrM, FlatCfaMachine, FlatPolicy, MConfig, ValM};
use crate::kcfa::{AddrK, KCfaMachine, KConfig, ValK};
use crate::prim::{classify, PrimSpec};
use crate::reference::{RefStore, RefTrackedStore, ReferenceMachine};
use crate::store::{AbsStore, Flow};

/// How a primitive touches an atom cell.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum AccessKind {
    /// `deref` — a plain read.
    Read,
    /// `reset!` — an unsynchronized write.
    Write,
    /// `cas!` — a synchronized (compare-and-swap) write.
    Cas,
}

impl AccessKind {
    /// The source-level primitive name.
    fn op(self) -> &'static str {
        match self {
            AccessKind::Read => "deref",
            AccessKind::Write => "reset!",
            AccessKind::Cas => "cas!",
        }
    }

    /// Whether the access mutates the cell.
    fn writes(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Cas)
    }
}

/// A machine-independent name for an abstract atom cell: allocation
/// site × allocation context. Both machines' cell addresses project
/// onto this shape (`AddrK.time` and `AddrM.env` are both call
/// strings), which is what lets one analysis pass serve both.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct CellKey {
    label: Label,
    ctx: CallString,
}

/// What a thread-graph node does, as far as the detector cares.
enum NodeKind {
    /// Spawns the thread with id `child`.
    Spawn { child: CallString },
    /// Joins; `must` is the joined thread when the handle flow proves a
    /// unique target (the only case that establishes ordering).
    Join { must: Option<CallString> },
    /// Touches atom cells.
    Access(Vec<(CellKey, AccessKind)>),
    /// Anything else.
    Other,
}

/// One saturated configuration, with the facts extracted from it. The
/// thread id is borrowed from the configuration.
struct Node<'f> {
    tid: &'f CallString,
    site: Label,
    kind: NodeKind,
}

/// The saturated configuration graph over the nodes of step 1.
struct ThreadGraph<'n, 'f> {
    nodes: &'n [Node<'f>],
    succs: Vec<Vec<usize>>,
    /// The initial configuration's node, when it is among the reached
    /// configs. `None` means the config set and the machine disagree
    /// (e.g. a fixpoint computed with different parameters was passed
    /// in); the must-join analysis then claims nothing rather than
    /// seeding from an arbitrary node.
    entry: Option<usize>,
}

/// What the detector needs from a machine beyond [`ReferenceMachine`]:
/// access to thread ids, variable addresses, and the projections from
/// machine values/addresses onto the machine-independent facts. Values
/// are hashable because the fixpoint store interns them.
trait ThreadedMachine: ReferenceMachine<Val: Hash> {
    /// The abstract thread id of a configuration.
    fn tid(config: &Self::Config) -> &CallString;
    /// The call site a configuration is about to execute.
    fn call(config: &Self::Config) -> CallId;
    /// The spawn-string bound (abstract thread-pool size).
    fn spawn_bound(&self) -> usize;
    /// The store address variable `v` is bound at in `config`'s
    /// environment.
    fn var_addr(config: &Self::Config, v: Symbol) -> Option<Self::Addr>;
    /// Splits an address into its slot and context components.
    fn addr_parts(addr: &Self::Addr) -> (&Slot, &CallString);
    /// Projects a thread handle to its result address, if `v` is one.
    fn as_tid(v: &Self::Val) -> Option<&Self::Addr>;
    /// Projects an atom value to its cell address, if `v` is one.
    fn as_atom(v: &Self::Val) -> Option<&Self::Addr>;
}

impl ThreadedMachine for KCfaMachine<'_> {
    fn tid(config: &KConfig) -> &CallString {
        &config.tid
    }

    fn call(config: &KConfig) -> CallId {
        config.call
    }

    fn spawn_bound(&self) -> usize {
        self.tid_bound()
    }

    fn var_addr(config: &KConfig, v: Symbol) -> Option<AddrK> {
        config.benv.get(v).cloned()
    }

    fn addr_parts(addr: &AddrK) -> (&Slot, &CallString) {
        (&addr.slot, &addr.time)
    }

    fn as_tid(v: &ValK) -> Option<&AddrK> {
        match v {
            AVal::Tid { ret } => Some(ret),
            _ => None,
        }
    }

    fn as_atom(v: &ValK) -> Option<&AddrK> {
        match v {
            AVal::Atom { cell } => Some(cell),
            _ => None,
        }
    }
}

impl ThreadedMachine for FlatCfaMachine<'_> {
    fn tid(config: &MConfig) -> &CallString {
        &config.tid
    }

    fn call(config: &MConfig) -> CallId {
        config.call
    }

    fn spawn_bound(&self) -> usize {
        self.tid_bound()
    }

    fn var_addr(config: &MConfig, v: Symbol) -> Option<AddrM> {
        Some(AddrM {
            slot: Slot::Var(v),
            env: config.env.clone(),
        })
    }

    fn addr_parts(addr: &AddrM) -> (&Slot, &CallString) {
        (&addr.slot, &addr.env)
    }

    fn as_tid(v: &ValM) -> Option<&AddrM> {
        match v {
            AVal::Tid { ret } => Some(ret),
            _ => None,
        }
    }

    fn as_atom(v: &ValM) -> Option<&AddrM> {
        match v {
            AVal::Atom { cell } => Some(cell),
            _ => None,
        }
    }
}

/// The flow of `e` in `config`, looked up in the fixpoint store. Thread
/// handles and atoms reach an atomic expression only through a
/// variable; a literal or a lambda denotes neither, so it reads as ⊥
/// here.
fn var_flow<M: ThreadedMachine>(
    e: &AExp,
    config: &M::Config,
    store: &AbsStore<M::Addr, M::Val>,
) -> Flow {
    match e {
        AExp::Var(v) => M::var_addr(config, *v).map_or_else(Flow::empty, |a| store.read_flow(&a)),
        AExp::Lit(_) | AExp::Lam(_) => Flow::empty(),
    }
}

/// Step 1: one node per saturated configuration, with its facts read
/// off the fixpoint store.
fn node_facts<'f, M: ThreadedMachine>(
    machine: &M,
    program: &CpsProgram,
    fixpoint: &'f FixpointResult<M::Config, M::Addr, M::Val>,
) -> Vec<Node<'f>> {
    let store = &fixpoint.store;
    let node = |config: &'f M::Config| {
        let tid = M::tid(config);
        let call = program.call(M::call(config));
        let kind = match &call.kind {
            CallKind::Spawn { .. } => NodeKind::Spawn {
                child: tid.push(call.label, machine.spawn_bound()),
            },
            CallKind::Join { target, .. } => {
                let handles = var_flow::<M>(target, config, store);
                let mut targets = BTreeSet::new();
                let mut only_tids = !handles.is_empty();
                for id in handles.iter() {
                    match M::as_tid(store.val(id)) {
                        Some(ret) => {
                            let (slot, ctx) = M::addr_parts(ret);
                            if matches!(slot, Slot::ThreadRet(_)) {
                                targets.insert(ctx.clone());
                            } else {
                                only_tids = false;
                            }
                        }
                        None => only_tids = false,
                    }
                }
                let must = if only_tids && targets.len() == 1 {
                    targets.into_iter().next()
                } else {
                    None
                };
                NodeKind::Join { must }
            }
            CallKind::PrimCall { op, args, .. } => {
                let access = match classify(*op) {
                    PrimSpec::ReadAtom => Some(AccessKind::Read),
                    PrimSpec::WriteAtom => Some(AccessKind::Write),
                    PrimSpec::CasAtom => Some(AccessKind::Cas),
                    _ => None,
                };
                match (access, args.first()) {
                    (Some(kind), Some(target)) => {
                        let cells: Vec<(CellKey, AccessKind)> =
                            var_flow::<M>(target, config, store)
                                .iter()
                                .filter_map(|id| M::as_atom(store.val(id)))
                                .filter_map(|cell| match M::addr_parts(cell) {
                                    (Slot::Atom(label), ctx) => Some((
                                        CellKey {
                                            label: *label,
                                            ctx: ctx.clone(),
                                        },
                                        kind,
                                    )),
                                    _ => None,
                                })
                                .collect();
                        if cells.is_empty() {
                            NodeKind::Other
                        } else {
                            NodeKind::Access(cells)
                        }
                    }
                    _ => NodeKind::Other,
                }
            }
            _ => NodeKind::Other,
        };
        Node {
            tid,
            site: call.label,
            kind,
        }
    };
    fixpoint.configs.iter().map(node).collect()
}

/// Step 3: the successor edges, from re-stepping every saturated
/// configuration against a value-level copy of the final store.
///
/// At a completed fixpoint every reference-step successor is itself a
/// saturated configuration; if the run was cut short by limits, unknown
/// successors are dropped and the graph (like the analysis itself)
/// under-approximates that frontier.
fn build_graph<'n, 'f, M: ThreadedMachine>(
    machine: &mut M,
    nodes: &'n [Node<'f>],
    fixpoint: &FixpointResult<M::Config, M::Addr, M::Val>,
) -> ThreadGraph<'n, 'f> {
    let mut store = RefStore::new();
    for (addr, values) in fixpoint.store.iter() {
        store.join(addr.clone(), values);
    }
    let configs = &fixpoint.configs;
    let index: HashMap<&M::Config, usize> =
        configs.iter().enumerate().map(|(i, c)| (c, i)).collect();
    let entry = index.get(&machine.initial()).copied();
    let mut out = Vec::new();
    let succs = configs
        .iter()
        .map(|config| {
            out.clear();
            machine.step(config, &mut RefTrackedStore::wrap(&mut store), &mut out);
            let edges: BTreeSet<usize> = out.iter().filter_map(|s| index.get(s).copied()).collect();
            edges.into_iter().collect()
        })
        .collect();
    ThreadGraph {
        nodes,
        succs,
        entry,
    }
}

/// Whether `s` lies on a cycle of `edges` (some successor path leads
/// back to `s`): a node a concrete run can visit more than once.
fn on_cycle(edges: &[Vec<usize>], s: usize) -> bool {
    let mut seen = vec![false; edges.len()];
    let mut work = Vec::new();
    for &j in &edges[s] {
        if !seen[j] {
            seen[j] = true;
            work.push(j);
        }
    }
    while let Some(i) = work.pop() {
        if i == s {
            return true;
        }
        for &j in &edges[i] {
            if !seen[j] {
                seen[j] = true;
                work.push(j);
            }
        }
    }
    false
}

/// The abstract thread ids whose family provably has at most one
/// concrete member. `main` always qualifies; a spawned id qualifies
/// when it has exactly one spawn node, that node is not on a cycle (a
/// looping spawn re-fires), and the spawning thread is itself a
/// singleton family (a family parent runs its spawn once *per member*).
/// Computed as a least fixpoint from below, so a spawn chain that feeds
/// back into itself through thread-id truncation stays out.
fn singleton_tids(graph: &ThreadGraph) -> BTreeSet<CallString> {
    let mut spawns: BTreeMap<&CallString, Vec<usize>> = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if let NodeKind::Spawn { child } = &node.kind {
            spawns.entry(child).or_default().push(i);
        }
    }
    let mut singles = BTreeSet::new();
    singles.insert(CallString::empty());
    loop {
        let mut changed = false;
        for (tid, sites) in &spawns {
            if singles.contains(*tid) || sites.len() != 1 {
                continue;
            }
            let s = sites[0];
            if singles.contains(graph.nodes[s].tid) && !on_cycle(&graph.succs, s) {
                singles.insert((*tid).clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    singles
}

/// Forward must-analysis: for each node, the threads certainly joined on
/// every path from the entry. Optimistic initialization (unvisited = ⊤),
/// intersection at merges; a spawn kills its child (a re-spawn
/// invalidates the old completion), and a join generates only when its
/// unique target is a singleton family ([`singleton_tids`]) — joining
/// one handle of a multi-member family leaves the siblings running, so
/// nothing completes for certain. Nodes unreachable from the entry keep
/// ∅ — no ordering claims there — and a missing entry (the initial
/// config absent from `configs`) yields ∅ everywhere.
fn must_joined(graph: &ThreadGraph) -> Vec<BTreeSet<CallString>> {
    let n = graph.nodes.len();
    let mut inv: Vec<Option<BTreeSet<CallString>>> = vec![None; n];
    let Some(entry) = graph.entry else {
        return vec![BTreeSet::new(); n];
    };
    let singles = singleton_tids(graph);
    inv[entry] = Some(BTreeSet::new());
    let mut work = vec![entry];
    while let Some(i) = work.pop() {
        let mut out = inv[i].clone().expect("worklist nodes are initialized");
        match &graph.nodes[i].kind {
            NodeKind::Spawn { child } => {
                out.remove(child);
            }
            NodeKind::Join { must: Some(u) } if singles.contains(u) => {
                out.insert(u.clone());
            }
            _ => {}
        }
        for &j in &graph.succs[i] {
            let changed = match &mut inv[j] {
                slot @ None => {
                    *slot = Some(out.clone());
                    true
                }
                Some(cur) => {
                    let before = cur.len();
                    cur.retain(|t| out.contains(t));
                    cur.len() != before
                }
            };
            if changed {
                work.push(j);
            }
        }
    }
    inv.into_iter().map(Option::unwrap_or_default).collect()
}

/// Nodes reachable from `start` (inclusive) along `edges`.
fn reach(edges: &[Vec<usize>], start: usize) -> Vec<bool> {
    let mut seen = vec![false; edges.len()];
    seen[start] = true;
    let mut work = vec![start];
    while let Some(i) = work.pop() {
        for &j in &edges[i] {
            if !seen[j] {
                seen[j] = true;
                work.push(j);
            }
        }
    }
    seen
}

/// The rendered name of the main thread.
const MAIN: &str = "main";

/// Renders a thread id (`main` for the empty spawn string).
fn render_tid(tid: &CallString) -> String {
    if tid.is_empty() {
        MAIN.to_string()
    } else {
        tid.to_string()
    }
}

/// Renders a cell by its allocation site, matching the store report's
/// `atom@ℓ` convention. The allocation *context* is deliberately
/// dropped: it is machine-specific (k-CFA stamps cells with times,
/// m-CFA with flat environments), and collapsing it makes the reports
/// of all three analyses comparable. Pair formation upstream still
/// distinguishes contexts; same-site races from different contexts
/// simply merge into one report entry.
fn render_cell(label: Label) -> String {
    format!("atom@{label}")
}

/// One side of a racing pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccessDesc {
    /// The abstract thread performing the access (`main` or a spawn
    /// string like `⟨5⟩`).
    pub thread: String,
    /// The call-site label of the primitive.
    pub site: Label,
    /// The source-level primitive: `deref`, `reset!`, or `cas!`.
    pub op: &'static str,
}

/// The conflict class of a race.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RaceKind {
    /// A read overlapping a write.
    ReadWrite,
    /// Two overlapping writes.
    WriteWrite,
}

impl RaceKind {
    /// The stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            RaceKind::ReadWrite => "read/write",
            RaceKind::WriteWrite => "write/write",
        }
    }
}

/// One reported race: an unordered conflicting pair on one cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Race {
    /// The abstract cell (allocation site and context).
    pub cell: String,
    /// Read/write or write/write.
    pub kind: RaceKind,
    /// Canonically first endpoint (sorted by thread, site, op).
    pub first: AccessDesc,
    /// Canonically second endpoint.
    pub second: AccessDesc,
    /// A concrete ordering/fence suggestion.
    pub suggestion: String,
}

/// The race detector's full output for one analysis run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RaceReport {
    /// The producing analysis (`k=1`, `m=1`, `poly k=1`).
    pub analysis: String,
    /// All abstract threads seen, sorted (`main` first).
    pub threads: Vec<String>,
    /// Number of atom-access facts examined.
    pub accesses: usize,
    /// The races, deduplicated and stably sorted.
    pub races: Vec<Race>,
}

/// Builds the fix suggestion for a canonically ordered pair.
fn suggestion(first: (&str, Label, AccessKind), second: (&str, Label, AccessKind)) -> String {
    let (ft, fs, fk) = first;
    let (st, ss, sk) = second;
    match (fk, sk) {
        // A plain write racing a cas!: upgrading the plain write
        // restores the all-cas exemption.
        (AccessKind::Write, AccessKind::Cas) => {
            format!("make the reset! at ℓ{fs} a cas! so every update of the cell synchronizes")
        }
        (AccessKind::Cas, AccessKind::Write) => {
            format!("make the reset! at ℓ{ss} a cas! so every update of the cell synchronizes")
        }
        (AccessKind::Write, AccessKind::Write) => {
            format!("order threads {ft} and {st} with join, or perform both updates with cas!")
        }
        (AccessKind::Read, _) => read_fix((ft, fs), (st, ss, sk)),
        (_, AccessKind::Read) => read_fix((st, ss), (ft, fs, fk)),
        // Both-cas pairs are exempt before this point.
        (AccessKind::Cas, AccessKind::Cas) => unreachable!("cas/cas pairs are not races"),
    }
}

/// The fix for a read racing a write: order the reader after the
/// writer by joining the writer first. No thread holds a handle to
/// `main`, so when `main` writes, order the other way: `main` joins the
/// reader before its write.
fn read_fix(reader: (&str, Label), writer: (&str, Label, AccessKind)) -> String {
    let (rt, rs) = reader;
    let (wt, ws, wk) = writer;
    if wt == MAIN {
        let op = wk.op();
        format!("join thread {rt} before the {op} at ℓ{ws}, or fold the read into a cas!")
    } else {
        format!("join thread {wt} before the deref at ℓ{rs}, or fold the read into a cas!")
    }
}

/// One atom-access fact: a node's access to one cell.
struct Acc<'g> {
    node: usize,
    tid: &'g CallString,
    site: Label,
    cell: &'g CellKey,
    kind: AccessKind,
}

/// Whether `a` and `b` can race if nothing orders them: the same cell
/// from different abstract threads, at least one write, not both
/// `cas!`.
fn conflicts(a: &Acc, b: &Acc) -> bool {
    a.tid != b.tid
        && a.cell == b.cell
        && (a.kind.writes() || b.kind.writes())
        && !(a.kind == AccessKind::Cas && b.kind == AccessKind::Cas)
}

/// Steps 4 and 5 over a finished thread graph: keeps the candidate
/// pairs that neither ordering argument orders.
fn unordered<'a, 'g>(
    graph: &ThreadGraph,
    candidates: Vec<(&'a Acc<'g>, &'a Acc<'g>)>,
) -> Vec<(&'a Acc<'g>, &'a Acc<'g>)> {
    let must_in = must_joined(graph);
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes.len()];
    for (i, ss) in graph.succs.iter().enumerate() {
        for &j in ss {
            preds[j].push(i);
        }
    }
    let mut spawn_sites: BTreeMap<&CallString, Vec<usize>> = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if let NodeKind::Spawn { child } = &node.kind {
            spawn_sites.entry(child).or_default().push(i);
        }
    }
    let mut fwd: HashMap<usize, Vec<bool>> = HashMap::new();
    let mut bwd: HashMap<usize, Vec<bool>> = HashMap::new();
    for sites in spawn_sites.values() {
        for &s in sites {
            fwd.entry(s).or_insert_with(|| reach(&graph.succs, s));
            bwd.entry(s).or_insert_with(|| reach(&preds, s));
        }
    }

    // `x` finishes before thread `u` even starts: every spawn of `u` is
    // causally after `x` and never loops back.
    let before_all_spawns = |x: &Acc, u: &CallString| -> bool {
        match spawn_sites.get(u) {
            Some(sites) => sites.iter().all(|s| bwd[s][x.node] && !fwd[s][x.node]),
            // `u` has no spawn node (the main thread): nothing precedes it.
            None => false,
        }
    };
    let ordered = |a: &Acc, b: &Acc| -> bool {
        must_in[a.node].contains(b.tid)
            || must_in[b.node].contains(a.tid)
            || before_all_spawns(a, b.tid)
            || before_all_spawns(b, a.tid)
    };
    candidates
        .into_iter()
        .filter(|(a, b)| !ordered(a, b))
        .collect()
}

/// Runs the detector over a saturated fixpoint of `machine`.
fn detect<M: ThreadedMachine>(
    mut machine: M,
    program: &CpsProgram,
    fixpoint: &FixpointResult<M::Config, M::Addr, M::Val>,
    analysis: String,
) -> RaceReport {
    let nodes = node_facts(&machine, program, fixpoint);
    let mut accesses = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        if let NodeKind::Access(cells) = &node.kind {
            for (cell, kind) in cells {
                accesses.push(Acc {
                    node: i,
                    tid: node.tid,
                    site: node.site,
                    cell,
                    kind: *kind,
                });
            }
        }
    }
    let mut candidates = Vec::new();
    for (i, a) in accesses.iter().enumerate() {
        for b in &accesses[i + 1..] {
            if conflicts(a, b) {
                candidates.push((a, b));
            }
        }
    }
    // Only a candidate pair needs the thread graph to be ordered.
    let racing = if candidates.is_empty() {
        candidates
    } else {
        unordered(&build_graph(&mut machine, &nodes, fixpoint), candidates)
    };

    // Dedupe site-level pairs (one source conflict shows up once, no
    // matter how many configurations or contexts cover it), sorted for
    // stability.
    type Endpoint = (String, Label, AccessKind);
    let mut pairs: BTreeSet<(Label, Endpoint, Endpoint)> = BTreeSet::new();
    for (a, b) in racing {
        let ea = (render_tid(a.tid), a.site, a.kind);
        let eb = (render_tid(b.tid), b.site, b.kind);
        let (first, second) = if ea <= eb { (ea, eb) } else { (eb, ea) };
        pairs.insert((a.cell.label, first, second));
    }

    let races = pairs
        .into_iter()
        .map(|(cell, first, second)| {
            let kind = if first.2.writes() && second.2.writes() {
                RaceKind::WriteWrite
            } else {
                RaceKind::ReadWrite
            };
            let hint = suggestion(
                (first.0.as_str(), first.1, first.2),
                (second.0.as_str(), second.1, second.2),
            );
            Race {
                cell: render_cell(cell),
                kind,
                first: AccessDesc {
                    thread: first.0,
                    site: first.1,
                    op: first.2.op(),
                },
                second: AccessDesc {
                    thread: second.0,
                    site: second.1,
                    op: second.2.op(),
                },
                suggestion: hint,
            }
        })
        .collect();

    let threads: BTreeSet<&CallString> = nodes.iter().map(|n| n.tid).collect();
    RaceReport {
        analysis,
        threads: threads.into_iter().map(render_tid).collect(),
        accesses: accesses.len(),
        races,
    }
}

/// Runs the race detector over a saturated k-CFA fixpoint (from
/// [`crate::kcfa::analyze_kcfa`] — field `fixpoint` — or any engine
/// backend run on a [`KCfaMachine`] with the same `program` and `k`;
/// all backends compute the identical fixpoint, so the report is
/// engine-independent).
pub fn races_kcfa(
    program: &CpsProgram,
    k: usize,
    fixpoint: &FixpointResult<KConfig, AddrK, ValK>,
) -> RaceReport {
    let machine = KCfaMachine::new(program, k);
    detect(machine, program, fixpoint, format!("k={k}"))
}

/// Runs the race detector over a saturated m-CFA fixpoint (from
/// [`crate::flatcfa::analyze_mcfa`] — field `fixpoint` — or any engine
/// backend run on a [`FlatCfaMachine`] with [`FlatPolicy::TopMFrames`]
/// and the same `program` and `m`).
pub fn races_mcfa(
    program: &CpsProgram,
    m: usize,
    fixpoint: &FixpointResult<MConfig, AddrM, ValM>,
) -> RaceReport {
    let machine = FlatCfaMachine::new(program, m, FlatPolicy::TopMFrames);
    detect(machine, program, fixpoint, format!("m={m}"))
}

/// Runs the race detector over a saturated polynomial-k-CFA fixpoint
/// (from [`crate::flatcfa::analyze_poly_kcfa`] — field `fixpoint` — or
/// any engine backend run on a [`FlatCfaMachine`] with
/// [`FlatPolicy::LastKCalls`] and the same `program` and `k`).
pub fn races_poly_kcfa(
    program: &CpsProgram,
    k: usize,
    fixpoint: &FixpointResult<MConfig, AddrM, ValM>,
) -> RaceReport {
    let machine = FlatCfaMachine::new(program, k, FlatPolicy::LastKCalls);
    detect(machine, program, fixpoint, format!("poly k={k}"))
}

impl RaceReport {
    /// Renders the human-readable report (stable across runs).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "race report ({}): {} race{} across {} thread{}, {} atom access{}\n",
            self.analysis,
            self.races.len(),
            if self.races.len() == 1 { "" } else { "s" },
            self.threads.len(),
            if self.threads.len() == 1 { "" } else { "s" },
            self.accesses,
            if self.accesses == 1 { "" } else { "es" },
        ));
        s.push_str(&format!("  threads: {}\n", self.threads.join(", ")));
        for (i, race) in self.races.iter().enumerate() {
            s.push_str(&format!(
                "  {}. {} on {}\n",
                i + 1,
                race.kind.as_str(),
                race.cell
            ));
            for end in [&race.first, &race.second] {
                s.push_str(&format!(
                    "     {} at ℓ{} by thread {}\n",
                    end.op, end.site, end.thread
                ));
            }
            s.push_str(&format!("     fix: {}\n", race.suggestion));
        }
        if self.races.is_empty() {
            s.push_str("  no races found\n");
        }
        s
    }

    /// Renders the report as JSON (hand-rolled; the schema is documented
    /// in the repository README).
    pub fn render_json(&self) -> String {
        fn access(out: &mut String, a: &AccessDesc) {
            out.push_str("{\"thread\":");
            push_json_string(out, &a.thread);
            let _ = write!(out, ",\"site\":{},\"op\":", a.site);
            push_json_string(out, a.op);
            out.push('}');
        }
        let mut out = String::from("{\"analysis\":");
        push_json_string(&mut out, &self.analysis);
        out.push_str(",\"threads\":[");
        for (i, thread) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, thread);
        }
        let _ = write!(out, "],\"accesses\":{},\"races\":[", self.accesses);
        for (i, r) in self.races.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"cell\":");
            push_json_string(&mut out, &r.cell);
            let _ = write!(out, ",\"kind\":\"{}\",\"first\":", r.kind.as_str());
            access(&mut out, &r.first);
            out.push_str(",\"second\":");
            access(&mut out, &r.second);
            out.push_str(",\"suggestion\":");
            push_json_string(&mut out, &r.suggestion);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineLimits;
    use crate::flatcfa::{analyze_mcfa, analyze_poly_kcfa};
    use crate::kcfa::analyze_kcfa;

    fn report_k(src: &str, k: usize) -> RaceReport {
        let p = cfa_syntax::compile(src).unwrap();
        let r = analyze_kcfa(&p, k, EngineLimits::default());
        assert!(r.metrics.status.is_complete(), "fixpoint incomplete");
        races_kcfa(&p, k, &r.fixpoint)
    }

    fn report_m(src: &str, m: usize) -> RaceReport {
        let p = cfa_syntax::compile(src).unwrap();
        let r = analyze_mcfa(&p, m, EngineLimits::default());
        assert!(r.metrics.status.is_complete(), "fixpoint incomplete");
        races_mcfa(&p, m, &r.fixpoint)
    }

    fn report_poly(src: &str, k: usize) -> RaceReport {
        let p = cfa_syntax::compile(src).unwrap();
        let r = analyze_poly_kcfa(&p, k, EngineLimits::default());
        assert!(r.metrics.status.is_complete(), "fixpoint incomplete");
        races_poly_kcfa(&p, k, &r.fixpoint)
    }

    const UNJOINED_READ: &str = "(let ((a (atom 0)))
           (let ((t (spawn (reset! a 1))))
             (deref a)))";

    const JOINED_READ: &str = "(let ((a (atom 0)))
           (let ((t (spawn (reset! a 1))))
             (begin (join t) (deref a))))";

    const SIBLING_WRITES: &str = "(let ((a (atom 0)))
           (let ((t1 (spawn (reset! a 1))))
             (let ((t2 (spawn (reset! a 2))))
               (begin (join t1) (join t2)))))";

    const CAS_GUARDED: &str = "(let ((a (atom 0)))
           (let ((t (spawn (cas! a 0 1))))
             (begin (cas! a 0 2) (join t))))";

    // One spawn site executed twice (helper called from two call
    // sites), only one handle joined: the un-joined sibling shares the
    // joined member's abstract thread id, so the join must not order
    // the family's writes before the deref.
    const DOUBLE_SPAWN_SINGLE_JOIN: &str = "(let ((a (atom 0)))
           (let ((mk (lambda (x) (spawn (reset! a 1)))))
             (let ((h1 (mk 0)))
               (let ((h2 (mk 0)))
                 (begin (join h1) (deref a))))))";

    #[test]
    fn unjoined_read_races_with_child_write() {
        for report in [report_k(UNJOINED_READ, 1), report_m(UNJOINED_READ, 1)] {
            assert_eq!(report.races.len(), 1, "{}", report.render_text());
            let race = &report.races[0];
            assert_eq!(race.kind, RaceKind::ReadWrite);
            assert_eq!(race.first.op, "deref");
            assert_eq!(race.first.thread, "main");
            assert_eq!(race.second.op, "reset!");
        }
    }

    #[test]
    fn join_orders_child_write_before_read() {
        for report in [report_k(JOINED_READ, 1), report_m(JOINED_READ, 1)] {
            assert!(report.races.is_empty(), "{}", report.render_text());
            assert_eq!(report.threads.len(), 2);
            assert!(report.accesses >= 2);
        }
    }

    #[test]
    fn concurrent_sibling_writes_race() {
        let report = report_k(SIBLING_WRITES, 1);
        assert_eq!(report.races.len(), 1, "{}", report.render_text());
        assert_eq!(report.races[0].kind, RaceKind::WriteWrite);
        assert_eq!(report.threads.len(), 3);
    }

    #[test]
    fn sequential_spawn_join_chain_is_ordered() {
        let src = "(let ((a (atom 0)))
               (let ((t1 (spawn (reset! a 1))))
                 (begin
                   (join t1)
                   (let ((t2 (spawn (reset! a 2))))
                     (begin (join t2) (deref a))))))";
        for report in [report_k(src, 1), report_m(src, 1)] {
            assert!(report.races.is_empty(), "{}", report.render_text());
        }
    }

    #[test]
    fn cas_guarded_updates_do_not_race() {
        for report in [report_k(CAS_GUARDED, 1), report_m(CAS_GUARDED, 1)] {
            assert!(report.races.is_empty(), "{}", report.render_text());
            assert!(report.accesses >= 2);
        }
    }

    #[test]
    fn plain_write_racing_cas_suggests_upgrading_it() {
        let src = "(let ((a (atom 0)))
               (let ((t (spawn (cas! a 0 1))))
                 (begin (reset! a 2) (join t))))";
        let report = report_k(src, 1);
        assert_eq!(report.races.len(), 1, "{}", report.render_text());
        let race = &report.races[0];
        assert_eq!(race.kind, RaceKind::WriteWrite);
        assert!(
            race.suggestion.contains("cas!"),
            "suggestion should point at cas!: {}",
            race.suggestion
        );
    }

    #[test]
    fn child_read_racing_a_main_write_suggests_joining_the_reader() {
        // No thread can join `main`: the fix orders main's write after
        // the child's read instead.
        let src = "(let ((a (atom 0)))
               (let ((t (spawn (deref a))))
                 (begin (reset! a 1) (join t))))";
        for report in [report_k(src, 1), report_m(src, 1), report_poly(src, 1)] {
            assert_eq!(report.races.len(), 1, "{}", report.render_text());
            let race = &report.races[0];
            assert_eq!(
                (race.first.thread.as_str(), race.first.op),
                ("main", "reset!")
            );
            assert_eq!(race.second.op, "deref");
            assert_eq!(
                race.suggestion,
                format!(
                    "join thread {} before the reset! at ℓ{}, or fold the read into a cas!",
                    race.second.thread, race.first.site
                )
            );
        }
    }

    #[test]
    fn joining_one_member_of_a_spawn_family_does_not_order_its_siblings() {
        for report in [
            report_k(DOUBLE_SPAWN_SINGLE_JOIN, 1),
            report_m(DOUBLE_SPAWN_SINGLE_JOIN, 1),
        ] {
            assert_eq!(report.races.len(), 1, "{}", report.render_text());
            let race = &report.races[0];
            assert_eq!(race.kind, RaceKind::ReadWrite);
            assert_eq!(race.first.op, "deref");
            assert_eq!(race.first.thread, "main");
            assert_eq!(race.second.op, "reset!");
        }
    }

    #[test]
    fn joining_every_member_of_a_singleton_chain_still_orders() {
        // The dual of the family case: two distinct spawn *sites*, each
        // fired once, both joined — every family is a provable
        // singleton, so the joins order both writes before the read.
        let src = "(let ((a (atom 0)))
               (let ((t1 (spawn (reset! a 1))))
                 (let ((t2 (spawn (reset! a 2))))
                   (begin (join t1) (join t2) (deref a)))))";
        for report in [report_k(src, 1), report_m(src, 1)] {
            let unordered_read = report
                .races
                .iter()
                .any(|r| r.first.op == "deref" || r.second.op == "deref");
            assert!(!unordered_read, "{}", report.render_text());
        }
    }

    #[test]
    fn access_through_a_merged_flow_touches_every_cell() {
        // At k=0 `pick` merges its results, so `p` may hold either
        // atom: the child's write must count against `b` as well.
        let src = "(let ((a (atom 0)))
               (let ((b (atom 0)))
                 (let ((pick (lambda (x) x)))
                   (let ((p (pick a)))
                     (let ((q (pick b)))
                       (let ((t (spawn (reset! p 1))))
                         (begin (deref q) (join t))))))))";
        let report = report_k(src, 0);
        assert_eq!(report.races.len(), 2, "{}", report.render_text());
        let cells: BTreeSet<&str> = report.races.iter().map(|r| r.cell.as_str()).collect();
        assert_eq!(cells.len(), 2, "{}", report.render_text());
    }

    #[test]
    fn join_through_a_merged_handle_does_not_order() {
        // At k=0 `h` may be either thread, so joining it orders
        // neither write before the deref.
        let src = "(let ((a (atom 0)))
               (let ((pick (lambda (x) x)))
                 (let ((t1 (spawn (reset! a 1))))
                   (let ((t2 (spawn (reset! a 2))))
                     (let ((h (pick t1)))
                       (let ((g (pick t2)))
                         (begin (join h) (deref a))))))))";
        let report = report_k(src, 0);
        let readers: Vec<&Race> = report
            .races
            .iter()
            .filter(|r| r.kind == RaceKind::ReadWrite)
            .collect();
        assert_eq!(readers.len(), 2, "{}", report.render_text());
    }

    #[test]
    fn loop_spawned_family_join_does_not_order() {
        // A recursive loop re-firing one spawn site: the spawn node is
        // on a graph cycle, so the family is multi-member and joining
        // one handle leaves siblings running.
        let src = "(let ((a (atom 0)))
               (letrec ((go (lambda (n)
                              (if (= n 0)
                                  (spawn (reset! a 1))
                                  (go (- n 1))))))
                 (let ((h (go 3)))
                   (begin (join h) (deref a)))))";
        for report in [report_k(src, 1), report_m(src, 1)] {
            assert_eq!(report.races.len(), 1, "{}", report.render_text());
            assert_eq!(report.races[0].kind, RaceKind::ReadWrite);
        }
    }

    #[test]
    fn main_write_before_spawn_is_ordered() {
        let src = "(let ((a (atom 0)))
               (begin
                 (reset! a 1)
                 (let ((t (spawn (deref a))))
                   (join t))))";
        for report in [report_k(src, 1), report_m(src, 1)] {
            assert!(report.races.is_empty(), "{}", report.render_text());
        }
    }

    #[test]
    fn analyses_agree_on_the_golden_suite() {
        // The detector is machine-independent: k-CFA, m-CFA, and poly
        // k-CFA see the same races on the golden programs (only the
        // analysis banner differs).
        for src in [
            UNJOINED_READ,
            JOINED_READ,
            SIBLING_WRITES,
            CAS_GUARDED,
            DOUBLE_SPAWN_SINGLE_JOIN,
        ] {
            let p = cfa_syntax::compile(src).unwrap();
            let k = races_kcfa(
                &p,
                1,
                &analyze_kcfa(&p, 1, EngineLimits::default()).fixpoint,
            );
            let m = races_mcfa(
                &p,
                1,
                &analyze_mcfa(&p, 1, EngineLimits::default()).fixpoint,
            );
            let pk = races_poly_kcfa(
                &p,
                1,
                &analyze_poly_kcfa(&p, 1, EngineLimits::default()).fixpoint,
            );
            assert_eq!(k.races, m.races, "{src}");
            assert_eq!(k.races, pk.races, "{src}");
        }
    }

    #[test]
    fn text_and_json_are_stable() {
        let report = report_k(UNJOINED_READ, 1);
        let text = report.render_text();
        assert!(text.contains("read/write"), "{text}");
        assert!(text.contains("by thread main"), "{text}");
        assert!(text.contains("fix:"), "{text}");
        let json = report.render_json();
        assert!(json.starts_with("{\"analysis\":\"k=1\""), "{json}");
        assert!(json.contains("\"kind\":\"read/write\""), "{json}");
        assert!(json.contains("\"op\":\"deref\""), "{json}");
        // Hand-rolled JSON must stay parseable by shape: balanced braces.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn sequential_programs_report_nothing() {
        // The second program has atoms but no spawn: both accesses are
        // main's, so no candidate pair exists and the report comes from
        // the node facts alone, without a thread graph.
        for (src, accesses) in [
            ("(define (f x) (+ x 1)) (f 41)", 0),
            ("(let ((a (atom 0))) (begin (reset! a 1) (deref a)))", 2),
        ] {
            for report in [
                report_k(src, 0),
                report_k(src, 1),
                report_m(src, 1),
                report_poly(src, 1),
            ] {
                let text = report.render_text();
                assert_eq!(report.threads, vec!["main".to_string()], "{text}");
                assert_eq!(report.accesses, accesses, "{text}");
                assert!(report.races.is_empty(), "{text}");
            }
        }
    }
}
