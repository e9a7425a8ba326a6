//! Canonical, engine-independent normal form for a completed fixpoint.
//!
//! Every engine configuration (sequential/sharded × semi-naive/full
//! re-evaluation, pool tenants, plus the reference oracle) must reach
//! the identical fixpoint — the fixed point of a monotone transfer
//! function is unique. Until now that guarantee lived only inside
//! in-process assertions (`cfa_testsupport::assert_engines_agree`),
//! so it could not catch cross-*version* regressions or ship a failure
//! as an artifact. This module turns a completed run into a persistent,
//! diffable JSON document:
//!
//! * [`canon_kcfa`] / [`canon_mcfa`] / [`canon_poly_kcfa`] (and their
//!   `_ref` twins for the reference engine) normalize a fixpoint into a
//!   [`CanonSnapshot`];
//! * [`CanonSnapshot::to_json`] serializes it deterministically (sorted
//!   keys, fixed field order, stable escaping), and
//!   [`CanonSnapshot::parse`] reads it back — `serialize → parse →
//!   re-serialize` is byte-identical;
//! * [`diff_snapshots`] compares two snapshots *structurally* and
//!   reports the first N divergent facts by name, not just a boolean.
//!
//! # Why interner ids cannot appear in the normal form
//!
//! The engines intern addresses and values into dense `u32` ids whose
//! numbering depends on discovery order — a perfectly healthy parallel
//! run assigns different ids than a sequential run, and the same
//! engine assigns different ids across versions. Every component of
//! the normal form is therefore rendered from **compile-deterministic**
//! data only: λ-term and call-site [`Label`](cfa_syntax::cps::Label)s,
//! interned variable
//! *names*, and call-string contexts. Two runs that compute the same
//! abstract semantics produce byte-identical snapshots no matter which
//! engine, thread count, or schedule produced them.
//!
//! Only a run with [`Status::Completed`] is canonicalizable: a
//! truncated or aborted fixpoint is a *partial* result, and diffing it
//! against a completed one would manufacture divergences. The builders
//! return [`NotComparable`] instead.
//!
//! # Examples
//!
//! ```
//! use cfa_core::canon::{canon_kcfa, diff_snapshots, DEFAULT_DIFF_LIMIT};
//! use cfa_core::engine::EngineLimits;
//!
//! let p = cfa_syntax::compile("((lambda (x) x) 42)").unwrap();
//! let r = cfa_core::analyze_kcfa(&p, 1, EngineLimits::default());
//! let snap = canon_kcfa(&p, 1, &r.fixpoint).unwrap();
//! assert!(snap.halt.contains(&"42".to_owned()));
//! let back = cfa_core::canon::CanonSnapshot::parse(&snap.to_json()).unwrap();
//! assert!(diff_snapshots(&snap, &back, DEFAULT_DIFF_LIMIT).is_identical());
//! ```

use crate::domain::{AVal, AbsBasic, CallString};
use crate::engine::{FixpointResult, Status};
use crate::flatcfa::{AddrM, MConfig, ValM};
use crate::kcfa::{AddrK, KConfig, ValK};
use crate::reference::RefFixpointResult;
use cfa_concrete::base::Slot;
use cfa_syntax::cps::{AExp, CallId, CallKind, CpsProgram, LamId};
use cfa_syntax::intern::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Version of the normal-form layout. Bumped whenever the rendered
/// shape changes incompatibly; [`diff_snapshots`] reports a version
/// mismatch as its first divergence instead of comparing garbage.
pub const SCHEMA_VERSION: u64 = 1;

/// Default number of divergent facts [`diff_snapshots`] spells out.
pub const DEFAULT_DIFF_LIMIT: usize = 10;

/// A completed fixpoint in canonical, engine-independent form.
///
/// All collections are sorted and all entries are pretty-printed from
/// compile-deterministic data (labels, variable names, call strings) —
/// see the module docs for why interner ids are banned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CanonSnapshot {
    /// Normal-form layout version ([`SCHEMA_VERSION`] when built here).
    pub schema: u64,
    /// Machine family: `k-CFA`, `m-CFA`, or `poly-k-CFA`.
    pub machine: String,
    /// Context parameters, e.g. `[("k", 1)]`.
    pub params: Vec<(String, u64)>,
    /// Run status — always `complete` for snapshots built by the
    /// canonicalizers (partial runs are [`NotComparable`]).
    pub status: String,
    /// Every reached configuration, pretty-printed and sorted.
    pub configs: Vec<String>,
    /// Sorted call-graph edges: pretty call site → sorted λ targets.
    pub call_graph: Vec<(String, Vec<String>)>,
    /// Sorted flow facts: pretty address → sorted pretty values.
    pub flow: Vec<(String, Vec<String>)>,
    /// Sorted abstract values reaching `%halt`.
    pub halt: Vec<String>,
}

/// Error returned when a run cannot be canonicalized because it did
/// not complete — dumping it would masquerade a partial result as a
/// comparable snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NotComparable {
    /// The offending run status (e.g. `timed-out`).
    pub status: String,
}

impl fmt::Display for NotComparable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "not comparable: run status is {} (only complete fixpoints have a normal form)",
            self.status
        )
    }
}

impl std::error::Error for NotComparable {}

/// Error returned by [`CanonSnapshot::parse`] on input that is not a
/// well-formed snapshot document.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MalformedSnapshot {
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for MalformedSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed snapshot: {}", self.message)
    }
}

impl std::error::Error for MalformedSnapshot {}

/// Renders a [`Status`] as the stable lowercase token used in the
/// normal form and in "not comparable" diagnostics.
pub fn status_token(status: &Status) -> String {
    match status {
        Status::Completed => "complete".to_owned(),
        Status::TimedOut => "timed-out".to_owned(),
        Status::IterationLimit => "iteration-limit".to_owned(),
        Status::Cancelled => "cancelled".to_owned(),
        Status::Aborted { .. } => "aborted".to_owned(),
    }
}

// ---------------------------------------------------------------------
// Pretty rendering (compile-deterministic names only)
// ---------------------------------------------------------------------

fn render_basic(program: &CpsProgram, b: &AbsBasic) -> String {
    match b {
        // `AbsBasic`'s own Display prints the symbol's interner index;
        // the normal form must use the (stable) name instead.
        AbsBasic::Sym(s) => format!("'{}", program.name(*s)),
        other => other.to_string(),
    }
}

fn render_slot(program: &CpsProgram, slot: &Slot) -> String {
    match slot {
        Slot::Var(x) => program.name(*x).to_owned(),
        Slot::Car(l) => format!("car:ℓ{l}"),
        Slot::Cdr(l) => format!("cdr:ℓ{l}"),
        Slot::Atom(l) => format!("atom:ℓ{l}"),
        Slot::ThreadRet(l) => format!("tret:ℓ{l}"),
    }
}

fn call_site_name(program: &CpsProgram, call: CallId) -> String {
    format!("ℓ{}", program.call(call).label)
}

fn lam_name(program: &CpsProgram, lam: LamId) -> String {
    format!("λℓ{}", program.lam(lam).label)
}

/// One machine family's contribution to the normal form: how to render
/// its environments, addresses, and configurations, and how to resolve
/// atoms against the final store (for call-graph edges and halt
/// values). Everything rendered here must be compile-deterministic.
trait CanonFamily {
    /// Configuration type.
    type Config;
    /// Closure-environment component of values.
    type Env: Clone + Ord;
    /// Abstract address type.
    type Addr: Clone + Ord;

    fn machine(&self) -> &'static str;
    fn params(&self) -> Vec<(String, u64)>;
    fn program(&self) -> &CpsProgram;
    fn render_env(&self, e: &Self::Env) -> String;
    fn render_addr(&self, a: &Self::Addr) -> String;
    fn render_config(&self, c: &Self::Config) -> String;
    fn call_of(&self, c: &Self::Config) -> CallId;
    /// Address of variable `x` as seen from configuration `c`.
    fn var_addr(&self, c: &Self::Config, x: Symbol) -> Option<Self::Addr>;
    /// The closure a λ-atom evaluates to at configuration `c`.
    fn close(&self, c: &Self::Config, lam: LamId) -> AVal<Self::Env, Self::Addr>;
}

fn render_val<F: CanonFamily>(fam: &F, v: &AVal<F::Env, F::Addr>) -> String {
    match v {
        AVal::Clo { lam, env } => format!(
            "#<clo {} {}>",
            lam_name(fam.program(), *lam),
            fam.render_env(env)
        ),
        AVal::Basic(b) => render_basic(fam.program(), b),
        AVal::Pair { car, cdr } => format!(
            "#<pair {} · {}>",
            fam.render_addr(car),
            fam.render_addr(cdr)
        ),
        AVal::Tid { ret } => format!("#<tid {}>", fam.render_addr(ret)),
        AVal::RetK { ret } => format!("#<retk {}>", fam.render_addr(ret)),
        AVal::Atom { cell } => format!("#<atom {}>", fam.render_addr(cell)),
    }
}

struct KFam<'p> {
    program: &'p CpsProgram,
    k: u64,
}

impl<'p> CanonFamily for KFam<'p> {
    type Config = KConfig;
    type Env = crate::kcfa::BEnvK;
    type Addr = AddrK;

    fn machine(&self) -> &'static str {
        "k-CFA"
    }

    fn params(&self) -> Vec<(String, u64)> {
        vec![("k".to_owned(), self.k)]
    }

    fn program(&self) -> &CpsProgram {
        self.program
    }

    fn render_env(&self, e: &Self::Env) -> String {
        let binds: Vec<String> = e
            .iter()
            .map(|(x, a)| format!("{}↦{}", self.program.name(x), self.render_addr(a)))
            .collect();
        format!("{{{}}}", binds.join(", "))
    }

    fn render_addr(&self, a: &AddrK) -> String {
        format!("{}@{}", render_slot(self.program, &a.slot), a.time)
    }

    fn render_config(&self, c: &KConfig) -> String {
        format!(
            "({} t={} tid={} env={})",
            call_site_name(self.program, c.call),
            c.time,
            c.tid,
            self.render_env(&c.benv)
        )
    }

    fn call_of(&self, c: &KConfig) -> CallId {
        c.call
    }

    fn var_addr(&self, c: &KConfig, x: Symbol) -> Option<AddrK> {
        c.benv.get(x).cloned()
    }

    fn close(&self, c: &KConfig, lam: LamId) -> ValK {
        AVal::Clo {
            lam,
            env: c.benv.restrict(self.program.free_vars(lam)),
        }
    }
}

struct MFam<'p> {
    program: &'p CpsProgram,
    machine: &'static str,
    param_key: &'static str,
    bound: u64,
}

impl<'p> CanonFamily for MFam<'p> {
    type Config = MConfig;
    type Env = CallString;
    type Addr = AddrM;

    fn machine(&self) -> &'static str {
        self.machine
    }

    fn params(&self) -> Vec<(String, u64)> {
        vec![(self.param_key.to_owned(), self.bound)]
    }

    fn program(&self) -> &CpsProgram {
        self.program
    }

    fn render_env(&self, e: &CallString) -> String {
        e.to_string()
    }

    fn render_addr(&self, a: &AddrM) -> String {
        format!("{}@{}", render_slot(self.program, &a.slot), a.env)
    }

    fn render_config(&self, c: &MConfig) -> String {
        format!(
            "({} env={} tid={})",
            call_site_name(self.program, c.call),
            c.env,
            c.tid
        )
    }

    fn call_of(&self, c: &MConfig) -> CallId {
        c.call
    }

    fn var_addr(&self, c: &MConfig, x: Symbol) -> Option<AddrM> {
        Some(AddrM {
            slot: Slot::Var(x),
            env: c.env.clone(),
        })
    }

    fn close(&self, c: &MConfig, lam: LamId) -> ValM {
        AVal::Clo {
            lam,
            env: c.env.clone(),
        }
    }
}

// ---------------------------------------------------------------------
// Building the normal form
// ---------------------------------------------------------------------

/// One family's value-set type: what a final store row holds.
type ValSet<F> = BTreeSet<AVal<<F as CanonFamily>::Env, <F as CanonFamily>::Addr>>;

/// One family's materialized final store: address → value set.
type CanonStore<F> = BTreeMap<<F as CanonFamily>::Addr, ValSet<F>>;

/// Resolves an atom to its value set against the *final* store, the
/// way the machines' own `eval` would — values for variables, a
/// constant for literals, a closure over the configuration's
/// environment for λ-terms.
fn atom_vals<F: CanonFamily>(
    fam: &F,
    c: &F::Config,
    atom: &AExp,
    store: &CanonStore<F>,
) -> ValSet<F> {
    match atom {
        AExp::Lit(l) => std::iter::once(AVal::Basic(AbsBasic::from_lit(*l))).collect(),
        AExp::Var(x) => fam
            .var_addr(c, *x)
            .and_then(|a| store.get(&a))
            .cloned()
            .unwrap_or_default(),
        AExp::Lam(l) => std::iter::once(fam.close(c, *l)).collect(),
    }
}

/// The operator-position atoms of a call — the atoms whose closure
/// flows become call-graph edges. Branches and `%fix` transfer control
/// directly (no operator flow); `%halt` contributes to the halt set
/// instead.
fn operator_atoms(kind: &CallKind) -> Vec<&AExp> {
    match kind {
        CallKind::App { func, .. } => vec![func],
        CallKind::PrimCall { cont, .. } => vec![cont],
        CallKind::Spawn { thunk, cont } => vec![thunk, cont],
        CallKind::Join { cont, .. } => vec![cont],
        CallKind::If { .. } | CallKind::Fix { .. } | CallKind::Halt { .. } => vec![],
    }
}

fn build<F: CanonFamily>(
    fam: &F,
    status: &Status,
    configs: &[F::Config],
    store_entries: Vec<(F::Addr, ValSet<F>)>,
) -> Result<CanonSnapshot, NotComparable> {
    if !status.is_complete() {
        return Err(NotComparable {
            status: status_token(status),
        });
    }
    let program = fam.program();
    let store: CanonStore<F> = store_entries.into_iter().collect();

    // Flow facts: pretty address → sorted pretty values. Rendering is
    // injective by construction, but merge defensively if two
    // addresses ever print alike.
    let mut flow: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (addr, vals) in &store {
        flow.entry(fam.render_addr(addr))
            .or_default()
            .extend(vals.iter().map(|v| render_val(fam, v)));
    }

    // Call-graph edges and halt values, re-derived from the final
    // store exactly as the machines' own `eval` resolves operator
    // atoms. At the fixpoint this is engine-invariant: the reached
    // configurations and the store are.
    let mut call_graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut halt: BTreeSet<String> = BTreeSet::new();
    for c in configs {
        let call = program.call(fam.call_of(c));
        if let CallKind::Halt { value } = &call.kind {
            halt.extend(
                atom_vals(fam, c, value, &store)
                    .iter()
                    .map(|v| render_val(fam, v)),
            );
            continue;
        }
        for atom in operator_atoms(&call.kind) {
            let targets: BTreeSet<String> = atom_vals(fam, c, atom, &store)
                .iter()
                .filter_map(|v| match v {
                    AVal::Clo { lam, .. } => Some(lam_name(program, *lam)),
                    _ => None,
                })
                .collect();
            if !targets.is_empty() {
                call_graph
                    .entry(call_site_name(program, fam.call_of(c)))
                    .or_default()
                    .extend(targets);
            }
        }
    }

    let configs: BTreeSet<String> = configs.iter().map(|c| fam.render_config(c)).collect();

    Ok(CanonSnapshot {
        schema: SCHEMA_VERSION,
        machine: fam.machine().to_owned(),
        params: fam.params(),
        status: status_token(status),
        configs: configs.into_iter().collect(),
        call_graph: call_graph
            .into_iter()
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect(),
        flow: flow
            .into_iter()
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect(),
        halt: halt.into_iter().collect(),
    })
}

/// Canonicalizes a completed k-CFA fixpoint from any of the six
/// new-engine configurations.
pub fn canon_kcfa(
    program: &CpsProgram,
    k: usize,
    fix: &FixpointResult<KConfig, AddrK, ValK>,
) -> Result<CanonSnapshot, NotComparable> {
    let fam = KFam {
        program,
        k: k as u64,
    };
    let store = fix.store.iter().map(|(a, set)| (a.clone(), set)).collect();
    build(&fam, &fix.status, &fix.configs, store)
}

/// Canonicalizes a completed k-CFA fixpoint from the reference oracle.
pub fn canon_kcfa_ref(
    program: &CpsProgram,
    k: usize,
    fix: &RefFixpointResult<KConfig, AddrK, ValK>,
) -> Result<CanonSnapshot, NotComparable> {
    let fam = KFam {
        program,
        k: k as u64,
    };
    let store = fix
        .store
        .iter()
        .map(|(a, set)| (a.clone(), set.clone()))
        .collect();
    build(&fam, &fix.status, &fix.configs, store)
}

fn mcfa_fam(program: &CpsProgram, m: usize) -> MFam<'_> {
    MFam {
        program,
        machine: "m-CFA",
        param_key: "m",
        bound: m as u64,
    }
}

fn poly_fam(program: &CpsProgram, k: usize) -> MFam<'_> {
    MFam {
        program,
        machine: "poly-k-CFA",
        param_key: "k",
        bound: k as u64,
    }
}

/// Canonicalizes a completed m-CFA fixpoint from any of the six
/// new-engine configurations.
pub fn canon_mcfa(
    program: &CpsProgram,
    m: usize,
    fix: &FixpointResult<MConfig, AddrM, ValM>,
) -> Result<CanonSnapshot, NotComparable> {
    let store = fix.store.iter().map(|(a, set)| (a.clone(), set)).collect();
    build(&mcfa_fam(program, m), &fix.status, &fix.configs, store)
}

/// Canonicalizes a completed m-CFA fixpoint from the reference oracle.
pub fn canon_mcfa_ref(
    program: &CpsProgram,
    m: usize,
    fix: &RefFixpointResult<MConfig, AddrM, ValM>,
) -> Result<CanonSnapshot, NotComparable> {
    let store = fix
        .store
        .iter()
        .map(|(a, set)| (a.clone(), set.clone()))
        .collect();
    build(&mcfa_fam(program, m), &fix.status, &fix.configs, store)
}

/// Canonicalizes a completed poly-k-CFA fixpoint from any of the six
/// new-engine configurations.
pub fn canon_poly_kcfa(
    program: &CpsProgram,
    k: usize,
    fix: &FixpointResult<MConfig, AddrM, ValM>,
) -> Result<CanonSnapshot, NotComparable> {
    let store = fix.store.iter().map(|(a, set)| (a.clone(), set)).collect();
    build(&poly_fam(program, k), &fix.status, &fix.configs, store)
}

/// Canonicalizes a completed poly-k-CFA fixpoint from the reference
/// oracle.
pub fn canon_poly_kcfa_ref(
    program: &CpsProgram,
    k: usize,
    fix: &RefFixpointResult<MConfig, AddrM, ValM>,
) -> Result<CanonSnapshot, NotComparable> {
    let store = fix
        .store
        .iter()
        .map(|(a, set)| (a.clone(), set.clone()))
        .collect();
    build(&poly_fam(program, k), &fix.status, &fix.configs, store)
}

// ---------------------------------------------------------------------
// Deterministic JSON serialization
// ---------------------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_string_array(out: &mut String, indent: &str, items: &[String]) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push_str("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str(indent);
        out.push_str("  \"");
        out.push_str(&esc(item));
        out.push('"');
        if i + 1 < items.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(indent);
    out.push(']');
}

fn push_string_map(out: &mut String, indent: &str, entries: &[(String, Vec<String>)]) {
    if entries.is_empty() {
        out.push_str("{}");
        return;
    }
    out.push_str("{\n");
    for (i, (key, vals)) in entries.iter().enumerate() {
        out.push_str(indent);
        out.push_str("  \"");
        out.push_str(&esc(key));
        out.push_str("\": [");
        for (j, v) in vals.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(&esc(v));
            out.push('"');
        }
        out.push(']');
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(indent);
    out.push('}');
}

impl CanonSnapshot {
    /// Serializes the snapshot as deterministic, pretty-printed JSON:
    /// fixed field order, sorted collections, stable escaping. Two
    /// equal snapshots always serialize to identical bytes, and the
    /// output round-trips through [`CanonSnapshot::parse`] unchanged.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", self.schema));
        out.push_str(&format!("  \"machine\": \"{}\",\n", esc(&self.machine)));
        out.push_str("  \"params\": {");
        for (i, (key, value)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", esc(key), value));
        }
        out.push_str("},\n");
        out.push_str(&format!("  \"status\": \"{}\",\n", esc(&self.status)));
        out.push_str("  \"configs\": ");
        push_string_array(&mut out, "  ", &self.configs);
        out.push_str(",\n  \"call_graph\": ");
        push_string_map(&mut out, "  ", &self.call_graph);
        out.push_str(",\n  \"flow\": ");
        push_string_map(&mut out, "  ", &self.flow);
        out.push_str(",\n  \"halt\": ");
        push_string_array(&mut out, "  ", &self.halt);
        out.push_str("\n}\n");
        out
    }

    /// Parses a snapshot document produced by [`CanonSnapshot::to_json`]
    /// (or hand-written JSON of the same shape). Structural problems —
    /// bad JSON, missing or unknown fields, wrong types — are
    /// [`MalformedSnapshot`] errors; `cfa compare` maps them to exit
    /// code 2.
    pub fn parse(text: &str) -> Result<CanonSnapshot, MalformedSnapshot> {
        let value = json::parse(text)?;
        snapshot_from_json(value)
    }

    /// Whether this snapshot describes a completed run. Only complete
    /// snapshots are comparable; `cfa compare` rejects others.
    pub fn is_complete(&self) -> bool {
        self.status == "complete"
    }
}

fn malformed(message: impl Into<String>) -> MalformedSnapshot {
    MalformedSnapshot {
        message: message.into(),
    }
}

fn as_string_array(value: json::Json, what: &str) -> Result<Vec<String>, MalformedSnapshot> {
    let json::Json::Arr(items) = value else {
        return Err(malformed(format!("\"{what}\" must be an array")));
    };
    items
        .into_iter()
        .map(|item| match item {
            json::Json::Str(s) => Ok(s),
            _ => Err(malformed(format!("\"{what}\" entries must be strings"))),
        })
        .collect()
}

fn as_string_map(
    value: json::Json,
    what: &str,
) -> Result<Vec<(String, Vec<String>)>, MalformedSnapshot> {
    let json::Json::Obj(entries) = value else {
        return Err(malformed(format!("\"{what}\" must be an object")));
    };
    entries
        .into_iter()
        .map(|(key, v)| Ok((key, as_string_array(v, what)?)))
        .collect()
}

fn snapshot_from_json(value: json::Json) -> Result<CanonSnapshot, MalformedSnapshot> {
    let json::Json::Obj(fields) = value else {
        return Err(malformed("top level must be an object"));
    };
    let mut schema = None;
    let mut machine = None;
    let mut params = None;
    let mut status = None;
    let mut configs = None;
    let mut call_graph = None;
    let mut flow = None;
    let mut halt = None;
    for (key, v) in fields {
        match key.as_str() {
            "schema" => match v {
                json::Json::Int(n) => schema = Some(n),
                _ => return Err(malformed("\"schema\" must be an integer")),
            },
            "machine" => match v {
                json::Json::Str(s) => machine = Some(s),
                _ => return Err(malformed("\"machine\" must be a string")),
            },
            "params" => {
                let json::Json::Obj(entries) = v else {
                    return Err(malformed("\"params\" must be an object"));
                };
                let mut out = Vec::with_capacity(entries.len());
                for (name, pv) in entries {
                    match pv {
                        json::Json::Int(n) => out.push((name, n)),
                        _ => return Err(malformed("\"params\" values must be integers")),
                    }
                }
                params = Some(out);
            }
            "status" => match v {
                json::Json::Str(s) => status = Some(s),
                _ => return Err(malformed("\"status\" must be a string")),
            },
            "configs" => configs = Some(as_string_array(v, "configs")?),
            "call_graph" => call_graph = Some(as_string_map(v, "call_graph")?),
            "flow" => flow = Some(as_string_map(v, "flow")?),
            "halt" => halt = Some(as_string_array(v, "halt")?),
            other => return Err(malformed(format!("unknown field \"{other}\""))),
        }
    }
    let require = |name: &str| malformed(format!("missing field \"{name}\""));
    Ok(CanonSnapshot {
        schema: schema.ok_or_else(|| require("schema"))?,
        machine: machine.ok_or_else(|| require("machine"))?,
        params: params.ok_or_else(|| require("params"))?,
        status: status.ok_or_else(|| require("status"))?,
        configs: configs.ok_or_else(|| require("configs"))?,
        call_graph: call_graph.ok_or_else(|| require("call_graph"))?,
        flow: flow.ok_or_else(|| require("flow"))?,
        halt: halt.ok_or_else(|| require("halt"))?,
    })
}

/// A minimal hand-rolled JSON reader — the workspace is offline by
/// design (no serde), and the snapshot grammar only needs objects,
/// arrays, strings, and non-negative integers.
mod json {
    use super::MalformedSnapshot;

    /// A parsed JSON value (the subset the snapshot grammar uses).
    #[derive(Debug)]
    pub enum Json {
        /// A string.
        Str(String),
        /// A non-negative integer.
        Int(u64),
        /// An object, in source order.
        Obj(Vec<(String, Json)>),
        /// An array.
        Arr(Vec<Json>),
    }

    pub fn parse(text: &str) -> Result<Json, MalformedSnapshot> {
        let mut p = Parser {
            chars: text.chars().collect(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(err(format!(
                "trailing input after document (at char {})",
                p.pos
            )));
        }
        Ok(value)
    }

    fn err(message: impl Into<String>) -> MalformedSnapshot {
        MalformedSnapshot {
            message: message.into(),
        }
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
    }

    impl Parser {
        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }

        fn bump(&mut self) -> Result<char, MalformedSnapshot> {
            let c = self.peek().ok_or_else(|| err("unexpected end of input"))?;
            self.pos += 1;
            Ok(c)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, want: char) -> Result<(), MalformedSnapshot> {
            let got = self.bump()?;
            if got != want {
                return Err(err(format!(
                    "expected '{want}' at char {}, found '{got}'",
                    self.pos - 1
                )));
            }
            Ok(())
        }

        fn value(&mut self) -> Result<Json, MalformedSnapshot> {
            match self.peek() {
                Some('{') => self.object(),
                Some('[') => self.array(),
                Some('"') => Ok(Json::Str(self.string()?)),
                Some(c) if c.is_ascii_digit() => self.integer(),
                Some(c) => Err(err(format!(
                    "unexpected character '{c}' at char {}",
                    self.pos
                ))),
                None => Err(err("unexpected end of input")),
            }
        }

        fn object(&mut self) -> Result<Json, MalformedSnapshot> {
            self.expect('{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some('}') {
                self.pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(':')?;
                self.skip_ws();
                let value = self.value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.bump()? {
                    ',' => continue,
                    '}' => return Ok(Json::Obj(entries)),
                    c => return Err(err(format!("expected ',' or '}}', found '{c}'"))),
                }
            }
        }

        fn array(&mut self) -> Result<Json, MalformedSnapshot> {
            self.expect('[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.bump()? {
                    ',' => continue,
                    ']' => return Ok(Json::Arr(items)),
                    c => return Err(err(format!("expected ',' or ']', found '{c}'"))),
                }
            }
        }

        fn string(&mut self) -> Result<String, MalformedSnapshot> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                match self.bump()? {
                    '"' => return Ok(out),
                    '\\' => match self.bump()? {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{0008}'),
                        'f' => out.push('\u{000c}'),
                        'u' => {
                            let code = self.hex4()?;
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(err(format!(
                                        "invalid \\u escape {code:#06x} (surrogate pairs \
                                         are not used by the snapshot grammar)"
                                    )))
                                }
                            }
                        }
                        c => return Err(err(format!("invalid escape '\\{c}'"))),
                    },
                    c if (c as u32) < 0x20 => {
                        return Err(err("raw control character in string"));
                    }
                    c => out.push(c),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, MalformedSnapshot> {
            let mut code = 0u32;
            for _ in 0..4 {
                let c = self.bump()?;
                let digit = c
                    .to_digit(16)
                    .ok_or_else(|| err(format!("invalid hex digit '{c}' in \\u escape")))?;
                code = code * 16 + digit;
            }
            Ok(code)
        }

        fn integer(&mut self) -> Result<Json, MalformedSnapshot> {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if matches!(self.peek(), Some('.' | 'e' | 'E')) {
                return Err(err("the snapshot grammar has no fractional numbers"));
            }
            let text: String = self.chars[start..self.pos].iter().collect();
            text.parse()
                .map(Json::Int)
                .map_err(|_| err(format!("integer '{text}' out of range")))
        }
    }
}

// ---------------------------------------------------------------------
// Structural diff
// ---------------------------------------------------------------------

/// The result of [`diff_snapshots`]: the first N divergent facts by
/// name, plus the total count (so a truncated listing still reports
/// the blast radius).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiffReport {
    /// The first `limit` divergences, each one human-readable line.
    pub divergences: Vec<String>,
    /// Total number of divergent facts found (may exceed
    /// `divergences.len()`).
    pub total: usize,
}

impl DiffReport {
    /// Whether the two snapshots are structurally identical.
    pub fn is_identical(&self) -> bool {
        self.total == 0
    }

    /// Renders the report: one line per listed divergence and a
    /// summary line naming the total.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.divergences {
            out.push_str(d);
            out.push('\n');
        }
        if self.total > self.divergences.len() {
            out.push_str(&format!(
                "… and {} more divergent facts\n",
                self.total - self.divergences.len()
            ));
        }
        out.push_str(&format!("{} divergent facts\n", self.total));
        out
    }
}

struct DiffSink {
    divergences: Vec<String>,
    total: usize,
    limit: usize,
}

impl DiffSink {
    fn note(&mut self, line: String) {
        if self.divergences.len() < self.limit {
            self.divergences.push(line);
        }
        self.total += 1;
    }
}

fn diff_string_sets(sink: &mut DiffSink, what: &str, left: &[String], right: &[String]) {
    let l: BTreeSet<&String> = left.iter().collect();
    let r: BTreeSet<&String> = right.iter().collect();
    for only in l.difference(&r) {
        sink.note(format!("{what} only in left: {only}"));
    }
    for only in r.difference(&l) {
        sink.note(format!("{what} only in right: {only}"));
    }
}

fn diff_string_maps(
    sink: &mut DiffSink,
    what: &str,
    entry_word: &str,
    left: &[(String, Vec<String>)],
    right: &[(String, Vec<String>)],
) {
    let l: BTreeMap<&String, &Vec<String>> = left.iter().map(|(k, v)| (k, v)).collect();
    let r: BTreeMap<&String, &Vec<String>> = right.iter().map(|(k, v)| (k, v)).collect();
    let keys: BTreeSet<&&String> = l.keys().chain(r.keys()).collect();
    for key in keys {
        match (l.get(*key), r.get(*key)) {
            (Some(lv), Some(rv)) => {
                let ls: BTreeSet<&String> = lv.iter().collect();
                let rs: BTreeSet<&String> = rv.iter().collect();
                for only in ls.difference(&rs) {
                    sink.note(format!("{what}[{key}]: {entry_word} {only} only in left"));
                }
                for only in rs.difference(&ls) {
                    sink.note(format!("{what}[{key}]: {entry_word} {only} only in right"));
                }
            }
            (Some(_), None) => sink.note(format!("{what} key only in left: {key}")),
            (None, Some(_)) => sink.note(format!("{what} key only in right: {key}")),
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
}

/// Structurally compares two snapshots, reporting the first `limit`
/// divergent facts by name — a schema/machine/parameter mismatch, a
/// configuration, call-graph edge, flow fact, or halt value present on
/// one side only — plus the total divergence count.
pub fn diff_snapshots(left: &CanonSnapshot, right: &CanonSnapshot, limit: usize) -> DiffReport {
    let mut sink = DiffSink {
        divergences: Vec::new(),
        total: 0,
        limit,
    };
    if left.schema != right.schema {
        sink.note(format!(
            "schema: left {}, right {}",
            left.schema, right.schema
        ));
    }
    if left.machine != right.machine {
        sink.note(format!(
            "machine: left {}, right {}",
            left.machine, right.machine
        ));
    }
    {
        let l: BTreeMap<&String, u64> = left.params.iter().map(|(k, v)| (k, *v)).collect();
        let r: BTreeMap<&String, u64> = right.params.iter().map(|(k, v)| (k, *v)).collect();
        let keys: BTreeSet<&&String> = l.keys().chain(r.keys()).collect();
        for key in keys {
            match (l.get(*key), r.get(*key)) {
                (Some(lv), Some(rv)) if lv == rv => {}
                (Some(lv), Some(rv)) => {
                    sink.note(format!("params.{key}: left {lv}, right {rv}"));
                }
                (Some(lv), None) => sink.note(format!("params.{key}: left {lv}, right absent")),
                (None, Some(rv)) => sink.note(format!("params.{key}: left absent, right {rv}")),
                (None, None) => unreachable!("key came from one of the maps"),
            }
        }
    }
    if left.status != right.status {
        sink.note(format!(
            "status: left {}, right {}",
            left.status, right.status
        ));
    }
    diff_string_sets(&mut sink, "config", &left.configs, &right.configs);
    diff_string_maps(
        &mut sink,
        "call_graph",
        "target",
        &left.call_graph,
        &right.call_graph,
    );
    diff_string_maps(&mut sink, "flow", "value", &left.flow, &right.flow);
    diff_string_sets(&mut sink, "halt value", &left.halt, &right.halt);
    DiffReport {
        divergences: sink.divergences,
        total: sink.total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineLimits;

    fn snap(src: &str, k: usize) -> CanonSnapshot {
        let p = cfa_syntax::compile(src).unwrap();
        let r = crate::analyze_kcfa(&p, k, EngineLimits::default());
        canon_kcfa(&p, k, &r.fixpoint).unwrap()
    }

    #[test]
    fn halt_and_flow_are_rendered() {
        let s = snap("((lambda (x) x) 42)", 1);
        assert_eq!(s.machine, "k-CFA");
        assert_eq!(s.params, vec![("k".to_owned(), 1)]);
        assert_eq!(s.status, "complete");
        assert!(s.halt.contains(&"42".to_owned()));
        assert!(!s.flow.is_empty());
        assert!(!s.call_graph.is_empty());
    }

    #[test]
    fn round_trips_byte_identically() {
        let s = snap("(define (id x) x) (id (id (cons 1 2)))", 1);
        let text = s.to_json();
        let back = CanonSnapshot::parse(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn kcfa_and_mcfa_snapshots_diverge_by_machine() {
        let p = cfa_syntax::compile("((lambda (x) x) 1)").unwrap();
        let rk = crate::analyze_kcfa(&p, 1, EngineLimits::default());
        let rm = crate::analyze_mcfa(&p, 1, EngineLimits::default());
        let sk = canon_kcfa(&p, 1, &rk.fixpoint).unwrap();
        let sm = canon_mcfa(&p, 1, &rm.fixpoint).unwrap();
        let d = diff_snapshots(&sk, &sm, DEFAULT_DIFF_LIMIT);
        assert!(!d.is_identical());
        assert!(d.divergences.iter().any(|l| l.starts_with("machine:")));
    }

    #[test]
    fn diff_names_the_first_divergent_fact() {
        let a = snap("((lambda (x) x) 42)", 1);
        let mut b = a.clone();
        for (_, vals) in b.flow.iter_mut() {
            for v in vals.iter_mut() {
                if v == "42" {
                    *v = "43".to_owned();
                }
            }
        }
        let d = diff_snapshots(&a, &b, DEFAULT_DIFF_LIMIT);
        assert!(!d.is_identical());
        assert!(
            d.divergences
                .iter()
                .any(|l| l.starts_with("flow[") && l.contains("42")),
            "{:?}",
            d.divergences
        );
    }

    #[test]
    fn incomplete_runs_are_not_comparable() {
        let p = cfa_syntax::compile("(define (loop f) (loop f)) (loop loop)").unwrap();
        let limits = EngineLimits {
            max_iterations: 1,
            ..EngineLimits::default()
        };
        let r = crate::analyze_kcfa(&p, 0, limits);
        let err = canon_kcfa(&p, 0, &r.fixpoint).unwrap_err();
        assert_eq!(err.status, "iteration-limit");
        assert!(err.to_string().contains("not comparable"));
    }

    #[test]
    fn parse_rejects_garbage_and_unknown_fields() {
        assert!(CanonSnapshot::parse("{").is_err());
        assert!(CanonSnapshot::parse("[1, 2]").is_err());
        let s = snap("1", 0);
        let doctored = s.to_json().replace("\"halt\"", "\"bogus\"");
        assert!(CanonSnapshot::parse(&doctored).is_err());
    }

    #[test]
    fn concurrent_values_render_without_ids() {
        let src = "(let ((c (atom 0)))
                     (let ((t (spawn (reset! c 1))))
                       (begin (join t) (deref c))))";
        let s = snap(src, 1);
        let text = s.to_json();
        assert!(text.contains("atom:ℓ"), "{text}");
    }
}
