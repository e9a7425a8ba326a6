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
//! data only: λ-term and call-site [`Label`]s, interned variable
//! *names*, and call-string contexts. Two runs that compute the same
//! abstract semantics produce byte-identical snapshots no matter which
//! engine, thread count, or schedule produced them.
//!
//! The builder still reads the interned store by id: ids key the memo
//! that renders each value once and name the `(call, λ)` pairs of the
//! call graph, but only rendered text is sorted and written out.
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
use crate::fxhash::FxHashSet;
use crate::kcfa::{AddrK, BEnvK, KConfig, ValK};
use crate::reference::{RefFixpointResult, RefStore};
use crate::store::AbsStore;
use cfa_concrete::base::Slot;
use cfa_syntax::cps::{AExp, CallId, CallKind, CpsProgram, Label, LamId};
use cfa_syntax::intern::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::hash::Hash;

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
//
// Every renderer appends to one `String` — no `format!`, no per-binding
// `Vec<String>` plus `join`: configurations alone are most of a k = 2
// document's bytes.

fn push_label(out: &mut String, l: Label) {
    let _ = write!(out, "{l}");
}

/// Appends a call string the way its `Display` prints it: `⟨3,5⟩`.
fn push_call_string(out: &mut String, cs: &CallString) {
    out.push('⟨');
    for (i, &l) in cs.labels().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_label(out, l);
    }
    out.push('⟩');
}

fn push_basic(out: &mut String, program: &CpsProgram, b: &AbsBasic) {
    match b {
        // `AbsBasic`'s own Display prints the symbol's interner index;
        // the normal form must use the (stable) name instead.
        AbsBasic::Sym(s) => {
            out.push('\'');
            out.push_str(program.name(*s));
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

fn push_slot(out: &mut String, program: &CpsProgram, slot: &Slot) {
    let (prefix, label) = match slot {
        Slot::Var(x) => return out.push_str(program.name(*x)),
        Slot::Car(l) => ("car:ℓ", l),
        Slot::Cdr(l) => ("cdr:ℓ", l),
        Slot::Atom(l) => ("atom:ℓ", l),
        Slot::ThreadRet(l) => ("tret:ℓ", l),
    };
    out.push_str(prefix);
    push_label(out, *label);
}

/// `ℓ…`: a call site's name.
fn push_call_name(out: &mut String, program: &CpsProgram, call: CallId) {
    out.push('ℓ');
    push_label(out, program.call(call).label);
}

/// `λℓ…`: a λ-term's name.
fn push_lam_name(out: &mut String, program: &CpsProgram, lam: LamId) {
    out.push_str("λℓ");
    push_label(out, program.lam(lam).label);
}

/// One machine family's contribution to the normal form: how to render
/// its environments, addresses, and configurations, and how to resolve
/// atoms against the final store (for call-graph edges and halt
/// values). Everything rendered here must be compile-deterministic.
trait CanonFamily {
    /// Configuration type.
    type Config;
    /// Closure-environment component of values.
    type Env: Clone + Eq + Hash;
    /// Abstract address type.
    type Addr: Clone + Eq + Hash;

    fn machine(&self) -> &'static str;
    fn params(&self) -> Vec<(String, u64)>;
    fn program(&self) -> &CpsProgram;
    fn push_env(&self, out: &mut String, e: &Self::Env);
    fn push_addr(&self, out: &mut String, a: &Self::Addr);
    fn push_config(&self, out: &mut String, c: &Self::Config);
    fn call_of(&self, c: &Self::Config) -> CallId;
    /// Address of variable `x` as seen from configuration `c`.
    fn var_addr(&self, c: &Self::Config, x: Symbol) -> Option<Self::Addr>;
    /// The closure a λ-atom evaluates to at configuration `c`.
    fn close(&self, c: &Self::Config, lam: LamId) -> Val<Self>;
}

/// One family's abstract value type.
type Val<F> = AVal<<F as CanonFamily>::Env, <F as CanonFamily>::Addr>;

/// One family's final store, interned.
type Store<F> = AbsStore<<F as CanonFamily>::Addr, Val<F>>;

fn push_val<F: CanonFamily>(fam: &F, out: &mut String, v: &Val<F>) {
    let program = fam.program();
    match v {
        AVal::Clo { lam, env } => {
            out.push_str("#<clo ");
            push_lam_name(out, program, *lam);
            out.push(' ');
            fam.push_env(out, env);
            out.push('>');
        }
        AVal::Basic(b) => push_basic(out, program, b),
        AVal::Pair { car, cdr } => {
            out.push_str("#<pair ");
            fam.push_addr(out, car);
            out.push_str(" · ");
            fam.push_addr(out, cdr);
            out.push('>');
        }
        AVal::Tid { ret } => {
            out.push_str("#<tid ");
            fam.push_addr(out, ret);
            out.push('>');
        }
        AVal::RetK { ret } => {
            out.push_str("#<retk ");
            fam.push_addr(out, ret);
            out.push('>');
        }
        AVal::Atom { cell } => {
            out.push_str("#<atom ");
            fam.push_addr(out, cell);
            out.push('>');
        }
    }
}

struct KFam<'p> {
    program: &'p CpsProgram,
    k: u64,
}

impl<'p> CanonFamily for KFam<'p> {
    type Config = KConfig;
    type Env = BEnvK;
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

    fn push_env(&self, out: &mut String, e: &BEnvK) {
        out.push('{');
        for (i, (x, a)) in e.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(self.program.name(x));
            out.push('↦');
            self.push_addr(out, a);
        }
        out.push('}');
    }

    fn push_addr(&self, out: &mut String, a: &AddrK) {
        push_slot(out, self.program, &a.slot);
        out.push('@');
        push_call_string(out, &a.time);
    }

    fn push_config(&self, out: &mut String, c: &KConfig) {
        out.push('(');
        push_call_name(out, self.program, c.call);
        out.push_str(" t=");
        push_call_string(out, &c.time);
        out.push_str(" tid=");
        push_call_string(out, &c.tid);
        out.push_str(" env=");
        self.push_env(out, &c.benv);
        out.push(')');
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

    fn push_env(&self, out: &mut String, e: &CallString) {
        push_call_string(out, e);
    }

    fn push_addr(&self, out: &mut String, a: &AddrM) {
        push_slot(out, self.program, &a.slot);
        out.push('@');
        push_call_string(out, &a.env);
    }

    fn push_config(&self, out: &mut String, c: &MConfig) {
        out.push('(');
        push_call_name(out, self.program, c.call);
        out.push_str(" env=");
        push_call_string(out, &c.env);
        out.push_str(" tid=");
        push_call_string(out, &c.tid);
        out.push(')');
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

/// The operator-position atoms of a call — the atoms whose closure
/// flows become call-graph edges. Branches and `%fix` transfer control
/// directly (no operator flow); `%halt` contributes to the halt set
/// instead.
fn operator_atoms(kind: &CallKind) -> [Option<&AExp>; 2] {
    match kind {
        CallKind::App { func, .. } => [Some(func), None],
        CallKind::PrimCall { cont, .. } | CallKind::Join { cont, .. } => [Some(cont), None],
        CallKind::Spawn { thunk, cont } => [Some(thunk), Some(cont)],
        CallKind::If { .. } | CallKind::Fix { .. } | CallKind::Halt { .. } => [None, None],
    }
}

fn build<F: CanonFamily>(
    fam: &F,
    status: &Status,
    configs: &[F::Config],
    store: &Store<F>,
) -> Result<CanonSnapshot, NotComparable> {
    if !status.is_complete() {
        return Err(NotComparable {
            status: status_token(status),
        });
    }
    let program = fam.program();

    // Every interned value rendered once, in id order, into one buffer:
    // value `id` is `val_text[starts[id]..starts[id + 1]]`. Value ids
    // key this memo only; they never reach the output.
    let mut val_text = String::new();
    let mut starts = Vec::with_capacity(store.distinct_values() + 1);
    starts.push(0);
    for id in 0..store.distinct_values() {
        push_val(fam, &mut val_text, store.val(id as u32));
        starts.push(val_text.len());
    }
    let text_of = |id: u32| &val_text[starts[id as usize]..starts[id as usize + 1]];

    // Every bound address, rendered once, with its value ids; `row_of`
    // indexes the rows by address id for the atom lookups below.
    let mut rows: Vec<(String, &[u32])> = Vec::with_capacity(store.len());
    let mut row_of: Vec<&[u32]> = Vec::new();
    for (addr_id, ids) in store.bound_rows() {
        let mut key = String::new();
        fam.push_addr(&mut key, store.addr(addr_id));
        rows.push((key, ids));
        row_of.resize(addr_id as usize + 1, &[]);
        row_of[addr_id as usize] = ids;
    }
    let row = |addr: Option<F::Addr>| -> &[u32] {
        addr.and_then(|a| store.lookup_addr(&a))
            .and_then(|id| row_of.get(id as usize).copied())
            .unwrap_or(&[])
    };

    // Call-graph edges as (call, λ) id pairs, and halt values,
    // re-derived from the final store exactly as the machines' own
    // `eval` resolves atoms. At the fixpoint this is engine-invariant:
    // the reached configurations and the store are.
    let mut edges: FxHashSet<(CallId, LamId)> = FxHashSet::default();
    let mut halt: Vec<String> = Vec::new();
    for c in configs {
        let call = fam.call_of(c);
        let kind = &program.call(call).kind;
        if let CallKind::Halt { value } = kind {
            match value {
                AExp::Var(x) => halt.extend(
                    row(fam.var_addr(c, *x))
                        .iter()
                        .map(|&id| text_of(id).to_owned()),
                ),
                AExp::Lit(l) => {
                    let mut text = String::new();
                    push_basic(&mut text, program, &AbsBasic::from_lit(*l));
                    halt.push(text);
                }
                AExp::Lam(l) => {
                    let mut text = String::new();
                    push_val(fam, &mut text, &fam.close(c, *l));
                    halt.push(text);
                }
            }
            continue;
        }
        for atom in operator_atoms(kind).into_iter().flatten() {
            match atom {
                AExp::Var(x) => {
                    for &id in row(fam.var_addr(c, *x)) {
                        if let AVal::Clo { lam, .. } = store.val(id) {
                            edges.insert((call, *lam));
                        }
                    }
                }
                // A λ-atom evaluates to a closure over its own λ: that
                // λ is the target, no closure needs building.
                AExp::Lam(l) => {
                    edges.insert((call, *l));
                }
                AExp::Lit(_) => {}
            }
        }
    }
    halt.sort_unstable();
    halt.dedup();

    // Flow facts: rows and their values sorted by text. Rendering is
    // injective by construction, but rows whose addresses print alike
    // merge defensively.
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut flow: Vec<(String, Vec<String>)> = Vec::with_capacity(rows.len());
    let mut vals: Vec<&str> = Vec::new();
    let mut rows = rows.into_iter().peekable();
    while let Some((key, ids)) = rows.next() {
        vals.clear();
        vals.extend(ids.iter().map(|&id| text_of(id)));
        while let Some((_, more)) = rows.next_if(|(next, _)| *next == key) {
            vals.extend(more.iter().map(|&id| text_of(id)));
        }
        vals.sort_unstable();
        vals.dedup();
        flow.push((key, vals.iter().map(|&v| v.to_owned()).collect()));
    }

    // Names are rendered only for the final, sorted call graph.
    let mut named: Vec<(String, String)> = edges
        .into_iter()
        .map(|(call, lam)| {
            let (mut site, mut target) = (String::new(), String::new());
            push_call_name(&mut site, program, call);
            push_lam_name(&mut target, program, lam);
            (site, target)
        })
        .collect();
    named.sort_unstable();
    named.dedup();
    let mut call_graph: Vec<(String, Vec<String>)> = Vec::new();
    for (site, target) in named {
        match call_graph.last_mut() {
            Some((last, targets)) if *last == site => targets.push(target),
            _ => call_graph.push((site, vec![target])),
        }
    }

    // One scratch buffer; each configuration's text is copied out at
    // its exact length.
    let mut text = String::new();
    let mut rendered: Vec<String> = configs
        .iter()
        .map(|c| {
            text.clear();
            fam.push_config(&mut text, c);
            text.as_str().to_owned()
        })
        .collect();
    rendered.sort_unstable();
    rendered.dedup();

    Ok(CanonSnapshot {
        schema: SCHEMA_VERSION,
        machine: fam.machine().to_owned(),
        params: fam.params(),
        status: status_token(status),
        configs: rendered,
        call_graph,
        flow,
        halt,
    })
}

/// Interns the reference oracle's value-set store into an [`AbsStore`],
/// so `_ref` snapshots go through the same builder. Every bound address
/// stays bound, empty rows included.
fn intern_ref_store<A, V>(store: &RefStore<A, V>) -> AbsStore<A, V>
where
    A: Clone + Eq + Hash,
    V: Clone + Eq + Hash + Ord,
{
    let mut interned = AbsStore::new();
    for (addr, vals) in store.iter() {
        interned.join(addr.clone(), vals.iter().cloned());
    }
    interned
}

fn kcfa_fam(program: &CpsProgram, k: usize) -> KFam<'_> {
    KFam {
        program,
        k: k as u64,
    }
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

/// Canonicalizes a completed k-CFA fixpoint from any of the four
/// new-engine configurations (sequential or sharded, semi-naive or full
/// re-evaluation) or a pool tenant.
pub fn canon_kcfa(
    program: &CpsProgram,
    k: usize,
    fix: &FixpointResult<KConfig, AddrK, ValK>,
) -> Result<CanonSnapshot, NotComparable> {
    build(&kcfa_fam(program, k), &fix.status, &fix.configs, &fix.store)
}

/// Canonicalizes a completed k-CFA fixpoint from the reference oracle.
pub fn canon_kcfa_ref(
    program: &CpsProgram,
    k: usize,
    fix: &RefFixpointResult<KConfig, AddrK, ValK>,
) -> Result<CanonSnapshot, NotComparable> {
    let store = intern_ref_store(&fix.store);
    build(&kcfa_fam(program, k), &fix.status, &fix.configs, &store)
}

/// Canonicalizes a completed m-CFA fixpoint from any of the four
/// new-engine configurations (sequential or sharded, semi-naive or full
/// re-evaluation) or a pool tenant.
pub fn canon_mcfa(
    program: &CpsProgram,
    m: usize,
    fix: &FixpointResult<MConfig, AddrM, ValM>,
) -> Result<CanonSnapshot, NotComparable> {
    build(&mcfa_fam(program, m), &fix.status, &fix.configs, &fix.store)
}

/// Canonicalizes a completed m-CFA fixpoint from the reference oracle.
pub fn canon_mcfa_ref(
    program: &CpsProgram,
    m: usize,
    fix: &RefFixpointResult<MConfig, AddrM, ValM>,
) -> Result<CanonSnapshot, NotComparable> {
    let store = intern_ref_store(&fix.store);
    build(&mcfa_fam(program, m), &fix.status, &fix.configs, &store)
}

/// Canonicalizes a completed poly-k-CFA fixpoint from any of the four
/// new-engine configurations (sequential or sharded, semi-naive or full
/// re-evaluation) or a pool tenant.
pub fn canon_poly_kcfa(
    program: &CpsProgram,
    k: usize,
    fix: &FixpointResult<MConfig, AddrM, ValM>,
) -> Result<CanonSnapshot, NotComparable> {
    build(&poly_fam(program, k), &fix.status, &fix.configs, &fix.store)
}

/// Canonicalizes a completed poly-k-CFA fixpoint from the reference
/// oracle.
pub fn canon_poly_kcfa_ref(
    program: &CpsProgram,
    k: usize,
    fix: &RefFixpointResult<MConfig, AddrM, ValM>,
) -> Result<CanonSnapshot, NotComparable> {
    let store = intern_ref_store(&fix.store);
    build(&poly_fam(program, k), &fix.status, &fix.configs, &store)
}

// ---------------------------------------------------------------------
// Deterministic JSON serialization
// ---------------------------------------------------------------------

/// Appends `s` to `out` as a JSON string literal: quoted, with `"`,
/// `\` and control characters escaped, and the runs between escapes
/// copied whole. The crate's one JSON string escaper (snapshots and
/// race reports).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

fn push_string_array(out: &mut String, indent: &str, items: &[String]) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push_str("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str(indent);
        out.push_str("  ");
        push_json_string(out, item);
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
        out.push_str("  ");
        push_json_string(out, key);
        out.push_str(": [");
        for (j, v) in vals.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_json_string(out, v);
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
        // Sized for the unescaped document (quotes, separators and
        // indentation included), so the buffer rarely grows.
        let strings = |items: &[String]| items.iter().map(|s| s.len() + 8).sum::<usize>();
        let map = |entries: &[(String, Vec<String>)]| {
            entries
                .iter()
                .map(|(key, vals)| key.len() + 12 + strings(vals))
                .sum::<usize>()
        };
        let mut out = String::with_capacity(
            256 + strings(&self.configs)
                + map(&self.call_graph)
                + map(&self.flow)
                + strings(&self.halt),
        );
        let _ = write!(out, "{{\n  \"schema\": {},\n  \"machine\": ", self.schema);
        push_json_string(&mut out, &self.machine);
        out.push_str(",\n  \"params\": {");
        for (i, (key, value)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_string(&mut out, key);
            let _ = write!(out, ": {value}");
        }
        out.push_str("},\n  \"status\": ");
        push_json_string(&mut out, &self.status);
        out.push_str(",\n  \"configs\": ");
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
    /// bad JSON, nesting deeper than the grammar's, missing, unknown or
    /// duplicate fields and keys, wrong types — are
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
///
/// The reader walks the text by byte offset (every token it looks
/// at is ASCII, so string contents are copied as whole `&str` runs),
/// caps the nesting depth, and rejects duplicate object keys.
mod json {
    use super::MalformedSnapshot;

    /// Deepest nesting of arrays and objects the reader accepts. The
    /// snapshot grammar needs three levels (document → `flow` → value
    /// array); the cap keeps hostile input from recursing the reader
    /// off the stack.
    pub const MAX_DEPTH: usize = 8;

    /// A parsed JSON value (the subset the snapshot grammar uses).
    #[derive(Debug)]
    pub enum Json {
        /// A string.
        Str(String),
        /// A non-negative integer.
        Int(u64),
        /// An object, in source order, keys distinct.
        Obj(Vec<(String, Json)>),
        /// An array.
        Arr(Vec<Json>),
    }

    pub fn parse(text: &str) -> Result<Json, MalformedSnapshot> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(err(format!(
                "trailing input after document (at byte {})",
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

    /// The first key that occurs twice in `entries`. Snapshot objects
    /// are written with sorted keys, so one linear pass settles the
    /// common case; only unsorted input pays for a sort.
    fn duplicate_key(entries: &[(String, Json)]) -> Option<&str> {
        if entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        let mut keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
        keys.sort_unstable();
        keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
    }

    struct Parser<'t> {
        text: &'t str,
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.text.as_bytes().get(self.pos).copied()
        }

        /// The character starting at byte `pos`, for error messages.
        fn char_at(&self, pos: usize) -> char {
            self.text
                .get(pos..)
                .and_then(|rest| rest.chars().next())
                .unwrap_or('\u{fffd}')
        }

        fn bump(&mut self) -> Result<u8, MalformedSnapshot> {
            let b = self.peek().ok_or_else(|| err("unexpected end of input"))?;
            self.pos += 1;
            Ok(b)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, want: u8) -> Result<(), MalformedSnapshot> {
            if self.bump()? != want {
                return Err(err(format!(
                    "expected '{}' at byte {}, found '{}'",
                    want as char,
                    self.pos - 1,
                    self.char_at(self.pos - 1)
                )));
            }
            Ok(())
        }

        fn value(&mut self) -> Result<Json, MalformedSnapshot> {
            match self.peek() {
                Some(b'{') => self.nested(Self::object),
                Some(b'[') => self.nested(Self::array),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b) if b.is_ascii_digit() => self.integer(),
                Some(_) => Err(err(format!(
                    "unexpected character '{}' at byte {}",
                    self.char_at(self.pos),
                    self.pos
                ))),
                None => Err(err("unexpected end of input")),
            }
        }

        /// Parses one array or object one level deeper, refusing to go
        /// past [`MAX_DEPTH`].
        fn nested(
            &mut self,
            parse: fn(&mut Self) -> Result<Json, MalformedSnapshot>,
        ) -> Result<Json, MalformedSnapshot> {
            if self.depth == MAX_DEPTH {
                return Err(err(format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                )));
            }
            self.depth += 1;
            let value = parse(self)?;
            self.depth -= 1;
            Ok(value)
        }

        fn object(&mut self) -> Result<Json, MalformedSnapshot> {
            let start = self.pos;
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                entries.push((key, value));
                self.skip_ws();
                match self.bump()? {
                    b',' => continue,
                    b'}' => break,
                    _ => {
                        return Err(err(format!(
                            "expected ',' or '}}' at byte {}, found '{}'",
                            self.pos - 1,
                            self.char_at(self.pos - 1)
                        )))
                    }
                }
            }
            if let Some(key) = duplicate_key(&entries) {
                return Err(err(format!(
                    "duplicate key \"{key}\" in the object at byte {start}"
                )));
            }
            Ok(Json::Obj(entries))
        }

        fn array(&mut self) -> Result<Json, MalformedSnapshot> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.bump()? {
                    b',' => continue,
                    b']' => return Ok(Json::Arr(items)),
                    _ => {
                        return Err(err(format!(
                            "expected ',' or ']' at byte {}, found '{}'",
                            self.pos - 1,
                            self.char_at(self.pos - 1)
                        )))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, MalformedSnapshot> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                // Copy the run up to the next quote, backslash or
                // control byte — all ASCII, so the run ends on a char
                // boundary.
                let run = self.text.as_bytes()[self.pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(self.text.len() - self.pos);
                out.push_str(&self.text[self.pos..self.pos + run]);
                self.pos += run;
                match self.bump()? {
                    b'"' => return Ok(out),
                    b'\\' => match self.bump()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
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
                        _ => {
                            return Err(err(format!(
                                "invalid escape '\\{}'",
                                self.char_at(self.pos - 1)
                            )))
                        }
                    },
                    _ => return Err(err("raw control character in string")),
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, MalformedSnapshot> {
            let mut code = 0u32;
            for _ in 0..4 {
                let b = self.bump()?;
                let digit = (b as char).to_digit(16).ok_or_else(|| {
                    err(format!(
                        "invalid hex digit '{}' in \\u escape",
                        self.char_at(self.pos - 1)
                    ))
                })?;
                code = code * 16 + digit;
            }
            Ok(code)
        }

        fn integer(&mut self) -> Result<Json, MalformedSnapshot> {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                return Err(err("the snapshot grammar has no fractional numbers"));
            }
            let text = &self.text[start..self.pos];
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
        // One row per way the builder resolves the `%halt` atom: a
        // literal, a λ-term (its closure; at k = 1 the environment is
        // restricted to the λ's free variables), and variables bound
        // to a constant and to a closure. Columns: program, halt at
        // k = 1, halt at m = 1, call graph (the same at both). The
        // values are what the value-level builder printed; this one
        // must reproduce them byte for byte.
        type Edges = &'static [(&'static str, &'static [&'static str])];
        let cases: [(&str, &str, &str, Edges); 5] = [
            ("42", "42", "42", &[]),
            ("(lambda (x) x)", "#<clo λℓ1 {}>", "#<clo λℓ1 ⟨⟩>", &[]),
            (
                "(let ((y 1) (z 2)) (lambda (x) y))",
                "#<clo λℓ1 {y.0↦y.0@⟨6⟩}>",
                "#<clo λℓ1 ⟨⟩>",
                &[("ℓ4", &["λℓ3"]), ("ℓ6", &["λℓ5"])],
            ),
            (
                "((lambda (x) x) 42)",
                "42",
                "42",
                &[("ℓ0", &["λℓ3"]), ("ℓ4", &["λℓ1"])],
            ),
            (
                "(define (id x) x) (id (lambda (y) y))",
                "#<clo λℓ3 {}>",
                "#<clo λℓ3 ⟨⟩>",
                &[("ℓ0", &["λℓ5"]), ("ℓ6", &["λℓ1"])],
            ),
        ];
        for (src, halt_k, halt_m, edges) in cases {
            let p = cfa_syntax::compile(src).unwrap();
            let rk = crate::analyze_kcfa(&p, 1, EngineLimits::default());
            let rm = crate::analyze_mcfa(&p, 1, EngineLimits::default());
            let call_graph: Vec<(String, Vec<String>)> = edges
                .iter()
                .map(|(site, targets)| {
                    let targets = targets.iter().map(|t| t.to_string()).collect();
                    (site.to_string(), targets)
                })
                .collect();
            for (s, param, halt) in [
                (canon_kcfa(&p, 1, &rk.fixpoint).unwrap(), "k", halt_k),
                (canon_mcfa(&p, 1, &rm.fixpoint).unwrap(), "m", halt_m),
            ] {
                assert_eq!(s.params, vec![(param.to_owned(), 1)], "{src}");
                assert_eq!(s.status, "complete", "{src}");
                assert_eq!(s.halt, [halt], "{} halt of {src}", s.machine);
                assert_eq!(s.call_graph, call_graph, "{} edges of {src}", s.machine);
            }
        }
    }

    #[test]
    fn bound_but_empty_rows_print_as_empty_lists() {
        // No machine binds an address to ⊥ today, but both stores can
        // (a join of nothing), and both builders must keep such a row
        // as `[]` rather than drop it.
        let p = cfa_syntax::compile("((lambda (x) x) 42)").unwrap();
        let empty = AddrK {
            slot: Slot::Atom(Label(99)),
            time: CallString::empty(),
        };
        let mut r = crate::analyze_kcfa(&p, 1, EngineLimits::default());
        r.fixpoint.store.join(empty.clone(), []);
        let mut machine = crate::kcfa::KCfaMachine::new(&p, 1);
        let mut oracle =
            crate::reference::run_fixpoint_reference(&mut machine, EngineLimits::default());
        oracle.store.join(empty, []);
        let s = canon_kcfa(&p, 1, &r.fixpoint).unwrap();
        assert_eq!(canon_kcfa_ref(&p, 1, &oracle).unwrap(), s);
        let row = s.flow.iter().find(|(addr, _)| addr == "atom:ℓ99@⟨⟩");
        assert_eq!(row.map(|(_, vals)| vals.len()), Some(0), "{:?}", s.flow);
        assert!(s.to_json().contains("\"atom:ℓ99@⟨⟩\": []"));
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
    fn parse_caps_nesting_depth() {
        // Deep enough to overflow a test thread's stack if the reader
        // recursed once per bracket.
        for open in ["[", "{\"a\": "] {
            let deep = open.repeat(200_000);
            let err = CanonSnapshot::parse(&deep).unwrap_err();
            assert!(err.message.contains("nesting deeper than"), "{err}");
        }
        // The cap is the first level the reader refuses.
        let at_cap = format!(
            "{}{}",
            "[".repeat(json::MAX_DEPTH),
            "]".repeat(json::MAX_DEPTH)
        );
        assert!(json::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(json::parse(&past_cap).is_err());
    }

    #[test]
    fn parse_rejects_duplicate_top_level_fields() {
        let text = snap("1", 0).to_json();
        let doubled = text.replacen("\"halt\"", "\"halt\": [\"7\"],\n  \"halt\"", 1);
        let err = CanonSnapshot::parse(&doubled).unwrap_err();
        assert!(err.message.contains("duplicate key \"halt\""), "{err}");
    }

    #[test]
    fn parse_rejects_duplicate_params() {
        let text = snap("1", 0).to_json();
        let doubled = text.replacen("\"k\": 0", "\"k\": 0, \"k\": 1", 1);
        let err = CanonSnapshot::parse(&doubled).unwrap_err();
        assert!(err.message.contains("duplicate key \"k\""), "{err}");
    }

    #[test]
    fn parse_rejects_duplicate_call_graph_keys() {
        let s = snap("((lambda (x) x) 42)", 1);
        let (site, targets) = s.call_graph[0].clone();
        let mut doubled = s.clone();
        doubled.call_graph.push((site.clone(), targets));
        let err = CanonSnapshot::parse(&doubled.to_json()).unwrap_err();
        assert!(
            err.message.contains(&format!("duplicate key \"{site}\"")),
            "{err}"
        );
    }

    #[test]
    fn parse_rejects_duplicate_flow_keys() {
        let s = snap("((lambda (x) x) 42)", 1);
        let (addr, _) = s.flow[0].clone();
        let mut doubled = s.clone();
        // Out of order, so the sorted-keys fast path cannot see it.
        doubled.flow.push((addr.clone(), vec!["43".to_owned()]));
        let err = CanonSnapshot::parse(&doubled.to_json()).unwrap_err();
        assert!(
            err.message.contains(&format!("duplicate key \"{addr}\"")),
            "{err}"
        );
    }

    #[test]
    fn parse_reads_multibyte_text_and_escapes_by_byte_offset() {
        let mut s = snap("(define (id x) x) (id (id (cons 1 2)))", 1);
        s.halt = vec!["tab\there \"q\" back\\slash λℓ⟨1⟩ \u{1}".to_owned()];
        let text = s.to_json();
        assert!(text.contains("\\t") && text.contains("\\u0001"), "{text}");
        assert_eq!(CanonSnapshot::parse(&text).unwrap(), s);
        // Positions in errors are byte offsets into the document.
        let err = CanonSnapshot::parse("[\"λ\" x]").unwrap_err();
        assert!(err.message.contains("at byte 6, found 'x'"), "{err}");
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
