//! `repobench replay`: a workload's plan, re-run in process.
//!
//! Each CLI cell calls the public functions `cfa races|dump|dot` call,
//! in the same order; each `serve` request goes through the same steps
//! as `cmd_serve` (compile, `submit_kcfa` on one pool with the default
//! backend, in-order replies rendered as `serve` prints them). With
//! `--traced 1` a span wraps every call; with `--traced 0` the same
//! calls run bare, so the two walls give the tracing overhead.
//!
//! Some public functions bundle layers. `analyze_*` runs machine
//! construction, the fixpoint and result assembly: its fixpoint share
//! is a derived child span sized by `FixpointResult::elapsed`, and the
//! remainder (assembly plus an allocation-only machine constructor) is
//! booked as assembly. `KcfaJob::wait` is entered only once the job
//! reports finished, so its span is assembly alone; the pool's queue
//! wait and evaluation time come from `FixpointResult::queue_wait` and
//! `elapsed`.
//!
//! Outputs are not checked here: every cell's output is appended to
//! `--outputs` as `ID LEN\n` + bytes, and `run.py` checks them with
//! the same code that checks the `cfa` binary's outputs.

use crate::gen::Inputs;
use crate::spans::{Open, Tracer};
use crate::Cell;
use cfa_core::engine::{AbstractMachine, EngineLimits, FixpointResult, Status};
use cfa_core::flatcfa::{FlatCfaMachine, FlatPolicy};
use cfa_core::kcfa::{KCfaMachine, KcfaJob};
use cfa_syntax::CpsProgram;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the derived span that carries `FixpointResult::elapsed`.
const FIXPOINT_DERIVED: &str = "run_fixpoint [FixpointResult::elapsed]";

/// Span name → the per-layer metric its self time is booked under.
const LAYERS: &[(&str, &str)] = &[
    ("parse_program", "syntax.parse_ms"),
    ("cps_convert", "syntax.cps_ms"),
    ("KCfaMachine::new", "machine.build_ms"),
    ("FlatCfaMachine::new", "machine.build_ms"),
    ("run_fixpoint_with", "engine.fixpoint_ms"),
    (FIXPOINT_DERIVED, "engine.fixpoint_ms"),
    ("analyze_kcfa", "results.assembly_ms"),
    ("analyze_mcfa", "results.assembly_ms"),
    ("analyze_poly_kcfa", "results.assembly_ms"),
    ("KcfaJob::wait", "results.assembly_ms"),
    ("run_fixpoint_parallel_on::<Sharded>", "fabric.fixpoint_ms"),
    ("canon_kcfa", "canon.build_ms"),
    ("canon_mcfa", "canon.build_ms"),
    ("canon_poly_kcfa", "canon.build_ms"),
    ("CanonSnapshot::to_json", "canon.render_ms"),
    ("races_kcfa", "races.ms"),
    ("races_mcfa", "races.ms"),
    ("races_poly_kcfa", "races.ms"),
    ("RaceReport::render_json", "races.render_ms"),
    ("CallGraph::from_metrics", "callgraph.build_ms"),
    ("CallGraph::to_dot", "callgraph.render_ms"),
    ("submit_kcfa", "pool.submit_ms"),
    ("AnalysisPool::metrics", "pool.submit_ms"),
];

/// A fixpoint with fewer configurations than this is a "small cell"
/// for `fabric.small_cell_p50_ms`: its time is mostly the parallel
/// engine's fixed cost.
const SMALL_CELL_CONFIGS: usize = 1000;

/// Counts and per-run samples gathered over a replay.
#[derive(Default, Debug)]
struct Counters {
    values: BTreeMap<&'static str, f64>,
    /// (configs, fabric span) per sharded fixpoint.
    fabric_cells: Vec<(usize, Duration)>,
    queue_waits: Vec<Duration>,
    evals: Vec<Duration>,
}

impl Counters {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    fn engine<C, A, V>(&mut self, fix: &FixpointResult<C, A, V>)
    where
        A: Eq + std::hash::Hash + Clone,
        V: Eq + std::hash::Hash + Clone,
    {
        self.add("engine.iterations", fix.iterations as f64);
        self.add("engine.skipped", fix.skipped as f64);
        self.add("engine.value_joins", fix.store.value_join_count() as f64);
        self.add("engine.facts", fix.delta_facts as f64);
        self.add("engine.configs", fix.configs.len() as f64);
        self.add("engine.store_bytes", fix.sched.store_resident_bytes as f64);
    }

    fn fabric<C, A, V>(&mut self, fix: &FixpointResult<C, A, V>, span: Duration) {
        self.add("fabric.steals", fix.sched.steals as f64);
        self.add("fabric.failed_steals", fix.sched.failed_steals as f64);
        self.add("fabric.idle_spins", fix.sched.idle_spins as f64);
        self.add("fabric.inbox_batches", fix.sched.inbox_batches as f64);
        self.add("fabric.iterations", fix.iterations as f64);
        self.add("fabric.skipped", fix.skipped as f64);
        self.add(
            "shardstore.store_bytes",
            fix.sched.store_resident_bytes as f64,
        );
        let profile = fix.trace.phase_profile();
        self.add("fabric.eval_ms", profile.eval.as_secs_f64() * 1e3);
        self.add(
            "shardstore.lock_wait_ms",
            profile.lock_wait.as_secs_f64() * 1e3,
        );
        self.fabric_cells.push((fix.configs.len(), span));
    }
}

fn limits() -> EngineLimits {
    EngineLimits::from_env()
}

fn complete(status: &Status) -> Result<(), String> {
    if status.is_complete() {
        Ok(())
    } else {
        Err(format!("analysis stopped: {status:?}"))
    }
}

/// Compiles `source` as `cfa_syntax::compile` does, one span per pass.
fn compile(t: &mut Tracer, c: &mut Counters, req: u64, source: &str) -> Result<CpsProgram, String> {
    let s = t.enter("parse_program", req);
    let parsed = cfa_syntax::parse_program(source);
    t.exit(s);
    let scm = parsed.map_err(|e| format!("compile error: {e}"))?;
    let s = t.enter("cps_convert", req);
    let program = cfa_syntax::cps_convert(&scm);
    t.exit(s);
    c.add("syntax.terms", program.term_count() as f64);
    Ok(program)
}

/// Runs `call` inside a span named `name`.
fn timed<T>(t: &mut Tracer, name: &'static str, req: u64, call: impl FnOnce() -> T) -> T {
    let s = t.enter(name, req);
    let out = call();
    t.exit(s);
    out
}

/// Closes an `analyze_*` span and gives it the derived fixpoint child.
fn close_analyze<C, A, V>(t: &mut Tracer, s: Open, fix: &FixpointResult<C, A, V>) {
    t.exit(s);
    t.derived(s, FIXPOINT_DERIVED, fix.elapsed);
}

/// `cfa races --json`: analyze, run the race client, check the status,
/// render.
fn races_cell(
    t: &mut Tracer,
    c: &mut Counters,
    req: u64,
    p: &CpsProgram,
    cell: Cell,
) -> Result<String, String> {
    let (report, status) = match cell {
        Cell::K(k) => {
            let s = t.enter("analyze_kcfa", req);
            let r = cfa_core::analyze_kcfa(p, k, limits());
            close_analyze(t, s, &r.fixpoint);
            c.engine(&r.fixpoint);
            let report = timed(t, "races_kcfa", req, || {
                cfa_core::races_kcfa(p, k, &r.fixpoint)
            });
            (report, r.metrics.status)
        }
        Cell::M(m) => {
            let s = t.enter("analyze_mcfa", req);
            let r = cfa_core::analyze_mcfa(p, m, limits());
            close_analyze(t, s, &r.fixpoint);
            c.engine(&r.fixpoint);
            let report = timed(t, "races_mcfa", req, || {
                cfa_core::races_mcfa(p, m, &r.fixpoint)
            });
            (report, r.metrics.status)
        }
        Cell::P(k) => {
            let s = t.enter("analyze_poly_kcfa", req);
            let r = cfa_core::analyze_poly_kcfa(p, k, limits());
            close_analyze(t, s, &r.fixpoint);
            c.engine(&r.fixpoint);
            let report = timed(t, "races_poly_kcfa", req, || {
                cfa_core::races_poly_kcfa(p, k, &r.fixpoint)
            });
            (report, r.metrics.status)
        }
    };
    complete(&status)?;
    c.add("races.threads", report.threads.len() as f64);
    c.add("races.accesses", report.accesses as f64);
    let json = timed(t, "RaceReport::render_json", req, || report.render_json());
    Ok(json + "\n")
}

/// How `cfa dump` computes its fixpoint: the sequential engine, or the
/// sharded fabric at two workers.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Backend {
    Sequential,
    Sharded,
}

/// The fixpoint `M` computes.
type FixpointOf<M> = FixpointResult<
    <M as AbstractMachine>::Config,
    <M as AbstractMachine>::Addr,
    <M as AbstractMachine>::Val,
>;

/// Runs one fixpoint on `backend`, booking its counters.
fn fixpoint<M>(
    t: &mut Tracer,
    c: &mut Counters,
    req: u64,
    machine: &mut M,
    backend: Backend,
) -> Result<FixpointOf<M>, String>
where
    M: cfa_core::ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    let mode = cfa_core::EvalMode::SemiNaive;
    let fix = match backend {
        Backend::Sequential => {
            let fix = timed(t, "run_fixpoint_with", req, || {
                cfa_core::engine::run_fixpoint_with(machine, limits(), mode)
            });
            c.engine(&fix);
            fix
        }
        Backend::Sharded => {
            let mut lim = limits();
            if t.on() {
                lim.trace = cfa_core::TraceConfig::full();
            }
            let s = t.enter("run_fixpoint_parallel_on::<Sharded>", req);
            let fix =
                cfa_core::run_fixpoint_parallel_on::<cfa_core::Sharded, _>(machine, 2, lim, mode);
            t.exit(s);
            c.fabric(&fix, t.duration(s));
            fix
        }
    };
    complete(&fix.status)?;
    Ok(fix)
}

/// `cfa dump [--backend sharded --threads 2]`: machine, fixpoint,
/// canonical form, JSON.
fn dump_cell(
    t: &mut Tracer,
    c: &mut Counters,
    req: u64,
    p: &CpsProgram,
    cell: Cell,
    backend: Backend,
) -> Result<String, String> {
    let canonical = "complete fixpoints are canonicalizable";
    let snapshot = match cell {
        Cell::K(k) => {
            let mut machine = timed(t, "KCfaMachine::new", req, || KCfaMachine::new(p, k));
            let fix = fixpoint(t, c, req, &mut machine, backend)?;
            timed(t, "canon_kcfa", req, || cfa_core::canon_kcfa(p, k, &fix)).expect(canonical)
        }
        Cell::M(bound) | Cell::P(bound) => {
            let policy = match cell {
                Cell::M(_) => FlatPolicy::TopMFrames,
                _ => FlatPolicy::LastKCalls,
            };
            let mut machine = timed(t, "FlatCfaMachine::new", req, || {
                FlatCfaMachine::new(p, bound, policy)
            });
            let fix = fixpoint(t, c, req, &mut machine, backend)?;
            match cell {
                Cell::M(_) => timed(t, "canon_mcfa", req, || {
                    cfa_core::canon_mcfa(p, bound, &fix)
                }),
                _ => timed(t, "canon_poly_kcfa", req, || {
                    cfa_core::canon_poly_kcfa(p, bound, &fix)
                }),
            }
            .expect(canonical)
        }
    };
    let json = timed(t, "CanonSnapshot::to_json", req, || snapshot.to_json());
    c.add("canon.bytes", json.len() as f64);
    Ok(json)
}

/// `cfa dot`: 1-CFA call graph as Graphviz dot.
fn dot_cell(t: &mut Tracer, c: &mut Counters, req: u64, p: &CpsProgram) -> Result<String, String> {
    let s = t.enter("analyze_kcfa", req);
    let r = cfa_core::analyze_kcfa(p, 1, limits());
    close_analyze(t, s, &r.fixpoint);
    c.engine(&r.fixpoint);
    complete(&r.metrics.status)?;
    let graph = timed(t, "CallGraph::from_metrics", req, || {
        cfa_core::callgraph::CallGraph::from_metrics(p, &r.metrics)
    });
    c.add("callgraph.edges", graph.edge_count() as f64);
    Ok(timed(t, "CallGraph::to_dot", req, || graph.to_dot(p)))
}

/// Appends one output record: `ID LEN\n` + bytes.
fn record(out: &mut impl std::io::Write, id: u64, text: &str) -> Result<(), String> {
    writeln!(out, "{id} {}", text.len())
        .and_then(|()| out.write_all(text.as_bytes()))
        .map_err(|e| format!("writing outputs: {e}"))
}

/// One CLI pass: every `cell` line of the plan, in plan order.
fn replay_cells(
    t: &mut Tracer,
    c: &mut Counters,
    inputs: &mut Inputs,
    plan: &str,
    out: &mut impl std::io::Write,
) -> Result<Duration, String> {
    let start = Instant::now();
    for line in plan.lines().filter(|l| l.starts_with("cell ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [_, id, cmd, token, stem] = f[..] else {
            return Err(format!("bad plan line {line:?}"));
        };
        let id: u64 = id.parse().map_err(|_| format!("bad id in {line:?}"))?;
        let cell = Cell::parse(token)?;
        let root = t.enter("cell", id);
        let source = inputs.source(stem)?.to_owned();
        let result = compile(t, c, id, &source).and_then(|p| match cmd {
            "races" => races_cell(t, c, id, &p, cell),
            "dump" => dump_cell(t, c, id, &p, cell, Backend::Sequential),
            "pdump" => dump_cell(t, c, id, &p, cell, Backend::Sharded),
            "dot" => dot_cell(t, c, id, &p),
            other => Err(format!("unknown cell command {other:?}")),
        });
        t.exit(root);
        let text = result.unwrap_or_else(|e| format!("ERROR {e}"));
        record(out, id, &text)?;
    }
    Ok(start.elapsed())
}

enum Kind {
    Callgraph,
    Races,
}

enum Pending {
    Job {
        kind: Kind,
        k: usize,
        program: Arc<CpsProgram>,
        job: KcfaJob,
    },
    Stats(String),
    Failed(String),
}

/// One `req ID DUE KIND K STEM` line of a serve plan.
#[derive(Copy, Clone)]
struct Request<'a> {
    id: u64,
    kind: &'a str,
    k: usize,
    stem: &'a str,
}

/// `parse_serve_request`: compile and submit, or snapshot the pool.
fn admit(
    t: &mut Tracer,
    c: &mut Counters,
    pool: &cfa_core::AnalysisPool,
    inputs: &mut Inputs,
    req: Request<'_>,
) -> Result<Pending, String> {
    let Request { id, kind, k, stem } = req;
    let root = t.enter("serve.admit", id);
    let pending = match kind {
        "stats" => Pending::Stats(timed(t, "AnalysisPool::metrics", id, || {
            pool.metrics().to_json()
        })),
        "callgraph" | "races" => {
            let source = inputs.source(stem)?.to_owned();
            match compile(t, c, id, &source) {
                Err(e) => Pending::Failed(e),
                Ok(p) => {
                    let program = Arc::new(p);
                    let job = timed(t, "submit_kcfa", id, || {
                        cfa_core::kcfa::submit_kcfa::<cfa_core::Replicated>(
                            pool,
                            Arc::clone(&program),
                            k,
                            limits(),
                        )
                    });
                    if t.on() {
                        let queued = pool.metrics().queued as f64;
                        let peak = c.values.entry("pool.peak_queued").or_default();
                        *peak = peak.max(queued);
                    }
                    Pending::Job {
                        kind: if kind == "races" {
                            Kind::Races
                        } else {
                            Kind::Callgraph
                        },
                        k,
                        program,
                        job,
                    }
                }
            }
        }
        other => return Err(format!("unknown request kind {other:?}")),
    };
    t.exit(root);
    Ok(pending)
}

/// `drain_one`: the reply `cfa serve` prints for a finished request.
fn reply(t: &mut Tracer, c: &mut Counters, id: u64, pending: Pending) -> String {
    let root = t.enter("serve.reply", id);
    let text = match pending {
        Pending::Failed(reason) => format!("err {id} {reason}\n.\n"),
        Pending::Stats(json) => format!("ok {id} stats\n{json}\n.\n"),
        Pending::Job {
            kind,
            k,
            program,
            job,
        } => {
            let r = timed(t, "KcfaJob::wait", id, || job.wait());
            c.queue_waits.push(r.fixpoint.queue_wait);
            c.evals.push(r.fixpoint.elapsed);
            if r.metrics.status.is_complete() {
                match kind {
                    Kind::Callgraph => {
                        let graph = timed(t, "CallGraph::from_metrics", id, || {
                            cfa_core::callgraph::CallGraph::from_metrics(&program, &r.metrics)
                        });
                        c.add("callgraph.edges", graph.edge_count() as f64);
                        let dot = timed(t, "CallGraph::to_dot", id, || graph.to_dot(&program));
                        format!(
                            "ok {id} callgraph k={k} sites={} edges={}\n{dot}.\n",
                            graph.site_count(),
                            graph.edge_count()
                        )
                    }
                    Kind::Races => {
                        let report = timed(t, "races_kcfa", id, || {
                            cfa_core::races_kcfa(&program, k, &r.fixpoint)
                        });
                        c.add("races.threads", report.threads.len() as f64);
                        c.add("races.accesses", report.accesses as f64);
                        let json = timed(t, "RaceReport::render_json", id, || report.render_json());
                        format!(
                            "ok {id} races k={k} count={}\n{json}\n.\n",
                            report.races.len()
                        )
                    }
                }
            } else {
                format!("err {id} analysis stopped: {:?}\n.\n", r.metrics.status)
            }
        }
    };
    t.exit(root);
    text
}

fn is_ready(p: &Pending) -> bool {
    match p {
        Pending::Job { job, .. } => job.is_finished(),
        Pending::Stats(_) | Pending::Failed(_) => true,
    }
}

/// The `serve` plan: one block per `cfa serve` process, each starting
/// with a `session` line. In a block, open-loop requests are admitted
/// at their due times, the burst (after a `burst DUE` line) at once,
/// then the EOF drain — `cmd_serve`'s loop, in process, on a fresh pool.
/// Returns the summed wall time of the bursts.
fn replay_serve(
    t: &mut Tracer,
    c: &mut Counters,
    inputs: &mut Inputs,
    plan: &str,
    out: &mut impl std::io::Write,
) -> Result<Duration, String> {
    let mut bursts = Duration::ZERO;
    for session in plan.split("session\n").filter(|s| !s.trim().is_empty()) {
        bursts += replay_session(t, c, inputs, session, out)?;
    }
    Ok(bursts)
}

fn replay_session(
    t: &mut Tracer,
    c: &mut Counters,
    inputs: &mut Inputs,
    plan: &str,
    out: &mut impl std::io::Write,
) -> Result<Duration, String> {
    let pool = cfa_core::AnalysisPool::new(cfa_core::PoolConfig::from_env());
    let mut pending: VecDeque<(u64, Pending)> = VecDeque::new();
    let origin = Instant::now() + Duration::from_millis(20);
    let sleep_until = |due_us: &str| -> Result<(), String> {
        let due_us: u64 = due_us
            .parse()
            .map_err(|_| format!("bad due time {due_us:?}"))?;
        let due = origin + Duration::from_micros(due_us);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Ok(())
    };
    let mut burst_start: Option<Instant> = None;
    for line in plan.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["burst", due_us] = f[..] {
            sleep_until(due_us)?;
            burst_start = Some(Instant::now());
            continue;
        }
        let [_, id, due_us, kind, k, stem] = f[..] else {
            return Err(format!("bad plan line {line:?}"));
        };
        let id: u64 = id.parse().map_err(|_| format!("bad id in {line:?}"))?;
        let k: usize = k.parse().map_err(|_| format!("bad k in {line:?}"))?;
        if burst_start.is_none() {
            sleep_until(due_us)?;
        }
        let p = admit(t, c, &pool, inputs, Request { id, kind, k, stem })?;
        pending.push_back((id, p));
        while pending.front().is_some_and(|(_, p)| is_ready(p)) {
            let (id, p) = pending.pop_front().expect("front checked");
            let text = reply(t, c, id, p);
            record(out, id, &text)?;
        }
    }
    // EOF: answer everything in flight, in order. Waiting for a job to
    // finish happens outside every span.
    for (id, p) in pending {
        while !is_ready(&p) {
            std::thread::sleep(Duration::from_micros(20));
        }
        let text = reply(t, c, id, p);
        record(out, id, &text)?;
    }
    let burst_wall = burst_start.map_or(Duration::ZERO, |s| s.elapsed());
    c.add("pool.quanta", pool.metrics().quanta as f64);
    pool.shutdown();
    Ok(burst_wall)
}

fn percentile_ms(values: &[Duration], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = values.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn main(args: &[String]) -> Result<(), String> {
    let flags = crate::flags(args)?;
    let workload = crate::need(&flags, "workload")?;
    let programs = Path::new(crate::need(&flags, "programs")?);
    let plan_path = crate::need(&flags, "plan")?;
    let traced = crate::need(&flags, "traced")? == "1";
    let outputs_path = crate::need(&flags, "outputs")?;
    let plan = std::fs::read_to_string(plan_path).map_err(|e| format!("{plan_path}: {e}"))?;
    let file = std::fs::File::create(outputs_path).map_err(|e| format!("{outputs_path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    let mut inputs = Inputs::open(programs)?;
    let mut t = Tracer::new(traced);
    let mut c = Counters::default();
    let wall = if workload == "serve-open" {
        replay_serve(&mut t, &mut c, &mut inputs, &plan, &mut out)?
    } else {
        replay_cells(&mut t, &mut c, &mut inputs, &plan, &mut out)?
    };
    out.flush().map_err(|e| format!("{outputs_path}: {e}"))?;

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    for (name, v) in &c.values {
        metrics.insert((*name).to_owned(), *v);
    }
    let self_times = t.self_times();
    let mut covered = Duration::ZERO;
    for (span, layer) in LAYERS {
        if let Some(d) = self_times.get(span) {
            *metrics.entry((*layer).to_owned()).or_default() += d.as_secs_f64() * 1e3;
            covered += *d;
        }
    }
    let small: Vec<Duration> = c
        .fabric_cells
        .iter()
        .filter(|(configs, _)| *configs < SMALL_CELL_CONFIGS)
        .map(|(_, d)| *d)
        .collect();
    metrics.insert(
        "fabric.small_cell_p50_ms".into(),
        percentile_ms(&small, 0.5),
    );
    metrics.insert(
        "pool.queue_wait_p50_ms".into(),
        percentile_ms(&c.queue_waits, 0.5),
    );
    metrics.insert(
        "pool.queue_wait_p99_ms".into(),
        percentile_ms(&c.queue_waits, 0.99),
    );
    metrics.insert("pool.eval_p50_ms".into(), percentile_ms(&c.evals, 0.5));
    metrics.insert("pool.eval_p99_ms".into(), percentile_ms(&c.evals, 0.99));
    // `run.py` turns these two sums into `trace.coverage`.
    metrics.insert("trace.layer_ms".into(), covered.as_secs_f64() * 1e3);
    metrics.insert("trace.root_ms".into(), t.root_time().as_secs_f64() * 1e3);
    if let Some(path) = flags.get("chrome") {
        std::fs::write(path, t.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"wall_s\":{},\"metrics\":{{{}}}}}",
        wall.as_secs_f64(),
        body.join(",")
    );
    Ok(())
}
