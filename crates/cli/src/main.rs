//! `cfa` — analyze mini-Scheme or Featherweight Java programs from the
//! command line.
//!
//! ```text
//! cfa analyze [--kcfa K | --mcfa M | --poly K] [--all] FILE.scm
//! cfa races [--kcfa K | --mcfa M | --poly K] [--json] FILE.scm
//! cfa dump [--kcfa K | --mcfa M | --poly K] [--backend B] [--out FILE] FILE.scm
//! cfa compare A.json B.json         # diff two canonical snapshots
//! cfa serve                         # pooled query server over stdin
//! cfa trace [--out FILE] FILE.scm   # Chrome trace of one fixpoint
//! cfa run FILE.scm                  # concrete execution (shared envs)
//! cfa cps FILE.scm                  # print the CPS conversion
//! cfa dot FILE.scm                  # 1-CFA call graph as Graphviz dot
//! cfa fj [--k K] [--per-statement] FILE.java
//! cfa fj-run FILE.java              # concrete FJ execution
//! cfa fj-dot [--k K] FILE.java      # method-level call graph as dot
//! cfa fj-datalog [--k K] FILE.java  # points-to on the Datalog road
//! cfa fj-gc [--k K] FILE.java       # ΓCFA: abstract GC + counting
//! ```
//!
//! The analysis-running subcommands read their [`EngineLimits`] from
//! the environment once, before anything else: `CFA_MAX_ITERS`,
//! `CFA_TIME_BUDGET_MS`, `CFA_FAULT_PLAN` (see
//! `cfa_core::fabric::FaultPlan::parse`) and `CFA_TRACE`; `cfa serve`
//! also reads `CFA_POOL_THREADS` and `CFA_POOL_QUEUE_DEPTH`.
//!
//! Exit codes: `0` success, `1` input/analysis errors, `2` usage or a
//! malformed `CFA_*` variable, and one distinct code per early-stop
//! [`Status`] — `3` timed out, `4` iteration limit, `5` cancelled, `6`
//! aborted — each with a one-line stderr diagnostic, so scripts can
//! tell a budget overrun from a contained crash without parsing stdout.
//! `cfa compare` redefines the small codes for diffing: `0` identical,
//! `1` divergent, `2` malformed or not-comparable input.

use cfa_core::engine::{EngineLimits, Status};
use cfa_core::Analysis;
use std::collections::VecDeque;
use std::process::ExitCode;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  cfa analyze [--kcfa K | --mcfa M | --poly K | --all] [--report] FILE.scm
  cfa races [--kcfa K | --mcfa M | --poly K] [--json] FILE.scm
  cfa dump [--kcfa K | --mcfa M | --poly K] [--backend sequential|sharded|reference]
           [--mode semi-naive|full-reeval] [--threads N] [--out FILE] FILE.scm
  cfa compare [--limit N] A.json B.json
  cfa serve
  cfa trace [--out FILE] [--kcfa K] [--threads N] FILE.scm
  cfa run FILE.scm
  cfa cps FILE.scm
  cfa dot FILE.scm
  cfa fj [--k K] [--per-statement] FILE.java
  cfa fj-run FILE.java
  cfa fj-dot [--k K] FILE.java
  cfa fj-datalog [--k K] FILE.java
  cfa fj-gc [--k K] FILE.java"
    );
    ExitCode::from(2)
}

/// Runs an analysis-running subcommand with the limits read once from
/// the environment (unset variables leave the defaults). A malformed
/// value exits `2` with one line naming it, before `command` runs.
fn with_limits(command: impl FnOnce(&EngineLimits) -> ExitCode) -> ExitCode {
    match EngineLimits::try_from_env() {
        Ok(limits) => command(&limits),
        Err(e) => bad_knob(&e),
    }
}

/// The one-line diagnostic and exit code for a malformed `CFA_*`
/// variable.
fn bad_knob(error: &str) -> ExitCode {
    eprintln!("cfa: {error}");
    ExitCode::from(2)
}

/// Maps an early-stop status to its diagnostic and distinct exit code:
/// `3` timed out, `4` iteration limit, `5` cancelled, `6` aborted.
/// `Ok(())` on completion.
fn check_status(status: &Status) -> Result<(), ExitCode> {
    let (code, line) = match status {
        Status::Completed => return Ok(()),
        Status::TimedOut => (
            3u8,
            "analysis timed out (raise CFA_TIME_BUDGET_MS)".to_owned(),
        ),
        Status::IterationLimit => (
            4,
            "analysis hit the iteration limit (raise CFA_MAX_ITERS)".to_owned(),
        ),
        Status::Cancelled => (5, "analysis was cancelled".to_owned()),
        Status::Aborted { config, message } => {
            (6, format!("analysis aborted at {config}: {message}"))
        }
    };
    eprintln!("cfa: {line}");
    Err(ExitCode::from(code))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    match command.as_str() {
        "analyze" => with_limits(|limits| cmd_analyze(rest, limits)),
        "races" => with_limits(|limits| cmd_races(rest, limits)),
        "dump" => with_limits(|limits| cmd_dump(rest, limits)),
        "compare" => cmd_compare(rest),
        "serve" => with_limits(|limits| cmd_serve(rest, limits)),
        "trace" => with_limits(|limits| cmd_trace(rest, limits)),
        "run" => cmd_run(rest),
        "cps" => cmd_cps(rest),
        "dot" => with_limits(|limits| cmd_dot(rest, limits)),
        "fj" => with_limits(|limits| cmd_fj(rest, limits)),
        "fj-run" => cmd_fj_run(rest),
        "fj-dot" => with_limits(|limits| cmd_fj_dot(rest, limits)),
        "fj-datalog" => with_limits(|limits| cmd_fj_datalog(rest, limits)),
        "fj-gc" => cmd_fj_gc(rest),
        _ => usage(),
    }
}

/// `cfa dot FILE.scm` — print the 1-CFA call graph as Graphviz dot.
fn cmd_dot(args: &[String], limits: &EngineLimits) -> ExitCode {
    let [file] = args else { return usage() };
    let src = match read_file(file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let program = match cfa_syntax::compile(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfa: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = cfa_core::analyze_kcfa(&program, 1, limits.clone());
    // An interrupted analysis would render a partial (misleading)
    // graph; fail with the status's exit code instead.
    if let Err(code) = check_status(&result.metrics.status) {
        return code;
    }
    let graph = cfa_core::callgraph::CallGraph::from_metrics(&program, &result.metrics);
    print!("{}", graph.to_dot(&program));
    ExitCode::SUCCESS
}

fn read_file(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cfa: cannot read '{path}': {e}");
        ExitCode::FAILURE
    })
}

fn parse_usize(s: &str, what: &str) -> Result<usize, ExitCode> {
    s.parse().map_err(|_| {
        eprintln!("cfa: {what} must be a number, got '{s}'");
        ExitCode::from(2)
    })
}

fn print_metrics(m: &cfa_core::Metrics) {
    println!("== {} ==", m.analysis);
    println!("  status:       {:?}", m.status);
    println!("  time:         {:.3?}", m.elapsed);
    println!("  configs:      {}", m.config_count);
    println!(
        "  store:        {} addresses, {} facts",
        m.store_entries, m.store_facts
    );
    println!(
        "  inlinings:    {}/{} user call sites are singletons",
        m.singleton_user_calls, m.reachable_user_calls
    );
    println!("  environments: {} distinct", m.distinct_envs);
    let values: Vec<&str> = m.halt_values.iter().map(String::as_str).collect();
    println!("  result:       {{{}}}", values.join(", "));
}

fn cmd_analyze(args: &[String], limits: &EngineLimits) -> ExitCode {
    let mut analyses: Vec<Analysis> = Vec::new();
    let mut file = None;
    let mut report = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--report" => {
                report = true;
                i += 1;
            }
            "--kcfa" | "--mcfa" | "--poly" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                let Ok(depth) = parse_usize(value, "context depth") else {
                    return usage();
                };
                analyses.push(match args[i].as_str() {
                    "--kcfa" => Analysis::KCfa { k: depth },
                    "--mcfa" => Analysis::MCfa { m: depth },
                    _ => Analysis::PolyKCfa { k: depth },
                });
                i += 2;
            }
            "--all" => {
                analyses.extend(Analysis::paper_panel());
                i += 1;
            }
            other if !other.starts_with("--") => {
                file = Some(other.to_owned());
                i += 1;
            }
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };
    if analyses.is_empty() {
        analyses.push(Analysis::KCfa { k: 1 });
    }
    let src = match read_file(&file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let program = match cfa_syntax::compile(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfa: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{file}: {} λ-terms, {} call sites, {} terms\n",
        program.lam_count(),
        program.call_count(),
        program.term_count()
    );
    for analysis in analyses {
        if report {
            // Full per-context flow report (Figures 1/2 style).
            let opts = cfa_core::report::ReportOptions::default();
            let (text, status) = match analysis {
                Analysis::KCfa { k } => {
                    let r = cfa_core::analyze_kcfa(&program, k, limits.clone());
                    (
                        cfa_core::report::report_kcfa(&program, &r, opts),
                        r.metrics.status,
                    )
                }
                Analysis::MCfa { m } => {
                    let r = cfa_core::analyze_mcfa(&program, m, limits.clone());
                    (
                        cfa_core::report::report_flat(&program, &r, opts),
                        r.metrics.status,
                    )
                }
                Analysis::PolyKCfa { k } => {
                    let r = cfa_core::analyze_poly_kcfa(&program, k, limits.clone());
                    (
                        cfa_core::report::report_flat(&program, &r, opts),
                        r.metrics.status,
                    )
                }
            };
            println!("{text}");
            if let Err(code) = check_status(&status) {
                return code;
            }
        } else {
            let m = cfa_core::analyze(&program, analysis, limits.clone());
            print_metrics(&m);
            println!();
            // The metrics above already name the status; the exit code
            // and stderr line make it machine-visible.
            if let Err(code) = check_status(&m.status) {
                return code;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `cfa races [--kcfa K | --mcfa M | --poly K] [--json] FILE.scm` —
/// run the static race detector over the chosen abstract-thread
/// analysis (default `--kcfa 1`) and print the report as text or JSON.
fn cmd_races(args: &[String], limits: &EngineLimits) -> ExitCode {
    let mut analysis = Analysis::KCfa { k: 1 };
    let mut json = false;
    let mut file = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--kcfa" | "--mcfa" | "--poly" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                let Ok(depth) = parse_usize(value, "context depth") else {
                    return usage();
                };
                analysis = match args[i].as_str() {
                    "--kcfa" => Analysis::KCfa { k: depth },
                    "--mcfa" => Analysis::MCfa { m: depth },
                    _ => Analysis::PolyKCfa { k: depth },
                };
                i += 2;
            }
            other if !other.starts_with("--") => {
                file = Some(other.to_owned());
                i += 1;
            }
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };
    let src = match read_file(&file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let program = match cfa_syntax::compile(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfa: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A truncated fixpoint would silently under-report races; make the
    // early stop the outcome, checked before the detector runs, instead
    // of computing a partial report only to discard it.
    let report = match analysis {
        Analysis::KCfa { k } => {
            let r = cfa_core::analyze_kcfa(&program, k, limits.clone());
            check_status(&r.metrics.status).map(|()| cfa_core::races_kcfa(&program, k, &r.fixpoint))
        }
        Analysis::MCfa { m } => {
            let r = cfa_core::analyze_mcfa(&program, m, limits.clone());
            check_status(&r.metrics.status).map(|()| cfa_core::races_mcfa(&program, m, &r.fixpoint))
        }
        Analysis::PolyKCfa { k } => {
            let r = cfa_core::analyze_poly_kcfa(&program, k, limits.clone());
            check_status(&r.metrics.status)
                .map(|()| cfa_core::races_poly_kcfa(&program, k, &r.fixpoint))
        }
    };
    let report = match report {
        Ok(report) => report,
        Err(code) => return code,
    };
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    ExitCode::SUCCESS
}

/// Runs one engine configuration to its fixpoint and canonicalizes the
/// result. A run that stops early (timeout, iteration limit, fault)
/// exits with its status code — a partial fixpoint is never dumped as
/// a comparable snapshot.
fn dump_snapshot(
    program: &cfa_syntax::cps::CpsProgram,
    analysis: Analysis,
    backend: &str,
    mode: cfa_core::EvalMode,
    threads: usize,
    limits: &EngineLimits,
) -> Result<cfa_core::CanonSnapshot, ExitCode> {
    use cfa_core::engine::run_fixpoint_with;
    use cfa_core::flatcfa::{FlatCfaMachine, FlatPolicy};
    use cfa_core::kcfa::KCfaMachine;
    use cfa_core::reference::run_fixpoint_reference;
    use cfa_core::run_fixpoint_parallel_on;

    let bad_backend = || {
        eprintln!(
            "cfa: unknown engine backend '{backend}' \
             (use sequential, sharded or reference)"
        );
        ExitCode::from(2)
    };
    // `canon_*` only rejects incomplete runs, and `check_status` has
    // already turned those into their exit codes.
    let canonical = "complete fixpoints are canonicalizable";
    match analysis {
        Analysis::KCfa { k } => {
            let mut machine = KCfaMachine::new(program, k);
            if backend == "reference" {
                let r = run_fixpoint_reference(&mut machine, limits.clone());
                check_status(&r.status)?;
                return Ok(cfa_core::canon_kcfa_ref(program, k, &r).expect(canonical));
            }
            let r = match backend {
                "sequential" => run_fixpoint_with(&mut machine, limits.clone(), mode),
                "sharded" => run_fixpoint_parallel_on::<cfa_core::Sharded, _>(
                    &mut machine,
                    threads,
                    limits.clone(),
                    mode,
                ),
                _ => return Err(bad_backend()),
            };
            check_status(&r.status)?;
            Ok(cfa_core::canon_kcfa(program, k, &r).expect(canonical))
        }
        Analysis::MCfa { m: bound } | Analysis::PolyKCfa { k: bound } => {
            let policy = match analysis {
                Analysis::MCfa { .. } => FlatPolicy::TopMFrames,
                _ => FlatPolicy::LastKCalls,
            };
            let canon = |fix: &cfa_core::engine::FixpointResult<_, _, _>| match analysis {
                Analysis::MCfa { .. } => cfa_core::canon_mcfa(program, bound, fix),
                _ => cfa_core::canon_poly_kcfa(program, bound, fix),
            };
            let mut machine = FlatCfaMachine::new(program, bound, policy);
            if backend == "reference" {
                let r = run_fixpoint_reference(&mut machine, limits.clone());
                check_status(&r.status)?;
                let snap = match analysis {
                    Analysis::MCfa { .. } => cfa_core::canon_mcfa_ref(program, bound, &r),
                    _ => cfa_core::canon_poly_kcfa_ref(program, bound, &r),
                };
                return Ok(snap.expect(canonical));
            }
            let r = match backend {
                "sequential" => run_fixpoint_with(&mut machine, limits.clone(), mode),
                "sharded" => run_fixpoint_parallel_on::<cfa_core::Sharded, _>(
                    &mut machine,
                    threads,
                    limits.clone(),
                    mode,
                ),
                _ => return Err(bad_backend()),
            };
            check_status(&r.status)?;
            Ok(canon(&r).expect(canonical))
        }
    }
}

/// `cfa dump [--kcfa K | --mcfa M | --poly K] [--backend B]
/// [--mode semi-naive|full-reeval] [--threads N] [--out FILE] FILE.scm`
/// — run one analysis under one engine configuration and write the
/// canonical, engine-independent normal form of its fixpoint as JSON
/// (stdout by default). Two dumps of the same program and analysis
/// must be byte-identical no matter which backend, mode, or thread
/// count produced them.
fn cmd_dump(args: &[String], limits: &EngineLimits) -> ExitCode {
    let mut analysis = Analysis::KCfa { k: 1 };
    let mut backend = "sequential".to_owned();
    let mut mode = cfa_core::EvalMode::SemiNaive;
    let mut threads = 2usize;
    let mut out_path: Option<String> = None;
    let mut file = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--kcfa" | "--mcfa" | "--poly" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                let Ok(depth) = parse_usize(value, "context depth") else {
                    return usage();
                };
                analysis = match args[i].as_str() {
                    "--kcfa" => Analysis::KCfa { k: depth },
                    "--mcfa" => Analysis::MCfa { m: depth },
                    _ => Analysis::PolyKCfa { k: depth },
                };
                i += 2;
            }
            "--backend" | "--mode" | "--threads" | "--out" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match args[i].as_str() {
                    "--backend" => backend = value.clone(),
                    "--out" => out_path = Some(value.clone()),
                    "--mode" => {
                        mode = match value.as_str() {
                            "semi-naive" => cfa_core::EvalMode::SemiNaive,
                            "full-reeval" => cfa_core::EvalMode::FullReeval,
                            other => {
                                eprintln!(
                                    "cfa: unknown eval mode '{other}' \
                                     (use semi-naive or full-reeval)"
                                );
                                return ExitCode::from(2);
                            }
                        }
                    }
                    _ => match parse_usize(value, "thread count") {
                        Ok(n) => threads = n.max(1),
                        Err(code) => return code,
                    },
                }
                i += 2;
            }
            other if !other.starts_with("--") => {
                file = Some(other.to_owned());
                i += 1;
            }
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };
    let src = match read_file(&file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let program = match cfa_syntax::compile(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfa: {e}");
            return ExitCode::FAILURE;
        }
    };
    let snapshot = match dump_snapshot(&program, analysis, &backend, mode, threads, limits) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let json = snapshot.to_json();
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("cfa: cannot write '{path}': {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

/// Reads and validates one snapshot file for `cfa compare`. Unreadable
/// files, malformed documents, and snapshots of incomplete runs all
/// map to exit code 2 — a partial result must never be silently
/// compared as if it were a fixpoint.
fn read_snapshot(path: &str) -> Result<cfa_core::CanonSnapshot, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cfa: cannot read '{path}': {e}");
        ExitCode::from(2)
    })?;
    let snapshot = cfa_core::CanonSnapshot::parse(&text).map_err(|e| {
        eprintln!("cfa: {path}: {e}");
        ExitCode::from(2)
    })?;
    if !snapshot.is_complete() {
        eprintln!(
            "cfa: {path}: not comparable: run status is {} (only complete \
             fixpoints have a normal form)",
            snapshot.status
        );
        return Err(ExitCode::from(2));
    }
    Ok(snapshot)
}

/// `cfa compare [--limit N] A.json B.json` — structurally diff two
/// canonical snapshots. Exit 0 when identical, 1 when divergent (the
/// first N divergent facts are printed by name), 2 when either input
/// is malformed or describes an incomplete run.
fn cmd_compare(args: &[String]) -> ExitCode {
    let mut limit = cfa_core::canon::DEFAULT_DIFF_LIMIT;
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--limit" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match parse_usize(value, "diff limit") {
                    Ok(n) => limit = n,
                    Err(code) => return code,
                }
                i += 2;
            }
            other if !other.starts_with("--") => {
                files.push(other.to_owned());
                i += 1;
            }
            _ => return usage(),
        }
    }
    let [left_path, right_path] = files.as_slice() else {
        return usage();
    };
    let left = match read_snapshot(left_path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let right = match read_snapshot(right_path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let report = cfa_core::diff_snapshots(&left, &right, limit);
    if report.is_identical() {
        println!("identical");
        ExitCode::SUCCESS
    } else {
        print!("{}", report.render());
        ExitCode::FAILURE
    }
}

/// `cfa serve` — a pooled query server.
///
/// Requests arrive on stdin as a header line, the mini-Scheme source,
/// and a lone `.` terminator:
///
/// ```text
/// callgraph k=1
/// (define (id x) x) (id 42)
/// .
/// races k=0
/// ...source...
/// .
/// ```
///
/// A framing thread reads stdin; the serve loop ([`serve_loop`]) submits
/// every request to one long-lived [`AnalysisPool`] (sized by
/// `CFA_POOL_THREADS` / `CFA_POOL_QUEUE_DEPTH`) as soon as its
/// terminator is read, so queries analyze concurrently, each in a
/// tenant with a private store. Responses are printed in request order,
/// each the moment it and every earlier response are ready — a client
/// may wait for each reply before sending its next request — as an
/// `ok N ...` or `err N ...` header followed by the payload and a lone
/// `.`:
///
/// * `callgraph` answers `ok N callgraph sites=S edges=E` and the
///   1-CFA-style call graph in Graphviz dot;
/// * `races` answers `ok N races count=R` and the race report JSON;
/// * `stats` (empty body) answers `ok N stats` and one line of JSON
///   with the pool's live gauges and lifetime counters
///   ([`cfa_core::PoolMetrics`]), snapshotted when the request is
///   admitted.
///
/// A malformed request, a request that is not UTF-8 or that EOF cuts
/// off before its `.`, a program that does not compile, or an analysis
/// stopped early (timeout, iteration limit, fault) answers
/// `err N <reason>` — the server keeps serving. At EOF it answers every
/// request still in flight, then exits.
fn cmd_serve(args: &[String], limits: &EngineLimits) -> ExitCode {
    if !args.is_empty() {
        return usage();
    }
    match cfa_core::PoolConfig::try_from_env() {
        Ok(config) => run_serve(config, limits),
        Err(e) => bad_knob(&e),
    }
}

/// `cfa trace [--out FILE] [--kcfa K] [--threads N] FILE.scm` — run one
/// sharded k-CFA fixpoint with full tracing forced on, write the merged
/// per-worker event rings as Chrome `trace_event` JSON (loadable in
/// `chrome://tracing` / Perfetto), and print the derived phase profile.
fn cmd_trace(args: &[String], limits: &EngineLimits) -> ExitCode {
    let mut out_path = "profile.json".to_owned();
    let mut k = 1usize;
    let mut threads = 2usize;
    let mut file = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" | "--kcfa" | "--threads" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                match args[i].as_str() {
                    "--out" => out_path = value.clone(),
                    "--kcfa" => match parse_usize(value, "context depth") {
                        Ok(depth) => k = depth,
                        Err(code) => return code,
                    },
                    _ => match parse_usize(value, "thread count") {
                        Ok(n) => threads = n.max(1),
                        Err(code) => return code,
                    },
                }
                i += 2;
            }
            other if !other.starts_with("--") => {
                file = Some(other.to_owned());
                i += 1;
            }
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };
    let src = match read_file(&file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let program = match cfa_syntax::compile(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfa: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut limits = limits.clone();
    limits.trace = cfa_core::TraceConfig::full();
    let mut machine = cfa_core::kcfa::KCfaMachine::new(&program, k);
    let result = cfa_core::run_fixpoint_parallel_on::<cfa_core::Sharded, _>(
        &mut machine,
        threads,
        limits,
        cfa_core::EvalMode::SemiNaive,
    );
    if let Err(code) = check_status(&result.status) {
        return code;
    }
    let json = result.trace.to_chrome_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cfa: cannot write '{out_path}': {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out_path}: {} worker lanes, {} ring events",
        result.trace.workers.len(),
        result.trace.event_count()
    );
    println!("{}", result.trace.phase_profile().summary());
    ExitCode::SUCCESS
}

/// What a `serve` query asks of the fixpoint.
enum QueryKind {
    Callgraph,
    Races,
}

/// One admitted `serve` request: the submitted job plus what to render
/// from it — or an error already known at admission, held in line so
/// responses stay in request order.
enum PendingReply {
    Job {
        kind: QueryKind,
        k: usize,
        program: Arc<cfa_syntax::cps::CpsProgram>,
        job: cfa_core::kcfa::KcfaJob,
    },
    Malformed(String),
    /// A pool-metrics snapshot, captured at admission (so the numbers
    /// describe the pool at ask time, not at reply time).
    Stats(String),
}

impl PendingReply {
    /// Whether the reply can be written without blocking.
    fn is_ready(&self) -> bool {
        match self {
            PendingReply::Job { job, .. } => job.is_finished(),
            PendingReply::Malformed(_) | PendingReply::Stats(_) => true,
        }
    }

    /// The reply's text: header, payload and the lone `.`. The call
    /// graph, the race detector and the rendering run here, on the
    /// serve loop's thread, never on a pool thread.
    fn render(self, id: u64) -> String {
        let (kind, k, program, job) = match self {
            PendingReply::Malformed(reason) => return format!("err {id} {reason}\n.\n"),
            PendingReply::Stats(json) => return format!("ok {id} stats\n{json}\n.\n"),
            PendingReply::Job {
                kind,
                k,
                program,
                job,
            } => (kind, k, program, job),
        };
        let r = job.wait();
        if let Err(_code) = check_status(&r.metrics.status) {
            // check_status printed the one-line diagnostic; mirror it
            // into the protocol and keep serving.
            return format!("err {id} analysis stopped: {:?}\n.\n", r.metrics.status);
        }
        match kind {
            QueryKind::Callgraph => {
                let graph = cfa_core::callgraph::CallGraph::from_metrics(&program, &r.metrics);
                format!(
                    "ok {id} callgraph k={k} sites={} edges={}\n{}.\n",
                    graph.site_count(),
                    graph.edge_count(),
                    graph.to_dot(&program)
                )
            }
            QueryKind::Races => {
                let report = cfa_core::races_kcfa(&program, k, &r.fixpoint);
                format!(
                    "ok {id} races k={k} count={}\n{}\n.\n",
                    report.races.len(),
                    report.render_json()
                )
            }
        }
    }
}

/// One request as the framing thread read it: its header and body, or
/// why it cannot be answered.
type Framed = Result<(String, String), &'static str>;

/// The framing thread's hand-off to the serve loop.
struct Handoff {
    inbox: Mutex<Inbox>,
    /// The one condvar. The serve loop sleeps on it until a request
    /// arrives, stdin closes or a run finishes; the framing thread
    /// sleeps on it while the inbox is full. Both are woken with
    /// `notify_all`, so a wake meant for one never strands the other.
    wake: Condvar,
    /// [`cfa_core::PoolConfig::queue_depth`]: the most requests the inbox
    /// holds, and the most finished results the serve loop holds for
    /// their turn before it stops admitting.
    depth: usize,
}

#[derive(Default)]
struct Inbox {
    /// Framed requests not yet admitted, oldest first.
    requests: VecDeque<Framed>,
    /// Stdin is exhausted: no request follows those queued.
    closed: bool,
    /// The serve loop is asleep on [`Handoff::wake`].
    waiting: bool,
    /// Admitted jobs that have deposited their result, counted by their
    /// wake hooks.
    finished: usize,
}

impl Handoff {
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        // Every update of the inbox is a single step, so a guard
        // recovered from a poisoned lock still holds a consistent one.
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `change` to the inbox and wakes the serve loop if it
    /// sleeps.
    fn tell_loop(&self, change: impl FnOnce(&mut Inbox)) {
        let mut inbox = self.lock();
        change(&mut inbox);
        if inbox.waiting {
            self.wake.notify_all();
        }
    }
}

fn run_serve(config: cfa_core::PoolConfig, limits: &EngineLimits) -> ExitCode {
    let handoff = Arc::new(Handoff {
        inbox: Mutex::new(Inbox::default()),
        wake: Condvar::new(),
        depth: config.queue_depth.max(1),
    });
    let pool = cfa_core::AnalysisPool::new(config);
    let framer = {
        let handoff = Arc::clone(&handoff);
        std::thread::Builder::new()
            .name("cfa-serve-framer".to_owned())
            .spawn(move || frame_requests(&handoff))
            .expect("spawn the serve framing thread")
    };
    serve_loop(&pool, &handoff, limits);
    pool.shutdown();
    framer.join().expect("the serve framing thread panicked");
    ExitCode::SUCCESS
}

/// The serve loop. Each turn admits the oldest framed request if one
/// waits; otherwise writes the front reply once it is ready; otherwise
/// sleeps until a request arrives, stdin closes or a run finishes. It
/// returns once stdin has closed and every reply is written. Replies
/// leave in request order, each the moment it and every earlier reply
/// are ready.
///
/// Admission comes first so the pool is fed while earlier runs finish,
/// until [`Handoff::depth`] finished results wait for their turn: then
/// the loop writes before it admits again. Without that bound a client
/// that keeps the inbox full would get no reply, and the server would
/// hold every result, until it stopped sending.
fn serve_loop(pool: &cfa_core::AnalysisPool, handoff: &Arc<Handoff>, limits: &EngineLimits) {
    use std::io::Write as _;

    let mut pending: VecDeque<(u64, PendingReply)> = VecDeque::new();
    let mut next_id = 0u64;
    // Job replies written so far: `Inbox::finished` less this is the
    // number of finished results held for their turn.
    let mut written = 0usize;
    loop {
        let mut inbox = handoff.lock();
        let request = loop {
            let held = inbox.finished.saturating_sub(written);
            if !inbox.requests.is_empty() && held < handoff.depth {
                if inbox.requests.len() == handoff.depth {
                    // The inbox is full: the framing thread may wait.
                    handoff.wake.notify_all();
                }
                break inbox.requests.pop_front();
            }
            if pending.front().is_some_and(|(_, reply)| reply.is_ready()) {
                break None;
            }
            if inbox.closed && pending.is_empty() {
                return;
            }
            inbox.waiting = true;
            inbox = handoff
                .wake
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
            inbox.waiting = false;
        };
        drop(inbox);
        match request {
            Some(framed) => {
                let reply = match framed {
                    Ok((header, source)) => parse_serve_request(pool, &header, &source, limits),
                    Err(reason) => PendingReply::Malformed(reason.to_owned()),
                };
                if let PendingReply::Job { job, .. } = &reply {
                    let handoff = Arc::clone(handoff);
                    job.when_finished(move || handoff.tell_loop(|inbox| inbox.finished += 1));
                }
                pending.push_back((next_id, reply));
                next_id += 1;
            }
            None => {
                let (id, reply) = pending.pop_front().expect("the front reply is ready");
                if matches!(reply, PendingReply::Job { .. }) {
                    written += 1;
                }
                let text = reply.render(id);
                let mut out = std::io::stdout().lock();
                let _ = out.write_all(text.as_bytes());
                let _ = out.flush();
            }
        }
    }
}

/// The framing thread: reads requests off stdin and queues them for the
/// serve loop, waiting while the inbox is full, so a client that floods
/// the server meets pipe backpressure. Marks the inbox closed at EOF.
fn frame_requests(handoff: &Handoff) {
    let mut stdin = std::io::stdin().lock();
    while let Some(request) = read_request(&mut stdin) {
        let mut inbox = handoff.lock();
        while inbox.requests.len() >= handoff.depth {
            inbox = handoff
                .wake
                .wait(inbox)
                .unwrap_or_else(PoisonError::into_inner);
        }
        inbox.requests.push_back(request);
        if inbox.waiting {
            handoff.wake.notify_all();
        }
    }
    handoff.tell_loop(|inbox| inbox.closed = true);
}

/// Reads one request: a header line, then body lines up to a lone `.`;
/// blank lines before a header are skipped. Framing is by bytes, so a
/// line that is not UTF-8 stays inside its request, which answers
/// `err`, as does a request that EOF cuts off before its `.`. `None` at
/// EOF before a header.
fn read_request(input: &mut impl std::io::BufRead) -> Option<Framed> {
    let is_line =
        |line: &[u8], text: &str| std::str::from_utf8(line).is_ok_and(|l| l.trim() == text);
    let mut line = Vec::new();
    let header = loop {
        if !read_line(input, &mut line) {
            return None;
        }
        if !is_line(&line, "") {
            break std::mem::take(&mut line);
        }
    };
    let mut body = Vec::new();
    loop {
        if !read_line(input, &mut line) {
            return Some(Err("request truncated at EOF"));
        }
        if is_line(&line, ".") {
            break;
        }
        body.extend_from_slice(&line);
        body.push(b'\n');
    }
    match (String::from_utf8(header), String::from_utf8(body)) {
        (Ok(header), Ok(body)) => Some(Ok((header, body))),
        _ => Some(Err("request is not UTF-8")),
    }
}

/// Reads one line into `line` without its `\n` or `\r\n`. False at EOF
/// or on a read error, which is reported on stderr.
fn read_line(input: &mut impl std::io::BufRead, line: &mut Vec<u8>) -> bool {
    line.clear();
    match input.read_until(b'\n', line) {
        Ok(0) => false,
        Ok(_) => {
            if line.ends_with(b"\n") {
                line.pop();
                if line.ends_with(b"\r") {
                    line.pop();
                }
            }
            true
        }
        Err(e) => {
            // Not `eprintln!`, which panics when stderr is gone: the
            // framing thread must reach its close, or the serve loop
            // waits for it forever.
            use std::io::Write as _;
            let _ = writeln!(std::io::stderr(), "cfa: stdin: {e}");
            false
        }
    }
}

/// Parses one `serve` header + body into a submitted job (or an
/// in-line error). Headers are `callgraph k=N` / `races k=N`.
fn parse_serve_request(
    pool: &cfa_core::AnalysisPool,
    header: &str,
    source: &str,
    limits: &EngineLimits,
) -> PendingReply {
    let mut parts = header.split_whitespace();
    let kind = match parts.next() {
        Some("callgraph") => QueryKind::Callgraph,
        Some("races") => QueryKind::Races,
        Some("stats") => return PendingReply::Stats(pool.metrics().to_json()),
        other => {
            return PendingReply::Malformed(format!(
                "unknown query {:?} (use callgraph, races or stats)",
                other.unwrap_or("")
            ))
        }
    };
    let mut k = 1usize;
    for part in parts {
        match part.strip_prefix("k=").map(str::parse) {
            Some(Ok(depth)) => k = depth,
            _ => return PendingReply::Malformed(format!("bad parameter {part:?} (use k=N)")),
        }
    }
    let program = match cfa_syntax::compile(source) {
        Ok(p) => Arc::new(p),
        Err(e) => return PendingReply::Malformed(format!("compile error: {e}")),
    };
    let job = cfa_core::kcfa::submit_kcfa::<cfa_core::Replicated>(
        pool,
        Arc::clone(&program),
        k,
        limits.clone(),
    );
    PendingReply::Job {
        kind,
        k,
        program,
        job,
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let [file] = args else { return usage() };
    let src = match read_file(file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match cfa_concrete::eval_scheme(&src, cfa_concrete::Limits::default()) {
        Ok(value) => {
            println!("{value}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cfa: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_cps(args: &[String]) -> ExitCode {
    let [file] = args else { return usage() };
    let src = match read_file(file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match cfa_syntax::compile(&src) {
        Ok(program) => {
            print!("{}", cfa_syntax::pretty::pretty_program(&program));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cfa: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_fj(args: &[String], limits: &EngineLimits) -> ExitCode {
    let mut k = 1usize;
    let mut policy = cfa_fj::TickPolicy::OnInvocation;
    let mut file = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--k" => {
                let Some(value) = args.get(i + 1) else {
                    return usage();
                };
                let Ok(depth) = parse_usize(value, "k") else {
                    return usage();
                };
                k = depth;
                i += 2;
            }
            "--per-statement" => {
                policy = cfa_fj::TickPolicy::EveryStatement;
                i += 1;
            }
            other if !other.starts_with("--") => {
                file = Some(other.to_owned());
                i += 1;
            }
            _ => return usage(),
        }
    }
    let Some(file) = file else { return usage() };
    let src = match read_file(&file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let program = match cfa_fj::parse_fj(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfa: {e}");
            return ExitCode::FAILURE;
        }
    };
    let options = cfa_fj::FjAnalysisOptions {
        k,
        policy,
        cast_filtering: false,
    };
    let r = cfa_fj::analyze_fj(&program, options, limits.clone());
    let m = &r.metrics;
    println!("{program}");
    println!("== {} ==", m.analysis);
    println!("  status:   {:?}", m.status);
    println!("  time:     {:.3?}", m.elapsed);
    println!("  configs:  {}", m.config_count);
    println!("  contexts: {}", m.time_count);
    println!(
        "  calls:    {} reachable, {} monomorphic",
        m.reachable_calls, m.monomorphic_calls
    );
    let classes: Vec<&str> = m
        .halt_classes
        .iter()
        .map(|&c| program.name(program.class(c).name))
        .collect();
    println!("  result classes: {{{}}}", classes.join(", "));
    if let Err(code) = check_status(&m.status) {
        return code;
    }
    ExitCode::SUCCESS
}

fn cmd_fj_run(args: &[String]) -> ExitCode {
    let [file] = args else { return usage() };
    let src = match read_file(file) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let program = match cfa_fj::parse_fj(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfa: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = cfa_fj::run_fj(&program, cfa_fj::FjLimits::default());
    match run.halted() {
        Some(value) => {
            println!("{value}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("cfa: {:?}", run.outcome);
            ExitCode::FAILURE
        }
    }
}

/// Parses `[--k K] FILE` argument lists shared by the FJ subcommands.
fn parse_k_and_file(args: &[String]) -> Result<(usize, String), ExitCode> {
    let mut k = 1usize;
    let mut file = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--k" => {
                let Some(value) = args.get(i + 1) else {
                    return Err(usage());
                };
                k = parse_usize(value, "k")?;
                i += 2;
            }
            other if !other.starts_with("--") => {
                file = Some(other.to_owned());
                i += 1;
            }
            _ => return Err(usage()),
        }
    }
    match file {
        Some(f) => Ok((k, f)),
        None => Err(usage()),
    }
}

fn load_fj(file: &str) -> Result<cfa_fj::FjProgram, ExitCode> {
    let src = read_file(file)?;
    cfa_fj::parse_fj(&src).map_err(|e| {
        eprintln!("cfa: {e}");
        ExitCode::FAILURE
    })
}

/// `cfa fj-dot [--k K] FILE.java` — method-level call graph as dot.
fn cmd_fj_dot(args: &[String], limits: &EngineLimits) -> ExitCode {
    let (k, file) = match parse_k_and_file(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let program = match load_fj(&file) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let r = cfa_fj::analyze_fj(&program, cfa_fj::FjAnalysisOptions::oo(k), limits.clone());
    if let Err(code) = check_status(&r.metrics.status) {
        return code;
    }
    let graph = cfa_fj::FjCallGraph::from_metrics(&r.metrics);
    print!("{}", graph.to_dot(&program));
    ExitCode::SUCCESS
}

/// `cfa fj-datalog [--k K] FILE.java` — run the Datalog points-to
/// analysis and report agreement with the abstract machine.
fn cmd_fj_datalog(args: &[String], limits: &EngineLimits) -> ExitCode {
    let (k, file) = match parse_k_and_file(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    if k > 2 {
        eprintln!("cfa: the Datalog encoding tabulates contexts; use --k 0, 1 or 2");
        return ExitCode::from(2);
    }
    let program = match load_fj(&file) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let d = cfa_fj::analyze_fj_datalog(&program, cfa_fj::FjDatalogOptions::sensitive(k));
    let machine = cfa_fj::analyze_fj(&program, cfa_fj::FjAnalysisOptions::oo(k), limits.clone());
    // A partial machine run would spuriously disagree with the Datalog
    // fixpoint; surface the early stop instead.
    if let Err(code) = check_status(&machine.metrics.status) {
        return code;
    }
    println!("== FJ points-to in Datalog (k = {k}) ==");
    println!(
        "  facts:    {} input, {} at fixpoint",
        d.edb_facts, d.total_facts
    );
    println!("  rounds:   {}", d.stats.rounds);
    println!("  time:     {:.3?}", d.stats.elapsed);
    println!(
        "  calls:    {} sites resolved, {} monomorphic",
        d.call_targets.len(),
        d.monomorphic_calls()
    );
    let classes: Vec<&str> = d
        .halt_classes
        .iter()
        .map(|&c| program.name(program.class(c).name))
        .collect();
    println!("  result classes: {{{}}}", classes.join(", "));
    let agree = machine.metrics.call_targets == d.call_targets
        && machine.metrics.halt_classes == d.halt_classes;
    println!("  machine agrees: {}", if agree { "yes" } else { "NO" });
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `cfa fj-gc [--k K] FILE.java` — per-state search with abstract GC
/// and counting (ΓCFA for OO, §8).
fn cmd_fj_gc(args: &[String]) -> ExitCode {
    let (k, file) = match parse_k_and_file(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let program = match load_fj(&file) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let plain =
        cfa_fj::analyze_fj_naive(&program, cfa_fj::FjNaiveOptions::paper(k).with_counting());
    let gc = cfa_fj::analyze_fj_naive(
        &program,
        cfa_fj::FjNaiveOptions::paper(k).with_gc().with_counting(),
    );
    println!("== ΓCFA for Featherweight Java (k = {k}) ==");
    println!("                  plain        with GC");
    println!(
        "  states:    {:>10} {:>14}",
        plain.state_count, gc.state_count
    );
    println!(
        "  singular:  {:>9.1}% {:>13.1}%",
        100.0 * plain.singular_ratio(),
        100.0 * gc.singular_ratio()
    );
    let classes = |r: &cfa_fj::FjNaiveResult| {
        r.halt_classes
            .iter()
            .map(|&c| program.name(program.class(c).name).to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("  returns:   {:>10} {:>14}", classes(&plain), classes(&gc));
    if plain.halt_classes == gc.halt_classes {
        println!("  GC is precision-neutral: yes");
        ExitCode::SUCCESS
    } else {
        println!("  GC is precision-neutral: NO (bug)");
        ExitCode::FAILURE
    }
}
