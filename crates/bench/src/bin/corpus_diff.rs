//! Corpus-scale differential runner: sweeps the workload suite plus a
//! band of seeded generated programs (sequential *and* concurrent)
//! through every engine configuration — the sequential engine and the
//! sharded parallel engine at [`PAR_THREADS`] workers, each in both
//! eval modes, the pool tenant (the path `cfa serve` runs) in both
//! modes, and the reference oracle — canonicalizes every fixpoint with
//! `cfa_core::canon`, and diffs the normal forms. The pooled runs ride
//! one long-lived [`AnalysisPool`], so they overlap with the inline
//! runs for free.
//!
//! Any divergence is written as a replayable artifact directory
//! (program source, both snapshots, and the exact `cfa dump` /
//! `cfa compare` commands that reproduce it) and the run exits 1. A
//! run that cannot be compared honestly — any engine stopping short of
//! its fixpoint (timeout, iteration limit, injected fault) — is
//! reported as "not comparable", never as a spurious diff, and the run
//! exits 3.
//!
//! Environment knobs:
//!
//! * `CFA_CORPUS_SIZE` — number of seeded generated programs appended
//!   to the curated corpus (default 16; CI uses the default, nightly
//!   jobs scale it up).
//! * `CFA_CORPUS_SEED` — base seed for the generated band (default 0).
//! * `CFA_CORPUS_ONLY` — substring filter on program names.
//! * `CFA_ARTIFACT_DIR` — where failure artifacts are written (default
//!   `target/corpus-diff`).
//! * The usual engine limits (`CFA_MAX_ITERS`, `CFA_TIME_BUDGET_MS`,
//!   `CFA_FAULT_PLAN`, …) apply to every engine configuration.

use cfa_core::engine::{run_fixpoint_with, EngineLimits, EvalMode, FixpointResult};
use cfa_core::flatcfa::{FlatCfaMachine, FlatPolicy};
use cfa_core::kcfa::KCfaMachine;
use cfa_core::reference::{run_fixpoint_reference, RefFixpointResult, ReferenceMachine};
use cfa_core::{
    run_fixpoint_parallel_on, Analysis, AnalysisPool, CanonSnapshot, NotComparable, PoolConfig,
    Replicated, Sharded,
};
use cfa_testsupport::corpus::{CorpusProgram, CorpusSelection};
use cfa_testsupport::{golden_slug, quiet_injected_panics, PAR_THREADS};
use std::fmt::Debug;
use std::hash::Hash;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const MODES: [EvalMode; 2] = [EvalMode::SemiNaive, EvalMode::FullReeval];

fn mode_flag(mode: EvalMode) -> &'static str {
    match mode {
        EvalMode::SemiNaive => "semi-naive",
        EvalMode::FullReeval => "full-reeval",
    }
}

/// One engine configuration of the sweep.
#[derive(Copy, Clone, Debug)]
enum Engine {
    Reference,
    Sequential(EvalMode),
    Sharded(EvalMode),
    Pooled(EvalMode),
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Engine::Reference => f.write_str("reference"),
            Engine::Sequential(mode) => write!(f, "sequential {}", mode_flag(mode)),
            Engine::Sharded(mode) => write!(f, "sharded {}", mode_flag(mode)),
            Engine::Pooled(mode) => write!(f, "pooled {}", mode_flag(mode)),
        }
    }
}

impl Engine {
    /// The `cfa dump` flags that run this configuration. `cfa dump` has
    /// no pool, so a pooled run maps to the sequential engine, which
    /// keeps the same private store on one worker.
    fn dump_flags(self) -> String {
        match self {
            Engine::Reference => "--backend reference".to_owned(),
            Engine::Sequential(mode) | Engine::Pooled(mode) => {
                format!("--backend sequential --mode {}", mode_flag(mode))
            }
            Engine::Sharded(mode) => format!(
                "--backend sharded --mode {} --threads {PAR_THREADS}",
                mode_flag(mode)
            ),
        }
    }
}

/// How one engine configuration's run canonicalized: a normal form, or
/// the reason it has none.
type EngineOutcome = (Engine, Result<CanonSnapshot, String>);

/// Runs one (program, analysis) pair through every engine
/// configuration: the two pooled runs are submitted first, then the
/// reference oracle, the sequential and the sharded runs go inline
/// while the pool churns. The reference outcome comes first.
fn sweep_engines<M, R, F, G, CF, CR>(
    pool: &AnalysisPool,
    mk: F,
    mk_ref: G,
    canon_fix: CF,
    canon_ref: CR,
) -> Vec<EngineOutcome>
where
    M: cfa_core::ParallelMachine + 'static,
    R: ReferenceMachine<Config = M::Config, Addr = M::Addr, Val = M::Val>,
    M::Config: Send + Sync + Debug + 'static,
    M::Addr: Ord + Send + Sync + 'static,
    M::Val: Ord + Hash + Send + Sync + 'static,
    F: Fn() -> M,
    G: FnOnce() -> R,
    CF: Fn(&FixpointResult<M::Config, M::Addr, M::Val>) -> Result<CanonSnapshot, NotComparable>,
    CR: Fn(&RefFixpointResult<M::Config, M::Addr, M::Val>) -> Result<CanonSnapshot, NotComparable>,
{
    let limits = EngineLimits::from_env;
    let handles = MODES.map(|mode| {
        (
            Engine::Pooled(mode),
            pool.submit::<Replicated, M>(mk(), limits(), mode),
        )
    });

    let canon =
        |r: &FixpointResult<M::Config, M::Addr, M::Val>| canon_fix(r).map_err(|e| e.to_string());
    let r = run_fixpoint_reference(&mut mk_ref(), limits());
    let mut out = vec![(Engine::Reference, canon_ref(&r).map_err(|e| e.to_string()))];
    for mode in MODES {
        let r = run_fixpoint_with(&mut mk(), limits(), mode);
        out.push((Engine::Sequential(mode), canon(&r)));
    }
    for mode in MODES {
        let r = run_fixpoint_parallel_on::<Sharded, M>(&mut mk(), PAR_THREADS, limits(), mode);
        out.push((Engine::Sharded(mode), canon(&r)));
    }
    for (engine, handle) in handles {
        out.push((engine, canon(&handle.wait().fixpoint)));
    }
    out
}

fn analysis_flag(analysis: Analysis) -> String {
    match analysis {
        Analysis::KCfa { k } => format!("--kcfa {k}"),
        Analysis::MCfa { m } => format!("--mcfa {m}"),
        Analysis::PolyKCfa { k } => format!("--poly {k}"),
    }
}

/// Writes a replayable failure artifact: the program, both normal
/// forms, and a README with the exact commands (and generator seed)
/// that reproduce the divergence.
#[allow(clippy::too_many_arguments)]
fn write_artifact(
    root: &std::path::Path,
    program: &CorpusProgram,
    analysis: Analysis,
    engine: Engine,
    reference_json: &str,
    divergent_json: &str,
    report: &cfa_core::DiffReport,
) -> PathBuf {
    let dir = root.join(format!(
        "{}--{}--{}",
        golden_slug(&program.name),
        golden_slug(&analysis.short_name()),
        golden_slug(&engine.to_string())
    ));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    std::fs::write(dir.join("program.scm"), &program.source).expect("write program");
    std::fs::write(dir.join("reference.json"), reference_json).expect("write reference snapshot");
    std::fs::write(dir.join("divergent.json"), divergent_json).expect("write divergent snapshot");
    let flag = analysis_flag(analysis);
    let replay_note = match &program.replay {
        Some(selection) => format!(
            "\nThe program came from the seeded generator; replay exactly this\n\
             program through every engine with:\n\n\
             ```\n\
             {selection} cargo run -p cfa-bench --release --bin corpus_diff\n\
             ```\n"
        ),
        None => String::new(),
    };
    let readme = format!(
        "# Divergent normal form: {name} [{analysis}] on {engine}\n\n\
         Reproduce with:\n\n\
         ```\n\
         cfa dump {flag} --backend reference --out reference.json program.scm\n\
         cfa dump {flag} {dump_flags} --out divergent.json program.scm\n\
         cfa compare reference.json divergent.json\n\
         ```\n\
         {replay_note}\n\
         First divergent facts:\n\n{report}\n",
        name = program.name,
        dump_flags = engine.dump_flags(),
        report = report.render(),
    );
    std::fs::write(dir.join("README.md"), readme).expect("write artifact README");
    dir
}

fn main() -> ExitCode {
    quiet_injected_panics();
    let pool = AnalysisPool::new(PoolConfig::from_env());
    let artifact_root = PathBuf::from(
        std::env::var("CFA_ARTIFACT_DIR").unwrap_or_else(|_| "target/corpus-diff".to_owned()),
    );
    let analyses = [
        Analysis::KCfa { k: 1 },
        Analysis::MCfa { m: 1 },
        Analysis::PolyKCfa { k: 1 },
    ];

    let programs = CorpusSelection::from_env().programs();
    let mut comparisons = 0usize;
    let mut divergences = 0usize;
    let mut not_comparable = 0usize;
    for program in &programs {
        let compiled = match cfa_syntax::compile(&program.source) {
            Ok(p) => Arc::new(p),
            Err(e) => {
                eprintln!("corpus_diff: {}: does not compile: {e}", program.name);
                not_comparable += 1;
                continue;
            }
        };
        let mut engines_run = 0usize;
        for analysis in analyses {
            let outcomes = match analysis {
                Analysis::KCfa { k } => sweep_engines(
                    &pool,
                    || KCfaMachine::new_owned(Arc::clone(&compiled), k),
                    || KCfaMachine::new_owned(Arc::clone(&compiled), k),
                    |r| cfa_core::canon_kcfa(&compiled, k, r),
                    |r| cfa_core::canon_kcfa_ref(&compiled, k, r),
                ),
                Analysis::MCfa { m } => sweep_engines(
                    &pool,
                    || FlatCfaMachine::new_owned(Arc::clone(&compiled), m, FlatPolicy::TopMFrames),
                    || FlatCfaMachine::new_owned(Arc::clone(&compiled), m, FlatPolicy::TopMFrames),
                    |r| cfa_core::canon_mcfa(&compiled, m, r),
                    |r| cfa_core::canon_mcfa_ref(&compiled, m, r),
                ),
                Analysis::PolyKCfa { k } => sweep_engines(
                    &pool,
                    || FlatCfaMachine::new_owned(Arc::clone(&compiled), k, FlatPolicy::LastKCalls),
                    || FlatCfaMachine::new_owned(Arc::clone(&compiled), k, FlatPolicy::LastKCalls),
                    |r| cfa_core::canon_poly_kcfa(&compiled, k, r),
                    |r| cfa_core::canon_poly_kcfa_ref(&compiled, k, r),
                ),
            };
            engines_run += outcomes.len();
            let reference = match &outcomes[0].1 {
                Ok(snapshot) => snapshot.clone(),
                Err(reason) => {
                    // No oracle: nothing on this pair is comparable.
                    for (engine, _) in &outcomes {
                        eprintln!(
                            "not comparable: {} [{analysis}] {engine}: {reason}",
                            program.name
                        );
                        not_comparable += 1;
                    }
                    continue;
                }
            };
            let reference_json = reference.to_json();
            for (engine, outcome) in &outcomes[1..] {
                comparisons += 1;
                match outcome {
                    Err(reason) => {
                        eprintln!(
                            "not comparable: {} [{analysis}] {engine}: {reason}",
                            program.name
                        );
                        not_comparable += 1;
                    }
                    Ok(snapshot) => {
                        let json = snapshot.to_json();
                        if json != reference_json {
                            divergences += 1;
                            let report = cfa_core::diff_snapshots(
                                &reference,
                                snapshot,
                                cfa_core::canon::DEFAULT_DIFF_LIMIT,
                            );
                            let dir = write_artifact(
                                &artifact_root,
                                program,
                                analysis,
                                *engine,
                                &reference_json,
                                &json,
                                &report,
                            );
                            eprintln!(
                                "DIVERGENCE: {} [{analysis}] {engine} — artifact at {}\n{}",
                                program.name,
                                dir.display(),
                                report.render()
                            );
                        }
                    }
                }
            }
        }
        println!("ok {} ({engines_run} engine configurations)", program.name);
    }
    pool.shutdown();

    println!(
        "corpus_diff: {} programs, {comparisons} comparisons, \
         {divergences} divergences, {not_comparable} not comparable",
        programs.len()
    );
    if divergences > 0 {
        ExitCode::FAILURE
    } else if not_comparable > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
