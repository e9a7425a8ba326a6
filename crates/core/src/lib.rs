//! Abstract interpreters for the k-CFA paradox reproduction.
//!
//! This crate implements the four CPS control-flow analyses the paper
//! compares (§6), all as instances of one worklist engine over a
//! single-threaded store:
//!
//! | Analysis | Module | Environments | Context | Complexity |
//! |---|---|---|---|---|
//! | k-CFA | [`kcfa`] | shared (maps) | last k calls | EXPTIME (k ≥ 1) |
//! | naive k-CFA | [`naive`] | shared (maps) | last k calls | per-state stores (§3.6) |
//! | m-CFA | [`flatcfa`] | flat (call string) | top m frames | PTIME |
//! | poly k-CFA | [`flatcfa`] | flat (call string) | last k calls | PTIME, weak precision |
//!
//! `k = 0` and `m = 0` coincide (context-insensitive 0CFA).
//!
//! # Examples
//!
//! ```
//! use cfa_core::{analyze, Analysis};
//! use cfa_core::engine::EngineLimits;
//!
//! let p = cfa_syntax::compile("(define (id x) x) (id 42)").unwrap();
//! let k1 = analyze(&p, Analysis::KCfa { k: 1 }, EngineLimits::default());
//! let m1 = analyze(&p, Analysis::MCfa { m: 1 }, EngineLimits::default());
//! assert_eq!(k1.halt_values, m1.halt_values);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod callgraph;
pub mod canon;
pub mod constraints;
pub mod domain;
pub mod engine;
pub mod fabric;
pub mod flatcfa;
pub mod fxhash;
pub mod gc;
pub mod kcfa;
pub mod naive;
pub mod parallel;
pub mod pool;
pub mod prim;
pub mod races;
pub mod reference;
pub mod report;
pub mod results;
pub mod shardstore;
pub mod soundness;
pub mod store;
pub mod telemetry;
pub mod zerocfa_datalog;

pub use canon::{
    canon_kcfa, canon_kcfa_ref, canon_mcfa, canon_mcfa_ref, canon_poly_kcfa, canon_poly_kcfa_ref,
    diff_snapshots, CanonSnapshot, DiffReport, MalformedSnapshot, NotComparable,
};
pub use domain::{AVal, AbsBasic, CallString};
pub use engine::{DeltaFlow, EngineLimits, EvalMode, Status};
pub use flatcfa::{
    analyze_mcfa, analyze_poly_kcfa, submit_mcfa, submit_poly_kcfa, FlatCfaResult, FlatJob,
    FlatPolicy,
};
pub use kcfa::{analyze_kcfa, KcfaResult};
pub use naive::{
    analyze_kcfa_naive, analyze_kcfa_naive_gamma, analyze_kcfa_naive_with, Count, GammaOptions,
    NaiveLimits, NaiveResult,
};
pub use parallel::{run_fixpoint_parallel_on, ParallelMachine, Replicated, Sharded, StoreBackend};
pub use pool::{AnalysisPool, JobHandle, PoolBackend, PoolConfig, PoolMetrics, PoolRun};
pub use races::{races_kcfa, races_mcfa, races_poly_kcfa, Race, RaceKind, RaceReport};
pub use results::Metrics;
pub use shardstore::{run_fixpoint_sharded, run_fixpoint_sharded_with};
pub use telemetry::{PhaseProfile, RunTrace, TraceConfig, TraceEventKind, TraceLevel};
pub use zerocfa_datalog::{solve_zerocfa_datalog, ZeroCfaDatalog};

use cfa_syntax::cps::CpsProgram;

/// How an abstract machine holds the program it analyzes.
///
/// The direct entry points ([`analyze_kcfa`] and friends) borrow the
/// caller's program — no ownership change, no reference counting. Pool
/// tenants ([`pool::AnalysisPool`]) outlive the submitting frame, so
/// they hold shared ownership instead; [`kcfa::KCfaMachine::new_owned`]
/// builds a `'static` machine from an `Arc`. `Deref` makes the two
/// indistinguishable to the machine's transfer functions.
#[derive(Debug, Clone)]
pub enum ProgramSource<'p> {
    /// Borrowed from the caller (the direct, run-to-completion entry
    /// points).
    Borrowed(&'p CpsProgram),
    /// Shared ownership, for machines that outlive the submitting
    /// stack frame (pool tenants).
    Owned(std::sync::Arc<CpsProgram>),
}

impl std::ops::Deref for ProgramSource<'_> {
    type Target = CpsProgram;

    fn deref(&self) -> &CpsProgram {
        match self {
            ProgramSource::Borrowed(p) => p,
            ProgramSource::Owned(p) => p,
        }
    }
}

/// Which analysis to run (the four columns of the paper's §6 tables).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Analysis {
    /// Shared-environment k-CFA (`k = 0` is 0CFA).
    KCfa {
        /// Context depth.
        k: usize,
    },
    /// m-CFA (flat environments, top-m frames).
    MCfa {
        /// Context depth.
        m: usize,
    },
    /// Naive polynomial k-CFA (flat environments, last-k call sites).
    PolyKCfa {
        /// Context depth.
        k: usize,
    },
}

impl Analysis {
    /// A short display name, e.g. `k=1`, `m=1`, `poly k=1`.
    pub fn short_name(self) -> String {
        match self {
            Analysis::KCfa { k } => format!("k={k}"),
            Analysis::MCfa { m } => format!("m={m}"),
            Analysis::PolyKCfa { k } => format!("poly k={k}"),
        }
    }

    /// The standard panel of analyses compared in the paper's tables.
    pub fn paper_panel() -> [Analysis; 4] {
        [
            Analysis::KCfa { k: 1 },
            Analysis::MCfa { m: 1 },
            Analysis::PolyKCfa { k: 1 },
            Analysis::KCfa { k: 0 },
        ]
    }
}

impl std::fmt::Display for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.short_name())
    }
}

/// Runs the selected analysis and returns its summary metrics.
pub fn analyze(program: &CpsProgram, analysis: Analysis, limits: EngineLimits) -> Metrics {
    match analysis {
        Analysis::KCfa { k } => analyze_kcfa(program, k, limits).metrics,
        Analysis::MCfa { m } => analyze_mcfa(program, m, limits).metrics,
        Analysis::PolyKCfa { k } => analyze_poly_kcfa(program, k, limits).metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_names_are_distinct() {
        let names: std::collections::BTreeSet<String> = Analysis::paper_panel()
            .iter()
            .map(|a| a.short_name())
            .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn analyze_dispatches_all_kinds() {
        let p = cfa_syntax::compile("((lambda (x) x) 1)").unwrap();
        for a in Analysis::paper_panel() {
            let m = analyze(&p, a, EngineLimits::default());
            assert!(m.status.is_complete(), "{a}");
            assert!(m.halt_values.contains("1"), "{a}");
        }
    }

    #[test]
    fn zero_context_analyses_agree() {
        // [m=0]CFA and [k=0]CFA are the same analysis (paper §5.3) — halt
        // sets and inlining counts must coincide.
        let src = "(define (compose f g) (lambda (x) (f (g x))))
                   (define (inc n) (+ n 1))
                   ((compose inc inc) 1)";
        let p = cfa_syntax::compile(src).unwrap();
        let k0 = analyze(&p, Analysis::KCfa { k: 0 }, EngineLimits::default());
        let m0 = analyze(&p, Analysis::MCfa { m: 0 }, EngineLimits::default());
        let p0 = analyze(&p, Analysis::PolyKCfa { k: 0 }, EngineLimits::default());
        assert_eq!(k0.halt_values, m0.halt_values);
        assert_eq!(k0.halt_values, p0.halt_values);
        assert_eq!(k0.singleton_user_calls, m0.singleton_user_calls);
        assert_eq!(k0.singleton_user_calls, p0.singleton_user_calls);
        assert_eq!(k0.call_targets, m0.call_targets);
    }
}
