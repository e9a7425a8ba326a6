//! Pins the deterministic counters of the one-worker engines on the
//! depth sweep to the committed `BENCH_engine.json`: the sequential
//! engine (`semi_naive`) and the sharded engine at one worker
//! (`sharded_1`).
//!
//! Iterations, joins, facts and the other counters below are exact
//! functions of the program, the engine's schedule and its store
//! operations: no clock enters them, and a one-worker run has one
//! schedule. A change that alters what either engine does to its store
//! shows up here as a moved counter. A change that means to move them
//! re-runs `engine_bench`, which rewrites the file. The two-worker
//! column (`sharded_2`) races, so its counters are not pinned.

use cfa_core::engine::{run_fixpoint, EngineLimits, FixpointResult};
use cfa_core::kcfa::{AddrK, KCfaMachine, KConfig, ValK};
use cfa_core::shardstore::run_fixpoint_sharded;
use cfa_syntax::cps::CpsProgram;

/// The counters pinned, in `BENCH_engine.json`'s names.
const COUNTERS: [&str; 9] = [
    "iterations",
    "joins",
    "value_joins",
    "facts",
    "configs",
    "wakeups",
    "delta_facts",
    "delta_applies",
    "store_bytes",
];

/// The committed counters of one cell's `column`, in [`COUNTERS`]
/// order. `engine_bench` writes one cell per line.
fn committed(json: &str, program: &str, k: usize, column: &str) -> Vec<u64> {
    let key = format!("{{\"program\": \"{program}\", \"k\": {k}, ");
    let line = json
        .lines()
        .find(|l| l.trim_start().starts_with(&key))
        .unwrap_or_else(|| panic!("BENCH_engine.json has no cell {program} k={k}"));
    let cell = line
        .split(&format!("\"{column}\": {{"))
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .unwrap_or_else(|| panic!("{program} k={k}: no {column} column"));
    COUNTERS
        .iter()
        .map(|name| {
            cell.split(&format!("\"{name}\": "))
                .nth(1)
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|digits| digits.parse().ok())
                .unwrap_or_else(|| panic!("{program} k={k}: no {column} {name}"))
        })
        .collect()
}

/// Runs `engine` on every depth-sweep cell and asserts its counters
/// equal the committed `column`.
fn assert_pinned(
    column: &str,
    engine: impl Fn(&CpsProgram, usize) -> FixpointResult<KConfig, AddrK, ValK>,
) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let json = std::fs::read_to_string(path).expect("read BENCH_engine.json");
    let mut moved = Vec::new();
    for (name, source) in cfa_bench::depth_sweep_programs() {
        let program = cfa_syntax::compile(&source).expect("workload compiles");
        for k in cfa_bench::DEPTH_SWEEP_KS {
            let r = engine(&program, k);
            assert!(r.status.is_complete(), "{name} k={k}: {:?}", r.status);
            let measured = [
                r.iterations,
                r.store.join_count(),
                r.store.value_join_count(),
                r.store.fact_count() as u64,
                r.config_count() as u64,
                r.wakeups,
                r.delta_facts,
                r.delta_applies,
                r.sched.store_resident_bytes,
            ];
            let pinned = committed(&json, &name, k, column);
            for ((counter, want), got) in COUNTERS.iter().zip(pinned).zip(measured) {
                if want != got {
                    moved.push(format!(
                        "{name} k={k} {counter}: committed {want}, ran {got}"
                    ));
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{column} counters moved (re-run engine_bench if intended):\n{}",
        moved.join("\n")
    );
}

#[test]
fn sequential_counters_match_bench_engine_json() {
    assert_pinned("semi_naive", |program, k| {
        run_fixpoint(&mut KCfaMachine::new(program, k), EngineLimits::default())
    });
}

#[test]
fn one_worker_sharded_counters_match_bench_engine_json() {
    assert_pinned("sharded_1", |program, k| {
        let r = run_fixpoint_sharded(
            &mut KCfaMachine::new(program, k),
            1,
            EngineLimits::default(),
        );
        assert_eq!(r.skipped, 0, "one worker never reaches the epoch gate");
        r
    });
}
