//! Pins the sequential engine's deterministic counters on the depth
//! sweep to the committed `BENCH_engine.json`.
//!
//! Iterations, joins, facts and the other counters below are exact
//! functions of the program, the engine's schedule and its store
//! operations: no clock and no thread count enters them. A change that
//! alters what the semi-naive sequential engine does to the store shows
//! up here as a moved counter. A change that means to move them re-runs
//! `engine_bench`, which rewrites the file.

use cfa_core::engine::{run_fixpoint, EngineLimits};
use cfa_core::kcfa::KCfaMachine;

/// The `semi_naive` counters pinned, in `BENCH_engine.json`'s names.
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

/// The committed `semi_naive` counters of one cell, in [`COUNTERS`]
/// order. `engine_bench` writes one cell per line.
fn committed(json: &str, program: &str, k: usize) -> Vec<u64> {
    let key = format!("{{\"program\": \"{program}\", \"k\": {k}, ");
    let line = json
        .lines()
        .find(|l| l.trim_start().starts_with(&key))
        .unwrap_or_else(|| panic!("BENCH_engine.json has no cell {program} k={k}"));
    let semi = line
        .split("\"semi_naive\": {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .unwrap_or_else(|| panic!("{program} k={k}: no semi_naive column"));
    COUNTERS
        .iter()
        .map(|name| {
            semi.split(&format!("\"{name}\": "))
                .nth(1)
                .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|digits| digits.parse().ok())
                .unwrap_or_else(|| panic!("{program} k={k}: no semi_naive {name}"))
        })
        .collect()
}

#[test]
fn sequential_counters_match_bench_engine_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let json = std::fs::read_to_string(path).expect("read BENCH_engine.json");
    let mut moved = Vec::new();
    for (name, source) in cfa_bench::depth_sweep_programs() {
        let program = cfa_syntax::compile(&source).expect("workload compiles");
        for k in cfa_bench::DEPTH_SWEEP_KS {
            let r = run_fixpoint(&mut KCfaMachine::new(&program, k), EngineLimits::default());
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
            let pinned = committed(&json, &name, k);
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
        "sequential counters moved (re-run engine_bench if intended):\n{}",
        moved.join("\n")
    );
}
