//! Engine benchmark — the interned delta-driven engine (in both
//! evaluation modes), the sharded parallel engine, and the retained
//! original engine, measured in the same process on the same workloads.
//!
//! Runs the depth-sweep k-CFA workload (the suite programs the
//! `depth_sweep` experiment uses, plus the paper's worst-case family)
//! through five engine configurations:
//!
//! * `semi_naive` — `cfa_core::engine::run_fixpoint` (the default:
//!   semi-naive delta-aware transfer functions);
//! * `new` — the same engine under `EvalMode::FullReeval`, i.e. the
//!   PR-2 sequential engine (full re-evaluation on every wakeup), kept
//!   as the baseline the semi-naive column is judged against;
//! * `sharded_1` / `sharded_2` — the shared address-sharded store
//!   backend (`cfa_core::shardstore::run_fixpoint_sharded`,
//!   semi-naive) at one and at two workers — same fixpoint,
//!   O(program) store memory. One worker runs a deterministic
//!   schedule, so `sharded_1`'s counters repeat exactly; two workers
//!   race, so `sharded_2`'s counters vary from run to run;
//! * `reference` — the retained pre-interning engine.
//!
//! Emits `BENCH_engine.json` with wall times, iteration counts, join
//! counts, **value-join volumes** (ids scanned by joins — the number
//! semi-naive evaluation shrinks), `delta_facts`, `delta_applies`
//! (narrowed application sites), **`store_bytes`** (approximate
//! store-resident bytes: the private store of a sequential run, the one
//! shared store for the sharded columns), and the scheduler counters
//! (`steals`, `failed_steals`, `idle_spins`, `park_timeouts`,
//! `inbox_batches`, `inbox_drains`), so future PRs have a perf
//! trajectory to compare against.
//!
//! Also measures the telemetry layer's disabled-path overhead with a
//! paired A/B on the heaviest cell (interp k=2): `CFA_TRACE=off` and
//! `CFA_TRACE=full` runs alternate in pairs in one process, and the
//! median per-pair off/full ratio must stay within 1.03x (recorded
//! under `trace_overhead` in the JSON).
//!
//! Usage: `cargo run -p cfa-bench --release --bin engine_bench`
//! (writes BENCH_engine.json into the current directory).

use cfa_core::engine::{run_fixpoint_with, EngineLimits, EvalMode, FixpointResult, Status};
use cfa_core::kcfa::KCfaMachine;
use cfa_core::reference::run_fixpoint_reference;
use cfa_core::shardstore::run_fixpoint_sharded;
use cfa_syntax::cps::CpsProgram;
use std::fmt::Write as _;
use std::time::Instant;

/// Worker counts of the sharded columns: one worker (deterministic,
/// the shared store's own cost) and two (this host's CPU count).
const SHARDED_WORKERS: [usize; 2] = [1, 2];

/// One measured engine run.
struct Cell {
    /// Why the run stopped — always `completed` today (cells assert
    /// it), recorded so an interrupted future cell is visible in the
    /// JSON instead of silently shaped like a fast run.
    status: &'static str,
    seconds: f64,
    iterations: u64,
    joins: u64,
    value_joins: u64,
    facts: usize,
    configs: usize,
    skipped: u64,
    wakeups: u64,
    delta_facts: u64,
    delta_applies: u64,
    store_bytes: u64,
    steals: u64,
    failed_steals: u64,
    idle_spins: u64,
    park_timeouts: u64,
    inbox_batches: u64,
    inbox_drains: u64,
}

/// A JSON-safe tag for a run status (the `Aborted` payload carries
/// free-form panic text; the tag alone is recorded).
fn status_tag(s: &Status) -> &'static str {
    match s {
        Status::Completed => "completed",
        Status::IterationLimit => "iteration_limit",
        Status::TimedOut => "timed_out",
        Status::Cancelled => "cancelled",
        Status::Aborted { .. } => "aborted",
    }
}

fn cell_of<C, A, V>(r: &FixpointResult<C, A, V>, seconds: f64) -> Cell
where
    A: Eq + std::hash::Hash + Clone,
    V: Eq + std::hash::Hash + Clone,
{
    Cell {
        status: status_tag(&r.status),
        seconds,
        iterations: r.iterations,
        joins: r.store.join_count(),
        value_joins: r.store.value_join_count(),
        facts: r.store.fact_count(),
        configs: r.config_count(),
        skipped: r.skipped,
        wakeups: r.wakeups,
        delta_facts: r.delta_facts,
        delta_applies: r.delta_applies,
        store_bytes: r.sched.store_resident_bytes,
        steals: r.sched.steals,
        failed_steals: r.sched.failed_steals,
        idle_spins: r.sched.idle_spins,
        park_timeouts: r.sched.park_timeouts,
        inbox_batches: r.sched.inbox_batches,
        inbox_drains: r.sched.inbox_drains,
    }
}

/// Best-of-N over one engine-runner closure.
fn best_of<F: FnMut() -> Cell>(runs: usize, mut run: F) -> Cell {
    let mut best: Option<Cell> = None;
    for _ in 0..runs {
        let cell = run();
        if best.as_ref().is_none_or(|b| cell.seconds < b.seconds) {
            best = Some(cell);
        }
    }
    best.expect("at least one run")
}

/// Best-of-N timing of the sequential delta engine on one cell.
fn run_new(program: &CpsProgram, k: usize, runs: usize, mode: EvalMode) -> Cell {
    best_of(runs, || {
        let mut machine = KCfaMachine::new(program, k);
        let start = Instant::now();
        let r = run_fixpoint_with(&mut machine, EngineLimits::default(), mode);
        let seconds = start.elapsed().as_secs_f64();
        assert!(r.status.is_complete(), "bench cells must complete");
        cell_of(&r, seconds)
    })
}

/// Best-of-N timing of the sharded parallel engine at `threads`
/// workers on one cell.
fn run_sharded(program: &CpsProgram, k: usize, runs: usize, threads: usize) -> Cell {
    best_of(runs, || {
        let mut machine = KCfaMachine::new(program, k);
        let start = Instant::now();
        let r = run_fixpoint_sharded(&mut machine, threads, EngineLimits::default());
        let seconds = start.elapsed().as_secs_f64();
        assert!(r.status.is_complete(), "bench cells must complete");
        cell_of(&r, seconds)
    })
}

/// Best-of-N timing of the reference engine on one cell.
fn run_reference(program: &CpsProgram, k: usize, runs: usize) -> Cell {
    best_of(runs, || {
        let mut machine = KCfaMachine::new(program, k);
        let start = Instant::now();
        let r = run_fixpoint_reference(&mut machine, EngineLimits::default());
        let seconds = start.elapsed().as_secs_f64();
        assert!(r.status.is_complete(), "bench cells must complete");
        Cell {
            status: status_tag(&r.status),
            seconds,
            iterations: r.iterations,
            joins: r.store.join_count(),
            value_joins: 0,
            facts: r.store.fact_count(),
            configs: r.config_count(),
            skipped: 0,
            wakeups: 0,
            delta_facts: 0,
            delta_applies: 0,
            store_bytes: 0,
            steals: 0,
            failed_steals: 0,
            idle_spins: 0,
            park_timeouts: 0,
            inbox_batches: 0,
            inbox_drains: 0,
        }
    })
}

/// The paired telemetry A/B runs at least this many pairs...
const OVERHEAD_MIN_PAIRS: usize = 9;
/// ...and until each arm has measured at least this many seconds.
const OVERHEAD_MIN_ARM_SECONDS: f64 = 1.0;

/// The paired A/B measurement of the disabled-trace path on one cell:
/// `(pairs, median off seconds, median full seconds, median per-pair
/// off/full ratio)`.
///
/// The pre-telemetry binary is gone, so the measurable same-binary
/// proxy runs `CFA_TRACE=off` against `CFA_TRACE=full` in one process:
/// the off path keeps only the full path's gate branch, so staying
/// within noise of the arm that pays for every ring write bounds the
/// disabled cost from above. Each off run is paired with a full run,
/// and which goes first alternates, so drift and bursts of stolen CPU
/// land on both runs of a pair; the ratio is taken per pair and its
/// median gated, so one descheduled run moves one pair, not an arm.
/// Pairs continue until each arm has measured
/// [`OVERHEAD_MIN_ARM_SECONDS`], so a faster cell still gets a sample
/// that long.
fn trace_overhead_ab(program: &CpsProgram, k: usize) -> (usize, f64, f64, f64) {
    let off = EngineLimits::default();
    let full = EngineLimits {
        trace: cfa_core::TraceConfig::full(),
        ..EngineLimits::default()
    };
    let time = |limits: &EngineLimits| -> f64 {
        let mut machine = KCfaMachine::new(program, k);
        let start = Instant::now();
        let r = run_fixpoint_with(&mut machine, limits.clone(), EvalMode::SemiNaive);
        let seconds = start.elapsed().as_secs_f64();
        assert!(r.status.is_complete(), "overhead cells must complete");
        seconds
    };
    // One unmeasured pair primes allocators and caches.
    time(&off);
    time(&full);
    let (mut off_samples, mut full_samples) = (Vec::new(), Vec::new());
    while off_samples.len() < OVERHEAD_MIN_PAIRS
        || off_samples.iter().sum::<f64>() < OVERHEAD_MIN_ARM_SECONDS
        || full_samples.iter().sum::<f64>() < OVERHEAD_MIN_ARM_SECONDS
    {
        if off_samples.len() % 2 == 0 {
            off_samples.push(time(&off));
            full_samples.push(time(&full));
        } else {
            full_samples.push(time(&full));
            off_samples.push(time(&off));
        }
    }
    let mut ratios: Vec<f64> = off_samples
        .iter()
        .zip(&full_samples)
        .map(|(off, full)| off / full.max(1e-9))
        .collect();
    let median = |samples: &mut Vec<f64>| -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    (
        ratios.len(),
        median(&mut off_samples),
        median(&mut full_samples),
        median(&mut ratios),
    )
}

fn cell_json(out: &mut String, tag: &str, c: &Cell) {
    let _ = write!(
        out,
        "\"{tag}\": {{\"status\": \"{}\", \"seconds\": {:.6}, \"iterations\": {}, \"joins\": {}, \
         \"value_joins\": {}, \"facts\": {}, \"configs\": {}, \"skipped\": {}, \
         \"wakeups\": {}, \"delta_facts\": {}, \"delta_applies\": {}, \
         \"store_bytes\": {}, \"steals\": {}, \"failed_steals\": {}, \
         \"idle_spins\": {}, \"park_timeouts\": {}, \"inbox_batches\": {}, \
         \"inbox_drains\": {}}}",
        c.status,
        c.seconds,
        c.iterations,
        c.joins,
        c.value_joins,
        c.facts,
        c.configs,
        c.skipped,
        c.wakeups,
        c.delta_facts,
        c.delta_applies,
        c.store_bytes,
        c.steals,
        c.failed_steals,
        c.idle_spins,
        c.park_timeouts,
        c.inbox_batches,
        c.inbox_drains
    );
}

fn main() {
    let workload = cfa_bench::depth_sweep_programs();

    let runs = 3;
    let mut rows: Vec<String> = Vec::new();
    let (mut total_semi, mut total_new, mut total_ref) = (0.0f64, 0.0f64, 0.0f64);
    let mut total_sh = [0.0f64; SHARDED_WORKERS.len()];
    let mut peak_facts = 0usize;

    println!(
        "{:>14} {:>3} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8} | {:>11} {:>11}",
        "program",
        "k",
        "semi (s)",
        "full (s)",
        "shard1(s)",
        "shard2(s)",
        "ref (s)",
        "semi-spd",
        "sh1-spd",
        "sh2-spd",
        "semi bytes",
        "shard bytes"
    );
    for (name, source) in &workload {
        let program = cfa_syntax::compile(source).expect("workload compiles");
        for k in cfa_bench::DEPTH_SWEEP_KS {
            let semi = run_new(&program, k, runs, EvalMode::SemiNaive);
            let new = run_new(&program, k, runs, EvalMode::FullReeval);
            let sharded = SHARDED_WORKERS.map(|threads| run_sharded(&program, k, runs, threads));
            let reference = run_reference(&program, k, runs);
            let columns = [
                ("semi-naive", &semi),
                ("full", &new),
                ("sharded@1", &sharded[0]),
                ("sharded@2", &sharded[1]),
            ];
            for (tag, cell) in columns {
                assert_eq!(
                    cell.facts, reference.facts,
                    "{name} k={k}: {tag} fixpoint diverges"
                );
                assert_eq!(
                    cell.configs, reference.configs,
                    "{name} k={k}: {tag} config counts diverge"
                );
            }
            assert!(
                semi.value_joins <= new.value_joins,
                "{name} k={k}: semi-naive scanned more ids"
            );
            total_semi += semi.seconds;
            total_new += new.seconds;
            total_ref += reference.seconds;
            for (total, cell) in total_sh.iter_mut().zip(&sharded) {
                *total += cell.seconds;
            }
            peak_facts = peak_facts.max(semi.facts);
            let speedup = reference.seconds / new.seconds.max(1e-9);
            let semi_speedup = new.seconds / semi.seconds.max(1e-9);
            let sharded_speedup = sharded
                .each_ref()
                .map(|cell| semi.seconds / cell.seconds.max(1e-9));
            println!(
                "{:>14} {:>3} | {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} | {:>7.2}x {:>7.2}x {:>7.2}x \
                 | {:>11} {:>11}",
                name,
                k,
                semi.seconds,
                new.seconds,
                sharded[0].seconds,
                sharded[1].seconds,
                reference.seconds,
                semi_speedup,
                sharded_speedup[0],
                sharded_speedup[1],
                semi.store_bytes,
                sharded[0].store_bytes
            );
            let mut row = String::new();
            let _ = write!(row, "    {{\"program\": \"{name}\", \"k\": {k}, ");
            cell_json(&mut row, "semi_naive", &semi);
            row.push_str(", ");
            cell_json(&mut row, "new", &new);
            for (threads, cell) in SHARDED_WORKERS.iter().zip(&sharded) {
                row.push_str(", ");
                cell_json(&mut row, &format!("sharded_{threads}"), cell);
            }
            row.push_str(", ");
            cell_json(&mut row, "reference", &reference);
            let _ = write!(
                row,
                ", \"speedup\": {speedup:.3}, \"speedup_semi_naive\": {semi_speedup:.3}"
            );
            for (threads, spd) in SHARDED_WORKERS.iter().zip(sharded_speedup) {
                let _ = write!(row, ", \"speedup_sharded_{threads}\": {spd:.3}");
            }
            row.push('}');
            rows.push(row);
        }
    }

    let speedup = total_ref / total_new.max(1e-9);
    let semi_speedup = total_new / total_semi.max(1e-9);
    let sharded_speedup = total_sh.map(|total| total_semi / total.max(1e-9));
    println!();
    println!(
        "total: semi-naive {total_semi:.3}s, full {total_new:.3}s, sharded@1 {:.3}s, \
         sharded@2 {:.3}s, reference {total_ref:.3}s — {semi_speedup:.2}x semi-naive vs full, \
         {speedup:.2}x full vs reference, {:.2}x sharded@1 and {:.2}x sharded@2 vs \
         semi-naive, peak {peak_facts} facts",
        total_sh[0], total_sh[1], sharded_speedup[0], sharded_speedup[1]
    );

    // Disabled-path telemetry overhead, measured not assumed: the gate
    // is `CFA_TRACE=off` wall clock <= 1.03x of `full` on interp k=2.
    let interp_src = &workload
        .iter()
        .find(|(n, _)| n == "interp")
        .expect("interp in workload")
        .1;
    let interp_prog = cfa_syntax::compile(interp_src).expect("workload compiles");
    let (overhead_repeats, trace_off_s, trace_full_s, trace_off_ratio) =
        trace_overhead_ab(&interp_prog, 2);
    println!(
        "telemetry overhead (interp k=2, {overhead_repeats} pairs): CFA_TRACE=off \
         {trace_off_s:.4}s vs full {trace_full_s:.4}s (median per-pair ratio \
         {trace_off_ratio:.3}x)"
    );
    assert!(
        trace_off_ratio <= 1.03,
        "disabled-trace path exceeded the 1.03x overhead gate ({trace_off_ratio:.3}x)"
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"engine depth-sweep k-CFA\",");
    let _ = writeln!(json, "  \"runs_per_cell\": {runs},");
    let _ = writeln!(json, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(json, "  \"total_seconds_semi_naive\": {total_semi:.6},");
    let _ = writeln!(json, "  \"total_seconds_new\": {total_new:.6},");
    for (threads, total) in SHARDED_WORKERS.iter().zip(total_sh) {
        let _ = writeln!(json, "  \"total_seconds_sharded_{threads}\": {total:.6},");
    }
    let _ = writeln!(json, "  \"total_seconds_reference\": {total_ref:.6},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"speedup_semi_naive\": {semi_speedup:.3},");
    for (threads, spd) in SHARDED_WORKERS.iter().zip(sharded_speedup) {
        let _ = writeln!(json, "  \"speedup_sharded_{threads}\": {spd:.3},");
    }
    let _ = writeln!(json, "  \"peak_fact_count\": {peak_facts},");
    let _ = writeln!(
        json,
        "  \"trace_overhead\": {{\"program\": \"interp\", \"k\": 2, \"repeats\": \
         {overhead_repeats}, \"off_seconds\": {trace_off_s:.6}, \"full_seconds\": \
         {trace_full_s:.6}, \"off_vs_full\": {trace_off_ratio:.3}}},"
    );
    let _ = writeln!(json, "  \"cells\": [");
    let _ = writeln!(json, "{}", rows.join(",\n"));
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_engine.json", json).expect("write BENCH_engine.json");
    eprintln!("wrote BENCH_engine.json");
}

/// Logical CPUs of the benchmarking host — parallel speedups are only
/// meaningful relative to this (a 1-CPU container timeslices the
/// workers instead of running them concurrently).
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
