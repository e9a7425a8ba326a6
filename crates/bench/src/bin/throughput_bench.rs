//! Pool throughput benchmark — the multi-tenant [`AnalysisPool`]
//! driving the whole workload suite concurrently.
//!
//! Submits every suite program (plus the paper's worst-case family at
//! n = 2/4/6) at k = 1 to one long-lived pool, several times over
//! (`CFA_THROUGHPUT_REPEATS`, default 3), and measures:
//!
//! * **analyses/sec** — jobs completed over the batch's wall clock;
//! * **latency percentiles** (p50/p95/p99) — per-job
//!   `queue_wait + elapsed`, i.e. admission to deposit;
//! * **queue wait** — mean and max time jobs spent waiting for a pool
//!   thread, reported separately because the pool does not bill it
//!   against a tenant's `time_budget`;
//! * **latency breakdown** — the same p50/p95/p99 split into its two
//!   components, per-request queue wait and eval time, so a latency
//!   regression is attributable to admission pressure vs slow
//!   fixpoints (merged under `throughput.latency_breakdown`).
//!
//! Every pooled fixpoint is checked *identical* (canonical configs +
//! store) to a solo `analyze_kcfa` run of the same program — the pool
//! must change scheduling, never results. The run aborts on any
//! non-`Completed` tenant or fixpoint divergence.
//!
//! Results are merged into `BENCH_engine.json` under a top-level
//! `"throughput"` key (replacing a previous throughput section,
//! preserving `engine_bench`'s cells). The pool is sized by
//! `CFA_POOL_THREADS` / `CFA_POOL_QUEUE_DEPTH`. A malformed knob exits
//! 2 with one line naming it, before any work.
//!
//! Usage: `cargo run -p cfa-bench --release --bin throughput_bench`
//! (merges into BENCH_engine.json in the current directory).

use cfa_core::engine::{EngineLimits, Status};
use cfa_core::kcfa::{analyze_kcfa, submit_kcfa, KcfaJob};
use cfa_core::parallel::Replicated;
use cfa_core::pool::{AnalysisPool, PoolConfig};
use cfa_syntax::cps::CpsProgram;
use cfa_testsupport::fixpoint_of;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The measured batch.
struct ThroughputRow {
    jobs: usize,
    wall_seconds: f64,
    analyses_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_queue_wait_ms: f64,
    max_queue_wait_ms: f64,
    /// Per-request queue-wait percentiles (ms) — the admission half of
    /// the end-to-end latency.
    queue_wait_pcts_ms: [f64; 3],
    /// Per-request eval-time percentiles (ms) — the fixpoint half.
    eval_pcts_ms: [f64; 3],
}

/// The benchmark corpus: every suite program plus the worst-case
/// family, compiled once and shared by reference with the tenants.
fn corpus() -> Vec<(String, Arc<CpsProgram>)> {
    let mut programs: Vec<(String, Arc<CpsProgram>)> = cfa_workloads::suite()
        .iter()
        .map(|p| {
            (
                p.name.to_owned(),
                Arc::new(cfa_syntax::compile(p.source).expect("suite program compiles")),
            )
        })
        .collect();
    for n in [2usize, 4, 6] {
        programs.push((
            format!("worst-case-{n}"),
            Arc::new(
                cfa_syntax::compile(&cfa_workloads::worst_case_source(n))
                    .expect("worst-case program compiles"),
            ),
        ));
    }
    programs
}

/// The latency at quantile `q` (0.0..=1.0) of a sorted sample, in ms.
fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] * 1e3
}

/// Pushes `repeats` copies of the corpus through one pool sized by
/// `config` and checks every pooled fixpoint against its solo baseline.
fn run_batch(
    config: &PoolConfig,
    programs: &[(String, Arc<CpsProgram>)],
    baselines: &[cfa_testsupport::Fixpoint<
        cfa_core::kcfa::KConfig,
        cfa_core::kcfa::AddrK,
        cfa_core::kcfa::ValK,
    >],
    repeats: usize,
) -> ThroughputRow {
    let pool = AnalysisPool::new(config.clone());
    let start = Instant::now();
    let jobs: Vec<(usize, KcfaJob)> = (0..repeats)
        .flat_map(|_| {
            programs.iter().enumerate().map(|(i, (_, p))| {
                (
                    i,
                    submit_kcfa::<Replicated>(&pool, Arc::clone(p), 1, EngineLimits::default()),
                )
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(jobs.len());
    let mut queue_waits: Vec<f64> = Vec::with_capacity(jobs.len());
    let mut eval_times: Vec<f64> = Vec::with_capacity(jobs.len());
    let count = jobs.len();
    for (i, job) in jobs {
        let r = job.wait();
        let name = &programs[i].0;
        assert_eq!(
            r.fixpoint.status,
            Status::Completed,
            "{name}: pooled run must complete"
        );
        assert_eq!(
            fixpoint_of(&r.fixpoint),
            baselines[i],
            "{name}: pooled fixpoint diverged from the solo run"
        );
        latencies.push((r.fixpoint.queue_wait + r.fixpoint.elapsed).as_secs_f64());
        queue_waits.push(r.fixpoint.queue_wait.as_secs_f64());
        eval_times.push(r.fixpoint.elapsed.as_secs_f64());
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    pool.shutdown();

    latencies.sort_by(f64::total_cmp);
    let mean_queue_wait = queue_waits.iter().sum::<f64>() / queue_waits.len() as f64;
    let max_queue_wait = queue_waits.iter().fold(0.0f64, |a, &b| a.max(b));
    queue_waits.sort_by(f64::total_cmp);
    eval_times.sort_by(f64::total_cmp);
    let pcts = |sorted: &[f64]| -> [f64; 3] {
        [
            percentile_ms(sorted, 0.50),
            percentile_ms(sorted, 0.95),
            percentile_ms(sorted, 0.99),
        ]
    };
    let analyses_per_sec = count as f64 / wall_seconds.max(1e-9);
    assert!(analyses_per_sec > 0.0, "throughput must be nonzero");
    ThroughputRow {
        jobs: count,
        wall_seconds,
        analyses_per_sec,
        p50_ms: percentile_ms(&latencies, 0.50),
        p95_ms: percentile_ms(&latencies, 0.95),
        p99_ms: percentile_ms(&latencies, 0.99),
        mean_queue_wait_ms: mean_queue_wait * 1e3,
        max_queue_wait_ms: max_queue_wait * 1e3,
        queue_wait_pcts_ms: pcts(&queue_waits),
        eval_pcts_ms: pcts(&eval_times),
    }
}

/// Replaces (or adds) the top-level `"throughput"` key of
/// `BENCH_engine.json`, preserving everything `engine_bench` wrote.
/// Both writers are in this crate, so the textual surgery is on a
/// known shape: the throughput section is always the last key.
fn merge_into_bench_json(section: &str) {
    let path = "BENCH_engine.json";
    let marker = ",\n  \"throughput\":";
    let base = match std::fs::read_to_string(path) {
        Ok(old) => match old.find(marker) {
            Some(pos) => old[..pos].to_owned(),
            None => old
                .trim_end()
                .strip_suffix('}')
                .expect("BENCH_engine.json is a JSON object")
                .trim_end()
                .to_owned(),
        },
        Err(_) => "{\n  \"benchmark\": \"engine depth-sweep k-CFA\"".to_owned(),
    };
    let merged = format!("{base},\n  \"throughput\": {section}\n}}\n");
    std::fs::write(path, merged).expect("write BENCH_engine.json");
    eprintln!("merged throughput table into BENCH_engine.json");
}

/// The batch shape the environment asks for: `CFA_THROUGHPUT_REPEATS`
/// (default 3) and the pool sizing. The error names the malformed
/// variable and its text.
fn knobs() -> Result<(usize, PoolConfig), String> {
    let repeats = match std::env::var("CFA_THROUGHPUT_REPEATS") {
        Ok(v) => v
            .parse()
            .map_err(|e| format!("CFA_THROUGHPUT_REPEATS={v:?}: {e}"))?,
        Err(_) => 3,
    };
    Ok((repeats, PoolConfig::try_from_env()?))
}

fn main() -> ExitCode {
    let (repeats, config) = match knobs() {
        Ok(knobs) => knobs,
        Err(e) => {
            eprintln!("throughput_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let programs = corpus();
    let baselines: Vec<_> = programs
        .iter()
        .map(|(_, p)| fixpoint_of(&analyze_kcfa(p, 1, EngineLimits::default()).fixpoint))
        .collect();

    let r = run_batch(&config, &programs, &baselines, repeats);

    println!(
        "{:>5} {:>9} {:>12} | {:>9} {:>9} {:>9} | {:>10} {:>10}",
        "jobs",
        "wall (s)",
        "analyses/s",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "qwait avg",
        "qwait max"
    );
    println!(
        "{:>5} {:>9.3} {:>12.1} | {:>9.3} {:>9.3} {:>9.3} | {:>10.3} {:>10.3}",
        r.jobs,
        r.wall_seconds,
        r.analyses_per_sec,
        r.p50_ms,
        r.p95_ms,
        r.p99_ms,
        r.mean_queue_wait_ms,
        r.max_queue_wait_ms
    );
    println!(
        "queue-wait p50/p95/p99 {:.3}/{:.3}/{:.3} ms | eval p50/p95/p99 {:.3}/{:.3}/{:.3} ms",
        r.queue_wait_pcts_ms[0],
        r.queue_wait_pcts_ms[1],
        r.queue_wait_pcts_ms[2],
        r.eval_pcts_ms[0],
        r.eval_pcts_ms[1],
        r.eval_pcts_ms[2]
    );
    println!(
        "pool: {} threads, queue depth {}, {} distinct programs x {} repeats — \
         every pooled fixpoint matched its solo run",
        config.threads,
        config.queue_depth,
        programs.len(),
        repeats
    );

    let pcts = |p: &[f64; 3]| {
        format!(
            "{{\"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}",
            p[0], p[1], p[2]
        )
    };
    let mut section = String::from("{\n");
    let _ = writeln!(section, "    \"pool_threads\": {},", config.threads);
    let _ = writeln!(section, "    \"queue_depth\": {},", config.queue_depth);
    let _ = writeln!(section, "    \"repeats\": {repeats},");
    let _ = writeln!(section, "    \"distinct_programs\": {},", programs.len());
    let _ = writeln!(
        section,
        "    \"jobs\": {}, \"wall_seconds\": {:.6}, \"analyses_per_sec\": {:.3}, \
         \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"mean_queue_wait_ms\": {:.3}, \"max_queue_wait_ms\": {:.3}, \"all_completed\": true,",
        r.jobs,
        r.wall_seconds,
        r.analyses_per_sec,
        r.p50_ms,
        r.p95_ms,
        r.p99_ms,
        r.mean_queue_wait_ms,
        r.max_queue_wait_ms
    );
    let _ = writeln!(
        section,
        "    \"latency_breakdown\": {{\"queue_wait\": {}, \"eval\": {}}}",
        pcts(&r.queue_wait_pcts_ms),
        pcts(&r.eval_pcts_ms)
    );
    section.push_str("  }");
    merge_into_bench_json(&section);
    ExitCode::SUCCESS
}
