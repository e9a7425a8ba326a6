//! Trace-correctness tests for the telemetry layer: every engine's
//! counters must be mirrored exactly by its merged trace, rings must
//! degrade predictably (drop-oldest + `truncated`), and a disabled
//! trace must change nothing about the fixpoint.

use cfa::analysis::engine::{run_fixpoint_with, EngineLimits, EvalMode};
use cfa::analysis::kcfa::KCfaMachine;
use cfa::analysis::parallel::{run_fixpoint_parallel_on, Replicated, Sharded};
use cfa::analysis::pool::{AnalysisPool, PoolConfig};
use cfa::analysis::telemetry::{TraceConfig, TraceEventKind, TraceLevel};
use cfa::analysis::Status;
use cfa_testsupport::{fixpoint_of, PAR_THREADS};

/// A suite program with enough fan-out that parallel runs steal, wake,
/// and skip (the same source family the differential suites chew on).
fn program() -> cfa::CpsProgram {
    cfa::compile(&cfa::workloads::fn_program(2, 2)).expect("suite program compiles")
}

fn limits_at(trace: TraceConfig) -> EngineLimits {
    EngineLimits {
        trace,
        ..EngineLimits::default()
    }
}

/// The core trace invariant, per run: the engine's `iterations` and
/// `skipped` counters equal the merged trace's eval/skip event totals
/// (counts are exact even if rings truncate).
fn assert_trace_matches_counters<C, A, V>(
    label: &str,
    r: &cfa::analysis::engine::FixpointResult<C, A, V>,
) {
    assert_eq!(r.status, Status::Completed, "{label}");
    assert_eq!(
        r.trace.count(TraceEventKind::EvalStart),
        r.iterations,
        "{label}: every iteration emits an eval-start"
    );
    assert_eq!(
        r.trace.count(TraceEventKind::EvalEnd),
        r.iterations,
        "{label}: eval starts and ends stay paired"
    );
    assert_eq!(
        r.trace.count(TraceEventKind::GateSkip),
        r.skipped,
        "{label}: every gate skip emits a skip event"
    );
}

/// `iterations + skipped` has a matching eval/skip event in the merged
/// trace — sequential and sharded, both eval modes (pool tenants are
/// held to the same invariant in `pool_jobs_trace_quanta_and_metrics_count_them`).
#[test]
fn eval_and_skip_events_match_engine_counters_everywhere() {
    let p = program();
    for mode in [EvalMode::SemiNaive, EvalMode::FullReeval] {
        for level in [TraceConfig::counters(), TraceConfig::full()] {
            let seq = run_fixpoint_with(&mut KCfaMachine::new(&p, 1), limits_at(level), mode);
            assert_trace_matches_counters(&format!("sequential {mode:?} {level:?}"), &seq);

            let s = run_fixpoint_parallel_on::<Sharded, _>(
                &mut KCfaMachine::new(&p, 1),
                PAR_THREADS,
                limits_at(level),
                mode,
            );
            assert_trace_matches_counters(&format!("sharded {mode:?} {level:?}"), &s);
        }
    }
}

/// Satellite of the counter-assembly fix: a two-worker run's totals
/// equal the sum over the per-worker lanes — nothing is dropped when
/// worker reports fold into the result.
#[test]
fn two_worker_totals_equal_sum_of_per_worker_rings() {
    let p = program();
    let r = run_fixpoint_parallel_on::<Sharded, _>(
        &mut KCfaMachine::new(&p, 1),
        2,
        limits_at(TraceConfig::full()),
        EvalMode::SemiNaive,
    );
    assert_eq!(r.status, Status::Completed);
    assert_eq!(r.trace.workers.len(), 2, "one lane per worker");
    let lane_sum = |kind| -> u64 { r.trace.workers.iter().map(|w| w.count(kind)).sum() };
    assert_eq!(
        lane_sum(TraceEventKind::EvalStart),
        r.iterations,
        "iterations == Σ per-worker eval events"
    );
    assert_eq!(
        lane_sum(TraceEventKind::GateSkip),
        r.skipped,
        "skips == Σ per-worker skip events"
    );
    for lane in &r.trace.workers {
        let ts: Vec<u64> = lane.events.iter().map(|e| e.t_us).collect();
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "lane {} timestamps are monotone",
            lane.worker
        );
    }
}

/// `CFA_TRACE=off` (the default [`TraceConfig::off`]) yields an empty
/// trace and the bit-identical fixpoint of a fully traced run.
#[test]
fn disabled_trace_is_empty_and_changes_nothing() {
    let p = program();
    let off = run_fixpoint_with(
        &mut KCfaMachine::new(&p, 1),
        limits_at(TraceConfig::off()),
        EvalMode::SemiNaive,
    );
    let full = run_fixpoint_with(
        &mut KCfaMachine::new(&p, 1),
        limits_at(TraceConfig::full()),
        EvalMode::SemiNaive,
    );
    assert!(off.trace.is_empty(), "off-level trace records nothing");
    assert_eq!(off.trace.workers.len(), 0, "off-level runs carry no lanes");
    assert_eq!(off.trace.level, TraceLevel::Off);
    assert_eq!(
        fixpoint_of(&off),
        fixpoint_of(&full),
        "tracing must not perturb the fixpoint"
    );
    assert_eq!(off.iterations, full.iterations, "deterministic sequential");
    assert_eq!(off.skipped, full.skipped);
}

/// A ring far smaller than the run truncates (drop-oldest, flag set)
/// while the per-kind counts stay exact.
#[test]
fn tiny_rings_truncate_but_counts_stay_exact() {
    let p = program();
    let tiny = TraceConfig {
        level: TraceLevel::Full,
        ring_capacity: 8,
    };
    let r = run_fixpoint_with(
        &mut KCfaMachine::new(&p, 1),
        limits_at(tiny),
        EvalMode::SemiNaive,
    );
    assert_eq!(r.status, Status::Completed);
    assert!(r.iterations > 8, "the run must overflow the ring");
    assert!(r.trace.truncated(), "overflow sets the truncated flag");
    assert_eq!(r.trace.event_count(), 8, "ring holds exactly its capacity");
    assert_eq!(
        r.trace.count(TraceEventKind::EvalStart),
        r.iterations,
        "counts never drop under truncation"
    );
    // Drop-oldest: the surviving ring is the run's tail, so its last
    // event is the run's last emit (an eval end), not its first.
    let lane = &r.trace.workers[0];
    assert_eq!(
        lane.events.last().map(|e| e.kind),
        Some(TraceEventKind::EvalEnd),
        "the newest event survives"
    );
}

/// Pool tenants trace across quanta (suspend/resume events land in the
/// job's own lane) and the pool's metrics count the work.
#[test]
fn pool_jobs_trace_quanta_and_metrics_count_them() {
    let program = std::sync::Arc::new(program());
    let pool = AnalysisPool::new(PoolConfig {
        threads: 2,
        ..PoolConfig::default()
    });
    let before = pool.metrics();
    assert_eq!(before.threads, 2);
    assert_eq!(before.submitted, 0);

    let jobs: Vec<_> = (0..3)
        .map(|_| {
            cfa::analysis::kcfa::submit_kcfa::<Replicated>(
                &pool,
                std::sync::Arc::clone(&program),
                1,
                limits_at(TraceConfig::full()),
            )
        })
        .collect();
    for job in jobs {
        let r = job.wait();
        assert!(r.metrics.status.is_complete());
        assert_eq!(
            r.fixpoint.trace.count(TraceEventKind::EvalStart),
            r.fixpoint.iterations,
            "tenant lanes carry the same eval invariant"
        );
        assert!(
            r.fixpoint.trace.count(TraceEventKind::TenantResume) >= 1,
            "every pool run resumes at least once"
        );
        assert_eq!(
            r.fixpoint.trace.count(TraceEventKind::TenantResume),
            r.fixpoint.trace.count(TraceEventKind::TenantSuspend),
            "every quantum brackets its work with resume/suspend"
        );
    }

    let after = pool.metrics();
    assert_eq!(after.submitted, 3);
    assert_eq!(after.finished, 3);
    assert_eq!(after.activated, 3);
    assert!(after.quanta >= 3, "at least one quantum per job");
    assert_eq!(after.live, 0, "nothing left queued or active");
    assert_eq!(after.queued, 0);
    let json = after.to_json();
    assert!(
        json.starts_with('{') && json.ends_with('}') && json.contains("\"finished\":3"),
        "one-line JSON shape: {json}"
    );
    pool.shutdown();
}
