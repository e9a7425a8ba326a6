//! Regression tests for the store backends: the sharded backend's
//! stale-snapshot wakeup protocol, and the store-bytes watermark's
//! snapshot-loss fallback.
//!
//! The differential suites (`engine_differential.rs`,
//! `semi_naive_prop.rs`) prove fixpoint agreement wholesale; the tests
//! here force the *specific* interleavings and degradations those
//! suites only hit probabilistically.

use cfa::analysis::engine::{
    run_fixpoint, run_fixpoint_with, AbstractMachine, EngineLimits, EvalMode, Status, TrackedStore,
};
use cfa::analysis::parallel::{ParallelMachine, Replicated};
use cfa::analysis::pool::{AnalysisPool, PoolConfig};
use cfa::analysis::shardstore::{run_fixpoint_sharded, run_fixpoint_sharded_with};
use cfa_testsupport::rendezvous::Rendezvous;
use std::sync::atomic::Ordering;

/// A reader whose snapshot goes stale before its dependency lands must
/// still be woken (sharded backend, 2 workers, many interleavings —
/// including both orders of the racing join/registration messages at
/// the owner).
#[test]
fn stale_snapshot_never_misses_a_wakeup() {
    for round in 0..25 {
        let mut machine = Rendezvous::new();
        let r = run_fixpoint_sharded(&mut machine, 2, EngineLimits::default());
        assert_eq!(r.status, Status::Completed, "round {round}");
        assert_eq!(
            r.store.read(&5),
            [42u8].into_iter().collect(),
            "round {round}: the write landed"
        );
        assert_eq!(
            r.store.read(&6),
            [42u8].into_iter().collect(),
            "round {round}: the reader re-ran after its stale snapshot and copied the value"
        );
    }
}

/// The rendezvous machine also converges under the sequential engine
/// (the flags are pre-resolved there: the writer runs to completion
/// before the reader's wakeup re-runs it), pinning the expected
/// fixpoint the sharded assertion above relies on.
#[test]
fn rendezvous_fixpoint_matches_sequential() {
    let mut machine = Rendezvous::new();
    // Sequential order: root, reader (⊥ snapshot; writer_joined is
    // still false, so the await times out fast only if the writer never
    // runs — pre-set the flag to keep the test instant).
    machine.writer_joined.store(true, Ordering::Release);
    machine.reader_in_step.store(true, Ordering::Release);
    let r = run_fixpoint(&mut machine, EngineLimits::default());
    assert_eq!(r.status, Status::Completed);
    assert_eq!(r.store.read(&5), [42u8].into_iter().collect());
    assert_eq!(r.store.read(&6), [42u8].into_iter().collect());
}

/// A feedback machine big enough to cross the engines' 64-pop
/// (`LIMIT_CHECK_CADENCE`) watermark cadence: configs `1..=n` each grow address 0, and the
/// copier (config 1000) semi-naively forwards **only the delta** of
/// address 0 into address 1. If a mid-run delta-log trim were unsound,
/// the copier would miss the values whose log span was dropped and
/// address 1 would end a strict subset of address 0.
struct Grower {
    writes: u16,
}

impl AbstractMachine for Grower {
    type Config = u16;
    type Addr = u16;
    type Val = u16;

    fn initial(&self) -> u16 {
        0
    }

    fn step(&mut self, c: &u16, s: &mut TrackedStore<'_, u16, u16>, out: &mut Vec<u16>) {
        match *c {
            0 => out.extend([1000, 1]),
            1000 => {
                let d = s.read_with_delta(&0);
                s.join_flow(&1, &d.new);
            }
            c if c <= self.writes => {
                s.join(&0, [c]);
                out.push(c + 1);
            }
            _ => {}
        }
    }
}

impl ParallelMachine for Grower {
    fn fork(&self) -> Self {
        Grower {
            writes: self.writes,
        }
    }
    fn absorb(&mut self, _worker: Self) {}
}

/// Engine-level watermark regression: a tiny `store_bytes_watermark`
/// forces delta-log trims *while the semi-naive copier is mid-flight*;
/// the snapshot-loss fallback must degrade its delta reads to full
/// re-evaluation, reaching the exact fixpoint anyway.
#[test]
fn watermark_trim_triggers_sound_full_reeval() {
    let limits = EngineLimits {
        store_bytes_watermark: Some(1),
        ..EngineLimits::default()
    };
    let r = run_fixpoint_with(&mut Grower { writes: 600 }, limits, EvalMode::SemiNaive);
    assert_eq!(r.status, Status::Completed);
    assert!(
        r.store.delta_log_floor() > 0,
        "the watermark trim must actually fire mid-run"
    );
    assert_eq!(r.store.read(&0), (1u16..=600).collect());
    assert_eq!(
        r.store.read(&1),
        r.store.read(&0),
        "post-trim delta reads degraded to full — no value lost"
    );

    // Control: the same run without a watermark never trims.
    let clean = run_fixpoint_with(
        &mut Grower { writes: 600 },
        EngineLimits::default(),
        EvalMode::SemiNaive,
    );
    assert_eq!(clean.store.delta_log_floor(), 0);
    assert_eq!(clean.store.read(&1), r.store.read(&1));
}

/// The watermark is honored by both fabric backends too: a pool
/// tenant trims its private store, the sharded workers trim the shared
/// one, and the fixpoint is unaffected.
#[test]
fn watermark_is_sound_under_both_parallel_backends() {
    let limits = EngineLimits {
        store_bytes_watermark: Some(1),
        ..EngineLimits::default()
    };
    let expect = run_fixpoint(&mut Grower { writes: 600 }, EngineLimits::default());
    let pool = AnalysisPool::new(PoolConfig::default());
    let tenant = pool
        .submit::<Replicated, _>(Grower { writes: 600 }, limits.clone(), EvalMode::SemiNaive)
        .wait()
        .fixpoint;
    pool.shutdown();
    assert_eq!(tenant.status, Status::Completed, "pool tenant");
    assert!(
        tenant.store.delta_log_floor() > 0,
        "the tenant's watermark trim must actually fire mid-run"
    );
    assert_eq!(tenant.store.read(&0), expect.store.read(&0));
    assert_eq!(tenant.store.read(&1), expect.store.read(&1));
    for threads in [2, 3] {
        let sh = run_fixpoint_sharded_with(
            &mut Grower { writes: 600 },
            threads,
            limits.clone(),
            EvalMode::SemiNaive,
        );
        assert_eq!(sh.status, Status::Completed, "sharded threads={threads}");
        assert_eq!(sh.store.read(&0), expect.store.read(&0));
        assert_eq!(sh.store.read(&1), expect.store.read(&1));
    }
}

/// One evaluation that writes 32 rows: the address-id hash spreads
/// those rows over every shard, so whichever single worker evaluates
/// the config *must* route joins to owners it is not — deterministic
/// message traffic, independent of scheduling.
struct WideWriter;

impl AbstractMachine for WideWriter {
    type Config = u8;
    type Addr = u8;
    type Val = u8;

    fn initial(&self) -> u8 {
        0
    }

    fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
        if *c == 0 {
            for a in 0..32u8 {
                s.join(&a, [1u8]);
            }
            out.push(1);
        } else {
            let _ = s.read(&0);
        }
    }
}

impl ParallelMachine for WideWriter {
    fn fork(&self) -> Self {
        WideWriter
    }
    fn absorb(&mut self, _worker: Self) {}
}

/// Scheduler observability: the counters land in `FixpointResult` and
/// are plausible — a sequential run reports resident bytes only, a
/// sharded run at several workers reports message traffic.
#[test]
fn sched_stats_are_populated() {
    let seq = run_fixpoint(&mut Grower { writes: 100 }, EngineLimits::default());
    assert!(seq.sched.store_resident_bytes > 0);
    assert_eq!(seq.sched.steals, 0);
    assert_eq!(seq.sched.inbox_batches, 0);

    let sh = run_fixpoint_sharded(&mut WideWriter, 3, EngineLimits::default());
    assert_eq!(sh.status, Status::Completed);
    assert!(sh.sched.store_resident_bytes > 0);
    assert!(
        sh.sched.inbox_batches > 0,
        "32 rows span all 3 owners, so the writer must route joins"
    );
    assert!(sh.sched.max_inbox_depth >= 1);
    for a in 0..32u8 {
        assert_eq!(sh.store.read(&a), [1u8].into_iter().collect(), "row {a}");
    }
}
