//! Fabric-level regression tests: every engine but the reference oracle
//! — the sequential engine and the pool tenant (one worker over a
//! private store) as much as the sharded multi-worker backend — runs
//! through the one generic loop (`cfa_core::fabric`), so the scheduling
//! invariants must hold *identically* for all of them — this file pins
//! them, guarding against backend-specific drift returning.
//!
//! The load-bearing counter identity, asserted on every completed run:
//!
//! ```text
//! iterations + skipped == config_count + wakeups
//! ```
//!
//! Every fresh configuration is deduplicated once and popped exactly
//! once (`config_count` pops), every enqueued wakeup is popped exactly
//! once (`wakeups` pops — a wake that finds its configuration already
//! queued enqueues and counts nothing), and every pop either evaluates
//! (`iterations`) or dies at the epoch gate (`skipped`). A lost wakeup
//! breaks the identity from the right (a scheduled wake never popped
//! would also deadlock termination — the fabric's pending counter is
//! asserted zero on completion inside `Fabric::finish`); a
//! double-delivered or phantom pop breaks it from the left. One-worker
//! runs never reach the gate (`skipped == 0`): their dependency lists
//! are exact and their wake queue holds each configuration once.
//!
//! Every completed run here also ends with zero park timeouts: an idle
//! worker parks until another worker gives it work, and these runs end
//! far inside one park timeout, so a park that timed out is a lost
//! wakeup.

use cfa::analysis::engine::{AbstractMachine, EngineLimits, EvalMode, Status, TrackedStore};
use cfa::analysis::parallel::{run_fixpoint_parallel_on, ParallelMachine, Replicated, Sharded};
use cfa::analysis::pool::{AnalysisPool, PoolConfig};
use cfa_testsupport::assert_no_park_timeout;
use cfa_testsupport::rendezvous::{await_flag, Rendezvous};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A feedback machine whose fixpoint needs many cross-config wakeups —
/// dense scheduling traffic without forced interleavings. Config 4
/// reads two rows that grow one step apart, so it is woken again while
/// its first wakeup is still queued.
struct Feedback;

impl AbstractMachine for Feedback {
    type Config = u8;
    type Addr = u8;
    type Val = u8;

    fn initial(&self) -> u8 {
        0
    }

    fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
        if *c == 0 {
            s.join(&0, [1u8]);
            out.extend([1, 2, 3, 4]);
        } else if *c == 4 {
            let _ = s.read(&0);
            let _ = s.read(&1);
        } else {
            let seen = s.read(&(*c % 3));
            let next: Vec<u8> = seen
                .iter()
                .map(|id| *s.val(id))
                .filter(|&v| v < 60)
                .map(|v| v + 1)
                .collect();
            s.join(&((*c + 1) % 3), next);
        }
    }
}

impl ParallelMachine for Feedback {
    fn fork(&self) -> Self {
        Feedback
    }
    fn absorb(&mut self, _worker: Self) {}
}

/// Asserts the fabric counter identity on a completed run, and that no
/// worker waited out a park timeout.
fn assert_sched_identity<C, A, V>(r: &cfa::analysis::engine::FixpointResult<C, A, V>, label: &str) {
    assert_eq!(r.status, Status::Completed, "{label}");
    assert_no_park_timeout(label, &r.sched);
    assert_eq!(
        r.iterations + r.skipped,
        r.config_count() as u64 + r.wakeups,
        "{label}: every fresh config and every scheduled wakeup must be \
         popped exactly once (iterations {} + skipped {} vs configs {} + \
         wakeups {})",
        r.iterations,
        r.skipped,
        r.config_count(),
        r.wakeups
    );
}

/// The forced stale-snapshot interleaving through the fabric loop
/// (it needs two workers, so it runs on the sharded backend): no
/// wakeup may be lost and the counter identity must hold.
#[test]
fn rendezvous_sched_invariants_hold_on_the_sharded_fabric() {
    for round in 0..10 {
        let mut machine = Rendezvous::new();
        let r = run_fixpoint_parallel_on::<Sharded, _>(
            &mut machine,
            2,
            EngineLimits::default(),
            EvalMode::SemiNaive,
        );
        let label = format!("round {round}");
        assert_sched_identity(&r, &label);
        assert_eq!(
            r.store.read(&5),
            [42u8].into_iter().collect(),
            "{label}: the write landed"
        );
        assert_eq!(
            r.store.read(&6),
            [42u8].into_iter().collect(),
            "{label}: the reader re-ran after its stale snapshot"
        );
    }
}

/// Dense wakeup traffic through the unified driver: the counter
/// identity and the fixpoint hold for the sharded backend across
/// thread counts and for a pool tenant whose run spans many quanta, in
/// both modes.
///
/// The tenant also guards `WorkerCtx::suspend`/`resume`: a counter
/// dropped while parking between quanta breaks the identity. That
/// covers `iterations` and `wakeups`, not `skipped`: a one-worker run
/// keeps it at zero (asserted below).
#[test]
fn feedback_sched_invariants_hold_for_both_backends() {
    let expect = cfa::analysis::engine::run_fixpoint(&mut Feedback, EngineLimits::default());
    let check = |r: &cfa::analysis::engine::FixpointResult<u8, u8, u8>, label: &str| {
        assert_sched_identity(r, label);
        for a in 0..3u8 {
            assert_eq!(
                r.store.read(&a),
                expect.store.read(&a),
                "{label}: fixpoint agrees with sequential"
            );
        }
        assert_eq!(r.config_count(), expect.config_count(), "{label}");
    };
    for mode in [EvalMode::SemiNaive, EvalMode::FullReeval] {
        for threads in [1, 2, 4] {
            let r = run_fixpoint_parallel_on::<Sharded, _>(
                &mut Feedback,
                threads,
                EngineLimits::default(),
                mode,
            );
            check(&r, &format!("sharded threads={threads} {mode:?}"));
        }

        // A quantum far shorter than the run, so the tenant suspends
        // and resumes mid-run: the identity must survive the parking.
        let pool = AnalysisPool::new(PoolConfig {
            threads: 1,
            queue_depth: 4,
            quantum_pops: 4,
        });
        let run = pool
            .submit::<Replicated, _>(Feedback, EngineLimits::default(), mode)
            .wait();
        let quanta = pool.metrics().quanta;
        pool.shutdown();
        assert!(quanta > 1, "pool tenant {mode:?}: ran in {quanta} quantum");
        check(&run.fixpoint, &format!("pool tenant {mode:?}"));
        assert_eq!(run.fixpoint.skipped, 0, "pool tenant {mode:?}: one worker");
        assert_eq!(
            (run.fixpoint.iterations, run.fixpoint.wakeups),
            (expect.iterations, expect.wakeups),
            "pool tenant {mode:?}: quanta replay the sequential trajectory"
        );
    }
}

/// Forces a stale cross-worker wake on a two-worker sharded run — a
/// wake that reaches its configuration's home after the re-run it asks
/// for — which the epoch gate must absorb:
///
/// * the reader (config 10) reads rows 5 and 6 before anything is
///   written, then waits inside its step until the writer has joined.
///   It touches both rows first, so they get address ids 0 and 1, and
///   two shards own one each: one row belongs to the reader's home
///   worker, the other to the writer's;
/// * the writer (config 20) waits for the reader to be mid-step, joins
///   42 into both rows, then holds its own step open until the reader
///   has re-run.
///
/// The reader's registration on its home-owned row finds the row grown
/// and wakes it at once, so it re-runs and sees 42 in both rows while
/// the writer's worker, still inside the writer's step, has sent
/// nothing. Only afterwards do the writer's growth notification (for
/// the home-owned row) and the stale-snapshot wake for the other row
/// reach the reader's home — both for a re-run that already happened.
#[derive(Clone, Default)]
struct StaleWake {
    reader_in_step: Arc<AtomicBool>,
    writer_joined: Arc<AtomicBool>,
    reader_reran: Arc<AtomicBool>,
}

impl AbstractMachine for StaleWake {
    type Config = u8;
    type Addr = u8;
    type Val = u8;

    fn initial(&self) -> u8 {
        0
    }

    fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
        match *c {
            0 => out.extend([10, 20]),
            10 => {
                let (a, b) = (s.read(&5), s.read(&6));
                if a.is_empty() && b.is_empty() {
                    self.reader_in_step.store(true, Ordering::Release);
                    await_flag(&self.writer_joined);
                } else {
                    self.reader_reran.store(true, Ordering::Release);
                }
            }
            20 => {
                await_flag(&self.reader_in_step);
                s.join(&5, [42u8]);
                s.join(&6, [42u8]);
                self.writer_joined.store(true, Ordering::Release);
                await_flag(&self.reader_reran);
            }
            _ => {}
        }
    }
}

impl ParallelMachine for StaleWake {
    fn fork(&self) -> Self {
        self.clone()
    }
    fn absorb(&mut self, _worker: Self) {}
}

/// The sharded backend still needs the epoch gate: a stale cross-worker
/// wake pops after the re-run it asked for and dies there, and the
/// counter identity accounts for it.
#[test]
fn stale_cross_worker_wake_dies_at_the_epoch_gate() {
    for round in 0..10 {
        let r = run_fixpoint_parallel_on::<Sharded, _>(
            &mut StaleWake::default(),
            2,
            EngineLimits::default(),
            EvalMode::SemiNaive,
        );
        let label = format!("round {round}");
        assert_sched_identity(&r, &label);
        assert_eq!(
            r.iterations, 4,
            "{label}: root, writer, and the reader's visit and one re-run"
        );
        assert!(
            r.skipped >= 1,
            "{label}: the stale wake must reach the gate"
        );
        assert_eq!(r.store.read(&5), [42u8].into_iter().collect(), "{label}");
        assert_eq!(r.store.read(&6), [42u8].into_iter().collect(), "{label}");
    }
}

/// A two-party machine whose cross-worker growth reaches a *parked*
/// worker:
///
/// * the reader (config 10) waits until the writer has started, so the
///   two run on different workers, then reads row 5 — still empty —
///   and finishes. Its worker runs dry and parks: nothing else is
///   queued anywhere;
/// * the writer (config 20) waits for the reader to finish, holds its
///   step open for [`PARKED_FOR`] — far longer than the 16 idle turns a
///   worker yields before it parks — and then joins 42 into row 5.
///
/// Row 5 has one owner. Either the writer's worker owns it and wakes
/// the reader with a message to the reader's home, or the reader's
/// worker owns it and the writer's growth notification reaches it as a
/// message. Either way the message goes to a worker that has been idle
/// for [`PARKED_FOR`] and so has parked, unless the host starved it of
/// every turn meanwhile; the reader's re-run there copies row 5 into
/// row 6. (The forced orders of the parking race are the fabric's unit
/// tests; this drives the real loop end to end.)
#[derive(Clone, Default)]
struct LateGrowth {
    writer_started: Arc<AtomicBool>,
    reader_done: Arc<AtomicBool>,
}

/// How long the writer holds its step open so the reader's worker parks.
const PARKED_FOR: Duration = Duration::from_millis(50);

impl AbstractMachine for LateGrowth {
    type Config = u8;
    type Addr = u8;
    type Val = u8;

    fn initial(&self) -> u8 {
        0
    }

    fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
        match *c {
            0 => out.extend([10, 20]),
            10 => {
                await_flag(&self.writer_started);
                let seen = s.read(&5);
                s.join_flow(&6, &seen);
                self.reader_done.store(true, Ordering::Release);
            }
            20 => {
                self.writer_started.store(true, Ordering::Release);
                await_flag(&self.reader_done);
                std::thread::sleep(PARKED_FOR);
                s.join(&5, [42u8]);
            }
            _ => {}
        }
    }
}

impl ParallelMachine for LateGrowth {
    fn fork(&self) -> Self {
        self.clone()
    }
    fn absorb(&mut self, _worker: Self) {}
}

/// A worker parked with nothing to do is unparked by the message that
/// gives it work. The stall timeout is cut to 4 s, so a lost wakeup —
/// the reader's worker sleeping through the message — would end the
/// park by its 1 s timeout: the run still completes, with a park
/// timeout that `assert_sched_identity` rejects.
#[test]
fn a_parked_worker_wakes_for_a_cross_worker_message() {
    for round in 0..5 {
        let limits = EngineLimits {
            stall_timeout: Some(Duration::from_secs(4)),
            ..EngineLimits::default()
        };
        let r = run_fixpoint_parallel_on::<Sharded, _>(
            &mut LateGrowth::default(),
            2,
            limits,
            EvalMode::SemiNaive,
        );
        let label = format!("round {round}");
        assert_sched_identity(&r, &label);
        assert_eq!(r.store.read(&6), [42u8].into_iter().collect(), "{label}");
    }
}

/// The sequential engine satisfies the same identity (its wakeups are
/// exact, so `skipped` is zero) — the invariant is engine-wide, not a
/// parallel artifact.
#[test]
fn sequential_engine_satisfies_the_identity() {
    let r = cfa::analysis::engine::run_fixpoint(&mut Feedback, EngineLimits::default());
    assert_eq!(r.status, Status::Completed);
    assert_eq!(r.skipped, 0, "sequential wakeups are exact");
    assert_eq!(r.iterations, r.config_count() as u64 + r.wakeups);
}
