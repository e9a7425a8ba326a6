//! Telemetry: a zero-cost-when-off tracing subsystem for every engine.
//!
//! Each fabric worker (and the sequential/reference loops) writes
//! fixed-size binary events — eval start/end with config id, epoch-gate
//! skip, steal, inbox drain, row-lock wait over a threshold, wake
//! batch, tenant suspend/resume, watchdog tick — into a per-worker
//! bounded ring buffer ([`TraceBuffer`]). The buffer is owned by
//! exactly one worker, so recording is lock-free by construction;
//! timestamps are microseconds from **one run-relative clock** (the
//! engine's start instant, installed via [`TraceBuffer::set_origin`]),
//! so rings merged across workers form a coherent timeline.
//!
//! A [`TraceConfig`] on [`crate::engine::EngineLimits`] selects the
//! level — [`TraceLevel::Off`] (the default: every emit is one
//! predictable branch and nothing else), [`TraceLevel::Counters`]
//! (per-kind event counts, no ring), or [`TraceLevel::Full`] (counts
//! plus the event ring) — parseable from the `CFA_TRACE` environment
//! variable. When the ring fills it drops **oldest-first** and sets a
//! `truncated` flag; the per-kind counts never drop, so totals stay
//! exact even on truncated rings.
//!
//! On completion the rings merge into a [`RunTrace`] exposed on
//! [`crate::engine::FixpointResult`], exportable as Chrome
//! `trace_event` JSON ([`RunTrace::to_chrome_json`] — loads in
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev), one lane
//! per worker) and as a derived [`PhaseProfile`] (eval vs lock-wait vs
//! everything-else time split, p50/p95/p99 eval latency).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How much the engines record. See the module docs for the levels.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum TraceLevel {
    /// Record nothing; every emit site is a single branch.
    #[default]
    Off,
    /// Count events per [`TraceEventKind`]; no ring, no timestamps.
    Counters,
    /// Counts plus the full per-worker event ring.
    Full,
}

/// Default [`TraceBuffer`] capacity, in events, per worker.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Tracing configuration carried on [`crate::engine::EngineLimits`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceConfig {
    /// The recording level.
    pub level: TraceLevel,
    /// Per-worker ring capacity in events ([`TraceLevel::Full`] only).
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            level: TraceLevel::Off,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Per-kind counters only.
    pub fn counters() -> Self {
        TraceConfig {
            level: TraceLevel::Counters,
            ..Self::default()
        }
    }

    /// Full event rings at the default capacity.
    pub fn full() -> Self {
        TraceConfig {
            level: TraceLevel::Full,
            ..Self::default()
        }
    }

    /// Parses a `CFA_TRACE` value: `off` | `counters` | `full`.
    ///
    /// # Panics
    ///
    /// Panics on any other value — a malformed knob should fail loudly,
    /// not silently run untraced (matches the other `CFA_*` parsers).
    pub fn parse(value: &str) -> Self {
        Self::try_parse(value).unwrap_or_else(|e| panic!("CFA_TRACE={value:?}: {e}"))
    }

    /// [`TraceConfig::parse`], with an error for any other value.
    pub fn try_parse(value: &str) -> Result<Self, &'static str> {
        match value {
            "off" => Ok(Self::off()),
            "counters" => Ok(Self::counters()),
            "full" => Ok(Self::full()),
            _ => Err("expected off|counters|full"),
        }
    }
}

/// What happened — the fixed event taxonomy. Every variant is one
/// fixed-size [`TraceEvent`] record; `arg` meanings are listed per
/// variant.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A configuration evaluation began (`arg` = interned config id).
    EvalStart = 0,
    /// The matching evaluation ended (`arg` = interned config id).
    EvalEnd = 1,
    /// The epoch gate absorbed a pop (`arg` = interned config id).
    GateSkip = 2,
    /// A steal succeeded (`arg` = configs taken from the victim).
    Steal = 3,
    /// A non-empty inbox drain (`arg` = messages processed).
    InboxDrain = 4,
    /// A row-lock acquisition waited past the reporting threshold
    /// (`arg` = wait in microseconds; sharded backend only).
    RowLockWait = 5,
    /// A batch of dependents was woken by address growth (`arg` =
    /// dependents enqueued).
    WakeBatch = 6,
    /// A pool tenant suspended at the end of a quantum (`arg` = pops
    /// consumed so far).
    TenantSuspend = 7,
    /// A pool tenant resumed for a quantum (`arg` = pops so far).
    TenantResume = 8,
    /// The stall watchdog examined an all-idle fabric (`arg` = 0).
    WatchdogTick = 9,
}

/// Number of [`TraceEventKind`] variants (the counts-array length).
pub const KIND_COUNT: usize = 10;

/// All kinds, in tag order — for iterating count tables.
pub const ALL_KINDS: [TraceEventKind; KIND_COUNT] = [
    TraceEventKind::EvalStart,
    TraceEventKind::EvalEnd,
    TraceEventKind::GateSkip,
    TraceEventKind::Steal,
    TraceEventKind::InboxDrain,
    TraceEventKind::RowLockWait,
    TraceEventKind::WakeBatch,
    TraceEventKind::TenantSuspend,
    TraceEventKind::TenantResume,
    TraceEventKind::WatchdogTick,
];

impl TraceEventKind {
    /// The event's name in Chrome trace output.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::EvalStart => "eval_start",
            TraceEventKind::EvalEnd => "eval_end",
            TraceEventKind::GateSkip => "gate_skip",
            TraceEventKind::Steal => "steal",
            TraceEventKind::InboxDrain => "inbox_drain",
            TraceEventKind::RowLockWait => "row_lock_wait",
            TraceEventKind::WakeBatch => "wake_batch",
            TraceEventKind::TenantSuspend => "tenant_suspend",
            TraceEventKind::TenantResume => "tenant_resume",
            TraceEventKind::WatchdogTick => "watchdog_tick",
        }
    }
}

/// One fixed-size binary trace record: 24 bytes, `Copy`, no heap.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Microseconds since the run-relative clock origin.
    pub t_us: u64,
    /// Kind-specific payload (config id, batch size, wait µs, …).
    pub arg: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A per-worker bounded event ring: drop-oldest on overflow, per-kind
/// counts that never drop, timestamps from one run-relative origin.
///
/// Owned by exactly one worker at a time (it travels with the worker
/// context through pool suspend/resume), so writes are plain
/// single-owner stores — lock-free by construction. Every emit is
/// gated behind one branch on the level, so a disabled buffer costs a
/// predictable compare-and-branch per site and nothing else.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    level: TraceLevel,
    capacity: usize,
    origin: Instant,
    /// The ring storage; `head` is the next write slot once `events`
    /// has reached `capacity` (before that, writes append).
    events: Vec<TraceEvent>,
    head: usize,
    truncated: bool,
    counts: [u64; KIND_COUNT],
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new(TraceConfig::off())
    }
}

impl TraceBuffer {
    /// An empty buffer recording at `config`'s level.
    pub fn new(config: TraceConfig) -> Self {
        TraceBuffer {
            level: config.level,
            capacity: config.ring_capacity.max(1),
            origin: Instant::now(),
            events: Vec::new(),
            head: 0,
            truncated: false,
            counts: [0; KIND_COUNT],
        }
    }

    /// Installs the run-relative clock origin (the engine's start
    /// instant). Every worker of a run shares one origin, so merged
    /// timelines are coherent.
    pub fn set_origin(&mut self, origin: Instant) {
        self.origin = origin;
    }

    /// Whether anything is recorded (`level != Off`). Emit-site guard
    /// for argument computations that are themselves costly (e.g.
    /// timing a lock acquisition).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// The recording level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    #[inline]
    fn emit(&mut self, kind: TraceEventKind, arg: u64) {
        // The one branch every disabled emit pays.
        if self.level == TraceLevel::Off {
            return;
        }
        self.record(kind, arg);
    }

    /// The cold path of [`TraceBuffer::emit`]: count, and ring-write
    /// under [`TraceLevel::Full`].
    fn record(&mut self, kind: TraceEventKind, arg: u64) {
        self.counts[kind as usize] += 1;
        if self.level != TraceLevel::Full {
            return;
        }
        let event = TraceEvent {
            t_us: u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX),
            arg,
            kind,
        };
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            // Full ring: overwrite the oldest slot.
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.truncated = true;
        }
    }

    /// An evaluation of the config with interned id `config` began.
    #[inline]
    pub fn eval_start(&mut self, config: u64) {
        self.emit(TraceEventKind::EvalStart, config);
    }

    /// The matching evaluation ended (also emitted after a contained
    /// panic, so eval starts and ends stay paired).
    #[inline]
    pub fn eval_end(&mut self, config: u64) {
        self.emit(TraceEventKind::EvalEnd, config);
    }

    /// The epoch gate absorbed a pop of config id `config`.
    #[inline]
    pub fn gate_skip(&mut self, config: u64) {
        self.emit(TraceEventKind::GateSkip, config);
    }

    /// A steal took `taken` configs from a victim.
    #[inline]
    pub fn steal(&mut self, taken: u64) {
        self.emit(TraceEventKind::Steal, taken);
    }

    /// A non-empty inbox drain processed `msgs` messages.
    #[inline]
    pub fn inbox_drain(&mut self, msgs: u64) {
        self.emit(TraceEventKind::InboxDrain, msgs);
    }

    /// A row-lock acquisition waited `wait_us` microseconds (over the
    /// backend's reporting threshold).
    #[inline]
    pub fn row_lock_wait(&mut self, wait_us: u64) {
        self.emit(TraceEventKind::RowLockWait, wait_us);
    }

    /// Address growth enqueued `woken` dependents in one batch.
    #[inline]
    pub fn wake_batch(&mut self, woken: u64) {
        self.emit(TraceEventKind::WakeBatch, woken);
    }

    /// A pool tenant suspended after `pops` total pops.
    #[inline]
    pub fn tenant_suspend(&mut self, pops: u64) {
        self.emit(TraceEventKind::TenantSuspend, pops);
    }

    /// A pool tenant resumed at `pops` total pops.
    #[inline]
    pub fn tenant_resume(&mut self, pops: u64) {
        self.emit(TraceEventKind::TenantResume, pops);
    }

    /// The stall watchdog examined an all-idle fabric.
    #[inline]
    pub fn watchdog_tick(&mut self) {
        self.emit(TraceEventKind::WatchdogTick, 0);
    }

    /// Events recorded so far (per-kind totals; never truncated).
    pub fn count(&self, kind: TraceEventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Freezes the ring into a [`WorkerTrace`] lane for `worker`,
    /// unrolling the ring into oldest-first order.
    pub fn into_worker_trace(self, worker: usize) -> WorkerTrace {
        let mut events = self.events;
        // `head` is the oldest slot only once the ring has wrapped.
        events.rotate_left(if self.truncated { self.head } else { 0 });
        WorkerTrace {
            worker,
            events,
            truncated: self.truncated,
            counts: self.counts,
        }
    }
}

/// One worker's merged lane of a [`RunTrace`].
#[derive(Clone, Debug, Default)]
pub struct WorkerTrace {
    /// The worker id (fabric worker index; 0 for sequential engines).
    pub worker: usize,
    /// The surviving ring contents, oldest first.
    pub events: Vec<TraceEvent>,
    /// Whether the ring overflowed and dropped oldest events.
    pub truncated: bool,
    /// Per-kind event totals — exact even when `truncated`.
    pub counts: [u64; KIND_COUNT],
}

impl WorkerTrace {
    /// This lane's total for `kind` (exact even when truncated).
    pub fn count(&self, kind: TraceEventKind) -> u64 {
        self.counts[kind as usize]
    }
}

/// The merged per-worker rings of one engine run, exposed on
/// [`crate::engine::FixpointResult`]. Empty (no lanes) when the run
/// traced at [`TraceLevel::Off`].
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// The level the run recorded at.
    pub level: TraceLevel,
    /// One lane per worker, in worker-id order.
    pub workers: Vec<WorkerTrace>,
}

impl RunTrace {
    /// Assembles a trace from per-worker buffers (lane order = vec
    /// order). Off-level runs collapse to the empty default so a
    /// disabled run carries no lanes at all.
    pub fn from_buffers(buffers: Vec<TraceBuffer>) -> Self {
        let level = buffers
            .iter()
            .map(|b| b.level)
            .max_by_key(|l| *l as u8)
            .unwrap_or_default();
        if level == TraceLevel::Off {
            return RunTrace::default();
        }
        RunTrace {
            level,
            workers: buffers
                .into_iter()
                .enumerate()
                .map(|(w, b)| b.into_worker_trace(w))
                .collect(),
        }
    }

    /// Total events across all lanes for `kind` (exact even under ring
    /// truncation — counts never drop).
    pub fn count(&self, kind: TraceEventKind) -> u64 {
        self.workers.iter().map(|w| w.count(kind)).sum()
    }

    /// Events surviving in the rings (≤ the counted totals when any
    /// lane truncated).
    pub fn event_count(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Whether any lane's ring overflowed.
    pub fn truncated(&self) -> bool {
        self.workers.iter().any(|w| w.truncated)
    }

    /// Whether nothing was recorded (the `CFA_TRACE=off` shape).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
            || (self.event_count() == 0 && ALL_KINDS.iter().all(|&k| self.count(k) == 0))
    }

    /// Renders the trace as Chrome `trace_event` JSON (the "JSON
    /// object" flavor: `{"traceEvents": […], "displayTimeUnit": "ms"}`)
    /// — loadable in `chrome://tracing` and Perfetto. One `tid` lane
    /// per worker; evaluations and over-threshold lock waits render as
    /// complete (`"ph": "X"`) spans, everything else as instants.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, line: &str, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(line);
        };
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"fixpoint fabric\"}}",
            &mut first,
        );
        for lane in &self.workers {
            push(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                     \"args\":{{\"name\":\"worker {}{}\"}}}}",
                    lane.worker,
                    lane.worker,
                    if lane.truncated { " (truncated)" } else { "" }
                ),
                &mut first,
            );
            // Pair eval starts with their ends; a drop-oldest ring can
            // orphan an end (its start was overwritten) — orphans are
            // skipped rather than guessed at.
            let mut open_eval: Option<&TraceEvent> = None;
            for e in &lane.events {
                let mut line = String::new();
                match e.kind {
                    TraceEventKind::EvalStart => {
                        open_eval = Some(e);
                        continue;
                    }
                    TraceEventKind::EvalEnd => {
                        let Some(start) = open_eval.take().filter(|s| s.arg == e.arg) else {
                            continue;
                        };
                        let _ = write!(
                            line,
                            "{{\"name\":\"eval\",\"cat\":\"eval\",\"ph\":\"X\",\
                             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
                             \"args\":{{\"config\":{}}}}}",
                            start.t_us,
                            e.t_us.saturating_sub(start.t_us),
                            lane.worker,
                            e.arg
                        );
                    }
                    TraceEventKind::RowLockWait => {
                        // Emitted after the wait; back-date the span.
                        let _ = write!(
                            line,
                            "{{\"name\":\"row_lock_wait\",\"cat\":\"lock\",\"ph\":\"X\",\
                             \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
                             \"args\":{{\"wait_us\":{}}}}}",
                            e.t_us.saturating_sub(e.arg),
                            e.arg,
                            lane.worker,
                            e.arg
                        );
                    }
                    kind => {
                        let _ = write!(
                            line,
                            "{{\"name\":\"{}\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\
                             \"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"n\":{}}}}}",
                            kind.name(),
                            e.t_us,
                            lane.worker,
                            e.arg
                        );
                    }
                }
                push(&mut out, &line, &mut first);
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Derives the run's [`PhaseProfile`] from the recorded rings.
    pub fn phase_profile(&self) -> PhaseProfile {
        let mut eval_us = 0u64;
        let mut lock_wait_us = 0u64;
        let mut span_us = 0u64;
        let mut latencies: Vec<u64> = Vec::new();
        for lane in &self.workers {
            let mut open: Option<&TraceEvent> = None;
            for e in &lane.events {
                match e.kind {
                    TraceEventKind::EvalStart => open = Some(e),
                    TraceEventKind::EvalEnd => {
                        if let Some(start) = open.take().filter(|s| s.arg == e.arg) {
                            let d = e.t_us.saturating_sub(start.t_us);
                            eval_us += d;
                            latencies.push(d);
                        }
                    }
                    TraceEventKind::RowLockWait => lock_wait_us += e.arg,
                    _ => {}
                }
            }
            if let (Some(f), Some(l)) = (lane.events.first(), lane.events.last()) {
                span_us += l.t_us.saturating_sub(f.t_us);
            }
        }
        latencies.sort_unstable();
        let pct = |q: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            latencies[((latencies.len() - 1) as f64 * q).round() as usize]
        };
        PhaseProfile {
            eval: Duration::from_micros(eval_us),
            lock_wait: Duration::from_micros(lock_wait_us),
            other: Duration::from_micros(span_us.saturating_sub(eval_us + lock_wait_us)),
            eval_count: self.count(TraceEventKind::EvalStart),
            eval_p50_us: pct(0.50),
            eval_p95_us: pct(0.95),
            eval_p99_us: pct(0.99),
            events: ALL_KINDS.iter().map(|&k| self.count(k)).sum(),
            truncated: self.truncated(),
        }
    }
}

/// Where a run's worker time went, derived from a [`RunTrace`]
/// ([`TraceLevel::Full`] rings; a counters-only run yields zero
/// durations but exact event totals).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Total time inside configuration evaluations, summed over
    /// workers.
    pub eval: Duration,
    /// Total over-threshold row-lock wait (sharded backend only).
    pub lock_wait: Duration,
    /// The busy-span remainder: stealing, inbox drains, idle yields
    /// and parks, merge — everything between a lane's first and last event that
    /// was neither eval nor reported lock wait.
    pub other: Duration,
    /// Evaluations counted (exact even under ring truncation).
    pub eval_count: u64,
    /// Median paired-eval latency, microseconds.
    pub eval_p50_us: u64,
    /// 95th-percentile paired-eval latency, microseconds.
    pub eval_p95_us: u64,
    /// 99th-percentile paired-eval latency, microseconds.
    pub eval_p99_us: u64,
    /// Total events counted across all kinds.
    pub events: u64,
    /// Whether any worker ring dropped oldest events.
    pub truncated: bool,
}

impl PhaseProfile {
    /// One-paragraph human rendering (the `cfa trace` summary line).
    pub fn summary(&self) -> String {
        format!(
            "eval {:.3}s ({} evals, p50 {}µs, p95 {}µs, p99 {}µs), \
             lock-wait {:.3}s, other {:.3}s, {} events{}",
            self.eval.as_secs_f64(),
            self.eval_count,
            self.eval_p50_us,
            self.eval_p95_us,
            self.eval_p99_us,
            self.lock_wait.as_secs_f64(),
            self.other.as_secs_f64(),
            self.events,
            if self.truncated {
                " (rings truncated)"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_with_capacity(capacity: usize) -> TraceBuffer {
        TraceBuffer::new(TraceConfig {
            level: TraceLevel::Full,
            ring_capacity: capacity,
        })
    }

    #[test]
    fn off_level_records_nothing() {
        let mut b = TraceBuffer::new(TraceConfig::off());
        b.eval_start(1);
        b.eval_end(1);
        b.steal(3);
        let t = RunTrace::from_buffers(vec![b]);
        assert!(t.is_empty());
        assert_eq!(t.workers.len(), 0, "off-level runs carry no lanes");
    }

    #[test]
    fn counters_level_counts_without_ring() {
        let mut b = TraceBuffer::new(TraceConfig::counters());
        b.eval_start(1);
        b.eval_end(1);
        b.gate_skip(2);
        let t = RunTrace::from_buffers(vec![b]);
        assert_eq!(t.count(TraceEventKind::EvalStart), 1);
        assert_eq!(t.count(TraceEventKind::GateSkip), 1);
        assert_eq!(t.event_count(), 0, "no ring under Counters");
        assert!(!t.is_empty());
    }

    #[test]
    fn ring_overflow_drops_oldest_and_flags_truncation() {
        let mut b = full_with_capacity(4);
        for i in 0..10u64 {
            b.gate_skip(i);
        }
        let t = RunTrace::from_buffers(vec![b]);
        assert!(t.truncated());
        let lane = &t.workers[0];
        let args: Vec<u64> = lane.events.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9], "oldest dropped first, order kept");
        assert_eq!(
            t.count(TraceEventKind::GateSkip),
            10,
            "counts survive truncation"
        );
    }

    #[test]
    fn timestamps_are_monotone_within_a_lane() {
        let mut b = full_with_capacity(64);
        for i in 0..20u64 {
            b.eval_start(i);
            b.eval_end(i);
        }
        let t = RunTrace::from_buffers(vec![b]);
        let ts: Vec<u64> = t.workers[0].events.iter().map(|e| e.t_us).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn chrome_export_pairs_evals_and_names_lanes() {
        let mut b = full_with_capacity(64);
        b.eval_start(7);
        b.eval_end(7);
        b.steal(2);
        let json = RunTrace::from_buffers(vec![b]).to_chrome_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(
            json.contains("\"name\":\"eval\"") && json.contains("\"ph\":\"X\""),
            "{json}"
        );
        assert!(json.contains("\"name\":\"steal\""), "{json}");
    }

    #[test]
    fn chrome_export_skips_orphaned_eval_ends() {
        let mut b = full_with_capacity(1);
        b.eval_start(3);
        b.eval_end(3); // overwrites the start — the end is orphaned
        let json = RunTrace::from_buffers(vec![b]).to_chrome_json();
        assert!(!json.contains("\"name\":\"eval\""), "{json}");
    }

    #[test]
    fn phase_profile_sums_eval_time_and_percentiles() {
        let mut b = full_with_capacity(64);
        for i in 0..5u64 {
            b.eval_start(i);
            b.eval_end(i);
        }
        let p = RunTrace::from_buffers(vec![b]).phase_profile();
        assert_eq!(p.eval_count, 5);
        assert!(p.eval_p50_us <= p.eval_p95_us && p.eval_p95_us <= p.eval_p99_us);
        assert!(!p.summary().is_empty());
    }

    #[test]
    fn parse_accepts_the_three_levels() {
        assert_eq!(TraceConfig::parse("off").level, TraceLevel::Off);
        assert_eq!(TraceConfig::parse("counters").level, TraceLevel::Counters);
        assert_eq!(TraceConfig::parse("full").level, TraceLevel::Full);
    }

    #[test]
    #[should_panic(expected = "CFA_TRACE")]
    fn parse_rejects_unknown_levels() {
        let _ = TraceConfig::parse("verbose");
    }
}
