//! Spans recorded around calls into the analyzer's layers.
//!
//! A span has a name (the public function it wraps), a start and end
//! on one monotonic clock, the span open around it when it began, and
//! the request it belongs to. Spans stay in memory and are written once,
//! at the end, as Chrome `trace_event` JSON — the format `cfa trace`
//! emits, so both load in Perfetto. A disabled tracer reads no clock
//! and records nothing, which is what the untraced replay measures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: u64,
}

/// Span handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Copy, Clone, Debug)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span named after the call it is about to wrap.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn exit(&mut self, span: Open) {
        let Open(Some(id)) = span else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records a child of `parent` whose duration comes from a number
    /// the program reports (e.g. `FixpointResult::elapsed`) rather than
    /// from a clock around a call. It is placed at the parent's start.
    pub fn derived(&mut self, parent: Open, name: &'static str, duration: Duration) {
        let Open(Some(p)) = parent else { return };
        let start = self.spans[p].start;
        let end = (start + duration).min(self.spans[p].end);
        let req = self.spans[p].req;
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(p),
            req,
        });
    }

    /// Duration of a closed span.
    pub fn duration(&self, span: Open) -> Duration {
        match span.0 {
            Some(id) => self.spans[id].end - self.spans[id].start,
            None => Duration::ZERO,
        }
    }

    /// Self time per span name: each span's duration minus the time
    /// its children cover. Spans on one thread nest, so children never
    /// overlap one another.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(children);
        }
        out
    }

    /// Total duration of the root spans (those with no parent).
    pub fn root_time(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The spans as Chrome `trace_event` JSON (complete `X` events,
    /// microsecond timestamps), with the request id and parent index
    /// in each event's `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"repobench replay\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
