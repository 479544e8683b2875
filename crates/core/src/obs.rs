//! Unified engine telemetry: counters, spans, span timers and a bounded
//! structured event log, std-only and dependency-free.
//!
//! Every engine in the workspace (chase, datalog saturation, UCQ
//! rewriter, type analyzer, model finder) reports its work as
//! [`Event`]s pushed into an [`EventSink`]. The sink is a **generic**
//! parameter on the hot paths — never a `dyn` object — so that the
//! default [`Null`] sink compiles away entirely: `EventSink::ENABLED`
//! is an associated `const`, and every call site is guarded by
//! `if S::ENABLED { ... }`, which the compiler eliminates statically
//! for `Null`. With the `Null` sink the engines are byte-for-byte the
//! pre-telemetry engines; `tests/overhead.rs` pins this with a wall
//! clock and `tests/determinism.rs` with output comparison.
//!
//! ## Determinism contract: fields vs gauges
//!
//! An event carries two kinds of payload:
//!
//! * **fields** — algorithmic counts (body matches, triggers fired,
//!   nulls created, …). These are *thread-count invariant*: the
//!   deterministic shard-then-merge contract of [`crate::par`]
//!   guarantees identical values at any `BDDFC_THREADS` setting.
//!   [`Memory`] aggregates them into counters, and the determinism
//!   suite asserts they are identical across thread counts.
//! * **gauges** — environmental measurements (`wall_ns`, `threads`).
//!   These legitimately vary run to run and are **excluded** from
//!   counter aggregation and from determinism assertions.
//!
//! ## Spans and attribution keys
//!
//! On top of the flat event stream, engines open hierarchical
//! [`Span`]s (`chase/run` → `chase/round` → …) via
//! [`EventSink::span_open`] / [`EventSink::span_close`]. Span ids are
//! handed out **deterministically per sink**: a sequential counter
//! starting at 1, which is sound because engines only ever talk to the
//! sink from their sequential merge phases (never from inside fork-join
//! worker closures). Span *ids*, parents, names and keys are therefore
//! byte-identical at any `BDDFC_THREADS` setting; only the start/end
//! timestamps are gauges.
//!
//! Hot-path events additionally carry an **attribution key** — e.g.
//! `("rule", 3)` on a `chase/trigger` event or `("pred", p)` on a
//! `join/probe` event — plus a `parent` span id, so a profiler can roll
//! costs up per rule / per predicate / per round. Keys are part of the
//! deterministic payload (like fields); `parent == 0` means "no
//! enclosing span".
//!
//! ## Sinks
//!
//! * [`Null`] — discards everything, statically free (the default);
//! * [`Memory`] — aggregates fields into counters and keeps bounded
//!   logs of owned events and spans, for tests, the `bddfc-prof`
//!   profiler and interactive inspection;
//! * [`JsonLines`] — writes one JSON object per event (and per closed
//!   span) to any [`std::io::Write`], matching the
//!   `BENCH_<target>.json` row discipline (`{"schema":1,...}`); I/O
//!   errors panic rather than being swallowed.

pub mod metrics;

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The schema version stamped on every JSON-lines event (and on every
/// `BENCH_<target>.json` row emitted by `bddfc_bench::timing`).
pub const SCHEMA_VERSION: u32 = 1;

/// One structured telemetry event, borrowed from the emitting engine's
/// stack frame (no allocation on the hot path).
///
/// `engine` and `name` identify the event kind (e.g. `chase`/`round`,
/// `rewrite`/`generation`); `fields` are deterministic counts, `gauges`
/// are environmental measurements — see the module docs for the
/// determinism contract separating the two. `parent` (0 = none) and
/// `key` attach the event to an enclosing span and to an attribution
/// subject (a rule index, a predicate id, …).
#[derive(Clone, Copy, Debug)]
pub struct Event<'a> {
    /// Emitting engine: `"chase"`, `"saturate"`, `"rewrite"`,
    /// `"analyzer"`, `"finder"` or `"hom"`.
    pub engine: &'static str,
    /// Event kind within the engine, e.g. `"round"` or `"generation"`.
    pub name: &'static str,
    /// Enclosing span id as returned by [`EventSink::span_open`], or 0
    /// when the event is not nested under a span.
    pub parent: u64,
    /// Attribution key, e.g. `("rule", 3)` or `("pred", 7)`. Part of
    /// the deterministic payload.
    pub key: Option<(&'static str, u64)>,
    /// Deterministic, thread-count-invariant counts.
    pub fields: &'a [(&'static str, u64)],
    /// Environmental measurements (wall times, thread counts); excluded
    /// from counter aggregation and determinism assertions.
    pub gauges: &'a [(&'static str, u64)],
}

/// A closed (or still-open) hierarchical span, as stored by recording
/// sinks.
///
/// Identity (`id`, `parent`, `engine`, `name`, `key`) is deterministic
/// across thread counts; the timestamps are gauges measured against the
/// sink's own monotonic epoch ([`Instant`] at sink construction), so
/// `start_ns`/`end_ns` of spans from the *same* sink are comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Sequential id, starting at 1 per sink; 0 is never issued.
    pub id: u64,
    /// Enclosing span id, or 0 for a root span.
    pub parent: u64,
    /// Emitting engine (same namespace as [`Event::engine`]).
    pub engine: &'static str,
    /// Span kind, e.g. `"run"` or `"round"`.
    pub name: &'static str,
    /// Attribution key, e.g. `("round", 3)`.
    pub key: Option<(&'static str, u64)>,
    /// Monotonic start, in ns since the sink's epoch.
    pub start_ns: u64,
    /// Monotonic end, in ns since the sink's epoch; 0 while open.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration of a closed span (0 for a still-open one).
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether [`EventSink::span_close`] has been called for this span.
    pub fn is_closed(&self) -> bool {
        self.end_ns != 0
    }
}

/// A destination for telemetry events.
///
/// Implementations must be cheap and callable from the sequential merge
/// phase of any engine (sinks are only ever invoked outside the
/// fork-join worker closures, so `&self` methods need not be lock-free
/// — but they must be `Sync`, since engine entry points may be driven
/// from scoped worker threads). That sequential-phase-only discipline
/// is also what makes per-sink sequential span ids deterministic.
pub trait EventSink: Sync {
    /// Whether this sink observes anything at all. Call sites guard
    /// event construction with `if S::ENABLED { ... }`, so a `false`
    /// here erases telemetry from the generated code entirely.
    const ENABLED: bool = true;

    /// Records one event. With `ENABLED == false` this is never called.
    fn record(&self, event: Event<'_>);

    /// Opens a span and returns its id (0 from sinks that do not track
    /// spans — the default). Engines pass the returned id as `parent`
    /// to nested spans and events, and back to [`EventSink::span_close`].
    fn span_open(
        &self,
        engine: &'static str,
        name: &'static str,
        parent: u64,
        key: Option<(&'static str, u64)>,
    ) -> u64 {
        let _ = (engine, name, parent, key);
        0
    }

    /// Closes a span previously returned by [`EventSink::span_open`].
    /// Unknown ids (including 0) are ignored.
    fn span_close(&self, id: u64) {
        let _ = id;
    }

    /// How many events a bounded sink has elided so far (0 for
    /// unbounded or non-recording sinks). Exposed on the trait so
    /// operational surfaces (the serve metrics registry) can report
    /// drops without knowing the concrete sink type.
    fn dropped_events(&self) -> u64 {
        0
    }

    /// How many spans a bounded sink has elided so far (0 for unbounded
    /// or non-recording sinks).
    fn dropped_spans(&self) -> u64 {
        0
    }
}

impl<S: EventSink + ?Sized> EventSink for &S {
    const ENABLED: bool = S::ENABLED;

    fn record(&self, event: Event<'_>) {
        (**self).record(event)
    }

    fn span_open(
        &self,
        engine: &'static str,
        name: &'static str,
        parent: u64,
        key: Option<(&'static str, u64)>,
    ) -> u64 {
        (**self).span_open(engine, name, parent, key)
    }

    fn span_close(&self, id: u64) {
        (**self).span_close(id)
    }

    fn dropped_events(&self) -> u64 {
        (**self).dropped_events()
    }

    fn dropped_spans(&self) -> u64 {
        (**self).dropped_spans()
    }
}

/// The no-op sink: statically disabled, zero cost, the default for
/// every engine entry point that does not take an explicit sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct Null;

/// A shared [`Null`] sink for default entry points to borrow.
pub static NULL: Null = Null;

impl EventSink for Null {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&self, _event: Event<'_>) {}
}

/// An owned copy of an [`Event`], as stored by the [`Memory`] sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnedEvent {
    /// Emitting engine.
    pub engine: &'static str,
    /// Event kind.
    pub name: &'static str,
    /// Enclosing span id (0 = none).
    pub parent: u64,
    /// Attribution key.
    pub key: Option<(&'static str, u64)>,
    /// Deterministic counts.
    pub fields: Vec<(&'static str, u64)>,
    /// Environmental measurements.
    pub gauges: Vec<(&'static str, u64)>,
}

impl OwnedEvent {
    /// Re-borrows the owned event as an [`Event`] (e.g. to re-serialize
    /// it through [`event_json`]).
    pub fn as_event(&self) -> Event<'_> {
        Event {
            engine: self.engine,
            name: self.name,
            parent: self.parent,
            key: self.key,
            fields: &self.fields,
            gauges: &self.gauges,
        }
    }

    /// The value of one deterministic field, if present.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(f, _)| *f == name).map(|&(_, v)| v)
    }

    /// The value of one gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(g, _)| *g == name).map(|&(_, v)| v)
    }
}

#[derive(Default)]
struct MemoryInner {
    /// `(engine, name, field) -> summed value`; BTreeMap so snapshots
    /// iterate in a deterministic order.
    counters: BTreeMap<(&'static str, &'static str, &'static str), u64>,
    /// `(engine, name) -> number of events recorded`.
    event_counts: BTreeMap<(&'static str, &'static str), u64>,
    /// Bounded log of owned events (oldest first).
    events: Vec<OwnedEvent>,
    /// Events not logged because the bound was hit (still counted).
    dropped: u64,
    /// Bounded log of spans, in id order (ids are sequential).
    spans: Vec<Span>,
    /// Total spans ever opened (logged or dropped) — the id allocator.
    spans_opened: u64,
    /// Spans not logged because the bound was hit.
    spans_dropped: u64,
}

/// An in-memory sink: aggregates event *fields* into counters keyed by
/// `(engine, event, field)` and keeps bounded logs of owned events and
/// spans.
///
/// Counter aggregation is unbounded (it is a small fixed-size map);
/// only the event and span *logs* are bounded by `cap` — once full,
/// further events still update counters and event counts but are not
/// stored, and [`Memory::dropped`] / [`Memory::spans_dropped`] report
/// how many were elided.
pub struct Memory {
    cap: usize,
    epoch: Instant,
    inner: Mutex<MemoryInner>,
}

impl Memory {
    /// Creates a memory sink whose event log (and span log) holds at
    /// most `cap` entries each.
    pub fn new(cap: usize) -> Self {
        Memory { cap, epoch: Instant::now(), inner: Mutex::new(MemoryInner::default()) }
    }

    /// Snapshot of all counters, sorted by `(engine, event, field)`.
    pub fn counters(&self) -> Vec<((&'static str, &'static str, &'static str), u64)> {
        let inner = self.inner.lock().unwrap();
        inner.counters.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// The summed value of one counter (0 if never recorded).
    pub fn counter(&self, engine: &str, name: &str, field: &str) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner
            .counters
            .iter()
            .find(|((e, n, f), _)| *e == engine && *n == name && *f == field)
            .map_or(0, |(_, v)| *v)
    }

    /// Snapshot of per-kind event counts, sorted by `(engine, event)`.
    pub fn event_counts(&self) -> Vec<((&'static str, &'static str), u64)> {
        let inner = self.inner.lock().unwrap();
        inner.event_counts.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Snapshot of the bounded event log, oldest first.
    pub fn events(&self) -> Vec<OwnedEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// How many events were recorded in total (logged or dropped).
    pub fn len(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.events.len() as u64 + inner.dropped
    }

    /// Whether no event was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many events the bounded log elided.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Snapshot of the bounded span log, in id order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().unwrap().spans.clone()
    }

    /// How many spans were opened in total (logged or dropped).
    pub fn spans_opened(&self) -> u64 {
        self.inner.lock().unwrap().spans_opened
    }

    /// How many spans the bounded log elided.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.lock().unwrap().spans_dropped
    }
}

impl EventSink for Memory {
    fn record(&self, event: Event<'_>) {
        let mut inner = self.inner.lock().unwrap();
        for &(field, value) in event.fields {
            *inner.counters.entry((event.engine, event.name, field)).or_insert(0) += value;
        }
        *inner.event_counts.entry((event.engine, event.name)).or_insert(0) += 1;
        if inner.events.len() < self.cap {
            inner.events.push(OwnedEvent {
                engine: event.engine,
                name: event.name,
                parent: event.parent,
                key: event.key,
                fields: event.fields.to_vec(),
                gauges: event.gauges.to_vec(),
            });
        } else {
            inner.dropped += 1;
        }
    }

    fn span_open(
        &self,
        engine: &'static str,
        name: &'static str,
        parent: u64,
        key: Option<(&'static str, u64)>,
    ) -> u64 {
        let start_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self.inner.lock().unwrap();
        inner.spans_opened += 1;
        let id = inner.spans_opened;
        if inner.spans.len() < self.cap {
            inner.spans.push(Span { id, parent, engine, name, key, start_ns, end_ns: 0 });
        } else {
            inner.spans_dropped += 1;
        }
        id
    }

    fn span_close(&self, id: u64) {
        if id == 0 {
            return;
        }
        let end_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self.inner.lock().unwrap();
        // Ids are sequential, so the log (in insertion order) is sorted.
        if let Ok(i) = inner.spans.binary_search_by_key(&id, |s| s.id) {
            inner.spans[i].end_ns = end_ns.max(1);
        }
    }

    fn dropped_events(&self) -> u64 {
        self.dropped()
    }

    fn dropped_spans(&self) -> u64 {
        Memory::spans_dropped(self)
    }
}

/// A sink that forwards every event and span to **two** underlying
/// sinks — e.g. the server's session-wide sink plus a per-request
/// [`Memory`] capture for the slow-query log.
///
/// The two sides hand out their own span ids, so the tee allocates its
/// *own* sequential ids (starting at 1, like every sink) and keeps a
/// translation table `tee id -> (a id, b id)`. Parents on forwarded
/// spans and events are translated per side, so each underlying sink
/// sees a self-consistent span tree.
pub struct Tee<'a, A: EventSink, B: EventSink> {
    a: &'a A,
    b: &'a B,
    /// `map[id - 1] == (a_id, b_id)`; the length is the id allocator.
    map: Mutex<Vec<(u64, u64)>>,
}

impl<'a, A: EventSink, B: EventSink> Tee<'a, A, B> {
    /// Tees `a` and `b` together.
    pub fn new(a: &'a A, b: &'a B) -> Self {
        Tee { a, b, map: Mutex::new(Vec::new()) }
    }

    /// Translates a tee span id into the pair of underlying ids
    /// (0 maps to (0, 0); unknown ids too).
    fn translate(&self, id: u64) -> (u64, u64) {
        if id == 0 {
            return (0, 0);
        }
        let map = self.map.lock().unwrap();
        map.get(id as usize - 1).copied().unwrap_or((0, 0))
    }
}

impl<A: EventSink, B: EventSink> EventSink for Tee<'_, A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn record(&self, event: Event<'_>) {
        let (pa, pb) = self.translate(event.parent);
        if A::ENABLED {
            self.a.record(Event { parent: pa, ..event });
        }
        if B::ENABLED {
            self.b.record(Event { parent: pb, ..event });
        }
    }

    fn span_open(
        &self,
        engine: &'static str,
        name: &'static str,
        parent: u64,
        key: Option<(&'static str, u64)>,
    ) -> u64 {
        let (pa, pb) = self.translate(parent);
        let ia = if A::ENABLED { self.a.span_open(engine, name, pa, key) } else { 0 };
        let ib = if B::ENABLED { self.b.span_open(engine, name, pb, key) } else { 0 };
        let mut map = self.map.lock().unwrap();
        map.push((ia, ib));
        map.len() as u64
    }

    fn span_close(&self, id: u64) {
        let (ia, ib) = self.translate(id);
        if A::ENABLED {
            self.a.span_close(ia);
        }
        if B::ENABLED {
            self.b.span_close(ib);
        }
    }

    fn dropped_events(&self) -> u64 {
        self.a.dropped_events() + self.b.dropped_events()
    }

    fn dropped_spans(&self) -> u64 {
        self.a.dropped_spans() + self.b.dropped_spans()
    }
}

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes and all control characters (`\n`, `\t`, `\u00XX`, …).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A sink writing one JSON object per event (and per closed span) — the
/// same JSON-lines discipline as `BENCH_<target>.json`:
///
/// ```json
/// {"schema":1,"engine":"chase","event":"round","round":3,"body_matches":17,...,"wall_ns":12345}
/// {"schema":1,"engine":"chase","span":"round","id":2,"parent":1,"round":3,"start_ns":10,"end_ns":99}
/// ```
///
/// Fields come first, then gauges; keys are escaped via [`json_escape`]
/// so arbitrary sink/field names cannot corrupt the stream. Span lines
/// are emitted at close time. I/O errors **panic**: a telemetry stream
/// that silently drops lines is worse than none.
pub struct JsonLines<W: Write + Send> {
    epoch: Instant,
    writer: Mutex<W>,
    /// Open spans (id order) plus the sequential id allocator.
    spans: Mutex<(Vec<Span>, u64)>,
}

impl<W: Write + Send> JsonLines<W> {
    /// Wraps a writer; each recorded event becomes one `\n`-terminated
    /// JSON line.
    pub fn new(writer: W) -> Self {
        JsonLines {
            epoch: Instant::now(),
            writer: Mutex::new(writer),
            spans: Mutex::new((Vec::new(), 0)),
        }
    }

    /// Unwraps the inner writer (e.g. to inspect an in-memory buffer).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().unwrap()
    }

    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().unwrap();
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .expect("obs::JsonLines: failed to write telemetry event");
    }
}

/// Formats one event as a single JSON line (without the trailing
/// newline). Exposed so tests and the bench harness can share the
/// exact encoding. `parent` and `key` are only emitted when set, so
/// plain events keep the PR-3 line layout.
pub fn event_json(event: &Event<'_>) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "{{\"schema\":{SCHEMA_VERSION},\"engine\":\"{}\",\"event\":\"{}\"",
        json_escape(event.engine),
        json_escape(event.name)
    );
    if event.parent != 0 {
        let _ = write!(line, ",\"parent\":{}", event.parent);
    }
    if let Some((k, v)) = event.key {
        let _ = write!(line, ",\"{}\":{v}", json_escape(k));
    }
    for &(key, value) in event.fields.iter().chain(event.gauges) {
        let _ = write!(line, ",\"{}\":{value}", json_escape(key));
    }
    line.push('}');
    line
}

/// Formats one closed span as a single JSON line (without the trailing
/// newline).
pub fn span_json(span: &Span) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "{{\"schema\":{SCHEMA_VERSION},\"engine\":\"{}\",\"span\":\"{}\",\"id\":{},\"parent\":{}",
        json_escape(span.engine),
        json_escape(span.name),
        span.id,
        span.parent
    );
    if let Some((k, v)) = span.key {
        let _ = write!(line, ",\"{}\":{v}", json_escape(k));
    }
    let _ = write!(line, ",\"start_ns\":{},\"end_ns\":{}}}", span.start_ns, span.end_ns);
    line
}

impl<W: Write + Send> EventSink for JsonLines<W> {
    fn record(&self, event: Event<'_>) {
        self.write_line(&event_json(&event));
    }

    fn span_open(
        &self,
        engine: &'static str,
        name: &'static str,
        parent: u64,
        key: Option<(&'static str, u64)>,
    ) -> u64 {
        let start_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut spans = self.spans.lock().unwrap();
        spans.1 += 1;
        let id = spans.1;
        spans.0.push(Span { id, parent, engine, name, key, start_ns, end_ns: 0 });
        id
    }

    fn span_close(&self, id: u64) {
        if id == 0 {
            return;
        }
        let end_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let span = {
            let mut spans = self.spans.lock().unwrap();
            match spans.0.iter().position(|s| s.id == id) {
                Some(i) => {
                    let mut s = spans.0.remove(i);
                    s.end_ns = end_ns.max(1);
                    s
                }
                None => return,
            }
        };
        self.write_line(&span_json(&span));
    }
}

/// A wall-clock span timer for per-round / per-generation gauges.
#[derive(Clone, Copy, Debug)]
pub struct SpanTimer(Instant);

impl SpanTimer {
    /// Starts the span now.
    pub fn start() -> Self {
        SpanTimer(Instant::now())
    }

    /// Elapsed wall time since [`SpanTimer::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed wall time in nanoseconds, saturated into a `u64` gauge.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A fixed-bucket log2 latency histogram — integer-only, no floats on
/// the hot path.
///
/// Bucket 0 holds the value 0; bucket `i` (1 ≤ i ≤ 64) holds values in
/// `[2^(i-1), 2^i)` — i.e. the bucket index of `v ≥ 1` is
/// `64 - v.leading_zeros()`. Bucket 64's upper bound saturates at
/// `u64::MAX`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram { buckets: [0; 65] }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive-exclusive bounds `[lo, hi)` of bucket `i` (bucket 64's
    /// `hi` saturates at `u64::MAX`).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i <= 64, "LogHistogram has buckets 0..=64");
        if i == 0 {
            (0, 1)
        } else if i == 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (i - 1), 1u64 << i)
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The largest single-bucket count (0 for an empty histogram).
    pub fn max_count(&self) -> u64 {
        self.buckets.iter().copied().max().unwrap_or(0)
    }

    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().copied().enumerate().filter(|&(_, c)| c > 0)
    }

    /// Adds every bucket of `other` into `self` — the sequential-merge
    /// half of shard-local histogram accumulation.
    pub fn merge(&mut self, other: &Self) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev<'a>(
        engine: &'static str,
        name: &'static str,
        fields: &'a [(&'static str, u64)],
        gauges: &'a [(&'static str, u64)],
    ) -> Event<'a> {
        Event { engine, name, parent: 0, key: None, fields, gauges }
    }

    #[test]
    fn null_sink_is_statically_disabled() {
        assert!(!Null::ENABLED);
        // And records nothing, trivially.
        NULL.record(ev("chase", "round", &[("x", 1)], &[]));
        assert_eq!(NULL.span_open("chase", "run", 0, None), 0);
        NULL.span_close(0);
    }

    #[test]
    fn memory_aggregates_fields_not_gauges() {
        let sink = Memory::new(16);
        sink.record(ev("chase", "round", &[("body_matches", 3)], &[("wall_ns", 999)]));
        sink.record(ev("chase", "round", &[("body_matches", 4)], &[("wall_ns", 1)]));
        assert_eq!(sink.counter("chase", "round", "body_matches"), 7);
        // Gauges never become counters.
        assert_eq!(sink.counter("chase", "round", "wall_ns"), 0);
        assert_eq!(sink.event_counts(), vec![(("chase", "round"), 2)]);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn memory_log_is_bounded_but_counters_are_not() {
        let sink = Memory::new(2);
        for i in 0..5 {
            sink.record(ev("finder", "search", &[("branches", i)], &[]));
        }
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.len(), 5);
        // 0+1+2+3+4: the counter saw every event.
        assert_eq!(sink.counter("finder", "search", "branches"), 10);
    }

    #[test]
    fn memory_counters_iterate_deterministically() {
        let sink = Memory::new(16);
        sink.record(ev("rewrite", "generation", &[("inserted", 1)], &[]));
        sink.record(ev("chase", "round", &[("new_facts", 2)], &[]));
        let keys: Vec<_> = sink.counters().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![("chase", "round", "new_facts"), ("rewrite", "generation", "inserted")]
        );
    }

    #[test]
    fn memory_spans_get_sequential_ids_and_close() {
        let sink = Memory::new(16);
        let run = sink.span_open("chase", "run", 0, None);
        let r1 = sink.span_open("chase", "round", run, Some(("round", 1)));
        sink.span_close(r1);
        let r2 = sink.span_open("chase", "round", run, Some(("round", 2)));
        sink.span_close(r2);
        sink.span_close(run);
        assert_eq!((run, r1, r2), (1, 2, 3));
        let spans = sink.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.is_closed()));
        assert_eq!(spans[1].parent, run);
        assert_eq!(spans[1].key, Some(("round", 1)));
        assert!(spans[1].end_ns >= spans[1].start_ns);
        // Closing an unknown id is a no-op.
        sink.span_close(99);
        sink.span_close(0);
        assert_eq!(sink.spans_opened(), 3);
        assert_eq!(sink.spans_dropped(), 0);
    }

    #[test]
    fn memory_span_log_is_bounded_but_ids_keep_advancing() {
        let sink = Memory::new(2);
        let ids: Vec<u64> =
            (0..5).map(|_| sink.span_open("chase", "round", 0, None)).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        for id in ids {
            sink.span_close(id);
        }
        assert_eq!(sink.spans().len(), 2);
        assert_eq!(sink.spans_dropped(), 3);
        assert_eq!(sink.spans_opened(), 5);
    }

    #[test]
    fn json_lines_schema() {
        let sink = JsonLines::new(Vec::new());
        sink.record(ev("saturate", "round", &[("derived", 5)], &[("wall_ns", 42)]));
        let out = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            out,
            "{\"schema\":1,\"engine\":\"saturate\",\"event\":\"round\",\"derived\":5,\"wall_ns\":42}\n"
        );
    }

    #[test]
    fn json_lines_emits_span_lines_at_close() {
        let sink = JsonLines::new(Vec::new());
        let run = sink.span_open("chase", "run", 0, None);
        let round = sink.span_open("chase", "round", run, Some(("round", 1)));
        sink.span_close(round);
        sink.span_close(run);
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        // Inner span closes (and is written) first.
        assert!(lines[0].starts_with(
            "{\"schema\":1,\"engine\":\"chase\",\"span\":\"round\",\"id\":2,\"parent\":1,\"round\":1,\"start_ns\":"
        ));
        assert!(lines[1].starts_with(
            "{\"schema\":1,\"engine\":\"chase\",\"span\":\"run\",\"id\":1,\"parent\":0,\"start_ns\":"
        ));
    }

    #[test]
    fn event_json_escapes_strings() {
        // Keys and names with quotes, backslashes and control chars must
        // not corrupt the JSON line.
        let fields = [("quote\"key", 1u64)];
        let e = Event {
            engine: "eng\\ine",
            name: "line\nbreak\tand\u{1}ctl",
            parent: 7,
            key: Some(("k\"n", 3)),
            fields: &fields,
            gauges: &[],
        };
        assert_eq!(
            event_json(&e),
            "{\"schema\":1,\"engine\":\"eng\\\\ine\",\"event\":\"line\\nbreak\\tand\\u0001ctl\",\
             \"parent\":7,\"k\\\"n\":3,\"quote\\\"key\":1}"
        );
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\r\n\t\u{0}"), "a\\\"b\\\\c\\r\\n\\t\\u0000");
    }

    #[test]
    fn tee_forwards_to_both_sides_with_translated_parents() {
        let a = Memory::new(16);
        let b = Memory::new(16);
        // Skew a's id space so tee ids cannot accidentally line up.
        let pre = a.span_open("x", "pre", 0, None);
        a.span_close(pre);
        let tee = Tee::new(&a, &b);
        let run = tee.span_open("chase", "run", 0, None);
        let round = tee.span_open("chase", "round", run, Some(("round", 1)));
        tee.record(ev_at("chase", "trigger", round));
        tee.span_close(round);
        tee.span_close(run);
        // a sees ids 2,3 (after its pre-span); b sees 1,2 — each tree is
        // self-consistent.
        let (sa, sb) = (a.spans(), b.spans());
        assert_eq!(sa.len(), 3);
        assert_eq!(sb.len(), 2);
        assert_eq!(sa[2].parent, sa[1].id);
        assert_eq!(sb[1].parent, sb[0].id);
        assert!(sa.iter().all(|s| s.is_closed()) && sb.iter().all(|s| s.is_closed()));
        assert_eq!(a.events()[0].parent, sa[2].id);
        assert_eq!(b.events()[0].parent, sb[1].id);
        // Drop counts sum over both sides.
        assert_eq!(tee.dropped_events(), 0);
    }

    fn ev_at(engine: &'static str, name: &'static str, parent: u64) -> Event<'static> {
        Event { engine, name, parent, key: None, fields: &[], gauges: &[] }
    }

    #[test]
    fn span_timer_reports_monotone_ns() {
        let t = SpanTimer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn log_histogram_buckets_are_log2() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(1023), 10);
        assert_eq!(LogHistogram::bucket_of(1024), 11);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let nz: Vec<_> = h.nonzero().collect();
        assert_eq!(nz, vec![(0, 1), (1, 1), (2, 2), (11, 1), (64, 1)]);
        assert_eq!(h.max_count(), 2);
        // Every value lands inside its bucket's bounds.
        for v in [0u64, 1, 2, 3, 7, 8, 1u64 << 40] {
            let (lo, hi) = LogHistogram::bucket_bounds(LogHistogram::bucket_of(v));
            assert!(lo <= v && (v < hi || hi == u64::MAX));
        }
    }
}
