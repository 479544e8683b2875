//! # bddfc-serve — the incremental chase service
//!
//! A long-running engine that keeps a chased instance *resident* and
//! answers certain-answer queries without re-chasing from scratch on
//! every call (ROADMAP item 1):
//!
//! * **Inserts** are semi-naive delta rounds: the new facts become the
//!   next delta batch and only rules whose bodies can touch them
//!   re-fire ([`bddfc_chase::IncrementalChase`], resuming the engine's
//!   `ChaseStepper`). Rounds already applied are never re-run.
//! * **Retracts** are DRed-style over-delete/re-derive backed by the
//!   recorded derivations (`bddfc_chase::trace::Derivation`).
//! * **Reads** are snapshot-isolated: the writer publishes immutable
//!   [`epoch::Epoch`]s at commit boundaries and queries evaluate
//!   against a pinned epoch lock-free — a query never observes a
//!   half-applied round ([`epoch`]).
//!
//! The service speaks the line-oriented protocol in [`proto`]
//! (stdin/stdout by default, TCP behind a flag in the `bddfc-serve`
//! binary) and threads [`bddfc_core::obs`] through as per-request
//! telemetry: a `serve`/`request` span per command, `serve`/`commit`
//! events per epoch, and the underlying `chase`/`round` events of each
//! maintenance closure — which is how tests verify that an insert into
//! a chased instance runs only delta rounds.
//!
//! ## Query semantics
//!
//! Against a pinned epoch, a query answers
//!
//! * `true` — witnessed in the resident instance. Sound even before
//!   fixpoint: every resident fact carries a derivation tree over the
//!   current base, so the resident instance maps homomorphically into
//!   every model of (base, theory).
//! * `false` — not witnessed *and* the epoch is at fixpoint (the
//!   resident instance is then a universal model).
//! * `unknown reason=rounds|facts` — not witnessed and the closure was
//!   cut short by the named budget ([`bddfc_chase::BudgetExhausted`]).
//!
//! ## Static analysis at load
//!
//! Construction runs the loaded program through `bddfc-analyze`: the
//! cost model's static cardinality priors seed the maintenance
//! closures' batch join planner (tie-breakers under live postings —
//! provably invisible in the resident instance), and the full analysis
//! — termination certificate, cost model, perf lints — is kept as one
//! JSON line that the `analyze` protocol command returns. The
//! `bddfc-serve` binary additionally sizes the default round budget
//! from the certified bound and supports `--deny-unbounded`.
//!
//! ## Live metrics and the slow-query log
//!
//! Unless disabled ([`ServeConfig::metrics`]), the server owns a
//! [`MetricsRegistry`]: per-command request counters and latency
//! histograms, gauges for resident facts / base facts / sealed segments
//! / current epoch / derivation-index size (refreshed at every commit,
//! under the writer lock, so they are deterministic), monotonic
//! counters for chase rounds and the DRed over-delete/re-derive cascade,
//! and a timing-derived writer-lock-wait counter. Hot paths accumulate
//! into a stack-local [`LocalMetrics`] and merge once per request. The
//! snapshot is exposed by the `metrics` protocol command (one JSON line,
//! timing-derived data isolated in a trailing `"timing"` object) and by
//! the `--metrics-tcp` Prometheus endpoint ([`http`]).
//!
//! With `--slow-ms` set, every request additionally runs under a
//! per-request [`Memory`] capture teed onto the session sink
//! ([`bddfc_core::obs::Tee`]); requests at or above the threshold land
//! in the bounded [`slowlog::SlowLog`] ring with their span tree and
//! per-rule attribution, dumpable via the `slowlog` command.

#![warn(missing_docs)]

pub mod epoch;
pub mod http;
pub mod proto;
pub mod slowlog;

use bddfc_chase::{BudgetExhausted, IncrementalChase, MaintainConfig};
use bddfc_core::obs::metrics::{LocalMetrics, MetricsRegistry, MetricsSnapshot};
use bddfc_core::obs::{Event, EventSink, Memory, Null, SpanTimer, Tee, NULL};
use bddfc_core::parser::Program;
use bddfc_core::{hom, parse_into, parse_query, Fact, Ucq, Vocabulary};
use epoch::{Epoch, EpochStore};
use proto::{ensure_terminated, parse_command, Command};
use slowlog::SlowLog;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bounded per-request telemetry capture used for slow-query entries.
const SLOW_CAPTURE_CAP: usize = 4096;

/// Ring capacity of the slow-query log.
const SLOWLOG_CAP: usize = 128;

/// Service configuration: per-mutation closure budgets, metrics and the
/// slow-query log.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Maximum closure rounds one mutation may run.
    pub max_rounds: u32,
    /// Stop (incomplete) once the instance exceeds this many facts.
    pub max_facts: usize,
    /// Whether the server keeps a live [`MetricsRegistry`] (on by
    /// default; the overhead guard in `tests/overhead.rs` pins the cost
    /// of leaving it on).
    pub metrics: bool,
    /// Slow-query threshold in milliseconds: requests at or above it are
    /// recorded in the slow-query log. `None` disables the log (and the
    /// per-request telemetry capture it needs).
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_rounds: 64,
            max_facts: 1_000_000,
            metrics: true,
            slow_ms: None,
        }
    }
}

/// The writer's working state — the mutable tail behind the epochs.
struct Writer {
    voc: Vocabulary,
    inc: IncrementalChase,
    /// Cumulative sealed-segment boundaries (see [`epoch::Epoch`]).
    segments: Vec<usize>,
    epoch_id: u64,
    inserts: u64,
    retracts: u64,
}

/// One response from [`Server::handle_line`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Blank line or comment: print nothing.
    None,
    /// A response to print (may span multiple lines for `explain`).
    Line(String),
    /// The goodbye line: print it, then end the session.
    Quit(String),
}

impl Reply {
    /// The response text, if any.
    pub fn text(&self) -> Option<&str> {
        match self {
            Reply::None => None,
            Reply::Line(s) | Reply::Quit(s) => Some(s),
        }
    }
}

/// The incremental chase service: one writer, any number of epoched
/// readers. All methods take `&self`; the struct is `Sync`, so a TCP
/// front-end can serve concurrent sessions off one shared instance.
pub struct Server<'s, S: EventSink = Null> {
    state: Mutex<Writer>,
    epochs: EpochStore,
    config: ServeConfig,
    sink: &'s S,
    requests: AtomicU64,
    queries: AtomicU64,
    metrics: Option<MetricsRegistry>,
    slowlog: Option<SlowLog>,
    /// One-line JSON of the load-time static analysis (the `analyze`
    /// protocol command). Fixed at construction: the theory never
    /// changes after load, and the analysis is a pure function of it.
    analysis_json: String,
}

/// Metric names the server registers. All `bddfc_`-prefixed; every
/// timing-derived series carries `_ns` in its name (the filtering rule
/// `obs::metrics` documents), except the `bddfc_slowlog_*` family,
/// which is timing-dependent by nature (what counts as *slow* is a
/// wall-clock judgement) and excluded from determinism comparisons as a
/// family.
mod names {
    pub const REQUESTS: &str = "bddfc_requests_total";
    pub const ERRORS: &str = "bddfc_request_errors_total";
    pub const LATENCY: &str = "bddfc_request_latency_ns";
    pub const FACTS: &str = "bddfc_facts_resident";
    pub const BASE: &str = "bddfc_base_facts";
    pub const SEGMENTS: &str = "bddfc_sealed_segments";
    pub const EPOCH: &str = "bddfc_epoch";
    pub const DERIV_INDEX: &str = "bddfc_derivation_index_entries";
    pub const ROUNDS: &str = "bddfc_chase_rounds_total";
    pub const OVERDELETED: &str = "bddfc_dred_overdeleted_total";
    pub const REDERIVED: &str = "bddfc_dred_rederived_total";
    pub const WRITER_WAIT: &str = "bddfc_writer_lock_wait_ns_total";
    pub const OBS_EVENTS_DROPPED: &str = "bddfc_obs_events_dropped";
    pub const OBS_SPANS_DROPPED: &str = "bddfc_obs_spans_dropped";
    pub const SLOW_ENTRIES: &str = "bddfc_slowlog_entries";
    pub const SLOW_DROPPED: &str = "bddfc_slowlog_dropped";
    pub const SLOW_WRITE_FAILURES: &str = "bddfc_slowlog_write_failures_total";
}

/// Builds the registry with `# HELP` text for every family.
fn new_registry() -> MetricsRegistry {
    let m = MetricsRegistry::new();
    m.describe(names::REQUESTS, "Protocol requests handled, by command.");
    m.describe(names::ERRORS, "Requests answered with an err reply, by command.");
    m.describe(names::LATENCY, "Request wall time in nanoseconds, by command.");
    m.describe(names::FACTS, "Facts resident in the published epoch.");
    m.describe(names::BASE, "Base (extensional) facts in the published epoch.");
    m.describe(names::SEGMENTS, "Sealed segments in the published epoch.");
    m.describe(names::EPOCH, "Current published epoch id.");
    m.describe(names::DERIV_INDEX, "Recorded derivations in the provenance index.");
    m.describe(names::ROUNDS, "Chase closure rounds run across all mutations.");
    m.describe(names::OVERDELETED, "Facts removed by DRed over-deletion cascades.");
    m.describe(names::REDERIVED, "Facts re-derived after DRed over-deletion.");
    m.describe(names::WRITER_WAIT, "Nanoseconds spent waiting on the writer lock.");
    m.describe(names::OBS_EVENTS_DROPPED, "Events elided by the bounded session sink.");
    m.describe(names::OBS_SPANS_DROPPED, "Spans elided by the bounded session sink.");
    m.describe(names::SLOW_ENTRIES, "Entries resident in the slow-query ring.");
    m.describe(names::SLOW_DROPPED, "Slow-query entries evicted from the ring.");
    m.describe(names::SLOW_WRITE_FAILURES, "Slow-query stream writes that failed.");
    m
}

impl Server<'static, Null> {
    /// Builds a service over `program` (its facts become the initial
    /// base, chased to fixpoint or budget before the first command)
    /// with telemetry disabled.
    pub fn new(program: &Program, config: ServeConfig) -> Self {
        Server::with_sink(program, config, &NULL)
    }
}

impl<'s, S: EventSink> Server<'s, S> {
    /// Like [`Server::new`], reporting request spans, commit events and
    /// the maintenance chase's own round events into `sink`.
    pub fn with_sink(program: &Program, config: ServeConfig, sink: &'s S) -> Self {
        // Static analysis of the loaded theory: the cost model's priors
        // seed every maintenance closure's join planner (tie-breakers
        // only — the resident instance is identical with or without
        // them), and the one-line JSON backs the `analyze` command.
        let analysis = bddfc_analyze::analyze(program);
        let writer = Writer {
            voc: program.voc.clone(),
            inc: IncrementalChase::new(&program.theory).with_priors(analysis.cost.priors()),
            segments: vec![0],
            epoch_id: 0,
            inserts: 0,
            retracts: 0,
        };
        let epochs = EpochStore::new(Epoch::empty(writer.voc.clone()));
        let server = Server {
            state: Mutex::new(writer),
            epochs,
            config,
            sink,
            requests: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            metrics: config.metrics.then(new_registry),
            slowlog: config.slow_ms.map(|ms| SlowLog::new(ms, SLOWLOG_CAP)),
            analysis_json: analysis.json("load", program),
        };
        // The initial facts go through the ordinary insert path, so epoch 1
        // is the chased load (epoch 0 stays the published empty state).
        if !program.instance.is_empty() {
            let facts: Vec<Fact> = program.instance.facts().to_vec();
            let mut w = server.state.lock().expect("writer lock poisoned");
            let out = server.maintain_insert(&mut w, &facts, server.sink);
            if let Some(m) = &server.metrics {
                m.counter_add(names::ROUNDS, None, u64::from(out.rounds));
            }
            server.commit(&mut w);
        }
        server
    }

    /// Attaches a stream writer for slow-query entries (the
    /// `--slow-log FILE` flag). No-op unless [`ServeConfig::slow_ms`]
    /// enabled the log.
    pub fn set_slow_writer(&mut self, writer: Box<dyn Write + Send>) {
        if let Some(sl) = &mut self.slowlog {
            sl.set_writer(writer);
        }
    }

    /// The slow-query log, if enabled.
    pub fn slow_log(&self) -> Option<&SlowLog> {
        self.slowlog.as_ref()
    }

    /// The one-line static-analysis JSON computed at load (what the
    /// `analyze` protocol command returns).
    pub fn analysis_json(&self) -> &str {
        &self.analysis_json
    }

    /// Refreshes snapshot-time gauges (sink drop counts, slowlog state)
    /// and returns the current metrics snapshot (`None` when metrics
    /// are disabled). This is what the `metrics` protocol command and
    /// the Prometheus endpoint serve.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let m = self.metrics.as_ref()?;
        m.gauge_set(names::OBS_EVENTS_DROPPED, None, self.sink.dropped_events());
        m.gauge_set(names::OBS_SPANS_DROPPED, None, self.sink.dropped_spans());
        if let Some(sl) = &self.slowlog {
            // The slowlog family is timing-dependent (see `names`), so
            // it goes to the timing side of the JSON rendering.
            m.gauge_set_ns(names::SLOW_ENTRIES, None, sl.len());
            m.gauge_set_ns(names::SLOW_DROPPED, None, sl.dropped());
            m.gauge_set_ns(names::SLOW_WRITE_FAILURES, None, sl.write_failures());
        }
        Some(m.snapshot())
    }

    fn maintain_config(&self) -> MaintainConfig {
        MaintainConfig { max_rounds: self.config.max_rounds, max_facts: self.config.max_facts }
    }

    /// Runs the insert closure; caller commits.
    fn maintain_insert<T: EventSink>(
        &self,
        w: &mut Writer,
        facts: &[Fact],
        sink: &T,
    ) -> bddfc_chase::MaintainOutcome {
        let before = w.inc.instance().len();
        let cfg = self.maintain_config();
        let Writer { voc, inc, .. } = w;
        let out = inc.insert_with(facts, voc, cfg, sink);
        if w.inc.instance().len() > before {
            w.segments.push(w.inc.instance().len());
        }
        out
    }

    /// Seals the working state into a new epoch and publishes it. Also
    /// refreshes the deterministic state gauges — under the writer
    /// lock, so a scrape never sees a gauge ahead of the published
    /// epoch's counters.
    fn commit(&self, w: &mut Writer) {
        w.epoch_id += 1;
        // The writer is the only publisher, so the current epoch's
        // vocabulary is a clone of `w.voc`: reuse it if nothing was
        // interned since.
        let published = self.epochs.snapshot().voc.clone();
        let voc = if published.version() == w.voc.version() {
            published
        } else {
            Arc::new(w.voc.clone())
        };
        let epoch = Epoch {
            id: w.epoch_id,
            voc,
            instance: w.inc.shared_instance(),
            segments: Arc::new(w.segments.clone()),
            complete: w.inc.complete(),
            exhausted: w.inc.exhausted(),
        };
        if let Some(m) = &self.metrics {
            m.gauge_set(names::EPOCH, None, w.epoch_id);
            m.gauge_set(names::FACTS, None, epoch.instance.len() as u64);
            m.gauge_set(names::BASE, None, w.inc.base().len() as u64);
            m.gauge_set(names::SEGMENTS, None, sealed_segments(w));
            m.gauge_set(names::DERIV_INDEX, None, w.inc.provenance_len() as u64);
        }
        if S::ENABLED {
            self.sink.record(Event {
                engine: "serve",
                name: "commit",
                parent: 0,
                key: Some(("epoch", w.epoch_id)),
                fields: &[
                    ("epoch", w.epoch_id),
                    ("facts", epoch.instance.len() as u64),
                    ("segments", epoch.segments.len() as u64),
                    ("fixpoint", u64::from(epoch.complete)),
                ],
                gauges: &[],
            });
        }
        self.epochs.publish(epoch);
    }

    /// Pins the current epoch (what a reader evaluates against).
    pub fn snapshot(&self) -> Arc<Epoch> {
        self.epochs.snapshot()
    }

    /// Handles one protocol line, returning the response.
    pub fn handle_line(&self, line: &str) -> Reply {
        let cmd = match parse_command(line) {
            Ok(Command::Nop) => return Reply::None,
            Ok(c) => c,
            Err(e) => {
                if let Some(m) = &self.metrics {
                    m.counter_add(names::REQUESTS, Some(("command", "invalid")), 1);
                    m.counter_add(names::ERRORS, Some(("command", "invalid")), 1);
                }
                return Reply::Line(format!("err {e}"));
            }
        };
        let verb = command_verb(&cmd);
        let req = self.requests.fetch_add(1, Ordering::SeqCst) + 1;
        let timer = SpanTimer::start();
        let mut local = LocalMetrics::new();
        // With the slow-query log armed, the request runs under a
        // per-request capture teed onto the session sink; otherwise it
        // talks to the session sink directly (no capture cost).
        let (reply, capture) = match &self.slowlog {
            Some(_) => {
                let capture = Memory::new(SLOW_CAPTURE_CAP);
                let tee = Tee::new(self.sink, &capture);
                (self.dispatch(&cmd, req, &tee, &mut local), Some(capture))
            }
            None => (self.dispatch(&cmd, req, self.sink, &mut local), None),
        };
        let wall_ns = timer.elapsed_ns();
        if let Some(m) = &self.metrics {
            local.counter_add(names::REQUESTS, Some(("command", verb)), 1);
            if reply.text().is_some_and(|t| t.starts_with("err ")) {
                local.counter_add(names::ERRORS, Some(("command", verb)), 1);
            }
            local.observe(names::LATENCY, Some(("command", verb)), wall_ns);
            m.merge(&local);
        }
        if let (Some(sl), Some(capture)) = (&self.slowlog, capture) {
            if wall_ns >= sl.threshold_ns() {
                sl.record(req, verb, wall_ns, reply.text(), &capture);
            }
        }
        reply
    }

    /// Runs one parsed command against the given sink, opening the
    /// per-request span. Generic over the sink so the slow-query path
    /// can substitute a [`Tee`] without the fast path paying for it.
    fn dispatch<T: EventSink>(
        &self,
        cmd: &Command,
        req: u64,
        sink: &T,
        local: &mut LocalMetrics,
    ) -> Reply {
        let span = if T::ENABLED {
            sink.span_open("serve", "request", 0, Some(("req", req)))
        } else {
            0
        };
        let reply = match cmd {
            Command::Nop => Reply::None,
            Command::Quit => Reply::Quit("bye".into()),
            Command::Insert(payload) => Reply::Line(self.do_insert(payload, span, sink, local)),
            Command::Retract(payload) => Reply::Line(self.do_retract(payload, span, sink, local)),
            Command::Query(payload) => Reply::Line(self.do_query(payload, span, sink)),
            Command::Explain(payload) => Reply::Line(self.do_explain(payload, local)),
            Command::Analyze => Reply::Line(self.analysis_json.clone()),
            Command::Stats => Reply::Line(self.do_stats(local)),
            Command::Metrics => Reply::Line(self.do_metrics()),
            Command::Slowlog => Reply::Line(self.do_slowlog()),
        };
        if T::ENABLED {
            sink.span_close(span);
        }
        reply
    }

    /// Locks the writer state, charging the wait to the lock-wait
    /// counter.
    fn lock_writer(&self, local: &mut LocalMetrics) -> std::sync::MutexGuard<'_, Writer> {
        let t = SpanTimer::start();
        let w = self.state.lock().expect("writer lock poisoned");
        local.counter_add_ns(names::WRITER_WAIT, None, t.elapsed_ns());
        w
    }

    /// Parses a payload that must contain only facts.
    fn parse_facts(&self, voc: &mut Vocabulary, payload: &str) -> Result<Vec<Fact>, String> {
        let src = ensure_terminated(payload);
        match parse_into(&src, voc) {
            Err(e) => Err(e.to_string()),
            Ok((theory, inst, queries)) => {
                if !theory.is_empty() || !queries.is_empty() {
                    Err("payload must contain facts only".into())
                } else if inst.is_empty() {
                    Err("payload contains no facts".into())
                } else {
                    Ok(inst.facts().to_vec())
                }
            }
        }
    }

    fn do_insert<T: EventSink>(
        &self,
        payload: &str,
        span: u64,
        sink: &T,
        local: &mut LocalMetrics,
    ) -> String {
        let mut w = self.lock_writer(local);
        let facts = match self.parse_facts(&mut w.voc, payload) {
            Ok(f) => f,
            Err(e) => return format!("err {e}"),
        };
        let out = self.maintain_insert(&mut w, &facts, sink);
        local.counter_add(names::ROUNDS, None, u64::from(out.rounds));
        w.inserts += 1;
        self.commit(&mut w);
        if T::ENABLED {
            sink.record(Event {
                engine: "serve",
                name: "insert",
                parent: span,
                key: Some(("epoch", w.epoch_id)),
                fields: &[
                    ("new_facts", out.new_facts as u64),
                    ("rounds", u64::from(out.rounds)),
                    ("facts_total", out.facts_total as u64),
                    ("fixpoint", u64::from(out.complete)),
                ],
                gauges: &[],
            });
        }
        format!(
            "ok epoch={} new={} rounds={} facts={} fixpoint={}",
            w.epoch_id, out.new_facts, out.rounds, out.facts_total, out.complete
        )
    }

    fn do_retract<T: EventSink>(
        &self,
        payload: &str,
        span: u64,
        sink: &T,
        local: &mut LocalMetrics,
    ) -> String {
        let mut w = self.lock_writer(local);
        let facts = match self.parse_facts(&mut w.voc, payload) {
            Ok(f) => f,
            Err(e) => return format!("err {e}"),
        };
        let cfg = self.maintain_config();
        let out = {
            let Writer { voc, inc, .. } = &mut *w;
            inc.retract_with(&facts, voc, cfg, sink)
        };
        local.counter_add(names::ROUNDS, None, u64::from(out.rounds));
        local.counter_add(names::OVERDELETED, None, out.overdeleted as u64);
        local.counter_add(names::REDERIVED, None, out.new_facts as u64);
        // A retraction removes facts in place and shifts the later ones
        // down, so the old segment boundaries no longer hold: reseal as
        // one segment.
        w.segments = vec![w.inc.instance().len()];
        w.retracts += 1;
        self.commit(&mut w);
        if T::ENABLED {
            sink.record(Event {
                engine: "serve",
                name: "retract",
                parent: span,
                key: Some(("epoch", w.epoch_id)),
                fields: &[
                    ("retracted", out.retracted as u64),
                    ("overdeleted", out.overdeleted as u64),
                    ("rederived", out.new_facts as u64),
                    ("rounds", u64::from(out.rounds)),
                    ("facts_total", out.facts_total as u64),
                    ("fixpoint", u64::from(out.complete)),
                ],
                gauges: &[],
            });
        }
        format!(
            "ok epoch={} retracted={} overdeleted={} rederived={} rounds={} facts={} fixpoint={}",
            w.epoch_id,
            out.retracted,
            out.overdeleted,
            out.new_facts,
            out.rounds,
            out.facts_total,
            out.complete
        )
    }

    fn do_query<T: EventSink>(&self, payload: &str, span: u64, sink: &T) -> String {
        self.queries.fetch_add(1, Ordering::SeqCst);
        let epoch = self.epochs.snapshot();
        // Parse against a clone: reader-side interning (fresh variables,
        // unknown constants) must not leak into shared state.
        let mut voc = (*epoch.voc).clone();
        let cq = match parse_query(payload, &mut voc) {
            Ok(c) => c,
            Err(e) => return format!("err {e}"),
        };
        let ucq = Ucq::single(cq);
        let satisfied = hom::satisfies_ucq(&epoch.instance, &ucq);
        let resident = if satisfied {
            "true".to_string()
        } else if epoch.complete {
            "false".to_string()
        } else {
            format!("unknown reason={}", budget_name(epoch.exhausted))
        };
        if T::ENABLED {
            sink.record(Event {
                engine: "serve",
                name: "query",
                parent: span,
                key: Some(("epoch", epoch.id)),
                fields: &[
                    ("satisfied", u64::from(satisfied)),
                    ("decided", u64::from(satisfied || epoch.complete)),
                ],
                gauges: &[],
            });
        }
        resident
    }

    fn do_explain(&self, payload: &str, local: &mut LocalMetrics) -> String {
        let w = self.lock_writer(local);
        let mut voc = w.voc.clone();
        let facts = match self.parse_facts(&mut voc, payload) {
            Ok(f) => f,
            Err(e) => return format!("err {e}"),
        };
        if facts.len() != 1 {
            return "err explain takes exactly one fact".into();
        }
        match w.inc.explain(&facts[0]) {
            None => format!("err not resident: {}", facts[0].display(&voc)),
            Some(tree) => {
                format!("ok depth={}\n{}", tree.height(), tree.display(&voc).trim_end())
            }
        }
    }

    fn do_stats(&self, local: &mut LocalMetrics) -> String {
        let w = self.lock_writer(local);
        format!(
            "{{\"schema\":1,\"epoch\":{},\"facts\":{},\"base\":{},\"segments\":{},\
             \"rounds_total\":{},\"fixpoint\":{},\"inserts\":{},\"retracts\":{},\"queries\":{}}}",
            w.epoch_id,
            w.inc.instance().len(),
            w.inc.base().len(),
            sealed_segments(&w),
            w.inc.rounds_total(),
            w.inc.complete(),
            w.inserts,
            w.retracts,
            self.queries.load(Ordering::SeqCst)
        )
    }

    fn do_metrics(&self) -> String {
        match self.metrics_snapshot() {
            None => "err metrics disabled".into(),
            Some(snap) => snap.to_json(),
        }
    }

    fn do_slowlog(&self) -> String {
        match &self.slowlog {
            None => "err slowlog disabled (start with --slow-ms)".into(),
            Some(sl) => {
                let entries = sl.entries();
                let mut out = format!("ok n={}", entries.len());
                for e in &entries {
                    out.push('\n');
                    out.push_str(e);
                }
                out
            }
        }
    }
}

/// Sealed segments in the working state (the leading `0` boundary is
/// bookkeeping, not a segment).
fn sealed_segments(w: &Writer) -> u64 {
    w.segments.len().saturating_sub(usize::from(w.segments.first() == Some(&0))) as u64
}

/// The metrics label for one parsed command.
fn command_verb(cmd: &Command) -> &'static str {
    match cmd {
        Command::Insert(_) => "insert",
        Command::Retract(_) => "retract",
        Command::Query(_) => "query",
        Command::Explain(_) => "explain",
        Command::Analyze => "analyze",
        Command::Stats => "stats",
        Command::Metrics => "metrics",
        Command::Slowlog => "slowlog",
        Command::Quit => "quit",
        Command::Nop => "nop",
    }
}

fn budget_name(e: Option<BudgetExhausted>) -> &'static str {
    match e {
        Some(BudgetExhausted::Facts) => "facts",
        _ => "rounds",
    }
}

/// Drives a whole session: reads protocol lines from `input`, writes
/// one response per command to `out` (flushing after each), stops at
/// `quit` or EOF.
pub fn run_session<S: EventSink>(
    server: &Server<'_, S>,
    input: impl BufRead,
    mut out: impl Write,
) -> std::io::Result<()> {
    for line in input.lines() {
        match server.handle_line(&line?) {
            Reply::None => {}
            Reply::Line(resp) => {
                writeln!(out, "{resp}")?;
                out.flush()?;
            }
            Reply::Quit(resp) => {
                writeln!(out, "{resp}")?;
                out.flush()?;
                break;
            }
        }
    }
    Ok(())
}

/// Runs a scripted session over an in-memory transcript: every response
/// line, concatenated. This is what the golden-transcript tests and the
/// fuzz differential drive.
pub fn transcript<S: EventSink>(server: &Server<'_, S>, commands: &str) -> String {
    let mut out = Vec::new();
    run_session(server, commands.as_bytes(), &mut out).expect("in-memory session cannot fail");
    String::from_utf8(out).expect("responses are utf-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::parse_program;

    fn tc_program() -> Program {
        parse_program(
            "E(X,Y), E(Y,Z) -> E(X,Z).
             E(a,b). E(b,c).",
        )
        .unwrap()
    }

    #[test]
    fn insert_query_retract_round_trip() {
        let prog = tc_program();
        let server = Server::new(&prog, ServeConfig::default());
        assert_eq!(
            transcript(&server, "query E(a,c)"),
            "true\n",
            "initial load must already be chased"
        );
        let t = transcript(
            &server,
            "insert E(c,d).\nquery E(a,d)\nretract E(b,c).\nquery E(a,d)\nquery E(a,b)\nquit",
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("ok epoch=2 new="), "{t}");
        assert_eq!(lines[1], "true");
        assert!(lines[2].starts_with("ok epoch=3 retracted=1"), "{t}");
        assert_eq!(lines[3], "false", "E(a,d) needed E(b,c)");
        assert_eq!(lines[4], "true");
        assert_eq!(lines[5], "bye");
    }

    #[test]
    fn queries_are_snapshot_isolated() {
        let prog = tc_program();
        let server = Server::new(&prog, ServeConfig::default());
        let pinned = server.snapshot();
        transcript(&server, "insert E(c,d).");
        // The pre-insert pin does not see the new fact; a fresh one does.
        let mut voc = (*pinned.voc).clone();
        let q = Ucq::single(parse_query("E(c,d)", &mut voc).unwrap());
        assert!(!hom::satisfies_ucq(&pinned.instance, &q));
        let fresh = server.snapshot();
        assert!(hom::satisfies_ucq(&fresh.instance, &q));
        assert!(fresh.id > pinned.id);
    }

    #[test]
    fn segments_accumulate_on_insert_and_reseal_on_retract() {
        let prog = tc_program();
        let server = Server::new(&prog, ServeConfig::default());
        assert_eq!(server.snapshot().segments.len(), 2); // [0, initial]
        transcript(&server, "insert E(c,d).");
        assert_eq!(server.snapshot().segments.len(), 3);
        transcript(&server, "retract E(a,b).");
        let sealed = server.snapshot();
        assert_eq!(sealed.segments.len(), 1);
        assert_eq!(*sealed.segments, vec![sealed.instance.len()]);
    }

    #[test]
    fn epochs_share_the_writer_instance_and_copy_on_write() {
        let prog = tc_program();
        let server = Server::new(&prog, ServeConfig::default());
        let writer = |server: &Server<'_>| {
            let w = server.state.lock().unwrap();
            (w.inc.shared_instance(), w.inc.instance_copies())
        };
        let pinned = server.snapshot();
        let pinned_facts = pinned.instance.facts().to_vec();
        let (inst, copies) = writer(&server);
        assert!(Arc::ptr_eq(&pinned.instance, &inst), "the load epoch is the writer's instance");
        drop(inst);

        transcript(&server, "insert E(c,d).");
        let inserted = server.snapshot();
        let inserted_facts = inserted.instance.facts().to_vec();
        let (inst, after_insert) = writer(&server);
        assert_eq!(after_insert, copies + 1, "an insert copies the shared instance once");
        assert!(Arc::ptr_eq(&inserted.instance, &inst));
        drop(inst);

        transcript(&server, "retract E(a,b).");
        let retracted = server.snapshot();
        let (inst, after_retract) = writer(&server);
        assert_eq!(after_retract, after_insert + 1, "a retract copies the shared instance once");
        assert!(Arc::ptr_eq(&retracted.instance, &inst));

        // Pins taken before each mutation still read their own facts.
        assert_eq!(pinned.instance.facts(), &pinned_facts[..]);
        assert_eq!(inserted.instance.facts(), &inserted_facts[..]);
        assert!(inserted_facts.len() > pinned_facts.len());
        assert!(retracted.instance.len() < inserted_facts.len());
    }

    #[test]
    fn commits_reuse_the_vocabulary_unless_a_write_interns() {
        let prog = tc_program();
        let server = Server::new(&prog, ServeConfig::default());
        let loaded = server.snapshot();
        transcript(&server, "insert E(c,a).");
        let known = server.snapshot();
        assert_eq!(known.id, loaded.id + 1);
        assert!(Arc::ptr_eq(&loaded.voc, &known.voc), "known names: the vocabulary is shared");
        transcript(&server, "retract E(c,a).");
        assert!(Arc::ptr_eq(&known.voc, &server.snapshot().voc));

        transcript(&server, "insert E(c,zed).");
        let fresh = server.snapshot();
        assert!(!Arc::ptr_eq(&known.voc, &fresh.voc), "a new name: a new vocabulary");
        assert!(known.voc.find_const("zed").is_none());
        assert!(fresh.voc.find_const("zed").is_some());
        assert_eq!(transcript(&server, "query E(a,zed)"), "true\n");
    }

    #[test]
    fn errors_name_the_offence_and_leave_state_intact() {
        let prog = tc_program();
        let server = Server::new(&prog, ServeConfig::default());
        let t = transcript(
            &server,
            "bogus\ninsert\ninsert E(X,Y) -> E(Y,X).\nquery E(\nstats",
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].starts_with("err unknown command `bogus`"), "{t}");
        assert!(lines[1].starts_with("err `insert` needs a payload"), "{t}");
        assert!(lines[2].starts_with("err payload must contain facts only"), "{t}");
        assert!(lines[3].starts_with("err parse error"), "{t}");
        assert!(lines[4].starts_with("{\"schema\":1,\"epoch\":1,\"facts\":3,\"base\":2"), "{t}");
    }

    #[test]
    fn explain_prints_a_derivation_tree() {
        let prog = tc_program();
        let server = Server::new(&prog, ServeConfig::default());
        let t = transcript(&server, "explain E(a,c)\nexplain E(c,a)");
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "ok depth=1");
        assert!(lines[1].contains("E(a,c)") && lines[1].contains("[rule #0]"), "{t}");
        assert!(lines[2].contains("E(a,b)") && lines[2].contains("[database]"), "{t}");
        assert!(lines[4].starts_with("err not resident: E(c,a)"), "{t}");
    }

    #[test]
    fn unknown_carries_the_budget_reason() {
        let prog = parse_program(
            "E(X,Y) -> exists Z . E(Y,Z).
             E(a,b).",
        )
        .unwrap();
        let server = Server::new(
            &prog,
            ServeConfig { max_rounds: 2, ..ServeConfig::default() },
        );
        let t = transcript(&server, "query E(X,X)");
        assert_eq!(t, "unknown reason=rounds\n");
        let server = Server::new(
            &prog,
            ServeConfig { max_facts: 2, ..ServeConfig::default() },
        );
        let t = transcript(&server, "query E(X,X)");
        assert_eq!(t, "unknown reason=facts\n");
    }
}
