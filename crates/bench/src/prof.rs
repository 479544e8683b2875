//! Profile computation for the `bddfc-prof` CLI: zoo workload registry,
//! per-rule / per-predicate attribution tables, span trees, log2 latency
//! histograms and collapsed-stack (flamegraph) output — all derived from
//! one [`Memory`] sink snapshot, std-only.
//!
//! ## Determinism
//!
//! Everything rendered with `show_gauges == false` (the CLI's `--check`
//! mode) is a pure function of the *deterministic* telemetry payload:
//! event fields, attribution keys, span ids/parents/names. Those are
//! thread-count invariant by the `bddfc_core::obs` contract, so `--check`
//! output is byte-identical at any `BDDFC_THREADS` setting — the
//! profiler's own regression suite pins this. Wall-clock columns, the
//! latency histogram and flamegraph weights are gauges and only appear
//! in the default (timed) mode.

use bddfc_chase::engine::{chase_with, ChaseConfig, ChaseStats};
use bddfc_chase::finder::{find_model_with, FinderConfig};
use bddfc_core::obs::{event_json, span_json, EventSink, LogHistogram, Memory, OwnedEvent, Span};
use bddfc_core::{parse_rule, Theory, Vocabulary};
use bddfc_rewrite::{rewrite_query_with, RewriteConfig};
use bddfc_types::TypeAnalyzer;
use bddfc_zoo::{colored_chain, example1, notorious, path_query, random_graph};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The workloads `bddfc-prof --workload <name>` can run: `(name, summary)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("e13", "transitive-closure chase over a seeded random graph (the overhead-guard shape)"),
    ("throughput", "the chase_throughput bench shape: existential + join rule, 100-node graph"),
    ("example1", "Example 1's diverging chase, bounded at 6 rounds"),
    ("saturate", "datalog chase (symmetry + transitivity) of a seeded random graph to fixpoint"),
    ("rewrite", "UCQ rewriting of a path query under successor + transitivity"),
    ("types", "type-analyzer partition of a colored chain"),
    ("finder", "bounded countermodel search for the notorious Section 5.5 theory"),
];

/// Static description of one rule/predicate namespace produced by a
/// workload run — everything the renderer needs to turn attribution
/// keys back into human-readable labels.
pub struct WorkloadRun {
    /// The workload that ran.
    pub workload: &'static str,
    /// `rule_labels[i]` displays theory rule `i` (the `("rule", i)` key).
    pub rule_labels: Vec<String>,
    /// `(pred id, name)` for every predicate (the `("pred", id)` key).
    pub pred_labels: Vec<(u64, String)>,
    /// The legacy [`ChaseStats`] of the run, when the workload chased —
    /// kept so the profiler can reconcile event totals against it.
    pub chase_stats: Option<ChaseStats>,
}

fn rule_labels(theory: &Theory, voc: &Vocabulary) -> Vec<String> {
    theory.rules.iter().map(|r| r.display(voc).to_string()).collect()
}

fn pred_labels(voc: &Vocabulary) -> Vec<(u64, String)> {
    voc.preds().map(|(p, _)| (p.index() as u64, voc.pred_name(p).to_string())).collect()
}

/// Runs one named workload with every engine entry point wired to
/// `sink`; returns `None` for an unknown name. The workloads are seeded
/// and budgeted, so repeated runs do identical algorithmic work.
pub fn run_workload<S: EventSink>(name: &str, sink: &S) -> Option<WorkloadRun> {
    match name {
        "e13" => {
            // Same shape as tests/overhead.rs and the chase benches.
            let mut voc = Vocabulary::new();
            let theory =
                Theory::new(vec![parse_rule("E(X,Y), E(Y,Z) -> E(X,Z)", &mut voc).unwrap()]);
            let db = random_graph(&mut voc, 60, 180, 13);
            let config = ChaseConfig { max_rounds: 8, max_facts: 200_000, ..Default::default() };
            let res = chase_with(&db, &theory, &mut voc, config, sink);
            Some(WorkloadRun {
                workload: "e13",
                rule_labels: rule_labels(&theory, &voc),
                pred_labels: pred_labels(&voc),
                chase_stats: Some(res.stats),
            })
        }
        "throughput" => {
            // Mirrors `chase_throughput/Restricted/100` in benches/chase_bench.rs.
            let mut voc = Vocabulary::new();
            let theory = Theory::new(vec![
                parse_rule("E(X,Y) -> exists Z . E(Y,Z)", &mut voc).unwrap(),
                parse_rule("E(X,Y), E(Y,Z) -> R(X,Z)", &mut voc).unwrap(),
            ]);
            let db = random_graph(&mut voc, 100, 200, 42);
            let config =
                ChaseConfig { max_rounds: 3, max_facts: 2_000_000, ..Default::default() };
            let res = chase_with(&db, &theory, &mut voc, config, sink);
            Some(WorkloadRun {
                workload: "throughput",
                rule_labels: rule_labels(&theory, &voc),
                pred_labels: pred_labels(&voc),
                chase_stats: Some(res.stats),
            })
        }
        "example1" => {
            let prog = example1();
            let mut voc = prog.voc.clone();
            let res = chase_with(
                &prog.instance,
                &prog.theory,
                &mut voc,
                ChaseConfig::rounds(6),
                sink,
            );
            Some(WorkloadRun {
                workload: "example1",
                rule_labels: rule_labels(&prog.theory, &voc),
                pred_labels: pred_labels(&voc),
                chase_stats: Some(res.stats),
            })
        }
        "saturate" => {
            let mut voc = Vocabulary::new();
            let theory = Theory::new(vec![
                parse_rule("E(X,Y) -> E(Y,X)", &mut voc).unwrap(),
                parse_rule("E(X,Y), E(Y,Z) -> E(X,Z)", &mut voc).unwrap(),
            ]);
            let db = random_graph(&mut voc, 40, 120, 7);
            let res = chase_with(&db, &theory, &mut voc, ChaseConfig::default(), sink);
            Some(WorkloadRun {
                workload: "saturate",
                rule_labels: rule_labels(&theory, &voc),
                pred_labels: pred_labels(&voc),
                chase_stats: Some(res.stats),
            })
        }
        "rewrite" => {
            let mut voc = Vocabulary::new();
            let theory = Theory::new(vec![
                parse_rule("E(X,Y) -> exists Z . E(Y,Z)", &mut voc).unwrap(),
                parse_rule("E(X,Y), E(Y,Z) -> E(X,Z)", &mut voc).unwrap(),
            ]);
            let query = path_query(&mut voc, 4);
            let config =
                RewriteConfig { max_disjuncts: 200, max_steps: 2_000, max_piece: 3 };
            let _ = rewrite_query_with(&query, &theory, &mut voc, config, sink);
            Some(WorkloadRun {
                workload: "rewrite",
                rule_labels: rule_labels(&theory, &voc),
                pred_labels: pred_labels(&voc),
                chase_stats: None,
            })
        }
        "types" => {
            let mut voc = Vocabulary::new();
            let (inst, _) = colored_chain(&mut voc, 60, 3);
            let analyzer = TypeAnalyzer::new(&inst, &mut voc, 2);
            let _ = analyzer.partition_with(sink);
            Some(WorkloadRun {
                workload: "types",
                rule_labels: Vec::new(),
                pred_labels: pred_labels(&voc),
                chase_stats: None,
            })
        }
        "finder" => {
            let prog = notorious();
            let mut voc = prog.voc.clone();
            let forbidden = prog.queries.first().cloned();
            let config = FinderConfig { max_size: 3, max_nodes: 50_000 };
            let _ = find_model_with(
                &prog.instance,
                &prog.theory,
                &mut voc,
                forbidden.as_ref(),
                config,
                sink,
            );
            Some(WorkloadRun {
                workload: "finder",
                rule_labels: rule_labels(&prog.theory, &voc),
                pred_labels: pred_labels(&voc),
                chase_stats: None,
            })
        }
        _ => None,
    }
}

/// Formats a nanosecond count with an SI unit, integer math only.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{}.{:02}us", ns / 1_000, (ns % 1_000) / 10)
    } else if ns < 1_000_000_000 {
        format!("{}.{:02}ms", ns / 1_000_000, (ns % 1_000_000) / 10_000)
    } else {
        format!("{}.{:02}s", ns / 1_000_000_000, (ns % 1_000_000_000) / 10_000_000)
    }
}

/// `num / denom` as a percentage with one decimal, integer math only.
fn fmt_pct(num: u64, denom: u64) -> String {
    if denom == 0 {
        return "-".to_string();
    }
    let permille = (u128::from(num) * 1000 / u128::from(denom)) as u64;
    format!("{}.{}%", permille / 10, permille % 10)
}

/// One aggregated attribution row: all events sharing a key within one
/// `(engine, event)` kind.
struct KeyRow {
    key: u64,
    events: u64,
    /// Field sums aligned with the owning table's `field_names`.
    fields: Vec<u64>,
    ns: u64,
}

/// One per-key attribution table, e.g. all `chase`/`trigger` events
/// grouped by their `("rule", i)` key.
struct KeyTable {
    engine: &'static str,
    event: &'static str,
    kind: &'static str,
    field_names: Vec<&'static str>,
    rows: Vec<KeyRow>,
}

/// A profiler report computed from one [`Memory`] snapshot. Rendering is
/// split per artifact so the CLI and the tests can pick what they need.
pub struct Report {
    events: Vec<OwnedEvent>,
    spans: Vec<Span>,
    /// Label context and reconciliation baseline from the workload run.
    pub run: WorkloadRun,
    /// When false (`--check`), every gauge-derived number — wall times,
    /// percentages, histogram, flame weights — is suppressed so the
    /// output is thread-count deterministic.
    pub show_gauges: bool,
}

impl Report {
    /// Snapshots `sink` into a report.
    pub fn new(sink: &Memory, run: WorkloadRun, show_gauges: bool) -> Self {
        Report { events: sink.events(), spans: sink.spans(), run, show_gauges }
    }

    fn key_label(&self, kind: &str, v: u64) -> String {
        match kind {
            "rule" => match self.run.rule_labels.get(v as usize) {
                Some(l) => format!("[{v}] {l}"),
                None => format!("rule[{v}]"),
            },
            "pred" => match self.run.pred_labels.iter().find(|(id, _)| *id == v) {
                Some((_, n)) => n.clone(),
                None => format!("pred[{v}]"),
            },
            _ => format!("{kind}[{v}]"),
        }
    }

    /// Builds the aggregated per-key tables, sorted by `(engine, event)`
    /// and by key within each table.
    fn key_tables(&self) -> Vec<KeyTable> {
        struct Acc {
            kind: &'static str,
            rows: BTreeMap<u64, (u64, BTreeMap<&'static str, u64>, u64)>,
        }
        let mut tables: BTreeMap<(&'static str, &'static str), Acc> = BTreeMap::new();
        for e in &self.events {
            let Some((kind, key)) = e.key else { continue };
            let acc = tables
                .entry((e.engine, e.name))
                .or_insert_with(|| Acc { kind, rows: BTreeMap::new() });
            let row = acc.rows.entry(key).or_insert_with(|| (0, BTreeMap::new(), 0));
            row.0 += 1;
            for &(f, v) in &e.fields {
                *row.1.entry(f).or_insert(0) += v;
            }
            row.2 += e.gauge("wall_ns").unwrap_or(0);
        }
        tables
            .into_iter()
            .map(|((engine, event), acc)| {
                let field_names: Vec<&'static str> = acc
                    .rows
                    .values()
                    .flat_map(|(_, fs, _)| fs.keys().copied())
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let rows = acc
                    .rows
                    .into_iter()
                    .map(|(key, (events, fs, ns))| KeyRow {
                        key,
                        events,
                        fields: field_names
                            .iter()
                            .map(|f| fs.get(f).copied().unwrap_or(0))
                            .collect(),
                        ns,
                    })
                    .collect();
                KeyTable { engine, event, kind: acc.kind, field_names, rows }
            })
            .collect()
    }

    /// Total wall time of an engine's root span(s) — the denominator for
    /// the "% of run" column.
    fn engine_root_ns(&self, engine: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == 0 && s.engine == engine)
            .map(Span::wall_ns)
            .sum()
    }

    /// Renders every attribution table (per rule, per predicate, per
    /// piece size, …) as aligned text.
    pub fn render_tables(&self) -> String {
        let tables = self.key_tables();
        if tables.is_empty() {
            return "no attributed events recorded\n".to_string();
        }
        let mut out = String::new();
        for t in &tables {
            let denom = self.engine_root_ns(t.engine);
            // Events without a wall_ns gauge would only render a column
            // of zeros — omit it.
            let timed = self.show_gauges && t.rows.iter().any(|r| r.ns > 0);
            let _ = writeln!(out, "profile — {}/{} by {}", t.engine, t.event, t.kind);
            // Column headers: label, events, each field, then gauges.
            let mut header: Vec<String> =
                vec![t.kind.to_string(), "events".to_string()];
            header.extend(t.field_names.iter().map(|f| f.to_string()));
            if timed {
                header.push("total_ns".to_string());
                header.push("% of run".to_string());
            }
            let mut grid: Vec<Vec<String>> = vec![header];
            for r in &t.rows {
                let mut row = vec![self.key_label(t.kind, r.key), r.events.to_string()];
                row.extend(r.fields.iter().map(|v| v.to_string()));
                if timed {
                    row.push(fmt_ns(r.ns));
                    row.push(fmt_pct(r.ns, denom));
                }
                grid.push(row);
            }
            let cols = grid[0].len();
            let widths: Vec<usize> = (0..cols)
                .map(|c| grid.iter().map(|r| r[c].len()).max().unwrap_or(0))
                .collect();
            for row in &grid {
                let mut line = String::new();
                for (c, cell) in row.iter().enumerate() {
                    if c == 0 {
                        // Left-align the label column.
                        let _ = write!(line, "  {cell:<w$}", w = widths[0]);
                    } else {
                        let _ = write!(line, "  {cell:>w$}", w = widths[c]);
                    }
                }
                let _ = writeln!(out, "{}", line.trim_end());
            }
            out.push('\n');
        }
        out
    }

    /// Renders the span hierarchy, indented by parenthood, in id order
    /// within each level.
    pub fn render_span_tree(&self) -> String {
        if self.spans.is_empty() {
            return "no spans recorded\n".to_string();
        }
        let ids: BTreeSet<u64> = self.spans.iter().map(|s| s.id).collect();
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        let mut roots: Vec<&Span> = Vec::new();
        for s in &self.spans {
            if s.parent != 0 && ids.contains(&s.parent) {
                children.entry(s.parent).or_default().push(s);
            } else {
                roots.push(s);
            }
        }
        let mut out = String::from("span tree\n");
        fn render(
            report: &Report,
            out: &mut String,
            children: &BTreeMap<u64, Vec<&Span>>,
            s: &Span,
            depth: usize,
        ) {
            let key = s.key.map(|(k, v)| format!("[{k}={v}]")).unwrap_or_default();
            let _ = write!(
                out,
                "{:indent$}{}/{}{} #{}",
                "",
                s.engine,
                s.name,
                key,
                s.id,
                indent = 2 + depth * 2
            );
            if report.show_gauges {
                if s.is_closed() {
                    let _ = write!(out, "  {}", fmt_ns(s.wall_ns()));
                } else {
                    let _ = write!(out, "  (open)");
                }
            }
            out.push('\n');
            for c in children.get(&s.id).into_iter().flatten() {
                render(report, out, children, c, depth + 1);
            }
        }
        for r in roots {
            render(self, &mut out, &children, r, 0);
        }
        out
    }

    /// A log2 histogram of the `wall_ns` gauge of every *attributed*
    /// (keyed) event — the per-rule / per-piece work quanta.
    pub fn histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for e in &self.events {
            if e.key.is_some() {
                if let Some(ns) = e.gauge("wall_ns") {
                    h.record(ns);
                }
            }
        }
        // A workload with no timed attribution still gets a latency
        // distribution: fall back to closed-span durations.
        if h.count() == 0 {
            for s in self.spans.iter().filter(|s| s.is_closed()) {
                h.record(s.wall_ns());
            }
        }
        h
    }

    /// Renders [`Report::histogram`] as an ASCII bar chart over the
    /// non-empty log2 buckets.
    pub fn render_histogram(&self) -> String {
        let h = self.histogram();
        let mut out = String::from("latency histogram (attributed work, log2 ns buckets)\n");
        if h.count() == 0 {
            out.push_str("  (empty)\n");
            return out;
        }
        let max = h.max_count();
        for (i, c) in h.nonzero() {
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            let bar = "#".repeat(((c * 30).div_ceil(max)) as usize);
            let _ = writeln!(out, "  [{:>12}, {:>12}) ns  {c:>6}  {bar}", lo, hi);
        }
        out
    }

    /// Frame name for an attributed event in a collapsed stack: no
    /// spaces or semicolons, e.g. `rule[3]` or a predicate name.
    fn event_frame(&self, kind: &str, v: u64) -> String {
        let raw = match kind {
            "pred" => match self.run.pred_labels.iter().find(|(id, _)| *id == v) {
                Some((_, n)) => n.clone(),
                None => format!("pred[{v}]"),
            },
            _ => format!("{kind}[{v}]"),
        };
        raw.replace([' ', ';'], "_")
    }

    /// Collapsed-stack (Brendan Gregg "folded") output: one
    /// `frame;frame;frame weight` line per stack, weights in
    /// nanoseconds of *self* time — span durations minus child spans
    /// minus attributed event time, clamped at zero. Feed the result to
    /// any flamegraph renderer.
    pub fn render_folded(&self) -> String {
        let by_id: BTreeMap<u64, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        // Stack path of a span: root-to-span frame list.
        let path = |s: &Span| -> String {
            let mut frames = Vec::new();
            let mut cur = Some(s);
            while let Some(s) = cur {
                let key = s.key.map(|(_, v)| format!("[{v}]")).unwrap_or_default();
                frames.push(format!("{}/{}{}", s.engine, s.name, key));
                cur = by_id.get(&s.parent).copied();
            }
            frames.reverse();
            frames.join(";")
        };
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.wall_ns();
            }
        }
        // Attributed event time charged under each span.
        let mut attr_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for e in &self.events {
            let Some((kind, key)) = e.key else { continue };
            let ns = e.gauge("wall_ns").unwrap_or(0);
            if ns == 0 {
                continue;
            }
            let frame = self.event_frame(kind, key);
            let stack = match by_id.get(&e.parent) {
                Some(parent) => format!("{};{frame}", path(parent)),
                None => frame,
            };
            *stacks.entry(stack).or_insert(0) += ns;
            *attr_ns.entry(e.parent).or_insert(0) += ns;
        }
        for s in &self.spans {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let attributed = attr_ns.get(&s.id).copied().unwrap_or(0);
            let this = s.wall_ns().saturating_sub(children).saturating_sub(attributed);
            if this > 0 {
                *stacks.entry(path(s)).or_insert(0) += this;
            }
        }
        let mut out = String::new();
        for (stack, ns) in stacks {
            let _ = writeln!(out, "{stack} {ns}");
        }
        out
    }

    /// Re-serializes the recorded telemetry as JSON lines (events in
    /// arrival order, then spans in id order) — the `--trace` artifact.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(out, "{}", event_json(&e.as_event()));
        }
        for s in &self.spans {
            let _ = writeln!(out, "{}", span_json(s));
        }
        out
    }

    /// Cross-checks the recorded telemetry against its own invariants
    /// and (when the workload chased) against the legacy [`ChaseStats`]
    /// counters. Returns one deterministic line per passed check; the
    /// first violated invariant becomes the `Err`.
    pub fn reconcile(&self) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        // 1. Span log invariants: sequential ids, all closed.
        for (i, s) in self.spans.iter().enumerate() {
            if s.id != i as u64 + 1 {
                return Err(format!(
                    "span ids not sequential: position {i} holds id {}",
                    s.id
                ));
            }
            if !s.is_closed() {
                return Err(format!("span #{} ({}/{}) was never closed", s.id, s.engine, s.name));
            }
        }
        lines.push(format!("spans: {} recorded, ids sequential, all closed", self.spans.len()));
        // 2. Every event's parent is a recorded span (or 0).
        let ids: BTreeSet<u64> = self.spans.iter().map(|s| s.id).collect();
        for e in &self.events {
            if e.parent != 0 && !ids.contains(&e.parent) {
                return Err(format!(
                    "event {}/{} references unknown parent span {}",
                    e.engine, e.name, e.parent
                ));
            }
        }
        lines.push(format!("events: {} recorded, all parent spans resolve", self.events.len()));
        // 3. Chase attribution reconciles with the legacy counters: the
        //    per-rule trigger events and the per-round summaries must
        //    both sum to ChaseStats::total_body_matches.
        if let Some(stats) = &self.run.chase_stats {
            let sum = |name: &str| -> u64 {
                self.events
                    .iter()
                    .filter(|e| e.engine == "chase" && e.name == name)
                    .filter_map(|e| e.field("body_matches"))
                    .sum()
            };
            let per_rule = sum("trigger");
            let per_round = sum("round");
            let legacy = stats.total_body_matches();
            if per_rule != legacy || per_round != legacy {
                return Err(format!(
                    "body_matches mismatch: per-rule events {per_rule}, \
                     per-round events {per_round}, ChaseStats {legacy}"
                ));
            }
            lines.push(format!(
                "chase: body_matches {legacy} reconciles (per-rule == per-round == ChaseStats)"
            ));
            let rounds = self
                .events
                .iter()
                .filter(|e| e.engine == "chase" && e.name == "round")
                .count();
            if rounds != stats.body_matches_per_round.len() {
                return Err(format!(
                    "round event count {rounds} != ChaseStats rounds {}",
                    stats.body_matches_per_round.len()
                ));
            }
            lines.push(format!("chase: {rounds} round events match ChaseStats"));
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_for(workload: &str) -> Report {
        let sink = Memory::new(1 << 16);
        let run = run_workload(workload, &sink).expect("known workload");
        Report::new(&sink, run, true)
    }

    #[test]
    fn every_registered_workload_runs_and_reconciles() {
        for &(name, _) in WORKLOADS {
            let r = report_for(name);
            let lines = r.reconcile().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!lines.is_empty(), "{name}");
            assert!(!r.render_span_tree().is_empty());
        }
    }

    #[test]
    fn unknown_workload_is_rejected() {
        assert!(run_workload("nope", &Memory::new(8)).is_none());
    }

    #[test]
    fn e13_tables_attribute_the_transitivity_rule() {
        let r = report_for("e13");
        let tables = r.render_tables();
        assert!(tables.contains("chase/trigger by rule"), "{tables}");
        assert!(tables.contains("E(X,Y), E(Y,Z) -> E(X,Z)"), "{tables}");
        assert!(tables.contains("join/build by pred"), "{tables}");
        assert!(tables.contains("join/probe by pred"), "{tables}");
        // The folded output has the run/round span prefix.
        let folded = r.render_folded();
        assert!(folded.lines().all(|l| l.rsplit_once(' ').is_some()), "{folded}");
        assert!(folded.contains("chase/run;chase/round[1]"), "{folded}");
    }

    #[test]
    fn check_mode_output_has_no_gauge_columns() {
        let sink = Memory::new(1 << 16);
        let run = run_workload("e13", &sink).unwrap();
        let r = Report::new(&sink, run, false);
        let tables = r.render_tables();
        assert!(!tables.contains("total_ns"), "{tables}");
        assert!(!tables.contains('%'), "{tables}");
        let tree = r.render_span_tree();
        assert!(tree.contains("chase/run #1"), "{tree}");
        assert!(!tree.contains("ms"), "{tree}");
    }

    #[test]
    fn trace_round_trips_the_memory_log() {
        let r = report_for("example1");
        let trace = r.render_trace();
        assert!(trace.lines().all(|l| l.starts_with("{\"schema\":1,") && l.ends_with('}')));
        let span_lines = trace.lines().filter(|l| l.contains("\"span\":")).count();
        assert_eq!(span_lines, r.spans.len());
    }

    #[test]
    fn ns_formatting_is_integer_stable() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_234), "1.23us");
        assert_eq!(fmt_ns(12_345_678), "12.34ms");
        assert_eq!(fmt_ns(1_234_567_890), "1.23s");
        assert_eq!(fmt_pct(1, 3), "33.3%");
        assert_eq!(fmt_pct(5, 0), "-");
    }
}
