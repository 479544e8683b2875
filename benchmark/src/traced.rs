//! The traced run: replays all four workloads from the layers' public
//! functions with a span around each call, and derives the per-layer
//! metrics. It uses the timed run's seed and inputs but fewer
//! operations, and never feeds the end-to-end numbers.

use crate::inputs::{fc_cases, ChaseInput, FcCase, Org, CHASE_ROUNDS};
use crate::measure::median;
use crate::replica::Replica;
use crate::timed::{
    fc_ok, fc_op, read_stream, reply_field, write_stream, READ_PEOPLE, WRITE_PEOPLE,
};
use crate::tracer::Tracer;
use bddfc_chase::{chase, chase_with, saturate_datalog, ChaseConfig, ChaseStatus};
use bddfc_core::fxhash::{FxHashMap, FxHashSet};
use bddfc_core::obs::{Memory, NULL};
use bddfc_core::par::with_thread_count;
use bddfc_core::{hom, parse_program, ConstId, PredId};
use bddfc_finite::{
    certify_countermodel, finite_countermodel, hide_query, normalize_spade5, skeleton, FcConfig,
    FcOutcome,
};
use bddfc_rewrite::kappa;
use bddfc_serve::{ServeConfig, Server};
use bddfc_types::{natural_coloring, Quotient, TypeAnalyzer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Queries replayed in the traced run.
const READ_OPS: usize = 400;
/// Updates replayed in the traced run.
const WRITE_OPS: usize = 60;
/// Chases replayed in the traced run (and pairs for the slowdown).
const CHASE_OPS: usize = 16;
/// Pipeline operations replayed in the traced run (and slowdown pairs).
const FC_OPS: usize = 6;

/// Per-layer results of the traced run.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)`, in the order produced.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Checked operations.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// Root span wall time of traced operations, and of the same
    /// replay untraced, in nanoseconds — the tracing overhead's parts.
    traced_ns: u64,
    plain_ns: u64,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Self time per operation of each span name, for operations `>= first`.
fn per_op(tr: &Tracer, first: u64) -> BTreeMap<&'static str, Vec<f64>> {
    tr.self_ns_per_op()
        .into_iter()
        .map(|(name, ops)| {
            (
                name,
                ops.range(first..)
                    .map(|(_, &ns)| ns as f64)
                    .collect::<Vec<_>>(),
            )
        })
        .filter(|(_, v)| !v.is_empty())
        .collect()
}

/// Median per-operation self time of `name`, in `scale` units of a ns.
fn med(per: &BTreeMap<&'static str, Vec<f64>>, name: &str, scale: f64) -> f64 {
    per.get(name).map_or(0.0, |v| median(v) / scale)
}

/// Total self time under every span but the operation roots.
fn layer_sum_ns(per: &BTreeMap<&'static str, Vec<f64>>, root: &str) -> f64 {
    per.iter()
        .filter(|(n, _)| **n != root)
        .flat_map(|(_, v)| v)
        .sum()
}

fn timed<R>(ns: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    r
}

/// Runs every replay and returns the per-layer metrics, writing the
/// spans as JSON lines to `spans`.
pub fn run(seed: u64, spans: &mut impl std::io::Write) -> std::io::Result<Report> {
    let mut rep = Report::default();
    let mut unaccounted = Vec::new();
    let tr = serve_read(seed, &mut rep, &mut unaccounted);
    write_spans(&tr, "serve_read", spans)?;
    let tr = serve_write(seed, &mut rep, &mut unaccounted);
    write_spans(&tr, "serve_write", spans)?;
    let tr = chase_e13(seed, &mut rep);
    write_spans(&tr, "chase_e13", spans)?;
    let tr = fc_pipeline(&mut rep);
    write_spans(&tr, "fc_pipeline", spans)?;
    rep.put(
        "serve.unaccounted_ms",
        unaccounted.iter().copied().fold(f64::MIN, f64::max),
        "ms",
    );
    let overhead = rep.traced_ns as f64 / rep.plain_ns as f64 - 1.0;
    rep.put("trace.overhead", overhead, "ratio");
    Ok(rep)
}

fn write_spans(tr: &Tracer, workload: &str, out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "{{\"workload\":\"{workload}\"}}")?;
    tr.write_jsonl(out)
}

/// Serve reads: load (operation 0), then queries through the traced
/// replica, the real server and the untraced replica, in turn.
fn serve_read(seed: u64, rep: &mut Report, unaccounted: &mut Vec<f64>) -> Tracer {
    let org = Org::generate(READ_PEOPLE, seed);
    let text = org.program_text();
    let mut tr = Tracer::new(true);
    let mut replica = Replica::load(&text, &mut tr);
    let mut plain = Replica::load(&text, &mut Tracer::new(false));
    let server = Server::new(
        &parse_program(&text).expect("program parses"),
        ServeConfig::default(),
    );
    let mut real_ns = 0;
    for (k, (line, want)) in read_stream(&org, seed, READ_OPS).iter().enumerate() {
        tr.begin_op(k as u64 + 1);
        tr.open("serve.op");
        let got = replica.handle(line, &mut tr);
        tr.close();
        let real = timed(&mut real_ns, || server.handle_line(line));
        let untraced = timed(&mut rep.plain_ns, || {
            plain.handle(line, &mut Tracer::new(false))
        });
        let want = if *want { "true" } else { "false" };
        rep.check(got == want && real.text() == Some(want) && untraced == want);
    }
    let load = per_op(&tr, 0);
    let per = per_op(&tr, 1);
    rep.traced_ns += per.values().flatten().sum::<f64>() as u64;
    rep.put(
        "core.parser.parse_program_ms",
        med(&load, "core.parser.parse_program", 1e6),
        "ms",
    );
    rep.put(
        "analyze.analyze_ms",
        med(&load, "analyze.analyze", 1e6),
        "ms",
    );
    rep.put(
        "chase.incremental.load_ms",
        med(&load, "chase.incremental.load", 1e6),
        "ms",
    );
    rep.put(
        "core.parser.parse_query_us",
        med(&per, "core.parser.parse_query", 1e3),
        "us",
    );
    rep.put(
        "core.symbols.voc_clone_us",
        med(&per, "core.symbols.voc_clone", 1e3),
        "us",
    );
    rep.put(
        "core.symbols.voc_entries",
        replica.voc_entries() as f64,
        "count",
    );
    rep.put(
        "serve.epoch.snapshot_us",
        med(&per, "serve.epoch.snapshot", 1e3),
        "us",
    );
    rep.put("core.hom.eval_us", med(&per, "core.hom.eval", 1e3), "us");
    let layers = layer_sum_ns(&per, "serve.op");
    rep.put("serve_read.coverage", layers / real_ns as f64, "ratio");
    unaccounted.push((real_ns as f64 - layers) / READ_OPS as f64 / 1e6);
    tr
}

/// Serve writes: load (operation 0), then insert/retract pairs.
fn serve_write(seed: u64, rep: &mut Report, unaccounted: &mut Vec<f64>) -> Tracer {
    let org = Org::generate(WRITE_PEOPLE, seed);
    let text = org.program_text();
    let mut tr = Tracer::new(true);
    let mut replica = Replica::load(&text, &mut tr);
    let mut plain = Replica::load(&text, &mut Tracer::new(false));
    let server = Server::new(
        &parse_program(&text).expect("program parses"),
        ServeConfig::default(),
    );
    let loaded = replica.counts.clone();
    let mut real_ns = 0;
    let mut resident = None;
    for (k, (ins, ret, new)) in write_stream(&org, seed, WRITE_OPS).iter().enumerate() {
        tr.begin_op(k as u64 + 1);
        tr.open("serve.op");
        let got = [replica.handle(ins, &mut tr), replica.handle(ret, &mut tr)];
        tr.close();
        let real = timed(&mut real_ns, || {
            [ins, ret].map(|l| server.handle_line(l).text().unwrap_or_default().to_string())
        });
        let untraced = timed(&mut rep.plain_ns, || {
            let mut off = Tracer::new(false);
            [plain.handle(ins, &mut off), plain.handle(ret, &mut off)]
        });
        let facts = reply_field(&got[1], "facts").map(str::to_string);
        let resident = resident.get_or_insert_with(|| facts.clone());
        rep.check(
            got == real
                && got == untraced
                && reply_field(&got[0], "new") == Some(new.to_string().as_str())
                && reply_field(&got[0], "fixpoint") == Some("true")
                && facts == *resident,
        );
    }
    let per = per_op(&tr, 1);
    rep.traced_ns += per.values().flatten().sum::<f64>() as u64;
    let delta = |name: &str| {
        (replica.counts.get(name).copied().unwrap_or(0) - loaded.get(name).copied().unwrap_or(0))
            as f64
    };
    let ops = WRITE_OPS as f64;
    rep.put(
        "core.parser.parse_facts_us",
        med(&per, "core.parser.parse_facts", 1e3) / 2.0,
        "us",
    );
    rep.put(
        "chase.incremental.insert_ms",
        med(&per, "chase.incremental.insert", 1e6),
        "ms",
    );
    rep.put(
        "chase.incremental.insert_rounds",
        delta("chase.incremental.insert_rounds") / ops,
        "count",
    );
    rep.put(
        "chase.incremental.insert_new_facts",
        delta("chase.incremental.insert_new_facts") / ops,
        "count",
    );
    rep.put(
        "chase.incremental.retract_ms",
        med(&per, "chase.incremental.retract", 1e6),
        "ms",
    );
    let (over, rederived) = (
        delta("chase.incremental.overdeleted"),
        delta("chase.incremental.rederived"),
    );
    rep.put("chase.incremental.overdeleted", over / ops, "count");
    rep.put("chase.incremental.rederived", rederived / ops, "count");
    rep.put(
        "chase.incremental.dred_waste",
        if over > 0.0 { rederived / over } else { 0.0 },
        "ratio",
    );
    rep.put(
        "serve.epoch.publish_ms",
        med(&per, "serve.epoch.publish", 1e6) / 2.0,
        "ms",
    );
    let copied = delta("serve.epoch.facts_copied");
    rep.put(
        "serve.epoch.facts_copied",
        copied / delta("serve.epoch.publishes"),
        "count",
    );
    rep.put(
        "serve.epoch.copy_amplification",
        copied / delta("serve.epoch.facts_changed"),
        "ratio",
    );
    let layers = layer_sum_ns(&per, "serve.op");
    rep.put("serve_write.coverage", layers / real_ns as f64, "ratio");
    unaccounted.push((real_ns as f64 - layers) / ops / 1e6);
    tr
}

/// The E13 chase with an `obs::Memory` sink per operation (join build and
/// probe events), then 2-thread vs 1-thread pairs for the slowdown.
fn chase_e13(seed: u64, rep: &mut Report) -> Tracer {
    let input = ChaseInput::generate(seed);
    let graphs = input.dbs.len();
    let expected: Vec<usize> = input
        .dbs
        .iter()
        .map(|db| saturate_datalog(db, &input.theory).instance.len())
        .collect();
    let config = ChaseConfig {
        max_rounds: CHASE_ROUNDS,
        ..ChaseConfig::default()
    };
    let mut tr = Tracer::new(true);
    // Per-operation counts, averaged over the operations.
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    let mut joins: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for k in 0..CHASE_OPS {
        let (db, mem) = (&input.dbs[k % graphs], Memory::new(1 << 16));
        let mut voc = input.voc.clone();
        tr.begin_op(k as u64);
        let res = tr.span("chase.engine.chase", || {
            chase_with(db, &input.theory, &mut voc, config, &mem)
        });
        rep.check(
            res.instance.len() == expected[k % graphs] && res.status == ChaseStatus::Fixpoint,
        );
        let matches = res.stats.total_body_matches() as f64;
        let new_facts = (res.instance.len() - db.len()) as f64;
        for (name, v) in [
            ("rounds", f64::from(res.rounds)),
            ("body_matches", matches),
            ("facts_out", res.instance.len() as f64),
            ("yield", new_facts / matches),
        ] {
            *sums.entry(name).or_default() += v / CHASE_OPS as f64;
        }
        let mut op: BTreeMap<&str, f64> = BTreeMap::new();
        for e in mem.events().iter().filter(|e| e.engine == "join") {
            let (wall, rows) = (
                e.gauge("wall_ns").unwrap_or(0),
                e.field("rows").unwrap_or(0),
            );
            *op.entry(if e.name == "build" {
                "build_ns"
            } else {
                "probe_ns"
            })
            .or_default() += wall as f64;
            *op.entry(if e.name == "build" {
                "build_rows"
            } else {
                "probe_rows"
            })
            .or_default() += rows as f64;
        }
        for (name, v) in op {
            joins.entry(name).or_default().push(v);
        }
    }
    let per = per_op(&tr, 0);
    rep.put(
        "chase.engine.chase_ms",
        med(&per, "chase.engine.chase", 1e6),
        "ms",
    );
    for (name, unit) in [
        ("rounds", "count"),
        ("body_matches", "count"),
        ("facts_out", "count"),
        ("yield", "ratio"),
    ] {
        rep.put(&format!("chase.engine.{name}"), sums[name], unit);
    }
    let j = |name: &str| joins.get(name).map_or(0.0, |v| median(v));
    rep.put("core.join.build_ms", j("build_ns") / 1e6, "ms");
    rep.put("core.join.probe_ms", j("probe_ns") / 1e6, "ms");
    rep.put("core.join.build_rows", j("build_rows"), "count");
    rep.put("core.join.probe_rows", j("probe_rows"), "count");
    let mut k = 0;
    let run = || {
        // Both halves of a pair chase the same graph.
        let g = (k / 2) % graphs;
        k += 1;
        let mut voc = input.voc.clone();
        chase_with(&input.dbs[g], &input.theory, &mut voc, config, &NULL)
            .instance
            .len()
            == expected[g]
    };
    let slowdown = slowdown(CHASE_OPS, run, rep);
    rep.put("core.par.slowdown.chase_e13", slowdown, "ratio");
    tr
}

/// Median operation time at the pinned thread count over the median at
/// one thread, from alternating pairs; every operation is checked.
fn slowdown(pairs: usize, mut op: impl FnMut() -> bool, rep: &mut Report) -> f64 {
    let (mut two, mut one) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let t = Instant::now();
        rep.check(op());
        two.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        rep.check(with_thread_count(1, &mut op));
        one.push(t.elapsed().as_secs_f64());
    }
    median(&two) / median(&one)
}

/// A replayed pipeline's result: model size, quotient `n`, prefix depth.
type Found = (usize, usize, u32);

/// Replays `finite_countermodel` on one case from its layers' public
/// functions, attempt for attempt (every prefix depth `L` and quotient
/// parameter `n` it tries). Returns what it certified, or `None`.
fn replay_fc(case: &FcCase, tr: &mut Tracer) -> Option<Found> {
    let (db, theory0, query) = (&case.prog.instance, &case.prog.theory, &case.query);
    let config = FcConfig::default();
    let mut voc = case.voc.clone();
    if tr.span("core.hom.eval", || hom::satisfies_cq(db, query)) {
        return None;
    }
    let (hidden, norm) = tr.span("finite.transform", || {
        let hidden = hide_query(theory0, query, &mut voc);
        let norm = normalize_spade5(&hidden.theory, &mut voc);
        (hidden, norm)
    });
    let norm = norm.ok()?;
    let kap = tr.span("rewrite.kappa", || kappa(&norm, &mut voc, config.rewrite))?;
    let m = kap.max(2);
    let color_free: FxHashSet<PredId> = norm.preds().into_iter().collect();
    let mut l = config.chase_depth;
    while l <= config.max_chase_depth {
        let res = tr.span("chase.engine.prefix", || {
            let cfg = ChaseConfig {
                max_rounds: l,
                max_facts: config.chase_facts,
                ..ChaseConfig::default()
            };
            chase(db, &norm, &mut voc, cfg)
        });
        if !res.instance.facts_with_pred(hidden.forbidden).is_empty() {
            return None;
        }
        if res.status == ChaseStatus::Fixpoint {
            let ok = tr.span("finite.certify", || {
                certify_countermodel(&res.instance, db, theory0, query, &voc).is_empty()
            });
            let model = res.instance.restrict_to_preds(&theory0.preds());
            return ok.then(|| (model.domain_size(), 0, res.rounds));
        }
        let skel = tr.span("finite.skeleton", || skeleton(&res.instance, db, &norm));
        if skel.domain_size() > config.max_skeleton {
            return None;
        }
        let depth = tr.span("finite.depths", || {
            let mut depth: FxHashMap<ConstId, u32> = FxHashMap::default();
            for (idx, fact) in res.instance.facts().iter().enumerate() {
                let d = res.fact_depth(idx);
                for &c in &fact.args {
                    depth
                        .entry(c)
                        .and_modify(|cur| *cur = (*cur).min(d))
                        .or_insert(d);
                }
            }
            depth
        });
        let colored = tr.span("types.coloring", || {
            natural_coloring(&skel, &mut voc, m).apply(&skel)
        });
        for n in m..=config.n_max {
            let margin = n.max(m) as u32;
            if margin >= l {
                break;
            }
            let safe = tr.span("finite.depths", || {
                skel.domain()
                    .filter(|c| depth.get(c).copied().unwrap_or(0) + margin <= l)
                    .collect::<FxHashSet<ConstId>>()
            });
            if !db.domain().all(|c| safe.contains(&c)) {
                continue;
            }
            let partition = tr.span("types.partition", || {
                TypeAnalyzer::new(&colored, &mut voc, n).partition()
            });
            let (quotient, m_sigma) = tr.span("types.quotient", || {
                let quotient =
                    Quotient::new(&colored.restrict_to_elements(&safe), partition, &mut voc);
                let m_sigma = quotient.instance.restrict_to_preds(&color_free);
                (quotient, m_sigma)
            });
            let conservative = tr.span("types.conservative", || {
                let analyzer = TypeAnalyzer::new(&m_sigma, &mut voc, m);
                safe.iter().all(|&e| match quotient.try_project(e) {
                    Some(qe) if m_sigma.in_domain(qe) => analyzer.ptp_included_in(qe, &skel, e),
                    _ => true,
                })
            });
            if !conservative {
                continue;
            }
            let fin = tr.span("chase.engine.final", || {
                let cfg = ChaseConfig {
                    max_rounds: config.final_rounds,
                    max_facts: (config.chase_facts / 4).max(10_000),
                    ..ChaseConfig::default()
                };
                chase(&m_sigma, &norm, &mut voc, cfg)
            });
            if fin.status != ChaseStatus::Fixpoint
                || !fin.instance.facts_with_pred(hidden.forbidden).is_empty()
            {
                continue;
            }
            if tr.span("finite.certify", || {
                certify_countermodel(&fin.instance, db, theory0, query, &voc).is_empty()
            }) {
                return Some((fin.instance.domain_size(), n, l));
            }
        }
        l += (l / 2).max(4);
    }
    None
}

/// The Theorem 2 pipeline: the real `finite_countermodel` (untraced),
/// the traced replay of its search, the untraced replay, and
/// 2-thread vs 1-thread pairs.
fn fc_pipeline(rep: &mut Report) -> Tracer {
    let cases = fc_cases();
    // What the real pipeline certifies; the replays must find the same.
    let certs: Vec<Option<Found>> = cases
        .iter()
        .map(|c| {
            let mut voc = c.voc.clone();
            match finite_countermodel(
                &c.prog.instance,
                &c.prog.theory,
                &c.query,
                &mut voc,
                FcConfig::default(),
            ) {
                FcOutcome::Countermodel(cert) => Some((cert.model_size, cert.n, cert.chase_depth)),
                _ => None,
            }
        })
        .collect();
    rep.check(
        cases
            .iter()
            .zip(&certs)
            .all(|(c, f)| f.map(|f| f.0) == Some(c.model_size)),
    );
    let mut tr = Tracer::new(true);
    let mut real_ns = 0;
    for k in 0..FC_OPS {
        tr.begin_op(k as u64);
        tr.open("fc.op");
        let found: Vec<Option<Found>> = cases.iter().map(|c| replay_fc(c, &mut tr)).collect();
        tr.close();
        rep.check(found == certs);
        let real = timed(&mut real_ns, || fc_op(&cases));
        rep.check(fc_ok(&cases, &real));
        let plain = timed(&mut rep.plain_ns, || {
            let mut off = Tracer::new(false);
            cases
                .iter()
                .map(|c| replay_fc(c, &mut off))
                .collect::<Vec<_>>()
        });
        rep.check(plain == certs);
    }
    let per = per_op(&tr, 0);
    rep.traced_ns += per.values().flatten().sum::<f64>() as u64;
    for (metric, span) in [
        ("finite.transform_ms", "finite.transform"),
        ("rewrite.kappa_ms", "rewrite.kappa"),
        ("chase.engine.prefix_ms", "chase.engine.prefix"),
        ("finite.skeleton_ms", "finite.skeleton"),
        ("types.coloring_ms", "types.coloring"),
        ("types.partition_ms", "types.partition"),
        ("types.quotient_ms", "types.quotient"),
        ("chase.engine.final_ms", "chase.engine.final"),
        ("finite.certify_ms", "finite.certify"),
    ] {
        rep.put(metric, med(&per, span, 1e6), "ms");
    }
    rep.put(
        "fc_pipeline.coverage",
        layer_sum_ns(&per, "fc.op") / real_ns as f64,
        "ratio",
    );
    let slowdown = slowdown(FC_OPS, || fc_ok(&cases, &fc_op(&cases)), rep);
    rep.put("core.par.slowdown.fc_pipeline", slowdown, "ratio");
    let worst = rep
        .metrics
        .iter()
        .filter(|(n, _, _)| n.starts_with("core.par.slowdown."))
        .map(|(_, v, _)| *v)
        .fold(f64::MIN, f64::max);
    rep.put("core.par.slowdown", worst, "ratio");
    tr
}
