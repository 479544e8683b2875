//! The `bddfc-serve` request path rebuilt from the service's public
//! pieces, with a span around each layer call. Its replies must equal
//! `Server::handle_line`'s on the same stream (see the tests), which is
//! what makes its layer times an account of the real path.

use crate::tracer::Tracer;
use bddfc_chase::{BudgetExhausted, IncrementalChase, MaintainConfig};
use bddfc_core::obs::NULL;
use bddfc_core::{hom, parse_into, parse_program, parse_query, Fact, Ucq, Vocabulary};
use bddfc_serve::epoch::{Epoch, EpochStore};
use bddfc_serve::proto::{ensure_terminated, parse_command, Command};
use bddfc_serve::ServeConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A single-writer replica of the service state.
pub struct Replica {
    voc: Vocabulary,
    inc: IncrementalChase,
    segments: Vec<usize>,
    epoch_id: u64,
    epochs: EpochStore,
    config: MaintainConfig,
    /// Summed counts by name (rounds, facts copied, ...).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Replica {
    /// Loads `text` the way `Server::new` does: parse, analyze, initial
    /// closure, first epoch.
    pub fn load(text: &str, tr: &mut Tracer) -> Replica {
        let prog = tr
            .span("core.parser.parse_program", || parse_program(text))
            .expect("generated program parses");
        let (analysis, _json) = tr.span("analyze.analyze", || {
            let a = bddfc_analyze::analyze(&prog);
            let json = a.json("load", &prog);
            (a, json)
        });
        let defaults = ServeConfig::default();
        let mut r = Replica {
            voc: prog.voc.clone(),
            inc: IncrementalChase::new(&prog.theory).with_priors(analysis.cost.priors()),
            segments: vec![0],
            epoch_id: 0,
            epochs: EpochStore::new(Epoch::empty(prog.voc.clone())),
            config: MaintainConfig {
                max_rounds: defaults.max_rounds,
                max_facts: defaults.max_facts,
            },
            counts: BTreeMap::new(),
        };
        if !prog.instance.is_empty() {
            let facts: Vec<Fact> = prog.instance.facts().to_vec();
            let (voc, inc, cfg) = (&mut r.voc, &mut r.inc, r.config);
            tr.span("chase.incremental.load", || {
                inc.insert_with(&facts, voc, cfg, &NULL)
            });
            r.segments.push(r.inc.instance().len());
            tr.span("serve.epoch.publish", || r.commit());
        }
        r
    }

    /// Vocabulary entries of the published epoch (what a query clones).
    pub fn voc_entries(&self) -> usize {
        let v = self.epochs.snapshot().voc.clone();
        v.pred_count() + v.const_count() + v.var_count()
    }

    fn count(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_insert(0) += n as u64;
    }

    /// Seals the working state into a new epoch and publishes it.
    fn commit(&mut self) {
        self.epoch_id += 1;
        let epoch = Epoch {
            id: self.epoch_id,
            voc: Arc::new(self.voc.clone()),
            instance: Arc::new(self.inc.instance().clone()),
            segments: Arc::new(self.segments.clone()),
            complete: self.inc.complete(),
            exhausted: self.inc.exhausted(),
        };
        self.count("serve.epoch.facts_copied", epoch.instance.len());
        self.count("serve.epoch.publishes", 1);
        self.epochs.publish(epoch);
    }

    /// Handles one protocol line (insert, retract or query), returning
    /// the reply `Server::handle_line` gives.
    pub fn handle(&mut self, line: &str, tr: &mut Tracer) -> String {
        let cmd = tr.span("serve.proto.parse_command", || parse_command(line));
        match cmd {
            Ok(Command::Insert(payload)) => self.insert(&payload, tr),
            Ok(Command::Retract(payload)) => self.retract(&payload, tr),
            Ok(Command::Query(payload)) => self.query(&payload, tr),
            Ok(_) => "err the replica serves insert, retract and query only".into(),
            Err(e) => format!("err {e}"),
        }
    }

    fn parse_facts(&mut self, payload: &str, tr: &mut Tracer) -> Result<Vec<Fact>, String> {
        let voc = &mut self.voc;
        tr.span("core.parser.parse_facts", || {
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
        })
    }

    fn insert(&mut self, payload: &str, tr: &mut Tracer) -> String {
        let facts = match self.parse_facts(payload, tr) {
            Ok(f) => f,
            Err(e) => return format!("err {e}"),
        };
        let before = self.inc.instance().len();
        let (voc, inc, cfg) = (&mut self.voc, &mut self.inc, self.config);
        let out = tr.span("chase.incremental.insert", || {
            inc.insert_with(&facts, voc, cfg, &NULL)
        });
        if self.inc.instance().len() > before {
            self.segments.push(self.inc.instance().len());
        }
        self.count("chase.incremental.insert_rounds", out.rounds as usize);
        self.count("chase.incremental.insert_new_facts", out.new_facts);
        self.count(
            "serve.epoch.facts_changed",
            out.facts_total.abs_diff(before),
        );
        tr.span("serve.epoch.publish", || self.commit());
        format!(
            "ok epoch={} new={} rounds={} facts={} fixpoint={}",
            self.epoch_id, out.new_facts, out.rounds, out.facts_total, out.complete
        )
    }

    fn retract(&mut self, payload: &str, tr: &mut Tracer) -> String {
        let facts = match self.parse_facts(payload, tr) {
            Ok(f) => f,
            Err(e) => return format!("err {e}"),
        };
        let before = self.inc.instance().len();
        let (voc, inc, cfg) = (&mut self.voc, &mut self.inc, self.config);
        let out = tr.span("chase.incremental.retract", || {
            inc.retract_with(&facts, voc, cfg, &NULL)
        });
        self.segments = vec![self.inc.instance().len()];
        self.count("chase.incremental.overdeleted", out.overdeleted);
        self.count("chase.incremental.rederived", out.new_facts);
        self.count(
            "serve.epoch.facts_changed",
            out.facts_total.abs_diff(before),
        );
        tr.span("serve.epoch.publish", || self.commit());
        format!(
            "ok epoch={} retracted={} overdeleted={} rederived={} rounds={} facts={} fixpoint={}",
            self.epoch_id,
            out.retracted,
            out.overdeleted,
            out.new_facts,
            out.rounds,
            out.facts_total,
            out.complete
        )
    }

    fn query(&mut self, payload: &str, tr: &mut Tracer) -> String {
        let epoch = tr.span("serve.epoch.snapshot", || self.epochs.snapshot());
        let mut voc = tr.span("core.symbols.voc_clone", || (*epoch.voc).clone());
        let cq = tr.span("core.parser.parse_query", || parse_query(payload, &mut voc));
        let reply = match cq {
            Err(e) => format!("err {e}"),
            Ok(cq) => {
                let ucq = Ucq::single(cq);
                if tr.span("core.hom.eval", || {
                    hom::satisfies_ucq(&epoch.instance, &ucq)
                }) {
                    "true".to_string()
                } else if epoch.complete {
                    "false".to_string()
                } else {
                    let reason = match epoch.exhausted {
                        Some(BudgetExhausted::Facts) => "facts",
                        _ => "rounds",
                    };
                    format!("unknown reason={reason}")
                }
            }
        };
        tr.span("core.symbols.voc_drop", || drop(voc));
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Org;
    use bddfc_core::prng::SplitMix64;
    use bddfc_serve::{ServeConfig, Server};

    /// Reconciliation: on a mixed stream, the replica's replies equal the
    /// real server's, traced or not.
    #[test]
    fn replica_replies_equal_server_replies() {
        let org = Org::generate(300, 11);
        let text = org.program_text();
        let server = Server::new(&parse_program(&text).unwrap(), ServeConfig::default());
        let mut traced = Tracer::new(true);
        let mut replica = Replica::load(&text, &mut traced);
        let mut plain = Replica::load(&text, &mut Tracer::new(false));
        let mut rng = SplitMix64::new(5);
        let mut lines = vec![
            "query E(".to_string(),
            "insert E(X,Y) -> E(Y,X).".to_string(),
        ];
        for k in 0..40 {
            lines.push(org.query(&mut rng).0);
            if k % 4 == 0 {
                let (ins, ret, _) = org.update(k, &mut rng);
                lines.push(ins);
                lines.push(org.query(&mut rng).0);
                lines.push(ret);
            }
        }
        for line in &lines {
            let want = server.handle_line(line).text().unwrap().to_string();
            assert_eq!(replica.handle(line, &mut traced), want, "{line}");
            assert_eq!(plain.handle(line, &mut Tracer::new(false)), want, "{line}");
        }
        assert!(replica.counts["serve.epoch.publishes"] > 10);
    }

    /// The write stream's expectations: `new=` as predicted, and a
    /// retract restores the pre-insert size.
    #[test]
    fn updates_add_and_remove_the_predicted_facts() {
        let org = Org::generate(400, 2);
        let mut r = Replica::load(&org.program_text(), &mut Tracer::new(false));
        let mut rng = SplitMix64::new(9);
        let size = r.inc.instance().len();
        for k in 0..20 {
            let (ins, ret, new) = org.update(k, &mut rng);
            let reply = r.handle(&ins, &mut Tracer::new(false));
            assert!(
                reply.contains(&format!(" new={new} ")) && reply.ends_with("fixpoint=true"),
                "{reply}"
            );
            let reply = r.handle(&ret, &mut Tracer::new(false));
            assert!(reply.contains(&format!(" facts={size} ")), "{reply}");
        }
    }
}
