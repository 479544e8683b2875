//! The four timed workloads. Each sets up several times (the reported
//! set-up time is the median), then runs a closed loop with one client
//! and checks every reply against an expectation computed outside the
//! per-operation time.

use crate::inputs::{fc_cases, ChaseInput, FcCase, Org, CHASE_ROUNDS};
use crate::measure::{closed_loop, setup_median, timed_reps, Samples};
use bddfc_chase::ChaseStatus;
use bddfc_chase::{certain_ucq_outcome, chase_with, saturate_datalog, Certainty, ChaseConfig};
use bddfc_core::obs::NULL;
use bddfc_core::prng::SplitMix64;
use bddfc_core::{parse_program, parse_query, Ucq};
use bddfc_finite::{finite_countermodel, FcConfig, FcOutcome};
use bddfc_serve::{ServeConfig, Server};

/// People in the read workload's organisation (about 66k resident facts).
pub const READ_PEOPLE: usize = 20_000;
/// People in the write workload's organisation (about 26k resident facts).
pub const WRITE_PEOPLE: usize = 8_000;
/// Set-ups before and again after the timed phase; the reported set-up
/// time is the median of all of them.
const SETUP_REPS: usize = 3;
/// The same for `chase_e13`, whose set-up chases every graph once.
const CHASE_SETUP_REPS: usize = 2;
/// Length of the pre-generated request streams (cycled).
const STREAM_LEN: usize = 4096;
/// Salt separating the request stream's generator from the input's.
pub const STREAM_SALT: u64 = 0x5eed_5eed;

/// A timed run: set-up time, the timed phase, and checks made after it.
pub struct Outcome {
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// The timed phase.
    pub samples: Samples,
    /// Checks outside the timed phase: (attempted, failed).
    pub extra: (u64, u64),
}

/// Extracts an unsigned field from a one-line JSON object.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

/// Extracts `key=value` from a serve reply.
pub fn reply_field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
}

/// The read stream: queries and their closed-form answers.
pub fn read_stream(org: &Org, seed: u64, len: usize) -> Vec<(String, bool)> {
    let mut rng = SplitMix64::new(seed ^ STREAM_SALT);
    (0..len).map(|_| org.query(&mut rng)).collect()
}

/// The write stream: (insert line, retract line, expected `new=`).
pub fn write_stream(org: &Org, seed: u64, len: usize) -> Vec<(String, String, usize)> {
    let mut rng = SplitMix64::new(seed ^ STREAM_SALT);
    (0..len as u64).map(|k| org.update(k, &mut rng)).collect()
}

fn load(text: &str) -> Server<'static> {
    let prog = parse_program(text).expect("generated program parses");
    Server::new(&prog, ServeConfig::default())
}

/// `serve_read`: `query Reports(pI,M), Heads(M,dJ)` through
/// `Server::handle_line`, answers checked against the closed form, and
/// two answers spot-checked against a from-scratch chase of the base.
pub fn serve_read(seed: u64, seconds: u64) -> Outcome {
    let org = Org::generate(READ_PEOPLE, seed);
    let text = org.program_text();
    let (setups, server) = timed_reps(SETUP_REPS, || load(&text));
    let stream = read_stream(&org, seed, STREAM_LEN);
    let samples = closed_loop(
        seconds,
        |i| server.handle_line(&stream[i % STREAM_LEN].0),
        |i, reply| {
            reply.text()
                == Some(if stream[i % STREAM_LEN].1 {
                    "true"
                } else {
                    "false"
                })
        },
    );
    drop(server);
    let setup_s = setup_median(setups, SETUP_REPS, || load(&text));
    let prog = parse_program(&text).expect("generated program parses");
    let mut extra = (0, 0);
    for want in [true, false] {
        let Some((line, _)) = stream.iter().find(|(_, a)| *a == want) else {
            continue;
        };
        let mut voc = prog.voc.clone();
        let body = line.strip_prefix("query ").expect("query line");
        let q = parse_query(body, &mut voc).expect("stream query parses");
        let out = certain_ucq_outcome(
            &prog.instance,
            &prog.theory,
            &mut voc,
            &Ucq::single(q),
            ChaseConfig::default(),
        );
        let got = match out.certainty {
            Certainty::True(_) => Some(true),
            Certainty::False => Some(false),
            Certainty::Unknown => None,
        };
        extra.0 += 1;
        extra.1 += u64::from(got != Some(want));
    }
    Outcome {
        setup_s,
        samples,
        extra,
    }
}

/// The `stats` fields an insert/retract pair must leave unchanged.
fn stable_stats(server: &Server<'_>) -> Vec<Option<u64>> {
    let stats = server
        .handle_line("stats")
        .text()
        .unwrap_or_default()
        .to_string();
    let fixpoint = stats.contains("\"fixpoint\":true");
    ["facts", "base", "segments"]
        .iter()
        .map(|k| json_u64(&stats, k))
        .chain([Some(u64::from(fixpoint))])
        .collect()
}

/// `serve_write`: one operation is `insert Works(nK,dJ).` then its
/// `retract`. Every insert must reach a fixpoint with the predicted
/// `new=`, every retract must restore the resident size, and the final
/// `stats` must equal the post-load one.
pub fn serve_write(seed: u64, seconds: u64) -> Outcome {
    let org = Org::generate(WRITE_PEOPLE, seed);
    let text = org.program_text();
    let (setups, server) = timed_reps(SETUP_REPS, || load(&text));
    let stream = write_stream(&org, seed, STREAM_LEN);
    let after_load = stable_stats(&server);
    let resident = after_load[0].map(|f| f.to_string()).unwrap_or_default();
    let samples = closed_loop(
        seconds,
        |i| {
            let (ins, ret, _) = &stream[i % STREAM_LEN];
            let a = server
                .handle_line(ins)
                .text()
                .unwrap_or_default()
                .to_string();
            let b = server
                .handle_line(ret)
                .text()
                .unwrap_or_default()
                .to_string();
            (a, b)
        },
        |i, (a, b)| {
            let new = stream[i % STREAM_LEN].2.to_string();
            reply_field(a, "fixpoint") == Some("true")
                && reply_field(a, "new") == Some(new.as_str())
                && reply_field(b, "facts") == Some(resident.as_str())
                && reply_field(b, "fixpoint") == Some("true")
        },
    );
    let extra = (1, u64::from(stable_stats(&server) != after_load));
    drop(server);
    let setup_s = setup_median(setups, SETUP_REPS, || load(&text));
    Outcome {
        setup_s,
        samples,
        extra,
    }
}

/// `chase_e13`: a from-scratch restricted semi-naive chase of transitive
/// closure over each seeded graph in turn, checked against
/// `saturate_datalog`. Set-up is input generation, parsing and one
/// warm-up chase per graph.
pub fn chase_e13(seed: u64, seconds: u64) -> Outcome {
    let config = ChaseConfig {
        max_rounds: CHASE_ROUNDS,
        ..ChaseConfig::default()
    };
    let run = |input: &ChaseInput, g: usize| {
        let mut voc = input.voc.clone();
        let res = chase_with(&input.dbs[g], &input.theory, &mut voc, config, &NULL);
        (res.instance.len(), res.status)
    };
    let setup = || {
        let input = ChaseInput::generate(seed);
        let warm: Vec<_> = (0..input.dbs.len()).map(|g| run(&input, g)).collect();
        (input, warm)
    };
    let (setups, (input, warm)) = timed_reps(CHASE_SETUP_REPS, &setup);
    let expected: Vec<_> = input
        .dbs
        .iter()
        .map(|db| {
            (
                saturate_datalog(db, &input.theory).instance.len(),
                ChaseStatus::Fixpoint,
            )
        })
        .collect();
    let graphs = input.dbs.len();
    let samples = closed_loop(
        seconds,
        |i| run(&input, i % graphs),
        |i, out| *out == expected[i % graphs],
    );
    let extra = (1, u64::from(warm != expected));
    let setup_s = setup_median(setups, CHASE_SETUP_REPS, &setup);
    Outcome {
        setup_s,
        samples,
        extra,
    }
}

/// Runs the three Theorem 2 cases once, returning each model size
/// (`None` when a case does not return a countermodel).
pub fn fc_op(cases: &[FcCase]) -> Vec<Option<usize>> {
    cases
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
                FcOutcome::Countermodel(cert) => Some(cert.model_size),
                _ => None,
            }
        })
        .collect()
}

/// Whether an `fc_op` result has the E8 sizes.
pub fn fc_ok(cases: &[FcCase], sizes: &[Option<usize>]) -> bool {
    cases
        .iter()
        .zip(sizes)
        .all(|(c, s)| *s == Some(c.model_size))
}

/// `fc_pipeline`: one operation certifies the three E8 cases in order.
/// Set-up is parsing the cases and one warm-up operation.
pub fn fc_pipeline(_seed: u64, seconds: u64) -> Outcome {
    let setup = || {
        let cases = fc_cases();
        let warm = fc_op(&cases);
        (cases, warm)
    };
    let (setups, (cases, warm)) = timed_reps(SETUP_REPS, setup);
    let samples = closed_loop(seconds, |_| fc_op(&cases), |_, sizes| fc_ok(&cases, sizes));
    let extra = (1, u64::from(!fc_ok(&cases, &warm)));
    let setup_s = setup_median(setups, SETUP_REPS, setup);
    Outcome {
        setup_s,
        samples,
        extra,
    }
}
