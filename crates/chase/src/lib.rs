//! # bddfc-chase — the chase engine
//!
//! Implements Section 1.1 of *On the BDD/FC Conjecture*:
//!
//! * the non-oblivious (restricted) chase `Chase¹ / Chaseᵏ / Chase`, with
//!   per-fact derivation depths ([`engine`]);
//! * an oblivious variant for comparison ([`engine`]);
//! * semi-naive saturation under the datalog rules only ([`saturate`]) —
//!   the step Lemma 5 justifies in the finite-model pipeline, kept as a
//!   small `hom`-based reference evaluator independent of the engine;
//! * chase-based certain answers and derivation-depth probing
//!   ([`answers`]);
//! * a complete bounded-size finite model finder ([`finder`]) used to
//!   demonstrate non-FC computationally (Section 5.5).

#![warn(missing_docs)]

pub mod answers;
pub mod engine;
pub mod finder;
pub mod incremental;
pub mod saturate;
pub mod trace;

pub use answers::{
    certain_cq, certain_ucq, certain_ucq_outcome, certain_ucq_outcome_with, chase_size_comparison,
    probe_depth, BudgetExhausted, CertainOutcome, Certainty,
};
pub use incremental::{IncrementalChase, MaintainConfig, MaintainOutcome};
pub use engine::{
    chase, chase_k, chase_with, chase_with_priors, ChaseConfig, ChaseResult, ChaseStats,
    ChaseStatus, ChaseStepper, ChaseStrategy, ChaseVariant,
};
pub use finder::{countermodel, find_model, find_model_with, FinderConfig, SearchOutcome};
pub use saturate::{saturate_datalog, saturate_datalog_with, SaturationResult};
pub use trace::{traced_chase, Derivation, DerivationTree, TracedChase};
