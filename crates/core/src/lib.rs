//! # bddfc-core — the Datalog∃ substrate
//!
//! Core representations and algorithms shared by every crate in the
//! `bddfc` workspace, the executable companion to Gogacz & Marcinkowski,
//! *On the BDD/FC Conjecture*:
//!
//! * interned symbols and the [`Vocabulary`] ([`symbols`]);
//! * terms, atoms and facts ([`term`]);
//! * indexed database instances ([`instance`]) over the columnar
//!   relations of [`columnar`], their one by-predicate access path;
//! * the batched hash-join kernel and planner ([`join`]) evaluating rule
//!   bodies over whole binding frontiers;
//! * the in-tree hasher ([`fxhash`]) and deterministic PRNG ([`prng`])
//!   that keep the workspace free of external dependencies;
//! * a deterministic std-only fork-join layer ([`par`]) used by every
//!   downstream hot loop;
//! * the unified telemetry layer ([`obs`]) — counters, span timers and
//!   a bounded structured event log — that every engine reports into;
//! * the diagnostic model ([`diag`]) — stable codes, severities, the
//!   rustc-style rendering shared by `bddfc-lint` and `bddfc-analyze`,
//!   and the registry of long-form `--explain` texts;
//! * conjunctive queries and UCQs ([`query`]);
//! * TGDs, datalog rules and theories ([`rule`]);
//! * the backtracking homomorphism engine ([`hom`]);
//! * rule/theory satisfaction and violation enumeration ([`satisfaction`]);
//! * a text format parser ([`parser`]).
//!
//! ## Quick start
//!
//! ```
//! use bddfc_core::{parse_program, hom};
//!
//! let prog = bddfc_core::parse_program(
//!     "E(a,b). E(b,c). E(c,a). ?- E(X,Y), E(Y,Z), E(Z,X).",
//! ).unwrap();
//! assert!(hom::satisfies_cq(&prog.instance, &prog.queries[0]));
//! ```

#![warn(missing_docs)]

pub mod columnar;
pub mod diag;
pub mod fxhash;
pub mod hom;
pub mod join;
pub mod instance;
pub mod obs;
pub mod par;
pub mod parser;
pub mod posgraph;
pub mod prng;
pub mod query;
pub mod rule;
pub mod satisfaction;
pub mod scc;
pub mod span;
pub mod symbols;
pub mod term;

pub use columnar::ColumnarStore;
pub use diag::{Diagnostic, LintReport, Severity};
pub use hom::Binding;
pub use instance::{FactIdx, Instance};
pub use join::Priors;
pub use parser::{parse_into, parse_program, parse_query, parse_rule, ParseError, Program};
pub use query::{ConjunctiveQuery, Ucq};
pub use rule::{Rule, RuleKind, Theory};
pub use span::{RuleSpans, SrcSpan};
pub use symbols::{ConstId, PredId, VarId, Vocabulary, MAX_ARITY};
pub use term::{Atom, Fact, Term};
