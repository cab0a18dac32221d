//! `bbec-oracle` — differential fuzzing for the black-box equivalence
//! checkers.
//!
//! The crate closes the loop the paper leaves open in practice: the ladder
//! of approximate checks (`r.p.` … `ie`) is only trustworthy if every rung
//! is *sound* — it never reports an error on an extendable design
//! (Section 2 of Scholl & Becker, "Checking Equivalence for Partial
//! Implementations"). This crate tests that claim mechanically:
//!
//! - [`oracle`]: an exhaustive extendability decider for small instances —
//!   it enumerates black-box truth tables and answers *exactly*, giving a
//!   ground truth no engine under test can argue with.
//! - [`generate`]: deterministic spec/partial instance generation (circuit
//!   families × planted mutations × box carves), one instance per `u64`.
//! - [`harness`]: runs all eleven engines on one instance and asserts the
//!   soundness, monotonicity, twin-agreement, parallel-invariance and
//!   witness-replay contracts.
//! - [`shrink`]: greedy delta-debugging of a violating instance down to a
//!   minimal reproducer.
//! - [`fixture`]: replayable BLIF pair serialisation (`_spec.blif` +
//!   `_impl.blif` with `# bbec-box` metadata comments).
//! - [`fuzz`]: the budgeted loop behind `bbec fuzz`.
//! - [`scalar`]: the scalar reference implementation of the
//!   random-pattern rung, the differential baseline of the packed engine.
//! - [`bddfuzz`]: one level down — differential fuzzing of the BDD package
//!   itself (random operator sequences vs an exhaustive truth table),
//!   behind `bbec fuzz --bdd`.

pub mod bddfuzz;
pub mod fixture;
pub mod fuzz;
pub mod generate;
pub mod harness;
pub mod oracle;
pub mod scalar;
pub mod shrink;

pub use bddfuzz::{run_bdd_fuzz, BddFuzzConfig, BddFuzzSummary, BddFuzzViolation};
pub use fuzz::{replay, run_fuzz, FuzzConfig, FuzzSummary, FuzzViolation};
pub use generate::{case_seed, generate, Instance};
pub use harness::{run_case, CaseOutcome, Engine, EngineVerdict, HarnessConfig, Violation};
pub use oracle::{decide, OracleLimits, OracleSkip, OracleVerdict};
