//! # bbec-core — black-box equivalence checking for partial implementations
//!
//! The primary contribution of Scholl & Becker, *"Checking Equivalence for
//! Partial Implementations"* (DAC 2001): given a complete combinational
//! specification and a partial implementation whose unfinished regions are
//! modelled as **black boxes**, decide whether the partial implementation
//! can still be extended to a correct complete design.
//!
//! The paper's ladder of checks, all available in [`checks`]:
//!
//! | Check | Power | Paper section |
//! |---|---|---|
//! | [`checks::random_patterns`] | weakest, non-symbolic baseline | Sec. 3, column `r.p.` |
//! | [`checks::symbolic_01x`] | finds all 0,1,X-visible errors (= Jain et al.) | Sec. 2.1 |
//! | [`checks::local_check`] | per-output exact (Lemma 2.1) | Sec. 2.2.1 |
//! | [`checks::output_exact`] | joint over outputs (Lemma 2.2, = Günther et al.) | Sec. 2.2.2 |
//! | [`checks::input_exact`] | exact for one box, strongest approximation else | Sec. 2.2.3, eq. (1) |
//! | [`checks::exact_decomposition`] | Theorem 2.1, brute force for tiny boxes | Sec. 2.2.3 |
//!
//! SAT-based variants of the first and fourth rung (the paper's future-work
//! arm) live in [`sat_checks`]. Around the checks sit:
//!
//! * [`preprocess`] — structural-sweeping front-end (constant propagation,
//!   identical-point merging, dead-logic removal) run before the ladder,
//!   verdict-invariant and black-box-aware,
//! * [`ParallelChecker`] — shards the per-output rungs over worker threads
//!   by cone of influence, one private BDD manager per worker,
//! * [`diagnose`] — fault localisation by black-boxing suspect regions
//!   (exact for single boxes by Theorem 2.2),
//! * [`unroll`] — bounded *sequential* black-box checking by time-frame
//!   expansion (the paper's second future-work item),
//! * [`samples`] — specimen circuits realising the separations of the
//!   paper's Figures 1–3.
//!
//! Every check is *sound*: it reports an error only if **no** replacement of
//! the black boxes can make the implementation equivalent to the
//! specification. The checks differ in completeness, forming the chain
//! `r.p. ⊆ 0,1,X ⊆ local ⊆ output-exact ⊆ input-exact`.
//!
//! ## Example
//!
//! ```rust
//! use bbec_netlist::Circuit;
//! use bbec_core::{PartialCircuit, checks, CheckSettings, Verdict};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Specification: f = (a & b) | c.
//! let mut spec = Circuit::builder("spec");
//! let a = spec.input("a");
//! let b = spec.input("b");
//! let c = spec.input("c");
//! let ab = spec.and2(a, b);
//! let f = spec.or2(ab, c);
//! spec.output("f", f);
//! let spec = spec.build()?;
//!
//! // Black-box the AND gate (gate index 0): still completable.
//! let partial = PartialCircuit::black_box_gates(&spec, &[0])?;
//! let outcome = checks::input_exact(&spec, &partial, &CheckSettings::default())?;
//! assert_eq!(outcome.verdict, Verdict::NoErrorFound);
//! # Ok(())
//! # }
//! ```

pub mod cex;
pub mod checks;
pub mod diagnose;
pub mod ledger;
mod parallel;
mod partial;
pub mod preprocess;
mod report;
pub mod samples;
pub mod sat_checks;
pub mod service;
mod symbolic;
pub mod unroll;

pub use cex::validate_counterexample;
pub use parallel::{plan_shards, ParallelChecker, Shard};
pub use partial::{convex_closure, BlackBox, PartialCircuit};
pub use preprocess::{PreprocessReport, Preprocessed};
pub use report::{
    BudgetAbort, CheckError, CheckOutcome, CheckSettings, Counterexample, Method, ResourceStats,
    Verdict,
};
pub use symbolic::{PartialSymbolic, SymbolicContext, TernaryBdd, TernarySim};
